"""Which ``src/repro`` functions the traced run wraps, and the per-layer
metrics computed from the spans.

Each :class:`~spans.Target` names the module where the *caller* looks
the function up (see :mod:`spans`).  Span names are the layer names the
per-layer metrics carry.
"""

from __future__ import annotations

from spans import Target

__all__ = ["IN_PROCESS", "SERVICE", "PER_LAYER", "layer_metrics"]


def _groups(tracer, args, kwargs, out) -> None:
    for side in out:
        tracer.count("core.sampled.groups", side.n_groups)
        if side.n_groups:
            tracer.peak("core.sampled.group_size_max", float(side.group_sizes.max()))


def _sampled(tracer, args, kwargs, out) -> None:
    tracer.count("core.sampled.slots_drawn", args[1].n_slots)
    tracer.count("core.sampled.kept", len(out))


def _rounds(tracer, args, kwargs, out) -> None:
    tracer.count("core.local_rounds", out.local_rounds)


def _repair(tracer, args, kwargs, out) -> None:
    tracer.count("rounding.repair_added", int(out.sum()) - int(args[2].sum()))


def _boost(tracer, args, kwargs, out) -> None:
    tracer.count("boosting.augmentations", out.augmentations)


def _delta(tracer, args, kwargs, out) -> None:
    tracer.count("dynamic.deltas")
    if out.structure_changed:
        tracer.count("dynamic.structural")


def _lazy_missing(slot: str):
    return lambda tracer, layout: getattr(layout, slot) is None


def _reply_report(tracer, report) -> bool:
    # Snapshots build a report payload too; that time is checkpointing.
    return report._payload is None and not tracer.inside("service.checkpoint")


_KERNELS = "repro.kernels.workspace:SegmentLayout"

# Layers every in-process request path crosses.  Where two modules
# import the same function, both references are listed.
IN_PROCESS = (
    Target("repro.api.engine:Engine", "solve", "api.engine"),
    Target("repro.serve.session:AllocationSession", "solve", "serve.session"),
    Target("repro.serve.session:AllocationSession", "reroll_rounding", "serve.session"),
    Target("repro.serve.session", "validate_integral_allocation", "graphs.def5_check"),
    Target("repro.core.pipeline", "run_pipeline", "core.pipeline"),
    Target("repro.serve.session", "run_pipeline", "core.pipeline"),
    Target("repro.core.pipeline", "solve_allocation_mpc", "core.mpc_driver", hook=_rounds),
    Target("repro.core.sampled:SampledRun", "run_phase", "core.sampled.phase"),
    Target("repro.core.sampled:SampledRun", "build_phase_groups",
           "core.sampled.group_build", hook=_groups),
    Target("repro.core.sampled:FastSampler", "sample_positions",
           "core.sampled.sample", hook=_sampled),
    Target("repro.core.sampled:KeyedSampler", "sample_positions",
           "core.sampled.sample", hook=_sampled),
    Target("repro.core.proportional", "proportional_round", "kernels.round"),
    Target("repro.kernels.workspace:RoundWorkspace", "__init__", "kernels.workspace_build"),
    Target(_KERNELS, "slot_owner", "kernels.workspace_build", when=_lazy_missing("_slot_owner")),
    Target(_KERNELS, "degrees", "kernels.workspace_build", when=_lazy_missing("_degrees")),
    Target(_KERNELS, "nonempty", "kernels.workspace_build", when=_lazy_missing("_nonempty")),
    Target(_KERNELS, "reduce_starts", "kernels.workspace_build",
           when=_lazy_missing("_reduce_starts")),
    Target("repro.dynamic.session", "transplant_workspace", "kernels.transplant"),
    Target("repro.core.pipeline", "round_best_of", "rounding.best_of"),
    Target("repro.rounding.sampling", "round_once", "rounding.copy"),
    Target("repro.core.pipeline", "greedy_fill", "rounding.repair", hook=_repair),
    Target("repro.core.pipeline", "boost_allocation", "boosting.boost", hook=_boost),
    Target("repro.boosting.boost", "build_layered_graph", "boosting.layered_build"),
    Target("repro.graphs.io", "instance_from_json", "graphs.load"),
    Target("repro.dynamic.session:DynamicSession", "apply", "dynamic.apply"),
    Target("repro.dynamic.session", "apply_delta", "dynamic.apply_delta", hook=_delta),
    Target("repro.dynamic.session", "remap_exponents", "dynamic.remap"),
    Target("repro.dynamic.session:DynamicSession", "resolve", "dynamic.resolve"),
)

# Extra layers inside the service process.
SERVICE = IN_PROCESS + (
    Target("repro.api.report:AllocationReport", "payload", "service.encode",
           when=_reply_report),
    Target("repro.serve.service", "snapshot_session", "service.checkpoint"),
    Target("repro.serve.snapshot:SnapshotStore", "save", "service.checkpoint"),
    Target("repro.serve.service", "restore_session", "service.restore"),
)

# (name, unit) of every per-layer metric, in BENCHMARK.json order.
# Times are ms per request, counts per request.  What each layer should
# move, written down before measuring ("~0": no change predicted):
#   serve.session, graphs.def5_check -> latency_p50_ms on warm_serving
#   core.mpc_driver, core.pipeline   -> latency_p50_ms, throughput_rps on cold_solve
#   core.sampled                     -> throughput_rps on cold_solve (~40%),
#                                       latency_p50_ms on warm_serving (~30%)
#   kernels                          -> cold_solve (round ~1.5%), dynamic_churn (transplant)
#   rounding                         -> latency_p50_ms on warm_serving; ~0 on cold_solve
#   boosting                         -> throughput_rps on cold_solve; ~0 on the others
#   graphs.load                      -> cold_solve
#   dynamic                          -> latency_p50_ms on dynamic_churn; ~0 elsewhere
#   service, bench.generator_lag     -> throughput_rps, latency_tail_ms on service_mixed
PER_LAYER = (
    ("serve.session.self_ms", "ms"),
    ("graphs.def5_check_ms", "ms"),
    ("core.fractional_ms", "ms"),
    ("core.mpc_driver.self_ms", "ms"),
    ("core.pipeline.self_ms", "ms"),
    ("core.local_rounds", "count"),
    ("core.sampled.sample_ms", "ms"),
    ("core.sampled.sample_calls", "count"),
    ("core.sampled.slots_drawn", "count"),
    ("core.sampled.kept_frac", "ratio"),
    ("core.sampled.group_build_ms", "ms"),
    ("core.sampled.groups", "count"),
    ("core.sampled.group_size_max", "count"),
    ("core.sampled.phase_self_ms", "ms"),
    ("kernels.round_ms", "ms"),
    ("kernels.round_calls", "count"),
    ("kernels.workspace_build_ms", "ms"),
    ("kernels.transplant_ms", "ms"),
    ("kernels.layouts_reused", "count"),
    ("rounding.best_of_ms", "ms"),
    ("rounding.copies_per_request", "count"),
    ("rounding.repair_ms", "ms"),
    ("rounding.repair_added", "count"),
    ("boosting.boost_ms", "ms"),
    ("boosting.layered_build_ms", "ms"),
    ("boosting.layered_builds", "count"),
    ("boosting.augmentations", "count"),
    ("boosting.augment_yield", "ratio"),
    ("graphs.load_ms", "ms"),
    ("api.engine.self_ms", "ms"),
    ("dynamic.apply_ms", "ms"),
    ("dynamic.apply_delta_ms", "ms"),
    ("dynamic.remap_ms", "ms"),
    ("dynamic.resolve_ms", "ms"),
    ("dynamic.structural_frac", "ratio"),
    ("service.queue_wait_ms", "ms"),
    ("service.solve_ms", "ms"),
    ("service.encode_ms", "ms"),
    ("service.response_bytes", "B"),
    ("service.checkpoint_ms", "ms"),
    ("service.checkpoints", "count"),
    ("service.restore_ms", "ms"),
    ("service.restores_warm", "count"),
    ("service.restores_cold", "count"),
    ("service.evictions", "count"),
    ("service.coalesced_frac", "ratio"),
    ("service.evicted_unsolved_lost", "count"),
    ("service.errors.bad_request", "count"),
    ("service.errors.unknown_instance", "count"),
    ("service.errors.admission_rejected", "count"),
    ("service.errors.internal", "count"),
    ("bench.generator_lag_ms", "ms"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, requests: int) -> dict[str, float]:
    """Per-request layer figures from one tracer's :meth:`to_dict`.

    Times are milliseconds per request, counts are per request.
    Layers a workload never enters read 0.
    """
    total, self_t = trace["total"], trace["self"]
    calls, counts = trace["calls"], trace["counts"]

    def ms(table: dict, name: str) -> float:
        return _ratio(table.get(name, 0.0) * 1000.0, requests)

    def per(table: dict, name: str) -> float:
        return _ratio(table.get(name, 0), requests)

    slots = counts.get("core.sampled.slots_drawn", 0.0)
    builds = calls.get("boosting.layered_build", 0)
    return {
        "serve.session.self_ms": ms(self_t, "serve.session"),
        "graphs.def5_check_ms": ms(total, "graphs.def5_check"),
        "core.fractional_ms": ms(total, "core.mpc_driver"),
        "core.mpc_driver.self_ms": ms(self_t, "core.mpc_driver"),
        "core.pipeline.self_ms": ms(self_t, "core.pipeline"),
        "core.local_rounds": per(counts, "core.local_rounds"),
        "core.sampled.sample_ms": ms(total, "core.sampled.sample"),
        "core.sampled.sample_calls": per(calls, "core.sampled.sample"),
        "core.sampled.slots_drawn": per(counts, "core.sampled.slots_drawn"),
        "core.sampled.kept_frac": _ratio(counts.get("core.sampled.kept", 0.0), slots),
        "core.sampled.group_build_ms": ms(total, "core.sampled.group_build"),
        "core.sampled.groups": per(counts, "core.sampled.groups"),
        "core.sampled.group_size_max": trace["maxima"].get("core.sampled.group_size_max", 0.0),
        "core.sampled.phase_self_ms": ms(self_t, "core.sampled.phase"),
        "kernels.round_ms": ms(total, "kernels.round"),
        "kernels.round_calls": per(calls, "kernels.round"),
        "kernels.workspace_build_ms": ms(total, "kernels.workspace_build"),
        "kernels.transplant_ms": ms(total, "kernels.transplant"),
        "rounding.best_of_ms": ms(total, "rounding.best_of"),
        "rounding.copies_per_request": per(calls, "rounding.copy"),
        "rounding.repair_ms": ms(total, "rounding.repair"),
        "rounding.repair_added": per(counts, "rounding.repair_added"),
        "boosting.boost_ms": ms(total, "boosting.boost"),
        "boosting.layered_build_ms": ms(total, "boosting.layered_build"),
        "boosting.layered_builds": per(calls, "boosting.layered_build"),
        "boosting.augmentations": per(counts, "boosting.augmentations"),
        "boosting.augment_yield": _ratio(counts.get("boosting.augmentations", 0.0), builds),
        "graphs.load_ms": ms(total, "graphs.load"),
        "api.engine.self_ms": ms(self_t, "api.engine"),
        "dynamic.apply_ms": ms(total, "dynamic.apply"),
        "dynamic.apply_delta_ms": ms(total, "dynamic.apply_delta"),
        "dynamic.remap_ms": ms(total, "dynamic.remap"),
        "dynamic.resolve_ms": ms(total, "dynamic.resolve"),
        "dynamic.structural_frac": _ratio(
            counts.get("dynamic.structural", 0.0), counts.get("dynamic.deltas", 0.0)
        ),
        "trace.unattributed_frac": _ratio(
            trace["request_wall"] - trace["request_covered"], trace["request_wall"]
        ),
    }
