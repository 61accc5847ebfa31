"""The repository benchmark: one command over the four request paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (all ε = 0.1):

* ``warm_serving``  — capacity updates to one resident session;
* ``cold_solve``    — instance JSON parse + cold Engine.solve, rotating
  over three zoo families;
* ``dynamic_churn`` — adversarial churn through a DynamicSession;
* ``service_mixed`` — two closed-loop callers, one unix-socket
  connection each, to an AllocationService in a child process.

Seed 2026 is held out: the benchmark was tuned on other seeds, so a
change that claims a gain re-checks there.

Every time metric is reported at reference host speed: a fixed probe
kernel is timed between requests and the run's times are scaled by the
reference probe time over the run's median probe time (see
:mod:`hostclock`).  The lines above the result print the probe time
and the raw figures too.

``--trace 0`` measures the end-to-end metrics with no wrapper
installed.  ``--trace 1`` spends half the time untraced and half with
layer spans installed (:mod:`layers`), and reports the per-layer
metrics plus the tracing overhead.  Every output passes the gate in
:mod:`gate` outside the timed regions.  The last line of standard
output is the JSON result; the lines above it name the host and print
every metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _require_checkout() -> None:
    missing = [p for p in ("src/repro/api/engine.py", "benchmarks/_scale.py",
                           "benchmarks/bench_serving.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a repository checkout, missing {missing}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # The native-backend probe in the host stamp compiles a kernel; keep
    # its cache inside the checkout.
    os.environ.setdefault("REPRO_NATIVE_CACHE", str(ROOT / ".perfbench_tmp" / "native"))


def host_stamp() -> dict:
    import numpy

    from benchmarks._scale import cpu_info
    from repro.kernels.backends import backend_availability, get_backend

    native = backend_availability("native").get("native")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_info(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": get_backend().name,
        "native_backend": "available" if native is None else native,
    }


# -- in-process workloads -------------------------------------------------
def _measure(workload, state, seconds: float, start: int, clock, tracer=None):
    """Serve requests until ``seconds`` of request time are spent and the
    current rotation is complete, probing the host between requests.
    Returns raw latencies and the outputs."""
    latencies, outputs = [], []
    spent = 0.0
    i = start
    clock.probe_after(0.0)
    while spent < seconds or (i - start) % workload.rotation:
        with tracer.request() if tracer is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            out = workload.serve(state, i)
            dt = time.perf_counter() - t0
        latencies.append(dt)
        outputs.append(workload.record(state, i, out))
        clock.probe_after(dt)
        spent += dt
        i += 1
    return latencies, outputs


def _timed_setups(clock, setup, seed: int, repeats: int):
    """Run ``setup`` ``repeats`` times, probing the host around each;
    returns the last state and every raw set-up time."""
    raw = []
    for _ in range(repeats):
        clock.probe_after(0.5)
        t0 = time.perf_counter()
        state = setup(seed)
        raw.append(time.perf_counter() - t0)
    clock.probe_after(0.5)
    return state, raw


def _gate_records(workload, state, records, gate) -> None:
    for rec in records:
        try:
            instance = workload.expected(state, rec.key)
        except KeyError:
            gate.fail("instance")
            continue
        rec.ratio = gate.check(instance, rec.edge_mask, rec.certified, rec.epsilon)


def _balanced_mean(records, field: str) -> float:
    """Mean over request classes of each class's mean, so a run that
    ends mid-rotation does not tilt the figure toward one family."""
    groups: dict[int, list[float]] = {}
    for rec in records:
        value = getattr(rec, field)
        if value is not None:
            groups.setdefault(rec.group, []).append(value)
    return statistics.fmean(statistics.fmean(v) for v in groups.values()) if groups else 0.0


def run_in_process(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import layers
    import spans
    from gate import Gate
    from hostclock import REFERENCE_PROBE_MS, HostClock
    from metrics import SETUP_REPEATS, latency_digest, peak_rss_mb
    from workloads import EPSILON, WORKLOADS

    workload = WORKLOADS[name]
    originals = spans.snapshot(layers.IN_PROCESS)
    clock = HostClock()
    state, setups = _timed_setups(clock, workload.setup, seed, 1 if trace else SETUP_REPEATS)

    gate = Gate(EPSILON)
    if not trace:
        spans.assert_untouched(layers.IN_PROCESS, originals)
        raw, records = _measure(workload, state, seconds, 0, clock)
        spans.assert_untouched(layers.IN_PROCESS, originals)
        latencies = [clock.rescale(dt) for dt in raw]
        rss = peak_rss_mb()
        _gate_records(workload, state, records, gate)
        n = len(latencies)
        metrics = {
            **latency_digest(latencies),
            "throughput_rps": n / sum(latencies),
            "ok_frac": (n - gate.failed) / n,
            "approx_ratio": _balanced_mean(records, "ratio"),
            "mpc_rounds_mean": _balanced_mean(records, "mpc_rounds"),
            "peak_rss_mb": rss,
            "setup_s": clock.rescale(statistics.median(setups)),
        }
        print(f"host probe {clock.probe_ms():.3f} ms (reference {REFERENCE_PROBE_MS} ms); "
              f"raw latency p50 {latency_digest(raw)['latency_p50_ms']:.4g} ms, "
              f"tail {latency_digest(raw)['latency_tail_ms']:.4g} ms, "
              f"raw throughput {n / sum(raw):.4g} 1/s")
        return {"metrics": metrics, "attempted": n, "failed": gate.failed,
                "correct": gate.failed == 0, "failures": dict(gate.failures)}

    half = seconds / 2.0
    plain, plain_records = _measure(workload, state, half, 0, clock)
    tracer = spans.Tracer()
    traced_clock = HostClock()
    with tracer.installed(layers.IN_PROCESS):
        traced, traced_records = _measure(workload, state, half, len(plain),
                                          traced_clock, tracer)
    spans.assert_untouched(layers.IN_PROCESS, originals)
    _gate_records(workload, state, plain_records + traced_records, gate)
    metrics = layers.layer_metrics(tracer.to_dict(), tracer.requests)
    after = workload.after(state)
    metrics["kernels.layouts_reused"] = float(after.get("layouts_reused", 0))
    metrics["trace.overhead_frac"] = (
        traced_clock.rescale(statistics.fmean(traced))
        / clock.rescale(statistics.fmean(plain)) - 1.0
    )
    n = len(plain) + len(traced)
    return {"metrics": metrics, "attempted": n, "failed": gate.failed,
            "correct": gate.failed == 0, "failures": dict(gate.failures)}


# -- entry point ------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["warm_serving", "cold_solve", "dynamic_churn",
                                 "service_mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    _require_checkout()
    import layers
    from metrics import END_TO_END

    if args.workload == "service_mixed":
        from service_load import run_service_mixed

        result = run_service_mixed(args.seed, args.seconds, bool(args.trace), ROOT)
    else:
        result = run_in_process(args.workload, args.seed, args.seconds, bool(args.trace))

    names = layers.PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": float(result["metrics"].get(name, 0.0)), "unit": unit}
               for name, unit in names}
    print("host " + json.dumps(host_stamp()))
    if not args.trace:
        m = result["metrics"]
        print(f"latency_tail_ms is p{m['tail_percentile']} of {m['samples']} requests")
    print(f"failures by type {json.dumps(result['failures'])}")
    for name, unit in names:
        print(f"{name:34s} {metrics[name]['value']:.6g} {unit}")
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
