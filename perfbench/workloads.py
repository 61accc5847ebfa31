"""The three in-process workloads: ``warm_serving``, ``cold_solve`` and
``dynamic_churn``.  Each is a closed loop with one caller.

A workload is a set-up function that returns the state it measures, a
serve function (the timed request) and a record function that keeps,
outside the timed region, the little the gate checks after the loop.
Set-up runs several times per run (``setup_s`` is their median); the
last one is measured.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from benchmarks.bench_serving import build_workload
from repro.api import Engine, SolverConfig
from repro.dynamic.deltas import Compound, DemandChange, EdgeAdd, EdgeRemove
from repro.dynamic.scenarios import adversarial_churn
from repro.graphs import io as graphs_io
from repro.graphs.bipartite import build_graph
from repro.graphs.generators import (
    adversarial_rounds_instance,
    heavy_tailed_instance,
    slow_spread_instance,
)
from repro.graphs.instances import AllocationInstance
from repro.serve.shm import instance_hash

EPSILON = 0.1

__all__ = ["EPSILON", "Workload", "WORKLOADS", "cold_families", "request_seeds"]


def request_seeds(seed: int, stream: int, n: int = 1 << 16) -> list[int]:
    """Per-request solver seeds, a pure function of the workload seed."""
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def cold_families(heavy_n: int = 8000) -> list[AllocationInstance]:
    """The three zoo families of ``cold_solve``.  The instances are fixed;
    the workload seed drives the solver seeds of the requests, so runs
    on different seeds differ in the random choices the solver makes,
    not in the instances it solves."""
    return [
        slow_spread_instance(32, width=40),
        adversarial_rounds_instance(600),
        heavy_tailed_instance(heavy_n, seed=0),
    ]


@dataclass
class Record:
    """What the gate needs from one served request (kept small)."""

    key: Any                 # which expected instance the output answers
    edge_mask: np.ndarray
    certified: bool
    mpc_rounds: int
    group: int = 0           # request class, for class-balanced means
    epsilon: Any = None      # the request's ε when it overrides the workload's
    ratio: Any = None        # size/OPT, filled in by the gate


@dataclass
class Workload:
    setup: Callable[[int], Any]                      # seed -> state
    serve: Callable[[Any, int], Any]                 # (state, i) -> output, timed
    record: Callable[[Any, int, Any], Record]        # (state, i, output), untimed
    expected: Callable[[Any, Any], AllocationInstance]  # (state, key) -> instance
    rotation: int = 1        # serve whole rotations of this many requests
    after: Callable[[Any], dict] = field(default=lambda state: {})


# -- warm_serving ---------------------------------------------------------
# The ROADMAP serving workload: one resident session on slow_spread
# answering capacity updates (every third one also moves ε to 0.12).
# One round of dynamics per request, so repair, best-of rounding and
# one sampled phase dominate while kernels and boosting idle.
def _warm_setup(seed: int):
    instance, requests, _ = build_workload("full")
    session = Engine(SolverConfig(epsilon=EPSILON, boost=False)).open_session(instance)
    seeds = request_seeds(seed, 1)
    session.solve(seed=seeds[-1])
    return {"instance": instance, "requests": requests, "session": session,
            "seeds": seeds, "expected": {}}


def _warm_serve(state, i: int):
    k = i % len(state["requests"])
    request = dataclasses.replace(state["requests"][k], seed=state["seeds"][i])
    return state["session"].solve(request)


def _pipeline_record(state, i: int, result) -> Record:
    k = i % len(state["requests"])
    return Record(k, result.edge_mask, _certified(result.mpc.certificate),
                  result.mpc.mpc_rounds, epsilon=state["requests"][k].epsilon)


def _warm_expected(state, k: int) -> AllocationInstance:
    if k not in state["expected"]:
        instance = state["instance"]
        caps = instance.capacities.copy()
        for v, c in state["requests"][k].capacity_updates.items():
            caps[int(v)] = int(c)
        state["expected"][k] = instance.with_capacities(caps)
    return state["expected"][k]


# -- cold_solve -----------------------------------------------------------
# The only workload where the multi-round sampling loop, the per-graph
# workspace build and layered boosting do real work: every request
# parses instance JSON and runs a cold Engine.solve under the default
# SolverConfig.  heavy_tailed converges in one round, so its time is
# almost all boosting, which separates boosting from the round loop.
def _cold_setup(seed: int):
    instances = cold_families()
    texts = [graphs_io.instance_to_json(inst) for inst in instances]
    engine = Engine(SolverConfig(epsilon=EPSILON))
    # Prime lazy imports and first-call costs on a small instance.
    engine.solve(heavy_tailed_instance(200, seed=seed), seed=0)
    return {"instances": {instance_hash(inst): inst for inst in instances},
            "texts": texts, "engine": engine, "seeds": request_seeds(seed, 2)}


def _cold_serve(state, i: int):
    instance = graphs_io.instance_from_json(state["texts"][i % len(state["texts"])])
    return instance, state["engine"].solve(instance, seed=state["seeds"][i])


def _cold_record(state, i: int, out) -> Record:
    instance, report = out
    return Record(instance_hash(instance), report.edge_mask, report.certified,
                  report.mpc_rounds, group=i % len(state["texts"]))


def _cold_expected(state, key: str) -> AllocationInstance:
    # KeyError: the decoded instance differs from every generated one.
    return state["instances"][key]


# -- dynamic_churn --------------------------------------------------------
# The only workload that writes the instance: adversarial churn on
# slow_spread (edge removals and additions plus capacity flips) through
# a DynamicSession, each step an apply + warm resolve.  The stream is
# CHURN_STEPS seeded deltas followed by their inverses, repeated, so
# the instance cycles through CHURN_STEPS + 1 states and the gate's
# max-flow optima stay cheap.
CHURN_STEPS = 12


def _inverse(delta: Compound, caps_before: dict[int, int]) -> Compound:
    parts = []
    for part in delta.deltas:
        if isinstance(part, EdgeAdd):
            parts.append(EdgeRemove(edges=part.edges))
        elif isinstance(part, EdgeRemove):
            parts.append(EdgeAdd(edges=part.edges))
        elif isinstance(part, DemandChange):
            parts.append(DemandChange(updates={v: caps_before[v] for v in part.updates}))
        else:  # pragma: no cover - adversarial_churn emits only these
            raise TypeError(f"unexpected churn part {part!r}")
    return Compound(deltas=tuple(reversed(parts)))


def _churn_states(instance: AllocationInstance, forward: list[Compound]):
    """The stream and, independently of ``apply_delta``, the edge set and
    capacities after every step."""
    n_right = instance.n_right
    codes = set((instance.graph.edge_u * n_right + instance.graph.edge_v).tolist())
    caps = instance.capacities.copy()
    states = [(np.array(sorted(codes), dtype=np.int64), caps.copy())]
    inverses = []
    for delta in forward:
        before = {}
        for part in delta.deltas:
            if isinstance(part, EdgeRemove):
                codes.difference_update(u * n_right + v for u, v in part.edges)
            elif isinstance(part, EdgeAdd):
                codes.update(u * n_right + v for u, v in part.edges)
            else:
                for v, c in part.updates.items():
                    before.setdefault(v, int(caps[v]))
                    caps[v] = c
        inverses.append(_inverse(delta, before))
        states.append((np.array(sorted(codes), dtype=np.int64), caps.copy()))
    stream = list(forward) + inverses[::-1]
    # Step j of the stream leads to state index[j].
    index = list(range(1, len(forward) + 1)) + list(range(len(forward) - 1, -1, -1))
    return stream, states, index


def _state_instance(instance, state) -> AllocationInstance:
    codes, caps = state
    graph = build_graph(instance.n_left, instance.n_right,
                        codes // instance.n_right, codes % instance.n_right)
    return AllocationInstance(graph=graph, capacities=caps.copy())


def _dyn_setup(seed: int):
    instance = slow_spread_instance(32, width=40)
    forward = adversarial_churn(instance, CHURN_STEPS, seed=seed)
    stream, states, index = _churn_states(instance, forward)
    dynamic = Engine(SolverConfig(epsilon=EPSILON, boost=False)).open_dynamic(instance)
    seeds = request_seeds(seed, 3)
    dynamic.resolve(seed=seeds[-1])
    return {"instance": instance, "stream": stream, "states": states, "index": index,
            "dynamic": dynamic, "seeds": seeds, "expected": {}}


def _dyn_serve(state, i: int):
    delta = state["stream"][i % len(state["stream"])]
    return state["dynamic"].step(delta, seed=state["seeds"][i])[1]


def _dyn_record(state, i: int, result) -> Record:
    # The key binds the output to the instance the program solved; the
    # gate compares it with the independently tracked state.
    index = state["index"][i % len(state["stream"])]
    return Record((index, instance_hash(result.instance)), result.edge_mask,
                  _certified(result.mpc.certificate), result.mpc.mpc_rounds)


def _dyn_expected(state, key) -> AllocationInstance:
    index, program_hash = key
    if index not in state["expected"]:
        inst = _state_instance(state["instance"], state["states"][index])
        state["expected"][index] = (inst, instance_hash(inst))
    inst, expected_hash = state["expected"][index]
    if program_hash != expected_hash:
        raise KeyError(f"churn state {index}: solved instance differs from the expected one")
    return inst


def _dyn_after(state) -> dict:
    # CSR sides (of two) a structural rebuild adopted from its parent.
    stats = state["dynamic"].stats
    return {"layouts_reused": stats.layouts_reused / max(1, stats.structural_rebuilds)}


def _certified(cert) -> bool:
    return cert is not None and bool(cert.satisfied)


WORKLOADS = {
    "warm_serving": Workload(_warm_setup, _warm_serve, _pipeline_record, _warm_expected),
    "cold_solve": Workload(_cold_setup, _cold_serve, _cold_record, _cold_expected,
                           rotation=3),
    "dynamic_churn": Workload(_dyn_setup, _dyn_serve, _dyn_record, _dyn_expected,
                              after=_dyn_after),
}
