"""Golden regression tests: frozen outputs for fixed seeds.

These pin exact numeric outcomes of the deterministic pipeline so that
refactors cannot silently change algorithm semantics.  If one of these
fails after an intentional semantic change, regenerate the constants
with the printed values — but treat any unexpected diff as a bug.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.api import Engine, SolverConfig
from repro.core.proportional import ProportionalRun
from repro.core.sampled import SampledRun
from repro.core.termination import evaluate_certificate
from repro.dynamic.scenarios import adversarial_churn
from repro.graphs.generators import (
    heavy_tailed_instance,
    slow_spread_instance,
    union_of_forests,
)
from repro.serve.session import SolveRequest
from repro.rounding.sampling import round_once
from repro.core.local_driver import solve_fractional_fixed_tau


def test_golden_proportional_trajectory():
    inst = union_of_forests(30, 24, 3, capacity=2, seed=123)
    run = ProportionalRun(inst.graph, inst.capacities, 0.25)
    run.run(10)
    # Level-set histogram after 10 rounds is a complete fingerprint of
    # the integer-exponent trajectory.
    hist = run.level_histogram()
    assert hist.sum() == 24
    assert run.beta_exp.min() >= -10 and run.beta_exp.max() <= 10
    # Total capacity (48) exceeds the active left mass, so the dynamics
    # allocate every unit: weight = |active L| = 30, exactly.
    assert run.match_weight() == pytest.approx(30.0, abs=1e-9)


def test_golden_certificate_round():
    inst = slow_spread_instance(8, width=4)
    run = ProportionalRun(inst.graph, inst.capacities, 0.1)
    fired = None
    for r in range(1, 64):
        run.step()
        if evaluate_certificate(run).satisfied:
            fired = r
            break
    assert fired == 17


def test_golden_sampled_run():
    inst = union_of_forests(20, 16, 2, capacity=2, seed=7)
    run = SampledRun(
        inst.graph, inst.capacities, 0.25, block=2, sample_budget=8,
        sampler="keyed", seed=99,
    )
    run.run_rounds(6)
    assert run.rounds_completed == 6
    assert run.match_weight() == pytest.approx(20.0, abs=1e-9)


def test_golden_rounding_size():
    inst = union_of_forests(40, 30, 2, capacity=2, seed=11)
    frac = solve_fractional_fixed_tau(inst, 0.25).allocation
    out = round_once(inst.graph, inst.capacities, frac, seed=2024)
    assert out.size == int(out.edge_mask.sum())
    # Frozen: the exact sampled size for this (instance, seed).
    assert out.size == 9


def test_golden_values_stable_across_runs():
    """The same constructions twice — catches hidden global state."""
    vals = []
    for _ in range(2):
        inst = union_of_forests(25, 20, 2, capacity=2, seed=5)
        run = ProportionalRun(inst.graph, inst.capacities, 0.2).run(8)
        vals.append((run.match_weight(), tuple(run.beta_exp.tolist())))
    assert vals[0] == vals[1]


def _service_transcript() -> list[tuple]:
    """One canonical service conversation, reduced to a comparable
    transcript: (op, warm_start, seed_used, final_size) per solve."""
    import asyncio
    import tempfile

    from repro.graphs.generators import power_law_instance
    from repro.serve.service import AllocationService, ServiceClient
    from repro.serve.shm import instance_hash

    instance = power_law_instance(n_left=60, n_right=24, seed=3)
    h = instance_hash(instance)

    async def run():
        service = AllocationService(
            tempfile.mkdtemp(prefix="golden_service_"),
            seed=0,
            session_kwargs={"epsilon": 0.2},
        )
        await service.start()
        loop = asyncio.get_running_loop()

        def conversation():
            rows = []
            with ServiceClient(service.socket_path) as client:
                client.open(instance)
                for request in (
                    {},                                       # cursor seed 0
                    {"capacity_updates": {"0": 3}},           # cursor seed 1
                    {"seed": 77},                             # explicit seed
                    {},                                       # cursor seed 2
                ):
                    r = client.solve(h, **request)
                    rows.append((
                        "solve",
                        r["warm_start"],
                        r["seed_used"],
                        r["report"]["summary"]["final_size"],
                    ))
            return rows

        rows = await loop.run_in_executor(None, conversation)
        await service.stop()
        return rows

    return asyncio.run(run())


def test_golden_service_transcript():
    """The full wire path — open, seed cursor, warm lineage — is a
    deterministic function of (instance, service seed, request order).

    Pins the structural fingerprint (warm flags, seed equality
    pattern, sizes stable across identical runs) rather than raw seed
    integers, so the golden survives platforms while still catching
    any change to cursor derivation or warm-start plumbing.
    """
    first = _service_transcript()
    second = _service_transcript()
    # Bit-stable across service lifetimes (fresh store each time).
    assert first == second
    warm_flags = [row[1] for row in first]
    assert warm_flags == [False, True, True, True]
    assert first[2][2] == 77                      # explicit seed honored
    seeds = [row[2] for row in first]
    assert len({seeds[0], seeds[1], seeds[3]}) == 3   # distinct cursor draws
    assert all(row[3] > 0 for row in first)


# -- Bit-parity digests of the production solve paths -----------------
# Each digest pins the integral edge mask (SHA-1 of its bytes) and the
# MPC round count of one solve, so any change to the sampled dynamics,
# rounding, repair or boosting that moves a single edge fails here.


def _mask_digest(edge_mask: np.ndarray) -> str:
    return hashlib.sha1(np.ascontiguousarray(edge_mask, dtype=np.uint8).tobytes()).hexdigest()


@pytest.mark.parametrize(
    "family, expected",
    [
        ("slow_spread", ("370c92e31487435926e0417feeee4b0f66a477c1", 119)),
        ("heavy_tailed", ("bb534affa9514c3153f27f176cce2c4d856e72f0", 7)),
    ],
)
def test_golden_cold_engine_solve_digest(family, expected):
    if family == "slow_spread":
        inst = slow_spread_instance(8, width=4)
    else:
        inst = heavy_tailed_instance(400, seed=0)
    report = Engine(SolverConfig(epsilon=0.1)).solve(inst, seed=11)
    assert (_mask_digest(report.edge_mask), report.mpc_rounds) == expected


def test_golden_warm_session_solve_digest():
    inst = slow_spread_instance(8, width=4)
    session = Engine(SolverConfig(epsilon=0.1, boost=False)).open_session(inst)
    session.solve(seed=3)
    result = session.solve(SolveRequest(capacity_updates={0: 3, 5: 2}, seed=4))
    assert result.mpc.meta["warm_start"]
    assert (_mask_digest(result.edge_mask), result.mpc.mpc_rounds) == (
        "d5801cdc363cdd906d8eaf9ac7e07e8c14f1a0d2", 7
    )


def test_golden_dynamic_step_digest():
    inst = slow_spread_instance(8, width=4)
    dynamic = Engine(SolverConfig(epsilon=0.1)).open_dynamic(inst)
    dynamic.resolve(seed=5)
    (delta,) = adversarial_churn(inst, 1, seed=6)
    _, result = dynamic.step(delta, seed=7)
    assert (_mask_digest(result.edge_mask), result.mpc.mpc_rounds) == (
        "8b2e780ad0d6dce15662e904b98d8f7c9b1dc782", 21
    )
