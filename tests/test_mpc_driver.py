"""Tests for the full MPC algorithm (Theorem 3 driver)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.exact import optimum_value
from repro.core import params
from repro.core.mpc_driver import solve_allocation_mpc
from repro.graphs.generators import (
    load_balancing_instance,
    star_instance,
    union_of_forests,
)
from repro.mpc.costmodel import MPCCostModel

from tests.conftest import assert_feasible_fractional


EPS = 0.2


def test_simulate_mode_basic():
    inst = union_of_forests(40, 30, 2, capacity=2, seed=1)
    res = solve_allocation_mpc(inst, EPS, lam=2, seed=0)
    assert res.certificate is not None and res.certificate.satisfied
    assert res.mpc_rounds > 0
    assert res.ledger.phases >= 1
    assert_feasible_fractional(inst.graph, inst.capacities, res.allocation.x)
    opt = optimum_value(inst)
    assert opt <= res.guarantee * res.match_weight + 1e-9


def test_simulate_mode_with_guessing():
    inst = union_of_forests(40, 30, 3, capacity=2, seed=2)
    res = solve_allocation_mpc(inst, EPS, seed=0)
    assert res.meta["lambda_known"] is False
    assert res.meta["used_guess"] in res.ledger.guesses
    opt = optimum_value(inst)
    assert opt <= res.guarantee * res.match_weight + 1e-9


def test_ledger_categories_charged():
    inst = union_of_forests(30, 24, 2, capacity=2, seed=3)
    res = solve_allocation_mpc(inst, EPS, lam=2, seed=0)
    for cat in ("grouping", "sampling", "writeback", "termination_test"):
        assert res.ledger.by_category.get(cat, 0) >= 1, cat
    assert res.mpc_rounds == res.ledger.total_rounds


def test_rounds_below_azm18_baseline():
    """The headline: MPC rounds beat the O(log n / ε²) baseline."""
    inst = union_of_forests(200, 160, 2, capacity=2, seed=4)
    res = solve_allocation_mpc(inst, EPS, lam=2, seed=0)
    baseline = params.tau_azm18(inst.graph.n_right, EPS)
    assert res.mpc_rounds < baseline


def test_epsilon_cap():
    inst = star_instance(4)
    with pytest.raises(ValueError):
        solve_allocation_mpc(inst, 0.5)


def test_alpha_validated():
    inst = star_instance(4)
    with pytest.raises(ValueError):
        solve_allocation_mpc(inst, EPS, alpha=2.0)


def test_faithful_mode_matches_simulate_bitwise():
    inst = union_of_forests(14, 12, 2, capacity=2, seed=5)
    faithful = solve_allocation_mpc(
        inst, EPS, lam=2, mode="faithful", seed=123, sample_budget=6,
        space_slack=512.0,
    )
    simulate = solve_allocation_mpc(
        inst, EPS, lam=2, mode="simulate", sampler="keyed", seed=123,
        sample_budget=6,
    )
    assert np.array_equal(faithful.allocation.x, simulate.allocation.x)
    assert faithful.match_weight == simulate.match_weight
    assert faithful.local_rounds == simulate.local_rounds
    # Faithful mode routes real records, so the ledger saw their skew;
    # simulate mode never routes and its peak stays 0.
    assert faithful.ledger.peak_routed_records > 0
    assert simulate.ledger.peak_routed_records == 0


def test_faithful_matches_simulate_at_default_budget():
    """At the theoretical budget every group is sampled whole, so both
    modes decide from the exact aggregates and agree whichever sampler
    each one holds."""
    inst = union_of_forests(14, 12, 2, capacity=2, seed=5)
    faithful = solve_allocation_mpc(
        inst, EPS, lam=2, mode="faithful", seed=123, space_slack=512.0,
    )
    simulate = solve_allocation_mpc(inst, EPS, lam=2, mode="simulate", seed=123)
    assert simulate.meta["sample_budget"] >= inst.graph.max_degree
    assert np.array_equal(faithful.allocation.x, simulate.allocation.x)
    assert faithful.match_weight == simulate.match_weight
    assert faithful.local_rounds == simulate.local_rounds


def test_faithful_mode_enforces_space():
    inst = union_of_forests(14, 12, 2, capacity=2, seed=5)
    res = solve_allocation_mpc(
        inst, EPS, lam=2, mode="faithful", seed=1, sample_budget=6,
        space_slack=512.0,
    )
    assert res.ledger.peak_machine_words > 0
    assert res.ledger.violations == []


def test_faithful_rejects_fast_sampler():
    inst = star_instance(4)
    with pytest.raises(ValueError, match="keyed"):
        solve_allocation_mpc(inst, EPS, lam=1, mode="faithful", sampler="fast")


def test_known_lambda_uses_fewer_or_equal_rounds_than_guessing():
    inst = union_of_forests(60, 50, 4, capacity=2, seed=8)
    known = solve_allocation_mpc(inst, EPS, lam=4, seed=0)
    guessed = solve_allocation_mpc(inst, EPS, seed=0)
    assert known.mpc_rounds <= guessed.mpc_rounds * 1.01 + 5


def test_load_balancing_instance_end_to_end():
    inst = load_balancing_instance(100, 10, locality=3, seed=9)
    res = solve_allocation_mpc(inst, EPS, lam=3, seed=0)
    opt = optimum_value(inst)
    # Balanced load-balancing instances are easy: near-optimal output.
    assert res.match_weight >= opt / (2 + 16 * EPS) - 1e-9
    assert_feasible_fractional(inst.graph, inst.capacities, res.allocation.x)


def test_mpc_rounds_consistent_with_cost_model_shape():
    """Measured rounds stay within small constant factors of the cost
    model's prediction for the same (n, λ, ε, α)."""
    inst = union_of_forests(100, 80, 4, capacity=2, seed=10)
    res = solve_allocation_mpc(inst, EPS, lam=4, seed=0)
    model = MPCCostModel(n=inst.graph.n_vertices, lam=4, epsilon=EPS, alpha=0.5)
    predicted = model.rounds_known_lambda()
    # The driver may stop early via the certificate, so measured ≤
    # predicted always; and it should be within 0.05–1× of prediction.
    assert res.mpc_rounds <= predicted
    assert res.mpc_rounds >= 1
