"""E8 — boosting (2+ε) → (1+ε) (Theorem 1 / Appendix B).

Start from the full pipeline's constant-approximate integral
allocation (fractional → round → repair) and boost with the layered
framework at several ε targets; the deterministic eliminator provides
the reference ratio for the same k.  Expected shape: ratio marches
towards 1+1/k as k grows, with iteration counts growing steeply in k —
the exp(O(2^k)) the framework pays for parallelism.
"""

from __future__ import annotations

from repro.analysis.metrics import approximation_ratio
from repro.baselines.exact import optimum_value
from repro.boosting.boost import boost_allocation, k_for_epsilon
from repro.core.local_driver import solve_fractional_fixed_tau
from repro.experiments.harness import Scale, register
from repro.graphs.generators import power_law_instance, union_of_forests
from repro.rounding.sampling import round_best_of
from repro.utils.tables import Table

_SCALE_FACTOR = {"smoke": 1, "normal": 3, "full": 8}
_EPS_TARGETS = {"smoke": [0.5], "normal": [1.0, 0.5, 0.34, 0.25], "full": [1.0, 0.5, 0.34, 0.25, 0.2]}

BASE_EPS = 0.2


def _start_allocation(inst, seed):
    """The paper pipeline's hand-off point: the §6 rounded output
    *without* repair — a genuine Θ(1)-approximation (≈ wt/6 of the
    fractional weight survives), leaving boosting real work to do."""
    frac = solve_fractional_fixed_tau(inst, BASE_EPS).allocation
    rounded = round_best_of(inst.graph, inst.capacities, frac, copies=8, seed=seed)
    return rounded.edge_mask


def check(table: Table) -> None:
    # The deterministic reference always certifies the 1+1/k target.
    assert all(table.column("det_within_target"))
    for row in table.rows:
        # Boosting never hurts, and the randomized framework lands within
        # a whisker of the deterministic reference.
        assert row["layered_ratio"] <= row["start_ratio"] + 1e-9
        assert row["layered_ratio"] <= row["det_ratio"] + 0.30


@register(
    "e8",
    "Boosting a constant approximation to (1+eps)",
    "T1/App.B: GGM22 layered augmentation lifts the constant factor to 1+eps",
    check=check,
)
def run(*, scale: Scale = "normal", seed: int = 0) -> Table:
    f = _SCALE_FACTOR[scale]
    table = Table(title="E8: boosting ratio vs target epsilon")
    instances = [
        union_of_forests(40 * f, 30 * f, 3, capacity=2, seed=seed),
        power_law_instance(40 * f, 12 * f, mean_left_degree=3, seed=seed),
    ]
    for inst in instances:
        opt = optimum_value(inst)
        start = _start_allocation(inst, seed)
        start_ratio = approximation_ratio(opt, int(start.sum()))
        for eps in _EPS_TARGETS[scale]:
            k = k_for_epsilon(eps)
            layered = boost_allocation(
                inst, start, eps, mode="layered", seed=seed,
            )
            det = boost_allocation(inst, start, eps, mode="deterministic")
            table.add_row(
                family=inst.name,
                target_eps=eps,
                k=k,
                start_ratio=round(start_ratio, 3),
                layered_ratio=round(approximation_ratio(opt, layered.final_size), 3),
                det_ratio=round(approximation_ratio(opt, det.final_size), 3),
                target_ratio=round(1.0 + 1.0 / k, 3),
                det_within_target=approximation_ratio(opt, det.final_size)
                <= 1.0 + 1.0 / k + 1e-9,
                layered_iterations=layered.iterations_used,
                layered_augmentations=layered.augmentations,
            )
    table.add_note(
        "det_* is the sequential eliminator (the certified reference); the "
        "layered column is the randomized parallel framework"
    )
    return table
