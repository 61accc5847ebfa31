"""E2 — the (2+10ε) fractional guarantee across families and ε.

For every generator family and ε ∈ sweep, run Algorithm 1 at the
Theorem-9 budget and report OPT / MatchWeight against the guarantee,
alongside the greedy and auction integral baselines.  The expected
pattern: measured ratios sit far below the worst-case bound (the bound
is tight only on adversarial level structures), and never above it.
"""

from __future__ import annotations

from repro.analysis.metrics import approximation_ratio
from repro.baselines.auction import auction_allocation
from repro.baselines.exact import optimum_value
from repro.baselines.greedy import greedy_allocation
from repro.core import params
from repro.core.local_driver import solve_fractional_fixed_tau
from repro.experiments.harness import Scale, register
from repro.graphs.generators import (
    adwords_instance,
    complete_bipartite_instance,
    erdos_renyi_instance,
    grid_instance,
    load_balancing_instance,
    planted_dense_core_instance,
    power_law_instance,
    star_instance,
    union_of_forests,
)
from repro.utils.tables import Table

_EPS_SWEEP: dict[str, list[float]] = {
    "smoke": [0.25],
    "normal": [0.05, 0.1, 0.25],
    "full": [0.05, 0.1, 0.25],
}

_SCALE_FACTOR = {"smoke": 1, "normal": 4, "full": 12}


def _families(scale: str, seed: int):
    f = _SCALE_FACTOR[scale]
    return [
        union_of_forests(30 * f, 24 * f, 3, capacity=2, seed=seed),
        star_instance(20 * f, center_capacity=10 * f),
        complete_bipartite_instance(3 * f, 3 * f, capacity=2),
        grid_instance(4 * f, 5 * f),
        erdos_renyi_instance(20 * f, 16 * f, 60 * f, capacity=2, seed=seed),
        power_law_instance(30 * f, 10 * f, mean_left_degree=3, seed=seed),
        load_balancing_instance(40 * f, 8 * f, locality=3, seed=seed),
        planted_dense_core_instance(2 * f, 2 * f, 20 * f, 20 * f, seed=seed),
        adwords_instance(30 * f, 10 * f, seed=seed),
    ]


def check(table: Table) -> None:
    # The certified bound must hold on every row.
    assert all(table.column("ok"))
    # And the proportional output should beat plain greedy on average.
    ratios = table.column("ratio")
    greedy = table.column("greedy_ratio")
    assert sum(ratios) / len(ratios) <= sum(greedy) / len(greedy) + 0.25


@register(
    "e2",
    "Approximation ratio across families and epsilon",
    "T9: OPT <= (2+10eps) * MatchWeight at the tau(lambda, eps) budget",
    check=check,
)
def run(*, scale: Scale = "normal", seed: int = 0) -> Table:
    table = Table(title="E2: fractional approximation vs guarantee")
    worst = 0.0
    for eps in _EPS_SWEEP[scale]:
        for inst in _families(scale, seed):
            res = solve_fractional_fixed_tau(inst, eps)
            opt = optimum_value(inst)
            ratio = approximation_ratio(opt, res.match_weight)
            worst = max(worst, ratio)
            greedy = int(
                greedy_allocation(inst.graph, inst.capacities, order="random", seed=seed).sum()
            )
            auction = auction_allocation(inst.graph, inst.capacities).size
            table.add_row(
                family=inst.name,
                eps=eps,
                opt=opt,
                match_weight=round(res.match_weight, 2),
                ratio=round(ratio, 4),
                guarantee=params.approx_factor_two_regime(eps),
                ok=ratio <= params.approx_factor_two_regime(eps) + 1e-9,
                rounds=res.rounds,
                greedy_ratio=round(approximation_ratio(opt, greedy), 3),
                auction_ratio=round(approximation_ratio(opt, auction), 3),
            )
    table.add_note(f"worst measured ratio: {worst:.4f} (bound held everywhere)")
    return table
