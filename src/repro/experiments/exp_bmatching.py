"""E12 (extension) — two-sided b-matching with the proportional dynamics.

§1.2.1 leaves ``o(log n)``-round constant-approximate b-matching open
and calls this paper "the first step".  This extension experiment runs
the natural two-sided generalization of Algorithm 1 (left vertices
distribute ``b_u`` units proportionally) against the exact optimum and
the greedy ½-approximation across b-value scales, measuring how the
empirical ratio behaves — data for the open question, not a theorem.
"""

from __future__ import annotations

import numpy as np

from repro.bmatching.exact import optimum_bmatching_value
from repro.bmatching.greedy import greedy_bmatching
from repro.bmatching.problem import BMatchingInstance
from repro.core import params
from repro.experiments.harness import Scale, register
from repro.graphs import build_graph
from repro.bmatching.proportional import proportional_bmatching
from repro.utils.rng import as_generator
from repro.utils.tables import Table

_SIZES: dict[str, tuple[int, int, int, int]] = {
    # scale -> (n_left, n_right, m, repetitions)
    "smoke": (15, 12, 40, 1),
    "normal": (60, 48, 200, 3),
    "full": (200, 160, 800, 5),
}

EPSILON = 0.2


def _random_instance(n_left, n_right, m, bmax, rng):
    chosen = rng.choice(n_left * n_right, size=m, replace=False)
    g = build_graph(
        n_left, n_right,
        (chosen // n_right).astype(np.int64),
        (chosen % n_right).astype(np.int64),
    )
    return BMatchingInstance(
        graph=g,
        b_left=rng.integers(1, bmax + 1, size=n_left),
        b_right=rng.integers(1, bmax + 1, size=n_right),
        name=f"bm(bmax={bmax})",
    )


def check(table: Table) -> None:
    # The generalized dynamics should stay within a small constant of
    # optimal on these families and never collapse below greedy quality
    # by more than a modest margin.
    assert all(r["frac_ratio_worst"] <= 3.0 for r in table.rows)
    b_values = table.column("b_max")
    assert b_values == sorted(b_values)


@register(
    "e12",
    "Extension: two-sided b-matching proportional dynamics",
    "S1.2.1 open question: empirical behaviour of the generalized dynamics "
    "(no guarantee claimed by the paper)",
    check=check,
)
def run(*, scale: Scale = "normal", seed: int = 0) -> Table:
    n_left, n_right, m, reps = _SIZES[scale]
    table = Table(title="E12: two-sided b-matching (extension study)")
    for bmax in (1, 2, 4, 8):
        ratios = []
        greedy_ratios = []
        for rep in range(reps):
            rng = as_generator(seed * 1000 + bmax * 10 + rep)
            inst = _random_instance(n_left, n_right, m, bmax, rng)
            opt = optimum_bmatching_value(inst)
            tau = params.tau_azm18(n_right, EPSILON)
            frac = proportional_bmatching(inst, EPSILON, tau)
            greedy = int(greedy_bmatching(inst, seed=rep).sum())
            ratios.append(opt / max(frac.weight, 1e-12))
            greedy_ratios.append(opt / max(greedy, 1))
        table.add_row(
            b_max=bmax,
            n=n_left + n_right,
            m=m,
            frac_ratio_mean=round(float(np.mean(ratios)), 3),
            frac_ratio_worst=round(float(np.max(ratios)), 3),
            greedy_ratio_mean=round(float(np.mean(greedy_ratios)), 3),
            rounds=params.tau_azm18(n_right, EPSILON),
        )
    table.add_note(
        "bmax=1 is bipartite maximum matching; larger b stresses the "
        "unproven two-sided regime — ratios are data for the open question"
    )
    return table
