"""E9 — the vertex-splitting reduction blows up arboricity (§1.1).

The remark after Theorem 2: a star whose center has capacity ``n−1``
has arboricity 1, but splitting the center into its capacity copies
yields a complete bipartite graph with arboricity Θ(n) — so reducing
allocation to matching forfeits every λ-parameterized bound.  This
table materializes the split graph, measures both arboricities, and
contrasts the round budgets each λ implies.
"""

from __future__ import annotations

from repro.core import params
from repro.core.local_driver import solve_fractional_until_certificate
from repro.experiments.harness import Scale, register
from repro.graphs import degeneracy, exact_arboricity
from repro.graphs.generators import star_instance
from repro.graphs.splitting import split_to_matching_instance
from repro.utils.tables import Table

_SIZES: dict[str, list[int]] = {
    "smoke": [4, 8],
    "normal": [4, 8, 16, 32, 64],
    "full": [4, 8, 16, 32, 64, 128, 256],
}

EPSILON = 0.1


def check(table: Table) -> None:
    rows = table.rows
    # Split arboricity grows linearly with n (Θ(n) blow-up)…
    assert rows[-1]["split_lambda"] >= rows[-1]["n_leaves"] / 4
    assert rows[-1]["split_lambda"] > rows[0]["split_lambda"]
    # …while the direct algorithm keeps the λ=1 certificate and budget.
    assert all(r["direct_lambda"] == 1 for r in rows)
    budgets = {r["direct_budget"] for r in rows}
    assert len(budgets) == 1  # n-independent
    assert all(r["direct_rounds"] <= r["direct_budget"] for r in rows)


@register(
    "e9",
    "Arboricity blow-up of the splitting reduction on stars",
    "Remark S1.1: splitting a capacity-(n-1) star center creates K_{n,n-1} — "
    "arboricity 1 → Θ(n)",
    check=check,
)
def run(*, scale: Scale = "normal", seed: int = 0) -> Table:
    table = Table(title="E9: star with center capacity n-1 — direct vs split")
    for n in _SIZES[scale]:
        inst = star_instance(n, center_capacity=n - 1 if n > 1 else 1)
        direct_rounds = solve_fractional_until_certificate(inst, EPSILON).rounds
        split = split_to_matching_instance(inst.graph, inst.capacities)
        if split.graph.n_edges <= 4000:
            split_lambda = exact_arboricity(split.graph).value
        else:
            split_lambda = degeneracy(split.graph)  # λ ≤ deg ≤ 2λ−1
        table.add_row(
            n_leaves=n,
            direct_lambda=1,
            direct_edges=inst.graph.n_edges,
            direct_rounds=direct_rounds,
            direct_budget=params.tau_two_approx(1, EPSILON),
            split_edges=split.graph.n_edges,
            split_lambda=split_lambda,
            split_budget=params.tau_two_approx(max(1, split_lambda), EPSILON),
            blowup=round(split_lambda / 1.0, 1),
        )
    table.add_note(
        "split_budget is what a λ-parameterized matching algorithm would pay "
        "after the reduction; the direct algorithm keeps the λ=1 budget"
    )
    return table
