"""E3 — the separation: rounds flat in n at fixed λ; AZM18 grows.

This is the paper's raison d'être.  Prior to this work the best
sublinear-MPC round bound for constant-approximate allocation was
``O(log n)`` (AZM18 simulated round-for-round); Theorem 2's analysis
shows the same dynamics certify a constant approximation after
``O(log λ)`` rounds.  Fix the contention core (λ ≈ 8) of the stress
family and grow n by widening the fringe 64×: the measured certificate
round must stay flat while the baseline's budget climbs with log n.
"""

from __future__ import annotations

from repro.analysis.theory import growth_exponent
from repro.core import params
from repro.core.local_driver import solve_fractional_until_certificate
from repro.experiments.harness import Scale, register
from repro.graphs.generators import slow_spread_instance
from repro.utils.tables import Table

_SIZES: dict[str, list[int]] = {
    # Width sweep: n grows linearly in width at fixed core (λ fixed).
    # Widths start beyond the knee width ≈ (1+ε)/ε · core where the
    # fringe-stabilization horizon (the λ-governed quantity) dominates
    # the core-stabilization horizon (which grows with log n): past the
    # knee the certificate round is flat in n — exactly T2's claim.
    "smoke": [128, 512],
    "normal": [128, 256, 512, 1024, 2048],
    "full": [128, 512, 2048, 8192, 16384],
}

EPSILON = 0.1
CORE = 8


def check(table: Table) -> None:
    ours = table.column("ours_rounds")
    azm18 = table.column("azm18_budget")
    # Flat in n: largest-n round count within +2 of the smallest-n one.
    assert max(ours) - min(ours) <= 2
    # The baseline's budget strictly grows with n.
    assert azm18 == sorted(azm18)
    assert azm18[-1] > azm18[0]
    # Who wins: ours beats the baseline budget at every n.
    assert all(o < a for o, a in zip(ours, azm18))


@register(
    "e3",
    "Round count vs n at fixed arboricity",
    "T2 vs prior art: certificate round is O(log lambda), flat in n; AZM18 budget is O(log n)",
    check=check,
)
def run(*, scale: Scale = "normal", seed: int = 0) -> Table:
    table = Table(title=f"E3: n-independence at fixed core density (lambda≈{CORE})")
    ns: list[int] = []
    rounds: list[float] = []
    for width in _SIZES[scale]:
        inst = slow_spread_instance(CORE, width=width)
        res = solve_fractional_until_certificate(inst, EPSILON)
        n = inst.graph.n_vertices
        ns.append(n)
        rounds.append(res.rounds)
        table.add_row(
            n=n,
            m=inst.graph.n_edges,
            lambda_bound=CORE + 1,
            ours_rounds=res.rounds,
            ours_budget=params.tau_two_approx(CORE + 1, EPSILON),
            azm18_budget=params.tau_azm18(inst.graph.n_right, EPSILON),
            speedup_vs_azm18=round(
                params.tau_azm18(inst.graph.n_right, EPSILON) / max(1, res.rounds), 1
            ),
        )
    if len(ns) >= 2:
        expo = growth_exponent(ns, rounds)
        table.add_note(
            f"measured rounds ~ n^{expo:.3f} (flat ⇔ exponent ≈ 0) while the "
            f"AZM18 budget grows with log n"
        )
    return table
