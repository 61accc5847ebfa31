"""E1 — rounds-to-certificate grow like log λ (Theorem 2/9).

Two workload rows per arboricity point:

* ``slow_spread`` — the Theorem-9 Case-2 stress family (dense
  over-allocated core + starving private fringe), where the priority
  gap must grow to ``≈ λ/ε`` before the certificate's mass condition
  can fire; this family makes the ``log λ`` horizon *visible*.
* ``forests`` — benign union-of-forests, where the certificate fires
  almost immediately; included to show the bound is a worst case, not
  a typical cost.

The shape-fit note is the reproduction verdict: on the stress family,
measured rounds must track ``log`` decisively better than ``linear``.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.theory import fit_against_log, shape_verdict
from repro.baselines.exact import optimum_value
from repro.core import params
from repro.core.local_driver import solve_fractional_until_certificate
from repro.experiments.harness import Scale, register
from repro.graphs import degeneracy
from repro.graphs.generators import slow_spread_instance, union_of_forests
from repro.utils.rng import spawn
from repro.utils.tables import Table

_SIZES: dict[str, tuple[list[int], int, int]] = {
    # scale -> (core sweep = lambda targets, width, forest n)
    "smoke": ([2, 4, 8], 3, 60),
    "normal": ([2, 4, 8, 16, 32, 64], 4, 400),
    "full": ([2, 4, 8, 16, 32, 64, 128, 256], 4, 2000),
}

EPSILON = 0.1


def check(table: Table) -> None:
    assert all(ok for ok in table.column("within_budget") if ok is not None)
    stress = [
        (row["lambda_bound"], row["rounds"])
        for row in table.rows
        if row.get("family") == "slow_spread"
    ]
    assert len(stress) >= 2
    # Rounds must increase with λ on the stress family (the log-λ shape).
    lams = [s[0] for s in stress]
    rounds = [s[1] for s in stress]
    assert rounds[-1] > rounds[0]
    # Sub-linear: λ grew much faster than the rounds did.
    assert (rounds[-1] / rounds[0]) < (lams[-1] / lams[0])


@register(
    "e1",
    "Rounds vs arboricity (LOCAL, certificate-stopped)",
    "T2/T9: Algorithm 1 certifies (2+10eps) within ceil(log_{1+eps}(4*lam/eps))+1 rounds",
    check=check,
)
def run(*, scale: Scale = "normal", seed: int = 0) -> Table:
    cores, width, forest_n = _SIZES[scale]
    table = Table(title="E1: certificate round vs arboricity")
    stress_rounds: list[float] = []
    for b in cores:
        inst = slow_spread_instance(b, width=width)
        res = solve_fractional_until_certificate(inst, EPSILON)
        opt = optimum_value(inst)
        bound = params.tau_two_approx(b + 1, EPSILON)
        stress_rounds.append(res.rounds)
        table.add_row(
            family="slow_spread",
            lambda_bound=b + 1,
            degeneracy=degeneracy(inst.graph),
            n=inst.graph.n_vertices,
            rounds=res.rounds,
            paper_budget=bound,
            within_budget=res.rounds <= bound,
            ratio=round(opt / max(res.match_weight, 1e-12), 4),
            ratio_guarantee=params.approx_factor_two_regime(EPSILON),
        )
    # Benign rows: forests of matching λ certificates converge at once.
    for k in cores[: max(2, len(cores) // 2)]:
        rounds_list = []
        for stream in spawn(seed + k, 3):
            inst = union_of_forests(forest_n, forest_n, k, capacity=2, seed=stream)
            rounds_list.append(
                solve_fractional_until_certificate(inst, EPSILON).rounds
            )
        table.add_row(
            family="forests",
            lambda_bound=k,
            n=2 * forest_n,
            rounds=float(np.mean(rounds_list)),
            paper_budget=params.tau_two_approx(k, EPSILON),
            within_budget=max(rounds_list) <= params.tau_two_approx(k, EPSILON),
        )
    if len(cores) >= 3:
        fit = fit_against_log(cores, stress_rounds)
        table.add_note(
            f"stress rounds ≈ {fit.slope:.2f}·log2(λ) + {fit.intercept:.2f} "
            f"(R²={fit.r_squared:.3f})"
        )
        verdict = shape_verdict(cores, stress_rounds)
        best = max(verdict, key=verdict.get)
        table.add_note(
            "stress shape fit R²: "
            + ", ".join(f"{k2}={v:.3f}" for k2, v in sorted(verdict.items()))
            + f" → best: {best}"
        )
    return table
