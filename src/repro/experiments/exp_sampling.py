"""E4 — sampling concentration (Lemma 11 / Lemma 12).

Sweep the per-(vertex, group, round) sample budget from a handful of
edges up to the theoretical ``t`` on a dense-core instance, and report
the relative-error quantiles of both estimates together with the
Lemma 12 violation rates (errors beyond ε/12 for β̂, ε/4 for alloc).
Expected shape: error quantiles fall like ~1/√budget; at the
theoretical ``t`` every group is fully sampled and the error is zero.
"""

from __future__ import annotations

from repro.analysis.concentration import collect_error_quantiles, lemma12_violation_rates
from repro.core import params
from repro.core.sampled import SampledRun
from repro.experiments.harness import Scale, register
from repro.graphs.generators import planted_dense_core_instance
from repro.utils.tables import Table

_SIZES: dict[str, tuple[int, list[int], int]] = {
    # scale -> (core side, budgets, rounds); the core side bounds the
    # level-group sizes, so budgets must stay well below it for the
    # error-decay curve to be visible.
    "smoke": (8, [2, 8], 4),
    "normal": (48, [2, 4, 8, 16, 32], 8),
    "full": (96, [2, 4, 8, 16, 32, 64], 12),
}

EPSILON = 0.25
BLOCK = 2


def check(table: Table) -> None:
    rows = table.rows
    # Error shrinks as the budget grows (compare first vs last finite row).
    finite = [r for r in rows if not r["theoretical"]]
    assert finite[0]["alloc_err_q99"] >= finite[-1]["alloc_err_q99"]
    # At the theoretical budget the estimates are exact.
    theoretical = [r for r in rows if r["theoretical"]]
    assert theoretical, "theoretical-budget row missing"
    assert theoretical[0]["beta_err_q99"] == 0
    assert theoretical[0]["alloc_err_q99"] == 0
    assert theoretical[0]["beta_beyond_eps12"] == 0


@register(
    "e4",
    "Estimate concentration vs sample budget",
    "L11/L12: t=(1+eps)^{2B} eps^-5 log n samples keep estimates within eps/12 and eps/4 whp",
    check=check,
)
def run(*, scale: Scale = "normal", seed: int = 0) -> Table:
    core, budgets, rounds = _SIZES[scale]
    inst = planted_dense_core_instance(
        core, core, 10 * core, 10 * core, core_density=0.9, seed=seed
    )
    table = Table(title="E4: sampling error vs budget (dense-core instance)")
    t_theory = params.sample_size(BLOCK, EPSILON, inst.graph.n_vertices)
    for budget in budgets + [t_theory]:
        run_obj = SampledRun(
            inst.graph, inst.capacities, EPSILON, block=BLOCK,
            sample_budget=budget, sampler="fast", seed=seed,
        )
        run_obj.run_rounds(rounds)
        beta_q, alloc_q = collect_error_quantiles(run_obj.phase_reports)
        beta_viol, alloc_viol = lemma12_violation_rates(run_obj)
        table.add_row(
            budget=budget,
            theoretical=budget == t_theory,
            beta_err_median=round(beta_q.median, 5),
            beta_err_q99=round(beta_q.q99, 5),
            alloc_err_median=round(alloc_q.median, 5),
            alloc_err_q99=round(alloc_q.q99, 5),
            beta_beyond_eps12=round(beta_viol, 4),
            alloc_beyond_eps4=round(alloc_viol, 4),
        )
    table.add_note(
        f"theoretical t = {t_theory} (Lemma 11 regime); at that budget "
        "every group is fully sampled ⇒ exact estimates"
    )
    table.add_note(f"epsilon/12 = {EPSILON/12:.4f}, epsilon/4 = {EPSILON/4:.4f}")
    return table
