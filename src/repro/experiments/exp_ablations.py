"""E10 — ablations of the design choices DESIGN.md calls out.

(a) **Threshold width** (Algorithm 3): constant ``k ∈ {¼, 1, 2, 4}``
    thresholds — Theorem 16 predicts graceful degradation to
    ``2+(2k+8)ε``.
(b) **Estimator**: stratified (Lemma 11's form) vs pooled (the paper's
    literal line-5 rescale) error at a fixed small budget.
(c) **Phase length B**: longer phases reuse staler groups; Lemma 11's
    spread term ``(1+ε)^B`` predicts growing error at a fixed budget.
"""

from __future__ import annotations

from repro.analysis.concentration import collect_error_quantiles
from repro.baselines.exact import optimum_value
from repro.core import params
from repro.core.proportional import ConstantThresholds, ProportionalRun
from repro.core.sampled import SampledRun
from repro.experiments.harness import Scale, register
from repro.graphs.generators import planted_dense_core_instance, union_of_forests
from repro.utils.tables import Table

_SCALE_FACTOR = {"smoke": 1, "normal": 4, "full": 10}

EPSILON = 0.2


def check(table: Table) -> None:
    thr = [r for r in table.rows if r["ablation"] == "threshold_k"]
    # Theorem 16: every constant threshold in [1/4, 4] stays within its
    # predicted bound.
    assert all(r["ratio"] <= r["predicted_bound"] + 1e-9 for r in thr)
    # Phase-length ablation present with the spread column increasing.
    phase = [r for r in table.rows if r["ablation"] == "phase_length_B"]
    spreads = [r["spread_bound"] for r in phase]
    assert spreads == sorted(spreads)
    est = {r["setting"] for r in table.rows if r["ablation"] == "estimator"}
    assert est == {"stratified", "pooled"}


@register(
    "e10",
    "Ablations: thresholds, estimator, phase length",
    "T16 threshold robustness; L11 estimator form and (1+eps)^B spread",
    check=check,
)
def run(*, scale: Scale = "normal", seed: int = 0) -> Table:
    f = _SCALE_FACTOR[scale]
    table = Table(title="E10: ablations")

    # (a) threshold width on Algorithm 3.
    inst = union_of_forests(30 * f, 24 * f, 3, capacity=2, seed=seed)
    opt = optimum_value(inst)
    tau = params.tau_two_approx(3, EPSILON)
    for k in (0.25, 1.0, 2.0, 4.0):
        run_obj = ProportionalRun(
            inst.graph, inst.capacities, EPSILON, thresholds=ConstantThresholds(k)
        ).run(tau)
        table.add_row(
            ablation="threshold_k",
            setting=k,
            ratio=round(opt / max(run_obj.match_weight(), 1e-12), 4),
            predicted_bound=round(params.approx_factor_adaptive(EPSILON, max(k, 1.0)), 3),
            rounds=tau,
        )

    # (b) estimator form at a fixed small budget.
    dense = planted_dense_core_instance(3 * f, 3 * f, 15 * f, 15 * f, seed=seed)
    for estimator in ("stratified", "pooled"):
        run_obj = SampledRun(
            dense.graph, dense.capacities, EPSILON, block=2, sample_budget=6,
            estimator=estimator, sampler="fast", seed=seed,
        )
        run_obj.run_rounds(8)
        beta_q, alloc_q = collect_error_quantiles(run_obj.phase_reports)
        table.add_row(
            ablation="estimator",
            setting=estimator,
            beta_err_q99=round(beta_q.q99, 5),
            alloc_err_q99=round(alloc_q.q99, 5),
        )

    # (c) phase length at a fixed small budget.
    for block in (1, 2, 4, 8):
        run_obj = SampledRun(
            dense.graph, dense.capacities, EPSILON, block=block, sample_budget=6,
            sampler="fast", seed=seed,
        )
        run_obj.run_rounds(8)
        beta_q, alloc_q = collect_error_quantiles(run_obj.phase_reports)
        table.add_row(
            ablation="phase_length_B",
            setting=block,
            spread_bound=round((1 + EPSILON) ** block, 3),
            beta_err_q99=round(beta_q.q99, 5),
            alloc_err_q99=round(alloc_q.q99, 5),
        )
    return table
