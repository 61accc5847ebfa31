"""E11 — the densest part saturates first (Remark 1).

The intuition behind Theorem 2: the proportional dynamics saturate the
densest region quickly and then spread outward, which is why the
convergence horizon is governed by density (λ) rather than diameter-ish
quantities (log n).  On a planted dense-core instance we trace, per
round, the mean utilization (alloc/C) of core vs fringe right vertices
plus the level-set extremes — the core's utilization should cross 1
within a few rounds while the fringe drifts up slowly.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.metrics import utilization
from repro.core.proportional import ProportionalRun
from repro.experiments.harness import Scale, register
from repro.graphs.generators import planted_dense_core_instance
from repro.utils.tables import Table

_SIZES: dict[str, tuple[int, int, int]] = {
    # scale -> (core side, fringe factor, rounds)
    "smoke": (4, 8, 8),
    "normal": (12, 10, 24),
    "full": (24, 12, 40),
}

EPSILON = 0.15


def check(table: Table) -> None:
    rows = table.rows
    # The dense core is saturated from the very first round…
    assert rows[0]["core_mean_util"] >= 1.0
    # …while the fringe starts unsaturated and climbs monotonically-ish.
    assert rows[0]["fringe_mean_util"] < 1.0
    assert rows[-1]["fringe_mean_util"] > rows[0]["fringe_mean_util"]
    # Mass spreads: the match weight improves over the trace.
    assert rows[-1]["match_weight"] > rows[0]["match_weight"]


@register(
    "e11",
    "Level-set dynamics on a planted dense core",
    "Remark 1: the dynamics saturate the densest part first, then spread",
    check=check,
)
def run(*, scale: Scale = "normal", seed: int = 0) -> Table:
    core, ff, rounds = _SIZES[scale]
    inst = planted_dense_core_instance(
        core, core, core * ff, core * ff, core_density=0.9, capacity=1, seed=seed
    )
    n_core_right = core  # generator layout: core right ids come first
    run_obj = ProportionalRun(inst.graph, inst.capacities, EPSILON)
    table = Table(title="E11: core vs fringe utilization per round")
    core_cross = None
    fringe_cross = None
    report_rounds = sorted(set(
        [1, 2, 3, 4] + list(range(5, rounds + 1, max(1, rounds // 8)))
    ))
    for r in range(1, rounds + 1):
        run_obj.step()
        util = utilization(inst.capacities, run_obj.alloc)
        core_util = float(np.mean(util[:n_core_right]))
        fringe_util = float(np.mean(util[n_core_right:]))
        if core_cross is None and core_util >= 0.8:
            core_cross = r
        if fringe_cross is None and fringe_util >= 0.8:
            fringe_cross = r
        if r in report_rounds:
            hist = run_obj.level_histogram()
            table.add_row(
                round=r,
                core_mean_util=round(core_util, 3),
                fringe_mean_util=round(fringe_util, 3),
                l0_size=int(hist[0]),
                top_size=int(hist[-1]),
                match_weight=round(run_obj.match_weight(), 2),
                saturated_frac=round(
                    float((run_obj.alloc >= run_obj.capacities / (1 + EPSILON)).mean()), 3
                ),
            )
    table.add_note(
        f"core mean utilization first ≥ 0.8 at round {core_cross}; "
        f"fringe first ≥ 0.8 at round {fringe_cross} — Remark 1 predicts "
        "core before fringe"
    )
    return table
