"""E6 — the λ-guessing overhead is a constant factor (§3.2.2).

Four regimes per instance:

* ``known_budget`` — λ known, run the fixed Theorem-9 budget τ(λ) with
  no termination test at all (correct by Theorem 9; what Theorem 10's
  round bound bills);
* ``known_cert`` — λ known, but stop at the first per-phase
  certificate (strictly cheaper in practice);
* ``guessed`` — the literal §3.2.2 schedule: guesses λ_i = 2^(4^i),
  certificate tested only at the end of each guess's budget;
* ``guessed_eager`` — guessing with per-phase tests (our default).

The paper's claim bounds the *worst case*: Σ_i τ(λ_i)-budgets ≤ O(1) ×
τ(λ) (the ``model_overhead`` column).  The measured finding is
stronger and worth reporting: because the certificate usually fires
well before the worst-case budget, guessing is often *cheaper* than
the known-λ fixed budget — λ-obliviousness costs nothing on these
workloads.
"""

from __future__ import annotations

from repro.core.mpc_driver import solve_allocation_mpc
from repro.experiments.harness import Scale, register
from repro.graphs.generators import slow_spread_instance
from repro.mpc.costmodel import MPCCostModel
from repro.utils.tables import Table

_SIZES: dict[str, tuple[int, list[int]]] = {
    # (width of the stress family, core sweep = lambda targets)
    "smoke": (3, [8, 32]),
    "normal": (4, [8, 16, 32, 64, 128]),
    "full": (4, [8, 32, 128, 256, 512]),
}

EPSILON = 0.2
ALPHA = 0.5


def check(table: Table) -> None:
    for row in table.rows:
        # The §3.2.2 claim: λ-oblivious schedules stay within the
        # worst-case constant of the known-λ budget.  (Eager per-phase
        # testing trades 2 test rounds per phase against earlier
        # stopping, so neither cadence dominates the other — both must
        # simply respect the bound.)
        cap = row["model_worstcase_overhead"] * row["known_budget_rounds"]
        assert row["guessed_rounds"] <= cap
        assert row["guessed_eager_rounds"] <= cap
        # Certificate-stopped known-λ is never slower than its budget.
        assert row["known_cert_rounds"] <= row["known_budget_rounds"]
    # The measured overhead stays bounded across the λ sweep.
    assert max(table.column("overhead_vs_budget")) <= 6.0


@register(
    "e6",
    "Known-lambda vs lambda-guessing overhead",
    "S3.2.2: guessing sqrt(log lambda_i) = 2^i costs only a constant factor",
    check=check,
)
def run(*, scale: Scale = "normal", seed: int = 0) -> Table:
    width, ks = _SIZES[scale]
    table = Table(title="E6: lambda-guessing overhead")
    worst_vs_budget = 0.0
    for k in ks:
        inst = slow_spread_instance(k, width=width)
        lam = k + 1
        model = MPCCostModel(
            n=inst.graph.n_vertices, lam=lam, epsilon=EPSILON, alpha=ALPHA
        )
        known_budget = model.rounds_known_lambda()
        known_cert = solve_allocation_mpc(inst, EPSILON, alpha=ALPHA, lam=lam, seed=seed)
        guessed = solve_allocation_mpc(
            inst, EPSILON, alpha=ALPHA, seed=seed, certificate_cadence="per_guess"
        )
        eager = solve_allocation_mpc(inst, EPSILON, alpha=ALPHA, seed=seed)
        ratio_vs_budget = guessed.mpc_rounds / max(1, known_budget)
        worst_vs_budget = max(worst_vs_budget, ratio_vs_budget)
        table.add_row(
            lambda_bound=lam,
            known_budget_rounds=known_budget,
            known_cert_rounds=known_cert.mpc_rounds,
            guessed_rounds=guessed.mpc_rounds,
            guessed_eager_rounds=eager.mpc_rounds,
            guesses_tried=len(guessed.ledger.guesses),
            used_guess=guessed.meta["used_guess"],
            overhead_vs_budget=round(ratio_vs_budget, 2),
            model_worstcase_overhead=round(model.guessing_overhead(), 2),
        )
    table.add_note(
        f"worst guessed/known-budget ratio {worst_vs_budget:.2f} — the measured "
        "overhead never approaches the worst-case model column because the "
        "certificate fires before each guess's budget expires"
    )
    table.add_note(
        "finding: λ-obliviousness is effectively free here; the paper's "
        "constant-factor bound is the worst case (model_worstcase_overhead)"
    )
    return table
