"""E0 — workload inventory (the "Table 1" of the evaluation).

One row per generator family at the experiment scales: structural
profile (degrees, components, diameter), the generator's certified
arboricity bound, the measured degeneracy (λ ≤ degeneracy ≤ 2λ−1), and
the exact optimum.  Serves as the provenance table every other
experiment's instances are drawn from, and demonstrates the sandwich
``density ceiling ≤ λ ≤ degeneracy`` on every family.
"""

from __future__ import annotations

from repro.baselines.exact import optimum_value
from repro.experiments.harness import Scale, register
from repro.graphs import exact_arboricity, profile_graph
from repro.graphs.generators import (
    adwords_instance,
    complete_bipartite_instance,
    erdos_renyi_instance,
    grid_instance,
    load_balancing_instance,
    planted_dense_core_instance,
    power_law_instance,
    regular_instance,
    slow_spread_instance,
    star_instance,
    union_of_forests,
)
from repro.utils.tables import Table

_SCALE_FACTOR = {"smoke": 1, "normal": 4, "full": 10}


def _zoo(scale: str, seed: int):
    f = _SCALE_FACTOR[scale]
    return [
        union_of_forests(30 * f, 24 * f, 3, capacity=2, seed=seed),
        star_instance(20 * f),
        complete_bipartite_instance(3 * f, 3 * f),
        grid_instance(4 * f, 5 * f),
        erdos_renyi_instance(20 * f, 16 * f, 60 * f, seed=seed),
        power_law_instance(30 * f, 10 * f, seed=seed),
        regular_instance(10 * f, 3, seed=seed),
        load_balancing_instance(40 * f, 8 * f, locality=3, seed=seed),
        planted_dense_core_instance(2 * f, 2 * f, 20 * f, 20 * f, seed=seed),
        slow_spread_instance(2 * f, width=4),
        adwords_instance(30 * f, 10 * f, seed=seed),
    ]


def check(table: Table) -> None:
    assert len(table.rows) >= 10
    # The generator certificates hold wherever exact λ was computed.
    checked = [r for r in table.rows if "certificate_ok" in r]
    assert checked, "no instance small enough for exact arboricity"
    assert all(r["certificate_ok"] for r in checked)
    assert all(r.get("sandwich_ok", True) for r in checked)


@register(
    "e0",
    "Workload inventory",
    "Def. 4 sandwich: density ceiling <= lambda <= degeneracy <= 2*lambda-1 "
    "on every family; certified bounds hold",
    check=check,
)
def run(*, scale: Scale = "normal", seed: int = 0) -> Table:
    table = Table(title="E0: workload families and their structure")
    for inst in _zoo(scale, seed):
        prof = profile_graph(inst.graph)
        degen = prof.degeneracy
        row = dict(
            family=inst.name,
            n=inst.graph.n_vertices,
            m=inst.n_edges,
            max_deg=max(prof.left_degrees.maximum, prof.right_degrees.maximum),
            components=prof.n_components,
            diameter_lb=prof.diameter_lower_bound,
            density_ceiling=prof.density_ceiling,
            degeneracy=degen,
            lambda_certified=inst.arboricity_upper_bound,
            total_capacity=int(inst.capacities.sum()),
            opt=optimum_value(inst),
        )
        # Exact λ where affordable; verifies the certificate.
        if inst.n_edges <= 2500:
            lam = exact_arboricity(inst.graph).value
            row["lambda_exact"] = lam
            row["certificate_ok"] = (
                inst.arboricity_upper_bound is None
                or lam <= inst.arboricity_upper_bound
            )
            row["sandwich_ok"] = lam <= degen <= max(1, 2 * lam - 1) or lam == 0
        table.add_row(**row)
    table.add_note(
        "lambda_exact via matroid-union partitioning (validated certificates); "
        "degeneracy is the scalable proxy with λ ≤ degeneracy ≤ 2λ−1"
    )
    return table
