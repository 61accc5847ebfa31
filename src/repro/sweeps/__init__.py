"""Sweep orchestration: declarative grids, resumable runs, extract/plot.

The evaluation pipeline that turns the repo's one-shot experiments
into systematic studies (ROADMAP "experiment orchestration")::

    spec  = SweepSpec(name="backends", families=("slow_spread",),
                      sizes=(48, 96), config_axes={"backend": ("reference", "optimized")})
    run_sweep(spec, "out/backends")                  # resumable, per-cell records
    records = load_records("out/backends")           # extract stage
    print(comparison_table(records, rows="backend", cols="n").to_ascii())

CLI: ``python -m repro.cli sweep {run,cells,extract,plot}``.
"""

from repro.sweeps.extract import comparison_table, flatten_record, load_records
from repro.sweeps.plot_data import ascii_chart, plot_payload, series_points
from repro.sweeps.runner import SweepRunResult, load_manifest, record_path, run_sweep
from repro.sweeps.spec import CELL_SCHEMA, SPEC_SCHEMA, SweepCell, SweepSpec

__all__ = [
    "SweepSpec",
    "SweepCell",
    "SPEC_SCHEMA",
    "CELL_SCHEMA",
    "run_sweep",
    "SweepRunResult",
    "record_path",
    "load_manifest",
    "load_records",
    "flatten_record",
    "comparison_table",
    "series_points",
    "plot_payload",
    "ascii_chart",
]
