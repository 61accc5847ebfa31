"""The theorem-driven experiment suite (E0–E12).

The paper is a theory contribution with no evaluation section of its
own; this suite plays the role of its tables and figures (DESIGN.md
§3).  Every run checks the experiment's claim and raises
:class:`ClaimFailed` when the table contradicts it.  Use
:func:`repro.experiments.harness.run_experiment` or the CLI::

    python -m repro.experiments e1 --scale normal
    python -m repro.experiments all --scale smoke
"""

from repro.experiments.harness import (
    REGISTRY,
    ClaimFailed,
    ExperimentSpec,
    get_experiment,
    run_experiment,
    run_and_save,
)

__all__ = [
    "REGISTRY",
    "ClaimFailed",
    "ExperimentSpec",
    "get_experiment",
    "run_experiment",
    "run_and_save",
]
