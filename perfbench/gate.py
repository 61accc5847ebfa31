"""The output gate, run outside every timed region.

Each request's output must carry a satisfied λ-free certificate, be a
feasible integral allocation under Definition 5, and reach
OPT/(2+10ε), with OPT from the exact max-flow baseline.  Optima are
cached by instance content hash, so a workload that revisits an
instance pays for one max-flow.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.exact import optimum_value
from repro.graphs.capacities import validate_integral_allocation
from repro.serve.shm import instance_hash

__all__ = ["Gate"]


class Gate:
    """Counts requests checked and failures by reason."""

    def __init__(self, epsilon: float):
        self.epsilon = epsilon
        self._optima: dict[str, int] = {}
        self.checked = 0
        self.failures: dict[str, int] = {}

    def optimum(self, instance) -> int:
        key = instance_hash(instance)
        if key not in self._optima:
            self._optima[key] = optimum_value(instance)
        return self._optima[key]

    def fail(self, reason: str) -> None:
        self.checked += 1
        self.failures[reason] = self.failures.get(reason, 0) + 1

    def check(self, instance, edge_mask, certified: bool, epsilon: float | None = None):
        """Gate one output solved at ``epsilon`` (default: the gate's);
        returns size/OPT when it passes, else None."""
        epsilon = self.epsilon if epsilon is None else epsilon
        if not certified:
            return self.fail("certificate")
        mask = np.asarray(edge_mask, dtype=bool)
        try:
            validate_integral_allocation(instance.graph, instance.capacities, mask)
        except ValueError:
            return self.fail("definition5")
        size = int(mask.sum())
        opt = self.optimum(instance)
        if opt and size * (2.0 + 10.0 * epsilon) < opt:
            return self.fail("approximation")
        self.checked += 1
        return size / opt if opt else 1.0

    @property
    def failed(self) -> int:
        return sum(self.failures.values())
