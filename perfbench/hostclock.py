"""Host-speed normalisation of measured times.

The benchmark runs on a few cores of a shared host, whose speed drifts
with the load of its other tenants: the same code on the same input
can run up to about twice as slowly for minutes at a time, in CPU time
as much as in wall time.  A run's raw times therefore say as much about
the host as about the program.

A fixed probe kernel (a pure-Python loop, a few numpy passes over
cache-sized data, and fresh arrays larger than the caches: the mix the
solver spends its time in, and independent of the program under test)
is timed between requests, outside every timed region, all through a
run.  The run's times are then rescaled by
``REFERENCE_PROBE_MS`` over the run's median probe time: the times the
requests would take on a host where the probe takes the reference time.
A program change moves the request times and not the probe, so the
rescaled figures keep it; a change of host speed moves both, so they
drop it.  One factor per run, rather than one per request from the
probes around it, keeps the probe's own jitter out of the spread of the
request times.

``REFERENCE_PROBE_MS`` is a nominal constant, of the order of the
probe's time on a lightly loaded 2-core share of a 4th-generation Xeon
(Sapphire Rapids) host; only ratios between runs on one host carry
meaning.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["HostClock", "REFERENCE_PROBE_MS"]

REFERENCE_PROBE_MS = 2.5
PROBE_EVERY = 0.25      # seconds of measured work per probe sample

_rng = np.random.default_rng(0)
_VALUES = _rng.random(50_000)
_INDEX = _rng.integers(0, 50_000, size=50_000)
# Elements of the fresh arrays (4 MB each).  Of the parts tried, their
# allocation and first writes followed the solver's own slowdowns on a
# loaded host most closely, more than random reads from a resident
# 32 MB array did.
_FRESH = 500_000


def _kernel() -> float:
    acc = 0
    for i in range(6_000):
        acc += i * i % 7
    ordered = np.sort(_VALUES)
    sums = np.bincount(_INDEX, weights=_VALUES, minlength=_VALUES.size)
    fresh = np.ones(_FRESH) * 2.0
    return acc + ordered[0] + np.cumsum(sums[_INDEX])[-1] + fresh.sum()


class HostClock:
    """Probe samples of one run and the rescaling they imply."""

    def __init__(self) -> None:
        self._took: list[float] = []

    def probe(self, repeats: int = 2) -> float:
        """Time the probe ``repeats`` times and keep the fastest, which
        is the least disturbed by interrupts; returns its seconds."""
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
        self.record(best)
        return best

    def record(self, seconds: float) -> None:
        """Keep one probe sample taken elsewhere (another process)."""
        self._took.append(seconds)

    def probe_after(self, busy: float) -> None:
        """Probe once, and once more for every ``PROBE_EVERY`` seconds of
        the ``busy`` time just measured (at most eight more), so a run's
        samples spread over its time whatever its requests cost."""
        for _ in range(1 + min(int(busy / PROBE_EVERY), 8)):
            self.probe()

    def probe_ms(self) -> float:
        """Median probe time of the run, in ms (the host's raw speed)."""
        if not self._took:
            raise RuntimeError("no probe sample taken")
        return statistics.median(self._took) * 1000.0

    def scale(self) -> float:
        """Reference probe time over the run's median probe time."""
        return REFERENCE_PROBE_MS / self.probe_ms()

    def rescale(self, seconds: float) -> float:
        """``seconds`` measured in this run, at reference host speed."""
        return seconds * self.scale()
