"""End-to-end metric names and the digests shared by every workload."""

from __future__ import annotations

import resource

__all__ = ["END_TO_END", "SETUP_REPEATS", "latency_digest", "peak_rss_mb", "tail_percentile"]

SETUP_REPEATS = 3       # set-ups per run; setup_s is their median

# (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("ok_frac", "ratio"),
    ("approx_ratio", "ratio"),
    ("mpc_rounds_mean", "count"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process, or of its largest waited-for
    child, in MiB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten samples beyond it;
    the median when the sample is too small for any tail."""
    if n < 20:
        return 50
    return max(50, int(100.0 * (n - 10) / n))


def latency_digest(latencies: list[float]) -> dict:
    from benchmarks._scale import percentile

    q = tail_percentile(len(latencies))
    return {
        "latency_p50_ms": percentile(latencies, 50) * 1000.0,
        "latency_tail_ms": percentile(latencies, q) * 1000.0,
        "tail_percentile": q,
        "samples": len(latencies),
    }
