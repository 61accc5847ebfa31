"""Floor gate: the committed BENCH_*.json payloads must hold their bars.

``BARS`` is the one table of floors: one row per bar, naming the
payload it lives in, its dotted key path, the floor it must meet,
where the payload records whether the bar applies on the measuring
host, and whether a missing value fails the gate.  Floors are
constants in this table; a payload never sets its own floor.

Bars that need particular hardware (the sharding scaling bar needs a
multi-core host) are skipped when the payload records them as not
applicable — an honest "could not measure here" is not a regression;
a measured miss is.

Run from the repo root (exit code 0/1); on success it prints one line
per bar — id, value, floor::

    python benchmarks/check_bench_floors.py
    python benchmarks/check_bench_floors.py --diff /tmp/fresh_bench

``--diff FRESH_DIR`` holds a freshly recorded payload tree (e.g. a CI
smoke run) to the same table; payloads the fresh run did not produce
are skipped, but checking no bar at all fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Bar(NamedTuple):
    payload: str                   # BENCH_*.json file at the repo root
    path: str                      # dotted key path; "*" spans every list item
    op: str                        # "is" (flag), ">=" (floor) or "<=" (ceiling)
    bound: object                  # the constant the value is held to
    applicable: str | None = None  # path of the payload's own "host can measure" flag
    required: bool = True          # a missing value fails the gate

    @property
    def id(self) -> str:
        return f"{self.payload[len('BENCH_'):-len('.json')]}/{self.path}"


DYNAMIC_SCENARIOS = (
    "adversarial_churn",
    "correlated_flash_crowd",
    "diurnal_wave",
    "flash_crowd",
    "rolling_maintenance",
)

BARS = (
    Bar("BENCH_serving.json", "session_speedup_over_cold", ">=", 2.0),
    Bar("BENCH_serving.json", "meets_2x_bar", "is", True),
    *(
        Bar("BENCH_dynamic.json", f"scenarios.{name}.warm_speedup_over_cold", ">=", 3.0)
        for name in DYNAMIC_SCENARIOS
    ),
    Bar("BENCH_dynamic.json", "meets_3x_bar.diurnal_wave", "is", True),
    Bar("BENCH_dynamic.json", "meets_3x_bar.flash_crowd", "is", True),
    Bar("BENCH_kernels.json", "largest_instance_speedup", ">=", 1.0),
    Bar("BENCH_kernels.json", "optimized_beats_seed", "is", True),
    Bar("BENCH_mpc_substrate.json", "columnar_beats_object", "is", True),
    Bar("BENCH_mpc_substrate.json", "parity_checked", "is", True),
    Bar("BENCH_mpc_adaptive.json", "frontier_ratio", ">=", 4.0),
    Bar("BENCH_mpc_adaptive.json", "frontier_bar.met", "is", True),
    Bar("BENCH_mpc_adaptive.json", "certificates_bit_checked", "is", True),
    Bar("BENCH_sharding.json", "determinism_bit_identical", "is", True),
    Bar("BENCH_sharding.json", "scaling_bar.speedup_4_workers", ">=", 2.5,
        applicable="scaling_bar.applicable"),
    Bar("BENCH_service.json", "restart_warmth.restart_speedup", ">=", 3.0),
    Bar("BENCH_service.json", "restart_warmth.meets_3x_bar", "is", True),
    Bar("BENCH_service.json", "restart_warmth.restored_warm_start", "is", True),
    *(
        Bar("BENCH_service.json", f"concurrent_load.latency.{q}_ms", ">=", 0.0)
        for q in ("p50", "p95", "p99")
    ),
    Bar("BENCH_e5_mpc_rounds.json", "instances.*.allocations_match", "is", True),
    Bar("BENCH_e5_mpc_rounds.json", "instances.*.space_violations", "<=", 0),
)

_MISSING = object()


def _lookup(node, keys: list[str]):
    """The value at ``keys`` under ``node``, or ``_MISSING``.  A ``*``
    key yields the list of values over every item of a non-empty list."""
    if not keys:
        return node
    key, rest = keys[0], keys[1:]
    if key == "*":
        values = [_lookup(item, rest) for item in node] if isinstance(node, list) else []
        return values if values and all(v is not _MISSING for v in values) else _MISSING
    if isinstance(node, dict) and key in node:
        return _lookup(node[key], rest)
    return _MISSING


def _holds(op: str, bound, value) -> bool:
    if isinstance(value, list):
        return all(_holds(op, bound, v) for v in value)
    if op == "is":
        return value is bound
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    return value >= bound if op == ">=" else value <= bound


def check_tree(root: Path = ROOT, *, fresh: bool = False) -> tuple[list[str], list[str]]:
    """``(failures, report)`` for every bar of the payloads under ``root``.

    ``fresh=True`` is the ``--diff`` mode: a payload missing from
    ``root`` is reported and skipped instead of failing, and checking
    no bar at all is a failure (a vacuous pass hides a broken smoke
    job).
    """
    failures: list[str] = []
    report: list[str] = []
    checked = 0
    for name in dict.fromkeys(bar.payload for bar in BARS):
        path = root / name
        if not path.exists():
            if fresh:
                report.append(f"{name}: not in the fresh run, skipped")
            else:
                failures.append(f"{name}: missing from the repo root")
            continue
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            failures.append(f"{name}: not valid JSON ({exc})")
            continue
        for bar in BARS:
            if bar.payload != name:
                continue
            if bar.applicable is not None:
                applies = _lookup(payload, bar.applicable.split("."))
                if not isinstance(applies, bool):
                    failures.append(f"{bar.id}: {bar.applicable} must be true or false")
                    continue
                if not applies:
                    report.append(f"{bar.id}: not applicable on the measuring host")
                    continue
            value = _lookup(payload, bar.path.split("."))
            if value is _MISSING:
                if bar.required:
                    failures.append(f"{bar.id}: missing")
                else:
                    report.append(f"{bar.id}: not recorded, optional")
                continue
            checked += 1
            line = f"{bar.id} = {value!r} (floor {bar.op} {bar.bound!r})"
            if _holds(bar.op, bar.bound, value):
                report.append(line)
            else:
                failures.append(f"{line}: not met")
    if fresh and checked == 0:
        failures.append(f"no bars under {root} to check")
    return failures, report


def run_checks(root: Path = ROOT, *, fresh: bool = False) -> list[str]:
    """All floor failures under ``root`` (empty = every bar holds).

    ``root`` is injectable so the gate itself is unit-testable against
    synthetic payload trees (tests/test_check_bench_floors.py).
    """
    return check_tree(root, fresh=fresh)[0]


def main(root: Path = ROOT, argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--diff", metavar="FRESH_DIR", default=None,
        help="hold freshly recorded BENCH_*.json under FRESH_DIR to the floors",
    )
    args = parser.parse_args([] if argv is None else argv)
    fresh = args.diff is not None
    failures, report = check_tree(Path(args.diff) if fresh else root, fresh=fresh)
    for line in report:
        print(line)
    if failures:
        print("benchmark floor regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(argv=sys.argv[1:]))
