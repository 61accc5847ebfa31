"""The CI benchmark-floor gate itself (benchmarks/check_bench_floors.py).

The gate is the last line of defense against committing a regressed
BENCH_*.json — so it gets its own tests, driven through the injectable
``run_checks(root)`` / ``main(root)`` entry points against synthetic
payload trees: a fully passing set, each bar's missed cases, payloads
that try to lower their own floors, the hardware-conditional
``applicable: false`` escape hatch, malformed JSON, missing files and
the ``--diff`` mode over a fresh tree.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import benchmarks.check_bench_floors as gate
from benchmarks.check_bench_floors import BARS, Bar, main, run_checks


def _passing_payloads() -> dict[str, dict]:
    return {
        "BENCH_serving.json": {
            "meets_2x_bar": True,
            "session_speedup_over_cold": 3.5,
        },
        "BENCH_dynamic.json": {
            "scenarios": {
                name: {"warm_speedup_over_cold": 8.0}
                for name in gate.DYNAMIC_SCENARIOS
            },
            "speedup_bar": 3.0,
            "meets_3x_bar": {"diurnal_wave": True, "flash_crowd": True},
        },
        "BENCH_kernels.json": {
            "optimized_beats_seed": True,
            "largest_instance_speedup": 5.0,
        },
        "BENCH_mpc_substrate.json": {
            "columnar_beats_object": True,
            "parity_checked": True,
        },
        "BENCH_mpc_adaptive.json": {
            "frontier_bar": {"threshold": 4.0, "met": True},
            "frontier_ratio": 16.0,
            "certificates_bit_checked": True,
        },
        "BENCH_sharding.json": {
            "determinism_bit_identical": True,
            "scaling_bar": {"applicable": True, "met": True,
                            "speedup_4_workers": 2.9, "threshold": 2.5},
        },
        "BENCH_service.json": {
            "restart_warmth": {
                "meets_3x_bar": True,
                "restart_speedup": 5.0,
                "restored_warm_start": True,
            },
            "concurrent_load": {
                "latency": {"p50_ms": 20.0, "p95_ms": 60.0, "p99_ms": 75.0},
            },
        },
        "BENCH_e5_mpc_rounds.json": {
            "instances": [
                {"allocations_match": True, "space_violations": 0},
                {"allocations_match": True, "space_violations": 0},
            ],
        },
    }


def _write_tree(root: Path, payloads: dict[str, dict]) -> None:
    for name, payload in payloads.items():
        (root / name).write_text(json.dumps(payload))


def test_checks_cover_every_committed_payload():
    # The payloads the table guards; the set is the contract.
    names = list(dict.fromkeys(bar.payload for bar in BARS))
    assert names == [
        "BENCH_serving.json",
        "BENCH_dynamic.json",
        "BENCH_kernels.json",
        "BENCH_mpc_substrate.json",
        "BENCH_mpc_adaptive.json",
        "BENCH_sharding.json",
        "BENCH_service.json",
        "BENCH_e5_mpc_rounds.json",
    ]
    assert len({bar.id for bar in BARS}) == len(BARS)


def test_all_bars_held_passes(tmp_path, capsys):
    _write_tree(tmp_path, _passing_payloads())
    assert run_checks(tmp_path) == []
    assert main(tmp_path) == 0
    # One line per bar: id, value, floor.
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(BARS)
    assert "serving/session_speedup_over_cold = 3.5 (floor >= 2.0)" in out


def test_repo_committed_payloads_pass():
    # The actual committed payloads must hold their floors right now.
    assert run_checks() == []


def test_missing_required_file_fails(tmp_path):
    payloads = _passing_payloads()
    del payloads["BENCH_kernels.json"]
    _write_tree(tmp_path, payloads)
    failures = run_checks(tmp_path)
    assert failures == ["BENCH_kernels.json: missing from the repo root"]
    assert main(tmp_path) == 1


def test_malformed_json_fails_without_crashing(tmp_path):
    _write_tree(tmp_path, _passing_payloads())
    (tmp_path / "BENCH_serving.json").write_text("{not json")
    failures = run_checks(tmp_path)
    assert len(failures) == 1
    assert failures[0].startswith("BENCH_serving.json: not valid JSON")
    assert main(tmp_path) == 1


def test_missed_serving_bar_fails(tmp_path):
    payloads = _passing_payloads()
    payloads["BENCH_serving.json"] = {
        "meets_2x_bar": False,
        "session_speedup_over_cold": 1.4,
    }
    _write_tree(tmp_path, payloads)
    failures = run_checks(tmp_path)
    assert any("meets_2x_bar" in f for f in failures)
    assert any("1.4" in f for f in failures)


def test_missed_dynamic_scenario_is_named(tmp_path):
    payloads = _passing_payloads()
    dynamic = payloads["BENCH_dynamic.json"]
    dynamic["meets_3x_bar"]["flash_crowd"] = False
    # A scenario outside meets_3x_bar misses too, and the payload tries
    # to lower its own floor: the table's 3.0 still applies.
    dynamic["scenarios"]["adversarial_churn"]["warm_speedup_over_cold"] = 1.5
    dynamic["speedup_bar"] = 1.0
    _write_tree(tmp_path, payloads)
    failures = run_checks(tmp_path)
    assert failures == [
        "dynamic/scenarios.adversarial_churn.warm_speedup_over_cold = 1.5 "
        "(floor >= 3.0): not met",
        "dynamic/meets_3x_bar.flash_crowd = False (floor is True): not met",
    ]
    # A scenario the payload does not record at all is missing.
    payloads = _passing_payloads()
    del payloads["BENCH_dynamic.json"]["scenarios"]["correlated_flash_crowd"]
    _write_tree(tmp_path, payloads)
    assert run_checks(tmp_path) == [
        "dynamic/scenarios.correlated_flash_crowd.warm_speedup_over_cold: missing"
    ]


def test_missed_adaptive_frontier_fails(tmp_path):
    payloads = _passing_payloads()
    payloads["BENCH_mpc_adaptive.json"] = {
        "frontier_bar": {"threshold": 4.0, "met": False},
        "frontier_ratio": 2.0,
        "certificates_bit_checked": True,
    }
    _write_tree(tmp_path, payloads)
    failures = run_checks(tmp_path)
    assert any("frontier_bar.met = False" in f for f in failures)
    assert any("frontier_ratio = 2.0 (floor >= 4.0)" in f for f in failures)
    # A payload that lowers its own threshold and calls the bar met
    # still answers to the table's 4.0.
    payloads["BENCH_mpc_adaptive.json"]["frontier_bar"] = {"threshold": 1.0, "met": True}
    _write_tree(tmp_path, payloads)
    assert run_checks(tmp_path) == [
        "mpc_adaptive/frontier_ratio = 2.0 (floor >= 4.0): not met"
    ]


def test_adaptive_without_certificate_check_fails(tmp_path):
    payloads = _passing_payloads()
    payloads["BENCH_mpc_adaptive.json"]["certificates_bit_checked"] = False
    _write_tree(tmp_path, payloads)
    failures = run_checks(tmp_path)
    assert failures == [
        "mpc_adaptive/certificates_bit_checked = False (floor is True): not met"
    ]


def test_adaptive_missing_bar_dict_fails(tmp_path):
    payloads = _passing_payloads()
    del payloads["BENCH_mpc_adaptive.json"]["frontier_bar"]
    _write_tree(tmp_path, payloads)
    failures = run_checks(tmp_path)
    assert failures == ["mpc_adaptive/frontier_bar.met: missing"]


def test_sharding_not_applicable_is_not_a_regression(tmp_path):
    # An honest "single-core host, could not measure" must pass...
    payloads = _passing_payloads()
    payloads["BENCH_sharding.json"]["scaling_bar"] = {
        "applicable": False, "met": None,
        "speedup_4_workers": 0.9, "threshold": 2.5,
    }
    _write_tree(tmp_path, payloads)
    assert run_checks(tmp_path) == []


def test_sharding_applicable_but_missed_fails(tmp_path):
    # ...but a measured applicable miss must not, whatever threshold
    # the payload records.
    payloads = _passing_payloads()
    payloads["BENCH_sharding.json"]["scaling_bar"] = {
        "applicable": True, "met": True,
        "speedup_4_workers": 1.1, "threshold": 1.0,
    }
    _write_tree(tmp_path, payloads)
    failures = run_checks(tmp_path)
    assert failures == [
        "sharding/scaling_bar.speedup_4_workers = 1.1 (floor >= 2.5): not met"
    ]


def test_sharding_ambiguous_applicability_fails(tmp_path):
    payloads = _passing_payloads()
    payloads["BENCH_sharding.json"]["scaling_bar"] = {"met": True}
    _write_tree(tmp_path, payloads)
    failures = run_checks(tmp_path)
    assert any("applicable must be true or false" in f for f in failures)


def test_kernels_regression_fails(tmp_path):
    payloads = _passing_payloads()
    payloads["BENCH_kernels.json"] = {
        "optimized_beats_seed": False,
        "largest_instance_speedup": 0.8,
    }
    _write_tree(tmp_path, payloads)
    failures = run_checks(tmp_path)
    assert any("optimized_beats_seed" in f for f in failures)
    assert any("0.8" in f for f in failures)


def test_service_missed_restart_bar_fails(tmp_path):
    payloads = _passing_payloads()
    payloads["BENCH_service.json"]["restart_warmth"] = {
        "meets_3x_bar": False,
        "restart_speedup": 1.7,
        "restored_warm_start": True,
    }
    _write_tree(tmp_path, payloads)
    failures = run_checks(tmp_path)
    assert any("meets_3x_bar = False" in f for f in failures)
    assert any("1.7" in f and "floor >= 3.0" in f for f in failures)


def test_service_cold_restore_fails(tmp_path):
    payloads = _passing_payloads()
    payloads["BENCH_service.json"]["restart_warmth"]["restored_warm_start"] = False
    _write_tree(tmp_path, payloads)
    failures = run_checks(tmp_path)
    assert failures == [
        "service/restart_warmth.restored_warm_start = False (floor is True): not met"
    ]


def test_service_incomplete_latency_histogram_fails(tmp_path):
    payloads = _passing_payloads()
    del payloads["BENCH_service.json"]["concurrent_load"]["latency"]["p99_ms"]
    _write_tree(tmp_path, payloads)
    failures = run_checks(tmp_path)
    assert failures == ["service/concurrent_load.latency.p99_ms: missing"]


def test_substrate_parity_flag_required(tmp_path):
    payloads = _passing_payloads()
    payloads["BENCH_mpc_substrate.json"]["parity_checked"] = False
    _write_tree(tmp_path, payloads)
    failures = run_checks(tmp_path)
    assert failures == [
        "mpc_substrate/parity_checked = False (floor is True): not met"
    ]


def test_e5_allocation_mismatch_and_space_violations_fail(tmp_path):
    payloads = _passing_payloads()
    payloads["BENCH_e5_mpc_rounds.json"]["instances"][1] = {
        "allocations_match": False, "space_violations": 2,
    }
    _write_tree(tmp_path, payloads)
    assert run_checks(tmp_path) == [
        "e5_mpc_rounds/instances.*.allocations_match = [True, False] "
        "(floor is True): not met",
        "e5_mpc_rounds/instances.*.space_violations = [0, 2] "
        "(floor <= 0): not met",
    ]
    payloads["BENCH_e5_mpc_rounds.json"]["instances"] = []
    _write_tree(tmp_path, payloads)
    assert run_checks(tmp_path) == [
        "e5_mpc_rounds/instances.*.allocations_match: missing",
        "e5_mpc_rounds/instances.*.space_violations: missing",
    ]


def test_optional_bar_may_be_absent(tmp_path, monkeypatch):
    monkeypatch.setattr(gate, "BARS", BARS + (
        Bar("BENCH_kernels.json", "native_speedup", ">=", 1.0, required=False),
    ))
    _write_tree(tmp_path, _passing_payloads())
    failures, report = gate.check_tree(tmp_path)
    assert failures == []
    assert "kernels/native_speedup: not recorded, optional" in report


# ----------------------------------------------------------------------
# --diff mode: a fresh payload tree held to the same table
# ----------------------------------------------------------------------


def test_diff_fresh_regression_fails(tmp_path):
    fresh = _passing_payloads()["BENCH_serving.json"]
    fresh["session_speedup_over_cold"] = 0.9
    (tmp_path / "BENCH_serving.json").write_text(json.dumps(fresh))
    failures, report = gate.check_tree(tmp_path, fresh=True)
    assert failures == [
        "serving/session_speedup_over_cold = 0.9 (floor >= 2.0): not met"
    ]
    assert any("not in the fresh run" in line for line in report)
    assert main(argv=["--diff", str(tmp_path)]) == 1


def test_diff_fresh_pass_and_empty_fresh_fails(tmp_path):
    fresh_root = tmp_path / "fresh"
    fresh_root.mkdir()
    (fresh_root / "BENCH_serving.json").write_text(
        json.dumps(_passing_payloads()["BENCH_serving.json"])
    )
    assert run_checks(fresh_root, fresh=True) == []
    assert main(argv=["--diff", str(fresh_root)]) == 0
    # A fresh dir with nothing to compare must not vacuously pass.
    empty = tmp_path / "empty"
    empty.mkdir()
    failures = run_checks(empty, fresh=True)
    assert any("no bars under" in f for f in failures)


def test_diff_not_applicable_fresh_bar_is_skipped(tmp_path):
    fresh = _passing_payloads()["BENCH_sharding.json"]
    fresh["scaling_bar"] = {
        "applicable": False, "met": None,
        "speedup_4_workers": 0.8, "threshold": 2.5,
    }
    (tmp_path / "BENCH_sharding.json").write_text(json.dumps(fresh))
    failures, report = gate.check_tree(tmp_path, fresh=True)
    assert failures == []
    assert any("not applicable on the measuring host" in line for line in report)
