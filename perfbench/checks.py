"""The benchmark's own tests.

    python3 -m pytest perfbench/checks.py -q

A smoke-scale run of every workload in both modes must print every
metric BENCHMARK.json names, with its unit, and pass the output gate;
the tracer must put every original function back; the inputs must be a
pure function of the seed.  The file name keeps these out of the
repository's tier-1 collection, which only picks up ``test_*.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT)]

import layers  # noqa: E402
import spans  # noqa: E402
from metrics import END_TO_END, tail_percentile  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT, seconds: float = 2.0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_spec_matches_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(layers.PER_LAYER)
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    if workload != "service_mixed":
        assert result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("warm_serving", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_restores_every_original():
    targets = layers.SERVICE
    originals = spans.snapshot(targets)
    tracer = spans.Tracer()
    with tracer.installed(targets):
        with pytest.raises(RuntimeError):
            spans.assert_untouched(targets, originals)
    spans.assert_untouched(targets, originals)


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    with tracer.request():
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(20000))
    assert tracer.self_time["outer"] == pytest.approx(
        tracer.total["outer"] - tracer.total["inner"]
    )
    assert tracer.request_covered == pytest.approx(tracer.total["outer"])


def test_host_clock_rescales_by_the_run_median():
    from hostclock import REFERENCE_PROBE_MS, HostClock

    clock = HostClock()
    for ms in (2.0, 4.0, 40.0):  # one disturbed sample does not move it
        clock.record(ms / 1000.0)
    assert clock.probe_ms() == pytest.approx(4.0)
    assert clock.rescale(1.0) == pytest.approx(REFERENCE_PROBE_MS / 4.0)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(10) == 50
    assert tail_percentile(100) == 90
    assert tail_percentile(1000) == 99


def test_inputs_are_a_function_of_the_seed():
    from service_load import requests, tenants
    from workloads import _churn_states, request_seeds
    from repro.dynamic.scenarios import adversarial_churn
    from repro.graphs.io import instance_to_json

    assert request_seeds(3, 1)[:5] == request_seeds(3, 1)[:5]
    assert request_seeds(3, 1)[:5] != request_seeds(4, 1)[:5]
    assert requests(3, 40, 3) == requests(3, 40, 3)
    assert requests(3, 40, 3) != requests(4, 40, 3)
    assert [instance_to_json(i) for i in tenants()] == [instance_to_json(i) for i in tenants()]
    base = tenants()[0]
    stream, states, index = _churn_states(base, adversarial_churn(base, 3, seed=3))
    # Forward deltas then their inverses: the stream ends where it began.
    assert len(stream) == 6 and index[-1] == 0
