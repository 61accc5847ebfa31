"""Smoke tests of the experiment suite.

Every experiment must stay permanently runnable at smoke scale, and
every run applies the experiment's registered claim check — so
``test_experiment_smoke`` holds all thirteen claims at smoke scale.
"""

from __future__ import annotations

import pytest

import dataclasses

from repro.experiments.harness import (
    REGISTRY,
    ClaimFailed,
    get_experiment,
    run_and_save,
    run_experiment,
)

ALL_IDS = ["e0"] + [f"e{i}" for i in range(1, 13)]


def test_registry_complete():
    get_experiment("e1")  # force module loading
    assert sorted(REGISTRY) == sorted(ALL_IDS)
    for spec in REGISTRY.values():
        assert spec.title and spec.claim
        assert callable(spec.check)


def test_unknown_experiment():
    with pytest.raises(KeyError, match="unknown experiment"):
        get_experiment("e99")


@pytest.mark.parametrize("exp_id", ALL_IDS)
def test_experiment_smoke(exp_id):
    table = run_experiment(exp_id, scale="smoke", seed=0)
    assert table.rows, f"{exp_id} produced no rows"
    assert table.columns
    # Claim note attached by the harness.
    assert any("claim:" in note for note in table.notes)
    # Rendering works in both formats.
    assert table.to_ascii()
    assert table.to_markdown()


def test_run_and_save_persists(tmp_path):
    run_and_save("e9", scale="smoke", results_dir=tmp_path, echo=False)
    assert (tmp_path / "e9.md").exists()
    assert (tmp_path / "e9.json").exists()


def test_cli_list_and_run(capsys, tmp_path, monkeypatch):
    from repro.experiments.__main__ import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "e1" in out and "claim" in out

    # --list prints the id/title/claim table, one row per experiment.
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for column in ("id", "title", "claim"):
        assert column in out
    for exp_id in ("e0", "e5", "e12"):
        assert exp_id in out

    import repro.experiments.harness as harness

    monkeypatch.setattr(harness, "default_results_dir", lambda: tmp_path)
    assert main(["e9", "--scale", "smoke"]) == 0
    assert main(["--exp", "e9", "--scale", "smoke"]) == 0
    assert main(["nope"]) == 2
    assert main([]) == 2
    assert main(["e9", "--exp", "e1"]) == 2


def test_failed_claim_exits_1_and_names_the_id(capsys, tmp_path, monkeypatch):
    import repro.experiments.harness as harness
    from repro.experiments.__main__ import main

    def check(table):
        assert table.rows[-1]["split_lambda"] < 0

    spec = get_experiment("e9")
    monkeypatch.setitem(REGISTRY, "e9", dataclasses.replace(spec, check=check))
    monkeypatch.setattr(harness, "default_results_dir", lambda: tmp_path)
    assert main(["e9", "--scale", "smoke"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("e9: claim failed: ")
    # The table is written before the claim is checked.
    assert (tmp_path / "e9.json").exists()
    with pytest.raises(ClaimFailed, match="e9: claim failed"):
        run_experiment("e9", scale="smoke")


def test_cli_unknown_exp_names_valid_ids(capsys):
    from repro.experiments.__main__ import main

    assert main(["--exp", "zz"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment 'zz'" in err
    assert "e0" in err and "e12" in err


def test_e1_claim_shape_smoke():
    table = run_experiment("e1", scale="smoke", seed=0)
    assert all(v for v in table.column("within_budget") if v is not None)


def test_e3_claim_shape_smoke():
    table = run_experiment("e3", scale="smoke", seed=0)
    ours = table.column("ours_rounds")
    assert max(ours) - min(ours) <= 2


def test_e9_claim_shape_smoke():
    table = run_experiment("e9", scale="smoke", seed=0)
    rows = table.rows
    assert rows[-1]["split_lambda"] > rows[0]["split_lambda"]
