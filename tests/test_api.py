"""The repro.api façade: config validation, Engine parity, report
schema, custom pipeline stages (DESIGN.md §10).

The load-bearing contract: on the same :class:`SolverConfig`,
``Engine.solve`` is bit-identical to
:func:`repro.core.pipeline.solve_allocation` and ``Engine.solve_mpc``
to :func:`repro.core.mpc_driver.solve_allocation_mpc` — the façade
changes how solves are addressed, never what they compute.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import (
    CONFIG_SCHEMA,
    AllocationReport,
    Engine,
    SolverConfig,
)
from repro.core.mpc_driver import solve_allocation_mpc
from repro.core.pipeline import solve_allocation
from repro.graphs.generators import union_of_forests
from repro.kernels import use_backend


@pytest.fixture
def instance():
    return union_of_forests(60, 45, 3, capacity=2, seed=2)


@pytest.fixture
def small_instance():
    return union_of_forests(20, 16, 2, capacity=2, seed=1)


# ----------------------------------------------------------------------
# SolverConfig validation
# ----------------------------------------------------------------------

def test_config_defaults_match_historical_entry_points():
    config = SolverConfig()
    assert config.epsilon == 0.2
    assert config.mode == "simulate"
    assert config.repair and config.boost
    assert config.backend is None and config.substrate is None


def test_config_unknown_backend_lists_choices():
    with pytest.raises(ValueError, match=r"unknown kernel backend 'nope'"):
        SolverConfig(backend="nope")
    with pytest.raises(
        ValueError, match=r"available: \['native', 'optimized', 'reference'\]"
    ):
        SolverConfig(backend="nope")


def test_config_unknown_substrate_lists_choices():
    with pytest.raises(ValueError, match=r"unknown MPC substrate 'nope'"):
        SolverConfig(substrate="nope")
    with pytest.raises(ValueError, match=r"available: \['columnar', 'object'\]"):
        SolverConfig(substrate="nope")


def test_config_unknown_stage_lists_choices():
    with pytest.raises(ValueError, match=r"unknown pipeline stage 'polish'"):
        SolverConfig(stages=("fractional", "polish"))
    with pytest.raises(
        ValueError, match=r"available: \['boost', 'fractional', 'repair', 'rounding'\]"
    ):
        SolverConfig(stages=("polish",))


@pytest.mark.parametrize(
    "bad",
    [
        {"epsilon": 0.9},
        {"epsilon": -0.1},
        {"mode": "psychic"},
        {"boost_mode": "harder"},
        {"alpha": 1.5},
        {"seed": True},
        {"seed": "zero"},
        {"rounding_copies": 0},
        {"lam": 0},
        {"executor": "fiber"},
        {"stages": "rounding"},  # a string is not a sequence of names
    ],
)
def test_config_rejects_bad_fields(bad):
    with pytest.raises(ValueError):
        SolverConfig(**bad)


def test_config_json_round_trip():
    config = SolverConfig(
        epsilon=0.15,
        backend="reference",
        substrate="object",
        mode="faithful",
        seed=7,
        stages=("fractional", "rounding", "repair"),
        repair=False,
        boost=False,
        rounding_copies=3,
        lam=4,
        alpha=0.6,
        executor="process",
        shard_workers=2,
    )
    assert SolverConfig.from_json(config.to_json()) == config
    payload = config.to_dict()
    assert payload["schema"] == CONFIG_SCHEMA
    assert payload["stages"] == ["fractional", "rounding", "repair"]
    assert SolverConfig.from_dict(payload) == config


def test_config_from_dict_rejects_wrong_schema_and_unknown_fields():
    with pytest.raises(ValueError, match="unsupported SolverConfig schema"):
        SolverConfig.from_dict({"schema": "repro.api/SolverConfig/v999"})
    with pytest.raises(ValueError, match="unknown SolverConfig fields"):
        SolverConfig.from_dict({"schema": CONFIG_SCHEMA, "epsilonn": 0.1})


def test_config_from_dict_reads_2x_payloads():
    """2.x wrote the retired ``max_workers`` field into every v1
    payload; reading one ignores it."""
    payload = SolverConfig(seed=3).to_dict()
    payload["max_workers"] = None
    assert SolverConfig.from_dict(payload) == SolverConfig(seed=3)


def test_config_replace_revalidates():
    config = SolverConfig()
    assert config.replace(epsilon=0.1).epsilon == 0.1
    with pytest.raises(ValueError):
        config.replace(backend="nope")


# ----------------------------------------------------------------------
# Engine.solve / Engine.solve_mpc bit-parity
# ----------------------------------------------------------------------

def test_engine_solve_bit_identical_to_solve_allocation(instance):
    config = SolverConfig(epsilon=0.2, boost=False, seed=5)
    with Engine(config) as engine:
        report = engine.solve(instance)
    direct = solve_allocation(instance, 0.2, seed=5, boost=False)
    assert np.array_equal(report.edge_mask, direct.edge_mask)
    assert report.summary() == direct.summary()
    assert report.meta == direct.meta
    assert report.size == direct.size
    assert report.certificate == direct.mpc.certificate


def test_engine_solve_full_pipeline_parity(instance):
    with Engine(seed=3) as engine:
        report = engine.solve(instance)
    direct = solve_allocation(instance, 0.2, seed=3)
    assert np.array_equal(report.edge_mask, direct.edge_mask)
    assert report.summary() == direct.summary()


def test_engine_solve_parity_under_reference_backend(instance):
    with Engine(backend="reference", boost=False, seed=9) as engine:
        report = engine.solve(instance)
    with use_backend("reference"):
        direct = solve_allocation(instance, 0.2, seed=9, boost=False)
    assert np.array_equal(report.edge_mask, direct.edge_mask)
    assert report.summary() == direct.summary()


def test_engine_solve_explicit_stage_names_parity(instance):
    config = SolverConfig(stages=("fractional", "rounding", "repair"), seed=4)
    report = Engine(config).solve(instance)
    direct = solve_allocation(instance, 0.2, seed=4, boost=False)
    assert np.array_equal(report.edge_mask, direct.edge_mask)
    assert [r.stage for r in report.stage_records] == [
        "fractional", "rounding", "repair",
    ]


def test_engine_solve_mpc_parity(instance):
    config = SolverConfig(seed=5)
    report = Engine(config).solve_mpc(instance)
    direct = solve_allocation_mpc(instance, 0.2, seed=5)
    assert np.array_equal(report.allocation.x, direct.allocation.x)
    assert report.certificate == direct.certificate
    assert report.round_ledger.by_category == direct.ledger.by_category
    assert report.local_rounds == direct.local_rounds
    assert report.mpc_rounds == direct.mpc_rounds


def test_engine_solve_mpc_faithful_parity(small_instance):
    config = SolverConfig(mode="faithful", substrate="object", lam=2, seed=7)
    report = Engine(config).solve_mpc(small_instance, sample_budget=6,
                                      space_slack=512.0)
    direct = solve_allocation_mpc(
        small_instance, 0.2, lam=2, mode="faithful", substrate="object",
        seed=7, sample_budget=6, space_slack=512.0,
    )
    assert np.array_equal(report.allocation.x, direct.allocation.x)
    assert report.round_ledger.by_category == direct.ledger.by_category
    assert report.meta["substrate"] == "object"


def test_engine_seed_policy_and_per_call_override(instance):
    engine = Engine(seed=11, boost=False)
    from_policy = engine.solve(instance)
    explicit = engine.solve(instance, seed=11)
    assert np.array_equal(from_policy.edge_mask, explicit.edge_mask)
    other = engine.solve(instance, seed=12)
    assert other.summary() != from_policy.summary() or not np.array_equal(
        other.edge_mask, from_policy.edge_mask
    )


def test_engine_per_call_config_overrides(instance):
    engine = Engine(boost=False)
    report = engine.solve(instance, seed=2, epsilon=0.1)
    direct = solve_allocation(instance, 0.1, seed=2, boost=False)
    assert np.array_equal(report.edge_mask, direct.edge_mask)
    with pytest.raises(ValueError):
        engine.solve(instance, epsilon=0.9)


def test_engine_rounding_copies_override(instance):
    report = Engine(rounding_copies=2, boost=False, seed=3).solve(instance)
    assert report.meta["rounding_copies"] == 2
    assert report.size >= 1
    assert report.certified


# ----------------------------------------------------------------------
# The config's backend reaches every path, with or without ``with``
# ----------------------------------------------------------------------

def _solve_as_service_tenant(engine, instance, store_dir):
    import asyncio

    from repro.graphs.io import instance_to_json

    service = engine.open_service(store_dir)

    async def tenant():
        try:
            opened = await service.handle_message(
                {"op": "open", "instance": json.loads(instance_to_json(instance))}
            )
            return await service.handle_message(
                {"op": "solve", "instance_hash": opened["instance_hash"]}
            )
        finally:
            await service.stop()

    assert asyncio.run(tenant())["ok"]


@pytest.mark.parametrize("path", ["session", "dynamic", "service"])
def test_config_backend_reaches_every_path(instance, tmp_path, monkeypatch, path):
    from repro.kernels import ReferenceBackend, get_backend

    rounds = []
    reference_round = ReferenceBackend.proportional_round

    def spy(self, *args, **kwargs):
        rounds.append(self.name)
        return reference_round(self, *args, **kwargs)

    # OptimizedBackend does not inherit from ReferenceBackend, so the
    # spy sees reference rounds only.
    monkeypatch.setattr(ReferenceBackend, "proportional_round", spy)
    engine = Engine(SolverConfig(backend="reference", boost=False, seed=1))
    with use_backend("optimized"):  # the scoped default, pinned
        if path == "session":
            engine.open_session(instance).solve()
        elif path == "dynamic":
            engine.open_dynamic(instance).resolve()
        else:
            _solve_as_service_tenant(engine, instance, tmp_path)
        assert rounds and set(rounds) == {"reference"}
        assert get_backend().name == "optimized"


def test_engine_rejects_non_config():
    with pytest.raises(TypeError, match="SolverConfig"):
        Engine({"epsilon": 0.2})


# ----------------------------------------------------------------------
# AllocationReport schema
# ----------------------------------------------------------------------

def test_report_json_round_trip_pipeline(instance):
    report = Engine(boost=False, seed=5).solve(instance)
    text = report.to_json()
    detached = AllocationReport.from_json(text)
    assert detached.detached and not report.detached
    assert detached.to_json() == text
    assert detached.kind == "pipeline"
    assert detached.size == report.size
    assert detached.summary() == report.summary()
    assert detached.certificate == report.certificate
    assert detached.stage_records == report.stage_records
    assert detached.round_ledger.by_category == report.round_ledger.by_category
    assert np.array_equal(detached.edge_mask, report.edge_mask)
    assert np.array_equal(detached.final_exponents, report.final_exponents)
    assert detached.allocation is None  # fractional x not serialized here


def test_report_json_round_trip_mpc(instance):
    report = Engine(seed=5).solve_mpc(instance)
    detached = AllocationReport.from_json(report.to_json())
    assert detached.kind == "mpc"
    assert detached.size is None and detached.edge_mask is None
    assert np.array_equal(detached.allocation.x, report.allocation.x)
    assert detached.certificate == report.certificate
    assert detached.summary()["certified"] is True


def test_report_rejects_wrong_schema_or_kind():
    with pytest.raises(ValueError, match="unsupported AllocationReport schema"):
        AllocationReport.from_dict({"schema": "nope", "kind": "pipeline"})
    with pytest.raises(ValueError, match="report kind"):
        AllocationReport.from_dict(
            {"schema": "repro.api/AllocationReport/v1", "kind": "psychic"}
        )


def test_report_from_result_dispatch(instance):
    pipeline = solve_allocation(instance, 0.2, seed=1, boost=False)
    mpc = solve_allocation_mpc(instance, 0.2, seed=1)
    assert AllocationReport.from_result(pipeline).kind == "pipeline"
    assert AllocationReport.from_result(mpc).kind == "mpc"
    with pytest.raises(TypeError):
        AllocationReport.from_result({"not": "a result"})


# ----------------------------------------------------------------------
# batch / stream / sessions through the Engine
# ----------------------------------------------------------------------

def test_engine_batch_matches_solve_stream(instance):
    from repro.serve import AllocationSession, SolveRequest, solve_stream

    requests = [SolveRequest(), SolveRequest(capacity_updates={0: 3})]
    with Engine(boost=False, seed=4) as engine:
        reports = engine.batch(instance, requests)
    session = AllocationSession(instance, epsilon=0.2, boost=False)
    direct = solve_stream(session, requests, seed=4)
    assert [r.size for r in reports] == [r.size for r in direct]
    assert [r.meta.get("warm_start") for r in reports] == [False, True]


def test_engine_batch_accepts_json_requests(instance):
    with Engine(boost=False, seed=4) as engine:
        reports = engine.batch(
            instance, [{"seed": 1}, {"epsilon": 0.15, "warm": False}]
        )
    assert len(reports) == 2
    assert all(r.certified for r in reports)


def test_engine_open_session_warm_contract(instance):
    with Engine(boost=False) as engine:
        session = engine.open_session(instance)
        cold = session.solve(seed=0)
        warm = session.solve(seed=1)
    assert not cold.meta["warm_start"]
    assert warm.meta["warm_start"]
    assert session.stats.warm_solves == 1


def test_engine_stream_over_scenario(instance):
    from repro.dynamic import SCENARIOS

    deltas = SCENARIOS["diurnal_wave"](instance, 3, seed=0)
    with Engine(boost=False, seed=2) as engine:
        outcome = engine.stream(instance, deltas)
    assert outcome.prime is not None and outcome.prime.certified
    assert len(outcome.steps) == 3
    assert all(row["certified"] for row in outcome.rows())
    assert len(outcome.reports) == 3
    # the session stays resident for further events
    assert outcome.session.stats.deltas_applied == 3


def test_engine_stream_accepts_json_deltas(instance):
    with Engine(boost=False, seed=2) as engine:
        outcome = engine.stream(
            instance,
            [{"type": "capacity_scale", "factor": 1.5}],
        )
    assert len(outcome.steps) == 1 and outcome.rows()[0]["certified"]


def test_engine_generate_and_load_instance(tmp_path):
    from repro.graphs.io import save_instance

    inst = Engine.generate_instance(
        "union_of_forests", n_left=20, n_right=16, k=2, seed=0
    )
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    loaded = Engine.load_instance(path)
    assert loaded.n_left == 20 and loaded.n_right == 16
    with pytest.raises(ValueError, match="unknown family"):
        Engine.generate_instance("nope")


# ----------------------------------------------------------------------
# Custom pipeline stages
# ----------------------------------------------------------------------

def test_registry_custom_stage_flows_into_config(instance):
    from repro.core.pipeline import STAGE_FACTORIES, RepairStage, register_stage

    register_stage(
        "canonical_repair", lambda config: RepairStage(order="canonical")
    )
    try:
        config = SolverConfig(
            stages=("fractional", "rounding", "canonical_repair"), seed=6
        )
        report = Engine(config).solve(instance)
        assert [r.stage for r in report.stage_records][-1] == "repair"
        assert report.certified
    finally:
        STAGE_FACTORIES.pop("canonical_repair")


def test_json_payloads_are_pure(instance):
    report = Engine(boost=False, seed=1).solve(instance)
    # json round trip must not lose anything to numpy scalar types
    assert json.loads(report.to_json()) == report.to_dict()
