"""Multi-process sharded serving (DESIGN.md §12).

What is covered here:

* the shared-memory instance round trip (publish → attach → identical
  arrays, attached-workspace fast-path identity, exponent segment
  versioning);
* the routing rule (stable content hash: metadata-blind, capacity-
  sensitive, same instance → same shard);
* the process-boundary pickle contracts (``SolverConfig``,
  ``AllocationReport`` live→detached, ``SolveRequest``);
* the cross-executor determinism matrix: one request stream through
  the thread batch, a 1-worker process pool, and a 4-worker process
  pool must yield bit-identical allocations, certificates, and round
  counts;
* fleet lifecycle: warm state across batches, crash respawn with warm
  recovery from shared memory, clean shutdown/unlink via
  ``Engine.close()``;
* the sharded dynamic replay vs the in-process ``Engine.stream``.
"""

from __future__ import annotations

import glob
import pickle
import time

import numpy as np
import pytest

from repro.api import Engine, SolverConfig
from repro.api.report import AllocationReport
from repro.graphs.generators import erdos_renyi_instance, power_law_instance
from repro.serve import (
    AllocationSession,
    ShardedExecutor,
    SharedInstance,
    SolveRequest,
    attach_instance,
    instance_hash,
    solve_batch,
    solve_stream,
)

_GRAPH_FIELDS = (
    "edge_u", "edge_v",
    "left_indptr", "left_adj", "left_edge",
    "right_indptr", "right_adj", "right_edge",
)


@pytest.fixture(scope="module")
def instance():
    return power_law_instance(n_left=60, n_right=24, seed=3)


@pytest.fixture(scope="module")
def other_instance():
    return erdos_renyi_instance(n_left=40, n_right=18, m=120, seed=7)


def _requests(n, *, epsilon=0.2):
    return [
        SolveRequest(epsilon=epsilon, capacity_updates={i % 5: 2})
        for i in range(n)
    ]


def _dicts(reports):
    return [r.to_dict() for r in reports]


def _leaked_segments():
    return glob.glob("/dev/shm/repro_*")


# ----------------------------------------------------------------------
# Content hash (the routing key)
# ----------------------------------------------------------------------
class TestInstanceHash:
    def test_stable_across_calls(self, instance):
        assert instance_hash(instance) == instance_hash(instance)

    def test_ignores_name_and_metadata(self, instance):
        from repro.graphs.instances import AllocationInstance

        renamed = AllocationInstance(
            graph=instance.graph,
            capacities=instance.capacities,
            arboricity_upper_bound=instance.arboricity_upper_bound,
            name="renamed-tenant",
            metadata={"anything": "else"},
        )
        assert instance_hash(renamed) == instance_hash(instance)

    def test_sensitive_to_capacities(self, instance):
        from repro.graphs.instances import AllocationInstance

        bumped = AllocationInstance(
            graph=instance.graph,
            capacities=instance.capacities + 1,
            name=instance.name,
        )
        assert instance_hash(bumped) != instance_hash(instance)

    def test_distinct_instances_distinct_hashes(self, instance, other_instance):
        assert instance_hash(instance) != instance_hash(other_instance)

    def test_shard_routing_is_hash_mod_workers(self, instance):
        executor = ShardedExecutor(3)
        try:
            expected = int(instance_hash(instance), 16) % 3
            assert executor.shard_of(instance) == expected
        finally:
            executor.close()


# ----------------------------------------------------------------------
# Shared-memory round trip
# ----------------------------------------------------------------------
class TestSharedInstance:
    def test_publish_attach_round_trip(self, instance):
        handle = SharedInstance.publish(instance)
        attached = attach_instance(handle.descriptor)
        try:
            g1, g2 = instance.graph, attached.instance.graph
            for field in _GRAPH_FIELDS:
                assert np.array_equal(getattr(g1, field), getattr(g2, field))
            assert np.array_equal(instance.capacities, attached.instance.capacities)
            assert attached.instance.name == instance.name
            assert not attached.instance.capacities.flags.writeable
        finally:
            attached.close()
            handle.unlink()

    def test_attached_workspace_fast_path_identity(self, instance):
        """The optimized backend trusts a layout only when
        ``layout.indptr is indptr`` — the attach path must preserve
        that identity over the shm views."""
        handle = SharedInstance.publish(instance)
        attached = attach_instance(handle.descriptor)
        try:
            graph = attached.instance.graph
            assert graph.left_layout.indptr is graph.left_indptr
            assert graph.right_layout.indptr is graph.right_indptr
            # and the layout invariants match a fresh derivation
            fresh = instance.graph
            assert np.array_equal(
                graph.left_layout.slot_owner, fresh.left_layout.slot_owner
            )
            assert np.array_equal(
                graph.right_layout.reduce_starts,
                fresh.right_layout.reduce_starts,
            )
        finally:
            attached.close()
            handle.unlink()

    def test_solve_on_attached_instance_bit_identical(self, instance):
        handle = SharedInstance.publish(instance)
        attached = attach_instance(handle.descriptor)
        try:
            a = AllocationSession(instance).solve(SolveRequest(seed=5))
            b = AllocationSession(attached.instance).solve(SolveRequest(seed=5))
            assert np.array_equal(a.edge_mask, b.edge_mask)
            assert a.mpc.local_rounds == b.mpc.local_rounds
            assert np.array_equal(a.mpc.final_exponents, b.mpc.final_exponents)
        finally:
            attached.close()
            handle.unlink()

    def test_exponent_segment_versioning(self, instance):
        handle = SharedInstance.publish(instance)
        attached = attach_instance(handle.descriptor)
        try:
            assert attached.load_exponents() is None
            assert handle.exponents() == (0, None)
            vec = np.arange(instance.n_right, dtype=np.int64)
            attached.store_exponents(vec)
            assert np.array_equal(attached.load_exponents(), vec)
            version, owner_view = handle.exponents()
            assert version == 1
            assert np.array_equal(owner_view, vec)
            attached.store_exponents(vec + 1)
            assert handle.exponents()[0] == 2
            with pytest.raises(ValueError):
                attached.store_exponents(np.zeros(3, dtype=np.int64))
        finally:
            attached.close()
            handle.unlink()

    def test_half_written_commit_detected_previous_version_used(self, instance):
        """Regression: a writer dying mid-commit must not lose warmth.

        The exponent segment's two-slot commit protocol writes a
        ``begin_seq`` marker, then the vector into the *inactive* slot,
        then the ``committed_seq``.  Death between ``begin`` and
        ``commit`` therefore leaves the committed slot untouched:
        readers must report the tear and return the previous committed
        vector — the fleet rebuild re-primes from real warm state
        instead of silently adopting garbage or falling back cold.
        """
        from repro.serve.shm import EXP_HEADER_WORDS

        handle = SharedInstance.publish(instance)
        attached = attach_instance(handle.descriptor)
        try:
            committed = np.arange(instance.n_right, dtype=np.int64)
            attached.store_exponents(committed)
            assert attached.commit_info() == {
                "committed": 1, "begin": 1, "torn": False,
            }

            # Simulate the writer dying mid-commit of version 2: begin
            # marker written, half the vector scribbled into slot
            # 2 % 2 == 0, commit word never written.
            buf = attached._exp_shm.buf
            header = np.ndarray((EXP_HEADER_WORDS,), dtype=np.int64, buffer=buf)
            header[1] = 2
            torn_slot = np.ndarray(
                (instance.n_right,), dtype=np.int64, buffer=buf,
                offset=8 * EXP_HEADER_WORDS,
            )
            torn_slot[: instance.n_right // 2] = -999

            info = attached.commit_info()
            assert info["torn"] is True and info["committed"] == 1
            # Both the attaching reader and the owner still see the
            # previous committed vector, bit-exact.
            assert np.array_equal(attached.load_exponents(), committed)
            version, owner_view = handle.exponents()
            assert version == 1
            assert np.array_equal(owner_view, committed)

            # A subsequent successful store supersedes the tear: the
            # writer restarts the commit at the next sequence.
            attached.store_exponents(committed + 5)
            assert attached.commit_info()["torn"] is False
            assert np.array_equal(attached.load_exponents(), committed + 5)
        finally:
            attached.close()
            handle.unlink()

    def test_unlink_is_idempotent_and_frees_segments(self, instance):
        before = set(_leaked_segments())
        handle = SharedInstance.publish(instance)
        assert len(_leaked_segments()) == len(before) + 2
        handle.unlink()
        handle.unlink()
        assert set(_leaked_segments()) == before


# ----------------------------------------------------------------------
# Process-boundary pickling (the silent prerequisite)
# ----------------------------------------------------------------------
class TestPickling:
    def test_solver_config_round_trip(self):
        config = SolverConfig(
            epsilon=0.15, seed=9, executor="process", shard_workers=2,
            boost=False, lam=4,
        )
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert clone.to_json() == config.to_json()

    def test_allocation_report_pickles_as_detached(self, instance):
        live = Engine(seed=3).solve(instance)
        assert not live.detached
        clone = pickle.loads(pickle.dumps(live))
        assert clone.detached
        assert clone.to_dict() == live.to_dict()
        assert clone.size == live.size
        assert clone.certified == live.certified
        assert clone.local_rounds == live.local_rounds
        assert np.array_equal(clone.edge_mask, live.edge_mask)

    def test_detached_report_pickles_too(self, instance):
        detached = AllocationReport.from_json(Engine(seed=3).solve(instance).to_json())
        clone = pickle.loads(pickle.dumps(detached))
        assert clone.to_dict() == detached.to_dict()

    def test_solve_request_round_trip(self):
        request = SolveRequest(
            epsilon=0.2, capacity_updates={1: 3}, seed=7, tag="t"
        )
        clone = pickle.loads(pickle.dumps(request))
        assert clone == request

    def test_solve_request_with_generator_seed_pickles(self):
        request = SolveRequest(seed=np.random.default_rng(3))
        clone = pickle.loads(pickle.dumps(request))
        # same stream state: identical draws
        assert clone.seed.integers(1 << 30) == np.random.default_rng(3).integers(1 << 30)


# ----------------------------------------------------------------------
# Cross-executor determinism (the contract the curve rides on)
# ----------------------------------------------------------------------
class TestCrossExecutorDeterminism:
    def test_thread_vs_1_vs_4_workers_bit_identical(self, instance):
        requests = _requests(6)
        session = AllocationSession(instance)
        thread_results = solve_stream(session, requests, seed=42)
        reference = _dicts(
            AllocationReport.from_pipeline(r) for r in thread_results
        )
        for workers in (1, 4):
            with ShardedExecutor(workers) as executor:
                reports = executor.run_batch(instance, requests, seed=42)
            assert _dicts(reports) == reference, f"{workers}-worker mismatch"
        # certificates and round counts are inside to_dict, but assert
        # the headline fields explicitly — they are the acceptance bar.
        with ShardedExecutor(2) as executor:
            reports = executor.run_batch(instance, requests, seed=42)
        for report, result in zip(reports, thread_results):
            assert report.certified
            assert report.local_rounds == result.mpc.local_rounds
            assert np.array_equal(report.edge_mask, result.edge_mask)

    def test_unprimed_batch_matches_solve_batch(self, instance):
        requests = _requests(5)
        session = AllocationSession(instance)
        reference = _dicts(
            AllocationReport.from_pipeline(r)
            for r in solve_batch(session, requests, seed=11)
        )
        with ShardedExecutor(2) as executor:
            reports = executor.run_batch(instance, requests, seed=11, prime=False)
        assert _dicts(reports) == reference

    def test_multi_instance_routing_matches_thread_groups(
        self, instance, other_instance
    ):
        """Interleaved tenants: each instance's sub-stream must follow
        the same solve_stream semantics the thread path applies to an
        aligned session sequence."""
        instances = [instance, other_instance, instance, other_instance, instance]
        requests = _requests(5)
        session_a = AllocationSession(instance)
        session_b = AllocationSession(other_instance)
        aligned = [
            session_a if inst is instance else session_b for inst in instances
        ]
        reference = _dicts(
            AllocationReport.from_pipeline(r)
            for r in solve_batch(aligned, requests, seed=13)
        )
        with ShardedExecutor(2) as executor:
            reports = executor.run_batch(
                instances, requests, seed=13, prime=False
            )
            stats = executor.stats()
        assert _dicts(reports) == reference
        assert stats["published_instances"] == 2
        # same instance → same shard: every solve of one content hash
        # is owned by exactly one worker
        owners = {
            content: worker
            for worker, shard in stats["shards"].items()
            if shard is not None
            for content in shard["sessions"]
        }
        assert len(owners) == 2

    def test_engine_batch_executor_parity(self, instance):
        requests = _requests(4)
        with Engine(seed=21) as engine:
            thread_reports = engine.batch(instance, requests)
            process_reports = engine.batch(
                instance, requests, executor="process", workers=2
            )
        assert _dicts(process_reports) == _dicts(thread_reports)

    def test_explicit_request_seeds_win(self, instance):
        requests = [SolveRequest(seed=123), SolveRequest(seed=123)]
        with ShardedExecutor(1) as executor:
            reports = executor.run_batch(instance, requests, seed=0, prime=False)
        assert reports[0].to_dict() == reports[1].to_dict()


# ----------------------------------------------------------------------
# Fleet lifecycle: warmth, crashes, cleanup
# ----------------------------------------------------------------------
class TestFleetLifecycle:
    def test_warm_state_across_batches(self, instance):
        requests = _requests(3)
        with ShardedExecutor(1) as executor:
            assert executor.warm_exponents(instance) is None
            first = executor.run_batch(instance, requests, seed=1)
            assert executor.warm_exponents(instance) is not None
            second = executor.run_batch(instance, requests, seed=1)
        assert first[0].meta["warm_start"] is False
        # second batch: the resident session is warm, so even the
        # primed first request warm-starts — exactly like a thread
        # session serving stream after stream
        assert all(r.meta["warm_start"] for r in second)
        session = AllocationSession(instance)
        solve_stream(session, requests, seed=1)
        reference = _dicts(
            AllocationReport.from_pipeline(r)
            for r in solve_stream(session, requests, seed=1)
        )
        assert _dicts(second) == reference

    def test_crash_respawn_recovers_warm_state(self, instance):
        requests = _requests(3)
        with ShardedExecutor(1) as executor:
            executor.run_batch(instance, requests, seed=1)
            # kill the only worker between batches
            executor._procs[0].terminate()
            executor._procs[0].join(timeout=5.0)
            reports = executor.run_batch(instance, requests, seed=1)
            assert executor.restarts == 1
        # the respawned worker primed from the shm exponent segment:
        # same answers as an uninterrupted fleet's second batch
        with ShardedExecutor(1) as executor:
            executor.run_batch(instance, requests, seed=1)
            uninterrupted = executor.run_batch(instance, requests, seed=1)
        assert _dicts(reports) == _dicts(uninterrupted)
        assert all(r.meta["warm_start"] for r in reports)

    def test_worker_death_mid_batch_raises(self, instance):
        with ShardedExecutor(1) as executor:
            executor.run_batch(instance, _requests(1), seed=0)
            executor._procs[0].terminate()
            executor._procs[0].join(timeout=5.0)
            # Freeze the pre-dispatch respawn so the death happens
            # "mid-batch": collection must detect the dead shard with
            # positions in flight instead of hanging.
            real_ensure = executor._ensure_workers
            executor._ensure_workers = lambda: None
            try:
                with pytest.raises(RuntimeError, match="died"):
                    executor.run_batch(instance, _requests(2), seed=0, timeout=60)
            finally:
                executor._ensure_workers = real_ensure
            # the next batch respawns the shard and serves normally
            reports = executor.run_batch(instance, _requests(2), seed=0)
            assert all(r.certified for r in reports)

    def test_worker_exception_propagates(self, instance):
        bad = SolveRequest(capacity_updates={instance.n_right + 99: 1})
        with ShardedExecutor(1) as executor:
            with pytest.raises(RuntimeError, match="failed on positions"):
                executor.run_batch(instance, [bad], seed=0, timeout=60)
            # the fleet survives a request-level failure
            ok = executor.run_batch(instance, _requests(1), seed=0)
        assert ok[0].certified

    def test_close_unlinks_segments_and_stops_workers(self, instance):
        before = set(_leaked_segments())
        executor = ShardedExecutor(2)
        executor.run_batch(instance, _requests(2), seed=0)
        procs = [p for p in executor._procs if p is not None]
        assert len(_leaked_segments()) > len(before)
        executor.close()
        executor.close()  # idempotent
        assert set(_leaked_segments()) == before
        deadline = time.monotonic() + 10
        while any(p.is_alive() for p in procs) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(p.is_alive() for p in procs)
        with pytest.raises(RuntimeError, match="closed"):
            executor.run_batch(instance, _requests(1), seed=0)

    def test_engine_close_shuts_fleet_down(self, instance):
        before = set(_leaked_segments())
        with Engine(seed=2) as engine:
            engine.batch(instance, _requests(2), executor="process", workers=2)
            fleet = engine._fleet
            assert fleet is not None
        assert engine._fleet is None
        assert set(_leaked_segments()) == before
        assert fleet._closed
        # Outside ``with`` the fleet lives for one call only.
        engine.batch(instance, _requests(1), executor="process", workers=1)
        assert engine._fleet is None
        assert set(_leaked_segments()) == before

    def test_process_executor_rejects_sessions(self, instance):
        engine = Engine()
        with pytest.raises(TypeError, match="instances, not sessions"):
            engine.batch(
                AllocationSession(instance), _requests(1), executor="process"
            )

    def test_misaligned_instances_rejected(self, instance):
        with ShardedExecutor(1) as executor:
            with pytest.raises(ValueError, match="instances for"):
                executor.run_batch([instance, instance], _requests(3), seed=0)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="executor"):
            SolverConfig(executor="fork-bomb")
        with pytest.raises(ValueError, match="shard_workers"):
            SolverConfig(shard_workers=0)
        with pytest.raises(ValueError):
            ShardedExecutor(0)


# ----------------------------------------------------------------------
# Sharded dynamic replay
# ----------------------------------------------------------------------
class TestShardedReplay:
    def test_replay_matches_engine_stream(self, instance):
        from repro.dynamic import SCENARIOS

        deltas = SCENARIOS["diurnal_wave"](instance, 4, seed=5)
        with Engine(seed=5) as engine:
            stream = engine.stream(instance, deltas)
            with ShardedExecutor(2) as executor:
                remote = executor.run_replay(instance, deltas, seed=5)
        assert remote.prime is not None and stream.prime is not None
        assert remote.prime.to_dict() == stream.prime.to_dict()
        assert list(remote.rows) == stream.rows()
        assert _dicts(remote.reports) == _dicts(stream.reports)
        assert remote.stats == stream.session.stats.as_dict()
