"""Multi-process sharded serving (DESIGN.md §12).

``solve_batch`` serves in one process, which caps the whole serving
layer at one core regardless of how fast the native kernel made each
round.  :class:`ShardedExecutor` is the process-pool answer: it
forks N shard workers, each owning a resident fleet of
:class:`~repro.serve.AllocationSession` /
:class:`~repro.dynamic.DynamicSession` objects, and routes every
request by the stable content hash of its instance
(:func:`~repro.serve.shm.instance_hash`), so the same instance always
lands on the same shard and finds its warm session.

Communication follows the one-sided shared-memory discipline of the
2.5D SpGEMM line of work (PAPERS.md): instance state — CSR arrays,
capacities, derived kernel-layout invariants, and the retained
converged β exponent vector — lives in named
``multiprocessing.shared_memory`` segments
(:mod:`repro.serve.shm`); workers *attach by name* instead of
receiving pickled arrays, and only small control messages (request
overrides, seeds, positions) travel over the queues.  Results come
back as versioned :class:`~repro.api.AllocationReport` JSON and are
returned to the caller as detached reports.

Determinism (the cross-executor contract, asserted in
``tests/test_sharding.py``): request ``i`` with no explicit seed
receives ``spawn(seed, n)[i]`` — assigned by the dispatcher *before*
routing — and each shard processes its instances' sub-streams in
position order with exactly ``solve_batch``'s snapshot/commit rule
(:mod:`repro.serve.batch`).  A batch is therefore a pure function of
``(instances, request list, seed)``: bit-identical across worker
counts 1/2/4 and bit-identical to the in-process executor on the
same stream.

Crash semantics: a worker death is detected during result collection
(the batch raises ``RuntimeError`` naming the lost shard); the next
batch respawns the worker, which re-attaches its instances and
re-primes warm state from the shared exponent segments — warmth
survives the crash.  :meth:`ShardedExecutor.close` (also run via a
``weakref.finalize`` guard on interpreter exit) terminates workers and
unlinks every published segment, dead workers or not.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import queue as queue_mod
import time
import traceback
import weakref
from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional, Sequence, Union

from repro.graphs.instances import AllocationInstance
from repro.serve.session import SolveRequest
from repro.serve.shm import SharedInstance, attach_instance, instance_hash
from repro.utils.rng import spawn
from repro.utils.validation import check_positive_int

__all__ = ["ShardedExecutor", "ShardReplayResult"]

InstancesLike = Union[AllocationInstance, Sequence[AllocationInstance]]

_POLL_SECONDS = 0.2


@dataclass(frozen=True)
class ShardReplayResult:
    """Outcome of a sharded delta-stream replay: the priming report,
    one audit row + detached report per step, and the remote
    :class:`~repro.dynamic.DynamicSession` stats."""

    prime: Optional[AllocationReport]
    rows: tuple[dict, ...]
    reports: tuple[AllocationReport, ...]
    stats: dict


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _shard_worker(index: int, task_queue, result_queue, config: SolverConfig) -> None:
    """One shard: attach instances, serve sub-streams, report JSON.

    Runs until a ``("shutdown",)`` message.  Module-level so every
    start method (fork/spawn/forkserver) can import it.
    """
    from repro.api.report import AllocationReport
    from repro.serve.session import AllocationSession

    attached: dict[str, Any] = {}
    sessions: dict[str, AllocationSession] = {}
    counters = {"batches": 0, "replays": 0, "solves": 0}

    def _attachment(content_hash: str, descriptor):
        att = attached.get(content_hash)
        if att is None:
            if descriptor is None:  # pragma: no cover - dispatcher always resends
                raise RuntimeError(
                    f"shard {index} has no attachment for {content_hash[:12]}"
                )
            att = attach_instance(descriptor)
            attached[content_hash] = att
        return att

    def _session(content_hash: str, descriptor) -> AllocationSession:
        session = sessions.get(content_hash)
        if session is None:
            att = _attachment(content_hash, descriptor)
            session = AllocationSession(att.instance, **config.session_kwargs())
            warm = att.load_exponents()
            if warm is not None:
                # Crash recovery / executor-level warmth: prime from the
                # shared segment so the first solve warm-starts.
                session.prime_exponents(warm)
            sessions[content_hash] = session
        return session

    def _handle_batch(seq, content_hash, descriptor, items, prime) -> None:
        counters["batches"] += 1
        positions = [p for p, _ in items]
        try:
            session = _session(content_hash, descriptor)
            results: dict[int, Any] = {}
            latencies: dict[int, float] = {}
            rest = items
            if prime and items:
                # Mirror solve_stream: first request serially through
                # solve() (committing its exponents), remainder batched
                # from the post-commit snapshot.
                pos0, req0 = items[0]
                t0 = time.perf_counter()
                results[pos0] = session.solve(req0)
                latencies[pos0] = time.perf_counter() - t0
                rest = items[1:]
            if rest:
                # The solve_batch snapshot/commit rule, serialized: all
                # requests from one snapshot, highest position commits.
                snapshot = session.exponents_snapshot()
                for pos, req in rest:
                    initial = snapshot if req.warm else None
                    t0 = time.perf_counter()
                    results[pos] = session.solve_detached(
                        req, initial_exponents=initial
                    )
                    latencies[pos] = time.perf_counter() - t0
                session.commit(results[rest[-1][0]])
            counters["solves"] += len(items)
            exponents = session.exponents_snapshot()
            if exponents is not None:
                attached[content_hash].store_exponents(exponents)
            for pos in positions:
                # Transport as unsorted JSON: insertion order survives
                # the hop, so a detached report prints summary rows
                # key-for-key identical to a live one.
                report = AllocationReport.from_pipeline(results[pos])
                result_queue.put(
                    ("ok", seq, index, pos, json.dumps(report.payload),
                     latencies[pos])
                )
        except Exception:
            result_queue.put(
                ("batch_err", seq, index, positions, traceback.format_exc())
            )

    def _handle_replay(token, content_hash, descriptor, deltas, requests,
                       seed, prime) -> None:
        counters["replays"] += 1
        try:
            from repro.dynamic.session import DynamicSession
            from repro.serve.replay import replay_stream

            att = _attachment(content_hash, descriptor)
            dynamic = DynamicSession(att.instance, **config.session_kwargs())
            prime_json = None
            if prime:
                prime_json = json.dumps(AllocationReport.from_pipeline(
                    dynamic.resolve(seed=seed)
                ).payload)
            steps = replay_stream(dynamic, deltas, seed=seed, requests=requests)
            counters["solves"] += len(steps) + int(prime)
            payload = {
                "prime": prime_json,
                "rows": [step.as_row() for step in steps],
                "reports": [
                    json.dumps(AllocationReport.from_pipeline(step.result).payload)
                    for step in steps
                ],
                "stats": dynamic.stats.as_dict(),
            }
            result_queue.put(("replay_ok", index, token, payload))
        except Exception:
            result_queue.put(("replay_err", index, token, traceback.format_exc()))

    try:
        while True:
            msg = task_queue.get()
            kind = msg[0]
            if kind == "shutdown":
                break
            if kind == "batch":
                _handle_batch(*msg[1:])
            elif kind == "replay":
                _handle_replay(*msg[1:])
            elif kind == "stats":
                result_queue.put(
                    ("stats", index, {
                        "worker": dict(counters),
                        "sessions": {
                            h: s.stats.as_dict() for h, s in sessions.items()
                        },
                    })
                )
    finally:
        for att in attached.values():
            att.close()


# ----------------------------------------------------------------------
# Dispatcher side
# ----------------------------------------------------------------------
def _terminate_and_unlink(procs: list, shared: dict) -> None:
    """Finalizer body: kill workers, free segments.  Holds only the
    mutable containers, never the executor, so GC can collect it."""
    for proc in procs:
        if proc is not None and proc.is_alive():
            proc.terminate()
    for proc in procs:
        if proc is not None:
            proc.join(timeout=2.0)
    for handle in shared.values():
        handle.unlink()
    shared.clear()


class ShardedExecutor:
    """A resident fleet of shard worker processes (DESIGN.md §12).

    Parameters
    ----------
    workers:
        Number of shard processes.  Each owns the sessions of the
        instances hashing to it.
    config:
        The :class:`~repro.api.SolverConfig` every worker builds its
        sessions from (defaults: ``SolverConfig()``).
    start_method:
        ``multiprocessing`` start method; default prefers ``fork``
        (cheap, Linux) and falls back to ``spawn``.

    Use as a context manager, or pair with :meth:`close` — closing
    shuts the workers down and unlinks every shared-memory segment the
    executor published (a ``weakref.finalize`` guard does the same on
    interpreter exit if the caller forgot).
    """

    def __init__(
        self,
        workers: int,
        *,
        config: Optional[SolverConfig] = None,
        start_method: Optional[str] = None,
    ):
        # repro.api is imported lazily everywhere in this module: the
        # serve and api packages import each other (engine -> serve
        # sessions, sharding -> api config/report), and either one may
        # be mid-initialization when this module loads.
        from repro.api.config import SolverConfig

        self.workers = check_positive_int(workers, "workers")
        self.config = config if config is not None else SolverConfig()
        if not isinstance(self.config, SolverConfig):
            raise TypeError(
                f"config must be a SolverConfig, got {type(self.config).__name__}"
            )
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self._ctx = mp.get_context(start_method)
        self._procs: list = [None] * self.workers
        self._task_queues: list = [None] * self.workers
        self._result_queue = None
        self._shared: dict[str, SharedInstance] = {}
        self._sent: list[set[str]] = [set() for _ in range(self.workers)]
        self._batch_seq = 0
        self._replay_token = 0
        self.restarts = 0
        self.last_latencies: list[Optional[float]] = []
        self._started = False
        self._closed = False
        self._finalizer = None

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "ShardedExecutor":
        """Spawn the fleet (idempotent; batches call this lazily)."""
        if self._closed:
            raise RuntimeError("executor is closed")
        if not self._started:
            self._result_queue = self._ctx.Queue()
            for i in range(self.workers):
                self._spawn_worker(i)
            self._started = True
            self._finalizer = weakref.finalize(
                self, _terminate_and_unlink, self._procs, self._shared
            )
        return self

    def _spawn_worker(self, index: int) -> None:
        task_queue = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_shard_worker,
            args=(index, task_queue, self._result_queue, self.config),
            daemon=True,
            name=f"repro-shard-{index}",
        )
        proc.start()
        self._task_queues[index] = task_queue
        self._procs[index] = proc
        # A fresh worker has no attachments: resend descriptors.
        self._sent[index] = set()

    def _ensure_workers(self) -> None:
        self.start()
        dead = False
        for proc in self._procs:
            if proc is None:
                dead = True
            elif not proc.is_alive():
                proc.join(timeout=1.0)
                self.restarts += 1
                dead = True
        if dead:
            self._rebuild_fleet()

    def _rebuild_fleet(self) -> None:
        """Respawn the whole fleet on a fresh result queue.

        Per-worker respawn into the surviving result queue is not
        safe: a worker killed abruptly can die between ``send_bytes``
        and releasing the queue's shared write lock (its feeder thread
        acquires the lock around every send, and on a busy host the
        dispatcher can consume the result and issue the kill before
        the feeder is rescheduled to release).  The lock then stays
        held forever and every other writer's feeder blocks in
        ``wacquire`` — so one abrupt death poisons the queue for the
        fleet.  Discarding the queues and respawning everyone is the
        only clean recovery; warmth is not lost because converged
        exponents live in the shared-memory exponent segments, which
        the fresh workers re-attach and prime from.
        """
        for proc in self._procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            if proc is not None:
                proc.join(timeout=2.0)
        for q in [*self._task_queues, self._result_queue]:
            if q is not None:
                q.close()
                q.cancel_join_thread()
        self._result_queue = self._ctx.Queue()
        for i in range(self.workers):
            self._spawn_worker(i)

    def close(self) -> None:
        """Shut the fleet down and unlink every published segment —
        effective even when workers already crashed.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._started:
            for i, proc in enumerate(self._procs):
                if proc is not None and proc.is_alive():
                    try:
                        self._task_queues[i].put(("shutdown",))
                    except (ValueError, OSError):  # pragma: no cover
                        pass
            for proc in self._procs:
                if proc is not None:
                    proc.join(timeout=5.0)
            if self._finalizer is not None:
                self._finalizer()  # terminates stragglers, unlinks shm
            for q in [*self._task_queues, self._result_queue]:
                if q is not None:
                    q.close()
                    q.cancel_join_thread()

    def __enter__(self) -> "ShardedExecutor":
        return self.start()

    def __exit__(self, *exc_info: Any) -> bool:
        self.close()
        return False

    # -- routing ---------------------------------------------------------
    def shard_of(self, instance: AllocationInstance) -> int:
        """The worker index ``instance`` routes to (stable content
        hash modulo worker count)."""
        return int(instance_hash(instance), 16) % self.workers

    def publish(self, instance: AllocationInstance) -> str:
        """Place ``instance`` in shared memory (idempotent per
        content); returns its content hash."""
        content = instance_hash(instance)
        if content not in self._shared:
            self._shared[content] = SharedInstance.publish(instance)
        return content

    def warm_exponents(self, instance: AllocationInstance):
        """Dispatcher-side peek at an instance's retained β vector in
        shared memory (``None`` before its shard first commits)."""
        content = instance_hash(instance)
        handle = self._shared.get(content)
        if handle is None:
            return None
        _, exponents = handle.exponents()
        return exponents

    def _descriptor_for(self, shard: int, content: str):
        """The descriptor to ship with a task — only on the shard's
        first sight of the instance (or after a respawn)."""
        if content in self._sent[shard]:
            return None
        self._sent[shard].add(content)
        return self._shared[content].descriptor

    # -- batch execution -------------------------------------------------
    def run_batch(
        self,
        instances: InstancesLike,
        requests: Sequence[Union[SolveRequest, Mapping[str, Any]]],
        *,
        seed=None,
        prime: bool = True,
        timeout: Optional[float] = None,
    ) -> list[AllocationReport]:
        """Serve a request batch across the shard fleet.

        ``instances`` is one instance (every request targets it) or a
        sequence aligned with ``requests`` (multi-tenant; the same
        instance may appear many times).  Per instance, the sub-stream
        follows :func:`~repro.serve.batch.solve_stream` semantics when
        ``prime=True`` (first request serially, remainder from the
        post-commit snapshot) and :func:`~repro.serve.batch.solve_batch`
        semantics when ``prime=False``.  Returns detached
        :class:`~repro.api.AllocationReport` objects in request order;
        ``self.last_latencies`` holds the worker-measured per-request
        solve seconds of the batch.
        """
        reqs = [
            r if isinstance(r, SolveRequest) else SolveRequest.from_json(r)
            for r in requests
        ]
        n = len(reqs)
        if n == 0:
            self.last_latencies = []
            return []
        if isinstance(instances, AllocationInstance):
            per_request = [instances] * n
        else:
            per_request = list(instances)
            if len(per_request) != n:
                raise ValueError(
                    f"got {len(per_request)} instances for {n} requests; pass "
                    "one instance (shared) or exactly one per request"
                )
        streams = spawn(seed, n)
        seeded = [
            req if req.seed is not None else replace(req, seed=streams[i])
            for i, req in enumerate(reqs)
        ]

        # Group by content hash, preserving position order per group.
        groups: dict[str, list[tuple[int, SolveRequest]]] = {}
        for i, inst in enumerate(per_request):
            content = self.publish(inst)
            groups.setdefault(content, []).append((i, seeded[i]))

        self._ensure_workers()
        self._batch_seq += 1
        seq = self._batch_seq
        outstanding: dict[int, set[int]] = {i: set() for i in range(self.workers)}
        for content, items in groups.items():
            shard = int(content, 16) % self.workers
            descriptor = self._descriptor_for(shard, content)
            self._task_queues[shard].put(
                ("batch", seq, content, descriptor, items, prime)
            )
            outstanding[shard].update(pos for pos, _ in items)

        payloads: dict[int, str] = {}
        latencies: list[Optional[float]] = [None] * n
        deadline = None if timeout is None else time.monotonic() + timeout
        while len(payloads) < n:
            try:
                msg = self._result_queue.get(timeout=_POLL_SECONDS)
            except queue_mod.Empty:
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(
                        f"sharded batch timed out with {n - len(payloads)} "
                        "results outstanding"
                    )
                self._check_liveness(outstanding)
                continue
            kind = msg[0]
            if kind == "ok" and msg[1] == seq:
                _, _, worker, pos, report_json, elapsed = msg
                payloads[pos] = report_json
                latencies[pos] = elapsed
                outstanding[worker].discard(pos)
            elif kind == "batch_err" and msg[1] == seq:
                _, _, worker, positions, tb = msg
                raise RuntimeError(
                    f"shard worker {worker} failed on positions {positions}:\n{tb}"
                )
            # Anything else is a stale response: a batch that raised
            # (worker death, batch_err) can leave other shards'
            # messages queued, and their positions would collide with
            # this batch's.  The sequence tag keeps them apart.
        from repro.api.report import AllocationReport

        self.last_latencies = latencies
        return [AllocationReport.from_json(payloads[i]) for i in range(n)]

    def _check_liveness(self, outstanding: dict[int, set[int]]) -> None:
        for i, proc in enumerate(self._procs):
            if proc is not None and not proc.is_alive() and outstanding[i]:
                lost = sorted(outstanding[i])
                # Mark dead so the next batch respawns (warm state
                # survives in the shared exponent segments).
                proc.join(timeout=1.0)
                self._procs[i] = None
                self.restarts += 1
                raise RuntimeError(
                    f"shard worker {i} died (exitcode {proc.exitcode}) with "
                    f"positions {lost} in flight; resubmit the batch — the "
                    "executor respawns the shard and recovers warm state "
                    "from shared memory"
                )

    # -- dynamic replay ----------------------------------------------------
    def run_replay(
        self,
        instance: AllocationInstance,
        deltas: Sequence[Any],
        *,
        seed=None,
        requests: Optional[Sequence[Optional[SolveRequest]]] = None,
        prime: bool = True,
        timeout: Optional[float] = None,
    ) -> ShardReplayResult:
        """Replay a delta stream on the instance's shard (one worker —
        a delta chain is sequential by nature; the fleet's parallelism
        is across *streams*).  Mirrors ``Engine.stream`` semantics:
        bit-identical rows and reports to the in-process replay for the
        same ``(instance, deltas, seed)``."""
        deltas = list(deltas)
        content = self.publish(instance)
        self._ensure_workers()
        shard = int(content, 16) % self.workers
        self._replay_token += 1
        token = self._replay_token
        descriptor = self._descriptor_for(shard, content)
        self._task_queues[shard].put(
            ("replay", token, content, descriptor, deltas,
             None if requests is None else list(requests), seed, prime)
        )
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                msg = self._result_queue.get(timeout=_POLL_SECONDS)
            except queue_mod.Empty:
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError("sharded replay timed out")
                self._check_liveness({shard: {-1}, **{
                    i: set() for i in range(self.workers) if i != shard
                }})
                continue
            kind = msg[0]
            if kind == "replay_ok" and msg[2] == token:
                from repro.api.report import AllocationReport

                payload = msg[3]
                return ShardReplayResult(
                    prime=None if payload["prime"] is None
                    else AllocationReport.from_json(payload["prime"]),
                    rows=tuple(payload["rows"]),
                    reports=tuple(
                        AllocationReport.from_json(r) for r in payload["reports"]
                    ),
                    stats=dict(payload["stats"]),
                )
            if kind == "replay_err" and msg[2] == token:
                raise RuntimeError(
                    f"shard worker {msg[1]} failed replaying the stream:\n{msg[3]}"
                )

    # -- introspection -----------------------------------------------------
    def stats(self, *, timeout: float = 10.0) -> dict[str, Any]:
        """Aggregated fleet statistics: per-worker counters and
        per-instance session stats, plus dispatcher-side restart and
        publication counts."""
        self._ensure_workers()
        for q in self._task_queues:
            q.put(("stats",))
        collected: dict[int, dict] = {}
        deadline = time.monotonic() + timeout
        while len(collected) < self.workers and time.monotonic() < deadline:
            try:
                msg = self._result_queue.get(timeout=_POLL_SECONDS)
            except queue_mod.Empty:
                continue
            if msg[0] == "stats":
                collected[msg[1]] = msg[2]
        return {
            "workers": self.workers,
            "restarts": self.restarts,
            "published_instances": len(self._shared),
            "shards": {str(i): collected.get(i) for i in range(self.workers)},
        }
