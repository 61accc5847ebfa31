"""Batch execution over resident sessions (DESIGN.md §8).

``solve_batch`` runs a list of :class:`~repro.serve.SolveRequest`
objects across one or more :class:`~repro.serve.AllocationSession`
instances, in request order.

Batch determinism rule (the ``solve_allocation_many`` contract,
extended):

* Seeds are spawned per batch *position*: request ``i`` with
  ``seed=None`` receives ``spawn(seed, n)[i]``; an explicit per-request
  seed wins.
* Warm starts are taken from a *snapshot* of each session's exponents
  at batch entry, so every request in the batch warm-starts from the
  same state.
* Each session's warm state is committed once, after the batch, from
  the highest-position request that targeted it.

Consequently ``solve_batch(sessions, requests, seed=s)`` is
bit-identical to the serial loop over ``solve_detached`` with the same
spawned seeds, and to the multi-process shard fleet
(:class:`~repro.serve.ShardedExecutor`), which obeys the same rule.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence, Union

from repro.core.pipeline import PipelineResult
from repro.serve.session import AllocationSession, SolveRequest
from repro.utils.rng import spawn

__all__ = ["solve_batch", "solve_stream"]

SessionsLike = Union[AllocationSession, Sequence[AllocationSession]]


def _resolve_sessions(
    sessions: SessionsLike, n_requests: int
) -> list[AllocationSession]:
    if isinstance(sessions, AllocationSession):
        return [sessions] * n_requests
    sessions = list(sessions)
    if len(sessions) != n_requests:
        raise ValueError(
            f"got {len(sessions)} sessions for {n_requests} requests; pass one "
            "session (shared) or exactly one per request"
        )
    return sessions


def solve_batch(
    sessions: SessionsLike,
    requests: Sequence[SolveRequest],
    *,
    seed=None,
    commit: bool = True,
) -> list[PipelineResult]:
    """Solve ``requests`` across sessions.

    ``sessions`` is either one session shared by every request (the
    one-resident-graph serving shape) or a sequence aligned with
    ``requests`` (multi-tenant: each request names its session; the
    same session object may appear many times).  Results are returned
    in request order.  See the module docstring for the determinism
    rule; ``commit=False`` leaves every session's warm state untouched
    (a read-only batch).
    """
    requests = list(requests)
    if not requests:
        return []
    per_request = _resolve_sessions(sessions, len(requests))
    streams = spawn(seed, len(requests))

    # Snapshot warm bases once, per distinct session, at batch entry.
    snapshots: dict[int, object] = {}
    for session in per_request:
        key = id(session)
        if key not in snapshots:
            snapshots[key] = session.exponents_snapshot()

    results = []
    for session, request, stream in zip(per_request, requests, streams):
        if request.seed is None:
            request = replace(request, seed=stream)
        initial = snapshots[id(session)] if request.warm else None
        results.append(session.solve_detached(request, initial_exponents=initial))

    if commit:
        # Highest-position request per session commits its exponents.
        last = {id(s): (s, r) for s, r in zip(per_request, results)}
        for session, result in last.values():
            session.commit(result)
    return results


def solve_stream(
    session: AllocationSession,
    requests: Sequence[SolveRequest],
    *,
    seed=None,
) -> list[PipelineResult]:
    """Serve a request stream on one session: prime, then batch warm.

    The common CLI/benchmark shape for a *fresh* session: the stream's
    first request runs serially through :meth:`AllocationSession.solve`
    (establishing the warm state a fresh session lacks — a plain
    :func:`solve_batch` would snapshot ``None`` and run everything
    cold), and the remainder runs through :func:`solve_batch`
    warm-started from it.  Seeds follow the batch determinism rule
    over the *whole* stream: request ``i`` with no explicit seed
    receives ``spawn(seed, n)[i]``.
    """
    requests = list(requests)
    if not requests:
        return []
    streams = spawn(seed, len(requests))
    first = requests[0]
    if first.seed is None:
        first = replace(first, seed=streams[0])
    results = [session.solve(first)]
    rest = [
        req if req.seed is not None else replace(req, seed=stream)
        for req, stream in zip(requests[1:], streams[1:])
    ]
    results.extend(solve_batch(session, rest))
    return results
