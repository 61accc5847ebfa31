"""Standard MPC primitives, with explicit round costs.

The paper's §5 leans on "standard primitives such as graph
exponentiation and sorting, which are by now standard in the MPC
literature".  This module implements them on the accounted cluster:

* :func:`route_by_key` — hash-partition records; **1 round**.
* :func:`tree_broadcast` — send a small payload to every machine along
  a fan-out-``f`` tree; **⌈log_f M⌉ rounds** (``f`` derived from the
  word budget).
* :func:`tree_reduce` / :func:`tree_reduce_vector` — aggregate
  per-machine values to machine 0 up the same tree; **⌈log_f M⌉
  rounds**.
* :func:`sample_sort` — TeraSort-style splitter sort; **3 rounds +
  one broadcast**.

Every primitive runs through the cluster's accounted exchange, so
space and traffic budgets are enforced and round counts accumulate in
the cluster's ledger — the numbers E5 compares against the theory.

Each primitive dispatches on the substrate (DESIGN.md §7): object
clusters take the per-record path below; :class:`ColumnarCluster`
instances take the vectorized column-batch path.  Both walk the same
tree schedules and charge identical word counts, so the ledgers are
bit-identical (asserted in ``tests/test_columnar_substrate.py``).
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Any, Callable, Optional, Union

import numpy as np

from repro.mpc.cluster import MPCCluster
from repro.mpc.columnar import ColumnarCluster, Shipment
from repro.mpc.columns import ColumnBatch
from repro.mpc.machine import SpaceViolation, sizeof_words

__all__ = [
    "fan_out",
    "tree_depth",
    "route_by_key",
    "tree_broadcast",
    "tree_reduce",
    "tree_reduce_vector",
    "sample_sort",
]


def fan_out(cluster, payload_words: int) -> int:
    """Largest tree fan-out the word budget allows: a machine relaying
    a ``payload_words`` message to ``f`` children sends ``f·payload``
    words, which must fit in ``S``.

    A payload that exceeds ``S`` outright cannot be shipped to even
    one child, so no fan-out is valid — that is a budget violation:
    on a strict cluster it raises :class:`SpaceViolation` (it used to
    be silently clamped to fan-out 2, deferring the failure to an
    opaque traffic check deep inside the tree walk); on a
    ``strict=False`` cluster it is recorded in ``cluster.violations``
    and the historical clamp applies, matching every other budget
    check.  The remaining clamp is documented: when ``S // payload ==
    1`` the returned minimum fan-out of 2 keeps the tree logarithmic,
    and the per-round traffic check still polices the actual sends of
    any parent with two children.
    """
    if payload_words < 1:
        raise ValueError("payload_words must be >= 1")
    if payload_words > cluster.words_per_machine:
        problem = (
            f"payload of {payload_words} words exceeds the per-machine budget "
            f"S={cluster.words_per_machine}: no tree fan-out can ship it"
        )
        if cluster.strict:
            raise SpaceViolation(problem)
        cluster.violations.append(problem)
    return max(2, cluster.words_per_machine // payload_words)


def tree_depth(n_machines: int, f: int) -> int:
    """Rounds for a fan-out-``f`` tree over ``n_machines`` machines."""
    if n_machines <= 1:
        return 1
    return max(1, math.ceil(math.log(n_machines) / math.log(f)))


# ----------------------------------------------------------------------
# route_by_key
# ----------------------------------------------------------------------
def route_by_key(
    cluster,
    key_fn: Union[Callable[[Any], int], str, None] = None,
    *,
    label: str = "route_by_key",
    return_histogram: bool = False,
) -> np.ndarray | None:
    """Move every record to machine ``key mod M`` (1 round).

    After this round all records sharing a key are co-located, which is
    the precondition for any per-key local computation (the MPC
    group-by).  With ``return_histogram=True`` the per-destination
    record histogram is additionally computed (one ``np.bincount``)
    so callers can track routing skew — the MPC driver records its peak in the ledger.

    On an object cluster ``key_fn`` is the per-record callable.  On a
    columnar cluster it is a column name (or ``None`` to use each
    batch's declared ``key`` column) and the destinations are computed
    vectorized.
    """
    if isinstance(cluster, ColumnarCluster):
        return _route_by_key_columnar(
            cluster, key_fn, label=label, return_histogram=return_histogram
        )
    if not callable(key_fn):
        raise TypeError("object-substrate route_by_key needs a per-record key_fn")
    n = cluster.n_machines
    destinations: list[int] | None = [] if return_histogram else None

    def mapper(mid: int, records: list[Any]):
        for rec in records:
            dst = int(key_fn(rec)) % n
            if destinations is not None:
                destinations.append(dst)
            yield dst, rec

    cluster.exchange(mapper, label=label)
    if destinations is None:
        return None
    return np.bincount(
        np.asarray(destinations, dtype=np.int64), minlength=n
    ).astype(np.int64)


def _route_by_key_columnar(
    cluster: ColumnarCluster,
    key_col: Optional[str],
    *,
    label: str,
    return_histogram: bool,
) -> np.ndarray | None:
    if key_col is not None and not isinstance(key_col, str):
        raise TypeError(
            "columnar route_by_key takes a column name (or None for each "
            "batch's declared key), not a per-record callable"
        )
    M = cluster.n_machines
    ships: list[Shipment] = []
    all_dst: list[np.ndarray] = []
    for kind, (batch, home) in cluster.store_items():
        col = key_col if key_col is not None else batch.key
        if col is None:
            raise ValueError(
                f"kind {kind!r} declares no routing key and none was passed"
            )
        dst = batch.cols[col].astype(np.int64) % M
        ships.append(Shipment(batch, home, dst))
        if return_histogram:
            all_dst.append(dst)
    cluster.exchange_columnar(ships, label=label)
    if not return_histogram:
        return None
    flat = (
        np.concatenate(all_dst) if all_dst else np.empty(0, dtype=np.int64)
    )
    return np.bincount(flat, minlength=M).astype(np.int64)


# ----------------------------------------------------------------------
# tree_broadcast
# ----------------------------------------------------------------------
def tree_broadcast(
    cluster,
    payload: Any,
    *,
    tag: str = "bcast",
    label: str = "broadcast",
) -> int:
    """Deliver ``(tag, payload)`` to every machine; returns rounds used.

    Machine 0 is the root.  Children of machine ``i`` at fan-out ``f``
    are ``i·f+1 .. i·f+f`` — the standard implicit tree.  The columnar
    path carries the payload as a ragged numeric column (same word
    count as ``sizeof_words`` on the tuple) and walks the identical
    level schedule.
    """
    if isinstance(cluster, ColumnarCluster):
        return _tree_broadcast_columnar(cluster, payload, tag=tag, label=label)
    words = sizeof_words(payload) + 1
    f = fan_out(cluster, words)
    n = cluster.n_machines
    rounds = 0
    # Seed the payload at the root without charging a round (the root
    # computes it locally).
    cluster.machines[0].store((tag, payload))

    # Level-by-level push until every machine holds the tagged record.
    have = {0}
    while len(have) < n:
        frontier = set(have)

        def mapper(mid: int, records: list[Any]):
            for rec in records:
                if isinstance(rec, tuple) and len(rec) == 2 and rec[0] == tag:
                    if mid in frontier:
                        for c in range(mid * f + 1, min(n, mid * f + f + 1)):
                            if c not in frontier:
                                yield c, rec
                yield mid, rec  # everything persists in place

        cluster.exchange(mapper, label=f"{label}/level")
        rounds += 1
        new_have = set(frontier)
        for parent in frontier:
            for c in range(parent * f + 1, min(n, parent * f + f + 1)):
                new_have.add(c)
        have = new_have
    return max(rounds, 1) if n > 1 else 0


def _broadcast_payload_array(payload: Any) -> np.ndarray:
    arr = np.asarray(payload, dtype=np.float64)
    if arr.ndim > 1:
        raise ValueError("columnar broadcast payloads must be scalar or 1-D")
    return np.atleast_1d(arr)


def _payload_batch(tag: str, arr: np.ndarray, copies: int) -> ColumnBatch:
    offsets = np.arange(copies + 1, dtype=np.int64) * arr.size
    return ColumnBatch(tag, {}, offsets, np.tile(arr, copies))


def _tree_broadcast_columnar(
    cluster: ColumnarCluster, payload: Any, *, tag: str, label: str
) -> int:
    arr = _broadcast_payload_array(payload)
    words = arr.size + 1
    f = fan_out(cluster, words)
    n = cluster.n_machines
    cluster.append_rows(_payload_batch(tag, arr, 1), np.array([0], dtype=np.int64))

    rounds = 0
    have = {0}
    while len(have) < n:
        frontier = sorted(have)
        src_list: list[int] = []
        dst_list: list[int] = []
        for parent in frontier:  # ascending = source-major emission order
            for c in range(parent * f + 1, min(n, parent * f + f + 1)):
                if c not in have:
                    src_list.append(parent)
                    dst_list.append(c)
        ships = cluster.keep_all_shipments()
        if src_list:
            copies = _payload_batch(tag, arr, len(src_list))
            ships.append(
                Shipment(
                    copies,
                    np.asarray(src_list, dtype=np.int64),
                    np.asarray(dst_list, dtype=np.int64),
                )
            )
        cluster.exchange_columnar(ships, label=f"{label}/level")
        rounds += 1
        have.update(dst_list)
    return max(rounds, 1) if n > 1 else 0


# ----------------------------------------------------------------------
# tree_reduce
# ----------------------------------------------------------------------
def tree_reduce(
    cluster: MPCCluster,
    extract: Callable[[Any], Any],
    combine: Callable[[Any, Any], Any],
    zero: Any,
    *,
    tag: str = "reduce",
    label: str = "reduce",
) -> tuple[Any, int]:
    """Fold ``extract`` over all records up a tree to machine 0.

    Returns ``(total, rounds_used)``.  Partial aggregates travel as
    ``(tag, value)`` records; original records stay in place.  Object
    substrate only — columnar callers compute per-machine partials
    vectorized and fold them with :func:`tree_reduce_vector` (same
    tree, same word charges).
    """
    if isinstance(cluster, ColumnarCluster):
        raise TypeError(
            "columnar clusters reduce with tree_reduce_vector(cluster, partials)"
        )
    words = sizeof_words(zero) + 1
    f = fan_out(cluster, words)
    n = cluster.n_machines
    depth = tree_depth(n, f)
    # Each machine folds its local records once, host-side bookkeeping
    # tracks which machines still hold partials.
    level_of = {mid: _tree_level(mid, f) for mid in range(n)}
    max_level = max(level_of.values())
    rounds = 0

    def parent(mid: int) -> int:
        return (mid - 1) // f

    # Local fold: attach partials.
    for m in cluster.machines:
        acc = zero
        for rec in m.storage:
            if isinstance(rec, tuple) and len(rec) == 2 and rec[0] == tag:
                continue
            val = extract(rec)
            if val is not None:
                acc = combine(acc, val)
        m.store((tag, acc))

    current_level = max_level
    while current_level > 0:
        lvl = current_level

        def mapper(mid: int, records: list[Any]):
            for rec in records:
                if (
                    isinstance(rec, tuple)
                    and len(rec) == 2
                    and rec[0] == tag
                    and level_of[mid] == lvl
                ):
                    yield parent(mid), rec
                else:
                    yield mid, rec

        cluster.exchange(mapper, label=f"{label}/level")
        rounds += 1
        # Parents merge partials locally (free within-round compute).
        for m in cluster.machines:
            partials = [r for r in m.storage if isinstance(r, tuple) and len(r) == 2 and r[0] == tag]
            if len(partials) > 1:
                acc = zero
                keep = [r for r in m.storage if not (isinstance(r, tuple) and len(r) == 2 and r[0] == tag)]
                for _, val in partials:
                    acc = combine(acc, val)
                m.clear()
                for r in keep:
                    m.store(r)
                m.store((tag, acc))
        current_level -= 1

    # Read the root's partial and strip reduce records everywhere.
    total = zero
    for m in cluster.machines:
        keep = []
        for rec in m.storage:
            if isinstance(rec, tuple) and len(rec) == 2 and rec[0] == tag:
                if m.machine_id == 0:
                    total = combine(total, rec[1])
            else:
                keep.append(rec)
        m.clear()
        for rec in keep:
            m.store(rec)
    return total, max(rounds, 0)


def tree_reduce_vector(
    cluster: ColumnarCluster,
    partials: np.ndarray,
    *,
    tag: str = "reduce",
    label: str = "reduce",
) -> tuple[np.ndarray, int]:
    """Columnar tree reduce: elementwise-sum an ``(M, k)`` partial
    matrix (one row per machine, computed vectorized by the caller) up
    the same implicit tree :func:`tree_reduce` walks.

    Returns ``(total_vector, rounds_used)``.  Each partial travels as
    a ragged ``k``-word payload plus the tag word — exactly the
    ``sizeof_words((tag, k_tuple))`` the object substrate charges — and
    parents fold partials in (own, children ascending) order, the
    object substrate's storage-scan order, so sums are bit-identical.
    """
    P = np.atleast_2d(np.asarray(partials, dtype=np.float64))
    M, k = P.shape
    if M != cluster.n_machines:
        raise ValueError(f"expected {cluster.n_machines} partial rows, got {M}")
    words = k + 1
    f = fan_out(cluster, words)
    level_of = np.array([_tree_level(mid, f) for mid in range(M)], dtype=np.int64)
    max_level = int(level_of.max()) if M else 0

    def partial_batch(mat: np.ndarray) -> ColumnBatch:
        offsets = np.arange(mat.shape[0] + 1, dtype=np.int64) * k
        return ColumnBatch(tag, {}, offsets, mat.reshape(-1).copy())

    # Local fold: every machine stores its partial (storage +k+1 words).
    cluster.append_rows(partial_batch(P), np.arange(M, dtype=np.int64))

    rounds = 0
    for lvl in range(max_level, 0, -1):
        batch, home = cluster.rows(tag)
        dst = home.copy()
        moving = level_of[home] == lvl
        dst[moving] = (home[moving] - 1) // f
        ships = cluster.keep_all_shipments(exclude=(tag,))
        ships.append(Shipment(batch, home, dst))
        cluster.exchange_columnar(ships, label=f"{label}/level")
        rounds += 1
        # Parents merge partials locally (free within-round compute).
        batch, home = cluster.rows(tag)
        if batch.n_records > M or len(np.unique(home)) < batch.n_records:
            mat = batch.payload.reshape(-1, k)
            merged_rows: list[np.ndarray] = []
            merged_home: list[int] = []
            i = 0
            n_rows = batch.n_records
            while i < n_rows:
                j = i
                while j < n_rows and home[j] == home[i]:
                    j += 1
                # Sequential fold in row order = (own, children asc).
                acc = mat[i]
                for r in range(i + 1, j):
                    acc = acc + mat[r]
                merged_rows.append(acc)
                merged_home.append(int(home[i]))
                i = j
            cluster.replace_kind(
                tag,
                partial_batch(np.asarray(merged_rows)),
                np.asarray(merged_home, dtype=np.int64),
            )

    batch, home = cluster.rows(tag)
    total = np.zeros(k, dtype=np.float64)
    for i in np.flatnonzero(home == 0):
        total = total + batch.payload.reshape(-1, k)[i]
    cluster.drop_kind(tag)
    return total, max(rounds, 0)


def _tree_level(mid: int, f: int) -> int:
    level = 0
    while mid > 0:
        mid = (mid - 1) // f
        level += 1
    return level


# ----------------------------------------------------------------------
# sample_sort
# ----------------------------------------------------------------------
def sample_sort(
    cluster,
    key_fn: Union[Callable[[Any], Any], str, None] = None,
    *,
    oversample: int = 8,
    seed: int = 0,
    label: str = "sort",
) -> int:
    """Globally sort records by key; machine ``i`` ends with the ``i``-th
    contiguous key range, locally sorted.  Returns rounds used.

    Three exchange rounds (sample collection, routing, settle) plus one
    splitter broadcast.  Splitters are chosen from per-machine samples
    gathered at machine 0 — the classical TeraSort scheme.  On a
    columnar cluster ``key_fn`` is a column name (or ``None`` for the
    resident batch's declared key); samples are drawn from the same
    shared RNG in the same machine order, so the splitters — and hence
    the ledger — match the object substrate exactly.
    """
    if isinstance(cluster, ColumnarCluster):
        return _sample_sort_columnar(
            cluster, key_fn, oversample=oversample, seed=seed, label=label
        )
    if not callable(key_fn):
        raise TypeError("object-substrate sample_sort needs a per-record key_fn")
    n = cluster.n_machines
    rng = random.Random(seed)
    sample_tag = "__sort_sample__"

    # Round 1: every machine sends a key sample to machine 0.
    def sample_mapper(mid: int, records: list[Any]):
        keys = [key_fn(rec) for rec in records]
        k = min(len(keys), max(1, oversample))
        sampled = rng.sample(keys, k) if keys else []
        for key in sampled:
            yield 0, (sample_tag, key)
        for rec in records:
            yield mid, rec

    cluster.exchange(sample_mapper, label=f"{label}/sample")

    # Machine 0 computes splitters locally.
    samples = sorted(
        rec[1]
        for rec in cluster.machines[0].storage
        if isinstance(rec, tuple) and len(rec) == 2 and rec[0] == sample_tag
    )
    # Strip sample records.
    keep = [
        rec
        for rec in cluster.machines[0].storage
        if not (isinstance(rec, tuple) and len(rec) == 2 and rec[0] == sample_tag)
    ]
    cluster.machines[0].clear()
    for rec in keep:
        cluster.machines[0].store(rec)

    splitters = _pick_splitters(samples, n)

    bcast_rounds = tree_broadcast(cluster, tuple(splitters), tag="__splitters__", label=f"{label}/splitters")

    # Round 3: route records to their bucket.
    def route_mapper(mid: int, records: list[Any]):
        for rec in records:
            if isinstance(rec, tuple) and len(rec) == 2 and rec[0] == "__splitters__":
                continue  # drop control records
            bucket = bisect.bisect_right(splitters, key_fn(rec))
            yield min(bucket, n - 1), rec

    cluster.exchange(route_mapper, label=f"{label}/route")

    # Local sort (free compute).
    for m in cluster.machines:
        m.storage.sort(key=key_fn)
    # sample round + splitter broadcast + routing round
    return 2 + bcast_rounds


def _pick_splitters(samples: list, n_machines: int) -> list:
    if not samples:
        return []
    step = max(1, len(samples) // n_machines)
    return samples[step::step][: n_machines - 1]


def _sample_sort_columnar(
    cluster: ColumnarCluster,
    key_col: Optional[str],
    *,
    oversample: int,
    seed: int,
    label: str,
) -> int:
    if key_col is not None and not isinstance(key_col, str):
        raise TypeError(
            "columnar sample_sort takes a column name (or None for the "
            "resident batch's declared key), not a per-record callable"
        )
    data_kinds = [k for k in cluster.kinds() if not k.startswith("__")]
    if len(data_kinds) != 1:
        raise ValueError(
            f"columnar sample_sort expects exactly one resident kind, "
            f"found {data_kinds}"
        )
    kind = data_kinds[0]
    batch, home = cluster.rows(kind)
    col = key_col if key_col is not None else batch.key
    if col is None:
        raise ValueError(f"kind {kind!r} declares no key column and none was passed")
    n = cluster.n_machines
    rng = random.Random(seed)
    sample_tag = "__sort_sample__"

    # Round 1: per-machine samples to machine 0, drawn from the shared
    # RNG in machine order (identical stream to the object substrate).
    keys = batch.cols[col]
    sampled_keys: list = []
    sample_src: list[int] = []
    for mid in range(n):
        kvals = keys[home == mid].tolist()
        k = min(len(kvals), max(1, oversample))
        sampled = rng.sample(kvals, k) if kvals else []
        sampled_keys.extend(sampled)
        sample_src.extend([mid] * len(sampled))
    ships = cluster.keep_all_shipments()
    if sampled_keys:
        ships.append(
            Shipment(
                ColumnBatch(sample_tag, {"key": np.asarray(sampled_keys)}),
                np.asarray(sample_src, dtype=np.int64),
                np.zeros(len(sampled_keys), dtype=np.int64),
            )
        )
    cluster.exchange_columnar(ships, label=f"{label}/sample")

    # Machine 0 computes splitters locally; sample records are stripped.
    samples = sorted(cluster.rows(sample_tag)[0].cols["key"].tolist()) if (
        cluster.has_kind(sample_tag)
    ) else []
    cluster.drop_kind(sample_tag)
    splitters = _pick_splitters(samples, n)

    bcast_rounds = tree_broadcast(
        cluster, tuple(splitters), tag="__splitters__", label=f"{label}/splitters"
    )

    # Round 3: route records to their bucket; control records dropped.
    batch, home = cluster.rows(kind)
    split_arr = np.asarray(splitters, dtype=np.float64)
    buckets = np.searchsorted(split_arr, batch.cols[col], side="right")
    dst = np.minimum(buckets, n - 1).astype(np.int64)
    cluster.exchange_columnar(
        [Shipment(batch, home, dst)], label=f"{label}/route"
    )

    # Local sort (free compute): stable by key within each machine.
    batch, home = cluster.rows(kind)
    if batch.n_records:
        order = np.lexsort(
            (np.arange(batch.n_records), batch.cols[col], home)
        )
        cluster.replace_kind(kind, batch.take(order), home[order])
    return 2 + bcast_rounds
