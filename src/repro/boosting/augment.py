"""Augmenting paths for the allocation problem.

For allocation (b ≡ 1 on L), a b-matching augmenting walk is an
alternating *path*

    free u₀ ∈ L  —unmatched→  v₁  —matched→  u₁  —unmatched→ … → v_ℓ

ending at a right vertex with residual capacity.  Applying it (swap
matched/unmatched along the path) grows the allocation by one and
preserves feasibility.  The classical bound: if no augmenting path of
length ≤ 2k−1 exists, the allocation is a ``(1+1/k)``-approximation —
the engine behind Appendix B's (1+ε) guarantee.

Two finders live here:

* :func:`find_augmenting_path` — BFS for one *shortest* augmenting
  path, bounded length; with unbounded length and repeated application
  this converges to the exact optimum (used as a reference).
* :func:`eliminate_short_augmenting_paths` — repeatedly removes all
  augmenting paths of length ≤ 2k−1: the deterministic (sequential)
  realization of the boosting target, against which the randomized
  layered framework (:mod:`repro.boosting.layered`) is validated.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.capacities import validate_capacities

__all__ = [
    "AugmentingPath",
    "find_augmenting_path",
    "apply_augmenting_path",
    "eliminate_short_augmenting_paths",
    "matched_partner_structure",
]


class AugmentingPath:
    """An alternating path as interleaved edge-id lists."""

    def __init__(self, unmatched_edges: list[int], matched_edges: list[int]):
        if len(unmatched_edges) != len(matched_edges) + 1:
            raise ValueError(
                "an augmenting path has one more unmatched than matched edge"
            )
        self.unmatched_edges = unmatched_edges
        self.matched_edges = matched_edges

    @property
    def length(self) -> int:
        """Edge count (odd by construction)."""
        return len(self.unmatched_edges) + len(self.matched_edges)


def matched_partner_structure(
    graph: BipartiteGraph, edge_mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(left_match, right_load)``: the matched edge id of each left
    vertex (−1 if free) and the matched degree of each right vertex."""
    edge_mask = np.asarray(edge_mask, dtype=bool)
    left_match = np.full(graph.n_left, -1, dtype=np.int64)
    ids = np.nonzero(edge_mask)[0]
    left_match[graph.edge_u[ids]] = ids
    right_load = np.bincount(graph.edge_v[ids], minlength=graph.n_right)
    return left_match, right_load


def find_augmenting_path(
    graph: BipartiteGraph,
    capacities: np.ndarray,
    edge_mask: np.ndarray,
    *,
    max_length: Optional[int] = None,
) -> Optional[AugmentingPath]:
    """BFS a shortest augmenting path of length ≤ ``max_length``.

    The BFS runs over left vertices: from every free ``u``, step
    unmatched-edge → right vertex → (stop if residual capacity) →
    matched-edge → next left vertex.  Right vertices are visited once
    (first visit is on a shortest prefix), left vertices once.
    """
    caps = validate_capacities(graph, capacities)
    edge_mask = np.asarray(edge_mask, dtype=bool)
    left_match, right_load = matched_partner_structure(graph, edge_mask)

    free_left = np.nonzero(left_match == -1)[0]
    # parent bookkeeping: how we reached each left vertex / right vertex.
    parent_edge_of_right = np.full(graph.n_right, -1, dtype=np.int64)
    parent_edge_of_left = np.full(graph.n_left, -1, dtype=np.int64)
    seen_left = np.zeros(graph.n_left, dtype=bool)
    seen_right = np.zeros(graph.n_right, dtype=bool)

    queue: deque[tuple[int, int]] = deque()
    for u in free_left.tolist():
        if graph.left_degrees[u] > 0:
            seen_left[u] = True
            queue.append((u, 0))  # (left vertex, unmatched edges used)

    target_right = -1
    while queue:
        u, depth = queue.popleft()
        if max_length is not None and 2 * depth + 1 > max_length:
            continue
        row_start = graph.left_indptr[u]
        for offset, v in enumerate(graph.left_neighbors(u).tolist()):
            eid = int(graph.left_edge[row_start + offset])
            if edge_mask[eid] or seen_right[v]:
                continue
            seen_right[v] = True
            parent_edge_of_right[v] = eid
            if right_load[v] < caps[v]:
                target_right = v
                queue.clear()
                break
            # Saturated: continue through each matched edge of v.
            for slot in range(graph.right_indptr[v], graph.right_indptr[v + 1]):
                meid = int(graph.right_edge[slot])
                if not edge_mask[meid]:
                    continue
                u2 = int(graph.edge_u[meid])
                if seen_left[u2]:
                    continue
                seen_left[u2] = True
                parent_edge_of_left[u2] = meid
                queue.append((u2, depth + 1))
        if target_right >= 0:
            break
    if target_right < 0:
        return None

    # Trace back.
    unmatched: list[int] = []
    matched: list[int] = []
    v = target_right
    while True:
        eid = int(parent_edge_of_right[v])
        unmatched.append(eid)
        u = int(graph.edge_u[eid])
        meid = int(parent_edge_of_left[u])
        if meid < 0:
            break
        matched.append(meid)
        v = int(graph.edge_v[meid])
    unmatched.reverse()
    matched.reverse()
    path = AugmentingPath(unmatched, matched)
    if max_length is not None and path.length > max_length:
        return None
    return path


def apply_augmenting_path(
    edge_mask: np.ndarray, path: AugmentingPath
) -> np.ndarray:
    """Return the mask with the path's edges flipped (size +1)."""
    out = np.asarray(edge_mask, dtype=bool).copy()
    for eid in path.unmatched_edges:
        if out[eid]:
            raise ValueError(f"edge {eid} expected unmatched")
        out[eid] = True
    for eid in path.matched_edges:
        if not out[eid]:
            raise ValueError(f"edge {eid} expected matched")
        out[eid] = False
    return out


def eliminate_short_augmenting_paths(
    graph: BipartiteGraph,
    capacities: np.ndarray,
    edge_mask: np.ndarray,
    *,
    max_length: Optional[int] = None,
    max_augmentations: Optional[int] = None,
) -> tuple[np.ndarray, int]:
    """Apply augmenting paths of length ≤ ``max_length`` until none
    remain (or the augmentation budget runs out).

    With ``max_length=None`` this is an exact allocation solver (every
    suboptimal allocation admits an augmenting path); with
    ``max_length = 2k−1`` the result is a (1+1/k)-approximation.
    Returns ``(mask, n_augmentations)``.
    """
    mask = np.asarray(edge_mask, dtype=bool).copy()
    count = 0
    while max_augmentations is None or count < max_augmentations:
        path = find_augmenting_path(graph, capacities, mask, max_length=max_length)
        if path is None:
            break
        mask = apply_augmenting_path(mask, path)
        count += 1
    return mask, count
