"""Unit + property tests for the dual-CSR bipartite graph."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import build_graph, from_neighbor_lists
from repro.kernels import get_backend


def test_empty_graph():
    g = build_graph(0, 0, [], [])
    assert g.n_edges == 0
    assert g.n_vertices == 0
    g.validate()


def test_isolated_vertices():
    g = build_graph(3, 4, [0], [2])
    assert g.n_edges == 1
    assert g.left_degrees.tolist() == [1, 0, 0]
    assert g.right_degrees.tolist() == [0, 0, 1, 0]
    g.validate()


def test_path_structure(path_graph):
    g = path_graph
    g.validate()
    assert g.n_edges == 3
    assert g.left_neighbors(0).tolist() == [0]
    assert g.left_neighbors(1).tolist() == [0, 1]
    assert g.right_neighbors(0).tolist() == [0, 1]
    assert g.right_neighbors(1).tolist() == [1]
    assert g.max_degree == 2


def test_edges_canonical_order():
    g = build_graph(3, 3, [2, 0, 1, 0], [0, 1, 2, 0])
    assert list(g.edges()) == [(0, 0), (0, 1), (1, 2), (2, 0)]


def test_has_edge(path_graph):
    g = path_graph
    assert g.has_edge(0, 0)
    assert g.has_edge(1, 1)
    assert not g.has_edge(0, 1)


def test_parallel_edges_rejected():
    with pytest.raises(ValueError, match="parallel edge"):
        build_graph(2, 2, [0, 0], [1, 1])


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        build_graph(2, 2, [0], [5])
    with pytest.raises(ValueError):
        build_graph(2, 2, [-1], [0])


def test_left_right_csr_agree(path_graph):
    g = path_graph
    # Every edge appears once on each side and cross-maps are consistent.
    for e in range(g.n_edges):
        u, v = int(g.edge_u[e]), int(g.edge_v[e])
        assert e in g.left_incident_edges(u).tolist()
        assert e in g.right_incident_edges(v).tolist()


def test_subgraph_by_edges_bool(path_graph):
    sub = path_graph.subgraph_by_edges(np.array([True, False, True]))
    assert sub.n_edges == 2
    assert list(sub.edges()) == [(0, 0), (1, 1)]
    sub.validate()


def test_subgraph_by_edges_ids(path_graph):
    sub = path_graph.subgraph_by_edges(np.array([2]))
    assert list(sub.edges()) == [(1, 1)]


def test_induced_subgraph(path_graph):
    sub, left_ids, right_ids = path_graph.induced_subgraph(
        np.array([1]), np.array([0, 1])
    )
    assert left_ids.tolist() == [1]
    assert right_ids.tolist() == [0, 1]
    assert sub.n_edges == 2
    sub.validate()


def test_reverse_roundtrip(path_graph):
    rev = path_graph.reverse()
    assert rev.n_left == path_graph.n_right
    assert sorted((v, u) for u, v in path_graph.edges()) == sorted(rev.edges())
    rev.validate()


def test_undirected_edges_offset(path_graph):
    a, b = path_graph.undirected_edges()
    assert b.min() >= path_graph.n_left


def test_from_neighbor_lists():
    g = from_neighbor_lists([[0, 1], [1]], 2)
    assert g.n_edges == 3
    assert g.left_neighbors(0).tolist() == [0, 1]


def test_segment_sum_with_empty_rows():
    indptr = np.array([0, 2, 2, 3], dtype=np.int64)
    vals = np.array([1.0, 2.0, 5.0])
    assert get_backend().segment_sum(vals, indptr).tolist() == [3.0, 0.0, 5.0]


def test_segment_max_with_empty_rows():
    indptr = np.array([0, 2, 2, 3], dtype=np.int64)
    vals = np.array([1.0, 7.0, 5.0])
    assert get_backend().segment_max(vals, indptr, -1.0).tolist() == [7.0, -1.0, 5.0]


def test_segment_helpers_on_graph(path_graph):
    g, backend = path_graph, get_backend()
    ones = np.ones(g.n_edges)
    left = backend.segment_sum(ones, g.left_indptr, layout=g.left_layout)
    right = backend.segment_sum(ones, g.right_indptr, layout=g.right_layout)
    assert left.tolist() == g.left_degrees.tolist()
    assert right.tolist() == g.right_degrees.tolist()


@st.composite
def random_edge_sets(draw):
    n_left = draw(st.integers(1, 8))
    n_right = draw(st.integers(1, 8))
    universe = [(u, v) for u in range(n_left) for v in range(n_right)]
    edges = draw(st.lists(st.sampled_from(universe), max_size=20, unique=True))
    return n_left, n_right, edges


@given(random_edge_sets())
@settings(max_examples=60, deadline=None)
def test_property_graph_consistency(data):
    n_left, n_right, edges = data
    eu = [e[0] for e in edges]
    ev = [e[1] for e in edges]
    g = build_graph(n_left, n_right, eu, ev)
    g.validate()
    assert g.n_edges == len(edges)
    assert sorted(g.edges()) == sorted(edges)
    assert int(g.left_degrees.sum()) == len(edges)
    assert int(g.right_degrees.sum()) == len(edges)
    # Neighborhood round trips.
    for u in range(n_left):
        expected = sorted(v for (uu, v) in edges if uu == u)
        assert g.left_neighbors(u).tolist() == expected
    for v in range(n_right):
        expected = sorted(u for (u, vv) in edges if vv == v)
        assert g.right_neighbors(v).tolist() == expected


@given(random_edge_sets(), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_property_subgraph_edges_subset(data, seed):
    n_left, n_right, edges = data
    g = build_graph(n_left, n_right, [e[0] for e in edges], [e[1] for e in edges])
    rng = np.random.default_rng(seed)
    mask = rng.random(g.n_edges) < 0.5
    sub = g.subgraph_by_edges(mask)
    sub.validate()
    assert sub.n_edges == int(mask.sum())
    assert set(sub.edges()) <= set(g.edges())
