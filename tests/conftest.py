"""Shared fixtures and helpers for the test suite.

``--kernel-backend NAME`` / ``--mpc-substrate NAME`` run the whole
session under one kernel backend / MPC substrate (the CI parity matrix
runs the same suites under each)::

    PYTHONPATH=src python -m pytest -q --kernel-backend native tests/test_sampled.py
"""

from __future__ import annotations

from contextlib import ExitStack

import numpy as np
import pytest

from repro.graphs import build_graph
from repro.graphs.generators import (
    complete_bipartite_instance,
    erdos_renyi_instance,
    load_balancing_instance,
    power_law_instance,
    star_instance,
    union_of_forests,
)
from repro.graphs.instances import AllocationInstance
from repro.kernels import use_backend
from repro.mpc.substrate import use_substrate


def pytest_addoption(parser):
    parser.addoption(
        "--kernel-backend", default=None,
        help="run the session under this kernel backend (reference|optimized|native)",
    )
    parser.addoption(
        "--mpc-substrate", default=None,
        help="run the session under this MPC substrate (object|columnar)",
    )


@pytest.fixture(scope="session", autouse=True)
def _session_backend_and_substrate(request):
    backend = request.config.getoption("--kernel-backend")
    substrate = request.config.getoption("--mpc-substrate")
    with ExitStack() as stack:
        if backend is not None:
            stack.enter_context(use_backend(backend))
        if substrate is not None:
            stack.enter_context(use_substrate(substrate))
        yield


@pytest.fixture
def path_graph():
    """P4: L0 - R0 - L1 - R1 (a path with 3 edges)."""
    return build_graph(2, 2, [0, 1, 1], [0, 0, 1])


@pytest.fixture
def small_star():
    return star_instance(6, center_capacity=3)


@pytest.fixture
def small_forest_instance():
    return union_of_forests(20, 15, 2, capacity=2, seed=7)


@pytest.fixture
def medium_forest_instance():
    return union_of_forests(120, 90, 4, capacity=3, seed=11)


@pytest.fixture
def skewed_instance():
    return power_law_instance(80, 30, mean_left_degree=3, seed=5)


def small_instance_zoo() -> list[AllocationInstance]:
    """A fixed zoo of small instances spanning the generator families;
    used by parametrized feasibility/approximation tests."""
    return [
        star_instance(5, center_capacity=2),
        complete_bipartite_instance(4, 3, capacity=2),
        union_of_forests(12, 10, 2, capacity=2, seed=3),
        erdos_renyi_instance(10, 8, 25, capacity=2, seed=4),
        load_balancing_instance(15, 5, locality=2, seed=9),
        power_law_instance(20, 8, mean_left_degree=2, seed=2),
    ]


def assert_feasible_fractional(graph, capacities, x_edge, tol=1e-9):
    """Shared invariant: x is a fractional allocation (Definition 6)."""
    assert x_edge.shape == (graph.n_edges,)
    assert np.all(x_edge >= -tol)
    assert np.all(x_edge <= 1 + tol)
    left_load = np.bincount(graph.edge_u, weights=x_edge, minlength=graph.n_left)
    right_load = np.bincount(graph.edge_v, weights=x_edge, minlength=graph.n_right)
    assert np.all(left_load <= 1 + 1e-6)
    assert np.all(right_load <= capacities + 1e-6)


def assert_feasible_integral(graph, capacities, edge_mask):
    """Shared invariant: mask is an allocation (Definition 5)."""
    edge_mask = np.asarray(edge_mask, dtype=bool)
    left_used = np.bincount(graph.edge_u[edge_mask], minlength=graph.n_left)
    right_used = np.bincount(graph.edge_v[edge_mask], minlength=graph.n_right)
    assert np.all(left_used <= 1)
    assert np.all(right_used <= capacities)
