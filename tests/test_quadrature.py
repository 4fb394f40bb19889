"""Gauss-Lobatto nodes and integration matrices against analytic values."""

import itertools
import math

import numpy as np
import pytest

from resilient_sdc.quadrature import (
    MAX_NODES,
    integration_matrix,
    lobatto_nodes,
    lobatto_rule,
    node_to_node_matrix,
)

# Analytic Lobatto nodes on [0, 1]: endpoints plus roots of P'_{n-1}.
_ANALYTIC_NODES = {
    2: [0.0, 1.0],
    3: [0.0, 0.5, 1.0],
    4: [0.0, (5.0 - math.sqrt(5.0)) / 10.0, (5.0 + math.sqrt(5.0)) / 10.0, 1.0],
    5: [
        0.0,
        (7.0 - math.sqrt(21.0)) / 14.0,
        0.5,
        (7.0 + math.sqrt(21.0)) / 14.0,
        1.0,
    ],
}

# Lobatto weights = last row of the integration matrix (integral over [0, 1]).
_ANALYTIC_WEIGHTS = {
    2: [0.5, 0.5],
    3: [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
    4: [1.0 / 12.0, 5.0 / 12.0, 5.0 / 12.0, 1.0 / 12.0],
    5: [1.0 / 20.0, 49.0 / 180.0, 16.0 / 45.0, 49.0 / 180.0, 1.0 / 20.0],
}

THREE_NODE_Q = np.array(
    [
        [0.0, 0.0, 0.0],
        [5.0 / 24.0, 1.0 / 3.0, -1.0 / 24.0],
        [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
    ]
)


@pytest.mark.parametrize("num_nodes", [2, 3, 4, 5])
def test_nodes_match_analytic_values(num_nodes):
    nodes = lobatto_nodes(num_nodes)
    assert nodes.shape == (num_nodes,)
    np.testing.assert_allclose(nodes, _ANALYTIC_NODES[num_nodes], atol=1e-14, rtol=0.0)


@pytest.mark.parametrize("num_nodes", [2, 3, 4, 5, 6])
def test_nodes_sorted_with_endpoints(num_nodes):
    nodes = lobatto_nodes(num_nodes)
    assert nodes[0] == 0.0 and nodes[-1] == 1.0
    assert np.all(np.diff(nodes) > 0.0)
    # Lobatto nodes are symmetric about the midpoint
    np.testing.assert_allclose(nodes + nodes[::-1], np.ones_like(nodes), atol=1e-14)


def test_too_few_nodes_rejected():
    with pytest.raises(ValueError):
        lobatto_nodes(1)


def test_rules_past_exactness_rejected():
    """Nine nodes integrate a monomial 2.4e-12 off, past the 1e-12 bound
    that eight nodes meet."""
    assert MAX_NODES == 8
    for num_nodes in (9, 25):
        with pytest.raises(ValueError, match="exact only up to 8 nodes, got"):
            lobatto_rule(num_nodes)


def test_three_node_matrix_is_the_hand_derived_one():
    rule = lobatto_rule(3)
    np.testing.assert_allclose(rule.q_matrix, THREE_NODE_Q, atol=5e-15, rtol=0.0)


@pytest.mark.parametrize("num_nodes", [2, 3, 4, 5])
def test_weights_row_matches_analytic_values(num_nodes):
    rule = lobatto_rule(num_nodes)
    np.testing.assert_allclose(
        rule.q_matrix[-1], _ANALYTIC_WEIGHTS[num_nodes], atol=1e-14, rtol=0.0
    )


@pytest.mark.parametrize("num_nodes", [2, 3, 4, 5, 6, 7, 8])
def test_monomials_integrate_exactly(num_nodes):
    """Row m integrates t^p over [0, t_m] exactly for p <= num_nodes - 1."""
    rule = lobatto_rule(num_nodes)
    for p in range(num_nodes):
        exact = rule.nodes ** (p + 1) / (p + 1)
        approx = rule.q_matrix @ (rule.nodes**p)
        np.testing.assert_allclose(approx, exact, atol=1e-12, rtol=0.0)


@pytest.mark.parametrize("num_nodes", [3, 4, 5])
def test_full_interval_row_has_gauss_lobatto_degree(num_nodes):
    """The weights row is exact up to degree 2*num_nodes - 3."""
    rule = lobatto_rule(num_nodes)
    for p in range(2 * num_nodes - 2):
        approx = float(rule.q_matrix[-1] @ (rule.nodes**p))
        assert abs(approx - 1.0 / (p + 1)) < 1e-13


@pytest.mark.parametrize("num_nodes", [2, 3, 4, 5])
def test_random_polynomials_integrate_exactly(num_nodes):
    rng = np.random.default_rng(20240817)
    rule = lobatto_rule(num_nodes)
    for _ in range(25):
        coeffs = rng.uniform(-2.0, 2.0, size=num_nodes)  # degree <= num_nodes - 1
        samples = np.polynomial.polynomial.polyval(rule.nodes, coeffs)
        anti = np.polynomial.polynomial.polyint(coeffs)
        exact = np.polynomial.polynomial.polyval(rule.nodes, anti) - anti[0]
        np.testing.assert_allclose(rule.q_matrix @ samples, exact, atol=1e-12)


def test_row_zero_is_zero():
    for num_nodes in (2, 3, 4, 5):
        assert np.all(lobatto_rule(num_nodes).q_matrix[0] == 0.0)


def test_node_to_node_matrix_is_row_differences():
    rule = lobatto_rule(4)
    np.testing.assert_array_equal(
        rule.s_matrix, rule.q_matrix[1:] - rule.q_matrix[:-1]
    )
    # node-to-node rows stack back to the full-interval weights
    np.testing.assert_allclose(rule.s_matrix.sum(axis=0), rule.q_matrix[-1], atol=1e-15)


def test_integration_matrix_input_validation():
    with pytest.raises(ValueError):
        integration_matrix(np.array([0.5]))
    with pytest.raises(ValueError):
        integration_matrix(np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        integration_matrix(np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(ValueError):
        integration_matrix(np.array([1.0, 0.0, 0.5, 0.0]))
    with pytest.raises(ValueError):
        integration_matrix(np.array([-0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        integration_matrix(np.array([0.0, math.nan, 0.5, math.nan]))


def test_distinct_node_check_agrees_with_np_unique():
    """Every pair and triple of special values is rejected exactly when
    ``np.unique`` would drop one of its entries."""
    specials = [0.0, -0.0, 0.5, 1.0, -1.0, math.inf, -math.inf, math.nan, 5e-324]
    for size in (2, 3):
        for nodes in itertools.product(specials, repeat=size):
            nodes = np.array(nodes)
            distinct = np.unique(nodes).size == nodes.size
            try:
                with np.errstate(all="ignore"):
                    integration_matrix(nodes)
            except ValueError as exc:
                assert not distinct and str(exc) == "nodes must be distinct", nodes
            else:
                assert distinct, nodes


def test_node_to_node_matrix_requires_square():
    with pytest.raises(ValueError):
        node_to_node_matrix(np.zeros((3, 2)))


def test_rules_are_cached_per_node_count_and_read_only():
    rule = lobatto_rule(3)
    assert lobatto_rule(3) is rule
    assert lobatto_rule(4) is not rule
    for array in (rule.nodes, rule.q_matrix, rule.s_matrix):
        with pytest.raises(ValueError):
            array[0] = 1.0
    with pytest.raises(AttributeError):
        rule.q_matrix = np.zeros((3, 3))
    np.testing.assert_array_equal(rule.nodes, [0.0, 0.5, 1.0])
