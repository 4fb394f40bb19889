"""Gauss-Lobatto collocation nodes and spectral integration matrices.

The integration matrix ``q`` holds integrals of the Lagrange basis from the
left endpoint to each node, so that ``dt * q @ f`` integrates a polynomial
interpolant of nodal derivative samples.  The node-to-node matrix ``s`` holds
the same integrals between consecutive nodes and drives the sweep update.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "MAX_NODES",
    "QuadratureRule",
    "lobatto_nodes",
    "integration_matrix",
    "node_to_node_matrix",
    "lobatto_rule",
]

_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100

# The most nodes whose q matrix integrates each monomial of degree below the
# node count to 1e-12 (3.0e-13 at 8 nodes; 2.4e-12 at 9, 0.5 at 25).
MAX_NODES = 8


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Collocation rule on [0, 1]: nodes plus the derived matrices.

    ``lobatto_rule`` builds one rule per node count and process and hands
    the same instance to every caller, so instances are frozen and their
    arrays read-only.
    """

    num_nodes: int
    nodes: np.ndarray
    q_matrix: np.ndarray
    s_matrix: np.ndarray


def _legendre(n, x):
    """Legendre P_n and P_n' at points x via the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(1, n):
        p_next = ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        p_prev, p = p, p_next
    # derivative identity, valid away from the endpoints
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def lobatto_nodes(num_nodes):
    """Gauss-Lobatto nodes on [0, 1], ascending, endpoints included.

    The interior nodes are the roots of the derivative of the Legendre
    polynomial of degree ``num_nodes - 1``, found by Newton iteration from
    Chebyshev-Lobatto starting guesses and mapped from [-1, 1] to [0, 1].

    Raises ValueError for fewer than two nodes.
    """
    if num_nodes < 2:
        raise ValueError(f"a Lobatto rule needs at least 2 nodes, got {num_nodes}")
    if num_nodes == 2:
        return np.array([0.0, 1.0])

    n = num_nodes - 1
    x = np.cos(np.pi * np.arange(1, n) / n)
    for _ in range(_NEWTON_MAX_ITER):
        p, dp = _legendre(n, x)
        # P_n'' from the Legendre differential equation
        ddp = (2.0 * x * dp - n * (n + 1) * p) / (1.0 - x * x)
        delta = dp / ddp
        x -= delta
        if np.max(np.abs(delta)) < _NEWTON_TOL:
            break
    nodes = np.concatenate(([-1.0], np.sort(x), [1.0]))
    return (nodes + 1.0) / 2.0


def integration_matrix(nodes):
    """Matrix of Lagrange-basis integrals from nodes[0] to every node.

    Entry (m, j) is the integral of the j-th Lagrange basis polynomial over
    [nodes[0], nodes[m]].  The basis polynomials are expanded into monomial
    coefficients and integrated analytically, which is accurate enough up to
    ``MAX_NODES`` nodes.  Row 0 is exactly zero.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2:
        raise ValueError("nodes must be a 1-D array of at least two points")
    # Rejects what ``np.unique`` would shrink (equal neighbours once sorted,
    # -0.0 == 0.0, or two NaNs, which sort last) without importing numpy.ma.
    ordered = np.sort(nodes)
    if np.any(ordered[1:] == ordered[:-1]) or np.isnan(ordered[-2]):
        raise ValueError("nodes must be distinct")

    n = nodes.size
    q = np.zeros((n, n))
    for j in range(n):
        others = np.delete(nodes, j)
        denom = np.prod(nodes[j] - others)
        coeffs = npoly.polyfromroots(others) / denom
        antiderivative = npoly.polyint(coeffs)
        q[:, j] = npoly.polyval(nodes, antiderivative) - npoly.polyval(
            nodes[0], antiderivative
        )
    return q


def node_to_node_matrix(q_matrix):
    """Node-to-node integration matrix: differences of consecutive q rows."""
    q = np.asarray(q_matrix, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("q_matrix must be square")
    return q[1:] - q[:-1]


@functools.cache
def lobatto_rule(num_nodes):
    """The full quadrature rule for ``num_nodes`` Lobatto points, built on
    the first call per node count and cached; its arrays are read-only.
    Past ``MAX_NODES`` nodes the rule is not exact: ValueError."""
    if num_nodes > MAX_NODES:
        raise ValueError(f"a Lobatto rule is exact only up to {MAX_NODES} nodes, got {num_nodes}")
    nodes = lobatto_nodes(num_nodes)
    q = integration_matrix(nodes)
    s = node_to_node_matrix(q)
    for array in (nodes, q, s):
        array.flags.writeable = False
    return QuadratureRule(num_nodes=num_nodes, nodes=nodes, q_matrix=q, s_matrix=s)
