"""Spectral deferred correction sweeps over collocation nodes.

A step starts from a first-order explicit-Euler predictor across the nodes
and applies correction sweeps that converge to the collocation solution.
The collocation residual is available after every sweep and doubles as the
soft-error detection signal used by the resilience controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NonRealizableStateError

__all__ = [
    "ODESystem",
    "NodeSolution",
    "SweepTrace",
    "predictor",
    "sdc_sweep",
    "residual",
    "non_finite_violation",
    "residual_max_norm",
    "integrate_step",
    "integrate",
    "step_times",
]


@dataclass
class ODESystem:
    """Autonomous-in-shape ODE d(phi)/dt = rhs(phi, t) on flat float64 state.

    ``realizability`` optionally maps a state to None (ok) or a string
    describing the violated bound; a non-finite state must count as a
    violation too (``non_finite_violation`` describes one).  ``hook`` is an optional kernel-level
    fault-injection observer; integrators notify it of the current
    (step, sweep, node) position and kernelized right-hand sides pass their
    return arrays through it.
    """

    dimension: int
    rhs: Callable[[np.ndarray, float], np.ndarray]
    realizability: Optional[Callable[[np.ndarray], Optional[str]]] = None
    hook: object = None


@dataclass
class NodeSolution:
    """Solution iterate over one step: states and cached rhs at every node."""

    node_states: np.ndarray  # shape (num_nodes, dimension)
    node_rhs: np.ndarray  # shape (num_nodes, dimension)
    t_start: float
    dt: float
    times: np.ndarray  # absolute time at each node


@dataclass
class SweepTrace:
    """Per-step diagnostics: residual history and controller bookkeeping."""

    residual_maxnorms: list = field(default_factory=list)
    sweeps_taken: int = 0
    accepted: bool = True
    restarts: int = 0


def non_finite_violation(state):
    """None when every component is finite, else a description naming the
    first non-finite component."""
    finite = np.isfinite(state)
    if finite.all():
        return None
    return f"non-finite value at component {int(np.argmin(finite))}"


def predictor(phi_n, rule, sys, t_start, dt):
    """Explicit-Euler prediction node by node; counts as sweep 1.

    Returns a NodeSolution with the rhs cached at every node, so the first
    correction sweep starts without extra evaluations.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    phi_n = np.asarray(phi_n, dtype=float)
    num_nodes = rule.num_nodes
    times = t_start + dt * rule.nodes
    hook = sys.hook
    rhs = sys.rhs

    if hook is not None:
        hook.begin_sweep(1)

    states = np.empty((num_nodes, phi_n.size))
    rhs_vals = np.empty_like(states)
    states[0] = phi_n
    for m in range(num_nodes):
        row = states[m]
        if m > 0:
            np.add(states[m - 1], (times[m] - times[m - 1]) * rhs_vals[m - 1], out=row)
        if not np.isfinite(row).all():
            raise NonRealizableStateError("non-finite state", node_index=m, sweep_index=1)
        if hook is not None:
            hook.begin_node(m)
        f = rhs(row, times[m])
        if not np.isfinite(f).all():
            raise NonRealizableStateError(
                "non-finite rhs evaluation", node_index=m, sweep_index=1
            )
        rhs_vals[m] = f
    return NodeSolution(
        node_states=states, node_rhs=rhs_vals, t_start=t_start, dt=dt, times=times
    )


def sdc_sweep(sol, rule, sys, *, sweep_index=None):
    """One deferred-correction pass over the nodes; returns the next iterate.

    Node 0 is left untouched and its cached rhs is reused, so a sweep costs
    exactly ``num_nodes - 1`` new rhs evaluations.  The update propagates the
    new iterate left to right, correcting each interval with the difference
    of Euler terms plus the node-to-node integral of the previous iterate:
    node m + 1 gets ``states[m] + width * (new_rhs[m] - old_rhs[m])`` plus
    ``dt * (s_matrix[m] @ old_rhs)``, added in that order.
    """
    hook = sys.hook
    rhs = sys.rhs
    if hook is not None and sweep_index is not None:
        hook.begin_sweep(sweep_index)

    times = sol.times
    dt = sol.dt
    s_matrix = rule.s_matrix
    old_rhs = sol.node_rhs
    states = sol.node_states.copy()
    new_rhs = old_rhs.copy()
    for m in range(1, rule.num_nodes):
        row = states[m]
        euler_diff = (times[m] - times[m - 1]) * (new_rhs[m - 1] - old_rhs[m - 1])
        np.add(states[m - 1] + euler_diff, dt * (s_matrix[m - 1] @ old_rhs), out=row)
        if not np.isfinite(row).all():
            raise NonRealizableStateError(
                "non-finite state", node_index=m, sweep_index=sweep_index
            )
        if hook is not None:
            hook.begin_node(m)
        f = rhs(row, times[m])
        if not np.isfinite(f).all():
            raise NonRealizableStateError(
                "non-finite rhs evaluation", node_index=m, sweep_index=sweep_index
            )
        new_rhs[m] = f
    return NodeSolution(
        node_states=states,
        node_rhs=new_rhs,
        t_start=sol.t_start,
        dt=dt,
        times=times,
    )


def residual(sol, rule):
    """Collocation residual at every node for the current iterate.

    R_m = phi_n + dt * sum_j q[m, j] * node_rhs[j] - node_states[m], formed
    in one buffer as ``(q @ node_rhs) * dt + phi_n - node_states``.  Row 0
    is identically zero.
    """
    r = rule.q_matrix @ sol.node_rhs
    r *= sol.dt
    r += sol.node_states[0]
    r -= sol.node_states
    return r


def residual_max_norm(sol, rule):
    """Max-norm of the collocation residual over all nodes and components."""
    r = residual(sol, rule)
    return float(np.abs(r, out=r).max())


def _check_states(sol, state_check, sweep_index, *, first_node=0):
    """Apply ``state_check`` to the node states from ``first_node`` on.

    Correction sweeps pass ``first_node=1``: they never write node 0, which
    still holds the step's start state that the predictor's check passed.
    """
    if state_check is None:
        return
    for m in range(first_node, sol.node_states.shape[0]):
        violation = state_check(sol.node_states[m])
        if violation is not None:
            raise NonRealizableStateError(
                violation, node_index=m, sweep_index=sweep_index
            )


def integrate_step(
    phi_n,
    t_start,
    dt,
    rule,
    sys,
    sweep_policy,
    *,
    state_check=None,
    sweep_observer=None,
):
    """Advance one step: predictor plus sweeps until the policy accepts.

    ``sweep_policy`` is either a positive integer (fixed sweep count,
    predictor included) or a callable mapping the list of recorded residual
    max-norms to True (keep sweeping) or False (accept).  ``state_check``
    optionally maps a node state to a violation description; a violation
    raises NonRealizableStateError.  ``sweep_observer`` is called with
    (sweep_index, NodeSolution) after every sweep, for diagnostics.

    Returns (end state, SweepTrace).  The trace records the residual
    max-norm after the predictor and after every correction sweep.
    """
    fixed_count = None
    if isinstance(sweep_policy, (int, np.integer)):
        fixed_count = int(sweep_policy)
        if fixed_count < 1:
            raise ValueError(f"sweep count must be >= 1, got {sweep_policy}")

    sol = predictor(phi_n, rule, sys, t_start, dt)
    _check_states(sol, state_check, 1)
    trace = SweepTrace(residual_maxnorms=[residual_max_norm(sol, rule)], sweeps_taken=1)
    if sweep_observer is not None:
        sweep_observer(1, sol)

    while True:
        if fixed_count is not None:
            if trace.sweeps_taken >= fixed_count:
                break
        elif not sweep_policy(trace.residual_maxnorms):
            break
        sweep_index = trace.sweeps_taken + 1
        sol = sdc_sweep(sol, rule, sys, sweep_index=sweep_index)
        _check_states(sol, state_check, sweep_index, first_node=1)
        trace.residual_maxnorms.append(residual_max_norm(sol, rule))
        trace.sweeps_taken = sweep_index
        if sweep_observer is not None:
            sweep_observer(sweep_index, sol)

    return sol.node_states[-1].copy(), trace


def step_times(t0, t_end, dt):
    """Step boundaries covering [t0, t_end] with a truncated final step.

    The last boundary is exactly t_end.  Returns an array of length
    ``steps + 1``; for t_end == t0 it is just [t0].
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    span = t_end - t0
    if span < 0.0:
        raise ValueError("t_end must not precede t0")
    if span == 0.0:
        return np.array([t0])
    n_whole = int(round(span / dt))
    if n_whole < 1 or not abs(n_whole * dt - span) <= 1e-9 * abs(span):
        n_whole = int(np.floor(span / dt))
    boundaries = t0 + dt * np.arange(n_whole + 1)
    if t_end - boundaries[-1] > 1e-12 * max(abs(t_end), dt):
        boundaries = np.append(boundaries, t_end)
    else:
        boundaries[-1] = t_end
    return boundaries


def integrate(
    phi_0, t0, t_end, dt, rule, sys, sweep_policy, *, state_check=None, sweep_observer=None
):
    """Fixed-step integration over [t0, t_end] without checkpoint recovery.

    Returns (trajectory, traces) where trajectory is a list of
    (time, state) pairs including the initial condition.  Realizability
    failures propagate with the step index and the completed steps' traces
    attached.  ``sweep_observer``, when given, is called as (step_index,
    sweep_index, NodeSolution) after every sweep.
    """
    phi = np.asarray(phi_0, dtype=float).copy()
    boundaries = step_times(t0, t_end, dt)
    trajectory = [(float(boundaries[0]), phi.copy())]
    traces = []
    hook = sys.hook
    for k in range(len(boundaries) - 1):
        t_k = float(boundaries[k])
        h = float(boundaries[k + 1] - boundaries[k])
        if hook is not None:
            hook.begin_step(k, t_k)
        observer = None
        if sweep_observer is not None:
            observer = lambda sweep, sol, _k=k: sweep_observer(_k, sweep, sol)  # noqa: E731
        try:
            phi, trace = integrate_step(
                phi,
                t_k,
                h,
                rule,
                sys,
                sweep_policy,
                state_check=state_check,
                sweep_observer=observer,
            )
        except NonRealizableStateError as exc:
            exc.step_index, exc.traces = k, traces
            raise
        traces.append(trace)
        trajectory.append((float(boundaries[k + 1]), phi.copy()))
    return trajectory, traces
