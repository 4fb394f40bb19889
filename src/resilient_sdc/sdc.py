"""Spectral deferred correction sweeps over collocation nodes.

A step starts from a first-order explicit-Euler predictor across the nodes
and applies correction sweeps that converge to the collocation solution.
The collocation residual is available after every sweep and doubles as the
soft-error detection signal used by the resilience controller.  Every rhs
evaluation of every integrator, RK4 stages included, runs through ``evaluate``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import IntegrationError, NonRealizableStateError
from .faults import KernelHook

__all__ = [
    "ODESystem",
    "NodeSolution",
    "SweepTrace",
    "all_finite",
    "evaluate",
    "predictor",
    "sdc_sweep",
    "residual",
    "non_finite_violation",
    "realizability_guard",
    "residual_max_norm",
    "fixed_sweeps",
    "integrate_step",
    "march",
    "integrate",
    "step_times",
]


@dataclass
class ODESystem:
    """Autonomous-in-shape ODE d(phi)/dt = rhs(phi, t) on flat float64 state.

    ``realizability`` optionally maps a state to None (ok) or a string
    describing the violated bound; a non-finite state must count as a
    violation too (``non_finite_violation`` describes one).  It is the only
    state check: every integrator (``integrate``, ``rk_integrate``,
    ``integrate_resilient``) applies it when it is set.  ``hook`` is the
    kernel-level fault-injection observer, always present: a system built
    without one gets a fresh, disarmed ``KernelHook``.  Integrators notify it
    of the (step, sweep, node) position and each node's state; kernelized
    right-hand sides pass their return arrays through it.
    """

    rhs: Callable[[np.ndarray, float], np.ndarray]
    realizability: Optional[Callable[[np.ndarray], Optional[str]]] = None
    hook: Optional[KernelHook] = None

    def __post_init__(self):
        if self.hook is None:
            self.hook = KernelHook()


@dataclass
class NodeSolution:
    """Solution iterate over one step: states and cached rhs at every node."""

    node_states: np.ndarray  # shape (num_nodes, state size)
    node_rhs: np.ndarray  # shape (num_nodes, state size)
    dt: float
    times: np.ndarray  # absolute time at each node


@dataclass
class SweepTrace:
    """Per-step diagnostics: residual history and controller bookkeeping.

    ``residual_maxnorms`` holds one norm per sweep, predictor included, so
    its length is the step's sweep count (``sweeps_taken``).  ``capped``
    marks a step that reached ``max_sweeps`` without meeting the residual
    test; only the resilient controller sets it.
    """

    residual_maxnorms: list = field(default_factory=list)
    restarts: int = 0
    capped: bool = False

    @property
    def sweeps_taken(self):
        return len(self.residual_maxnorms)


def all_finite(a):
    """True when every element of ``a`` is finite.

    Counts the finite elements in one C call; exact and warning-free, and
    about half the cost of reducing the ``isfinite`` mask with ``all``.
    """
    return np.count_nonzero(np.isfinite(a)) == a.size


def non_finite_violation(state):
    """None when every component is finite, else a description naming the
    first non-finite component."""
    finite = np.isfinite(state)
    if finite.all():
        return None
    return f"non-finite value at component {int(np.argmin(finite))}"


def realizability_guard(state, sys):
    """None when the state is realizable, else a violation description.

    Non-finite components are always violations: a system's own
    ``realizability`` check reports them (see ODESystem), and a system
    without one gets a finite-check here.  The integrators call it only for
    systems with a ``realizability``: ``evaluate`` finite-checks the rest.
    """
    if sys.realizability is not None:
        return sys.realizability(state)
    return non_finite_violation(state)


def evaluate(sys, state, t, node, sweep):
    """``sys.rhs(state, t)`` at one node or stage, the one kernel-call path:
    finite-check the state, hand the hook the node and the very array the rhs
    receives, evaluate, finite-check the result.  Both checks raise
    NonRealizableStateError at ``node`` of ``sweep``."""
    if not all_finite(state):
        raise NonRealizableStateError("non-finite state", node_index=node, sweep_index=sweep)
    sys.hook.begin_node(node, state)
    f = sys.rhs(state, t)
    if not all_finite(f):
        raise NonRealizableStateError("non-finite rhs evaluation", node_index=node,
                                      sweep_index=sweep)
    return f


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
    sys.hook.begin_sweep(1)

    states = np.empty((num_nodes, phi_n.size))
    rhs_vals = np.empty_like(states)
    states[0] = phi_n
    for m in range(num_nodes):
        row = states[m]
        if m > 0:
            np.add(states[m - 1], (times[m] - times[m - 1]) * rhs_vals[m - 1], out=row)
        rhs_vals[m] = evaluate(sys, row, times[m], m, 1)
    return NodeSolution(node_states=states, node_rhs=rhs_vals, dt=dt, times=times)


def sdc_sweep(sol, rule, sys, *, sweep_index):
    """One deferred-correction pass over the nodes; returns the next iterate.

    Node 0 is left untouched and its cached rhs is reused, so a sweep costs
    exactly ``num_nodes - 1`` new rhs evaluations.  The update propagates the
    new iterate left to right, correcting each interval with the difference
    of Euler terms plus the node-to-node integral of the previous iterate:
    node m + 1 gets ``states[m] + width * (new_rhs[m] - old_rhs[m])`` plus
    ``dt * s_matrix[m].dot(old_rhs)``, added in that order.  Each row's
    product stays its own call: one ``s_matrix @ old_rhs`` for all rows
    rounds differently for three or more nodes.
    """
    sys.hook.begin_sweep(sweep_index)

    times = sol.times
    dt = sol.dt
    s_matrix = rule.s_matrix
    old_rhs = sol.node_rhs
    states = sol.node_states.copy()
    new_rhs = old_rhs.copy()
    for m in range(1, rule.num_nodes):
        row = states[m]
        euler_diff = (times[m] - times[m - 1]) * (new_rhs[m - 1] - old_rhs[m - 1])
        np.add(states[m - 1] + euler_diff, dt * s_matrix[m - 1].dot(old_rhs), out=row)
        new_rhs[m] = evaluate(sys, row, times[m], m, sweep_index)
    return NodeSolution(node_states=states, node_rhs=new_rhs, dt=dt, times=times)


def residual(sol, rule):
    """Collocation residual at every node for the current iterate.

    R_m = phi_n + dt * sum_j q[m, j] * node_rhs[j] - node_states[m], formed
    in one buffer as ``q.dot(node_rhs) * dt + phi_n - node_states``.  Row 0
    is identically zero.
    """
    r = rule.q_matrix.dot(sol.node_rhs)
    r *= sol.dt
    r += sol.node_states[0]
    r -= sol.node_states
    return r


def residual_max_norm(sol, rule):
    """Max-norm of the collocation residual over all nodes and components."""
    r = residual(sol, rule)
    return float(np.maximum.reduce(np.abs(r, out=r), axis=None))


def _check_states(sol, sys, sweep_index, *, first_node=0):
    """Apply the system's realizability guard to the node states from
    ``first_node`` on, if the system has a ``realizability``.

    Correction sweeps pass ``first_node=1``: they never write node 0, which
    still holds the step's start state that the predictor's check passed.
    """
    if sys.realizability is None:
        return
    for m in range(first_node, sol.node_states.shape[0]):
        violation = realizability_guard(sol.node_states[m], sys)
        if violation is not None:
            raise NonRealizableStateError(
                violation, node_index=m, sweep_index=sweep_index
            )


def fixed_sweeps(count):
    """Sweep policy for a fixed sweep count, predictor included."""
    count = operator.index(count)
    if count < 1:
        raise ValueError(f"sweep count must be >= 1, got {count}")
    return lambda norms: len(norms) < count


def integrate_step(phi_n, t_start, dt, rule, sys, keep_sweeping):
    """Advance one step: predictor plus sweeps while the policy asks for more.

    ``keep_sweeping`` maps the list of recorded residual max-norms to True
    (sweep again) or False (accept); ``fixed_sweeps(n)`` makes one for a
    fixed count.  The system's ``realizability``, when set, is applied to
    the node states after every sweep; a violation raises
    NonRealizableStateError.

    Returns (end state, SweepTrace).  The trace records the residual
    max-norm after the predictor and after every correction sweep, the one
    record of the step's sweep count.
    """
    sol = predictor(phi_n, rule, sys, t_start, dt)
    _check_states(sol, sys, 1)
    norms = [residual_max_norm(sol, rule)]

    while keep_sweeping(norms):
        sweep_index = len(norms) + 1
        sol = sdc_sweep(sol, rule, sys, sweep_index=sweep_index)
        _check_states(sol, sys, sweep_index, first_node=1)
        norms.append(residual_max_norm(sol, rule))

    return sol.node_states[-1].copy(), SweepTrace(residual_maxnorms=norms)


def step_times(t0, t_end, dt):
    """Step boundaries covering [t0, t_end] with a truncated final step.

    The last boundary is exactly t_end.  Returns an array of length
    ``steps + 1``; for t_end == t0 it is just [t0].  Every argument must be
    finite.
    """
    for name, value in (("t0", t0), ("t_end", t_end), ("dt", dt)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    span = t_end - t0
    if span < 0.0:
        raise ValueError("t_end must not precede t0")
    if span == 0.0:
        return np.array([float(t0)])
    n_whole = math.floor(span / dt)
    boundaries = t0 + dt * np.arange(n_whole + 1)
    if t_end - boundaries[-1] > 1e-12 * max(abs(t_end), dt):
        boundaries = np.append(boundaries, t_end)
    else:
        boundaries[-1] = t_end
    return boundaries


def march(phi_0, t0, t_end, dt, sys, step):
    """The fixed-step loop over [t0, t_end] that every integrator runs on.

    ``step(k, phi, t_k, h)`` advances step k and returns (new state, trace
    or None); the hook hears ``begin_step`` first.  ``step`` must return a
    fresh array and leave its input alone: the trajectory keeps each state
    as returned, with a copy of ``phi_0`` first.  Returns (trajectory,
    traces): (time, state) pairs from the initial condition on, and the
    recorded traces.  An IntegrationError leaves with the step index and
    the completed steps' traces attached.  The steps run with numpy's
    overflow, invalid and divide warnings off, the package's one
    floating-point policy: a corrupted value may overflow anywhere in a
    step, and the finite checks and the guards report it.
    """
    phi = np.array(phi_0, dtype=float)
    boundaries = step_times(t0, t_end, dt).tolist()
    trajectory = [(boundaries[0], phi)]
    traces = []
    hook = sys.hook
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(len(boundaries) - 1):
            t_k = boundaries[k]
            t_next = boundaries[k + 1]
            hook.begin_step(k, t_k)
            try:
                phi, trace = step(k, phi, t_k, t_next - t_k)
            except IntegrationError as exc:
                exc.step_index, exc.traces = k, traces
                raise
            if trace is not None:
                traces.append(trace)
            trajectory.append((t_next, phi))
    return trajectory, traces


def integrate(phi_0, t0, t_end, dt, rule, sys, sweeps):
    """Fixed-step integration over [t0, t_end] without checkpoint recovery.

    Every step takes ``sweeps`` sweeps, predictor included, and the
    system's ``realizability``, when set, is applied to every node state.
    Returns (trajectory, traces) as ``march`` does; realizability failures
    propagate with the step index and the completed steps' traces attached.
    Within the package only ``campaign.run_single`` calls it.
    """
    keep_sweeping = fixed_sweeps(sweeps)

    def step(k, phi, t_k, h):
        return integrate_step(phi, t_k, h, rule, sys, keep_sweeping)

    return march(phi_0, t0, t_end, dt, sys, step)
