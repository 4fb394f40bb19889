"""Residual-based acceptance control and checkpoint/restart recovery.

The controller watches the collocation residual that SDC provides for free:
a step is accepted once the residual has dropped far below its predictor
level and stopped improving, or when the sweep budget is exhausted.  States
that leave the realizable set roll the step back to a cached checkpoint;
the fault window counter is deliberately not rewound, so a retried step
generally escapes the fault that killed it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientHistoryError,
    NonRealizableStateError,
    UnrecoverableStepError,
)
from .sdc import integrate_step, non_finite_violation, step_times

__all__ = [
    "ControllerConfig",
    "StepCheckpoint",
    "residual_ratios",
    "should_continue",
    "controller_policy",
    "realizability_guard",
    "checkpointed_step",
    "integrate_resilient",
]


@dataclass
class ControllerConfig:
    """Acceptance thresholds and budgets for the resilient sweep loop."""

    r1_tol: float = 1.0e-5
    ratio_tol: float = 0.9
    max_sweeps: int = 8
    min_sweeps: int = 2
    max_restarts: int = 3

    def __post_init__(self):
        if not 0.0 < self.r1_tol < 1.0:
            raise ValueError(f"r1_tol must be in (0, 1), got {self.r1_tol}")
        if not 0.0 < self.ratio_tol <= 1.0:
            raise ValueError(f"ratio_tol must be in (0, 1], got {self.ratio_tol}")
        if self.min_sweeps < 2:
            raise ValueError(f"min_sweeps must be >= 2, got {self.min_sweeps}")
        if self.max_sweeps < self.min_sweeps:
            raise ValueError("max_sweeps must be >= min_sweeps")
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {self.max_restarts}")


def _ratios_from_norms(norms):
    if len(norms) < 2:
        raise InsufficientHistoryError(
            f"residual ratios need at least two sweeps, got {len(norms)}"
        )
    latest = norms[-1]
    first = norms[0]
    previous = norms[-2]
    r1 = latest / first if first != 0.0 else 0.0
    r_prev = latest / previous if previous != 0.0 else 0.0
    return r1, r_prev


def residual_ratios(trace):
    """Convergence ratios from a trace's recorded residual max-norms.

    Returns (r1, r_prev): the latest residual relative to the first sweep's
    and to the previous sweep's.  A zero denominator yields zero by
    convention (an exactly zero residual means the step is converged).
    """
    norms = getattr(trace, "residual_maxnorms", trace)
    return _ratios_from_norms(norms)


def should_continue(r1, r_prev, sweeps_taken, cfg):
    """Decide whether to keep sweeping (True) or accept the step (False).

    Acceptance requires the residual to have fallen below ``r1_tol`` of its
    first-sweep value while successive sweeps no longer improve it by more
    than ``ratio_tol``, after at least ``min_sweeps`` sweeps; the step is
    accepted unconditionally at ``max_sweeps``.  An exactly zero residual
    accepts immediately once eligible.
    """
    if sweeps_taken >= cfg.max_sweeps:
        return False
    if sweeps_taken < cfg.min_sweeps:
        return True
    if r1 == 0.0:
        return False
    return not (r1 < cfg.r1_tol and r_prev > cfg.ratio_tol)


def controller_policy(cfg):
    """Adapt a ControllerConfig to the sweep-policy callable of the core."""

    def policy(norms):
        sweeps_taken = len(norms)
        if sweeps_taken < 2:
            return True
        r1, r_prev = _ratios_from_norms(norms)
        return should_continue(r1, r_prev, sweeps_taken, cfg)

    return policy


def realizability_guard(state, sys):
    """None when the state is realizable, else a violation description.

    Non-finite components are always violations: a system's own
    ``realizability`` check reports them (see ODESystem), and a system
    without one gets a finite-check here.
    """
    if sys.realizability is not None:
        return sys.realizability(state)
    return non_finite_violation(state)


@dataclass(frozen=True)
class StepCheckpoint:
    """Solution vector and time cached at the start of an outer step."""

    cached_state: np.ndarray
    cached_time: float

    @classmethod
    def capture(cls, state, time):
        return cls(cached_state=np.array(state, dtype=float, copy=True), cached_time=float(time))


def checkpointed_step(checkpoint, dt, rule, sys, cfg):
    """One controlled step with rollback on realizability failures.

    Runs the sweep loop under the acceptance controller; if any node state
    turns non-realizable the step restarts from the (bit-identical) cached
    checkpoint, up to ``cfg.max_restarts`` times, after which
    UnrecoverableStepError is raised.  The fault hook is never rewound.
    """
    policy = controller_policy(cfg)

    def check(state):
        return realizability_guard(state, sys)

    restarts = 0
    while True:
        try:
            end_state, trace = integrate_step(
                checkpoint.cached_state.copy(),
                checkpoint.cached_time,
                dt,
                rule,
                sys,
                policy,
                state_check=check,
            )
            trace.restarts = restarts
            return end_state, trace
        except NonRealizableStateError as exc:
            restarts += 1
            if restarts > cfg.max_restarts:
                raise UnrecoverableStepError(
                    f"step failed realizability after retries: {exc.detail}",
                    restarts=restarts - 1,
                ) from exc


def integrate_resilient(phi_0, t0, t_end, dt, rule, sys, cfg):
    """Checkpointed fixed-step integration over [t0, t_end].

    Returns (trajectory, traces) like the plain integrator; aborts with
    UnrecoverableStepError (step index and completed steps' traces attached)
    when a step exhausts its restart budget.
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
        checkpoint = StepCheckpoint.capture(phi, t_k)
        try:
            phi, trace = checkpointed_step(checkpoint, h, rule, sys, cfg)
        except UnrecoverableStepError as exc:
            exc.step_index, exc.traces = k, traces
            raise
        traces.append(trace)
        trajectory.append((float(boundaries[k + 1]), phi.copy()))
    return trajectory, traces
