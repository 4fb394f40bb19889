"""Residual-based acceptance control and checkpoint/restart recovery.

The controller watches the collocation residual that SDC provides for free:
a step is accepted once the residual has dropped far below its predictor
level and stopped improving (``converged``), or when the sweep budget is
exhausted (a capped step, which ``sdc.integrate_step`` marks).  States that
leave the realizable set roll the step back to a cached checkpoint; the
fault window counter is deliberately not rewound, so a retried step
generally escapes the fault that killed it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import NonRealizableStateError, UnrecoverableStepError
from .sdc import integrate_step, march, realizability_guard

__all__ = [
    "ControllerConfig",
    "converged",
    "realizability_guard",
    "checkpointed_step",
    "integrate_resilient",
]


@dataclass(frozen=True)
class ControllerConfig:
    """Acceptance thresholds and budgets for the resilient sweep loop.  A step
    takes at least the two sweeps ``converged`` compares: ``max_sweeps`` >= 2."""

    r1_tol: float = 1.0e-5
    ratio_tol: float = 0.9
    max_sweeps: int = 8
    max_restarts: int = 3

    def __post_init__(self):
        if not 0.0 < self.r1_tol < 1.0:
            raise ValueError(f"r1_tol must be in (0, 1), got {self.r1_tol}")
        if not 0.0 < self.ratio_tol <= 1.0:
            raise ValueError(f"ratio_tol must be in (0, 1], got {self.ratio_tol}")
        if operator.index(self.max_sweeps) < 2:
            raise ValueError(f"max_sweeps must be >= 2, got {self.max_sweeps}")
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {self.max_restarts}")


def converged(norms, cfg):
    """The paper's acceptance test on a step's residual max-norms.

    True when the latest residual is below ``r1_tol`` times the first
    sweep's and above ``ratio_tol`` times the previous sweep's (it has
    stopped improving).  A zero first or latest residual counts as
    converged, and a zero previous one as still improving.  Needs at least
    two norms.
    """
    latest = norms[-1]
    first = norms[0]
    r1 = latest / first if first != 0.0 else 0.0
    if r1 == 0.0:
        return True
    previous = norms[-2]
    r_prev = latest / previous if previous != 0.0 else 0.0
    return r1 < cfg.r1_tol and r_prev > cfg.ratio_tol


def checkpointed_step(phi_n, t_start, dt, rule, sys, cfg):
    """One controlled step from ``phi_n`` at ``t_start``: ``integrate_step``
    at ``cfg.max_sweeps`` sweeps with ``converged`` as its acceptance test,
    rolled back on realizability failures.

    The start state is checkpointed once, as a copy the caller's array
    cannot reach.  A step whose node state turns non-finite or fails the
    system's ``realizability`` (``integrate_step`` checks both) restarts
    from a copy of the (bit-identical) checkpoint, up to
    ``cfg.max_restarts`` times, after which UnrecoverableStepError is
    raised.  The fault hook is never rewound.
    """
    checkpoint = np.array(phi_n, dtype=float, copy=True)
    accept = partial(converged, cfg=cfg)
    restarts = 0
    while True:
        try:
            end_state, trace = integrate_step(checkpoint.copy(), t_start, dt, rule, sys,
                                              cfg.max_sweeps, accept)
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

    def step(k, phi, t_k, h):
        return checkpointed_step(phi, t_k, h, rule, sys, cfg)

    return march(phi_0, t0, t_end, dt, sys, step)
