"""Exception types shared across the integration and resilience layers."""

from __future__ import annotations


class NonRealizableStateError(RuntimeError):
    """A sweep or stage produced a state outside the realizable set.

    Raised for non-finite states or right-hand-side evaluations, and for
    realizability-guard violations (for example a temperature outside the
    configured bounds).  Carries enough position information to attribute
    the failure to a node and sweep; the integrators attach the step index
    and, for SDC, the ``SweepTrace`` list of the steps completed before it
    (``traces``) while the error propagates.  The message is built from the
    fields when it is read, so it names the step too.
    """

    def __init__(self, detail, *, node_index=None, sweep_index=None, step_index=None):
        super().__init__(detail)
        self.detail = detail
        self.node_index = node_index
        self.sweep_index = sweep_index
        self.step_index = step_index
        self.traces = []

    def __str__(self):
        where = []
        if self.step_index is not None:
            where.append(f"step {self.step_index}")
        if self.sweep_index is not None:
            where.append(f"sweep {self.sweep_index}")
        if self.node_index is not None:
            where.append(f"node {self.node_index}")
        suffix = f" ({', '.join(where)})" if where else ""
        return f"{self.detail}{suffix}"


class UnrecoverableStepError(RuntimeError):
    """A timestep could not be completed within the restart budget.

    ``restarts`` counts the restarts of the failing step.  The integrator
    attaches the step index and the ``SweepTrace`` list of the steps
    completed before it (``traces``) while the error propagates; the message
    is built from the fields when it is read, so it names the step index.
    """

    def __init__(self, detail, *, step_index=None, restarts=None):
        super().__init__(detail)
        self.detail = detail
        self.step_index = step_index
        self.restarts = restarts
        self.traces = []

    def __str__(self):
        where = f" at step {self.step_index}" if self.step_index is not None else ""
        tries = f" after {self.restarts} restarts" if self.restarts is not None else ""
        return f"{self.detail}{where}{tries}"


class InsufficientHistoryError(ValueError):
    """Residual ratios were requested before two sweeps were recorded."""
