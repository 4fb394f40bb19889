"""Exception types shared across the integration and resilience layers."""

from __future__ import annotations


class IntegrationError(RuntimeError):
    """A run stopped at a step it could not complete.

    ``sdc.march`` sets ``step_index`` (None until then) and the completed
    steps' ``SweepTrace`` list (``traces``, empty for RK) as the error
    propagates.  ``restarts`` counts the restarts of the failing step: 0
    unless its restart budget ran out.  The message is built from the
    fields when it is read, so it names the step too.
    """

    def __init__(self, detail, *, restarts=0):
        super().__init__(detail)
        self.detail = detail
        self.step_index = None
        self.traces = []
        self.restarts = restarts


class NonRealizableStateError(IntegrationError):
    """A sweep or stage produced a state outside the realizable set.

    Raised for non-finite states or right-hand-side evaluations, and for
    realizability-guard violations (for example a temperature outside the
    configured bounds).  Carries enough position information to attribute
    the failure to a node and sweep.
    """

    def __init__(self, detail, *, node_index=None, sweep_index=None):
        super().__init__(detail)
        self.node_index = node_index
        self.sweep_index = sweep_index

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


class UnrecoverableStepError(IntegrationError):
    """A timestep could not be completed within the restart budget;
    ``restarts`` is that budget."""

    def __str__(self):
        where = f" at step {self.step_index}" if self.step_index is not None else ""
        return f"{self.detail}{where} after {self.restarts} restarts"
