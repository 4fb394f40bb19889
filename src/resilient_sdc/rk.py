"""Explicit Runge-Kutta baseline with pluggable Butcher tableaus.

The baseline shares the kernelized right-hand-side (and therefore the fault
surface) with the SDC integrator but exposes no convergence diagnostic,
which is exactly its silent-corruption vulnerability.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NonRealizableStateError
from .sdc import step_times

__all__ = ["ButcherTableau", "classical_rk4", "rk_step", "rk_integrate"]

_TABLEAU_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class ButcherTableau:
    """Coefficients of an explicit Runge-Kutta method.

    ``classical_rk4`` builds its tableau once per process and hands the same
    instance to every caller, so instances are frozen and that tableau's
    arrays are read-only.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    @property
    def stages(self):
        return len(self.b)

    def validate(self):
        """Check explicitness and consistency; raises ValueError."""
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        c = np.asarray(self.c, dtype=float)
        s = b.size
        if a.shape != (s, s) or c.size != s:
            raise ValueError("tableau shapes are inconsistent")
        if np.any(np.abs(a[np.triu_indices(s)]) > 0.0):
            raise ValueError("tableau must be strictly lower triangular (explicit)")
        if abs(b.sum() - 1.0) > _TABLEAU_TOL:
            raise ValueError("tableau weights must sum to 1")
        if np.max(np.abs(a.sum(axis=1) - c)) > _TABLEAU_TOL:
            raise ValueError("row sums of a must equal c")
        return self


@functools.cache
def classical_rk4():
    """The classical fourth-order method, built and validated on the first
    call and cached; its arrays are read-only."""
    a = np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    b = np.array([1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0])
    c = np.array([0.0, 0.5, 0.5, 1.0])
    for array in (a, b, c):
        array.flags.writeable = False
    return ButcherTableau(a=a, b=b, c=c).validate()


def rk_step(phi_n, t, dt, tableau, sys):
    """One explicit RK step.  Stage evaluations run through sys.rhs, so an
    armed fault hook sees every stage exactly like an SDC sweep would."""
    phi_n = np.asarray(phi_n, dtype=float)
    hook = sys.hook
    if hook is not None:
        hook.begin_sweep(1)
    k = np.empty((tableau.stages, phi_n.size))
    for i in range(tableau.stages):
        stage_state = phi_n + dt * (tableau.a[i, :i] @ k[:i])
        if not np.isfinite(stage_state).all():
            raise NonRealizableStateError(
                "non-finite stage value", node_index=i, sweep_index=1
            )
        if hook is not None:
            hook.begin_node(i)
        k[i] = sys.rhs(stage_state, t + tableau.c[i] * dt)
        if not np.isfinite(k[i]).all():
            raise NonRealizableStateError(
                "non-finite stage rhs", node_index=i, sweep_index=1
            )
    return phi_n + dt * (tableau.b @ k)


def rk_integrate(phi_0, t0, t_end, dt, tableau, sys, *, state_check=None):
    """Fixed-step RK integration; returns a (time, state) trajectory.

    ``state_check`` is applied to each accepted step state; a violation
    raises NonRealizableStateError (there is no recovery path here).
    """
    phi = np.asarray(phi_0, dtype=float).copy()
    boundaries = step_times(t0, t_end, dt)
    trajectory = [(float(boundaries[0]), phi.copy())]
    hook = sys.hook
    for k in range(len(boundaries) - 1):
        t_k = float(boundaries[k])
        h = float(boundaries[k + 1] - boundaries[k])
        if hook is not None:
            hook.begin_step(k, t_k)
        try:
            phi = rk_step(phi, t_k, h, tableau, sys)
            if state_check is not None:
                violation = state_check(phi)
                if violation is not None:
                    raise NonRealizableStateError(violation, sweep_index=1)
        except NonRealizableStateError as exc:
            exc.step_index = k
            raise
        trajectory.append((float(boundaries[k + 1]), phi.copy()))
    return trajectory
