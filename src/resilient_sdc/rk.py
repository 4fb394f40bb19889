"""Classical fourth-order Runge-Kutta baseline.

The baseline shares the kernelized right-hand-side (and therefore the fault
surface) with the SDC integrator but exposes no convergence diagnostic,
which is exactly its silent-corruption vulnerability.
"""

from __future__ import annotations

import numpy as np

from .errors import NonRealizableStateError
from .sdc import evaluate, march, realizability_guard

__all__ = ["rk_step", "rk_integrate"]


# Butcher coefficients of the classical method, read-only.
_A = np.array(
    [
        [0.0, 0.0, 0.0, 0.0],
        [0.5, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)
_B = np.array([1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0])
_C = np.array([0.0, 0.5, 0.5, 1.0])
_A.flags.writeable = _B.flags.writeable = _C.flags.writeable = False


def rk_step(phi_n, t, dt, sys):
    """One classical RK4 step.  Each stage is evaluated through
    ``sdc.evaluate`` as the node of sweep 1 with the stage's index, so an
    armed fault hook sees every stage exactly like an SDC sweep would, and
    the finite checks and their messages are the SDC ones."""
    phi_n = np.asarray(phi_n, dtype=float)
    k = np.empty((_B.size, phi_n.size))
    for i in range(_B.size):
        stage_state = phi_n + dt * _A[i, :i].dot(k[:i])
        k[i] = evaluate(sys, stage_state, t + _C[i] * dt, i, 1)
    return phi_n + dt * _B.dot(k)


def rk_integrate(phi_0, t0, t_end, dt, sys):
    """Fixed-step RK4 integration; returns a (time, state) trajectory.

    The system's ``realizability``, when set, is applied to each step's end
    state; a violation raises NonRealizableStateError (there is no recovery
    path here).
    """

    def step(k, phi, t_k, h):
        phi = rk_step(phi, t_k, h, sys)
        if sys.realizability is not None:
            violation = realizability_guard(phi, sys)
            if violation is not None:
                raise NonRealizableStateError(violation, sweep_index=1)
        return phi, None

    return march(phi_0, t0, t_end, dt, sys, step)[0]
