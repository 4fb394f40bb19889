"""Test problems: a scalar linear ODE and a 1-D ignition surrogate.

The surrogate is a periodic reaction-diffusion model of a hot spot igniting
a premixed fuel: temperature and a fuel mass fraction are advanced with
single-step Arrhenius chemistry and eighth-order finite-difference
diffusion.  Its right-hand side is decomposed into named kernel stages
whose return arrays pass through the fault-injection hook, mirroring the
kernelized structure of a production reacting-flow code.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .sdc import ODESystem, non_finite_violation

__all__ = [
    "LinearProblem",
    "IgnitionSurrogate",
    "KERNEL_IDS",
    "LINEAR_KERNEL_ID",
    "gaussian_hotspot",
    "derivative_operator",
    "surrogate_rhs",
    "ignition_metrics",
    "linear_exact",
]

# Eighth-order central first-derivative coefficients for offsets 1..4;
# the stencil is antisymmetric: +a_m at i+m, -a_m at i-m.
_STENCIL = np.array([4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0])
_STENCIL_COLUMN = _STENCIL[:, None]

KERNEL_IDS = (
    "gradient_T",
    "gradient_Y",
    "diffusive_flux_T",
    "diffusive_flux_Y",
    "reaction_rate",
    "assembly",
)

# The linear problem's single kernel: its whole rhs.
LINEAR_KERNEL_ID = "derivative"


def linear_exact(t, s=1.0, y0=1.0):
    """Exact solution of y' = s*y, y(0) = y0."""
    return y0 * math.exp(s * t)


@dataclass
class LinearProblem:
    """Scalar growth problem y' = s*y, whose whole rhs is one kernel.

    A type-A one-shot of scale ``c`` on ``derivative`` at one (sweep, node)
    multiplies that evaluation by ``c``: for ``s = 1``, bit for bit the rate
    ``c`` there, the classic perturbed-sweep experiment.
    """

    s: float = 1.0
    y0: float = 1.0

    def system(self, hook=None):
        def rhs(y, t):
            out = self.s * np.asarray(y, dtype=float)
            system.hook.filter(LINEAR_KERNEL_ID, out)
            return out

        system = ODESystem(rhs=rhs, hook=hook)
        return system

    def initial_state(self):
        return np.array([self.y0])

    def exact(self, t):
        return linear_exact(t, self.s, self.y0)


@functools.cache
def _stencil_indices(n):
    """Read-only ``(8, n)`` table of periodic neighbour indices: rows 0..3
    hold i+1..i+4, rows 4..7 hold i-1..i-4 (all modulo n)."""
    offsets = np.concatenate((np.arange(1, 5), -np.arange(1, 5)))
    table = (np.arange(n) + offsets[:, None]) % n
    table.setflags(write=False)
    return table


def derivative_operator(field_values, dx):
    """Periodic eighth-order central first derivative along the last axis.

    A ``(2, n)`` array of two fields gives, row by row, the same bits as two
    calls on the 1-D fields.  The arithmetic has a fixed order: each point
    gets ``a_m * (f[i+m] - f[i-m])`` for m = 1..4, added elementwise in that
    order starting from +0.0, then divided by ``dx``.  No matrix product or
    BLAS contraction is used, since those round differently.
    """
    f = np.asarray(field_values, dtype=float)
    if f.ndim < 1 or f.shape[-1] < 9:
        raise ValueError("derivative_operator needs a last axis of at least 9 points")
    neighbours = f.take(_stencil_indices(f.shape[-1]), axis=-1)
    terms = neighbours[..., :4, :] - neighbours[..., 4:, :]
    terms *= _STENCIL_COLUMN
    # The +0.0 start is stated, not left to the start a numpy version picks
    # for float sums: a column of -0.0 terms sums to +0.0.
    return np.add.reduce(terms, axis=-2, initial=0.0) / dx


def _stencil_wavenumber_max():
    """Largest resolved wavenumber magnitude of the first-derivative symbol
    (times dx); the diffusive operator's spectral radius is its square."""
    theta = np.linspace(0.0, np.pi, 4097)
    symbol = np.zeros_like(theta)
    for m, a_m in enumerate(_STENCIL, start=1):
        symbol += 2.0 * a_m * np.sin(m * theta)
    return float(np.max(np.abs(symbol)))


_STENCIL_WAVENUMBER_MAX = _stencil_wavenumber_max()


@dataclass
class IgnitionSurrogate:
    """Parameters of the periodic reaction-diffusion ignition model.

    State layout: ``[T_0..T_{n-1}, Y_0..Y_{n-1}]``.  The default values are
    calibrated so a Gaussian hot spot first cools diffusively, then ignites
    within roughly a thousand fixed steps.  The realizability bounds are set
    snugly around the fault-free trajectory envelope: a corrupted state large
    enough to matter usually leaves the bounds and is caught by the guard,
    while every fault-free run stays comfortably inside them.
    """

    n_grid: int = 120
    length: float = 1.0
    alpha: float = 0.6  # thermal diffusivity
    diff: float = 0.6  # fuel diffusivity
    arrhenius_a: float = 2.0e6
    t_act: float = 15000.0  # activation temperature
    heat_release: float = 1500.0
    t_ambient: float = 300.0
    t_peak: float = 700.0  # hot-spot scale temperature
    sigma: float = 0.15
    x_star: float = 0.5
    t_min: float = 290.0
    t_max: float = 2750.0
    y_min: float = -0.1
    y_max: float = 1.1

    @property
    def dx(self):
        return self.length / self.n_grid

    def grid(self):
        """Cell-center coordinates."""
        return (np.arange(self.n_grid) + 0.5) * self.dx

    def default_dt(self):
        """Fixed timestep: 0.1 times the explicit diffusive stability limit.

        The conservative fraction keeps the correction sweeps strongly
        contracting through runaway, so the acceptance test normally
        converges below the sweep cap and a residual spike from a corrupted
        evaluation still leaves room for damping sweeps before the cap.
        """
        kappa_max = _STENCIL_WAVENUMBER_MAX / self.dx
        limit = 2.0 / (max(self.alpha, self.diff) * kappa_max**2)
        return 0.1 * limit

    def realizability(self, state):
        """None when the state is finite and inside the T and Y bounds, else
        a description of the first violation.

        One min/max pass per field decides: NaN and +-inf fail every bound
        comparison, so a passing state is also finite.  Only a failing state
        is scanned again, check by check in a fixed order -- non-finite
        values, T above, T below, Y above, Y below -- to name the first
        violated bound and its component.
        """
        fields = state.reshape(2, self.n_grid)
        low = np.minimum.reduce(fields, axis=1)
        high = np.maximum.reduce(fields, axis=1)
        if (
            self.t_min <= low[0]
            and high[0] <= self.t_max
            and self.y_min <= low[1]
            and high[1] <= self.y_max
        ):
            return None
        return self._violation(state)

    def _violation(self, state):
        violation = non_finite_violation(state)
        if violation is not None:
            return violation
        n = self.n_grid
        temperature = state[:n]
        fuel = state[n:]
        if np.any(temperature > self.t_max):
            index = int(np.argmax(temperature > self.t_max))
            return f"temperature above {self.t_max} at component {index}"
        if np.any(temperature < self.t_min):
            index = int(np.argmax(temperature < self.t_min))
            return f"temperature below {self.t_min} at component {index}"
        if np.any(fuel > self.y_max):
            index = int(np.argmax(fuel > self.y_max))
            return f"fuel fraction above {self.y_max} at component {n + index}"
        if np.any(fuel < self.y_min):
            index = int(np.argmax(fuel < self.y_min))
            return f"fuel fraction below {self.y_min} at component {n + index}"
        return None

    def system(self, hook=None):
        def rhs(state, t):
            return surrogate_rhs(state, t, self, system.hook)

        system = ODESystem(rhs=rhs, realizability=self.realizability, hook=hook)
        return system

    def initial_state(self):
        return gaussian_hotspot(self)


def gaussian_hotspot(cfg):
    """Initial condition: Gaussian temperature hot spot in unit fuel.

    T(x) = T_ambient + (T_peak - T_ambient) * exp(-(x - x*)^2 / (2 sigma^2))
           / (sigma * sqrt(2 pi)),  Y(x) = 1.
    """
    x = cfg.grid()
    bump = np.exp(-((x - cfg.x_star) ** 2) / (2.0 * cfg.sigma**2))
    prefactor = 1.0 / (cfg.sigma * math.sqrt(2.0 * math.pi))
    temperature = cfg.t_ambient + (cfg.t_peak - cfg.t_ambient) * prefactor * bump
    fuel = np.ones(cfg.n_grid)
    return np.concatenate((temperature, fuel))


def surrogate_rhs(state, t, cfg, hook):
    """Kernelized right-hand side of the ignition surrogate.

    Every evaluation runs the six kernel stages in a fixed order and passes
    each stage's return array through the hook, so a windowed injector sees
    a deterministic call stream.  Second derivatives come from repeated
    application of the first-derivative operator, each application taking
    both fields at once; the hook edits the rows of the gradient pair in
    place, so the fluxes see any corrupted gradient.
    """
    n = cfg.n_grid
    dx = cfg.dx
    fields = state.reshape(2, n)
    temperature, fuel = fields

    gradients = derivative_operator(fields, dx)
    hook.filter("gradient_T", gradients[0])
    hook.filter("gradient_Y", gradients[1])

    fluxes = derivative_operator(gradients, dx)
    flux_t = cfg.alpha * fluxes[0]
    hook.filter("diffusive_flux_T", flux_t)
    flux_y = cfg.diff * fluxes[1]
    hook.filter("diffusive_flux_Y", flux_y)

    omega = cfg.arrhenius_a * fuel * np.exp(-cfg.t_act / temperature)
    hook.filter("reaction_rate", omega)

    out = np.concatenate((flux_t + cfg.heat_release * omega, flux_y - omega))
    hook.filter("assembly", out)
    return out


def ignition_metrics(trajectory):
    """Scalar outcomes of a surrogate run.

    ``final_peak_T`` is the maximum temperature at the last stored time.
    ``ignition_delay`` is the first time the peak temperature crosses the
    midpoint between its initial and final values, linearly interpolated
    between outputs; NaN when the trajectory never crosses it.
    """
    if not trajectory:
        raise ValueError("trajectory is empty")
    n = trajectory[0][1].size // 2
    times = np.array([t for t, _ in trajectory])
    peaks = np.array([state for _, state in trajectory])[:, :n].max(axis=1)

    final_peak = float(peaks[-1])
    threshold = 0.5 * (peaks[0] + final_peak)
    delay = math.nan
    for i in range(len(peaks) - 1):
        if peaks[i] <= threshold < peaks[i + 1]:
            slope = (peaks[i + 1] - peaks[i]) / (times[i + 1] - times[i])
            delay = float(times[i] + (threshold - peaks[i]) / slope)
            break
    return {"final_peak_T": final_peak, "ignition_delay": delay}
