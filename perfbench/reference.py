"""Independent reference solution of the ignition surrogate.

The model is written out again here from its equations, not imported: an
eighth-order periodic first-derivative matrix (applied twice for diffusion),
single-step Arrhenius chemistry, and a Gaussian hot spot in unit fuel.  It is
integrated with scipy's DOP853 at tight tolerances.  Only the surrogate's
parameter values come from the package, as plain numbers.

Run as a script it reads ``{"params": {...}, "t_end": float}`` as JSON on
stdin and writes the final state as JSON hex floats on stdout.  It runs in its
own process so that scipy never enters the measured process's memory.
"""

import json
import math
import sys

import numpy as np

STENCIL = (4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0)


def derivative_matrix(n, dx):
    """Dense periodic eighth-order central first-derivative matrix."""
    d = np.zeros((n, n))
    for i in range(n):
        for m, a in enumerate(STENCIL, start=1):
            d[i, (i + m) % n] += a / dx
            d[i, (i - m) % n] -= a / dx
    return d


def initial_state(p):
    n = p["n_grid"]
    dx = p["length"] / n
    x = (np.arange(n) + 0.5) * dx
    bump = np.exp(-((x - p["x_star"]) ** 2) / (2.0 * p["sigma"] ** 2))
    peak = (p["t_peak"] - p["t_ambient"]) / (p["sigma"] * math.sqrt(2.0 * math.pi))
    return np.concatenate((p["t_ambient"] + peak * bump, np.ones(n)))


def final_state(p, t_end):
    from scipy.integrate import solve_ivp

    n = p["n_grid"]
    d = derivative_matrix(n, p["length"] / n)
    lap = d @ d

    def rhs(_t, y):
        temperature, fuel = y[:n], y[n:]
        omega = p["arrhenius_a"] * fuel * np.exp(-p["t_act"] / temperature)
        return np.concatenate(
            (
                p["alpha"] * (lap @ temperature) + p["heat_release"] * omega,
                p["diff"] * (lap @ fuel) - omega,
            )
        )

    sol = solve_ivp(
        rhs, (0.0, t_end), initial_state(p), method="DOP853", rtol=1e-12, atol=1e-10
    )
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


def main():
    request = json.load(sys.stdin)
    state = final_state(request["params"], float(request["t_end"]))
    json.dump([float(v).hex() for v in state], sys.stdout)


if __name__ == "__main__":
    main()
