"""Fault-tolerant spectral deferred correction time integration.

The package provides Gauss-Lobatto collocation quadrature, SDC sweeps with
a collocation residual that doubles as a soft-error detector, an explicit
Runge-Kutta baseline sharing the same kernelized fault surface, a seedable
bit-flip/scale fault injector, a residual-driven acceptance controller with
checkpoint/restart recovery, a 1-D ignition surrogate problem, and Monte
Carlo campaign tooling with a small CLI.

The package root exports only ``__version__`` and imports no submodule, so
a program loads only the submodules it imports: ``quadrature``, ``sdc``,
``rk``, ``faults``, ``resilience``, ``problems``, ``campaign`` and ``cli``.
"""

__version__ = "0.1.0"
