"""Fault-tolerant spectral deferred correction time integration.

The package provides Gauss-Lobatto collocation quadrature, SDC sweeps with
a collocation residual that doubles as a soft-error detector, an explicit
Runge-Kutta baseline sharing the same kernelized fault surface, a seedable
bit-flip/scale fault injector, a residual-driven acceptance controller with
checkpoint/restart recovery, a 1-D ignition surrogate problem, and Monte
Carlo campaign tooling with a small CLI.
"""

from .errors import (
    InsufficientHistoryError,
    NonRealizableStateError,
    UnrecoverableStepError,
)
from .quadrature import (
    QuadratureRule,
    integration_matrix,
    lobatto_nodes,
    lobatto_rule,
    node_to_node_matrix,
)
from .sdc import (
    NodeSolution,
    ODESystem,
    SweepTrace,
    integrate,
    integrate_step,
    predictor,
    residual,
    residual_max_norm,
    sdc_sweep,
    step_times,
)
from .rk import ButcherTableau, classical_rk4, rk_integrate, rk_step
from .faults import (
    FaultConfig,
    FaultEvent,
    FaultInjector,
    InjectionState,
    KernelHook,
    OneShotPerturbation,
    OneShotSpec,
    bit_flip,
    maybe_inject,
    one_shot_perturbation,
    scale_fault,
    write_event_log,
)
from .resilience import (
    ControllerConfig,
    StepCheckpoint,
    checkpointed_step,
    controller_policy,
    integrate_resilient,
    realizability_guard,
    residual_ratios,
    should_continue,
)
from .problems import (
    KERNEL_IDS,
    IgnitionSurrogate,
    LinearProblem,
    derivative_operator,
    gaussian_hotspot,
    ignition_metrics,
    linear_exact,
    surrogate_rhs,
    write_snapshot_csv,
)
from .campaign import (
    CampaignSummary,
    RunConfig,
    RunReport,
    convergence_study,
    run_campaign,
    run_single,
    sensitivity_sweep,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "InsufficientHistoryError",
    "NonRealizableStateError",
    "UnrecoverableStepError",
    "QuadratureRule",
    "integration_matrix",
    "lobatto_nodes",
    "lobatto_rule",
    "node_to_node_matrix",
    "NodeSolution",
    "ODESystem",
    "SweepTrace",
    "integrate",
    "integrate_step",
    "predictor",
    "residual",
    "residual_max_norm",
    "sdc_sweep",
    "step_times",
    "ButcherTableau",
    "classical_rk4",
    "rk_integrate",
    "rk_step",
    "FaultConfig",
    "FaultEvent",
    "FaultInjector",
    "InjectionState",
    "KernelHook",
    "OneShotPerturbation",
    "OneShotSpec",
    "bit_flip",
    "maybe_inject",
    "one_shot_perturbation",
    "scale_fault",
    "write_event_log",
    "ControllerConfig",
    "StepCheckpoint",
    "checkpointed_step",
    "controller_policy",
    "integrate_resilient",
    "realizability_guard",
    "residual_ratios",
    "should_continue",
    "KERNEL_IDS",
    "IgnitionSurrogate",
    "LinearProblem",
    "derivative_operator",
    "gaussian_hotspot",
    "ignition_metrics",
    "linear_exact",
    "surrogate_rhs",
    "write_snapshot_csv",
    "CampaignSummary",
    "RunConfig",
    "RunReport",
    "convergence_study",
    "run_campaign",
    "run_single",
    "sensitivity_sweep",
    "summarize",
]
