"""Acceptance controller, realizability guard, and checkpoint/restart."""

import numpy as np
import pytest

from resilient_sdc.errors import (
    InsufficientHistoryError,
    NonRealizableStateError,
    UnrecoverableStepError,
)
from resilient_sdc.faults import KernelHook
from resilient_sdc.problems import IgnitionSurrogate, LinearProblem
from resilient_sdc.quadrature import lobatto_rule
from resilient_sdc.resilience import (
    ControllerConfig,
    StepCheckpoint,
    checkpointed_step,
    controller_policy,
    integrate_resilient,
    realizability_guard,
    residual_ratios,
    should_continue,
)
from resilient_sdc.sdc import SweepTrace, integrate

CFG = ControllerConfig()


# ---------------------------------------------------------------------------
# acceptance predicate


def test_accepts_converged_and_stalled_residual():
    # residual down five orders and the last sweep barely helped: accept
    assert should_continue(1e-6, 0.95, 4, CFG) is False


def test_continues_while_residual_is_high():
    assert should_continue(1e-3, 0.95, 4, CFG) is True


def test_continues_while_still_improving():
    assert should_continue(1e-6, 0.5, 4, CFG) is True


def test_accepts_unconditionally_at_the_sweep_cap():
    assert should_continue(0.5, 0.2, 8, CFG) is False


def test_requires_minimum_sweeps():
    assert should_continue(1e-6, 0.95, 1, CFG) is True


def test_zero_residual_accepts_immediately_once_eligible():
    assert should_continue(0.0, 0.0, 2, CFG) is False


def test_controller_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(max_sweeps=1, min_sweeps=2)
    with pytest.raises(ValueError):
        ControllerConfig(max_restarts=-1)
    with pytest.raises(ValueError):
        ControllerConfig(r1_tol=0.0)


def test_residual_ratios_from_trace():
    trace = SweepTrace(residual_maxnorms=[1.0, 0.5, 0.25])
    r1, r_prev = residual_ratios(trace)
    assert r1 == 0.25
    assert r_prev == 0.5
    with pytest.raises(InsufficientHistoryError):
        residual_ratios(SweepTrace(residual_maxnorms=[1.0]))


def test_policy_matches_predicate_on_recorded_trails():
    policy = controller_policy(CFG)
    assert policy([1.0]) is True  # not enough history yet
    assert policy([1.0, 0.2]) is True
    assert policy([1.0, 1e-6, 0.99e-6]) is False
    assert policy([1.0] * CFG.max_sweeps) is False


# ---------------------------------------------------------------------------
# realizability guard


def test_guard_passes_realizable_states():
    prob = IgnitionSurrogate()
    sys_ = prob.system()
    assert realizability_guard(prob.initial_state(), sys_) is None


def test_guard_reports_bound_violations():
    prob = IgnitionSurrogate()
    sys_ = prob.system()
    state = prob.initial_state()
    state[5] = prob.t_max + 1.0
    assert "temperature above" in realizability_guard(state, sys_)
    state = prob.initial_state()
    state[5] = prob.t_min - 1.0
    assert "temperature below" in realizability_guard(state, sys_)
    state = prob.initial_state()
    state[prob.n_grid + 2] = prob.y_max + 0.5
    assert "fuel fraction above" in realizability_guard(state, sys_)


def test_guard_rejects_non_finite_components():
    prob = IgnitionSurrogate()
    sys_ = prob.system()
    state = prob.initial_state()
    state[17] = np.nan
    message = realizability_guard(state, sys_)
    assert "non-finite" in message and "17" in message


def test_guard_without_bounds_rejects_non_finite_components():
    sys_ = LinearProblem().system()
    assert realizability_guard(np.array([1.0, -2.0]), sys_) is None
    assert realizability_guard(np.array([1.0, np.inf]), sys_) == "non-finite value at component 1"


def _four_pass_guard(state, prob):
    """Reference guard: a finite scan, then one scan per bound."""
    finite = np.isfinite(state)
    if not np.all(finite):
        return f"non-finite value at component {int(np.argmin(finite))}"
    n = prob.n_grid
    temperature, fuel = state[:n], state[n:]
    if np.any(temperature > prob.t_max):
        return f"temperature above {prob.t_max} at component {int(np.argmax(temperature > prob.t_max))}"
    if np.any(temperature < prob.t_min):
        return f"temperature below {prob.t_min} at component {int(np.argmax(temperature < prob.t_min))}"
    if np.any(fuel > prob.y_max):
        return f"fuel fraction above {prob.y_max} at component {n + int(np.argmax(fuel > prob.y_max))}"
    if np.any(fuel < prob.y_min):
        return f"fuel fraction below {prob.y_min} at component {n + int(np.argmax(fuel < prob.y_min))}"
    return None


def _guard_cases(prob):
    """(name, {component: value}) cases covering every branch of the guard."""
    n = prob.n_grid
    cases = [
        ("realizable", {}),
        ("on the bounds", {3: prob.t_max, 4: prob.t_min, n + 3: prob.y_max, n + 4: prob.y_min}),
        ("T above", {5: prob.t_max + 1.0}),
        ("T below", {5: prob.t_min - 1.0}),
        ("Y above", {n + 2: prob.y_max + 0.5}),
        ("Y below", {n + 3: prob.y_min - 0.5}),
        # two violations: the first check in the fixed order wins, wherever it is
        ("T below before T above", {10: prob.t_min - 1.0, 30: prob.t_max + 1.0}),
        ("Y below and T below", {n + 1: prob.y_min - 1.0, 50: prob.t_min - 1.0}),
        ("Y above and Y below", {n + 1: prob.y_min - 1.0, n + 60: prob.y_max + 1.0}),
        ("T above and non-finite Y", {3: prob.t_max + 1.0, n + 40: np.nan}),
    ]
    for bad in (np.nan, np.inf, -np.inf):
        cases.append((f"{bad} in T", {17: bad}))
        cases.append((f"{bad} in Y", {n + 17: bad}))
    return cases


def test_one_pass_guard_matches_the_four_pass_reference():
    prob = IgnitionSurrogate()
    sys_ = prob.system()
    for name, edits in _guard_cases(prob):
        state = prob.initial_state()
        for index, value in edits.items():
            state[index] = value
        expected = _four_pass_guard(state, prob)
        assert realizability_guard(state, sys_) == expected, name
        assert (expected is None) == (name in ("realizable", "on the bounds")), name


# ---------------------------------------------------------------------------
# checkpoint capture


def test_checkpoint_is_an_independent_bitwise_copy():
    state = np.array([1.0, 2.0, 3.0])
    checkpoint = StepCheckpoint.capture(state, 0.5)
    np.testing.assert_array_equal(checkpoint.cached_state, state)
    state[0] = 99.0
    assert checkpoint.cached_state[0] == 1.0
    assert checkpoint.cached_time == 0.5


# ---------------------------------------------------------------------------
# checkpointed stepping on the surrogate


class _CorruptOnAttempts(KernelHook):
    """Writes a huge value into one kernel return on selected attempts.

    An attempt is one pass through the step's first predictor evaluation;
    the corruption makes the node state leave the temperature bounds so the
    step must restart from its checkpoint.
    """

    def __init__(self, bad_attempts):
        super().__init__()
        self.bad_attempts = set(bad_attempts)
        self.attempt = -1

    def begin_sweep(self, sweep_index):
        if sweep_index == 1:
            self.attempt += 1
        super().begin_sweep(sweep_index)

    def filter(self, kernel_id, array):
        super().filter(kernel_id, array)
        if kernel_id == "assembly" and self.attempt in self.bad_attempts:
            if self.sweep_index == 1 and self.node_index == 0:
                array[0] = 1e12
                self.bad_attempts.discard(self.attempt)


def _surrogate_step(hook):
    prob = IgnitionSurrogate()
    sys_ = prob.system(hook)
    rule = lobatto_rule(3)
    checkpoint = StepCheckpoint.capture(prob.initial_state(), 0.0)
    return checkpointed_step(checkpoint, prob.default_dt(), rule, sys_, CFG)


def test_restart_recovers_and_matches_the_clean_step():
    clean_state, clean_trace = _surrogate_step(None)
    state, trace = _surrogate_step(_CorruptOnAttempts([0]))
    assert trace.restarts == 1
    assert clean_trace.restarts == 0
    np.testing.assert_array_equal(state, clean_state)
    assert trace.residual_maxnorms == clean_trace.residual_maxnorms


def test_restart_budget_exhaustion_raises():
    always_bad = _CorruptOnAttempts(range(CFG.max_restarts + 1))
    with pytest.raises(UnrecoverableStepError) as excinfo:
        _surrogate_step(always_bad)
    assert excinfo.value.restarts == CFG.max_restarts


def test_integrate_resilient_attaches_step_index_on_abort():
    prob = IgnitionSurrogate()
    hook = _CorruptOnAttempts(range(CFG.max_restarts + 1))
    with pytest.raises(UnrecoverableStepError) as excinfo:
        integrate_resilient(
            prob.initial_state(), 0.0, 5 * prob.default_dt(), prob.default_dt(),
            lobatto_rule(3), prob.system(hook), CFG,
        )
    assert excinfo.value.step_index == 0
    assert str(excinfo.value).endswith(f"at step 0 after {CFG.max_restarts} restarts")


def test_resilient_trajectory_matches_fixed_run_when_counts_agree():
    """With the cap forced low, the controller degenerates to fixed sweeps."""
    prob = LinearProblem()
    cfg = ControllerConfig(max_sweeps=4, min_sweeps=4)
    resilient_traj, resilient_traces = integrate_resilient(
        prob.initial_state(), 0.0, 1.0, 0.1, lobatto_rule(3), prob.system(), cfg
    )
    fixed_traj, _ = integrate(
        prob.initial_state(), 0.0, 1.0, 0.1, lobatto_rule(3), prob.system(), 4
    )
    assert all(tr.sweeps_taken == 4 for tr in resilient_traces)
    for (t1, s1), (t2, s2) in zip(resilient_traj, fixed_traj):
        assert t1 == t2
        np.testing.assert_array_equal(s1, s2)
