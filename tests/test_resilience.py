"""Acceptance controller, realizability guard, and checkpoint/restart."""

from dataclasses import replace

import numpy as np
import pytest

import resilient_sdc.resilience as resilience_module
import resilient_sdc.sdc as sdc_module
from resilient_sdc.campaign import RunConfig, run_single
from resilient_sdc.errors import (
    IntegrationError,
    NonRealizableStateError,
    UnrecoverableStepError,
)
from resilient_sdc.faults import FaultConfig, KernelHook
from resilient_sdc.problems import IgnitionSurrogate, LinearProblem
from resilient_sdc.quadrature import lobatto_rule
from resilient_sdc.resilience import (
    ControllerConfig,
    checkpointed_step,
    converged,
    integrate_resilient,
    realizability_guard,
)
from resilient_sdc.rk import rk_integrate
from resilient_sdc.sdc import integrate, integrate_step

CFG = ControllerConfig()


# ---------------------------------------------------------------------------
# acceptance predicate


def _trail(r1, r_prev, sweeps):
    """Residual max-norms over ``sweeps`` sweeps (at least three) whose last
    entry is ``r1`` times the first and ``r_prev`` times the one before."""
    return [1.0] + [0.5] * (sweeps - 3) + [r1 / r_prev, r1]


def _step_on_trail(trail, cfg=CFG):
    """One ``integrate_step`` of the linear problem at ``cfg``'s cap whose
    acceptance test applies ``converged`` to ``trail``, scripted residual
    norms, in place of the step's own.  Returns (the norm count of each
    test, the step's sweep count, its capped flag)."""
    seen = []

    def accept(norms):
        assert len(norms) <= len(trail)
        seen.append(len(norms))
        return converged(trail[: len(norms)], cfg)

    prob = LinearProblem()
    _, trace = integrate_step(prob.initial_state(), 0.0, 0.1, lobatto_rule(3), prob.system(),
                              cfg.max_sweeps, accept)
    return seen, trace.sweeps_taken, trace.capped


def test_accepts_converged_and_stalled_residual():
    # residual down six orders and the last sweep barely helped: accept
    norms = _trail(1e-6, 0.95, 4)
    assert converged(norms, CFG) is True
    assert _step_on_trail(norms) == ([2, 3, 4], 4, False)


def test_continues_while_residual_is_high():
    norms = _trail(1e-3, 0.95, 4)
    assert converged(norms, CFG) is False
    # the residual never drops far enough, so the step runs to the cap
    trail = norms + [1e-3] * (CFG.max_sweeps - 4)
    assert _step_on_trail(trail) == (list(range(2, CFG.max_sweeps + 1)), CFG.max_sweeps, True)


def test_continues_while_still_improving():
    norms = _trail(1e-6, 0.5, 4)
    assert converged(norms, CFG) is False
    # one more sweep that barely helps is accepted
    assert _step_on_trail(norms + [0.99e-6] * 4) == ([2, 3, 4, 5], 5, False)


def test_accepts_unconditionally_at_the_sweep_cap():
    # the loop stops at max_sweeps; the test is not met, so the step is capped
    norms = _trail(0.5, 0.2, CFG.max_sweeps)
    assert converged(norms, CFG) is False
    assert _step_on_trail(norms) == (list(range(2, CFG.max_sweeps + 1)), CFG.max_sweeps, True)


def test_requires_minimum_sweeps():
    """The first test comes at the two norms ``converged`` needs, even on a
    trail it accepts at once, and at the lowest cap the loop stops there."""
    assert _step_on_trail([0.0] * CFG.max_sweeps) == ([2], 2, False)
    assert _step_on_trail([1.0, 0.5], ControllerConfig(max_sweeps=2)) == ([2], 2, True)


def test_zero_residual_accepts_immediately_once_eligible():
    assert converged([1.0, 0.0], CFG) is True
    assert _step_on_trail([1.0, 0.0]) == ([2], 2, False)
    # a zero first residual counts as converged too
    assert converged([0.0, 1e-3], CFG) is True
    # a zero previous residual reads as still improving (r_prev = 0)
    assert converged([1.0, 0.0, 1e-7], CFG) is False


def test_controller_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(max_sweeps=1)
    with pytest.raises(TypeError):  # the sweep loop's cap is a count
        ControllerConfig(max_sweeps=2.5)
    with pytest.raises(ValueError):
        ControllerConfig(max_restarts=-1)
    with pytest.raises(ValueError):
        ControllerConfig(r1_tol=0.0)
    for ratio_tol in (0.0, 1.5):
        with pytest.raises(ValueError, match=rf"^ratio_tol must be in \(0, 1\], got {ratio_tol}$"):
            ControllerConfig(ratio_tol=ratio_tol)
    ControllerConfig(ratio_tol=1.0)


def test_converged_measures_against_the_first_and_previous_sweep():
    # r1 = 0.25 (latest over first), r_prev = 0.5 (latest over previous)
    norms = [1.0, 0.5, 0.25]
    assert converged(norms, ControllerConfig(r1_tol=0.26, ratio_tol=0.49)) is True
    assert converged(norms, ControllerConfig(r1_tol=0.25, ratio_tol=0.49)) is False
    assert converged(norms, ControllerConfig(r1_tol=0.26, ratio_tol=0.5)) is False


def test_the_loop_stops_where_the_predicate_first_holds():
    """On each trail the step takes the first length from two on at which
    ``converged`` holds, testing once per correction sweep, or stops capped
    at ``max_sweeps``."""
    cap = CFG.max_sweeps
    trails = [
        [1.0, 1e-6, 0.99e-6] + [0.99e-6] * (cap - 3),
        [1.0, 0.2] + [0.2 ** k for k in range(2, cap)],
        [1.0] * cap,
        [1.0, 0.0] + [1.0] * (cap - 2),
        _trail(1e-6, 0.95, cap),
    ]
    for trail in trails:
        accepted = [n for n in range(2, cap + 1) if converged(trail[:n], CFG)]
        sweeps = accepted[0] if accepted else cap
        assert _step_on_trail(trail) == (list(range(2, sweeps + 1)), sweeps, not accepted)


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


def test_resilience_reexports_the_sdc_guard():
    assert realizability_guard is sdc_module.realizability_guard


def _bounded_linear_system():
    """y' = y whose own realizability rejects y > 1.5.  exp(t) passes 1.5 at
    t = 0.405, so with dt = 0.1 step 4 is the first whose node states (SDC,
    node 1 at t = 0.45) or end state (RK, at t = 0.5) fail."""
    sys_ = LinearProblem().system()
    sys_.realizability = lambda state: "y above 1.5" if float(state[0]) > 1.5 else None
    return sys_


def test_every_integrator_applies_the_system_realizability():
    phi0 = LinearProblem().initial_state()
    rule = lobatto_rule(3)
    with pytest.raises(NonRealizableStateError) as plain:
        integrate(phi0, 0.0, 1.0, 0.1, rule, _bounded_linear_system(), 4)
    with pytest.raises(NonRealizableStateError) as rk:
        rk_integrate(phi0, 0.0, 1.0, 0.1, _bounded_linear_system())
    with pytest.raises(UnrecoverableStepError) as resilient:
        integrate_resilient(phi0, 0.0, 1.0, 0.1, rule, _bounded_linear_system(), CFG)
    assert plain.value.step_index == rk.value.step_index == resilient.value.step_index == 4
    assert plain.value.detail == rk.value.detail == resilient.value.__cause__.detail
    assert plain.value.detail == "y above 1.5"
    assert resilient.value.detail == "step failed realizability after retries: y above 1.5"
    assert (plain.value.sweep_index, plain.value.node_index) == (1, 1)
    assert (rk.value.sweep_index, rk.value.node_index) == (1, None)
    # one base class; only a spent restart budget counts restarts
    errors = (plain.value, rk.value, resilient.value)
    assert all(isinstance(error, IntegrationError) for error in errors)
    assert [error.restarts for error in errors] == [0, 0, CFG.max_restarts]
    assert [str(error) for error in errors] == [
        "y above 1.5 (step 4, sweep 1, node 1)",
        "y above 1.5 (step 4, sweep 1)",
        "step failed realizability after retries: y above 1.5 at step 4 after "
        f"{CFG.max_restarts} restarts",
    ]


@pytest.mark.parametrize("integrator", ["sdc", "rk", "sdc_resilient"])
def test_trajectory_states_are_distinct_arrays(integrator):
    """``march`` keeps each state a step returns without copying it: no two
    trajectory states share memory, and the caller's ``phi_0`` is neither
    kept nor changed."""
    prob = IgnitionSurrogate()
    phi0 = prob.initial_state()
    before = phi0.tobytes()
    sys_ = prob.system()
    dt = prob.default_dt()
    rule = lobatto_rule(3)
    if integrator == "sdc":
        trajectory, _ = integrate(phi0, 0.0, 3 * dt, dt, rule, sys_, 3)
    elif integrator == "rk":
        trajectory = rk_integrate(phi0, 0.0, 3 * dt, dt, sys_)
    else:
        trajectory, _ = integrate_resilient(phi0, 0.0, 3 * dt, dt, rule, sys_, CFG)
    states = [phi0] + [state for _, state in trajectory]
    assert len(states) == 5
    for i, a in enumerate(states):
        for b in states[i + 1 :]:
            assert not np.shares_memory(a, b)
    assert phi0.tobytes() == before
    assert trajectory[0][1].tobytes() == before
    assert all(type(t) is float for t, _ in trajectory)


def test_resilient_linear_run_calls_no_guard(monkeypatch):
    calls = []

    def counted_guard(state, sys):
        calls.append(state)
        return realizability_guard(state, sys)

    for module in (sdc_module, resilience_module):
        monkeypatch.setattr(module, "realizability_guard", counted_guard, raising=False)
    report = run_single(RunConfig(problem="linear", integrator="sdc_resilient"))
    assert report.metrics["steps"] == 10
    assert calls == []
    # an ignition run, whose system has a realizability, is checked at every
    # node after the predictor and at nodes 1 and 2 after each sweep
    dt = IgnitionSurrogate().default_dt()
    report = run_single(RunConfig(integrator="sdc_resilient", t_end=2 * dt))
    assert len(calls) == sum(3 + 2 * (trace.sweeps_taken - 1) for trace in report.traces)
    assert len(calls) > 0


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
    """The step keeps its own copy of the start state: a caller that
    mutates ``phi_n`` after the call (here, during the first attempt)
    cannot reach the restart, which starts from the stored bits."""
    prob = LinearProblem()
    phi_n = np.array([1.25])
    attempts = []

    class Mutating(KernelHook):
        def begin_node(self, sweep_index, node_index, state):
            super().begin_node(sweep_index, node_index, state)
            if (sweep_index, node_index) == (1, 0):
                attempts.append(None)

        def filter(self, kernel_id, array):
            super().filter(kernel_id, array)
            if len(attempts) == 1 and self.node_index == 0:
                phi_n[0] = 99.0  # the caller's array, after the call began
                array[0] = np.inf  # and a fault that forces a restart

    state, trace = checkpointed_step(phi_n, 0.5, 0.1, lobatto_rule(3),
                                     prob.system(Mutating()), CFG)
    clean_state, clean_trace = checkpointed_step(np.array([1.25]), 0.5, 0.1, lobatto_rule(3),
                                                 prob.system(), CFG)
    assert phi_n[0] == 99.0
    assert trace.restarts == 1 and clean_trace.restarts == 0
    assert state.tobytes() == clean_state.tobytes()
    assert trace.residual_maxnorms == clean_trace.residual_maxnorms


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

    def begin_node(self, sweep_index, node_index, state):
        if (sweep_index, node_index) == (1, 0):
            self.attempt += 1
        super().begin_node(sweep_index, node_index, state)

    def filter(self, kernel_id, array):
        super().filter(kernel_id, array)
        if kernel_id == "assembly" and self.attempt in self.bad_attempts:
            if self.sweep_index == 1 and self.node_index == 0:
                array[0] = 1e12
                self.bad_attempts.discard(self.attempt)


def _surrogate_step(hook):
    prob = IgnitionSurrogate()
    sys_ = prob.system(hook)
    return checkpointed_step(prob.initial_state(), 0.0, prob.default_dt(), lobatto_rule(3),
                             sys_, CFG)


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
    assert excinfo.value.traces == []

    # attempts 0 and 1 are steps 0 and 1; every attempt at step 2 fails
    hook = _CorruptOnAttempts(range(2, CFG.max_restarts + 3))
    with pytest.raises(UnrecoverableStepError) as excinfo:
        integrate_resilient(
            prob.initial_state(), 0.0, 5 * prob.default_dt(), prob.default_dt(),
            lobatto_rule(3), prob.system(hook), CFG,
        )
    assert excinfo.value.step_index == 2
    assert len(excinfo.value.traces) == 2
    assert [trace.restarts for trace in excinfo.value.traces] == [0, 0]
    assert str(excinfo.value).endswith(f"at step 2 after {CFG.max_restarts} restarts")


def test_resilient_trajectory_matches_fixed_run_when_counts_agree():
    """With the cap forced low, the controller degenerates to fixed sweeps."""
    prob = LinearProblem()
    cfg = ControllerConfig(max_sweeps=2)
    resilient_traj, resilient_traces = integrate_resilient(
        prob.initial_state(), 0.0, 1.0, 0.1, lobatto_rule(3), prob.system(), cfg
    )
    fixed_traj, _ = integrate(
        prob.initial_state(), 0.0, 1.0, 0.1, lobatto_rule(3), prob.system(), 2
    )
    assert len(resilient_traces) == len(fixed_traj) - 1 == 10
    assert all(tr.sweeps_taken == 2 for tr in resilient_traces)
    for (t1, s1), (t2, s2) in zip(resilient_traj, fixed_traj):
        assert t1 == t2
        np.testing.assert_array_equal(s1, s2)


# ---------------------------------------------------------------------------
# capped steps


def _trace_capped(trace, controller):
    """Reference: the acceptance test applied after the fact to a recorded
    trace, as the campaign layer once did."""
    if trace.sweeps_taken < controller.max_sweeps:
        return False
    norms = trace.residual_maxnorms
    r1 = norms[-1] / norms[0] if norms[0] != 0.0 else 0.0
    r_prev = norms[-1] / norms[-2] if norms[-2] != 0.0 else 0.0
    satisfied = r1 == 0.0 or (r1 < controller.r1_tol and r_prev > controller.ratio_tol)
    return not satisfied


def _resilient_reports():
    dt = IgnitionSurrogate().default_dt()
    yield run_single(RunConfig(integrator="sdc_resilient", t_end=200 * dt))
    member = RunConfig(integrator="sdc_resilient", t_end=20 * dt)
    for seed in (101, 4242):
        fault = FaultConfig(mode="type_b", window=96, seed=seed)
        for run_id in range(12):
            yield run_single(replace(member, fault=fault, run_id=run_id))


def test_trace_capped_matches_the_after_the_fact_reference():
    flags = []
    for report in _resilient_reports():
        for trace in report.traces:
            assert trace.capped == _trace_capped(trace, report.config.controller)
            flags.append(trace.capped)
        if report.status != "aborted":
            assert (report.status == "capped") == any(t.capped for t in report.traces)
    assert True in flags and False in flags


def test_fixed_sweep_traces_are_never_capped():
    # at the controller's cap, the reference would call some of these steps capped
    controller = ControllerConfig()
    cfg = RunConfig(
        integrator="sdc_fixed", sweeps=controller.max_sweeps,
        t_end=200 * IgnitionSurrogate().default_dt(),
    )
    report = run_single(cfg)
    assert report.status == "clean"
    assert not any(trace.capped for trace in report.traces)
    assert any(_trace_capped(trace, controller) for trace in report.traces)
