"""Core sweep mechanics on the scalar linear problem, and the per-node
realizability checks on the ignition surrogate."""

import math

import numpy as np
import pytest

from resilient_sdc.errors import NonRealizableStateError
from resilient_sdc.faults import KernelHook
from resilient_sdc.problems import KERNEL_IDS, IgnitionSurrogate, LinearProblem
from resilient_sdc.quadrature import lobatto_rule
from resilient_sdc.resilience import realizability_guard
from resilient_sdc.sdc import (
    integrate,
    integrate_step,
    predictor,
    residual_max_norm,
    sdc_sweep,
    step_times,
)


@pytest.fixture
def linear():
    prob = LinearProblem()
    return prob, prob.system(), prob.initial_state()


def test_step_times_exact_division():
    np.testing.assert_allclose(step_times(0.0, 1.0, 0.25), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_step_times_truncated_final_step():
    boundaries = step_times(0.0, 1.0, 0.3)
    np.testing.assert_allclose(boundaries, [0.0, 0.3, 0.6, 0.9, 1.0])
    assert boundaries[-1] == 1.0


def test_step_times_oversized_dt_gives_single_step():
    np.testing.assert_allclose(step_times(0.0, 0.1, 1.0), [0.0, 0.1])


def test_step_times_degenerate_and_invalid():
    assert list(step_times(2.0, 2.0, 0.1)) == [2.0]
    with pytest.raises(ValueError):
        step_times(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        step_times(1.0, 0.0, 0.5)


def test_predictor_is_euler_substepping(linear):
    _, sys_, phi0 = linear
    sol = predictor(phi0, lobatto_rule(3), sys_, 0.0, 1.0)
    # Euler over nodes {0, 1/2, 1} of y' = y from 1: 1, 1.5, 2.25
    np.testing.assert_allclose(
        [float(s[0]) for s in sol.node_states], [1.0, 1.5, 2.25], rtol=0.0, atol=0.0
    )
    assert abs(float(sol.node_states[-1][0]) - math.e) == pytest.approx(
        0.4682818284590451, abs=0.0
    )
    # fresh derivative stored at every node
    for state, rhs in zip(sol.node_states, sol.node_rhs):
        np.testing.assert_array_equal(rhs, state)


def test_sweeps_converge_to_the_collocation_solution(linear):
    """Repeated sweeps reach the fixed point of the collocation system."""
    _, sys_, phi0 = linear
    rule = lobatto_rule(3)
    # direct solve of phi = phi0 + dt * Q phi for y' = y, dt = 1
    direct = np.linalg.solve(np.eye(3) - rule.q_matrix, np.ones(3))

    sol = predictor(phi0, rule, sys_, 0.0, 1.0)
    for sweep in range(2, 31):
        sol = sdc_sweep(sol, rule, sys_, sweep_index=sweep)
    states = np.array([float(s[0]) for s in sol.node_states])
    assert np.max(np.abs(states - direct)) <= 1e-12

    after = sdc_sweep(sol, rule, sys_, sweep_index=31)
    change = np.max(
        np.abs(np.array([float(s[0]) for s in after.node_states]) - states)
    )
    assert change < 1e-13


def test_node_zero_is_never_touched(linear):
    _, sys_, phi0 = linear
    rule = lobatto_rule(3)
    sol = predictor(phi0, rule, sys_, 0.0, 1.0)
    for sweep in range(2, 8):
        sol = sdc_sweep(sol, rule, sys_, sweep_index=sweep)
        assert float(sol.node_states[0][0]) == 1.0


def test_residual_decays_monotonically_at_first(linear):
    _, sys_, phi0 = linear
    rule = lobatto_rule(3)
    sol = predictor(phi0, rule, sys_, 0.0, 0.5)
    norms = [residual_max_norm(sol, rule)]
    for sweep in range(2, 8):
        sol = sdc_sweep(sol, rule, sys_, sweep_index=sweep)
        norms.append(residual_max_norm(sol, rule))
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_integrate_step_fixed_count_controls_iterations(linear):
    _, sys_, phi0 = linear
    rule = lobatto_rule(3)
    _, trace = integrate_step(phi0, 0.0, 1.0, rule, sys_, 5)
    assert trace.sweeps_taken == 5
    assert len(trace.residual_maxnorms) == 5
    with pytest.raises(ValueError):
        integrate_step(phi0, 0.0, 1.0, rule, sys_, 0)


def test_integrate_step_policy_callable(linear):
    _, sys_, phi0 = linear
    rule = lobatto_rule(3)
    _, trace = integrate_step(phi0, 0.0, 1.0, rule, sys_, lambda norms: len(norms) < 3)
    assert trace.sweeps_taken == 3


def test_integrate_trajectory_layout(linear):
    prob, sys_, phi0 = linear
    trajectory, traces = integrate(phi0, 0.0, 1.0, 0.1, lobatto_rule(3), sys_, 4)
    assert len(trajectory) == 11
    assert len(traces) == 10
    times = [t for t, _ in trajectory]
    np.testing.assert_allclose(times, np.linspace(0.0, 1.0, 11), atol=1e-12)
    # fourth-order accuracy leaves a tiny error at this step size
    assert abs(float(trajectory[-1][1][0]) - prob.exact(1.0)) < 2e-6


def test_integrate_accuracy_improves_with_sweeps(linear):
    prob, sys_, phi0 = linear
    rule = lobatto_rule(3)
    errors = []
    for sweeps in (1, 2, 3, 4):
        trajectory, _ = integrate(phi0, 0.0, 1.0, 0.1, rule, sys_, sweeps)
        errors.append(abs(float(trajectory[-1][1][0]) - prob.exact(1.0)))
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_state_check_violation_aborts_with_step_index(linear):
    _, sys_, phi0 = linear

    def check(state):
        return "too large" if float(np.max(state)) > 1.5 else None

    with pytest.raises(NonRealizableStateError) as excinfo:
        integrate(phi0, 0.0, 1.0, 0.1, lobatto_rule(3), sys_, 4, state_check=check)
    assert excinfo.value.step_index is not None
    assert "too large" in str(excinfo.value)


def test_sweep_observer_sees_every_iteration(linear):
    _, sys_, phi0 = linear
    seen = []
    integrate(
        phi0,
        0.0,
        0.4,
        0.2,
        lobatto_rule(3),
        sys_,
        3,
        sweep_observer=lambda step, sweep, sol: seen.append((step, sweep)),
    )
    assert seen == [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3)]


# ---------------------------------------------------------------------------
# realizability checks on the ignition surrogate


def test_state_checks_skip_node_zero_after_the_predictor():
    """The predictor's node states are all checked; a correction sweep's
    only from node 1 on, since no sweep writes node 0."""
    prob = IgnitionSurrogate()
    sys_ = prob.system()
    rule = lobatto_rule(3)
    log = []

    def check(state):
        log.append(("check", state.copy()))
        return realizability_guard(state, sys_)

    def observe(sweep, sol):
        log.append(("sweep", sweep, sol.node_states.copy()))

    sweeps = 4
    integrate_step(prob.initial_state(), 0.0, prob.default_dt(), rule, sys_, sweeps,
                   state_check=check, sweep_observer=observe)
    checks_per_sweep, checked = [], []
    for entry in log:
        if entry[0] == "check":
            checked.append(entry[1])
            continue
        _, sweep, states = entry
        first = 0 if sweep == 1 else 1
        assert len(checked) == rule.num_nodes - first
        for state, node_state in zip(checked, states[first:]):
            assert state.tobytes() == node_state.tobytes()
        checks_per_sweep.append(len(checked))
        checked = []
    assert checks_per_sweep == [3, 2, 2, 2]


def test_unrealizable_start_aborts_at_the_predictor_node_zero():
    prob = IgnitionSurrogate()
    hook = KernelHook()
    sys_ = prob.system(hook)
    phi0 = prob.initial_state()
    phi0[0] = prob.t_max + 1.0
    with pytest.raises(NonRealizableStateError) as excinfo:
        integrate(phi0, 0.0, 3 * prob.default_dt(), prob.default_dt(), lobatto_rule(3), sys_, 4,
                  state_check=lambda state: realizability_guard(state, sys_))
    error = excinfo.value
    assert (error.step_index, error.sweep_index, error.node_index) == (0, 1, 0)
    assert str(error) == "temperature above 2750.0 at component 0 (step 0, sweep 1, node 0)"
    # the predictor evaluates every node before its states are checked
    assert hook.call_count == 3 * len(KERNEL_IDS)
