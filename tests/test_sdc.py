"""Core sweep mechanics on the scalar linear problem, and the per-node
realizability checks on the ignition surrogate."""

import itertools
import math

import numpy as np
import pytest

from resilient_sdc.errors import NonRealizableStateError
from resilient_sdc.faults import KernelHook
from resilient_sdc.problems import KERNEL_IDS, IgnitionSurrogate, LinearProblem
from resilient_sdc.quadrature import lobatto_rule
from resilient_sdc.resilience import realizability_guard
from resilient_sdc.sdc import (
    NodeSolution,
    ODESystem,
    integrate,
    integrate_step,
    predictor,
    residual,
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


def _reference_step_times(t0, t_end, dt):
    """``step_times`` with its whole-step test written with ``np.isclose``."""
    span = t_end - t0
    if span == 0.0:
        return np.array([t0])
    n_whole = int(round(span / dt))
    if n_whole < 1 or not np.isclose(n_whole * dt, span, rtol=1e-9, atol=0.0):
        n_whole = int(np.floor(span / dt))
    boundaries = t0 + dt * np.arange(n_whole + 1)
    if t_end - boundaries[-1] > 1e-12 * max(abs(t_end), dt):
        boundaries = np.append(boundaries, t_end)
    else:
        boundaries[-1] = t_end
    return boundaries


def test_step_times_matches_the_isclose_reference():
    """Whole multiples, spans within and just outside 1e-9 relative of a
    multiple on both sides, truncated final steps, t0 != 0, and dt larger
    than the span."""
    grid = itertools.product(
        (0.0, 0.3, -1.7, 1.0e3),  # t0
        (0.1, 0.25, 1.0 / 3.0, 7.0e-6),  # dt
        (0.4, 1, 2, 7, 100),  # whole steps in the span
        (0.0, 4e-10, -4e-10, 9.99e-10, -9.99e-10, 1.001e-9, -1.001e-9, 3e-9, -3e-9, 0.37),
    )
    for t0, dt, steps, offset in grid:
        for t_end in (t0 + steps * dt * (1.0 + offset), t0 + (steps + offset) * dt):
            want = _reference_step_times(t0, t_end, dt)
            assert step_times(t0, t_end, dt).tobytes() == want.tobytes(), (t0, t_end, dt)


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


# ---------------------------------------------------------------------------
# the in-place sweep arithmetic against the expressions it replaced


def _reference_predictor(phi_n, rule, sys, t_start, dt):
    phi_n = np.asarray(phi_n, dtype=float)
    num_nodes = rule.num_nodes
    times = t_start + dt * rule.nodes
    if sys.hook is not None:
        sys.hook.begin_sweep(1)

    def evaluate(state, m):
        if sys.hook is not None:
            sys.hook.begin_node(m)
        f = sys.rhs(state, times[m])
        if not np.isfinite(f).all():
            raise NonRealizableStateError("non-finite rhs evaluation", node_index=m, sweep_index=1)
        return f

    states = np.empty((num_nodes, phi_n.size))
    rhs_vals = np.empty_like(states)
    states[0] = phi_n
    if not np.isfinite(states[0]).all():
        raise NonRealizableStateError("non-finite state", node_index=0, sweep_index=1)
    rhs_vals[0] = evaluate(states[0], 0)
    for m in range(num_nodes - 1):
        states[m + 1] = states[m] + (times[m + 1] - times[m]) * rhs_vals[m]
        if not np.isfinite(states[m + 1]).all():
            raise NonRealizableStateError("non-finite state", node_index=m + 1, sweep_index=1)
        rhs_vals[m + 1] = evaluate(states[m + 1], m + 1)
    return NodeSolution(states, rhs_vals, t_start, dt, times)


def _reference_sweep(sol, rule, sys, *, sweep_index=None):
    if sys.hook is not None and sweep_index is not None:
        sys.hook.begin_sweep(sweep_index)
    times = sol.times
    new_states = sol.node_states.copy()
    new_rhs = sol.node_rhs.copy()
    for m in range(rule.num_nodes - 1):
        integral = sol.dt * (rule.s_matrix[m] @ sol.node_rhs)
        euler_diff = (times[m + 1] - times[m]) * (new_rhs[m] - sol.node_rhs[m])
        new_states[m + 1] = new_states[m] + euler_diff + integral
        if not np.isfinite(new_states[m + 1]).all():
            raise NonRealizableStateError(
                "non-finite state", node_index=m + 1, sweep_index=sweep_index
            )
        if sys.hook is not None:
            sys.hook.begin_node(m + 1)
        f = sys.rhs(new_states[m + 1], times[m + 1])
        if not np.isfinite(f).all():
            raise NonRealizableStateError(
                "non-finite rhs evaluation", node_index=m + 1, sweep_index=sweep_index
            )
        new_rhs[m + 1] = f
    return NodeSolution(new_states, new_rhs, sol.t_start, sol.dt, times)


def _reference_residual(sol, rule):
    phi_n = sol.node_states[0]
    return phi_n[None, :] + sol.dt * (rule.q_matrix @ sol.node_rhs) - sol.node_states


def _solution_bytes(sol):
    return (sol.node_states.tobytes(), sol.node_rhs.tobytes(), sol.times.tobytes(), sol.dt)


def _signed_zero_system():
    """A small system whose rhs and states keep both signs of zero."""
    phi0 = np.array([0.0, -0.0, 1.5, -2.5, -0.0])
    return ODESystem(dimension=phi0.size, rhs=lambda y, t: -y * (1.0 + t)), phi0


def _bitwise_cases():
    linear = LinearProblem(s=-0.7, y0=1.3)
    yield "linear", linear.system(), linear.initial_state(), 0.3
    negative_zero = LinearProblem(y0=-0.0)
    yield "linear -0.0", negative_zero.system(), negative_zero.initial_state(), 0.3
    yield ("signed zeros", *_signed_zero_system(), 0.4)
    prob = IgnitionSurrogate()
    dt = prob.default_dt()
    hot_spot = prob.initial_state()
    yield "hot spot", prob.system(KernelHook()), hot_spot, dt
    yield "hot spot x 1e150", prob.system(), hot_spot * 1.0e150, dt
    yield "hot spot x 1e-150", prob.system(), hot_spot * 1.0e-150, dt
    fuel_zeros = hot_spot.copy()
    fuel_zeros[prob.n_grid :: 7] = -0.0
    fuel_zeros[prob.n_grid + 3 :: 7] = 0.0
    yield "hot spot, fuel with +-0.0", prob.system(), fuel_zeros, dt


@pytest.mark.parametrize("num_nodes", [2, 3, 4, 5, 6])
def test_in_place_sweeps_and_residuals_are_bitwise_equal_to_the_reference(num_nodes):
    rule = lobatto_rule(num_nodes)
    for label, sys_, phi0, dt in _bitwise_cases():
        sol = predictor(phi0, rule, sys_, 0.25, dt)
        ref = _reference_predictor(phi0, rule, sys_, 0.25, dt)
        for sweep in range(1, 6):
            if sweep > 1:
                before = _solution_bytes(sol)
                new = sdc_sweep(sol, rule, sys_, sweep_index=sweep)
                # a sweep returns a fresh iterate and leaves its input alone
                assert _solution_bytes(sol) == before
                assert not np.shares_memory(new.node_states, sol.node_states)
                assert not np.shares_memory(new.node_rhs, sol.node_rhs)
                sol = new
                ref = _reference_sweep(ref, rule, sys_, sweep_index=sweep)
            assert _solution_bytes(sol) == _solution_bytes(ref), (label, sweep)
            expected = _reference_residual(ref, rule)
            assert residual(sol, rule).tobytes() == expected.tobytes(), (label, sweep)
            norm = residual_max_norm(sol, rule)
            assert float.hex(norm) == float.hex(float(np.max(np.abs(expected)))), (label, sweep)


def _planted_system(plant, value):
    """rhs -1e-12 * y, except at the (sweep, node) ``plant``, where every
    component is ``value``: inf or NaN fails the rhs check there, and 1e300
    times a width of dt = 1e10 overflows the next state formed from it."""
    hook = KernelHook()
    hook.evaluated = []

    def rhs(y, t):
        hook.evaluated.append((hook.sweep_index, hook.node_index))
        if (hook.sweep_index, hook.node_index) == plant:
            return np.full_like(y, value)
        return y * -1.0e-12

    return ODESystem(dimension=3, rhs=rhs, hook=hook)


def _run_sweeps(start, sweep, phi0, rule, sys_, sweeps):
    """Predictor plus sweeps: the error raised, else the last iterate's
    bytes, then the (sweep, node) of every rhs evaluation made."""
    sys_.hook.evaluated.clear()
    try:
        sol = start(phi0, rule, sys_, 0.0, 1.0e10)
        for index in range(2, sweeps + 1):
            sol = sweep(sol, rule, sys_, sweep_index=index)
    except NonRealizableStateError as exc:
        outcome = ("raised", str(exc), exc.node_index, exc.sweep_index)
    else:
        outcome = ("completed", _solution_bytes(sol))
    return outcome + (tuple(sys_.hook.evaluated),)


@pytest.mark.parametrize("num_nodes", [2, 3, 4, 5, 6])
def test_non_finite_values_raise_where_the_reference_raises(num_nodes):
    rule = lobatto_rule(num_nodes)
    phi0 = np.array([1.0, -0.0, 2.0])
    sweeps = 4
    cases = [
        (sweep, node, value)
        for sweep in range(1, sweeps + 1)
        for node in range(num_nodes)
        for value in (np.inf, np.nan, 1.0e300)
    ]
    for sweep, node, value in cases:
        sys_ = _planted_system((sweep, node), value)
        with np.errstate(over="ignore", invalid="ignore"):
            outcome = _run_sweeps(predictor, sdc_sweep, phi0, rule, sys_, sweeps)
            reference = _run_sweeps(
                _reference_predictor, _reference_sweep, phi0, rule, sys_, sweeps
            )
        assert outcome == reference, (sweep, node, value)
        if not np.isfinite(value) and (sweep == 1 or node > 0):
            expected = f"non-finite rhs evaluation (sweep {sweep}, node {node})"
            assert outcome[:4] == ("raised", expected, node, sweep)
    # a non-finite start state fails at node 0 of the predictor
    bad_start = phi0.copy()
    bad_start[1] = np.nan
    sys_ = _planted_system(None, 0.0)
    outcome = _run_sweeps(predictor, sdc_sweep, bad_start, rule, sys_, sweeps)
    assert outcome == ("raised", "non-finite state (sweep 1, node 0)", 0, 1, ())
    assert outcome == _run_sweeps(
        _reference_predictor, _reference_sweep, bad_start, rule, sys_, sweeps
    )
