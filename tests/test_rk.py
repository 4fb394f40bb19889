"""Classical RK4 baseline: coefficient checks and convergence."""

import math

import numpy as np
import pytest

from resilient_sdc.errors import NonRealizableStateError
from resilient_sdc.faults import KernelHook
from resilient_sdc.problems import LinearProblem
from resilient_sdc import rk
from resilient_sdc.rk import rk_integrate, rk_step
from test_sdc import _bitwise_cases, _planted_system


def test_classical_tableau_coefficients():
    np.testing.assert_array_equal(rk._C, [0.0, 0.5, 0.5, 1.0])
    np.testing.assert_array_equal(rk._B, [1 / 6, 1 / 3, 1 / 3, 1 / 6])
    np.testing.assert_array_equal(
        rk._A, [[0, 0, 0, 0], [0.5, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, 1, 0]]
    )


def _is_explicit_consistent_tableau(a, b, c):
    """The conditions a Butcher tableau of an explicit method must meet:
    matching shapes, strictly lower-triangular ``a``, weights summing to 1
    and row sums equal to ``c``."""
    a, b, c = (np.asarray(x, dtype=float) for x in (a, b, c))
    s = b.size
    return (
        a.shape == (s, s)
        and c.size == s
        and bool(np.all(a[np.triu_indices(s)] == 0.0))
        and abs(b.sum() - 1.0) <= 1e-14
        and float(np.max(np.abs(a.sum(axis=1) - c))) <= 1e-14
    )


def test_tableau_validation_rejects_bad_coefficients():
    """The module coefficients meet the explicit-tableau conditions, and the
    check of them rejects each kind of bad coefficient."""
    a, b, c = rk._A, rk._B, rk._C
    assert _is_explicit_consistent_tableau(a, b, c)
    assert not _is_explicit_consistent_tableau(a, b * 2.0, c)
    assert not _is_explicit_consistent_tableau(a.T, b, c)
    assert not _is_explicit_consistent_tableau(a, b, c + 0.25)
    assert not _is_explicit_consistent_tableau(np.zeros((3, 3)), b, c)


def test_classical_tableau_is_cached_and_read_only():
    """The coefficients are built once per process, at import, and no caller
    can change them."""
    import importlib

    assert importlib.import_module("resilient_sdc.rk")._B is rk._B
    for array in (rk._A, rk._B, rk._C):
        with pytest.raises(ValueError):
            array[0] = 1.0
    np.testing.assert_array_equal(rk._B, [1 / 6, 1 / 3, 1 / 3, 1 / 6])


def test_single_step_matches_fourth_order_taylor():
    """On y' = y the classical method reproduces the degree-4 Taylor sum."""
    prob = LinearProblem()
    sys_ = prob.system()
    h = 0.1
    result = rk_step(prob.initial_state(), 0.0, h, sys_)
    taylor = 1.0 + h + h**2 / 2 + h**3 / 6 + h**4 / 24
    assert float(result[0]) == pytest.approx(taylor, abs=5e-16)


def test_fourth_order_convergence():
    prob = LinearProblem()
    errors = []
    dts = [0.1, 0.05, 0.025]
    for dt in dts:
        trajectory = rk_integrate(prob.initial_state(), 0.0, 1.0, dt, prob.system())
        errors.append(abs(float(trajectory[-1][1][0]) - math.e))
    slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    assert 3.7 <= slope <= 4.3


def test_trajectory_layout_and_determinism():
    prob = LinearProblem()
    first = rk_integrate(prob.initial_state(), 0.0, 1.0, 0.1, prob.system())
    second = rk_integrate(prob.initial_state(), 0.0, 1.0, 0.1, prob.system())
    assert len(first) == 11
    for (t1, s1), (t2, s2) in zip(first, second):
        assert t1 == t2
        np.testing.assert_array_equal(s1, s2)


def test_state_check_violation_aborts():
    prob = LinearProblem()

    def check(state):
        return "over threshold" if float(state[0]) > 2.0 else None

    sys_ = prob.system()
    sys_.realizability = check
    with pytest.raises(NonRealizableStateError) as excinfo:
        rk_integrate(prob.initial_state(), 0.0, 1.0, 0.1, sys_)
    assert excinfo.value.step_index is not None
    # exp(t) passes 2.0 at t = 0.693, so step 6 (ending at t = 0.7) is the
    # first whose end state fails; RK keeps no traces
    assert excinfo.value.step_index == 6
    assert len(excinfo.value.traces) == 0


def test_non_finite_stage_detected():
    prob = LinearProblem(s=1.0, y0=math.inf)
    with pytest.raises(NonRealizableStateError):
        rk_integrate(prob.initial_state(), 0.0, 1.0, 0.5, prob.system())


def test_hook_sees_every_stage_evaluation():
    prob = LinearProblem()
    hook = KernelHook()
    rk_integrate(prob.initial_state(), 0.0, 1.0, 0.25, prob.system(hook))
    # 4 steps x 4 stages, one kernel call each on the scalar problem
    assert hook.call_count == 16


# ---------------------------------------------------------------------------
# rk_step against the ``@``-product, two-call finite-check form it replaced


def _reference_rk_step(phi_n, t, dt, sys):
    phi_n = np.asarray(phi_n, dtype=float)
    hook = sys.hook
    k = np.empty((rk._B.size, phi_n.size))
    for i in range(rk._B.size):
        stage_state = phi_n + dt * (rk._A[i, :i] @ k[:i])
        if not np.isfinite(stage_state).all():
            raise NonRealizableStateError("non-finite state", node_index=i, sweep_index=1)
        hook.begin_node(1, i, stage_state)
        k[i] = sys.rhs(stage_state, t + rk._C[i] * dt)
        if not np.isfinite(k[i]).all():
            raise NonRealizableStateError(
                "non-finite rhs evaluation", node_index=i, sweep_index=1
            )
    return phi_n + dt * (rk._B @ k)


def test_rk_step_is_bitwise_equal_to_the_reference():
    """Three chained steps from each input: the linear problem, states with
    both signs of zero, and the hot spot, also scaled by 1e+-150."""
    for label, sys_, phi0, dt in _bitwise_cases():
        state = ref = phi0
        for step in range(3):
            t = 0.25 + step * dt
            calls = sys_.hook.call_count
            state = rk_step(state, t, dt, sys_)
            new_calls = sys_.hook.call_count - calls
            ref = _reference_rk_step(ref, t, dt, sys_)
            assert sys_.hook.call_count - calls == 2 * new_calls, (label, step)
            assert state.tobytes() == ref.tobytes(), (label, step)


def _run_rk_step(step, phi0, sys_):
    """One step with dt = 1e10: the error raised, else the end state's
    bytes, then the (sweep, stage) of every rhs evaluation made."""
    sys_.hook.evaluated.clear()
    try:
        result = step(phi0, 0.0, 1.0e10, sys_)
    except NonRealizableStateError as exc:
        outcome = ("raised", str(exc), exc.node_index, exc.sweep_index)
    else:
        outcome = ("completed", result.tobytes())
    return outcome + (tuple(sys_.hook.evaluated),)


def test_non_finite_stage_values_raise_where_the_reference_raises():
    """inf or NaN stage rhs values fail that stage's rhs check; 1e300 makes
    the next stage value overflow, or, planted at the last stage, the end
    state."""
    phi0 = np.array([1.0, -0.0, 2.0])
    for stage in range(rk._B.size):
        for value in (np.inf, np.nan, 1.0e300):
            sys_ = _planted_system((1, stage), value)
            with np.errstate(over="ignore", invalid="ignore"):
                outcome = _run_rk_step(rk_step, phi0, sys_)
                reference = _run_rk_step(_reference_rk_step, phi0, sys_)
            assert outcome == reference, (stage, value)
            if not np.isfinite(value):
                expected = f"non-finite rhs evaluation (sweep 1, node {stage})"
                assert outcome[:4] == ("raised", expected, stage, 1)
            elif stage < 3:
                expected = f"non-finite state (sweep 1, node {stage + 1})"
                assert outcome[:4] == ("raised", expected, stage + 1, 1)
            else:
                assert outcome[0] == "completed"
            assert outcome[-1] == tuple((1, i) for i in range(len(outcome[-1])))
    bad_start = phi0.copy()
    bad_start[1] = np.nan
    sys_ = _planted_system(None, 0.0)
    outcome = _run_rk_step(rk_step, bad_start, sys_)
    assert outcome == ("raised", "non-finite state (sweep 1, node 0)", 0, 1, ())
    assert outcome == _run_rk_step(_reference_rk_step, bad_start, sys_)


def test_a_non_finite_stage_state_never_reaches_the_rhs():
    """1e300 planted at stage 0, 1 or 2 makes the next stage value
    overflow.  The stage evaluation raises before that state reaches the
    rhs, so every rhs input is finite and the kernel-call count is the
    reference's."""
    phi0 = np.array([1.0, -0.0, 2.0])
    for stage in range(rk._B.size - 1):
        systems = [_planted_system((1, stage), 1.0e300) for _ in range(2)]
        with np.errstate(over="ignore", invalid="ignore"):
            outcome = _run_rk_step(rk_step, phi0, systems[0])
            _run_rk_step(_reference_rk_step, phi0, systems[1])
        hook, reference_hook = (sys_.hook for sys_ in systems)
        assert outcome[:2] == ("raised", f"non-finite state (sweep 1, node {stage + 1})")
        assert all(hook.inputs_finite)
        assert hook.call_count == reference_hook.call_count == stage + 1
