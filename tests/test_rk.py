"""Explicit Runge-Kutta baseline: tableau checks and convergence."""

import math

import numpy as np
import pytest

from resilient_sdc.errors import NonRealizableStateError
from resilient_sdc.faults import KernelHook
from resilient_sdc.problems import LinearProblem
from resilient_sdc.rk import ButcherTableau, classical_rk4, rk_integrate, rk_step


def test_classical_tableau_coefficients():
    tab = classical_rk4()
    np.testing.assert_array_equal(tab.c, [0.0, 0.5, 0.5, 1.0])
    np.testing.assert_array_equal(tab.b, [1 / 6, 1 / 3, 1 / 3, 1 / 6])
    assert tab.stages == 4
    np.testing.assert_allclose(tab.a.sum(axis=1), tab.c, atol=0.0)
    assert np.all(np.triu(tab.a) == 0.0)


def test_classical_tableau_is_cached_and_read_only():
    tab = classical_rk4()
    assert classical_rk4() is tab
    for array in (tab.a, tab.b, tab.c):
        with pytest.raises(ValueError):
            array[0] = 1.0
    with pytest.raises(AttributeError):
        tab.b = np.zeros(4)
    np.testing.assert_array_equal(tab.b, [1 / 6, 1 / 3, 1 / 3, 1 / 6])


def test_tableau_validation_rejects_bad_coefficients():
    good = classical_rk4()
    with pytest.raises(ValueError):
        ButcherTableau(a=good.a, b=good.b * 2.0, c=good.c).validate()
    with pytest.raises(ValueError):
        ButcherTableau(a=good.a.T, b=good.b, c=good.c).validate()
    with pytest.raises(ValueError):
        ButcherTableau(a=good.a, b=good.b, c=good.c + 0.25).validate()
    with pytest.raises(ValueError):
        ButcherTableau(a=np.zeros((3, 3)), b=good.b, c=good.c).validate()


def test_single_step_matches_fourth_order_taylor():
    """On y' = y the classical method reproduces the degree-4 Taylor sum."""
    prob = LinearProblem()
    sys_ = prob.system()
    h = 0.1
    result = rk_step(prob.initial_state(), 0.0, h, classical_rk4(), sys_)
    taylor = 1.0 + h + h**2 / 2 + h**3 / 6 + h**4 / 24
    assert float(result[0]) == pytest.approx(taylor, abs=5e-16)


def test_fourth_order_convergence():
    prob = LinearProblem()
    errors = []
    dts = [0.1, 0.05, 0.025]
    for dt in dts:
        trajectory = rk_integrate(
            prob.initial_state(), 0.0, 1.0, dt, classical_rk4(), prob.system()
        )
        errors.append(abs(float(trajectory[-1][1][0]) - math.e))
    slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    assert 3.7 <= slope <= 4.3


def test_trajectory_layout_and_determinism():
    prob = LinearProblem()
    first = rk_integrate(prob.initial_state(), 0.0, 1.0, 0.1, classical_rk4(), prob.system())
    second = rk_integrate(prob.initial_state(), 0.0, 1.0, 0.1, classical_rk4(), prob.system())
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
        rk_integrate(prob.initial_state(), 0.0, 1.0, 0.1, classical_rk4(), sys_)
    assert excinfo.value.step_index is not None
    # exp(t) passes 2.0 at t = 0.693, so step 6 (ending at t = 0.7) is the
    # first whose end state fails; RK keeps no traces
    assert excinfo.value.step_index == 6
    assert len(excinfo.value.traces) == 0


def test_non_finite_stage_detected():
    prob = LinearProblem(s=1.0, y0=math.inf)
    with pytest.raises(NonRealizableStateError):
        rk_integrate(prob.initial_state(), 0.0, 1.0, 0.5, classical_rk4(), prob.system())


def test_hook_sees_every_stage_evaluation():
    prob = LinearProblem()
    hook = KernelHook()
    rk_integrate(prob.initial_state(), 0.0, 1.0, 0.25, classical_rk4(), prob.system(hook))
    # 4 steps x 4 stages, one kernel call each on the scalar problem
    assert hook.call_count == 16
