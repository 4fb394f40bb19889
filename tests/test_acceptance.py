"""End-to-end acceptance checks, one per advertised property of the toolkit.

Each test computes its quantities at the stated tolerances and records a
single ``criterion N [PASS|FAIL]`` line (collected by acceptance_log and
echoed in the terminal summary), then asserts.  The campaign comparison (criterion 6)
runs two 200-member Monte Carlo arms and takes a few minutes; everything
else finishes in seconds.
"""

import math
import struct
from collections import Counter

import numpy as np
import pytest

from acceptance_log import record_criterion
from resilient_sdc.campaign import (
    RunConfig,
    convergence_study,
    run_campaign,
    run_single,
)
from resilient_sdc.faults import (
    FaultConfig,
    FaultInjector,
    KernelHook,
    OneShotPerturbation,
    OneShotSpec,
    bit_flip,
)
from resilient_sdc.problems import LINEAR_KERNEL_ID, LinearProblem
from resilient_sdc.quadrature import lobatto_rule
from resilient_sdc.resilience import ControllerConfig, converged
from resilient_sdc.sdc import integrate_step, predictor, sdc_sweep

_DT = RunConfig(problem="ignition").surrogate.default_dt()

# Fault-free final peak temperatures of the two integrators on the default
# ignition run, frozen from a reference evaluation of this code base.  They
# anchor the campaign comparison and guard against silent numeric drift.
RK_FAULT_FREE_PEAK = 2566.7682856695315
SDC_FAULT_FREE_PEAK = 2566.7682868046963


def _ignition_cfg(**overrides):
    base = dict(
        problem="ignition",
        integrator="sdc_resilient",
        fault=FaultConfig(mode="off"),
    )
    base.update(overrides)
    return RunConfig(**base)


def _criterion(number, title, body):
    try:
        detail = body()
    except BaseException as exc:
        record_criterion(number, title, False, f"{type(exc).__name__}: {exc}")
        raise
    record_criterion(number, title, True, detail)


def _first_accepted_length(norms, controller):
    """The sweep count the controller takes on ``norms``: the first length
    from two on at which ``converged`` holds, else its cap."""
    return next(
        (length for length in range(2, controller.max_sweeps)
         if converged(norms[:length], controller)),
        controller.max_sweeps,
    )


@pytest.fixture(scope="module")
def fault_free_resilient():
    return run_single(_ignition_cfg())


@pytest.fixture(scope="module")
def fault_free_rk():
    return run_single(_ignition_cfg(integrator="rk"))


def test_criterion_1_collocation_order():
    def body():
        dts = [0.2, 0.1, 0.05, 0.025]
        high = convergence_study("linear", dts, [3], [4])[0]["observed_order"]
        low = convergence_study("linear", dts, [2], [2])[0]["observed_order"]
        assert 3.7 <= high <= 4.3
        assert 1.7 <= low <= 2.3
        return (
            f"order(3 nodes, 4 sweeps)={high:.3f} in [3.7, 4.3]; "
            f"order(2 nodes, 2 sweeps)={low:.3f} in [1.7, 2.3]"
        )

    _criterion(1, "collocation order", body)


def test_criterion_2_converged_sweeps_hit_collocation_fixed_point():
    def body():
        rule = lobatto_rule(3)
        sys = LinearProblem().system()
        sol = predictor(np.ones(1), rule, sys, 0.0, 1.0)
        for k in range(2, 31):
            sol = sdc_sweep(sol, rule, sys, sweep_index=k)
        direct = np.linalg.solve(np.eye(3) - rule.q_matrix, np.ones(3))
        err = float(np.max(np.abs(sol.node_states[:, 0] - direct)))
        after = sdc_sweep(sol, rule, sys, sweep_index=31)
        change = float(np.max(np.abs(after.node_states - sol.node_states)))
        assert err <= 1.0e-12
        assert change < 1.0e-13
        return f"30-sweep vs direct solve: {err:.2e} <= 1e-12; extra sweep moves {change:.2e} < 1e-13"

    _criterion(2, "fixed point and convergence floor", body)


def test_criterion_3_perturbed_sweep_damping():
    def body():
        rule = lobatto_rule(3)

        def iterates(hook):
            system = LinearProblem().system(hook)
            sol = predictor(np.ones(1), rule, system, 0.0, 1.0)
            states = [sol.node_states.copy()]
            for k in range(2, 42):
                sol = sdc_sweep(sol, rule, system, sweep_index=k)
                states.append(sol.node_states.copy())
            return states

        clean = iterates(KernelHook())
        predictor_error = abs(float(clean[0][2, 0]) - math.e)
        scales = [0.5, 1.5, 10.0, 100.0]
        ratios_by_scale = {}
        final_devs = []
        for s in scales:
            # one wrong rhs evaluation: y' = s*y at sweep 3, node 2
            hook = OneShotPerturbation(OneShotSpec(
                step_index=0, sweep_index=3, node_index=2, kernel_id=LINEAR_KERNEL_ID,
                offset=0, scale=s,
            ))
            perturbed = iterates(hook)
            assert len(hook.events) == 1
            dev = [float(np.max(np.abs(p - c))) for p, c in zip(perturbed, clean)]
            assert dev[:3] == [0.0, 0.0, 0.0]  # corruption surfaces one sweep later
            assert all(d > 0.0 for d in dev[3:11])
            ratios_by_scale[s] = [dev[k + 1] / dev[k] for k in range(3, 10)]
            final_devs.append(dev[40])
            if s == 1.5:
                jump_factor = dev[3] / predictor_error

        assert 0.2 <= jump_factor <= 5.0
        reference = ratios_by_scale[1.5]
        assert all(0.0 < r < 1.0 for r in reference)
        spread = max(
            abs(ratios_by_scale[s][j] - reference[j]) / reference[j]
            for s in scales
            for j in range(len(reference))
        )
        assert spread <= 0.2
        assert max(final_devs) <= 1.0e-12
        gmean = math.exp(sum(math.log(r) for r in reference) / len(reference))
        return (
            f"jump/predictor_error={jump_factor:.4f} in [0.2, 5]; damping ratios "
            f"mean={gmean:.3f}, constant across scales to {spread:.1e} <= 0.2; "
            f"converged deviation {max(final_devs):.1e} <= 1e-12"
        )

    _criterion(3, "perturbed sweep recovery on the linear problem", body)


def test_criterion_4_residual_spike_and_extra_sweeps():
    def body():
        t_end = 67 * _DT
        spec = OneShotSpec(
            step_index=65,
            sweep_index=3,
            node_index=2,
            kernel_id="reaction_rate",
            offset=85,
            scale=1.0e4,
        )
        fixed_clean = run_single(_ignition_cfg(integrator="sdc_fixed", t_end=t_end))
        fixed_fault = run_single(
            _ignition_cfg(integrator="sdc_fixed", t_end=t_end, fault=spec)
        )
        assert fixed_fault.one_shot_fired is True
        r_fault = fixed_fault.traces[65].residual_maxnorms[-1]
        r_clean = fixed_clean.traces[65].residual_maxnorms[-1]
        spike = r_fault / r_clean
        assert spike >= 10.0

        resilient_clean = run_single(_ignition_cfg(t_end=t_end))
        resilient_fault = run_single(_ignition_cfg(t_end=t_end, fault=spec))
        assert resilient_fault.one_shot_fired is True
        sweeps_fault = resilient_fault.traces[65].sweeps_taken
        sweeps_clean = resilient_clean.traces[65].sweeps_taken
        assert sweeps_fault > sweeps_clean
        return (
            f"final-sweep residual spike {spike:.3e}x >= 10x; controller sweeps "
            f"{sweeps_fault} > {sweeps_clean} on the faulted step"
        )

    _criterion(4, "residual spike detection", body)


def test_criterion_5_no_extra_sweeps_without_faults(fault_free_resilient):
    def body():
        report = fault_free_resilient
        assert report.metrics["fault_events"] == 0
        assert report.metrics["restarts"] == 0
        controller = ControllerConfig()

        mismatches = sum(
            1
            for trace in report.traces
            if _first_accepted_length(trace.residual_maxnorms, controller)
            != trace.sweeps_taken
        )
        assert mismatches == 0

        # Re-integrate a sample of steps from their recorded start states at
        # the fixed sweep cap: the residual trail must match bitwise and the
        # controller count must equal the first length ``converged`` accepts.
        rule = lobatto_rule(report.config.num_nodes)
        system = report.config.surrogate.system(hook=KernelHook())
        sampled = 0
        for i in range(0, len(report.traces), 25):
            t0, state0 = report.trajectory[i]
            t1 = report.trajectory[i + 1][0]
            _, trace = integrate_step(
                state0.copy(), t0, t1 - t0, rule, system, controller.max_sweeps
            )
            recorded = report.traces[i].residual_maxnorms
            assert trace.residual_maxnorms[: len(recorded)] == recorded
            assert (
                _first_accepted_length(trace.residual_maxnorms, controller)
                == report.traces[i].sweeps_taken
            )
            sampled += 1
        return (
            f"{len(report.traces)} steps, 0 sweep-count mismatches; {sampled} steps "
            f"re-run at the fixed cap match the controller's counts bitwise"
        )

    _criterion(5, "zero overhead in fault-free runs", body)


def test_criterion_6_campaign_distribution_narrowing(
    fault_free_resilient, fault_free_rk
):
    def body():
        rk_ff = fault_free_rk.metrics["final_peak_T"]
        sdc_ff = fault_free_resilient.metrics["final_peak_T"]
        assert rk_ff == pytest.approx(RK_FAULT_FREE_PEAK, rel=1e-9)
        assert sdc_ff == pytest.approx(SDC_FAULT_FREE_PEAK, rel=1e-9)

        fault = FaultConfig(mode="type_b", window=5580, seed=0)
        # run_campaign gives the same result for any worker count
        rk_arm = run_campaign(
            _ignition_cfg(integrator="rk", fault=fault), 200, 4242, workers=2
        )
        sdc_arm = run_campaign(
            _ignition_cfg(integrator="sdc_resilient", fault=fault), 200, 4242, workers=2
        )
        assert rk_arm.runs == 200 and sdc_arm.runs == 200
        assert len(rk_arm.scalars) >= 2 and len(sdc_arm.scalars) >= 2

        assert sdc_arm.variance <= 0.1 * rk_arm.variance
        epsilon = abs(sdc_ff - rk_ff)
        sdc_shift = abs(sdc_arm.mean - rk_ff)
        rk_shift = abs(rk_arm.mean - rk_ff)
        assert sdc_shift <= 0.2 * rk_shift + epsilon
        return (
            f"variance {sdc_arm.variance:.3e} <= 0.1 * {rk_arm.variance:.3e}; "
            f"mean shift {sdc_shift:.3e} <= 0.2 * {rk_shift:.3e} + {epsilon:.1e}; "
            f"crashes rk={rk_arm.crash_count}, sdc={sdc_arm.crash_count}"
        )

    _criterion(6, "campaign distribution narrowing", body)


def test_criterion_7_injection_protocol():
    def body():
        # One fault per window, so any ten consecutive windows carry ten.
        config = FaultConfig(mode="type_b", window=50, seed=3)
        hook = FaultInjector(config)
        n_windows = 30
        for _ in range(50 * n_windows):
            hook.filter("assembly", np.ones(8))
        per_window = Counter(event.call_index // 50 for event in hook.events)
        assert per_window == {w: 1 for w in range(n_windows)}
        for start in range(n_windows - 9):
            assert sum(per_window[w] for w in range(start, start + 10)) == 10

        rng = np.random.default_rng(2026)
        values = rng.integers(0, 2**64, size=10**6, dtype=np.uint64).view(np.float64)
        bits = rng.integers(0, 64, size=values.size)
        failures = sum(
            1
            for value, bit in zip(values.tolist(), bits.tolist())
            if struct.pack("<d", bit_flip(bit_flip(value, bit), bit))
            != struct.pack("<d", value)
        )
        assert failures == 0

        campaign_cfg = _ignition_cfg(
            fault=FaultConfig(mode="type_b", window=600, seed=0), t_end=4 * _DT
        )
        first = run_campaign(campaign_cfg, 3, 7)
        second = run_campaign(campaign_cfg, 3, 7)
        assert first == second
        return (
            f"1 event in each of {n_windows} windows; 10^6 involution pairs exact; "
            f"repeated campaign summaries identical"
        )

    _criterion(7, "injection protocol determinism", body)


def test_criterion_8_quadrature_exactness():
    def body():
        worst = 0.0
        for num_nodes in [2, 3, 4, 5]:
            rule = lobatto_rule(num_nodes)
            for p in range(num_nodes):
                integrals = rule.q_matrix @ (rule.nodes**p)
                exact = rule.nodes ** (p + 1) / (p + 1)
                worst = max(worst, float(np.max(np.abs(integrals - exact))))
        assert worst <= 1.0e-12

        hand_derived = np.array(
            [
                [0.0, 0.0, 0.0],
                [5.0 / 24.0, 1.0 / 3.0, -1.0 / 24.0],
                [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
            ]
        )
        three_node_gap = float(
            np.max(np.abs(lobatto_rule(3).q_matrix - hand_derived))
        )
        assert three_node_gap <= 5.0e-15
        return (
            f"monomial integration error {worst:.2e} <= 1e-12 for 2-5 nodes; "
            f"3-node matrix matches the hand-derived one to {three_node_gap:.1e}"
        )

    _criterion(8, "quadrature exactness", body)


def test_criterion_9_checkpoint_restart_recovers_exactly(fault_free_resilient):
    def body():
        spec = OneShotSpec(
            step_index=3,
            sweep_index=2,
            node_index=1,
            kernel_id="gradient_T",
            offset="max_T",
            bit=61,
        )
        report = run_single(_ignition_cfg(fault=spec))
        assert report.one_shot_fired is True
        assert len(report.events) == 1
        assert report.traces[3].restarts == 1
        assert report.metrics["restarts"] == 1

        surrogate = report.config.surrogate
        n = surrogate.n_grid
        for _, state in report.trajectory:
            temperature, mass_fraction = state[:n], state[n:]
            assert np.all(temperature >= surrogate.t_min)
            assert np.all(temperature <= surrogate.t_max)
            assert np.all(mass_fraction >= surrogate.y_min)
            assert np.all(mass_fraction <= surrogate.y_max)

        reference = fault_free_resilient
        assert len(report.trajectory) == len(reference.trajectory)
        for (t_a, state_a), (t_b, state_b) in zip(
            report.trajectory, reference.trajectory
        ):
            assert t_a == t_b
            assert np.array_equal(state_a, state_b)
        return (
            f"bit flip at step 3 triggered exactly 1 restart; all "
            f"{len(report.trajectory)} snapshots in bounds and bitwise equal "
            f"to the fault-free trajectory"
        )

    _criterion(9, "checkpoint restart after an out-of-bounds fault", body)
