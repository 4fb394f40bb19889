"""Linear and ignition-surrogate problem definitions."""

import csv
import math
import warnings

import numpy as np
import pytest

from resilient_sdc.campaign import RunConfig, run_single
from resilient_sdc.errors import NonRealizableStateError
from resilient_sdc.faults import KernelHook, OneShotPerturbation, OneShotSpec
from resilient_sdc.problems import (
    KERNEL_IDS,
    LINEAR_KERNEL_ID,
    IgnitionSurrogate,
    LinearProblem,
    _stencil_indices,
    derivative_operator,
    gaussian_hotspot,
    ignition_metrics,
    linear_exact,
    surrogate_rhs,
)
from resilient_sdc.quadrature import lobatto_rule
from resilient_sdc.sdc import ODESystem, integrate, predictor, sdc_sweep

# ---------------------------------------------------------------------------
# linear problem


def test_linear_exact_values():
    assert linear_exact(1.0, 1.0, 1.0) == pytest.approx(math.e, abs=1e-15)
    assert linear_exact(0.0, 17.0, 4.5) == 4.5
    assert linear_exact(1.0, 1.5, 1.0) == pytest.approx(math.exp(1.5), abs=1e-15)


def test_linear_rhs_is_growth():
    prob = LinearProblem(s=2.5, y0=3.0)
    sys_ = prob.system()
    np.testing.assert_array_equal(sys_.rhs(np.array([4.0]), 0.0), [10.0])
    np.testing.assert_array_equal(prob.initial_state(), [3.0])


def _rate_override_system(rate, sweep_index, node_index):
    """Reference: y' = y, except that the rhs evaluated at (sweep_index,
    node_index) uses the growth rate ``rate``, read from the hook position."""
    hook = KernelHook()

    def rhs(y, t):
        s = rate if (hook.sweep_index, hook.node_index) == (sweep_index, node_index) else 1.0
        out = s * np.asarray(y, dtype=float)
        hook.filter(LINEAR_KERNEL_ID, out)
        return out

    return ODESystem(rhs=rhs, hook=hook)


def _node_iterates(system, sweeps=40):
    rule = lobatto_rule(3)
    sol = predictor(np.ones(1), rule, system, 0.0, 1.0)
    states = [sol.node_states.copy()]
    for k in range(2, sweeps + 2):
        sol = sdc_sweep(sol, rule, system, sweep_index=k)
        states.append(sol.node_states.copy())
    return states


def test_one_shot_fault_on_the_derivative_kernel_matches_a_rate_override_bitwise():
    """A type-A one-shot of scale s on the linear kernel at sweep 3, node 2
    gives the same 41 iterates, bit for bit, as y' = s*y at that one
    evaluation, and fires once."""
    for scale in (0.5, 1.5, 10.0, 100.0):
        hook = OneShotPerturbation(OneShotSpec(
            step_index=0, sweep_index=3, node_index=2, kernel_id=LINEAR_KERNEL_ID,
            offset=0, scale=scale,
        ))
        faulted = _node_iterates(LinearProblem().system(hook))
        reference = _node_iterates(_rate_override_system(scale, 3, 2))
        assert len(faulted) == 41
        for got, want in zip(faulted, reference):
            assert got.tobytes() == want.tobytes()
        assert len(hook.events) == 1
        event = hook.events[0]
        assert (event.kernel_id, event.step_index, event.sweep_index, event.node_index) == (
            LINEAR_KERNEL_ID, 0, 3, 2)
    # the reference does perturb: the iterate moves one sweep after the fault
    clean = _node_iterates(LinearProblem().system())
    assert np.array_equal(reference[2], clean[2])
    assert not np.array_equal(reference[3], clean[3])


def test_default_system_hook_tracks_the_position_and_counts_kernel_calls():
    """A system built without a hook gets its own, which the integrator
    moves and the linear rhs counts calls on."""
    prob = LinearProblem()
    sys_ = prob.system()
    rule = lobatto_rule(3)
    sol = predictor(prob.initial_state(), rule, sys_, 0.0, 0.1)
    assert sys_.hook.position() == (0, 1, 2)
    np.testing.assert_array_equal(sol.node_rhs[:, 0], sol.node_states[:, 0])
    sdc_sweep(sol, rule, sys_, sweep_index=2)
    assert sys_.hook.position() == (0, 2, 2)
    assert sys_.hook.call_count == 5


# ---------------------------------------------------------------------------
# derivative stencil


_STENCIL = np.array([4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0])


def _loop_derivative(field_values, dx):
    """Reference stencil: pad periodically, then add the offset terms one
    pass at a time, m = 1..4, into a zero-filled array."""
    f = np.asarray(field_values, dtype=float)
    if f.ndim < 1 or f.shape[-1] < 9:
        raise ValueError("derivative_operator needs a last axis of at least 9 points")
    padded = np.concatenate((f[..., -4:], f, f[..., :4]), axis=-1)
    n = f.shape[-1]
    out = np.zeros(f.shape)
    for m, a_m in enumerate(_STENCIL, start=1):
        out += a_m * (padded[..., 4 + m : 4 + m + n] - padded[..., 4 - m : 4 - m + n])
    return out / dx


def test_derivative_of_constant_is_exactly_zero():
    assert np.all(derivative_operator(np.full(32, 7.25), 0.1) == 0.0)


def test_interior_polynomial_exactness():
    """The nine-point stencil differentiates cubics exactly away from the wrap."""
    n = 64
    h = 1.0 / n
    x = np.arange(n) * h
    deriv = derivative_operator(x**3, h)
    interior = slice(4, n - 4)
    np.testing.assert_allclose(
        deriv[interior], 3.0 * x[interior] ** 2, atol=1e-12, rtol=0.0
    )


def test_periodic_trig_accuracy():
    n = 120
    h = 1.0 / n
    x = (np.arange(n) + 0.5) * h
    deriv = derivative_operator(np.sin(2 * np.pi * x), h)
    assert np.max(np.abs(deriv - 2 * np.pi * np.cos(2 * np.pi * x))) < 1e-10


def test_derivative_operator_input_validation():
    with pytest.raises(ValueError):
        derivative_operator(np.ones(8), 0.1)
    with pytest.raises(ValueError):
        derivative_operator(np.ones((4, 4)), 0.1)
    with pytest.raises(ValueError):
        derivative_operator(np.ones((2, 8)), 0.1)
    with pytest.raises(ValueError):
        derivative_operator(7.0, 0.1)
    assert derivative_operator(np.ones((2, 9)), 0.1).shape == (2, 9)


def test_field_pair_rows_equal_single_field_calls_bitwise():
    """The operator works along the last axis: each row of a (2, n) call has
    the bits of the 1-D call on that row."""
    rng = np.random.default_rng(7)
    for n in (9, 16, 120):
        pair = rng.uniform(-3.0, 3.0, (2, n)) * 10.0 ** rng.integers(-3, 4, (2, 1))
        batched = derivative_operator(pair, 1.0 / n)
        for row in range(2):
            single = derivative_operator(pair[row], 1.0 / n)
            assert batched[row].tobytes() == single.tobytes()


def _extreme_values(rng, shape):
    """Magnitudes from 1e-300 to 1e300 of either sign, with -0.0, NaN and
    +-inf mixed in."""
    values = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-300.0, 300.0, shape)
    specials = np.array([-0.0, np.nan, np.inf, -np.inf])
    mask = rng.random(shape) < 0.1
    values[mask] = rng.choice(specials, int(mask.sum()))
    return values


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_derivative_operator_is_bitwise_equal_to_the_loop_reference():
    """Same differences, same products, same summation order from +0.0:
    every bit, signed zeros and NaNs included, matches the loop form."""
    rng = np.random.default_rng(2024)
    for n in (9, 10, 17, 120):
        state = _extreme_values(rng, 2 * n)
        inputs = [
            _extreme_values(rng, n),
            _extreme_values(rng, (2, n)),
            _extreme_values(rng, (3, 2, n)),
            state.reshape(2, n)[:, ::-1],
            rng.uniform(-1.0, 1.0, (2, n)) * 10.0 ** rng.integers(-3, 4, (2, 1)),
        ]
        zeros = np.zeros((2, n))
        zeros[0, [0, 2]] = -0.0
        zeros[1, n - 1] = -0.0
        inputs.append(zeros)
        for f in inputs:
            for dx in (1.0 / n, 0.1, 3.0):
                got = derivative_operator(f, dx)
                want = _loop_derivative(f, dx)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_stencil_index_table_is_cached_per_length_and_read_only():
    table = _stencil_indices(12)
    assert table is _stencil_indices(12)
    assert table is not _stencil_indices(13)
    assert table.shape == (8, 12)
    np.testing.assert_array_equal(table[0], np.roll(np.arange(12), -1))
    np.testing.assert_array_equal(table[7], np.roll(np.arange(12), 4))
    with pytest.raises(ValueError):
        table[0, 0] = 5


# ---------------------------------------------------------------------------
# hot-spot initial condition


def test_hotspot_profile_matches_the_formula():
    cfg = IgnitionSurrogate()
    state = gaussian_hotspot(cfg)
    x = cfg.grid()
    prefactor = 1.0 / (cfg.sigma * math.sqrt(2.0 * math.pi))
    expected_t = cfg.t_ambient + (cfg.t_peak - cfg.t_ambient) * prefactor * np.exp(
        -((x - cfg.x_star) ** 2) / (2.0 * cfg.sigma**2)
    )
    np.testing.assert_allclose(state[: cfg.n_grid], expected_t, rtol=1e-15)
    np.testing.assert_array_equal(state[cfg.n_grid :], np.ones(cfg.n_grid))
    # the scale-temperature parameter is not the literal peak: the prefactor
    # amplifies the bump above t_peak
    assert np.max(state[: cfg.n_grid]) > cfg.t_peak


def test_initial_state_is_realizable():
    cfg = IgnitionSurrogate()
    assert cfg.realizability(cfg.initial_state()) is None


# ---------------------------------------------------------------------------
# kernelized right-hand side


def surrogate_rhs_monolithic(state, t, cfg, corrupt=None):
    """Reference evaluation with one 1-D stencil call per field and stage.

    ``corrupt(kernel_id, array)``, when given, may edit each stage's result
    in place before the next stage reads it, in the declared kernel order.
    """
    corrupt = corrupt or (lambda kernel_id, array: None)
    n = cfg.n_grid
    temperature = state[:n]
    fuel = state[n:]
    gradient_t = _loop_derivative(temperature, cfg.dx)
    corrupt("gradient_T", gradient_t)
    gradient_y = _loop_derivative(fuel, cfg.dx)
    corrupt("gradient_Y", gradient_y)
    flux_t = cfg.alpha * _loop_derivative(gradient_t, cfg.dx)
    corrupt("diffusive_flux_T", flux_t)
    flux_y = cfg.diff * _loop_derivative(gradient_y, cfg.dx)
    corrupt("diffusive_flux_Y", flux_y)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        omega = cfg.arrhenius_a * fuel * np.exp(-cfg.t_act / temperature)
    corrupt("reaction_rate", omega)
    out = np.concatenate((flux_t + cfg.heat_release * omega, flux_y - omega))
    corrupt("assembly", out)
    return out


def _random_states(cfg, count, seed=42):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        temperature = rng.uniform(300.0, 2000.0, cfg.n_grid)
        fuel = rng.uniform(0.0, 1.0, cfg.n_grid)
        yield np.concatenate((temperature, fuel))


def test_kernelized_and_monolithic_rhs_are_bitwise_identical():
    cfg = IgnitionSurrogate()
    for state in _random_states(cfg, 10):
        kernelized = surrogate_rhs(state, 0.0, cfg, hook=KernelHook())
        monolithic = surrogate_rhs_monolithic(state, 0.0, cfg)
        assert kernelized.tobytes() == monolithic.tobytes()


def test_stage_edits_reach_the_next_stage_as_in_the_reference():
    """A hook's in-place edit of any stage, gradient rows included, feeds
    the later stages exactly as it does in the per-field reference."""

    def corrupt(kernel_id, array):
        offset = 7 + KERNEL_IDS.index(kernel_id)
        array[offset] = array[offset] * -1.0e3 + 1.0

    class Corrupting(KernelHook):
        def filter(self, kernel_id, array):
            super().filter(kernel_id, array)
            corrupt(kernel_id, array)

    cfg = IgnitionSurrogate()
    for state in _random_states(cfg, 3, seed=5):
        kernelized = surrogate_rhs(state, 0.0, cfg, hook=Corrupting())
        reference = surrogate_rhs_monolithic(state, 0.0, cfg, corrupt)
        assert kernelized.tobytes() == reference.tobytes()
        assert kernelized.tobytes() != surrogate_rhs_monolithic(state, 0.0, cfg).tobytes()


def test_disarmed_hook_does_not_change_the_rhs():
    """The default system's hook only counts: its rhs has the bits of the
    monolithic reference, one call per kernel stage."""
    cfg = IgnitionSurrogate()
    state = cfg.initial_state()
    sys_ = cfg.system()
    assert type(sys_.hook) is KernelHook
    out = sys_.rhs(state, 0.0)
    assert out.tobytes() == surrogate_rhs_monolithic(state, 0.0, cfg).tobytes()
    assert sys_.hook.call_count == len(KERNEL_IDS)
    assert sys_.hook.events == []


def test_corrupted_evaluation_raises_no_floating_point_warning():
    """A state corrupted far out of range overflows in the stencil and the
    chemistry alike.  ``march`` runs the step with those warnings off, so the
    run reports the fault through its error alone, and the caller's error
    settings are left as they were.  A direct call keeps those settings."""
    cfg = IgnitionSurrogate()
    state = cfg.initial_state()
    state[5] = 1.0e306
    settings = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonRealizableStateError) as excinfo:
            integrate(state, 0.0, cfg.default_dt(), cfg.default_dt(), lobatto_rule(3),
                      cfg.system(), 4)
    assert str(excinfo.value) == "non-finite rhs evaluation (step 0, sweep 1, node 0)"
    assert np.geterr() == settings
    with pytest.warns(RuntimeWarning, match="overflow"):
        surrogate_rhs(state, 0.0, cfg, hook=KernelHook())


def test_kernels_run_once_per_evaluation_in_declared_order():
    calls = []

    class Recorder(KernelHook):
        def filter(self, kernel_id, array):
            super().filter(kernel_id, array)
            calls.append(kernel_id)

    cfg = IgnitionSurrogate()
    surrogate_rhs(cfg.initial_state(), 0.0, cfg, hook=Recorder())
    assert tuple(calls) == KERNEL_IDS


def test_kernel_sizes_are_the_lengths_of_the_arrays_the_kernels_return():
    """The lengths a ``RunConfig`` checks one-shot offsets against."""
    sizes = {}

    class Recorder(KernelHook):
        def filter(self, kernel_id, array):
            sizes[kernel_id] = array.size

    for problem in (IgnitionSurrogate(n_grid=16), LinearProblem()):
        sizes.clear()
        problem.system(Recorder()).rhs(problem.initial_state(), 0.0)
        assert sizes == {kernel: problem.kernel_size(kernel) for kernel in problem.kernel_ids}


def test_the_grid_must_hold_the_stencil():
    """A grid narrower than the nine-point stencil fails when the surrogate is
    built, so no ``RunConfig`` holds one, rather than in its first rhs."""
    for n_grid in (6, 8):
        with pytest.raises(ValueError,
                           match=rf"^n_grid must be >= 9, the stencil's width, got {n_grid}$"):
            RunConfig(surrogate=IgnitionSurrogate(n_grid=n_grid), t_end=1e-6)
    cfg = IgnitionSurrogate(n_grid=9)
    assert surrogate_rhs(cfg.initial_state(), 0.0, cfg, KernelHook()).shape == (18,)


def test_conserved_total_under_fault_free_integration():
    """With equal diffusivities, sum(T + heat_release * Y) is conserved."""
    cfg = IgnitionSurrogate()
    assert cfg.diff == cfg.alpha
    dt = cfg.default_dt()
    trajectory, _ = integrate(
        cfg.initial_state(), 0.0, 30 * dt, dt, lobatto_rule(3), cfg.system(), 4
    )

    def total(state):
        return float(np.sum(state[: cfg.n_grid] + cfg.heat_release * state[cfg.n_grid :]))

    start, end = total(trajectory[0][1]), total(trajectory[-1][1])
    elapsed = trajectory[-1][0] - trajectory[0][0]
    assert abs(end - start) / (abs(start) * elapsed) < 1e-8


def test_default_dt_is_stable_for_the_diffusive_terms():
    cfg = IgnitionSurrogate()
    dt = cfg.default_dt()
    assert dt > 0.0
    # a pure-diffusion state (no fuel) must not blow up over many steps
    state = cfg.initial_state()
    state[cfg.n_grid :] = 0.0
    trajectory, _ = integrate(
        state, 0.0, 50 * dt, dt, lobatto_rule(3), cfg.system(), 4
    )
    final_t = trajectory[-1][1][: cfg.n_grid]
    assert np.all(np.isfinite(final_t))
    assert np.max(final_t) < np.max(state[: cfg.n_grid])


# ---------------------------------------------------------------------------
# metrics


def test_metrics_on_a_synthetic_rise():
    n = 4
    def snapshot(peak):
        return np.concatenate((np.full(n, peak), np.ones(n)))

    trajectory = [
        (0.0, snapshot(300.0)),
        (1.0, snapshot(300.0)),
        (2.0, snapshot(800.0)),
        (3.0, snapshot(1300.0)),
    ]
    metrics = ignition_metrics(trajectory)
    assert metrics["final_peak_T"] == 1300.0
    # midpoint (300 + 1300)/2 = 800 is reached exactly at t = 2
    assert metrics["ignition_delay"] == pytest.approx(2.0, abs=1e-12)


def test_metrics_interpolate_between_outputs():
    n = 2
    def snapshot(peak):
        return np.concatenate((np.full(n, peak), np.ones(n)))

    trajectory = [(0.0, snapshot(300.0)), (4.0, snapshot(500.0))]
    # midpoint 400 crossed halfway through the single interval
    assert ignition_metrics(trajectory)["ignition_delay"] == pytest.approx(2.0)


def test_metrics_sentinel_when_never_ignites():
    state = np.concatenate((np.full(3, 400.0), np.ones(3)))
    metrics = ignition_metrics([(0.0, state), (1.0, state.copy())])
    assert math.isnan(metrics["ignition_delay"])
    assert metrics["final_peak_T"] == 400.0


def test_metrics_single_snapshot_and_empty():
    state = np.concatenate((np.array([310.0, 355.0]), np.ones(2)))
    metrics = ignition_metrics([(0.0, state)])
    assert metrics["final_peak_T"] == 355.0
    with pytest.raises(ValueError):
        ignition_metrics([])


# ---------------------------------------------------------------------------
# snapshots


def test_snapshot_csv_round_trip(tmp_path):
    """A run's initial-state snapshot reads back as the surrogate's grid and
    initial state."""
    cfg = IgnitionSurrogate(n_grid=16)
    state = cfg.initial_state()
    run_single(RunConfig(integrator="rk", surrogate=cfg, t_end=cfg.default_dt(),
                         output_dir=str(tmp_path)))
    path = tmp_path / "state_initial.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "T", "Y"]
    assert len(rows) == cfg.n_grid + 1
    x = cfg.grid()
    for i, row in enumerate(rows[1:]):
        assert float(row[0]) == x[i]
        assert float(row[1]) == state[i]
        assert float(row[2]) == state[cfg.n_grid + i]
