import json
import math
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qcomb import biphoton, calibration, cli, config, estimation, hom, presets
from qcomb.biphoton import Jsa, SpectralGrid
from qcomb.errors import (
    DegenerateStateError,
    ResolutionError,
    UndefinedVisibilityError,
    ValidationError,
)
from qcomb.estimation import FitSettings
from conftest import FSR, gaussian_dip_fwhm, gaussian_trace
from test_config_cli import small_config_doc, write_config
from test_estimation import small_problem_parts

SIGMA = 2.0 * math.pi * 1e12


def gaussian_state(points=4001, span=12 * SIGMA):
    grid = SpectralGrid(span_minus=span, points_minus=points)
    w = grid.omega_minus()
    amps = np.exp(-(w**2) / (2 * SIGMA**2)).astype(complex)
    return Jsa(grid=grid, amplitudes=amps, pump_frequency=2e15)


def antisymmetric_state(points=4001, span=12 * SIGMA):
    grid = SpectralGrid(span_minus=span, points_minus=points)
    w = grid.omega_minus()
    amps = (w / SIGMA) * np.exp(-(w**2) / (2 * SIGMA**2)) + 0j
    return Jsa(grid=grid, amplitudes=amps, pump_frequency=2e15)


def direct_sum(kernel, omega, delays):
    return np.array([np.sum(kernel * np.exp(-1j * omega * t)) for t in delays])


def full_kernel(h):
    """The Hermitian kernel over the whole grid, rebuilt from its half h."""
    return np.concatenate((np.conj(h[:0:-1]), [2.0 * h[0]], h[1:]))


def full_grid_probability(h, grid, delays):
    """P_c from the direct sum of the full kernel over every grid point."""
    return 0.5 - 0.5 * np.real(direct_sum(full_kernel(h), grid.omega_minus(), delays))


def jittered(delays, fraction, seed=0):
    """The axis with each delay moved by up to ``fraction`` of its step."""
    step = delays[1] - delays[0]
    return delays + np.random.default_rng(seed).uniform(-fraction, fraction, delays.size) * step


@pytest.fixture
def plan_builds(monkeypatch):
    """The (half-grid samples, step, delays) of every block plan built during the test."""
    builds = []
    build = hom._block_plan

    def counting(n, step, delays):
        builds.append((n, step, delays))
        return build(n, step, delays)

    monkeypatch.setattr(hom, "_block_plan", counting)
    return builds


class TestGaussianOracle:
    def test_trace_matches_closed_form(self):
        jsa = gaussian_state()
        delays = np.linspace(-5 / SIGMA, 5 / SIGMA, 501)
        trace = hom.coincidence_trace(jsa, delays)
        expected = gaussian_trace(SIGMA, delays)
        assert np.max(np.abs(trace.p_coincidence - expected)) < 1e-6

    def test_non_uniform_delays_match_closed_form(self, plan_builds):
        jsa = gaussian_state(points=1001)
        delays = np.array([-3.0, -0.5, 0.0, 0.7, 1.1, 2.9, 4.0, 4.5, 5.0]) / SIGMA
        trace = hom.coincidence_trace(jsa, delays)
        expected = gaussian_trace(SIGMA, delays)
        assert np.max(np.abs(trace.p_coincidence - expected)) < 1e-6
        assert len(plan_builds) == 1

    @pytest.mark.parametrize("m", [2, 5, 64])
    def test_uniform_axis_matches_direct_sum(self, plan_builds, m):
        jsa = gaussian_state(points=1001)
        delays = np.linspace(-4 / SIGMA, 4 / SIGMA, m)
        fast = hom.coincidence_trace(jsa, delays).p_coincidence
        assert len(plan_builds) == 1
        w = jsa.grid.omega_minus()
        c = jsa.amplitudes
        kernel = c * np.conj(c[::-1]) * jsa.grid.step_minus / jsa.norm_squared
        slow = 0.5 - 0.5 * np.real(
            np.array([np.sum(kernel * np.exp(-1j * w * t)) for t in delays])
        )
        assert np.allclose(fast, slow, atol=1e-12)

    @pytest.mark.parametrize("direction", [1, -1])
    def test_near_uniform_axis_matches_closed_form(self, plan_builds, direction):
        jsa = gaussian_state(points=1001)
        delays = jittered(np.linspace(-4 / SIGMA, 4 / SIGMA, 64), 0.2)[::direction]
        p = hom.coincidence_trace(jsa, delays).p_coincidence
        slow = full_grid_probability(biphoton.exchange_kernel(jsa), jsa.grid, delays)
        assert len(plan_builds) == 1
        assert np.max(np.abs(p - gaussian_trace(SIGMA, delays))) < 1e-12
        assert np.max(np.abs(p - slow)) < 1e-12

    def test_axis_with_slightly_longer_steps_does_not_drift(self, plan_builds):
        # Every step after the first is 0.9e-9 longer: within 1e-9 of the
        # first step, yet the axis ends 3.6e-7 steps past where repeating
        # the first step would put it.
        jsa = gaussian_state(points=1001)
        step = 8 / SIGMA / 400
        steps = np.full(400, step * (1 + 0.9e-9))
        steps[0] = step
        delays = -4 / SIGMA + np.concatenate([[0.0], np.cumsum(steps)])
        p = hom.coincidence_trace(jsa, delays).p_coincidence
        slow = full_grid_probability(biphoton.exchange_kernel(jsa), jsa.grid, delays)
        assert len(plan_builds) == 1
        assert np.max(np.abs(p - slow)) < 1e-11


@pytest.fixture(scope="module")
def chip_state():
    """The golden chip state (65 537 points) and the 401-delay axis of ``qcomb hom``."""
    path = Path(__file__).resolve().parent / "data" / "golden" / "chip" / "config.json"
    cfg = config.parse_config(path.read_text())
    jsa = biphoton.assemble_jsa_mono(cfg.pump, cfg.phase_match, cfg.cavity, cfg.grid)
    return jsa, cli._delay_axis(cfg, None)


def full_grid_trace(jsa, delays):
    """P_c from the direct sum over every grid point, both halves."""
    return full_grid_probability(biphoton.exchange_kernel(jsa), jsa.grid, delays)


class TestHalfSpectrum:
    # On the chip state the half plan is 3.9e-16 from the full-grid direct
    # sum on the linspace axis.
    @pytest.mark.parametrize("jitter", [0.0, 0.2])
    def test_chip_trace_matches_full_grid_direct_sum(self, chip_state, plan_builds, jitter):
        jsa, delays = chip_state
        if jitter:
            delays = jittered(delays, jitter)
        p = hom.coincidence_trace(jsa, delays).p_coincidence
        assert len(plan_builds) == 1
        assert plan_builds[0][0] == jsa.grid.points_minus // 2 + 1
        assert np.max(np.abs(p - full_grid_trace(jsa, delays))) < 1e-12

    def test_chip_scattered_delays_match_full_grid_direct_sum(self, chip_state, plan_builds):
        jsa, delays = chip_state
        delays = delays[[0, 3, 50, 51, 200, 201, 260, 400]]
        p = hom.coincidence_trace(jsa, delays).p_coincidence
        assert len(plan_builds) == 1
        assert np.max(np.abs(p - full_grid_trace(jsa, delays))) < 1e-12

    @pytest.mark.parametrize("delays", [np.linspace(-2.0, 2.0, 33), [-2.0, 0.1, 0.5, 2.0]])
    def test_any_hermitian_kernel(self, delays):
        # A random half kernel with a real h[0], as K(0) = |C(0)|^2 dw / |C|^2 is.
        grid = SpectralGrid(span_minus=6.0, points_minus=101)
        h = [1.0, 1j] @ np.random.default_rng(5).normal(size=(2, 51)) / grid.points_minus
        h[0] = h[0].real
        out = hom.delay_transform(grid, delays)(h)
        assert out.dtype == float
        assert np.max(np.abs(out - direct_sum(full_kernel(h), grid.omega_minus(), delays))) < 1e-14

    def test_2d_grid_rejected(self):
        # A 2D grid may have an even count; the transform needs a 1D one.
        grid = SpectralGrid(span_minus=2.0, points_minus=4, span_plus=2.0, points_plus=3)
        with pytest.raises(ValidationError, match="defined for 1D grids"):
            hom.delay_transform(grid, [0.0, 1.0])

    @pytest.mark.parametrize(
        "delays", [np.linspace(-2.0, 2.0, 33), [-2.0, 0.1, 0.5, 2.0]], ids=["uniform", "scattered"]
    )
    @pytest.mark.parametrize("size", [50, 52, 101])
    def test_kernel_of_another_length_rejected(self, plan_builds, delays, size):
        transform = hom.delay_transform(SpectralGrid(span_minus=6.0, points_minus=101), delays)
        assert len(plan_builds) == 1
        with pytest.raises(ValidationError, match=f"the half kernel needs 51 samples, got \\({size},\\)"):
            transform(np.ones(size, dtype=complex))
        with pytest.raises(ValidationError, match="the half kernel needs 51 samples"):
            hom.kernel_trace(np.ones((51, 1), dtype=complex), transform)

    def test_trace_is_on_the_axis_of_its_transform(self):
        jsa = gaussian_state(points=1001)
        transform = hom.delay_transform(jsa.grid, np.linspace(-1e-12, 1e-12, 101))
        trace = hom.kernel_trace(biphoton.exchange_kernel(jsa), transform)
        assert trace.delays is transform.delays
        assert np.array_equal(trace.delays, np.linspace(-1e-12, 1e-12, 101))


def long_double_transform(h, omega, delays):
    """2 Re sum h exp(-i omega tau), summed in long double: the transform's oracle."""
    h, omega = h.astype(np.clongdouble), omega.astype(np.longdouble)
    return np.array([2.0 * np.real(np.sum(h * np.exp(-1j * omega * t))) for t in np.asarray(delays, np.longdouble)])


class TestLongDoubleOracle:
    # The block plan builds every phasor from its own phase and sums at most
    # B terms of |h| per moment; on the three chip axes it is 3.3e-16 to
    # 3.7e-16 from the long-double sum.
    @pytest.mark.parametrize("axis", ["linspace", "jittered", "decreasing"])
    def test_chip_transform_matches_long_double_sum(self, chip_state, plan_builds, axis):
        jsa, delays = chip_state
        if axis == "jittered":  # +-1 fs on a 2.2 fs step
            delays = delays + np.random.default_rng(0).uniform(-1e-15, 1e-15, delays.size)
        elif axis == "decreasing":
            delays = delays[::-1]
        h = biphoton.exchange_kernel(jsa)
        out = hom.delay_transform(jsa.grid, delays)(h)
        assert len(plan_builds) == 1
        sample = np.linspace(0, delays.size - 1, 21).astype(int)
        omega = jsa.grid.omega_minus()[jsa.grid.points_minus // 2 :]
        assert np.max(np.abs(out[sample] - long_double_transform(h, omega, delays[sample]))) <= 1e-12

    def test_more_delays_than_half_grid_samples(self, plan_builds):
        jsa = gaussian_state(points=101)
        delays = np.linspace(-5 / SIGMA, 5 / SIGMA, 401)
        h = biphoton.exchange_kernel(jsa)
        out = hom.delay_transform(jsa.grid, delays)(h)
        assert len(plan_builds) == 1 and plan_builds[0][0] == 51
        omega = jsa.grid.omega_minus()[50:]
        assert np.max(np.abs(out - long_double_transform(h, omega, delays))) <= 1e-12

    def test_wide_axis_plan_stays_within_its_memory_budget(self, chip_state):
        # 1 203 random delays in +-100 ps, over the chip's revivals at +-52 ps:
        # one window over the whole axis would hold about 200 MB of coarse phasors.
        jsa, _ = chip_state
        delays = np.random.default_rng(2).uniform(-1e-10, 1e-10, 1203)
        h = biphoton.exchange_kernel(jsa)
        tracemalloc.start()
        try:
            transform = hom.delay_transform(jsa.grid, delays)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 32 * 2**20
        out = transform(h)
        sample = np.linspace(0, delays.size - 1, 21).astype(int)
        omega = jsa.grid.omega_minus()[jsa.grid.points_minus // 2 :]
        assert np.max(np.abs(out[sample] - long_double_transform(h, omega, delays[sample]))) <= 1e-12


class TestPlanBuilds:
    def test_calibration_builds_one_plan(
        self, plan_builds, resonant_pump, fast_phase_match, fast_cavity, fast_grid
    ):
        calibration.calibrate_dispersion(
            resonant_pump, fast_phase_match, fast_cavity, fast_grid, math.pi / FSR, 0.4,
            bracket=(0.0, 1e-21),
        )
        assert len(plan_builds) == 1

    def test_sweep_builds_one_plan(self, plan_builds, tmp_path):
        cfg = write_config(tmp_path, small_config_doc())
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "out"), "--points", "9"]) == 0
        assert len(plan_builds) == 1

    def test_a_plan_lives_as_long_as_its_transform(self, monkeypatch):
        plans = []
        build = hom._block_plan

        def watched(n, step, delays):
            plan = build(n, step, delays)
            plans.append(weakref.ref(plan))
            return plan

        monkeypatch.setattr(hom, "_block_plan", watched)
        jsa = gaussian_state(points=1001)
        delays = np.linspace(-4 / SIGMA, 4 / SIGMA, 64)
        first = hom.coincidence_trace(jsa, delays).p_coincidence
        second = hom.coincidence_trace(jsa, delays).p_coincidence
        assert len(plans) == 2  # each trace builds its own transform
        assert np.array_equal(first, second)
        transform = hom.delay_transform(jsa.grid, delays)
        assert plans[2]() is not None
        del transform
        assert all(plan() is None for plan in plans)

    def test_fit_model_on_jittered_axis_matches_full_grid_sum(self, plan_builds, monkeypatch):
        problem, theta = small_problem_parts()
        delays = jittered(problem.delays, 0.2)
        jsa = biphoton.assemble_jsa_mono(
            problem.pump, problem.phase_match_template, problem.cavity, problem.grid
        )
        trace = hom.trace_for_delayed_state(jsa, problem.state_delay, delays)
        counts = theta["amplitude"] * trace.p_coincidence + theta["baseline"]
        problem = replace(problem, delays=delays, counts=counts)
        evaluated = []
        probability = hom.coincidence_probability

        def recording(h, transform):
            p = probability(h, transform)
            evaluated.append((h, p))
            return p

        monkeypatch.setattr(hom, "coincidence_probability", recording)
        plan_builds.clear()
        result = estimation.fit_hom_trace(problem, FitSettings(starts=1), theta)
        assert len(plan_builds) == 1
        assert result.residual < 1e-20
        for h, p in evaluated[::10]:
            assert h.size == problem.grid.points_minus // 2 + 1
            slow = full_grid_probability(h, problem.grid, delays)
            assert np.max(np.abs(p - slow)) < 1e-12


class TestTraceBasics:
    def test_symmetric_state_dips_to_zero(self):
        trace = hom.coincidence_trace(
            gaussian_state(), np.linspace(-8 / SIGMA, 8 / SIGMA, 801)
        )
        assert trace.extremum_kind == hom.DIP
        assert trace.extremum == pytest.approx(0.0, abs=1e-9)
        assert trace.baseline == pytest.approx(0.5, abs=1e-3)

    def test_antisymmetric_state_peaks_to_one(self):
        trace = hom.coincidence_trace(
            antisymmetric_state(), np.linspace(-5 / SIGMA, 5 / SIGMA, 501)
        )
        assert trace.extremum_kind == hom.PEAK
        assert trace.extremum == pytest.approx(1.0, abs=1e-9)

    def test_probability_stays_in_the_unit_interval(self):
        # A pure symmetric (antisymmetric) state reaches 0 (1) where roundoff
        # can overshoot; on this state's 401-delay CLI axis it once wrote
        # P = -1.7e-13, which ``qcomb fit`` refuses as a negative count.
        cfg = config.parse_config(json.dumps(small_config_doc()))
        jsa = biphoton.assemble_jsa_mono(cfg.pump, cfg.phase_match, cfg.cavity, cfg.grid)
        for state, delays in [
            (jsa, cli._delay_axis(cfg, 401)),
            (antisymmetric_state(), np.linspace(-5 / SIGMA, 5 / SIGMA, 501)),
        ]:
            p = hom.coincidence_trace(state, delays).p_coincidence
            assert 0.0 <= p.min() and p.max() <= 1.0

    def test_trace_even_in_delay(self):
        delays = np.linspace(-4 / SIGMA, 4 / SIGMA, 401)
        p = hom.coincidence_trace(gaussian_state(), delays).p_coincidence
        assert np.allclose(p, p[::-1], atol=1e-12)

    def test_walkoff_shifts_dip_center(self):
        jsa = gaussian_state()
        k1 = 1.5 / SIGMA
        shifted = Jsa(
            grid=jsa.grid,
            amplitudes=jsa.amplitudes
            * np.exp(1j * k1 * jsa.grid.omega_minus() / 2.0),
            pump_frequency=jsa.pump_frequency,
        )
        delays = np.linspace(-5 / SIGMA, 5 / SIGMA, 1001)
        trace = hom.coincidence_trace(shifted, delays)
        dip_at = delays[int(np.argmin(trace.p_coincidence))]
        assert dip_at == pytest.approx(k1, abs=2 * (delays[1] - delays[0]))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("operation", ["exchange_overlap", "coincidence_trace"])
    def test_non_finite_state_rejected(self, operation, value):
        jsa = gaussian_state()
        amplitudes = jsa.amplitudes.copy()
        amplitudes[100] = value
        jsa = Jsa(grid=jsa.grid, amplitudes=amplitudes, pump_frequency=jsa.pump_frequency)
        with pytest.raises(DegenerateStateError, match="zero or non-finite norm"):
            if operation == "exchange_overlap":
                biphoton.exchange_overlap(jsa)
            else:
                hom.coincidence_trace(jsa, np.linspace(-1 / SIGMA, 1 / SIGMA, 11))

    @pytest.mark.parametrize("delays", [[], [0.0]])
    def test_short_delay_axis_rejected(self, delays):
        jsa = gaussian_state()
        with pytest.raises(ValidationError, match="at least 2 delays"):
            hom.coincidence_trace(jsa, delays)
        with pytest.raises(ValidationError, match="at least 2 delays"):
            hom.delay_transform(jsa.grid, delays)

    @pytest.mark.parametrize(
        "delays",
        [
            [0.0, math.nan, 1e-13],
            list(np.linspace(-1 / SIGMA, 1 / SIGMA, 19)) + [math.inf],
            [-math.inf, 0.0, 1e-13],
            [-1e308, 0.0, 1e308],  # finite delays, but their span overflows
        ],
    )
    def test_non_finite_delays_rejected(self, delays):
        jsa = gaussian_state()
        with pytest.raises(ValidationError, match="finite"):
            hom.coincidence_trace(jsa, delays)
        with pytest.raises(ValidationError, match="finite"):
            hom.delay_transform(jsa.grid, delays)

    def test_delayed_state_trace_is_shifted(self):
        jsa = gaussian_state()
        tau0 = 1.0 / SIGMA
        delays = np.linspace(-5 / SIGMA, 5 / SIGMA, 501)
        shifted = hom.trace_for_delayed_state(jsa, tau0, delays)
        direct = hom.coincidence_trace(jsa, delays - tau0)
        assert np.allclose(shifted.p_coincidence, direct.p_coincidence, atol=1e-9)


class TestVisibility:
    def test_full_dip_visibility_is_one(self):
        trace = hom.coincidence_trace(
            gaussian_state(), np.linspace(-8 / SIGMA, 8 / SIGMA, 801)
        )
        assert hom.visibility(trace) == pytest.approx(1.0, abs=1e-3)

    def test_peak_visibility_is_negative(self):
        trace = hom.coincidence_trace(
            antisymmetric_state(), np.linspace(-8 / SIGMA, 8 / SIGMA, 801)
        )
        assert hom.visibility(trace) == pytest.approx(-1.0, abs=1e-2)

    def test_window_with_too_few_samples_rejected(self):
        # 21 delays leave fewer than 10 in the default [3w, 5w] window.
        trace = hom.coincidence_trace(
            gaussian_state(), np.linspace(-8 / SIGMA, 8 / SIGMA, 21)
        )
        with pytest.raises(ValidationError, match="at least 10 samples"):
            hom.visibility(trace)

    def test_zero_baseline_rejected(self):
        delays = np.linspace(-1.0, 1.0, 101)
        trace = hom.HomTrace(
            delays=delays,
            p_coincidence=np.zeros_like(delays),
            baseline=0.0,
            extremum=0.0,
            extremum_kind=hom.DIP,
        )
        with pytest.raises(UndefinedVisibilityError):
            hom.visibility(trace)

    def test_window_reaching_the_extremum_rejected(self):
        # 12 equal delays: the feature has no width, so the window starts at
        # the extremum.
        trace = hom.coincidence_trace(gaussian_state(), np.full(12, 1 / SIGMA))
        with pytest.raises(ValidationError, match="no samples near the extremum"):
            hom.visibility(trace)

    def test_overlapping_window_warns(self):
        # A flat-bottomed dip over 95 % of each half of the axis: the
        # window falls back to the outer quarter, and measured against that
        # quarter's mean level the dip reaches into it.
        delays = np.linspace(-1.0, 1.0, 801)
        p = 0.5 * (1.0 - np.exp(-((delays / 0.95) ** 8)))
        trace = hom.HomTrace(
            delays=delays,
            p_coincidence=p,
            baseline=0.5,
            extremum=float(p.min()),
            extremum_kind=hom.DIP,
        )
        with pytest.warns(UserWarning, match="overlaps the interference feature"):
            assert hom.visibility(trace) == pytest.approx(1.0)

    def test_off_centre_dip_keeps_its_visibility(self, recwarn):
        # 200 fs of walk-off moves the chip dip to tau = +200 fs; the
        # baseline window must follow it there.
        jsa = biphoton.assemble_jsa_mono(
            presets.chip_pump(),
            presets.chip_phase_match(walkoff=2e-13),
            presets.chip_cavity(),
            presets.chip_grid(),
        )
        trace = hom.coincidence_trace(jsa, np.linspace(-8e-13, 8e-13, 801))
        assert trace.extremum_kind == hom.DIP
        assert hom.visibility(trace) == pytest.approx(0.999, abs=1e-3)
        assert not recwarn.list

    def test_reversed_axis_keeps_baseline_and_visibility(self):
        # The chip dip's [3w, 5w] baseline window fits inside this span.
        jsa = biphoton.assemble_jsa_mono(
            presets.chip_pump(),
            presets.chip_phase_match(),
            presets.chip_cavity(),
            presets.chip_grid(),
        )
        delays = np.linspace(-8e-13, 8e-13, 801)
        forward = hom.coincidence_trace(jsa, delays)
        reversed_ = hom.coincidence_trace(jsa, delays[::-1])
        assert reversed_.baseline == pytest.approx(forward.baseline, abs=1e-12)
        assert hom.visibility(reversed_) == pytest.approx(hom.visibility(forward), abs=1e-12)


class TestContrast:
    def test_dip_and_peak(self):
        delays = np.linspace(-8 / SIGMA, 8 / SIGMA, 801)
        dip = hom.coincidence_trace(gaussian_state(), delays)
        peak = hom.coincidence_trace(antisymmetric_state(), delays)
        assert hom.contrast(dip) == pytest.approx(1.0, abs=1e-9)
        assert hom.contrast(peak) == pytest.approx(-1.0, abs=1e-9)


class TestFeatureWidth:
    @pytest.mark.parametrize("direction", [1, -1])
    def test_gaussian_dip_fwhm(self, direction):
        delays = np.linspace(-8 / SIGMA, 8 / SIGMA, 2001)[::direction]
        trace = hom.coincidence_trace(gaussian_state(), delays)
        expected = gaussian_dip_fwhm(SIGMA)
        assert hom.feature_width(trace) == pytest.approx(expected, rel=1e-3)

    def test_coarse_axis_rejected(self):
        delays = np.linspace(-8 / SIGMA, 8 / SIGMA, 9)
        trace = hom.coincidence_trace(gaussian_state(), delays)
        with pytest.raises(ResolutionError):
            hom.feature_width(trace)

    def test_truncated_feature_rejected(self):
        delays = np.linspace(-0.8 / SIGMA, 0.8 / SIGMA, 201)
        p = gaussian_trace(SIGMA, delays)
        trace = hom.HomTrace(
            delays=delays,
            p_coincidence=p,
            baseline=0.5,
            extremum=float(p.min()),
            extremum_kind=hom.DIP,
        )
        with pytest.raises(ResolutionError):
            hom.feature_width(trace)


def test_comb_state_revival(fast_phase_match, resonant_pump):
    from qcomb.cavity import CavitySpec

    cav = CavitySpec(fsr=FSR, reflectivity_signal=0.97, reflectivity_idler=0.97)
    grid = SpectralGrid(span_minus=16 * FSR, points_minus=2**15 + 1)
    jsa = biphoton.assemble_jsa_mono(resonant_pump, fast_phase_match, cav, grid)
    period = math.pi / FSR
    delays = np.linspace(-2 * period, 2 * period, 1601)
    p = hom.coincidence_trace(jsa, delays).p_coincidence
    shifted = hom.coincidence_trace(jsa, delays + period).p_coincidence
    # Revivals decay like R^k, so at R = 0.97 one period costs a few percent.
    assert np.max(np.abs(p - shifted)) < 0.05
