import math

import numpy as np
import pytest

from qcomb import biphoton, hom, presets
from qcomb.biphoton import Jsa, SpectralGrid
from qcomb.errors import (
    GridSymmetryError,
    ResolutionError,
    UndefinedVisibilityError,
    ValidationError,
)
from conftest import FSR

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


class TestGaussianOracle:
    def test_trace_matches_closed_form(self):
        jsa = gaussian_state()
        delays = np.linspace(-5 / SIGMA, 5 / SIGMA, 501)
        trace = hom.coincidence_trace(jsa, delays)
        expected = hom.gaussian_trace(SIGMA, delays)
        assert np.max(np.abs(trace.p_coincidence - expected)) < 1e-6

    def test_non_uniform_delays_use_direct_sum(self):
        jsa = gaussian_state(points=1001)
        delays = np.array([-3.0, -0.5, 0.0, 0.7, 1.1, 2.9, 4.0, 4.5, 5.0]) / SIGMA
        trace = hom.coincidence_trace(jsa, delays)
        expected = hom.gaussian_trace(SIGMA, delays)
        assert np.max(np.abs(trace.p_coincidence - expected)) < 1e-6

    def test_uniform_and_direct_paths_agree(self):
        jsa = gaussian_state(points=1001)
        delays = np.linspace(-4 / SIGMA, 4 / SIGMA, 64)
        fast = hom.coincidence_trace(jsa, delays).p_coincidence
        w = jsa.grid.omega_minus()
        c = jsa.amplitudes
        kernel = c * np.conj(c[::-1]) * jsa.grid.step_minus / jsa.norm_squared
        slow = 0.5 - 0.5 * np.real(
            np.array([np.sum(kernel * np.exp(-1j * w * t)) for t in delays])
        )
        assert np.allclose(fast, slow, atol=1e-12)


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

    def test_requires_symmetric_grid(self):
        grid = SpectralGrid(span_minus=12 * SIGMA, points_minus=1000)
        w = grid.omega_minus()
        jsa = Jsa(
            grid=grid,
            amplitudes=np.exp(-(w**2) / (2 * SIGMA**2)) + 0j,
            pump_frequency=2e15,
        )
        with pytest.raises(GridSymmetryError):
            hom.coincidence_trace(jsa, np.linspace(-1 / SIGMA, 1 / SIGMA, 11))

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

    def test_explicit_window(self):
        trace = hom.coincidence_trace(
            gaussian_state(), np.linspace(-8 / SIGMA, 8 / SIGMA, 801)
        )
        v = hom.visibility(trace, baseline_window=(5 / SIGMA, 8 / SIGMA))
        assert v == pytest.approx(1.0, abs=1e-4)

    def test_window_with_too_few_samples_rejected(self):
        trace = hom.coincidence_trace(
            gaussian_state(), np.linspace(-8 / SIGMA, 8 / SIGMA, 801)
        )
        with pytest.raises(ValidationError):
            hom.visibility(trace, baseline_window=(7.99 / SIGMA, 8 / SIGMA))

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
            hom.visibility(trace, baseline_window=(0.5, 1.0))

    def test_overlapping_window_warns(self):
        trace = hom.coincidence_trace(
            gaussian_state(), np.linspace(-8 / SIGMA, 8 / SIGMA, 801)
        )
        with pytest.warns(UserWarning):
            hom.visibility(trace, baseline_window=(0.3 / SIGMA, 8 / SIGMA))

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


class TestContrast:
    def test_dip_and_peak(self):
        delays = np.linspace(-8 / SIGMA, 8 / SIGMA, 801)
        dip = hom.coincidence_trace(gaussian_state(), delays)
        peak = hom.coincidence_trace(antisymmetric_state(), delays)
        assert hom.contrast(dip) == pytest.approx(1.0, abs=1e-9)
        assert hom.contrast(peak) == pytest.approx(-1.0, abs=1e-9)


class TestFeatureWidth:
    def test_gaussian_dip_fwhm(self):
        delays = np.linspace(-8 / SIGMA, 8 / SIGMA, 2001)
        trace = hom.coincidence_trace(gaussian_state(), delays)
        expected = hom.gaussian_dip_fwhm(SIGMA)
        assert hom.feature_width(trace) == pytest.approx(expected, rel=1e-3)

    def test_coarse_axis_rejected(self):
        delays = np.linspace(-8 / SIGMA, 8 / SIGMA, 9)
        trace = hom.coincidence_trace(gaussian_state(), delays)
        with pytest.raises(ResolutionError):
            hom.feature_width(trace)

    def test_truncated_feature_rejected(self):
        delays = np.linspace(-0.8 / SIGMA, 0.8 / SIGMA, 201)
        p = hom.gaussian_trace(SIGMA, delays)
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
