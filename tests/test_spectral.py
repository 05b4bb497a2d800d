import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qcomb.errors import DeltaPumpError, ValidationError
from qcomb.spectral import (
    SINC_INTENSITY_HWHM,
    FilterShape,
    FilterSpec,
    PhaseMatchShape,
    PhaseMatchSpec,
    PumpMode,
    PumpSpec,
    eval_filter,
    eval_phase_match,
    eval_pump,
)

BW = 2.0 * math.pi * 1e12


def test_sinc_constant_is_half_intensity_point():
    x = SINC_INTENSITY_HWHM
    assert (math.sin(x) / x) ** 2 == pytest.approx(0.5, abs=1e-12)


class TestPump:
    def test_monochromatic_point_eval_raises(self):
        with pytest.raises(DeltaPumpError):
            eval_pump(PumpSpec(center_frequency=1e15), 1e15)

    def test_gaussian_peak_and_intensity_fwhm(self):
        spec = PumpSpec(
            center_frequency=1e15, mode=PumpMode.GAUSSIAN_BROADBAND, linewidth=BW
        )
        assert eval_pump(spec, 1e15) == pytest.approx(1.0)
        half = eval_pump(spec, 1e15 + BW / 2)
        assert abs(half) ** 2 == pytest.approx(0.5, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            PumpSpec(center_frequency=-1.0)
        with pytest.raises(ValidationError):
            PumpSpec(center_frequency=1e15, linewidth=-1.0)

    @pytest.mark.parametrize("linewidth", [0.0, -1.0])
    def test_broadband_needs_positive_linewidth(self, linewidth):
        # eval_pump divides by the linewidth.
        with pytest.raises(ValidationError, match="PumpSpec.linewidth"):
            PumpSpec(center_frequency=1e15, mode=PumpMode.GAUSSIAN_BROADBAND, linewidth=linewidth)

    def test_monochromatic_rejects_linewidth(self):
        # A delta pump has no linewidth, so a given one would be ignored.
        with pytest.raises(ValidationError, match="PumpSpec.linewidth"):
            PumpSpec(center_frequency=1e15, linewidth=BW)


class TestPhaseMatch:
    def test_sinc_intensity_fwhm_matches_bandwidth(self):
        spec = PhaseMatchSpec(degeneracy_frequency=1e15, bandwidth=BW)
        c = eval_phase_match(spec, 2e15, BW / 2)
        assert abs(c) ** 2 == pytest.approx(0.5, rel=1e-10)

    def test_gaussian_intensity_fwhm_matches_bandwidth(self):
        spec = PhaseMatchSpec(
            degeneracy_frequency=1e15, bandwidth=BW, shape=PhaseMatchShape.GAUSSIAN
        )
        c = eval_phase_match(spec, 2e15, BW / 2)
        assert abs(c) ** 2 == pytest.approx(0.5, rel=1e-12)

    def test_unit_peak_at_degeneracy(self):
        spec = PhaseMatchSpec(degeneracy_frequency=1e15, bandwidth=BW)
        assert eval_phase_match(spec, 2e15, 0.0) == pytest.approx(1.0)

    def test_spectral_phase_orders(self):
        k1, k2 = 3e-13, 5e-27
        spec = PhaseMatchSpec(
            degeneracy_frequency=1e15, bandwidth=BW, walkoff=k1, dispersion=k2
        )
        w = 0.1 * BW
        expected = k1 * w / 2 + k2 * w * w / 2
        assert np.angle(eval_phase_match(spec, 2e15, w)) == pytest.approx(expected)

    @given(st.floats(min_value=-3.0, max_value=3.0))
    def test_conjugate_under_reflection_without_dispersion(self, frac):
        spec = PhaseMatchSpec(
            degeneracy_frequency=1e15, bandwidth=BW, walkoff=1e-13
        )
        w = frac * BW
        assert np.conj(eval_phase_match(spec, 2e15, w)) == pytest.approx(
            eval_phase_match(spec, 2e15, -w)
        )

    @given(st.floats(min_value=-3.0, max_value=3.0))
    def test_dispersion_cancels_in_exchange_kernel(self, frac):
        # The quadratic phase is even in w, so it drops out of C(w)C*(-w).
        w = frac * BW
        base = PhaseMatchSpec(degeneracy_frequency=1e15, bandwidth=BW, walkoff=1e-13)
        chirped = PhaseMatchSpec(
            degeneracy_frequency=1e15, bandwidth=BW, walkoff=1e-13, dispersion=2e-27
        )
        k = lambda s: eval_phase_match(s, 2e15, w) * np.conj(
            eval_phase_match(s, 2e15, -w)
        )
        assert k(chirped) == pytest.approx(k(base))

    @pytest.mark.parametrize("shape", list(PhaseMatchShape))
    def test_real_form_matches_complex_exp(self, shape):
        # The spectral phase reaches 4e4 rad at the ends of the axis.
        w = np.linspace(-3.0, 3.0, 100001) * BW
        spec = PhaseMatchSpec(
            degeneracy_frequency=1e15,
            bandwidth=BW,
            walkoff=1e4 / (3.0 * BW),
            dispersion=8e4 / (3.0 * BW) ** 2,
            shape=shape,
        )
        phase = spec.walkoff * w / 2.0 + spec.dispersion * w * w / 2.0
        assert np.abs(phase).max() > 4e4
        if shape is PhaseMatchShape.SINC:
            amp = np.sinc(2.0 * SINC_INTENSITY_HWHM * w / BW / np.pi)
        else:
            amp = np.exp(-2.0 * math.log(2.0) * w * w / BW**2)
        c = eval_phase_match(spec, 2e15, w)
        assert np.max(np.abs(c - amp * np.exp(1j * phase))) <= 1e-15

    def test_scalar_input_gives_scalar(self):
        spec = PhaseMatchSpec(degeneracy_frequency=1e15, bandwidth=BW, walkoff=1e-13)
        for w in (0.0, 0.3 * BW):
            c = eval_phase_match(spec, 2e15, w)
            assert np.isscalar(c) and isinstance(c, complex)
        assert eval_phase_match(spec, 2e15, 0.0) == 1.0
        assert eval_phase_match(spec, 2e15, np.zeros((2, 3))).shape == (2, 3)

    def test_validation(self):
        with pytest.raises(ValidationError):
            PhaseMatchSpec(degeneracy_frequency=1e15, bandwidth=0.0)


class TestFilter:
    def test_tophat_support(self):
        spec = FilterSpec(center=1e15, bandwidth=BW, shape=FilterShape.TOPHAT)
        assert eval_filter(spec, 1e15) == 1.0
        assert eval_filter(spec, 1e15 + 0.49 * BW) == 1.0
        assert eval_filter(spec, 1e15 + 0.51 * BW) == 0.0

    def test_gaussian_intensity_fwhm(self):
        spec = FilterSpec(center=1e15, bandwidth=BW)
        assert eval_filter(spec, 1e15 + BW / 2) ** 2 == pytest.approx(0.5, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            FilterSpec(center=1e15, bandwidth=-BW)
