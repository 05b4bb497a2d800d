import math

import numpy as np
import pytest
from scipy.optimize import brentq

from qcomb.cavity import (
    CavitySpec,
    Polarization,
    PumpClassLabel,
    amplitude_transmission,
    cavity_factor,
    classify_pump,
    linewidth,
)
from qcomb.errors import ValidationError

FSR = 2.0 * math.pi * 10e9


def make_cavity(r, offset=0.0):
    return CavitySpec(
        fsr=FSR, reflectivity_signal=r, reflectivity_idler=r, resonance_offset=offset
    )


class TestAiryTransmission:
    @pytest.mark.parametrize("r", [0.24, 0.27, 0.5, 0.8, 0.999])
    def test_anti_resonance_closed_form(self, r):
        t = amplitude_transmission(make_cavity(r), Polarization.SIGNAL, FSR / 2)
        assert abs(t) ** 2 == pytest.approx(((1 - r) / (1 + r)) ** 2, abs=1e-12)

    @pytest.mark.parametrize("r", [0.24, 0.5, 0.999])
    def test_unit_transmission_on_resonance(self, r):
        t = amplitude_transmission(make_cavity(r), Polarization.SIGNAL, 3 * FSR)
        assert abs(t) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_periodicity(self):
        cav = make_cavity(0.6)
        w = np.linspace(0.0, FSR, 50)
        t1 = amplitude_transmission(cav, Polarization.SIGNAL, w)
        t2 = amplitude_transmission(cav, Polarization.SIGNAL, w + 2 * FSR)
        assert np.allclose(t1, t2)

    def test_resonance_offset_moves_peak(self):
        cav = make_cavity(0.9, offset=0.3 * FSR)
        t = amplitude_transmission(cav, Polarization.SIGNAL, 0.3 * FSR)
        assert abs(t) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_per_polarization_reflectivity(self):
        cav = CavitySpec(fsr=FSR, reflectivity_signal=0.27, reflectivity_idler=0.24)
        ts = amplitude_transmission(cav, Polarization.SIGNAL, FSR / 2)
        ti = amplitude_transmission(cav, Polarization.IDLER, FSR / 2)
        assert abs(ts) < abs(ti)

    def test_dispersion_chirps_resonances(self):
        # With a quadratic phase the resonance near w0 + k*fsr shifts by an
        # amount growing quadratically in k.
        cav = make_cavity(0.9)
        kappa2 = 1e-3 / FSR**2

        def detuned_peak(k):
            def minus_intensity(w):
                t = amplitude_transmission(
                    cav, Polarization.SIGNAL, w, dispersion=kappa2
                )
                return -abs(t) ** 2

            lo, hi = (k - 0.4) * FSR, (k + 0.4) * FSR
            from scipy.optimize import minimize_scalar

            res = minimize_scalar(minus_intensity, bounds=(lo, hi), method="bounded")
            return res.x - k * FSR

        assert abs(detuned_peak(8)) > 2 * abs(detuned_peak(4)) > 0


    @pytest.mark.parametrize("r", [0.0, 0.24, 0.27, 0.5])
    def test_real_form_matches_complex_form(self, r):
        # The phase reaches 4e4 rad; phi is built as amplitude_transmission does.
        cav = CavitySpec(
            fsr=FSR, reflectivity_signal=r, reflectivity_idler=r, resonance_offset=0.3 * FSR
        )
        w = np.linspace(-1.2e4, 1.2e4, 100001) * FSR
        chirp = dict(dispersion=1e4 / (1.2e4 * FSR) ** 2, dispersion_center=0.5 * FSR)
        t = amplitude_transmission(cav, Polarization.SIGNAL, w, **chirp)
        d = w - chirp["dispersion_center"]
        phi = np.pi * (w - cav.resonance_offset) / cav.fsr + chirp["dispersion"] * d * d
        assert np.abs(phi).max() > 4e4
        e = np.exp(1j * phi)
        assert np.max(np.abs(t - (1 - r) * e / (1 - r * e * e))) <= 1e-15

    def test_scalar_and_array_inputs_keep_their_shape(self):
        cav = make_cavity(0.27)
        t = amplitude_transmission(cav, Polarization.SIGNAL, 0.3 * FSR)
        assert np.isscalar(t) and isinstance(t, complex)
        w = np.linspace(0.0, FSR, 12).reshape(3, 4)
        assert amplitude_transmission(cav, Polarization.SIGNAL, w).shape == (3, 4)


class TestLinewidth:
    @pytest.mark.parametrize("r", [0.27, 0.5, 0.9])
    def test_matches_numerical_half_maximum(self, r):
        cav = make_cavity(r)

        def half_crossing(w):
            t = amplitude_transmission(cav, Polarization.SIGNAL, w)
            return abs(t) ** 2 - 0.5

        hwhm = brentq(half_crossing, 1e-6 * FSR, FSR / 2)
        assert linewidth(cav, Polarization.SIGNAL) == pytest.approx(2 * hwhm, rel=1e-9)

    def test_zero_reflectivity_raises(self):
        with pytest.raises(ValidationError):
            linewidth(make_cavity(0.0), Polarization.SIGNAL)

    def test_low_contrast_raises(self):
        # Below R = 3 - 2*sqrt(2) the Airy minimum stays above half maximum.
        with pytest.raises(ValidationError):
            linewidth(make_cavity(0.1), Polarization.SIGNAL)


class TestCavityFactor:
    def test_equals_transmission_product(self):
        cav = CavitySpec(fsr=FSR, reflectivity_signal=0.3, reflectivity_idler=0.6)
        wp, wm = 200 * FSR, np.linspace(-3 * FSR, 3 * FSR, 31)
        ts = amplitude_transmission(cav, Polarization.SIGNAL, (wp + wm) / 2)
        ti = amplitude_transmission(cav, Polarization.IDLER, (wp - wm) / 2)
        assert np.allclose(cavity_factor(cav, wp, wm), ts * ti)
        chirp = dict(dispersion=1e-22, dispersion_center=wp / 2)
        ts = amplitude_transmission(cav, Polarization.SIGNAL, (wp + wm) / 2, **chirp)
        ti = amplitude_transmission(cav, Polarization.IDLER, (wp - wm) / 2, **chirp)
        assert np.allclose(cavity_factor(cav, wp, wm, **chirp), ts * ti)


class TestClassifyPump:
    def test_resonant_and_anti_resonant(self):
        cav = make_cavity(0.5)
        assert classify_pump(cav, 8 * FSR).label is PumpClassLabel.RESONANT
        assert classify_pump(cav, 9 * FSR).label is PumpClassLabel.ANTI_RESONANT
        assert classify_pump(cav, 8.5 * FSR).label is PumpClassLabel.INTERMEDIATE

    @pytest.mark.parametrize(
        "multiple, label",
        [(8.1, PumpClassLabel.RESONANT), (8.15, PumpClassLabel.INTERMEDIATE)],
    )
    def test_tolerance_is_an_eighth_of_the_fsr(self, multiple, label):
        assert classify_pump(make_cavity(0.5), multiple * FSR).label is label

    def test_detuning_is_signed(self):
        cav = make_cavity(0.5)
        pc = classify_pump(cav, 8 * FSR + 0.02 * FSR)
        assert pc.nearest_resonant_detuning == pytest.approx(0.02 * FSR)

    def test_offset_shifts_grid(self):
        cav = make_cavity(0.5, offset=0.25 * FSR)
        pc = classify_pump(cav, 8 * FSR + 0.5 * FSR)
        assert pc.label is PumpClassLabel.RESONANT


def test_spec_validation():
    with pytest.raises(ValidationError):
        CavitySpec(fsr=-FSR, reflectivity_signal=0.5, reflectivity_idler=0.5)
    with pytest.raises(ValidationError):
        CavitySpec(fsr=FSR, reflectivity_signal=1.0, reflectivity_idler=0.5)
    with pytest.raises(ValidationError):
        CavitySpec(fsr=FSR, reflectivity_signal=0.5, reflectivity_idler=-0.1)
