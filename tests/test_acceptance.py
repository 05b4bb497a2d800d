"""Acceptance suite: end-to-end checks of the headline physics claims.

Each test prints a "criterion N: PASS/FAIL" line (bypassing pytest
capture) so a full run yields a per-criterion scoreboard.
"""

import math
import time

import numpy as np
import pytest

import test_properties
from qcomb import biphoton, calibration, hom, presets
from qcomb.biphoton import SpectralGrid
from qcomb.cavity import CavitySpec, Polarization, amplitude_transmission
from qcomb.estimation import FitProblem, FitSettings, fit_hom_trace, simulate_counts
from qcomb.hom import HomTrace
from qcomb.spectral import (
    FilterShape,
    FilterSpec,
    PhaseMatchSpec,
    PumpSpec,
)
from conftest import gaussian_trace

C_LIGHT = 299792458.0


#: Scoreboard lines; conftest prints these in the terminal summary.
RESULTS = []


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number}: {status} — {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, f"criterion {number}: {detail}"


def with_background(trace, background):
    """Counts-model view of a trace: unit amplitude plus flat background."""
    return HomTrace(
        delays=trace.delays,
        p_coincidence=trace.p_coincidence + background,
        baseline=trace.baseline + background,
        extremum=trace.extremum + background,
        extremum_kind=trace.extremum_kind,
    )


@pytest.fixture(scope="module")
def operating_point():
    return calibration.paper_operating_point()


def test_criterion_1_symmetry_flip():
    fsr = presets.FSR
    cav = CavitySpec(fsr=fsr, reflectivity_signal=0.999, reflectivity_idler=0.999)
    grid = SpectralGrid(span_minus=64 * fsr, points_minus=2**20 + 1)
    delays = np.linspace(-20e-12, 20e-12, 1001)
    results = {}
    elapsed = {}
    for anti in (False, True):
        t0 = time.perf_counter()
        pump = presets.chip_pump(anti_resonant=anti)
        pm = PhaseMatchSpec(
            degeneracy_frequency=pump.center_frequency / 2, bandwidth=16 * fsr
        )
        jsa = biphoton.assemble_jsa_mono(pump, pm, cav, grid)
        delayed = biphoton.apply_delay(jsa, math.pi / fsr)
        s = biphoton.exchange_overlap(delayed)
        trace = hom.coincidence_trace(delayed, delays)
        v = hom.visibility(trace)
        elapsed[anti] = time.perf_counter() - t0
        results[anti] = (s, v, trace.extremum_kind)
    s_r, v_r, kind_r = results[False]
    s_a, v_a, kind_a = results[True]
    ok = (
        s_r >= 0.95
        and v_r >= 0.95
        and kind_r == hom.DIP
        and s_a <= -0.95
        and v_a <= -0.95
        and kind_a == hom.PEAK
        and max(elapsed.values()) < 5.0
    )
    report(
        1,
        ok,
        f"resonant ReS={s_r:+.4f} V={v_r:+.4f} {kind_r}; "
        f"anti-resonant ReS={s_a:+.4f} V={v_a:+.4f} {kind_a}; "
        f"slowest run {max(elapsed.values()):.2f}s",
    )


def test_criterion_2_airy_closed_form():
    fsr = presets.FSR
    worst = 0.0
    for r in (0.24, 0.27, 0.5, 0.8, 0.999):
        cav = CavitySpec(fsr=fsr, reflectivity_signal=r, reflectivity_idler=r)
        t = amplitude_transmission(cav, Polarization.SIGNAL, fsr / 2)
        worst = max(worst, abs(abs(t) ** 2 - ((1 - r) / (1 + r)) ** 2))
    report(2, worst < 1e-12, f"max |t|^2 error at anti-resonance {worst:.2e}")


def test_criterion_3_gaussian_oracle():
    sigma = 2.0 * math.pi * 1e12
    grid = SpectralGrid(span_minus=12 * sigma, points_minus=4001)
    w = grid.omega_minus()
    jsa = biphoton.Jsa(
        grid=grid,
        amplitudes=np.exp(-(w**2) / (2 * sigma**2)).astype(complex),
        pump_frequency=2e15,
    )
    delays = np.linspace(-5 / sigma, 5 / sigma, 501)
    trace = hom.coincidence_trace(jsa, delays)
    err = float(np.max(np.abs(trace.p_coincidence - gaussian_trace(sigma, delays))))
    report(3, err < 1e-6, f"max |P_c - closed form| = {err:.2e}")


def test_criterion_4_reference_dip(operating_point):
    op = operating_point
    delays = np.linspace(-8e-13, 8e-13, 801)
    jsa = biphoton.assemble_jsa_mono(op.pump, op.phase_match, op.cavity, op.grid)
    trace = with_background(hom.coincidence_trace(jsa, delays), op.baseline)
    v = hom.visibility(trace)
    width = hom.feature_width(trace)
    ok = abs(v - 0.86) <= 0.05 and 40e-15 <= width <= 65e-15
    report(4, ok, f"V={v:.3f} (target 0.86±0.05), FWHM={width * 1e15:.1f} fs ([40, 65])")


def test_criterion_5_delayed_states(operating_point):
    op = operating_point
    delays = np.linspace(-8e-13, 8e-13, 801)
    outcomes = {}
    for anti in (False, True):
        pump = presets.chip_pump(anti_resonant=anti)
        jsa = biphoton.assemble_jsa_mono(pump, op.phase_match, op.cavity, op.grid)
        trace = with_background(
            hom.trace_for_delayed_state(jsa, op.flip_delay, delays), op.baseline
        )
        outcomes[anti] = (hom.visibility(trace), trace.extremum_kind)
    v_r, kind_r = outcomes[False]
    v_a, kind_a = outcomes[True]
    ok = (
        0.05 <= abs(v_r) <= 0.20
        and 0.05 <= abs(v_a) <= 0.20
        and kind_r == hom.DIP
        and kind_a == hom.PEAK
    )
    report(
        5,
        ok,
        f"resonant V={v_r:+.3f} {kind_r}; anti-resonant V={v_a:+.3f} {kind_a} "
        f"(|V| target [0.05, 0.20])",
    )


def test_criterion_6_filter_prediction(operating_point):
    op = operating_point
    lam = presets.CENTER_WAVELENGTH
    filter_bw = 2 * math.pi * C_LIGHT * 25e-9 / lam**2
    cav = CavitySpec(
        fsr=presets.FSR, reflectivity_signal=0.5, reflectivity_idler=0.5
    )
    jsa = biphoton.assemble_jsa_mono(op.pump, op.phase_match, cav, op.grid)
    filt = FilterSpec(
        center=op.pump.center_frequency / 2,
        bandwidth=filter_bw,
        shape=FilterShape.TOPHAT,
    )
    filtered = biphoton.apply_filter(jsa, filt)
    delays = np.linspace(-8e-13, 8e-13, 801)
    trace = hom.trace_for_delayed_state(filtered, op.flip_delay, delays)
    v = hom.visibility(trace)
    ok = abs(v - 0.70) <= 0.10
    report(6, ok, f"25 nm filter + R=0.5 delayed-state V={v:.3f} (target 0.70±0.10)")


def count_comb_peaks(jsi_1d, threshold_fraction):
    """Count strict local maxima above threshold_fraction * max(JSI)."""
    y = np.asarray(jsi_1d, dtype=float)
    inner = y[1:-1]
    mask = (inner > y[:-2]) & (inner > y[2:]) & (inner > threshold_fraction * y.max())
    return int(np.count_nonzero(mask))


def test_count_comb_peaks_counts_local_maxima_above_threshold():
    y = np.array([0.0, 1.0, 0.0, 0.005, 0.0, 0.8, 0.0])
    assert count_comb_peaks(y, 0.01) == 2


def test_criterion_7_peak_count():
    jsa = biphoton.assemble_jsa_mono(
        presets.chip_pump(),
        presets.chip_phase_match(),
        presets.chip_cavity(),
        presets.chip_grid(),
    )
    n = count_comb_peaks(biphoton.jsi(jsa), 0.01)
    report(7, n > 500, f"{n} comb peaks above 1% threshold (need > 500)")


def test_criterion_8_jsi_periodicity():
    fsr = presets.FSR
    cav = CavitySpec(fsr=fsr, reflectivity_signal=0.8, reflectivity_idler=0.8)
    pump = PumpSpec(center_frequency=presets.PUMP_RESONANT, linewidth=40 * fsr)
    grid = SpectralGrid(span_minus=8 * fsr, points_minus=1025, span_plus=8 * fsr, points_plus=1025)
    jsa = biphoton.assemble_jsa(pump, presets.chip_phase_match(), cav, grid)
    intensity = biphoton.jsi(jsa)
    spectrum = np.fft.fft2(intensity - intensity.mean())
    autocorr = np.real(np.fft.ifft2(np.abs(spectrum) ** 2))
    lag = int(round(2 * fsr / grid.step_minus))
    peak_plus = int(np.argmax(autocorr[lag - 5 : lag + 6, 0])) + lag - 5
    peak_minus = int(np.argmax(autocorr[0, lag - 5 : lag + 6])) + lag - 5
    ok = abs(peak_plus - lag) <= 1 and abs(peak_minus - lag) <= 1
    report(
        8,
        ok,
        f"autocorrelation maxima at lags ({peak_plus}, {peak_minus}) "
        f"vs 2*fsr lag {lag} (within one step)",
    )


def _fit_context():
    bw_true = presets.DIFFERENCE_BANDWIDTH
    grid = SpectralGrid(span_minus=1.5 * bw_true, points_minus=2**14 + 1)
    pump = presets.chip_pump()
    cav = presets.chip_cavity()
    theta = dict(
        bandwidth=bw_true,
        walkoff=2.0e-13,
        dispersion=3.0e-27,
        amplitude=1.7,
        baseline=0.12,
    )
    pm_true = PhaseMatchSpec(
        degeneracy_frequency=pump.center_frequency / 2,
        bandwidth=theta["bandwidth"],
        walkoff=theta["walkoff"],
        dispersion=theta["dispersion"],
    )
    bounds = {
        "bandwidth": (0.3 * bw_true, 3 * bw_true),
        "walkoff": (-1e-12, 1e-12),
        "dispersion": (0.0, 3e-26),
        "amplitude": (0.1, 5.0),
        "baseline": (0.0, 1.0),
    }
    delays = np.linspace(-8e-13, 8e-13, 161)
    return pump, cav, grid, pm_true, theta, bounds, delays


def test_criterion_9_fit_oracle():
    pump, cav, grid, pm_true, theta, bounds, delays = _fit_context()
    tau0 = math.pi / presets.FSR
    jsa = biphoton.assemble_jsa_mono(pump, pm_true, cav, grid)

    # Noiseless round-trip on the symmetry-flipped trace (all identifiable).
    trace = hom.trace_for_delayed_state(jsa, tau0, delays)
    counts = theta["amplitude"] * trace.p_coincidence + theta["baseline"]
    problem = FitProblem(
        delays=delays,
        counts=counts,
        bounds=bounds,
        pump=pump,
        phase_match_template=pm_true,
        cavity=cav,
        grid=grid,
        state_delay=tau0,
    )
    result = fit_hom_trace(problem, FitSettings(starts=4, xatol=1e-7, maxiter=3000))
    rel_errors = {
        name: abs(result.parameters[name] - true) / abs(true)
        for name, true in theta.items()
    }
    noiseless_ok = result.converged and max(rel_errors.values()) < 0.01

    # Poisson round-trip: bandwidth within 5% over 10 seeds.
    trace0 = hom.coincidence_trace(jsa, delays)
    noisy_bounds = dict(bounds, amplitude=(1.0, 1e5), baseline=(0.0, 2e3))
    bw_errors = []
    for seed in range(10):
        noisy_counts = simulate_counts(trace0, 1e4, seed).astype(float)
        noisy = FitProblem(
            delays=delays,
            counts=noisy_counts,
            bounds=noisy_bounds,
            pump=pump,
            phase_match_template=pm_true,
            cavity=cav,
            grid=grid,
        )
        fit = fit_hom_trace(noisy, FitSettings(starts=2, xatol=1e-5, maxiter=800))
        bw_errors.append(
            abs(fit.parameters["bandwidth"] - theta["bandwidth"]) / theta["bandwidth"]
        )
    poisson_ok = max(bw_errors) < 0.05
    report(
        9,
        noiseless_ok and poisson_ok,
        f"noiseless max rel err {max(rel_errors.values()):.2e} (<1%); "
        f"Poisson max bandwidth err {max(bw_errors):.3f} over 10 seeds (<5%)",
    )


def test_criterion_10_invariant_suites(tmp_path):
    rng = np.random.default_rng(20240817)
    test_properties.test_exchange_overlap_bound(rng)
    test_properties.test_delay_composition(rng)
    test_properties.test_trace_symmetry(rng)
    test_properties.test_comb_revival_period(rng)
    test_properties.test_config_round_trip()
    test_properties.test_output_determinism(rng, tmp_path)
    report(10, True, "six invariant suites passed (100 randomized cases each)")
