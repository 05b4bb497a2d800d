"""Randomized invariant suites (100+ cases each).

Covers: exchange-overlap bound, delay composition, trace symmetry, comb
revival periodicity, delay-shift invariance of the trace observables,
configuration round-trip, and output determinism.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcomb import biphoton, cli, hom
from qcomb.biphoton import SpectralGrid
from qcomb.cavity import CavitySpec
from qcomb.config import RunConfig, emit_config, parse_config
from qcomb.spectral import PhaseMatchSpec, PumpSpec
from conftest import FSR

N_CASES = 100


def random_state(rng, equal_reflectivity=False, walkoff=None, dispersion=None):
    r_s = rng.uniform(0.0, 0.6)
    r_i = r_s if equal_reflectivity else rng.uniform(0.0, 0.6)
    cav = CavitySpec(fsr=FSR, reflectivity_signal=r_s, reflectivity_idler=r_i)
    pump = PumpSpec(center_frequency=200 * FSR + rng.uniform(0.0, 2.0) * FSR)
    pm = PhaseMatchSpec(
        degeneracy_frequency=pump.center_frequency / 2,
        bandwidth=rng.uniform(2.0, 5.0) * FSR,
        walkoff=rng.uniform(-2e-11, 2e-11) if walkoff is None else walkoff,
        dispersion=rng.uniform(0.0, 5e-22) if dispersion is None else dispersion,
    )
    grid = SpectralGrid(span_minus=16 * FSR, points_minus=513)
    return biphoton.assemble_jsa_mono(pump, pm, cav, grid)


def test_exchange_overlap_bound(rng):
    for _ in range(N_CASES):
        jsa = random_state(rng)
        delayed = biphoton.apply_delay(jsa, rng.uniform(-1e-10, 1e-10))
        assert abs(biphoton.exchange_overlap(delayed)) <= 1.0 + 1e-9


def test_delay_composition(rng):
    for _ in range(N_CASES):
        jsa = random_state(rng)
        a, b = rng.uniform(-5e-11, 5e-11, size=2)
        once = biphoton.apply_delay(jsa, a + b)
        twice = biphoton.apply_delay(biphoton.apply_delay(jsa, a), b)
        assert np.allclose(once.amplitudes, twice.amplitudes, atol=1e-12)


def test_trace_symmetry(rng):
    # Matched signal/idler reflectivities and zero walkoff leave the
    # exchange kernel real, so the trace is even in the delay.
    delays = np.linspace(-3e-11, 3e-11, 101)
    for _ in range(N_CASES):
        jsa = random_state(rng, equal_reflectivity=True, walkoff=0.0)
        p = hom.coincidence_trace(jsa, delays).p_coincidence
        assert np.max(np.abs(p - p[::-1])) < 1e-10


def test_comb_revival_period(rng):
    # Ideal comb states repeat with the cavity round-trip period pi/fsr.
    cav = CavitySpec(fsr=FSR, reflectivity_signal=0.999, reflectivity_idler=0.999)
    grid = SpectralGrid(span_minus=8 * FSR, points_minus=2**17 + 1)
    period = math.pi / FSR
    for _ in range(N_CASES):
        parity = rng.integers(0, 2)
        pump = PumpSpec(center_frequency=(2 * 200 + parity) * FSR)
        pm = PhaseMatchSpec(
            degeneracy_frequency=pump.center_frequency / 2,
            bandwidth=rng.uniform(1.0, 3.0) * FSR,
        )
        jsa = biphoton.assemble_jsa_mono(pump, pm, cav, grid)
        taus = rng.uniform(-2.0 * period, period, size=3)
        p = hom.coincidence_trace(jsa, taus).p_coincidence
        p_shift = hom.coincidence_trace(jsa, taus + period).p_coincidence
        if parity == 0:
            # Resonant comb (teeth on even multiples): exactly periodic.
            assert np.max(np.abs(p - p_shift)) < 0.01
        else:
            # Anti-resonant comb (odd multiples): anti-periodic over one
            # period, hence periodic over two.
            assert np.max(np.abs(p + p_shift - 1.0)) < 0.01


def test_delay_shift_invariance(rng):
    # Walk-off k1 shifts the trace to P(tau - k1). With k1 a whole number of
    # delay steps and the feature and its baseline window inside the span,
    # visibility and FWHM must not change. The weak odd part of the state
    # keeps the dip off zero (V = 7/9), so V depends on the baseline window.
    sigma = 2.0 * math.pi * 1e12
    grid = SpectralGrid(span_minus=12 * sigma, points_minus=4001)
    w = grid.omega_minus()
    delays = np.linspace(-40 / sigma, 40 / sigma, 1601)
    step = delays[1] - delays[0]

    def observables(k1):
        amps = np.exp(-(w**2) / (2 * sigma**2) + 1j * k1 * w / 2.0)
        amps = amps * (1 + 0.5 * w / sigma)
        trace = hom.coincidence_trace(
            biphoton.Jsa(grid=grid, amplitudes=amps, pump_frequency=2e15), delays
        )
        return hom.visibility(trace), hom.feature_width(trace)

    v0, fwhm0 = observables(0.0)
    assert v0 == pytest.approx(7 / 9, abs=1e-6)
    for _ in range(N_CASES):
        v, fwhm = observables(int(rng.integers(-400, 401)) * step)
        assert v == pytest.approx(v0, abs=1e-9)
        assert fwhm == pytest.approx(fwhm0, rel=1e-6)


positive_freq = st.floats(min_value=1e9, max_value=1e16, allow_nan=False)


@settings(max_examples=N_CASES, deadline=None)
@given(
    fsr=positive_freq,
    bw=positive_freq,
    r_s=st.floats(min_value=0.0, max_value=0.999),
    r_i=st.floats(min_value=0.0, max_value=0.999),
    walkoff=st.floats(min_value=-1e-9, max_value=1e-9),
    delay=st.floats(min_value=-1e-9, max_value=1e-9),
    points=st.integers(min_value=3, max_value=100001),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_config_round_trip(fsr, bw, r_s, r_i, walkoff, delay, points, seed):
    config = RunConfig(
        pump=PumpSpec(center_frequency=1000 * fsr),
        phase_match=PhaseMatchSpec(
            degeneracy_frequency=500 * fsr, bandwidth=bw, walkoff=walkoff
        ),
        cavity=CavitySpec(fsr=fsr, reflectivity_signal=r_s, reflectivity_idler=r_i),
        grid=SpectralGrid(span_minus=16 * fsr, points_minus=points),
        delay=delay,
        seed=seed,
    )
    assert parse_config(emit_config(config)) == config


def test_output_determinism(rng, tmp_path):
    fsr_ghz = FSR / (2 * math.pi * 1e9)
    for case in range(N_CASES):
        doc = {
            "pump": {"center_frequency_ghz": 2 * 100 * fsr_ghz},
            "phase_match": {
                "degeneracy_frequency_ghz": 100 * fsr_ghz,
                "bandwidth_ghz": rng.uniform(2.0, 5.0) * fsr_ghz,
                "walkoff_s": rng.uniform(-1e-11, 1e-11),
            },
            "cavity": {
                "fsr_ghz": fsr_ghz,
                "reflectivity_signal": rng.uniform(0.0, 0.5),
                "reflectivity_idler": rng.uniform(0.0, 0.5),
            },
            "grid": {"span_minus_ghz": 16 * fsr_ghz, "points_minus": 513},
            "seed": int(rng.integers(0, 1000)),
        }
        cfg = tmp_path / f"c{case}.json"
        cfg.write_text(json.dumps(doc))
        outs = []
        for run in "ab":
            out = tmp_path / f"o{case}{run}"
            assert cli.main(["jsi", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append((out / "jsi.csv").read_bytes())
        assert outs[0] == outs[1]
