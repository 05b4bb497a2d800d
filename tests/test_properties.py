"""Randomized invariant suites (100+ cases each).

Covers: exchange-overlap bound, delay composition, trace symmetry, comb
revival periodicity, delay-shift invariance of the trace observables, the
delay transform against a long-double sum, configuration round-trip, and
output determinism.
"""

import enum
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcomb import biphoton, cli, hom
from qcomb.biphoton import SpectralGrid
from qcomb.cavity import CavitySpec
from qcomb.config import FREQUENCY, ROOT_FIELDS, SCHEMA, RunConfig, parse_config
from qcomb.spectral import (
    FilterShape,
    FilterSpec,
    PhaseMatchShape,
    PhaseMatchSpec,
    PumpSpec,
)
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


@st.composite
def transform_cases(draw):
    """An odd 1D grid, a random Hermitian half kernel h with real h[0] and
    2 sum |h| <= 1, and a random axis: unsorted, with repeats, and with a
    span from 0 (every delay equal) up to one whose blocks are 1 sample."""
    points = 2 * draw(st.integers(1, 100)) + 1
    step = draw(st.floats(1e9, 1e13))
    grid = SpectralGrid(span_minus=step * (points - 1), points_minus=points)
    n = points // 2 + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = rng.normal(size=n) + 1j * rng.normal(size=n)
    h[0] = h[0].real
    h *= draw(st.floats(0.0, 1.0)) / (2.0 * np.sum(np.abs(h)))
    # Log-uniform widths in radians per grid step, 0 below 1e-4; the largest
    # phases stay below about 1e4 rad, where double rounding of the phase
    # alone reaches 1e-12.
    scale = draw(st.floats(-5.0, math.log10(1e4 / n)))
    width = (0.0 if scale < -4.0 else 10.0**scale) / step
    delays = draw(st.floats(-1e4, 1e4)) / (n * step) + rng.uniform(-width / 2, width / 2, draw(st.integers(2, 40)))
    delays[rng.integers(delays.size, size=delays.size // 3)] = delays[0]
    return grid, h, delays


@settings(max_examples=N_CASES, deadline=None)
@given(case=transform_cases())
def test_delay_transform_matches_long_double_sum(case):
    grid, h, delays = case
    transform = hom.delay_transform(grid, delays)
    out = transform(h)
    assert out.dtype == float
    omega = grid.omega_minus()[grid.points_minus // 2 :].astype(np.longdouble)
    exact = [2.0 * np.real(np.sum(h.astype(np.clongdouble) * np.exp(-1j * omega * t))) for t in delays.astype(np.longdouble)]
    assert np.max(np.abs(out - np.array(exact))) <= 1e-12
    p = hom.coincidence_probability(h, transform)
    assert np.all((0.0 <= p) & (p <= 1.0))


positive_freq = st.floats(min_value=1e9, max_value=1e16, allow_nan=False)
signed_freq = st.floats(min_value=-1e13, max_value=1e13)
points = st.integers(min_value=3, max_value=100001)


@st.composite
def run_configs(draw):
    """RunConfigs that set every configuration key, in both grid shapes."""
    fsr = draw(positive_freq)
    points_minus = draw(points)
    if draw(st.booleans()):  # a 2D grid, at any w- count, and a broadband pump
        pump = PumpSpec(1000 * fsr, draw(positive_freq))
        # The grid holds at most MAX_POINTS samples over both axes.
        points_plus = draw(st.integers(min_value=3, max_value=biphoton.MAX_POINTS // points_minus))
        plus = dict(span_plus=draw(positive_freq), points_plus=points_plus)
        minus = dict(points_minus=points_minus)
    else:  # a 1D grid is symmetric about w- = 0 with an odd count
        pump = PumpSpec(center_frequency=1000 * fsr)
        plus = {}
        minus = dict(points_minus=points_minus | 1)
    grid = SpectralGrid(span_minus=16 * fsr, **minus, **plus)
    filt = draw(
        st.none()
        | st.builds(
            FilterSpec,
            center=positive_freq,
            bandwidth=positive_freq,
            shape=st.sampled_from(FilterShape),
        )
    )
    return RunConfig(
        pump=pump,
        phase_match=PhaseMatchSpec(
            degeneracy_frequency=500 * fsr,
            bandwidth=draw(positive_freq),
            walkoff=draw(st.floats(min_value=-1e-9, max_value=1e-9)),
            dispersion=draw(st.floats(min_value=-1e-24, max_value=1e-24)),
            shape=draw(st.sampled_from(PhaseMatchShape)),
        ),
        cavity=CavitySpec(
            fsr=fsr,
            reflectivity_signal=draw(st.floats(min_value=0.0, max_value=0.999)),
            reflectivity_idler=draw(st.floats(min_value=0.0, max_value=0.999)),
            resonance_offset=draw(signed_freq),
        ),
        grid=grid,
        delay=draw(st.floats(min_value=-1e-9, max_value=1e-9)),
        filter=filt,
        seed=draw(st.integers(min_value=0, max_value=2**31)),
    )


def _emit(obj, fields):
    doc = {}
    for attr, key, kind, _ in fields:
        value = getattr(obj, attr)
        if value is None:
            continue
        if kind == FREQUENCY:
            key = f"{key}_rad_per_s"
        doc[key] = value.value if isinstance(value, enum.Enum) else value
    return doc


def emit_config(config: RunConfig) -> str:
    """Canonical JSON of a RunConfig (angular rad/s keys), written from the
    same ``SCHEMA`` and ``ROOT_FIELDS`` tables that ``parse_config`` reads,
    so parse(emit(c)) == c checks the parser against every key."""
    doc = _emit(config, ROOT_FIELDS)
    for name, _, _, fields in SCHEMA:
        spec = getattr(config, name)
        if spec is not None:
            doc[name] = _emit(spec, fields)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@settings(max_examples=N_CASES, deadline=None)
@given(config=run_configs())
def test_config_round_trip(config):
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
