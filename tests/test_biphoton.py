import dataclasses
import itertools
import math

import numpy as np
import pytest

from qcomb import biphoton, cavity, cli, spectral
from qcomb.biphoton import SpectralGrid
from qcomb.cavity import CavitySpec, PumpClassLabel
from qcomb.errors import (
    DegenerateStateError,
    GridSymmetryError,
    OverFilteredError,
    ResolutionError,
    ValidationError,
)
from qcomb.spectral import (
    FilterShape,
    FilterSpec,
    PhaseMatchShape,
    PhaseMatchSpec,
    PumpMode,
    PumpSpec,
)
from conftest import FSR
from test_config_cli import small_config_doc, write_config


class TestSpectralGrid:
    def test_step_and_axis(self):
        g = SpectralGrid(span_minus=10.0, points_minus=11)
        assert g.step_minus == 1.0
        assert np.allclose(g.omega_minus(), np.arange(-5.0, 6.0))

    def test_symmetry_detection(self):
        assert SpectralGrid(span_minus=10.0, points_minus=11).is_symmetric()
        assert not SpectralGrid(span_minus=10.0, points_minus=10).is_symmetric()
        assert not SpectralGrid(
            span_minus=10.0, points_minus=11, center_minus=1.0
        ).is_symmetric()

    def test_two_dimensional(self):
        g = SpectralGrid(
            span_minus=10.0,
            points_minus=11,
            span_plus=4.0,
            points_plus=5,
            center_plus=100.0,
        )
        assert g.is_two_dimensional
        assert g.step_plus == 1.0
        assert g.omega_plus()[0] == 98.0

    def test_partial_2d_spec_rejected(self):
        with pytest.raises(ValidationError):
            SpectralGrid(span_minus=10.0, points_minus=11, span_plus=4.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            SpectralGrid(span_minus=-1.0, points_minus=11)
        with pytest.raises(ValidationError):
            SpectralGrid(span_minus=1.0, points_minus=1)

    @pytest.mark.parametrize("field", ["points_minus", "points_plus"])
    @pytest.mark.parametrize("value", [5.0, 2.5])
    def test_non_integer_points_rejected(self, field, value):
        fields = dict(span_minus=10.0, points_minus=11, span_plus=4.0, points_plus=5, center_plus=100.0)
        with pytest.raises(ValidationError, match=f"SpectralGrid.{field} must be an integer"):
            SpectralGrid(**dict(fields, **{field: value}))


class TestAssembly:
    def test_mono_rejects_broadband_pump(self, fast_phase_match, fast_cavity, fast_grid):
        pump = PumpSpec(
            center_frequency=200 * FSR,
            mode=PumpMode.GAUSSIAN_BROADBAND,
            linewidth=FSR,
        )
        with pytest.raises(ValidationError):
            biphoton.assemble_jsa_mono(pump, fast_phase_match, fast_cavity, fast_grid)

    def test_non_finite_state_rejected(self, resonant_pump, fast_phase_match, fast_cavity, fast_grid):
        # Finite specs can still give a non-finite state; the norm check must catch it.
        pm = dataclasses.replace(fast_phase_match, bandwidth=1e-300)
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(
            DegenerateStateError, match="zero or non-finite norm"
        ):
            biphoton.assemble_jsa_mono(resonant_pump, pm, fast_cavity, fast_grid)

    def test_coarse_grid_rejected(self, resonant_pump, fast_phase_match):
        sharp = CavitySpec(fsr=FSR, reflectivity_signal=0.99, reflectivity_idler=0.99)
        grid = SpectralGrid(span_minus=16 * FSR, points_minus=65)
        with pytest.raises(ResolutionError):
            biphoton.assemble_jsa_mono(resonant_pump, fast_phase_match, sharp, grid)

    def test_resonant_comb_teeth_on_even_multiples(
        self, resonant_pump, fast_phase_match, fast_grid
    ):
        cav = CavitySpec(fsr=FSR, reflectivity_signal=0.8, reflectivity_idler=0.8)
        grid = SpectralGrid(span_minus=16 * FSR, points_minus=4097)
        jsa = biphoton.assemble_jsa_mono(resonant_pump, fast_phase_match, cav, grid)
        intensity = biphoton.jsi(jsa)
        w = grid.omega_minus()

        def value_at(x):
            return intensity[int(np.argmin(np.abs(w - x)))]

        assert value_at(2 * FSR) > 20 * value_at(1 * FSR)
        assert value_at(0.0) > 20 * value_at(3 * FSR)

    def test_anti_resonant_comb_teeth_on_odd_multiples(
        self, anti_resonant_pump, fast_phase_match
    ):
        cav = CavitySpec(fsr=FSR, reflectivity_signal=0.8, reflectivity_idler=0.8)
        grid = SpectralGrid(span_minus=16 * FSR, points_minus=4097)
        jsa = biphoton.assemble_jsa_mono(
            anti_resonant_pump, fast_phase_match, cav, grid
        )
        intensity = biphoton.jsi(jsa)
        w = grid.omega_minus()

        def value_at(x):
            return intensity[int(np.argmin(np.abs(w - x)))]

        assert value_at(1 * FSR) > 20 * value_at(2 * FSR)
        assert value_at(1 * FSR) > 20 * value_at(0.0)

    def test_broadband_requires_2d_grid(self, fast_phase_match, fast_cavity, fast_grid):
        pump = PumpSpec(
            center_frequency=200 * FSR,
            mode=PumpMode.GAUSSIAN_BROADBAND,
            linewidth=10 * FSR,
        )
        with pytest.raises(ValidationError):
            biphoton.assemble_jsa_broadband(
                pump, fast_phase_match, fast_cavity, fast_grid
            )

    def test_broadband_checkerboard_norm_positive(self, fast_phase_match):
        cav = CavitySpec(fsr=FSR, reflectivity_signal=0.5, reflectivity_idler=0.5)
        pump = PumpSpec(
            center_frequency=200 * FSR,
            mode=PumpMode.GAUSSIAN_BROADBAND,
            linewidth=10 * FSR,
        )
        grid = SpectralGrid(
            span_minus=8 * FSR,
            points_minus=257,
            span_plus=8 * FSR,
            points_plus=257,
            center_plus=200 * FSR,
        )
        jsa = biphoton.assemble_jsa_broadband(pump, fast_phase_match, cav, grid)
        assert jsa.norm_squared > 0
        assert jsa.amplitudes.shape == (257, 257)

    def test_norm_is_computed_once(self, resonant_pump, fast_phase_match, fast_cavity, fast_grid):
        jsa = biphoton.assemble_jsa_mono(
            resonant_pump, fast_phase_match, fast_cavity, fast_grid
        )
        assert vars(jsa)["norm_squared"] == jsa.norm_squared == biphoton.Jsa(
            grid=jsa.grid, amplitudes=jsa.amplitudes, pump_frequency=jsa.pump_frequency
        ).norm_squared


class TestDelayAndSymmetry:
    def test_delay_composition(self, resonant_pump, fast_phase_match, fast_cavity, fast_grid):
        jsa = biphoton.assemble_jsa_mono(
            resonant_pump, fast_phase_match, fast_cavity, fast_grid
        )
        a, b = 3.2e-12, -1.1e-12
        once = biphoton.apply_delay(jsa, a + b)
        twice = biphoton.apply_delay(biphoton.apply_delay(jsa, a), b)
        assert np.allclose(once.amplitudes, twice.amplitudes)

    def test_undelayed_state_is_symmetric(
        self, resonant_pump, fast_phase_match, fast_cavity, fast_grid
    ):
        jsa = biphoton.assemble_jsa_mono(
            resonant_pump, fast_phase_match, fast_cavity, fast_grid
        )
        s = biphoton.exchange_overlap(jsa)
        assert s.real == pytest.approx(1.0, abs=1e-9)

    def test_flip_delay_makes_anti_resonant_state_anti_symmetric(
        self, anti_resonant_pump, fast_phase_match
    ):
        cav = CavitySpec(fsr=FSR, reflectivity_signal=0.97, reflectivity_idler=0.97)
        grid = SpectralGrid(span_minus=16 * FSR, points_minus=2**15 + 1)
        jsa = biphoton.assemble_jsa_mono(
            anti_resonant_pump, fast_phase_match, cav, grid
        )
        delayed = biphoton.apply_delay(jsa, math.pi / FSR)
        assert biphoton.exchange_overlap(delayed).real < -0.9

    def test_overlap_bound(self, resonant_pump, fast_phase_match, fast_cavity, fast_grid):
        jsa = biphoton.assemble_jsa_mono(
            resonant_pump, fast_phase_match, fast_cavity, fast_grid
        )
        for tau in (0.0, 1e-12, 7.7e-12):
            s = biphoton.exchange_overlap(biphoton.apply_delay(jsa, tau))
            assert abs(s) <= 1.0 + 1e-9

    def test_asymmetric_grid_rejected(self, resonant_pump, fast_phase_match, fast_cavity):
        grid = SpectralGrid(span_minus=16 * FSR, points_minus=512)
        jsa = biphoton.assemble_jsa_mono(
            resonant_pump, fast_phase_match, fast_cavity, grid
        )
        with pytest.raises(GridSymmetryError):
            biphoton.exchange_overlap(jsa)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_non_finite_delay_rejected(
        self, resonant_pump, fast_phase_match, fast_cavity, fast_grid, tau
    ):
        jsa = biphoton.assemble_jsa_mono(
            resonant_pump, fast_phase_match, fast_cavity, fast_grid
        )
        with pytest.raises(ValidationError, match="delay must be finite"):
            biphoton.apply_delay(jsa, tau)


def forbid_states(monkeypatch):
    """Make every call that builds, delays or takes the kernel of a state fail."""

    def refuse(name):
        def refused(*args, **kwargs):
            raise AssertionError(f"biphoton.{name} was called")

        return refused

    for name in ("_assemble", "assemble_jsa_mono", "apply_delay", "exchange_kernel"):
        monkeypatch.setattr(biphoton, name, refuse(name))


def record_kernel_calls(monkeypatch):
    """Wrap ``biphoton.exchange_kernel_model``; returns the list of models it
    built and the list of (bandwidth, walkoff, dispersion, detuning) calls
    made on them."""
    models, calls = [], []
    build = biphoton.exchange_kernel_model

    def recording_model(*args):
        kernel = build(*args)

        def recording(bandwidth, walkoff, dispersion, detuning=0.0):
            calls.append((bandwidth, walkoff, dispersion, detuning))
            return kernel(bandwidth, walkoff, dispersion, detuning)

        models.append(recording)
        return recording

    monkeypatch.setattr(biphoton, "exchange_kernel_model", recording_model)
    return models, calls


class TestSweepKernel:
    """``qcomb sweep`` runs on one kernel model, not on assembled states."""

    POINTS = 9

    def sweep(self, tmp_path):
        cfg = write_config(tmp_path, small_config_doc())
        argv = ["sweep", "--config", cfg, "--out", str(tmp_path / "out"), "--points", str(self.POINTS)]
        assert cli.main(argv) == 0

    def test_sweep_assembles_no_state(self, monkeypatch, tmp_path):
        forbid_states(monkeypatch)
        self.sweep(tmp_path)

    def test_sweep_computes_its_spec_factors_once(self, monkeypatch, tmp_path):
        envelopes, phase_matches = [], []
        envelope, phase_match = spectral.phase_match_envelope, spectral.eval_phase_match
        monkeypatch.setattr(
            spectral, "phase_match_envelope", lambda *a: envelopes.append(a) or envelope(*a)
        )
        monkeypatch.setattr(
            spectral, "eval_phase_match", lambda *a: phase_matches.append(a) or phase_match(*a)
        )
        models, calls = record_kernel_calls(monkeypatch)
        self.sweep(tmp_path)
        assert len(models) == 1
        assert len(envelopes) == 1
        assert phase_matches == []
        detunings = np.linspace(0.0, 2.0 * FSR, self.POINTS)
        assert [c[3] for c in calls] == pytest.approx(list(detunings), rel=1e-12, abs=0.0)
        assert len({c[:3] for c in calls}) == 1


class TestFilter:
    def test_tophat_zeroes_out_of_band(
        self, resonant_pump, fast_phase_match, fast_cavity, fast_grid
    ):
        jsa = biphoton.assemble_jsa_mono(
            resonant_pump, fast_phase_match, fast_cavity, fast_grid
        )
        filt = FilterSpec(
            center=resonant_pump.center_frequency / 2,
            bandwidth=4 * FSR,
            shape=FilterShape.TOPHAT,
        )
        out = biphoton.apply_filter(jsa, filt)
        w = fast_grid.omega_minus()
        outside = np.abs(w) > 4 * FSR
        assert np.all(out.amplitudes[outside] == 0)
        assert out.norm_squared < jsa.norm_squared

    def test_overfiltering_rejected(
        self, resonant_pump, fast_phase_match, fast_cavity, fast_grid
    ):
        jsa = biphoton.assemble_jsa_mono(
            resonant_pump, fast_phase_match, fast_cavity, fast_grid
        )
        far = FilterSpec(
            center=resonant_pump.center_frequency / 2 + 1000 * FSR,
            bandwidth=FSR,
            shape=FilterShape.TOPHAT,
        )
        with pytest.raises(OverFilteredError):
            biphoton.apply_filter(jsa, far)


#: Chip free spectral range and an even-resonant pump near 392 THz, where the
#: Airy phases reach 3e4 rad, as in the fit.
CHIP_FSR = 2.0 * math.pi * 19.2e9
CHIP_PUMP = 2 * 10205 * CHIP_FSR
KERNEL_CAVITIES = {
    "chip": CavitySpec(fsr=CHIP_FSR, reflectivity_signal=0.27, reflectivity_idler=0.24),
    "offset": CavitySpec(
        fsr=CHIP_FSR, reflectivity_signal=0.27, reflectivity_idler=0.24, resonance_offset=0.3 * CHIP_FSR
    ),
    "unequal": CavitySpec(fsr=CHIP_FSR, reflectivity_signal=0.5, reflectivity_idler=0.0),
}


class TestExchangeKernelModel:
    """The factored kernel against the kernel of the assembled state."""

    grid = SpectralGrid(span_minus=200 * CHIP_FSR, points_minus=4001)

    @staticmethod
    def relative_error(got, ref):
        return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))

    @pytest.mark.parametrize("cavity", list(KERNEL_CAVITIES))
    @pytest.mark.parametrize("pump_frequency", [CHIP_PUMP, CHIP_PUMP + CHIP_FSR], ids=["resonant", "anti_resonant"])
    @pytest.mark.parametrize("shape", list(PhaseMatchShape))
    def test_matches_assembled_state(self, cavity, pump_frequency, shape):
        cav = KERNEL_CAVITIES[cavity]
        pump = PumpSpec(center_frequency=pump_frequency)
        pm = PhaseMatchSpec(degeneracy_frequency=CHIP_PUMP / 2, bandwidth=60 * CHIP_FSR, shape=shape)
        kernel = biphoton.exchange_kernel_model(pump, pm, cav, self.grid)
        for i, (kappa2, kappa1) in enumerate(
            itertools.product([0.0, 3.3e-27, 3e-26], [-1e-12, 0.0, 2e-13])
        ):
            bandwidth = (40 + 5 * i) * CHIP_FSR
            spec = dataclasses.replace(pm, bandwidth=bandwidth, walkoff=kappa1, dispersion=kappa2)
            ref = biphoton.exchange_kernel(biphoton.assemble_jsa_mono(pump, spec, cav, self.grid))
            got = kernel(bandwidth, kappa1, kappa2)
            assert self.relative_error(got, ref) < 1e-10, (kappa2, kappa1)

    def test_state_delay_folds_into_walkoff(self):
        cav = KERNEL_CAVITIES["offset"]
        pump = PumpSpec(center_frequency=CHIP_PUMP + CHIP_FSR)
        pm = PhaseMatchSpec(
            degeneracy_frequency=CHIP_PUMP / 2, bandwidth=60 * CHIP_FSR, walkoff=2e-13, dispersion=3.3e-27
        )
        tau = math.pi / CHIP_FSR
        jsa = biphoton.apply_delay(biphoton.assemble_jsa_mono(pump, pm, cav, self.grid), tau)
        got = biphoton.exchange_kernel_model(pump, pm, cav, self.grid)(
            pm.bandwidth, pm.walkoff + tau, pm.dispersion
        )
        assert self.relative_error(got, biphoton.exchange_kernel(jsa)) < 1e-10

    @pytest.mark.parametrize("shape", list(PhaseMatchShape))
    def test_detuning_matches_assembled_detuned_state(self, shape):
        cav = KERNEL_CAVITIES["offset"]
        pump = PumpSpec(center_frequency=CHIP_PUMP)
        pm = PhaseMatchSpec(
            degeneracy_frequency=CHIP_PUMP / 2, bandwidth=60 * CHIP_FSR, walkoff=2e-13, shape=shape
        )
        flip = math.pi / CHIP_FSR
        kernel = biphoton.exchange_kernel_model(pump, pm, cav, self.grid)
        # Each dispersion is held over all four detunings, as in a sweep.
        for kappa2 in (0.0, 3.3e-27, 3e-26):
            spec = dataclasses.replace(pm, dispersion=kappa2)
            for d in (0.0, CHIP_FSR / 3, CHIP_FSR, 2 * CHIP_FSR):
                detuned = dataclasses.replace(pump, center_frequency=CHIP_PUMP + d)
                jsa = biphoton.assemble_jsa_mono(detuned, spec, cav, self.grid)
                ref = biphoton.exchange_kernel(biphoton.apply_delay(jsa, flip))
                got = kernel(pm.bandwidth, pm.walkoff + flip, kappa2, detuning=d)
                assert self.relative_error(got, ref) < 1e-10, (kappa2, d)

    @pytest.mark.parametrize("r_s, r_i", list(itertools.product([0.0, 0.24, 0.27, 0.9], repeat=2)))
    def test_closed_form_cavity_products_match_airy(self, r_s, r_i):
        rng = np.random.default_rng([int(100 * r_s), int(100 * r_i)])
        e_a, e_b = spectral.cis(rng.uniform(-4e4, 4e4, (2, 2000)))  # Airy phasors at a and b
        for detuning_phase in (0.0, *rng.uniform(-math.pi, math.pi, 3)):
            # A detuning moves each Airy phase by half of its round-trip phase.
            a, b = e_a * spectral.cis(detuning_phase / 2.0), e_b * spectral.cis(detuning_phase / 2.0)
            p = cavity.airy(r_s, a) * cavity.airy(r_i, b)
            q = cavity.airy(r_s, b) * cavity.airy(r_i, a)
            cross, both = biphoton._cavity_exchange(
                r_s, r_i, e_a**2, e_b**2, spectral.cis(detuning_phase)
            )
            ref = p * np.conj(q)
            assert np.max(np.abs(cross - ref) / np.abs(ref)) < 1e-12
            ref = np.abs(p) ** 2 + np.abs(q) ** 2
            assert np.max(np.abs(both - ref) / ref) < 1e-12

    def test_rejects_what_assembly_rejects(self, resonant_pump, fast_phase_match, fast_cavity, fast_grid):
        model = biphoton.exchange_kernel_model
        broadband = PumpSpec(center_frequency=200 * FSR, mode=PumpMode.GAUSSIAN_BROADBAND, linewidth=FSR)
        with pytest.raises(ValidationError, match="monochromatic pump"):
            model(broadband, fast_phase_match, fast_cavity, fast_grid)
        two_d = dataclasses.replace(fast_grid, span_plus=4 * FSR, points_plus=5, center_plus=200 * FSR)
        with pytest.raises(ValidationError, match="1D grid"):
            model(resonant_pump, fast_phase_match, fast_cavity, two_d)
        sharp = CavitySpec(fsr=FSR, reflectivity_signal=0.99, reflectivity_idler=0.99)
        coarse = SpectralGrid(span_minus=16 * FSR, points_minus=65)
        with pytest.raises(ResolutionError):
            model(resonant_pump, fast_phase_match, sharp, coarse)
        for change in ({"center_minus": 0.5 * FSR}, {"points_minus": 512}):
            with pytest.raises(GridSymmetryError):
                model(resonant_pump, fast_phase_match, fast_cavity, dataclasses.replace(fast_grid, **change))
        kernel = model(resonant_pump, fast_phase_match, fast_cavity, fast_grid)
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(
            DegenerateStateError, match="zero or non-finite norm"
        ):
            kernel(1e-300, 0.0, 0.0)
        for bad in (
            {"bandwidth": 0.0}, {"walkoff": math.nan}, {"dispersion": math.inf}, {"detuning": math.nan}
        ):
            args = {"bandwidth": 4 * FSR, "walkoff": 0.0, "dispersion": 0.0, **bad}
            with pytest.raises(ValidationError):
                kernel(**args)


class TestCombPeaks:
    def test_counts_local_maxima_above_threshold(self):
        y = np.array([0.0, 1.0, 0.0, 0.005, 0.0, 0.8, 0.0])
        assert biphoton.count_comb_peaks(y, 0.01) == 2

    def test_threshold_validation(self):
        y = np.array([0.0, 1.0, 0.0])
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValidationError):
                biphoton.count_comb_peaks(y, bad)

    def test_flat_input_rejected(self):
        with pytest.raises(ValidationError):
            biphoton.count_comb_peaks(np.ones(10), 0.01)


class TestSymmetryReport:
    def test_resonant_symmetric(self, resonant_pump, fast_phase_match, fast_cavity, fast_grid):
        jsa = biphoton.assemble_jsa_mono(
            resonant_pump, fast_phase_match, fast_cavity, fast_grid
        )
        report = biphoton.symmetry_report(jsa, fast_cavity)
        assert report.label == "symmetric"
        assert report.pump_class.label is PumpClassLabel.RESONANT

    def test_delayed_anti_resonant_labeled_anti_symmetric(
        self, anti_resonant_pump, fast_phase_match
    ):
        cav = CavitySpec(fsr=FSR, reflectivity_signal=0.97, reflectivity_idler=0.97)
        grid = SpectralGrid(span_minus=16 * FSR, points_minus=2**15 + 1)
        jsa = biphoton.assemble_jsa_mono(
            anti_resonant_pump, fast_phase_match, cav, grid
        )
        delayed = biphoton.apply_delay(jsa, math.pi / FSR)
        report = biphoton.symmetry_report(delayed, cav)
        assert report.label == "anti_symmetric"
        assert report.pump_class.label is PumpClassLabel.ANTI_RESONANT


#: One valid instance of each spec dataclass with float fields.
SPECS = [
    PumpSpec(center_frequency=200 * FSR, mode=PumpMode.GAUSSIAN_BROADBAND, linewidth=FSR),
    PhaseMatchSpec(degeneracy_frequency=100 * FSR, bandwidth=4 * FSR, walkoff=1e-12, dispersion=1e-24),
    FilterSpec(center=100 * FSR, bandwidth=FSR),
    CavitySpec(fsr=FSR, reflectivity_signal=0.4, reflectivity_idler=0.3, resonance_offset=0.1 * FSR),
    SpectralGrid(span_minus=16 * FSR, points_minus=11, span_plus=4 * FSR, points_plus=5, center_plus=200 * FSR),
]
FLOAT_FIELDS = [
    (spec, f.name)
    for spec in SPECS
    for f in dataclasses.fields(spec)
    if isinstance(getattr(spec, f.name), float)
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "spec, name", FLOAT_FIELDS, ids=[f"{type(s).__name__}.{n}" for s, n in FLOAT_FIELDS]
)
def test_non_finite_spec_field_rejected(spec, name, value):
    with pytest.raises(ValidationError, match=f"{type(spec).__name__}.{name} must be finite"):
        dataclasses.replace(spec, **{name: value})
