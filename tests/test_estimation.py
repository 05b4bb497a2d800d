import math
from dataclasses import replace

import numpy as np
import pytest

from qcomb import biphoton, estimation, hom
from qcomb.biphoton import SpectralGrid
from qcomb.cavity import CavitySpec
from qcomb.errors import NonConvergenceError, ValidationError
from qcomb.estimation import (
    FitProblem,
    FitResult,
    FitSettings,
    extract_bandwidth_report,
    fit_hom_trace,
    simulate_counts,
)
from qcomb.spectral import PhaseMatchSpec, PumpSpec
from conftest import FSR


def flat_trace(n=100, level=0.5):
    delays = np.linspace(-1.0, 1.0, n)
    return hom.HomTrace(
        delays=delays,
        p_coincidence=np.full(n, level),
        baseline=level,
        extremum=level,
        extremum_kind=hom.DIP,
    )


class TestSimulateCounts:
    def test_poisson_mean(self):
        counts = simulate_counts(flat_trace(), 1e6, seed=7)
        assert counts.mean() / 1e6 == pytest.approx(0.5, abs=0.005)

    def test_zero_probability_gives_zero_counts(self):
        counts = simulate_counts(flat_trace(level=0.0), 1e6, seed=7)
        assert np.all(counts == 0)

    def test_seed_determinism(self):
        a = simulate_counts(flat_trace(), 1e3, seed=42)
        b = simulate_counts(flat_trace(), 1e3, seed=42)
        assert np.array_equal(a, b)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValidationError):
            simulate_counts(flat_trace(), 0.0, seed=0)


def small_problem_parts():
    pump = PumpSpec(center_frequency=2 * 100 * FSR)
    cav = CavitySpec(fsr=FSR, reflectivity_signal=0.3, reflectivity_idler=0.3)
    grid = SpectralGrid(span_minus=16 * FSR, points_minus=513)
    bw_true = 4 * FSR
    theta = dict(
        bandwidth=bw_true,
        walkoff=2e-12,
        dispersion=4e-24,
        amplitude=2.0,
        baseline=0.3,
    )
    pm_true = PhaseMatchSpec(
        degeneracy_frequency=pump.center_frequency / 2,
        bandwidth=theta["bandwidth"],
        walkoff=theta["walkoff"],
        dispersion=theta["dispersion"],
    )
    tau0 = math.pi / FSR
    delays = np.linspace(-4e-11, 4e-11, 81)
    jsa = biphoton.assemble_jsa_mono(pump, pm_true, cav, grid)
    trace = hom.trace_for_delayed_state(jsa, tau0, delays)
    counts = theta["amplitude"] * trace.p_coincidence + theta["baseline"]
    bounds = {
        "bandwidth": (0.3 * bw_true, 3 * bw_true),
        "walkoff": (-2e-11, 2e-11),
        "dispersion": (0.0, 4e-23),
        "amplitude": (0.1, 10.0),
        "baseline": (0.0, 2.0),
    }
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
    return problem, theta


class TestFitProblemValidation:
    def test_short_data_rejected(self):
        problem, _ = small_problem_parts()
        with pytest.raises(ValidationError):
            FitProblem(
                delays=problem.delays[:8],
                counts=problem.counts[:8],
                bounds=problem.bounds,
                pump=problem.pump,
                phase_match_template=problem.phase_match_template,
                cavity=problem.cavity,
                grid=problem.grid,
            )

    def test_unordered_bounds_rejected(self):
        problem, _ = small_problem_parts()
        bad = dict(problem.bounds, amplitude=(5.0, 1.0))
        with pytest.raises(ValidationError):
            FitProblem(
                delays=problem.delays,
                counts=problem.counts,
                bounds=bad,
                pump=problem.pump,
                phase_match_template=problem.phase_match_template,
                cavity=problem.cavity,
                grid=problem.grid,
            )

    def test_missing_bound_key_rejected(self):
        problem, _ = small_problem_parts()
        bad = {k: v for k, v in problem.bounds.items() if k != "baseline"}
        with pytest.raises(ValidationError):
            FitProblem(
                delays=problem.delays,
                counts=problem.counts,
                bounds=bad,
                pump=problem.pump,
                phase_match_template=problem.phase_match_template,
                cavity=problem.cavity,
                grid=problem.grid,
            )


class TestFit:
    settings = FitSettings(starts=3, seed=0, xatol=1e-7, maxiter=2000)

    def test_noiseless_recovery(self):
        problem, theta = small_problem_parts()
        result = fit_hom_trace(problem, self.settings)
        assert result.converged
        for name, true in theta.items():
            assert result.parameters[name] == pytest.approx(true, rel=1e-2), name
        assert result.residual < 1e-4
        assert not any(result.clipped.values())

    def test_idempotence(self):
        problem, _ = small_problem_parts()
        first = fit_hom_trace(problem, self.settings)
        again = fit_hom_trace(
            problem, FitSettings(starts=1, xatol=1e-7), initial=first.parameters
        )
        assert again.residual <= first.residual + 1e-12

    def test_determinism(self):
        problem, _ = small_problem_parts()
        a = fit_hom_trace(problem, self.settings)
        b = fit_hom_trace(problem, self.settings)
        assert a == b

    def test_scale_equivariance(self):
        problem, _ = small_problem_parts()
        k = 10.0
        scaled = FitProblem(
            delays=problem.delays,
            counts=problem.counts * k,
            bounds=dict(
                problem.bounds,
                amplitude=tuple(k * b for b in problem.bounds["amplitude"]),
                baseline=tuple(k * b for b in problem.bounds["baseline"]),
            ),
            pump=problem.pump,
            phase_match_template=problem.phase_match_template,
            cavity=problem.cavity,
            grid=problem.grid,
            state_delay=problem.state_delay,
        )
        base = fit_hom_trace(problem, self.settings)
        up = fit_hom_trace(scaled, self.settings)
        for name in ("bandwidth", "walkoff", "dispersion"):
            assert up.parameters[name] == pytest.approx(
                base.parameters[name], rel=1e-3
            )
        assert up.residual == pytest.approx(k**2 * base.residual, rel=1e-6, abs=1e-12)

    def test_poisson_weighted_noiseless_recovery(self):
        problem, theta = small_problem_parts()
        weighted = replace(problem, poisson_weights=True)
        result = fit_hom_trace(weighted, self.settings)
        assert result.converged
        assert result.parameters["bandwidth"] == pytest.approx(
            theta["bandwidth"], rel=1e-2
        )

    def test_non_convergence_carries_best_result(self):
        problem, _ = small_problem_parts()
        with pytest.raises(NonConvergenceError) as info:
            fit_hom_trace(problem, FitSettings(starts=1, xatol=1e-12, maxiter=1))
        assert info.value.best_result is not None
        assert info.value.best_result.converged is False

    def test_poisson_bandwidth_recovery(self):
        problem, theta = small_problem_parts()
        jsa = biphoton.assemble_jsa_mono(
            problem.pump, problem.phase_match_template, problem.cavity, problem.grid
        )
        trace = hom.coincidence_trace(jsa, problem.delays)
        counts = simulate_counts(trace, 1e4, seed=3).astype(float)
        noisy = FitProblem(
            delays=problem.delays,
            counts=counts,
            bounds=dict(
                problem.bounds, amplitude=(1.0, 1e5), baseline=(0.0, 1e3)
            ),
            pump=problem.pump,
            phase_match_template=problem.phase_match_template,
            cavity=problem.cavity,
            grid=problem.grid,
        )
        result = fit_hom_trace(noisy, FitSettings(starts=2, xatol=1e-5, maxiter=800))
        assert result.parameters["bandwidth"] == pytest.approx(
            theta["bandwidth"], rel=0.05
        )


class TestBandwidthReport:
    @staticmethod
    def result_with_bandwidth(bw, converged=True):
        return FitResult(
            parameters={
                "bandwidth": bw,
                "walkoff": 0.0,
                "dispersion": 0.0,
                "amplitude": 1.0,
                "baseline": 0.0,
            },
            clipped={},
            residual=0.0,
            iterations=1,
            converged=converged,
        )

    def test_reference_wavelength_bandwidth(self):
        bw = 2 * math.pi * 21.82e12
        report = extract_bandwidth_report(self.result_with_bandwidth(bw), 1530e-9)
        assert report.wavelength_bandwidth == pytest.approx(170.9e-9, rel=0.01)
        assert report.per_photon_angular_bandwidth == bw / 2

    def test_zero_bandwidth(self):
        report = extract_bandwidth_report(self.result_with_bandwidth(0.0), 1530e-9)
        assert report.wavelength_bandwidth == 0.0

    def test_linearity(self):
        r1 = extract_bandwidth_report(self.result_with_bandwidth(1e14), 1530e-9)
        r2 = extract_bandwidth_report(self.result_with_bandwidth(2e14), 1530e-9)
        assert r2.wavelength_bandwidth == pytest.approx(2 * r1.wavelength_bandwidth)

    def test_requires_convergence(self):
        with pytest.raises(ValidationError):
            extract_bandwidth_report(
                self.result_with_bandwidth(1e14, converged=False), 1530e-9
            )
