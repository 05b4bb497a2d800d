import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import OptimizeResult, lsq_linear

from qcomb import biphoton, cli, config, estimation, hom
from qcomb.biphoton import SpectralGrid
from qcomb.cavity import CavitySpec
from qcomb.errors import NonConvergenceError, ValidationError
from qcomb.estimation import (
    FitProblem,
    FitSettings,
    fit_hom_trace,
    simulate_counts,
)
from qcomb.spectral import PhaseMatchSpec, PumpSpec
from conftest import FSR


#: numpy's largest Poisson mean, INT64_MAX - 10 sqrt(INT64_MAX).
NUMPY_POISSON_LIMIT = 9.223372006484771e18


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

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rate(self, rate):
        with pytest.raises(ValidationError, match="pairs_per_bin"):
            simulate_counts(flat_trace(), rate, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_rejects_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            simulate_counts(flat_trace(), 1e3, seed=seed)

    def test_rejects_rate_above_the_poisson_limit(self):
        with pytest.raises(ValidationError, match="pairs_per_bin"):
            simulate_counts(flat_trace(), 1e20, seed=0)
        with pytest.raises(ValidationError, match="pairs_per_bin"):
            simulate_counts(flat_trace(), 2.0 * np.nextafter(NUMPY_POISSON_LIMIT, math.inf), seed=0)

    def test_draws_a_rate_at_the_poisson_limit(self):
        counts = simulate_counts(flat_trace(), 2.0 * NUMPY_POISSON_LIMIT, seed=0)
        assert counts.shape == (100,) and np.all(counts > 0)


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

    @pytest.mark.parametrize("level", [0.0, 500.0])
    def test_constant_counts_rejected(self, level):
        # Constant data fix no parameter: any amplitude of a flat stretch of
        # trace, or a baseline alone, fits them.
        problem, _ = small_problem_parts()
        with pytest.raises(ValidationError, match="counts are all equal"):
            replace(problem, counts=np.full(problem.delays.size, level))

    @pytest.mark.parametrize("field", ["delays", "counts"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_data_rejected(self, field, value):
        # Checked before the bounds, so the message names the data.
        problem, _ = small_problem_parts()
        data = {"delays": problem.delays.copy(), "counts": problem.counts.copy()}
        data[field][5] = value
        with pytest.raises(ValidationError, match="delays and counts must be finite"):
            replace(problem, **data)


class TestFit:
    settings = FitSettings(starts=3, seed=0, xatol=1e-7, maxiter=2000)

    @pytest.mark.parametrize("starts", [0, -3, 2.5, "2"])
    def test_settings_need_a_start(self, starts):
        with pytest.raises(ValidationError, match="fit starts must be at least 1"):
            FitSettings(starts=starts)

    @pytest.mark.parametrize("seed", [1.5, -1, "0"])
    def test_settings_need_a_non_negative_integral_seed(self, seed):
        with pytest.raises(ValidationError, match="fit seed must be non-negative and an integer"):
            FitSettings(seed=seed)

    @pytest.mark.parametrize("maxiter", [0, -5, 10.5])
    def test_settings_need_an_iteration(self, maxiter):
        with pytest.raises(ValidationError, match="fit maxiter must be at least 1 and an integer"):
            FitSettings(maxiter=maxiter)

    @pytest.mark.parametrize("xatol", [0.0, -1e-9, math.nan, math.inf])
    def test_settings_need_a_finite_positive_tolerance(self, xatol):
        with pytest.raises(ValidationError, match="xatol must be"):
            FitSettings(xatol=xatol)

    def test_fit_assembles_no_state(self, monkeypatch):
        problem, theta = small_problem_parts()
        calls = []
        assemble = biphoton.assemble_jsa_mono
        monkeypatch.setattr(
            biphoton, "assemble_jsa_mono", lambda *a: calls.append(a) or assemble(*a)
        )
        result = fit_hom_trace(problem, FitSettings(starts=1, xatol=1e-3), initial=theta)
        assert result.iterations > 0
        assert calls == []

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

    def test_converged_is_the_best_start_flag(self, monkeypatch):
        # The best start (lowest residual) fails while the other succeeds.
        problem, _ = small_problem_parts()
        runs = []

        def fake_minimize(fun, x0, **kwargs):
            runs.append(x0)
            best = len(runs) == 1
            return OptimizeResult(x=np.asarray(x0), fun=0.0 if best else 1.0, success=not best, nit=1)

        monkeypatch.setattr(estimation, "minimize", fake_minimize)
        with pytest.raises(NonConvergenceError) as info:
            fit_hom_trace(problem, FitSettings(starts=2))
        assert len(runs) == 2
        assert info.value.best_result.converged is False

    def test_residual_is_the_sum_of_squares_at_the_parameters(self):
        # The reported amplitude and baseline are the ones that were scored:
        # the residual recomputed from the assembled state agrees.
        problem, _ = small_problem_parts()
        jsa = biphoton.assemble_jsa_mono(
            problem.pump, problem.phase_match_template, problem.cavity, problem.grid
        )
        trace = hom.trace_for_delayed_state(jsa, problem.state_delay, problem.delays)
        noisy = replace(
            problem,
            counts=simulate_counts(trace, 1e4, seed=5).astype(float),
            bounds=dict(problem.bounds, amplitude=(1.0, 1e5), baseline=(0.0, 1e3)),
        )
        result = fit_hom_trace(noisy, FitSettings(starts=2, xatol=1e-4))
        theta = result.parameters
        pm = replace(
            noisy.phase_match_template,
            **{n: theta[n] for n in ("bandwidth", "walkoff", "dispersion")},
        )
        state = biphoton.assemble_jsa_mono(noisy.pump, pm, noisy.cavity, noisy.grid)
        p = hom.trace_for_delayed_state(state, noisy.state_delay, noisy.delays).p_coincidence
        r = noisy.counts - theta["amplitude"] * p - theta["baseline"]
        assert result.residual == pytest.approx(float(np.sum(r * r)), rel=1e-9)

    def test_chip_trace_with_default_bounds(self):
        # The CLI's default bounds on the README chip (reduced grid): the
        # walk-off range is wider than the data and the bandwidth range spans
        # 100x, so the search must start from what the data show.
        path = Path(__file__).resolve().parent / "data" / "golden" / "chip" / "config.json"
        doc = json.loads(path.read_text())
        doc["grid"] = {"span_minus_thz": 1.5 * 21.82, "points_minus": 2**14 + 1}
        cfg = config.parse_config(json.dumps(doc))
        jsa = biphoton.assemble_jsa_mono(cfg.pump, cfg.phase_match, cfg.cavity, cfg.grid)
        delays = np.linspace(-8e-13, 8e-13, 401)
        counts = simulate_counts(hom.coincidence_trace(jsa, delays), 1e4, seed=0).astype(float)
        problem = FitProblem(
            delays=delays,
            counts=counts,
            bounds=cli.default_fit_bounds(cfg, counts),
            pump=cfg.pump,
            phase_match_template=cfg.phase_match,
            cavity=cfg.cavity,
            grid=cfg.grid,
        )
        result = fit_hom_trace(problem)
        bw = cfg.phase_match.bandwidth
        assert result.parameters["bandwidth"] == pytest.approx(bw, rel=0.05)
        assert not result.clipped["walkoff"]


class TestAmplitudeBaseline:
    """The closed-form linear step against scipy's bounded least squares."""

    AMPLITUDE = (1.0, 3.0)
    BASELINE = (0.5, 1.5)

    @pytest.mark.parametrize(
        "a_true, b_true, active",
        [
            (2.0, 1.0, (False, False)),  # interior
            (0.2, 1.0, (True, False)),  # amplitude lower edge
            (4.0, 0.5, (True, False)),  # amplitude upper edge
            (3.5, 0.0, (False, True)),  # baseline lower edge
            (1.5, 2.0, (False, True)),  # baseline upper edge
            (6.0, 2.0, (True, True)),  # corner
        ],
    )
    def test_matches_lsq_linear(self, a_true, b_true, active):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = rng.uniform(0.0, 1.0, 60)
            y = a_true * p + b_true + rng.normal(0.0, 0.05, p.size)
            a, b = estimation._amplitude_baseline(p, y, self.AMPLITUDE, self.BASELINE)
            ref = lsq_linear(
                np.column_stack([p, np.ones_like(p)]),
                y,
                bounds=([self.AMPLITUDE[0], self.BASELINE[0]], [self.AMPLITUDE[1], self.BASELINE[1]]),
                method="bvls",
                tol=1e-14,
            )
            assert (a, b) == pytest.approx(tuple(ref.x), rel=1e-9)
            on_edge = (a in self.AMPLITUDE, b in self.BASELINE)
            assert on_edge == active

    def test_flat_probability(self):
        # A trace whose feature lies off the data is flat: the minimiser is
        # not unique, but its sum of squares is the optimum.
        rng = np.random.default_rng(12)
        p = np.full(60, 0.5)
        y = 1.5 + rng.normal(0.0, 0.05, p.size)
        a, b = estimation._amplitude_baseline(p, y, self.AMPLITUDE, self.BASELINE)
        assert self.AMPLITUDE[0] <= a <= self.AMPLITUDE[1]
        assert self.BASELINE[0] <= b <= self.BASELINE[1]
        assert np.sum((y - a * p - b) ** 2) == pytest.approx(np.sum((y - y.mean()) ** 2), rel=1e-9)


class TestConfidenceProxy:
    """Half-widths of a quadratic residual profile, against its closed form."""

    G, H, F0, N_DATA = 50.0, 4e3, 100.0, 100

    @pytest.mark.parametrize("u_dispersion", [0.0, 0.004, 0.5, 0.996, 1.0])
    def test_quadratic_profile_at_and_near_a_bound(self, u_dispersion):
        # f = f0 + g (u_2 - u0_2) + h |u - u0|^2 / 2: curvature h along every
        # parameter, sloped along the dispersion as at a bound the fit ends on.
        u0 = np.array([0.5, 0.5, u_dispersion, 0.5, 0.5])
        width = np.arange(1.0, 6.0)

        def rss(u):
            return self.F0 + self.G * (u[2] - u0[2]) + 0.5 * self.H * float(np.sum((u - u0) ** 2))

        got = estimation._confidence_proxy(rss, u0, width, self.F0, self.N_DATA)
        s2 = self.F0 / (self.N_DATA - len(estimation.PARAMETER_NAMES))
        half_width = math.sqrt(2.0 * s2 / self.H)
        assert half_width == pytest.approx(0.0229, abs=5e-5)
        expected = dict(zip(estimation.PARAMETER_NAMES, half_width * width))
        assert got == pytest.approx(expected, rel=1e-6)
