"""Model fitting for HOM traces and synthetic-data generation.

The trace model has five free parameters: phase-matching bandwidth,
walk-off, dispersion, an overall amplitude scale, and an additive
baseline (uncorrelated background counts). Optimization is derivative-free
Nelder-Mead with deterministic multi-start over box bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize

from . import biphoton as _biphoton
from . import hom
from .biphoton import SpectralGrid
from .cavity import CavitySpec
from .errors import NonConvergenceError, ValidationError
from .spectral import PhaseMatchSpec, PumpSpec

SPEED_OF_LIGHT = 299792458.0

PARAMETER_NAMES = ("bandwidth", "walkoff", "dispersion", "amplitude", "baseline")


def simulate_counts(trace: hom.HomTrace, pairs_per_bin: float, seed: int) -> np.ndarray:
    """Draw Poisson counts with mean pairs_per_bin * P_c per delay bin."""
    if pairs_per_bin <= 0:
        raise ValidationError("pairs_per_bin must be positive")
    rng = np.random.default_rng(seed)
    return rng.poisson(pairs_per_bin * trace.p_coincidence)


@dataclass(frozen=True)
class FitProblem:
    """Trace data plus the fixed physical context of the model."""

    delays: np.ndarray
    counts: np.ndarray
    bounds: dict  # name -> (lo, hi) for each entry of PARAMETER_NAMES
    pump: PumpSpec
    phase_match_template: PhaseMatchSpec
    cavity: CavitySpec
    grid: SpectralGrid
    state_delay: float = 0.0
    poisson_weights: bool = False

    def __post_init__(self):
        delays = np.asarray(self.delays, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        if delays.shape != counts.shape or delays.ndim != 1:
            raise ValidationError("delays and counts must be equal-length 1D arrays")
        if delays.size < 2 * len(PARAMETER_NAMES):
            raise ValidationError(
                "need at least twice as many data points as free parameters"
            )
        if set(self.bounds) != set(PARAMETER_NAMES):
            raise ValidationError(f"bounds must cover exactly {PARAMETER_NAMES}")
        for name, (lo, hi) in self.bounds.items():
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValidationError(f"bounds for {name!r} must be finite and ordered")
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class FitSettings:
    starts: int = 8
    seed: int = 0
    xatol: float = 1e-9  # simplex tolerance in bound-normalized coordinates
    maxiter: int = 2000


@dataclass(frozen=True)
class FitResult:
    parameters: dict
    clipped: dict
    residual: float
    iterations: int
    converged: bool
    confidence: dict = field(default_factory=dict)


def fit_hom_trace(
    problem: FitProblem,
    settings: FitSettings = FitSettings(),
    initial: dict | None = None,
) -> FitResult:
    """Bounded Nelder-Mead least squares with deterministic multi-start.

    The first start is the midpoint of the bounds (or ``initial`` when
    given); the remaining starts are seeded uniform draws. The best
    residual across accepted starts is returned; ties break by start index.
    """
    grid = problem.grid
    omega = grid.omega_minus()
    state_phase = np.exp(1j * problem.state_delay * omega / 2.0)
    transform = hom.delay_transform(omega, problem.delays)

    def model(theta):
        bandwidth, walkoff, dispersion, amplitude, baseline = theta
        pm = replace(
            problem.phase_match_template,
            bandwidth=bandwidth,
            walkoff=walkoff,
            dispersion=dispersion,
        )
        jsa = _biphoton.assemble_jsa_mono(problem.pump, pm, problem.cavity, grid)
        kernel = hom.exchange_kernel(
            jsa.amplitudes * state_phase, grid.step_minus, jsa.norm_squared
        )
        return amplitude * hom.coincidence_probability(kernel, transform) + baseline

    lo = np.array([problem.bounds[n][0] for n in PARAMETER_NAMES])
    hi = np.array([problem.bounds[n][1] for n in PARAMETER_NAMES])
    width = hi - lo
    counts = problem.counts

    def rss(u):
        theta = lo + np.clip(u, 0.0, 1.0) * width
        m = model(theta)
        r = counts - m
        if problem.poisson_weights:
            return float(np.sum(r * r / np.maximum(m, 1.0)))
        return float(np.sum(r * r))

    fatol = 1e-12 * (1.0 + float(np.sum(counts * counts)))
    starts = [np.full(len(PARAMETER_NAMES), 0.5)]
    if initial is not None:
        theta0 = np.array([initial[n] for n in PARAMETER_NAMES])
        starts[0] = np.clip((theta0 - lo) / width, 0.0, 1.0)
    rng = np.random.default_rng(settings.seed)
    for u in rng.uniform(size=(max(settings.starts - 1, 0), len(PARAMETER_NAMES))):
        starts.append(u)

    best = None
    any_converged = False
    for idx, u0 in enumerate(starts):
        res = minimize(
            rss,
            u0,
            method="Nelder-Mead",
            bounds=[(0.0, 1.0)] * len(PARAMETER_NAMES),
            options={
                "xatol": settings.xatol,
                "fatol": fatol,
                "maxiter": settings.maxiter,
                "maxfev": 4 * settings.maxiter,
            },
        )
        any_converged = any_converged or bool(res.success)
        key = (res.fun, idx)
        if best is None or key < best[0]:
            best = (key, res)
    res = best[1]
    u_opt = np.clip(res.x, 0.0, 1.0)
    theta = lo + u_opt * width
    parameters = dict(zip(PARAMETER_NAMES, theta.tolist()))
    clipped = {
        n: bool(u_opt[i] < 1e-6 or u_opt[i] > 1.0 - 1e-6)
        for i, n in enumerate(PARAMETER_NAMES)
    }
    confidence = _confidence_proxy(rss, u_opt, width, res.fun, counts.size)
    result = FitResult(
        parameters=parameters,
        clipped=clipped,
        residual=float(res.fun),
        iterations=int(res.nit),
        converged=any_converged,
        confidence=confidence,
    )
    if not any_converged:
        raise NonConvergenceError("no optimizer start converged", best_result=result)
    return result


def _confidence_proxy(rss, u_opt, width, f0, n_data):
    """Half-widths from a quadratic fit to the per-parameter residual profile."""
    dof = max(n_data - len(PARAMETER_NAMES), 1)
    s2 = max(f0 / dof, np.finfo(float).tiny)
    out = {}
    du = 1e-2
    for i, name in enumerate(PARAMETER_NAMES):
        up = u_opt.copy()
        um = u_opt.copy()
        up[i] = min(u_opt[i] + du, 1.0)
        um[i] = max(u_opt[i] - du, 0.0)
        h = (rss(up) - 2.0 * f0 + rss(um)) / ((up[i] - um[i]) / 2.0) ** 2
        if h <= 0:
            out[name] = math.inf
        else:
            out[name] = math.sqrt(2.0 * s2 / h) * width[i]
    return out


@dataclass(frozen=True)
class BandwidthReport:
    center_wavelength: float
    wavelength_bandwidth: float
    per_photon_angular_bandwidth: float


def extract_bandwidth_report(result: FitResult, center_wavelength: float) -> BandwidthReport:
    """Convert a fitted difference-frequency bandwidth to wavelength units.

    The signal/idler wavelength bandwidth is lambda^2 * bandwidth / (2 pi c);
    the per-photon angular bandwidth is half the difference-frequency one.
    """
    if not result.converged:
        raise ValidationError("bandwidth report requires a converged fit")
    dw = result.parameters["bandwidth"]
    dl = center_wavelength**2 * dw / (2.0 * math.pi * SPEED_OF_LIGHT)
    return BandwidthReport(
        center_wavelength=center_wavelength,
        wavelength_bandwidth=dl,
        per_photon_angular_bandwidth=dw / 2.0,
    )
