"""Model fitting for HOM traces and synthetic-data generation.

The trace model has five free parameters: phase-matching bandwidth,
walk-off, dispersion, an overall amplitude scale, and an additive
baseline (uncorrelated background counts). It is the delay transform of
the exchange kernel that ``biphoton.exchange_kernel_model`` evaluates
from the first three on the w- >= 0 half, with the state delay folded
into the walk-off; no state is assembled. Optimization is derivative-free
Nelder-Mead with deterministic multi-start over box bounds.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from . import biphoton as _biphoton
from . import hom
from .biphoton import SpectralGrid
from .cavity import CavitySpec
from .errors import NonConvergenceError, ValidationError, require_finite
from .spectral import PhaseMatchSpec, PumpSpec

SPEED_OF_LIGHT = 299792458.0

PARAMETER_NAMES = ("bandwidth", "walkoff", "dispersion", "amplitude", "baseline")

#: Largest mean numpy's Poisson sampler accepts: INT64_MAX - 10 sqrt(INT64_MAX).
POISSON_RATE_MAX = np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max)


def simulate_counts(trace: hom.HomTrace, pairs_per_bin: float, seed: int) -> np.ndarray:
    """Draw Poisson counts with mean pairs_per_bin * P_c per delay bin."""
    if not 0.0 < pairs_per_bin < math.inf:
        raise ValidationError(f"pairs_per_bin must be positive and finite, got {pairs_per_bin!r}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    rate = pairs_per_bin * trace.p_coincidence
    if np.any(rate > POISSON_RATE_MAX):
        raise ValidationError(
            f"pairs_per_bin {pairs_per_bin!r} gives a mean count above numpy's Poisson limit {POISSON_RATE_MAX!r}"
        )
    rng = np.random.default_rng(seed)
    return rng.poisson(rate)


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

    def __post_init__(self):
        delays = np.asarray(self.delays, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        if delays.shape != counts.shape or delays.ndim != 1:
            raise ValidationError("delays and counts must be equal-length 1D arrays")
        if not (np.all(np.isfinite(delays)) and np.all(np.isfinite(counts))):
            raise ValidationError("delays and counts must be finite")
        require_finite(self)
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

    def __post_init__(self):
        if self.starts < 1:
            raise ValidationError("fit starts must be at least 1")
        if self.seed < 0:
            raise ValidationError("fit seed must be non-negative")


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
    transform = hom.delay_transform(problem.grid.omega_minus(), problem.delays)
    kernel = _biphoton.exchange_kernel_model(
        problem.pump, problem.phase_match_template, problem.cavity, problem.grid
    )

    def model(theta):
        bandwidth, walkoff, dispersion, amplitude, baseline = theta
        # Walk-off and the state delay both multiply the state by exp(i tau w-/2).
        k = kernel(bandwidth, walkoff + problem.state_delay, dispersion)
        return amplitude * hom.coincidence_probability(k, transform) + baseline

    lo = np.array([problem.bounds[n][0] for n in PARAMETER_NAMES])
    hi = np.array([problem.bounds[n][1] for n in PARAMETER_NAMES])
    width = hi - lo
    counts = problem.counts

    # scipy's bounded Nelder-Mead clips x0, the initial simplex and every trial
    # point to the unit box, so u never leaves it.
    def rss(u):
        r = counts - model(lo + u * width)
        return float(np.sum(r * r))

    fatol = 1e-12 * (1.0 + float(np.sum(counts * counts)))
    first = np.full(len(PARAMETER_NAMES), 0.5)
    if initial is not None:
        theta0 = np.array([initial[n] for n in PARAMETER_NAMES])
        first = np.clip((theta0 - lo) / width, 0.0, 1.0)
    rng = np.random.default_rng(settings.seed)
    starts = [first, *rng.uniform(size=(settings.starts - 1, len(PARAMETER_NAMES)))]
    options = {
        "xatol": settings.xatol,
        "fatol": fatol,
        "maxiter": settings.maxiter,
        "maxfev": 4 * settings.maxiter,
    }
    box = [(0.0, 1.0)] * len(PARAMETER_NAMES)
    runs = [minimize(rss, u0, method="Nelder-Mead", bounds=box, options=options) for u0 in starts]
    converged = any(r.success for r in runs)
    res = min(runs, key=lambda r: r.fun)  # ties keep the earlier start
    u_opt = res.x
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
        converged=converged,
        confidence=confidence,
    )
    if not converged:
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
