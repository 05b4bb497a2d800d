"""Model fitting for HOM traces and synthetic-data generation.

The trace model has five free parameters: phase-matching bandwidth,
walk-off, dispersion, an overall amplitude scale, and an additive
baseline (uncorrelated background counts). It is the delay transform of
the exchange kernel that ``biphoton.exchange_kernel_model`` evaluates
from the first three on the w- >= 0 half, with the state delay folded
into the walk-off; no state is assembled. The fit is by variable
projection (Golub & Pereyra, SIAM J. Numer. Anal. 10 (1973) 413):
amplitude and baseline enter linearly, so at each point they are solved
in closed form over their bounds, and derivative-free Nelder-Mead
searches only the three nonlinear parameters, with deterministic
multi-start over box bounds and a first start seeded from the data.
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

PARAMETER_NAMES = ("bandwidth", "walkoff", "dispersion", "amplitude", "baseline")
#: The parameters the search runs over; amplitude and baseline are linear.
SEARCHED = PARAMETER_NAMES[:3]

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
        if np.all(counts == counts[0]):
            raise ValidationError("counts are all equal: constant data fix no parameter")
        if set(self.bounds) != set(PARAMETER_NAMES):
            raise ValidationError(f"bounds must cover exactly {PARAMETER_NAMES}")
        for name, (lo, hi) in self.bounds.items():
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValidationError(f"bounds for {name!r} must be finite and ordered")
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class FitSettings:
    """Search settings of ``fit_hom_trace``: ``starts`` Nelder-Mead starts,
    the first from ``initial`` or the data and the others uniform draws in
    the unit box of the bounds from ``seed``; each start stops at simplex
    tolerance ``xatol`` in that box or after ``maxiter`` iterations (4 x
    ``maxiter`` evaluations). ``qcomb fit`` sets the seed; the benchmark's
    fit workload (``qbench/workloads.py``) sets the other three."""

    starts: int = 8
    seed: int = 0
    xatol: float = 1e-9
    maxiter: int = 2000

    def __post_init__(self):
        require_finite(self)
        for name, least, rule in (
            ("starts", 1, "at least 1"),
            ("seed", 0, "non-negative"),
            ("maxiter", 1, "at least 1"),
        ):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < least:
                raise ValidationError(f"fit {name} must be {rule} and an integer, got {value!r}")
        if not self.xatol > 0.0:
            raise ValidationError(f"fit xatol must be positive, got {self.xatol!r}")


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
    """Bounded least squares by variable projection with deterministic multi-start.

    Nelder-Mead searches bandwidth, walk-off and dispersion in the unit box
    of their bounds; at each point the amplitude and baseline are the exact
    minimisers of the sum of squares over their own bounds. The first start
    is ``initial`` when given (only those three keys are read), else one
    seeded from the data (``_seeded_start``); the remaining starts are
    seeded uniform draws. The best residual across starts is returned, ties
    breaking by start index, and ``converged`` is that start's own flag.
    """
    transform = hom.delay_transform(problem.grid, problem.delays)
    kernel = _biphoton.exchange_kernel_model(
        problem.pump, problem.phase_match_template, problem.cavity, problem.grid
    )
    lo = np.array([problem.bounds[n][0] for n in PARAMETER_NAMES])
    hi = np.array([problem.bounds[n][1] for n in PARAMETER_NAMES])
    width = hi - lo
    counts = problem.counts
    m = len(SEARCHED)

    def probability(u):
        bandwidth, walkoff, dispersion = lo[:m] + u[:m] * width[:m]
        # Walk-off and the state delay both multiply the state by exp(i tau w-/2).
        k = kernel(bandwidth, walkoff + problem.state_delay, dispersion)
        return hom.coincidence_probability(k, transform)

    def rss(u):
        amplitude, baseline = lo[m:] + u[m:] * width[m:]
        return _sum_of_squares(counts - amplitude * probability(u) - baseline)

    def project(u):
        """(amplitude, baseline, sum of squares) at the searched point u."""
        p = probability(u)
        a, b = _amplitude_baseline(p, counts, problem.bounds["amplitude"], problem.bounds["baseline"])
        return a, b, _sum_of_squares(counts - a * p - b)

    def projected_rss(u):
        return project(u)[2]

    if initial is None:
        first = _seeded_start(problem, lo[:m], width[:m], projected_rss)
    else:
        theta0 = np.array([initial[n] for n in SEARCHED])
        first = np.clip((theta0 - lo[:m]) / width[:m], 0.0, 1.0)
    rng = np.random.default_rng(settings.seed)
    starts = [first, *rng.uniform(size=(settings.starts - 1, m))]
    options = {
        "xatol": settings.xatol,
        "fatol": 1e-12 * (1.0 + _sum_of_squares(counts)),
        "maxiter": settings.maxiter,
        "maxfev": 4 * settings.maxiter,
    }
    # scipy's bounded Nelder-Mead clips x0, the initial simplex and every trial
    # point to the unit box, so u never leaves it.
    box = [(0.0, 1.0)] * m
    runs = [
        minimize(projected_rss, u0, method="Nelder-Mead", bounds=box, options=options)
        for u0 in starts
    ]
    res = min(runs, key=lambda r: r.fun)  # ties keep the earlier start
    amplitude, baseline, residual = project(res.x)
    theta = np.array([*(lo[:m] + res.x * width[:m]), amplitude, baseline])
    u_opt = (theta - lo) / width
    u_opt[:m] = res.x
    parameters = dict(zip(PARAMETER_NAMES, theta.tolist()))
    clipped = {
        n: bool(u_opt[i] < 1e-6 or u_opt[i] > 1.0 - 1e-6)
        for i, n in enumerate(PARAMETER_NAMES)
    }
    # The centre node from rss too: the projected residual differs from it by
    # roundoff, which reads as a curvature along a flat direction.
    confidence = _confidence_proxy(rss, u_opt, width, rss(u_opt), counts.size)
    result = FitResult(
        parameters=parameters,
        clipped=clipped,
        residual=residual,
        iterations=int(res.nit),
        converged=bool(res.success),
        confidence=confidence,
    )
    if not result.converged:
        raise NonConvergenceError("the best optimizer start did not converge", best_result=result)
    return result


def _seeded_start(problem, lo, width, projected_rss):
    """First start in the searched unit box, read from the data.

    The model's feature sits at walk-off + state delay, up to the revival
    period pi / FSR, so the walk-off puts it at the sample farthest from the
    median count. The bandwidth is the best of 12 points across its bounds
    at that walk-off and the midpoint dispersion, where the search starts.
    """
    counts = problem.counts
    feature = problem.delays[np.argmax(np.abs(counts - np.median(counts)))]
    revival = math.pi / problem.cavity.fsr
    state_delay = problem.state_delay - revival * round(problem.state_delay / revival)
    walkoff = min(max((feature - state_delay - lo[1]) / width[1], 0.0), 1.0)
    profile = [np.array([u, walkoff, 0.5]) for u in np.linspace(0.0, 1.0, 12)]
    return min(profile, key=projected_rss)


def _amplitude_baseline(p, y, amplitude_bounds, baseline_bounds):
    """Exact minimiser (a, b) of ||y - a p - b||^2 over the box of its bounds.

    The objective is a convex quadratic in (a, b): its unconstrained
    minimiser when that lies in the box, else the best of the four edge
    minimisers, each clipped to its edge.
    """
    (a_lo, a_hi), (b_lo, b_hi) = amplitude_bounds, baseline_bounds
    p_mean, y_mean = float(np.mean(p)), float(np.mean(y))
    pc = p - p_mean
    spp = float(pc @ pc)
    if spp > 0.0:
        a = float(pc @ (y - y_mean)) / spp
        b = y_mean - a * p_mean
        if a_lo <= a <= a_hi and b_lo <= b <= b_hi:
            return a, b
    # A flat p (the feature off the data) leaves a free along a line that
    # meets the edges; p @ p > 0, since a trace is not zero at every delay.
    pp = float(p @ p)
    edges = [(a, min(max(y_mean - a * p_mean, b_lo), b_hi)) for a in (a_lo, a_hi)]
    edges += [(min(max(float(p @ (y - b)) / pp, a_lo), a_hi), b) for b in (b_lo, b_hi)]
    return min(edges, key=lambda ab: _sum_of_squares(y - ab[0] * p - ab[1]))


def _sum_of_squares(r):
    return float(r @ r)


def _confidence_proxy(rss, u_opt, width, f0, n_data):
    """Half-widths from a quadratic fit to the per-parameter residual profile.

    The curvature is the second difference over three nodes du apart inside
    the unit box, one of them ``u_opt`` with its residual ``f0``: centred on
    it, or both other nodes on one side when it lies within du of a bound.
    It is exact for any quadratic profile.
    """
    dof = max(n_data - len(PARAMETER_NAMES), 1)
    s2 = max(f0 / dof, np.finfo(float).tiny)
    out = {}
    du = 1e-2
    for i, name in enumerate(PARAMETER_NAMES):
        first = 0 if u_opt[i] < du else -2 if u_opt[i] > 1.0 - du else -1
        nodes, f = [], []
        for k in range(first, first + 3):
            u = u_opt.copy()
            u[i] += k * du
            nodes.append(u[i])
            f.append(f0 if k == 0 else rss(u))
        h = (f[2] - 2.0 * f[1] + f[0]) / ((nodes[2] - nodes[0]) / 2.0) ** 2
        if h <= 0:
            out[name] = math.inf
        else:
            out[name] = math.sqrt(2.0 * s2 / h) * width[i]
    return out
