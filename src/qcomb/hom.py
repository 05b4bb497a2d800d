"""Hong-Ou-Mandel interference: coincidence traces, visibility, widths.

The coincidence probability against the interferometer delay is
P_c(tau) = 1/2 - 1/2 * Re[ sum C(w) C*(-w) exp(-i w tau) step ] / norm^2,
so symmetric states dip to 0 and anti-symmetric states peak at 1. The sum
is taken over the w >= 0 half, on the half kernel h of
``biphoton.exchange_kernel``, by a block-moment plan of small numpy matrix
products, within 1e-12 of a long-double direct sum (``delay_transform``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import biphoton as _biphoton
from .biphoton import Jsa, SpectralGrid
from .errors import ResolutionError, UndefinedVisibilityError, ValidationError
from .spectral import cis, uniform_cis

DIP = "dip"
PEAK = "peak"


@dataclass(frozen=True)
class HomTrace:
    """Coincidence probability versus interferometer delay.

    baseline and extremum are annotations estimated at construction;
    ``visibility`` re-estimates the baseline in a window set by the trace.
    """

    delays: np.ndarray
    p_coincidence: np.ndarray
    baseline: float
    extremum: float
    extremum_kind: str


#: Bound on x^P / P!, and so on the truncation error, of ``delay_transform``.
TAYLOR_TOL = 1e-17

#: Bytes the coarse phasor matrices of one ``delay_transform`` may hold,
#: beside 16 per delay; a wider or denser axis is cut into more windows.
_PLAN_BYTES = 2**24


def delay_transform(grid: SpectralGrid, delays):
    """Reusable map h -> 2 Re sum_j h_j exp(-i omega_j tau_k), a real array.

    h is a half kernel (``biphoton.exchange_kernel``) on the w- >= 0 half,
    omega_j = j d_omega with d_omega = ``grid.step_minus``, so the map sums
    the Hermitian kernel over the whole grid. The grid must be 1D, hence
    symmetric about w- = 0, and the delays a 1D axis of at least 2 finite
    values in any order. The map carries that axis as ``.delays`` and
    refuses, with ``ValidationError``, an h of other than
    ``grid.points_minus // 2 + 1`` samples.

    One block-moment plan serves every axis (the Taylor-expansion approach
    to the non-uniform DFT; Anderson and Dahleh, SIAM J. Sci. Comput. 17
    (1996) 913). The axis is cut into equal windows tau = tau_c + s,
    |s| <= S, and h into blocks of B samples, omega = Omega_b + delta, with
    B the largest for which x = delta_max S <= 1, delta_max = (B - 1)
    d_omega / 2. Then

        T(tau) = sum_p (-i s delta_max)^p / p! sum_b exp(-i Omega_b s) M[b, p],
        M[b, p] = sum_delta h_j exp(-i omega_j tau_c) (delta / delta_max)^p,

    so an apply is, per window, one (blocks x B) @ (B x P) moment product
    on the real and imaginary parts and one coarse product against phasors
    built once. P is the fewest terms with x^P / P! <= ``TAYLOR_TOL``: the
    truncation error is at most x^P / P! 2 sum |h|, and 2 sum |h| <= 1 for
    every exchange kernel (Cauchy-Schwarz). On the golden chip state
    (32 769 half-grid samples, 401 delays) the map is within 4e-16 of a
    long-double direct sum; the tests hold it to 1e-12.

    The window count balances one moment product per window against the
    coarse phasors (delays x blocks), and rises until those fit in
    ``_PLAN_BYTES``. The plan lives as long as the returned map, so a caller
    that transforms onto one axis again and again builds the map once.
    """
    if grid.is_two_dimensional:
        raise ValidationError("the delay transform is defined for 1D grids")
    delays = np.asarray(delays, dtype=float)
    if delays.ndim != 1 or delays.size < 2:
        raise ValidationError("delay_transform needs a 1D axis of at least 2 delays")
    if not math.isfinite(float(delays.max()) - float(delays.min())):  # no NaN, no infinite span
        raise ValidationError("delay_transform needs finite delays with a finite span")
    n = grid.points_minus // 2 + 1
    apply = _block_plan(n, grid.step_minus, delays)

    def transform(h):
        if np.shape(h) != (n,):
            raise ValidationError(f"the half kernel needs {n} samples, got {np.shape(h)}")
        return apply(h)

    transform.delays = delays
    return transform


def _block_plan(n, step, delays):
    """The plan of ``delay_transform`` for n half-grid samples. A window
    holds its rows of the coarse phasors exp(-i step (b B tau + (B - 1) s / 2))
    and of the Taylor weights, and its in-block phasors exp(-i l step tau_c)."""
    m = delays.size
    lo, width = delays.min(), np.ptp(delays)
    full = n * step * width / 4.0  # blocks of one window over the whole axis
    count = int(max(1.0, math.sqrt(m * full / n), 16.0 * m * full / _PLAN_BYTES + 1.0))
    index = np.minimum((delays - lo) // (width / count), count - 1) if width else np.zeros(m)
    centre = lo + (index + 0.5) * (width / count)
    s = delays - centre
    size = n if step * width * n <= 4.0 * count else int(4.0 * count / (step * width)) + 1
    blocks = -(-n // size)
    half = (size - 1) / 2.0
    x = half * step * float(np.max(np.abs(s)))
    terms = 1
    while x**terms / math.factorial(terms) > TAYLOR_TOL:
        terms += 1
    powers = np.linspace(-1.0, 1.0, size)[:, None] ** np.arange(terms)
    ratios = np.outer(-1j * half * step * s, 1.0 / np.arange(1, terms))
    taylor = np.cumprod(np.hstack((np.ones((m, 1)), ratios)), axis=1)
    order = np.argsort(index, kind="stable")
    windows = [
        (
            rows,
            uniform_cis(-step * centre[rows[0]], size),
            cis(-step * (np.outer(delays[rows], size * np.arange(blocks)) + half * s[rows, None])),
            taylor[rows],
        )
        for rows in np.split(order, np.flatnonzero(np.diff(index[order])) + 1)
    ]

    def apply(h):
        out = np.empty(m)
        for rows, inner, coarse, weights in windows:
            phased = np.zeros((blocks, size), dtype=complex)
            phased.ravel()[:n] = h
            phased *= inner  # in place: a second n-sample temporary costs more than this product
            real, imag = np.ascontiguousarray(phased.real), np.ascontiguousarray(phased.imag)
            moments = real @ powers + 1j * (imag @ powers)
            out[rows] = 2.0 * np.real(np.sum(weights * (coarse @ moments), axis=1))
        return out

    return apply


def coincidence_probability(h, transform):
    """P_c = 1/2 - 1/2 T(h) for a half kernel h and a ``delay_transform`` T,
    clipped to [0, 1]: |T| <= 2 sum |h| <= 1, so only roundoff leaves it."""
    return np.clip(0.5 - 0.5 * transform(h), 0.0, 1.0)


def _extremum_index(p, kind):
    return int(np.argmin(p)) if kind == DIP else int(np.argmax(p))


def _half_level_run(p, kind, i_ext, half):
    """First and last index of the run of samples beyond ``half`` (below it
    for a dip, above it for a peak) around i_ext; None if p[i_ext] is not."""
    inside = p < half if kind == DIP else p > half
    if not inside[i_ext]:
        return None
    lo = hi = i_ext
    while lo > 0 and inside[lo - 1]:
        lo -= 1
    while hi < p.size - 1 and inside[hi + 1]:
        hi += 1
    return lo, hi


def _estimate_feature_width(delays, p, i_ext, kind, baseline_guess):
    """Full width where the trace has recovered halfway back to baseline."""
    run = _half_level_run(p, kind, i_ext, (p[i_ext] + baseline_guess) / 2.0)
    # From the first sample back past the half level on each side.
    w = 0.0 if run is None else abs(delays[min(run[1] + 1, p.size - 1)] - delays[max(run[0] - 1, 0)])
    return abs(delays[-1] - delays[0]) / 8.0 if w == 0 else w


def _window_mask(delays, center, window):
    """Samples whose |tau - center| lies in the (lo, hi) window."""
    offset = np.abs(delays - center)
    return (offset >= window[0]) & (offset <= window[1])


def _annotate(delays, p):
    depth = 0.5 - p.min()
    height = p.max() - 0.5
    kind = DIP if depth >= height else PEAK
    i_ext = _extremum_index(p, kind)
    mask = _window_mask(delays, delays[i_ext], _baseline_window(delays, p, i_ext, kind, 0.5))
    baseline = float(p[mask].mean()) if np.count_nonzero(mask) >= 2 else 0.5
    return baseline, float(p[i_ext]), kind


def _baseline_window(delays, p, i_ext, kind, level):
    """Default window |tau - tau_ext| in [3w, 5w], clipped to the trace span,
    for the width w of the ``kind`` feature against the baseline guess ``level``."""
    w = _estimate_feature_width(delays, p, i_ext, kind, level)
    center = delays[i_ext]
    span = max(abs(delays[0] - center), abs(delays[-1] - center))
    lo = 3.0 * w
    hi = min(5.0 * w, span)
    if lo >= hi:  # short trace: fall back to the outer quarter
        lo, hi = 0.75 * span, span
    return lo, hi


def coincidence_trace(jsa: Jsa, delays) -> HomTrace:
    """Compute the coincidence trace of a 1D state over the given delays."""
    h = _biphoton.exchange_kernel(jsa)
    return kernel_trace(h, delay_transform(jsa.grid, delays))


def kernel_trace(h, transform) -> HomTrace:
    """The coincidence trace of a half kernel h on the axis of ``transform``,
    a ``delay_transform`` map."""
    delays = transform.delays
    p = coincidence_probability(h, transform)
    baseline, extremum, kind = _annotate(delays, p)
    return HomTrace(
        delays=delays,
        p_coincidence=p,
        baseline=baseline,
        extremum=extremum,
        extremum_kind=kind,
    )


def trace_for_delayed_state(jsa: Jsa, tau: float, delays) -> HomTrace:
    """Apply the relative delay, then compute the coincidence trace."""
    return coincidence_trace(_biphoton.apply_delay(jsa, tau), delays)


def visibility(trace: HomTrace) -> float:
    """(N_tau - N_0)/N_tau: positive for dips, negative for peaks.

    N_0 is the extremal level at tau_ext; N_tau the mean level over the
    baseline window |tau - tau_ext| in [3w, 5w], w the feature width against
    ``trace.baseline``, clipped to the trace span (the outer quarter of the
    span if that leaves it empty). The value does not depend on where the
    feature sits on the delay axis. A window of fewer than 10 samples, or one
    reaching the extremum, raises ``ValidationError``; a zero N_tau raises
    ``UndefinedVisibilityError``. It warns if the feature, measured against
    N_tau, reaches into the window.
    """
    delays = trace.delays
    p = trace.p_coincidence
    kind = trace.extremum_kind
    i_ext = _extremum_index(p, kind)
    lo, hi = _baseline_window(delays, p, i_ext, kind, trace.baseline)
    mask = _window_mask(delays, delays[i_ext], (lo, hi))
    if np.count_nonzero(mask) < 10:
        raise ValidationError("baseline window must contain at least 10 samples")
    n_tau = float(p[mask].mean())
    if n_tau == 0.0:
        raise UndefinedVisibilityError("zero baseline: visibility undefined")
    if not lo > 0.0:
        raise ValidationError("baseline window leaves no samples near the extremum")
    n_0 = float(p[i_ext])
    if _estimate_feature_width(delays, p, i_ext, kind, n_tau) / 2.0 > lo:
        warnings.warn("baseline window overlaps the interference feature")
    return (n_tau - n_0) / n_tau


def contrast(trace: HomTrace) -> float:
    """Signed contrast of the extremum against the uncorrelated level 1/2.

    (1/2 - P_ext)/(1/2): positive for dips, negative for peaks.
    """
    return (0.5 - trace.extremum) / 0.5


def feature_width(trace: HomTrace) -> float:
    """FWHM of the feature between baseline and extremum, interpolated."""
    p = trace.p_coincidence
    delays = trace.delays
    half = (trace.baseline + trace.extremum) / 2.0
    kind = trace.extremum_kind
    run = _half_level_run(p, kind, _extremum_index(p, kind), half)
    if run is None:
        raise ResolutionError("feature not resolved: extremum sits at half level")
    lo, hi = run
    if hi - lo + 1 < 5:
        raise ResolutionError(
            "fewer than 5 samples inside the FWHM; refine the delay axis"
        )
    if lo == 0 or hi == p.size - 1:
        raise ResolutionError("feature extends beyond the trace span")

    def cross(i_out, i_in):
        f = (half - p[i_out]) / (p[i_in] - p[i_out])
        return delays[i_out] + f * (delays[i_in] - delays[i_out])

    return float(abs(cross(hi + 1, hi) - cross(lo - 1, lo)))

