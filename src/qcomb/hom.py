"""Hong-Ou-Mandel interference: coincidence traces, visibility, widths.

The coincidence probability against the interferometer delay is
P_c(tau) = 1/2 - 1/2 * Re[ sum C(w) C*(-w) exp(-i w tau) step ] / norm^2,
so symmetric states dip to 0 and anti-symmetric states peak at 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.signal import CZT

from . import biphoton as _biphoton
from .biphoton import Jsa
from .errors import (
    DegenerateStateError,
    GridSymmetryError,
    ResolutionError,
    UndefinedVisibilityError,
    ValidationError,
)

DIP = "dip"
PEAK = "peak"


@dataclass(frozen=True)
class HomTrace:
    """Coincidence probability versus interferometer delay.

    baseline and extremum are annotations estimated at construction; the
    ``visibility`` operation recomputes them for an explicit window.
    """

    delays: np.ndarray
    p_coincidence: np.ndarray
    baseline: float
    extremum: float
    extremum_kind: str


def delay_transform(omega, delays):
    """Reusable map kernel -> sum_n kernel_n exp(-i omega_n tau_k).

    Uniform delay axes of 8 or more points get a chirp-z plan plus a
    post-phase; other axes get the direct sum.
    """
    delays = np.asarray(delays, dtype=float)
    if delays.size >= 8:
        dt = np.diff(delays)
        if np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
            dw = omega[1] - omega[0]
            plan = CZT(
                n=omega.size,
                m=delays.size,
                w=complex(np.exp(-1j * dw * dt[0])),
                a=complex(np.exp(1j * dw * delays[0])),
            )
            post = np.exp(-1j * omega[0] * delays)
            return lambda kernel: plan(kernel) * post
    return lambda kernel: np.array(
        [np.sum(kernel * np.exp(-1j * omega * t)) for t in delays]
    )


def exchange_kernel(amplitudes, step, norm_squared):
    """C(w) C*(-w) dw / |C|^2 on a grid symmetric about w = 0."""
    return amplitudes * np.conj(amplitudes[::-1]) * (step / norm_squared)


def coincidence_probability(kernel, transform):
    """P_c = 1/2 - 1/2 Re T(kernel) for a ``delay_transform`` T."""
    return 0.5 - 0.5 * np.real(transform(kernel))


def _estimate_feature_width(delays, p, baseline_guess, i_ext):
    """Full width where the trace has recovered halfway back to baseline."""
    half = (p[i_ext] + baseline_guess) / 2.0
    sign = 1.0 if p[i_ext] < baseline_guess else -1.0
    lo = i_ext
    while lo > 0 and sign * (half - p[lo]) > 0:
        lo -= 1
    hi = i_ext
    while hi < p.size - 1 and sign * (half - p[hi]) > 0:
        hi += 1
    w = delays[hi] - delays[lo]
    if w <= 0:
        w = (delays[-1] - delays[0]) / 8.0
    return w


def _window_mask(delays, center, window):
    """Samples whose |tau - center| lies in the (lo, hi) window."""
    offset = np.abs(delays - center)
    return (offset >= window[0]) & (offset <= window[1])


def _annotate(delays, p):
    depth = 0.5 - p.min()
    height = p.max() - 0.5
    kind = DIP if depth >= height else PEAK
    i_ext = int(np.argmin(p)) if kind == DIP else int(np.argmax(p))
    w = _estimate_feature_width(delays, p, 0.5, i_ext)
    window = default_baseline_window(delays, w, center=delays[i_ext])
    mask = _window_mask(delays, delays[i_ext], window)
    baseline = float(p[mask].mean()) if np.count_nonzero(mask) >= 2 else 0.5
    return baseline, float(p[i_ext]), kind


def default_baseline_window(delays, feature_width, center=0.0):
    """Default window |tau - center| in [3w, 5w], clipped to the trace span."""
    span = max(abs(delays[0] - center), abs(delays[-1] - center))
    lo = 3.0 * feature_width
    hi = min(5.0 * feature_width, span)
    if lo >= hi:  # short trace: fall back to the outer quarter
        lo, hi = 0.75 * span, span
    return lo, hi


def coincidence_trace(jsa: Jsa, delays) -> HomTrace:
    """Compute the coincidence trace of a 1D state over the given delays."""
    if jsa.grid.is_two_dimensional:
        raise ValidationError("coincidence_trace is defined for 1D states")
    if not jsa.grid.is_symmetric():
        raise GridSymmetryError("coincidence_trace requires a symmetric grid")
    n2 = jsa.norm_squared
    if n2 <= 0.0:
        raise DegenerateStateError("zero-norm state")
    delays = np.asarray(delays, dtype=float)
    omega = jsa.grid.omega_minus()
    # Kernel first, then the plan: the order of these large allocations
    # sets the process's peak resident memory.
    kernel = exchange_kernel(jsa.amplitudes, jsa.grid.step_minus, n2)
    p = coincidence_probability(kernel, delay_transform(omega, delays))
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


def visibility(trace: HomTrace, baseline_window=None) -> float:
    """(N_tau - N_0)/N_tau: positive for dips, negative for peaks.

    N_tau is the mean coincidence level over the baseline window, a
    (lo, hi) range of |tau - tau_ext| measured from the extremum at
    tau_ext; N_0 the extremal level. The value does not depend on where
    the feature sits on the delay axis.
    """
    delays = trace.delays
    p = trace.p_coincidence
    i_ext = int(np.argmin(p)) if trace.extremum_kind == DIP else int(np.argmax(p))
    t_ext = delays[i_ext]
    if baseline_window is None:
        w = _estimate_feature_width(delays, p, trace.baseline, i_ext)
        baseline_window = default_baseline_window(delays, w, center=t_ext)
    lo, _ = baseline_window
    mask = _window_mask(delays, t_ext, baseline_window)
    if np.count_nonzero(mask) < 10:
        raise ValidationError("baseline window must contain at least 10 samples")
    n_tau = float(p[mask].mean())
    if n_tau == 0.0:
        raise UndefinedVisibilityError("zero baseline: visibility undefined")
    if not lo > 0.0:
        raise ValidationError("baseline window leaves no samples near the extremum")
    n_0 = float(p[i_ext])
    if _estimate_feature_width(delays, p, n_tau, i_ext) / 2.0 > lo:
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
    if trace.extremum_kind == DIP:
        inside = p < half
        i_ext = int(np.argmin(p))
    else:
        inside = p > half
        i_ext = int(np.argmax(p))
    if not inside[i_ext]:
        raise ResolutionError("feature not resolved: extremum sits at half level")
    lo = i_ext
    while lo > 0 and inside[lo - 1]:
        lo -= 1
    hi = i_ext
    while hi < p.size - 1 and inside[hi + 1]:
        hi += 1
    if hi - lo + 1 < 5:
        raise ResolutionError(
            "fewer than 5 samples inside the FWHM; refine the delay axis"
        )
    if lo == 0 or hi == p.size - 1:
        raise ResolutionError("feature extends beyond the trace span")

    def cross(i_out, i_in):
        f = (half - p[i_out]) / (p[i_in] - p[i_out])
        return delays[i_out] + f * (delays[i_in] - delays[i_out])

    return float(cross(hi + 1, hi) - cross(lo - 1, lo))


def gaussian_trace(sigma: float, delays) -> np.ndarray:
    """Closed-form trace for C = exp(-w^2/(2 sigma^2)) with no cavity."""
    t = np.asarray(delays, dtype=float)
    return 0.5 * (1.0 - np.exp(-(sigma**2) * t * t / 4.0))


def gaussian_dip_fwhm(sigma: float) -> float:
    """FWHM of the Gaussian-state dip: 4 sqrt(ln 2)/sigma."""
    return 4.0 * math.sqrt(math.log(2.0)) / sigma
