"""Closed-form spectral factors: pump profile, phase matching, filters.

All frequencies are angular (rad/s). FWHM conventions are on intensity
(squared modulus) throughout.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DeltaPumpError, ValidationError, require_finite

_LN2 = math.log(2.0)

# Half width at half maximum of sinc^2(x) = (sin x / x)^2, i.e. the root of
# sinc^2(x) = 1/2. The argument scale 2*X_HALF/bandwidth makes the intensity
# FWHM of the sinc profile equal the configured bandwidth.
SINC_INTENSITY_HWHM = 1.3915573782515062


class PhaseMatchShape(enum.Enum):
    SINC = "sinc"
    GAUSSIAN = "gaussian"


class FilterShape(enum.Enum):
    GAUSSIAN = "gaussian"
    TOPHAT = "tophat"


@dataclass(frozen=True)
class PumpSpec:
    """Pump laser: center frequency and intensity-FWHM linewidth.

    Linewidth 0 is a monochromatic pump, a delta at the center frequency;
    a positive linewidth is the Gaussian broadband pump.
    """

    center_frequency: float
    linewidth: float = 0.0

    def __post_init__(self):
        require_finite(self)
        if self.center_frequency <= 0:
            raise ValidationError("pump center_frequency must be positive")
        if self.linewidth < 0.0:
            raise ValidationError(f"PumpSpec.linewidth must be 0 or positive, got {self.linewidth!r}")


@dataclass(frozen=True)
class PhaseMatchSpec:
    """Phase-matching profile of the nonlinear medium.

    bandwidth is the intensity FWHM of the main feature in the difference
    frequency; walkoff (s) and dispersion (s^2) are the first and second
    order spectral-phase coefficients.
    """

    degeneracy_frequency: float
    bandwidth: float
    walkoff: float = 0.0
    dispersion: float = 0.0
    shape: PhaseMatchShape = PhaseMatchShape.SINC

    def __post_init__(self):
        require_finite(self)
        if self.bandwidth <= 0:
            raise ValidationError("phase-match bandwidth must be positive")


@dataclass(frozen=True)
class FilterSpec:
    """Spectral amplitude filter acting on individual photon frequencies."""

    center: float
    bandwidth: float
    shape: FilterShape = FilterShape.GAUSSIAN

    def __post_init__(self):
        require_finite(self)
        if self.bandwidth <= 0:
            raise ValidationError("filter bandwidth must be positive")


def eval_pump(spec: PumpSpec, omega_plus):
    """Pump spectral amplitude at the sum frequency.

    Unit peak at the pump center; the intensity FWHM equals the configured
    linewidth. A monochromatic pump (linewidth 0) is a formal delta and
    cannot be point-evaluated.
    """
    if spec.linewidth == 0.0:
        raise DeltaPumpError(
            "delta pump not evaluable; use the monochromatic 1D reduction"
        )
    d = np.asarray(omega_plus, dtype=float) - spec.center_frequency
    return np.exp(-2.0 * _LN2 * d * d / (spec.linewidth**2))


def cis(phase) -> np.ndarray:
    """exp(i phase) as cos(phase) + i sin(phase), without a complex exp.

    Always an array, 0-d for a scalar phase; arithmetic with a 0-d array
    gives a scalar again.
    """
    phase = np.asarray(phase, dtype=float)
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def uniform_cis(step: float, n: int, power: int = 1) -> np.ndarray:
    """exp(i step k**power) for k = 0 .. n - 1 and power 1 or 2, built by
    broadcasting short ``cis`` tables instead of n cosines and sines.

    With s = ceil(sqrt(n)) and k = s h + l, 0 <= l < s, power 1 is the outer
    product exp(i step s h) exp(i step l) of two tables of about sqrt(n)
    entries. Power 2 is exp(i step s^2 h^2) exp(i step l^2) exp(2i step s h l),
    whose cross term is split once more as l = t g + j with t = ceil(sqrt(s)).
    Every integer multiplying ``step`` is exact, so each entry is a product
    of at most four phasors, each of one rounding of a part of the phase
    step k**power. Where the rounding of that phase dominates, from a few
    radians up, its error is about that of ``cis(step * k**power)``;
    below, it is within two units of roundoff of 1.
    """
    s = math.isqrt(n - 1) + 1
    h = np.arange(-(-n // s))[:, None]
    l = np.arange(s)
    if power == 1:
        table = cis(step * (s * h)) * cis(step * l)
    else:
        t = math.isqrt(s - 1) + 1
        g = np.arange(-(-s // t))
        # cross[h, g, j] = exp(2i step s h (t g + j)), with exp(i step s^2 h^2) folded in
        outer = cis(step * (s * h) ** 2) * cis(step * (2 * s * t * h * g))
        cross = outer[:, :, None] * cis(step * (2 * s * h[:, :, None] * np.arange(t)))
        table = cross.reshape(h.size, -1)[:, :s] * cis(step * (l * l))
    return table.ravel()[:n]


def phase_match_envelope(spec: PhaseMatchSpec, omega_minus):
    """Real phase-matching amplitude, even in the difference frequency,
    with unit peak and intensity FWHM ``spec.bandwidth``."""
    w = np.asarray(omega_minus, dtype=float)
    if spec.shape is PhaseMatchShape.SINC:
        x = 2.0 * SINC_INTENSITY_HWHM * w / spec.bandwidth
        return np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)  # sin(x)/x, 1 at 0
    return np.exp(-2.0 * _LN2 * w * w / (spec.bandwidth**2))


def eval_phase_match(spec: PhaseMatchSpec, omega_minus):
    """Complex phase-matching amplitude.

    The envelope is even in the difference frequency; the spectral phase
    walkoff*w/2 + dispersion*w^2/2 is carried on top. Dependence on the sum
    frequency is neglected over the simulated window.
    """
    w = np.asarray(omega_minus, dtype=float)
    phase = spec.walkoff * w / 2.0 + spec.dispersion * w * w / 2.0
    return phase_match_envelope(spec, w) * cis(phase)


def eval_filter(spec: FilterSpec, omega):
    """Real filter amplitude in [0, 1] at a photon frequency."""
    d = np.asarray(omega, dtype=float) - spec.center
    if spec.shape is FilterShape.TOPHAT:
        return (np.abs(d) <= spec.bandwidth / 2.0).astype(float)
    return np.exp(-2.0 * _LN2 * d * d / (spec.bandwidth**2))
