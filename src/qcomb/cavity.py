"""Fabry-Perot cavity model: Airy transmission, linewidth, pump classification.

The cavity is lossless and symmetric; signal and idler polarizations may
carry different mirror reflectivities. An optional quadratic phase term
models group-velocity dispersion of the intracavity medium, which chirps
the resonance comb away from the ideal evenly-spaced grid.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require_finite
from .spectral import cis

#: Pump-tuning tolerance of ``classify_pump``, in free spectral ranges.
PUMP_TOLERANCE_FSR = 1 / 8


class Polarization(enum.Enum):
    SIGNAL = "signal"
    IDLER = "idler"


class PumpClassLabel(enum.Enum):
    RESONANT = "resonant"
    ANTI_RESONANT = "anti_resonant"
    INTERMEDIATE = "intermediate"


@dataclass(frozen=True)
class CavitySpec:
    """Free spectral range, per-polarization reflectivity, resonance offset."""

    fsr: float
    reflectivity_signal: float
    reflectivity_idler: float
    resonance_offset: float = 0.0

    def __post_init__(self):
        require_finite(self)
        if self.fsr <= 0:
            raise ValidationError("cavity fsr must be positive")
        for r in (self.reflectivity_signal, self.reflectivity_idler):
            if not 0.0 <= r < 1.0:
                raise ValidationError("reflectivity must lie in [0, 1)")

    def reflectivity(self, polarization: Polarization) -> float:
        if polarization is Polarization.SIGNAL:
            return self.reflectivity_signal
        return self.reflectivity_idler


@dataclass(frozen=True)
class PumpClass:
    label: PumpClassLabel
    nearest_resonant_detuning: float


def amplitude_transmission(
    spec: CavitySpec,
    polarization: Polarization,
    omega,
    *,
    dispersion: float = 0.0,
    dispersion_center: float = 0.0,
):
    """Lossless Fabry-Perot amplitude transmission t(w).

    |t|^2 is the Airy function, unity on resonance. With a nonzero
    ``dispersion`` (s^2) the single-pass phase gains a quadratic term about
    ``dispersion_center``, shifting resonance positions quadratically with
    distance from that center.
    """
    r = spec.reflectivity(polarization)
    omega = np.asarray(omega, dtype=float)
    phi = np.pi * (omega - spec.resonance_offset) / spec.fsr
    if dispersion != 0.0:
        d = omega - dispersion_center
        phi = phi + dispersion * d * d
    return airy(r, cis(phi))[()]


def airy(r: float, e: np.ndarray) -> np.ndarray:
    """Airy amplitude transmission (1 - r) e / (1 - r e^2) of the phasor
    e = exp(i phi), in real arithmetic:
    (1 - r) [(1 - r) cos phi + i (1 + r) sin phi] / ((1 - r)^2 + 4 r sin^2 phi).
    """
    g = (1.0 - r) / ((1.0 - r) ** 2 + 4.0 * r * e.imag**2)
    t = np.empty_like(e)
    np.multiply(e.real, (1.0 - r) * g, out=t.real)
    np.multiply(e.imag, (1.0 + r) * g, out=t.imag)
    return t


def cavity_factor(
    spec: CavitySpec,
    omega_plus,
    omega_minus,
    *,
    dispersion: float = 0.0,
    dispersion_center: float = 0.0,
):
    """Biphoton cavity factor T_s((w+ + w-)/2) * T_i((w+ - w-)/2).

    ``dispersion`` and ``dispersion_center`` chirp both transmissions as in
    ``amplitude_transmission``.
    """
    wp = np.asarray(omega_plus, dtype=float)
    wm = np.asarray(omega_minus, dtype=float)
    chirp = dict(dispersion=dispersion, dispersion_center=dispersion_center)
    ts = amplitude_transmission(spec, Polarization.SIGNAL, (wp + wm) / 2.0, **chirp)
    ti = amplitude_transmission(spec, Polarization.IDLER, (wp - wm) / 2.0, **chirp)
    return ts * ti


def linewidth(spec: CavitySpec, polarization: Polarization) -> float:
    """Airy intensity FWHM: 2*fsr*arcsin((1-R)/(2*sqrt(R)))/pi."""
    r = spec.reflectivity(polarization)
    if r == 0.0:
        raise ValidationError("no linewidth defined for R = 0")
    arg = (1.0 - r) / (2.0 * math.sqrt(r))
    if arg >= 1.0:
        # Airy minimum above half maximum: no half-max crossing exists.
        raise ValidationError(
            f"no linewidth defined for R = {r}: fringe contrast too low"
        )
    return 2.0 * spec.fsr * math.asin(arg) / math.pi


def classify_pump(spec: CavitySpec, omega_p: float) -> PumpClass:
    """Classify a pump frequency against even/odd multiples of the FSR.

    The doubly-resonant grid sits at 2*resonance_offset + k*fsr; even k is
    resonant, odd k anti-resonant, each within ``PUMP_TOLERANCE_FSR`` * fsr
    (fsr/8), and anything else intermediate. Returns the signed detuning to
    the nearest even multiple.
    """
    tolerance = spec.fsr * PUMP_TOLERANCE_FSR
    e = omega_p - 2.0 * spec.resonance_offset
    # signed residue in [-fsr, fsr) relative to the even grid (period 2*fsr)
    r = math.remainder(e, 2.0 * spec.fsr)
    if abs(r) < tolerance:
        label = PumpClassLabel.RESONANT
    elif abs(abs(r) - spec.fsr) < tolerance:
        label = PumpClassLabel.ANTI_RESONANT
    else:
        label = PumpClassLabel.INTERMEDIATE
    return PumpClass(label=label, nearest_resonant_detuning=r)
