"""Spectral grids, JSA assembly, delay/filter operators, symmetry metrics.

1D states live on a difference-frequency axis at a fixed sum frequency
(monochromatic pump); 2D states live on a rectangular (sum, difference)
grid. Swapping signal and idler is the reflection w- -> -w- at fixed w+,
which is an exact index map on grids symmetric about w- = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import cavity as _cavity
from . import spectral as _spectral
from .cavity import CavitySpec, Polarization
from .errors import (
    DegenerateStateError,
    GridSymmetryError,
    OverFilteredError,
    ResolutionError,
    ValidationError,
)
from .spectral import FilterSpec, PhaseMatchSpec, PumpMode, PumpSpec

#: Exchange-overlap magnitude above which a state is labeled (anti)symmetric.
SYMMETRY_THRESHOLD = 0.9


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform grid of angular-frequency detunings.

    Always carries a difference-frequency (w-) axis; a 2D grid adds a
    sum-frequency (w+) axis. Odd point counts keep a sample exactly on the
    axis center so reflection about it is an exact index map.
    """

    span_minus: float
    points_minus: int
    center_minus: float = 0.0
    span_plus: float | None = None
    points_plus: int | None = None
    center_plus: float | None = None

    def __post_init__(self):
        if self.span_minus <= 0 or self.points_minus < 2:
            raise ValidationError("grid needs span_minus > 0 and points_minus >= 2")
        two_d = [self.span_plus, self.points_plus, self.center_plus]
        if any(v is not None for v in two_d) and any(v is None for v in two_d):
            raise ValidationError("2D grid needs span_plus, points_plus and center_plus")
        if self.span_plus is not None and (self.span_plus <= 0 or self.points_plus < 2):
            raise ValidationError("grid needs span_plus > 0 and points_plus >= 2")

    @property
    def is_two_dimensional(self) -> bool:
        return self.span_plus is not None

    @property
    def step_minus(self) -> float:
        return self.span_minus / (self.points_minus - 1)

    @property
    def step_plus(self) -> float:
        if not self.is_two_dimensional:
            raise ValidationError("1D grid has no sum-frequency axis")
        return self.span_plus / (self.points_plus - 1)

    def omega_minus(self) -> np.ndarray:
        return self.center_minus + np.linspace(
            -self.span_minus / 2.0, self.span_minus / 2.0, self.points_minus
        )

    def omega_plus(self) -> np.ndarray:
        if not self.is_two_dimensional:
            raise ValidationError("1D grid has no sum-frequency axis")
        return self.center_plus + np.linspace(
            -self.span_plus / 2.0, self.span_plus / 2.0, self.points_plus
        )

    def is_symmetric(self) -> bool:
        """True when the w- axis is symmetric about 0 with a center sample."""
        return self.center_minus == 0.0 and self.points_minus % 2 == 1


@dataclass(frozen=True)
class Jsa:
    """Complex joint spectral amplitude over a grid, with factor provenance.

    1D amplitudes are indexed by w-; 2D amplitudes by (w+, w-).
    """

    grid: SpectralGrid
    amplitudes: np.ndarray
    pump_frequency: float
    applied_factors: tuple[str, ...] = field(default_factory=tuple)

    @property
    def norm_squared(self) -> float:
        m = float(np.sum(np.abs(self.amplitudes) ** 2))
        if self.grid.is_two_dimensional:
            return m * self.grid.step_plus * self.grid.step_minus
        return m * self.grid.step_minus


@dataclass(frozen=True)
class SymmetryReport:
    exchange_overlap: complex
    label: str  # "symmetric" | "anti_symmetric" | "mixed"
    pump_class: _cavity.PumpClass


def _check_resolution(grid: SpectralGrid, cav: CavitySpec):
    """Reject grids too coarse to resolve the narrowest cavity tooth."""
    widths = []
    for pol in Polarization:
        if cav.reflectivity(pol) == 0.0:
            continue
        try:
            widths.append(_cavity.linewidth(cav, pol))
        except ValidationError:
            # Low-contrast Airy with no FWHM: nothing sharp to resolve.
            continue
    if not widths:
        return
    limit = min(widths) / 8.0
    steps = [grid.step_minus / 2.0]  # w- step maps to photon-frequency step /2
    if grid.is_two_dimensional:
        steps.append(grid.step_plus / 2.0)
    if max(steps) > limit:
        raise ResolutionError(
            f"grid step {max(steps):.3e} rad/s exceeds cavity linewidth/8 "
            f"({limit:.3e} rad/s); refine the grid"
        )


def assemble_jsa_mono(
    pump: PumpSpec, pm: PhaseMatchSpec, cav: CavitySpec, grid: SpectralGrid
) -> Jsa:
    """Assemble the 1D state of a monochromatic pump.

    C(w-) = C_PM(w_p, w-) * T_s((w_p + w-)/2) * T_i((w_p - w-)/2).

    The medium's quadratic dispersion chirps the cavity resonance comb
    (the cavity is the dispersive medium itself), so the phase-match
    dispersion coefficient also enters the transmission phases.
    """
    if pump.mode is not PumpMode.MONOCHROMATIC:
        raise ValidationError("assemble_jsa_mono requires a monochromatic pump")
    if grid.is_two_dimensional:
        raise ValidationError("assemble_jsa_mono requires a 1D grid")
    _check_resolution(grid, cav)
    wm = grid.omega_minus()
    wp = pump.center_frequency
    c = _spectral.eval_phase_match(pm, wp, wm)
    c = c * _cavity.cavity_factor(
        cav, wp, wm, dispersion=pm.dispersion, dispersion_center=wp / 2.0
    )
    jsa = Jsa(
        grid=grid,
        amplitudes=c,
        pump_frequency=wp,
        applied_factors=("phase_match", "cavity"),
    )
    if jsa.norm_squared <= 0.0:
        raise DegenerateStateError("assembled state has zero norm")
    return jsa


def assemble_jsa_broadband(
    pump: PumpSpec, pm: PhaseMatchSpec, cav: CavitySpec, grid: SpectralGrid
) -> Jsa:
    """Assemble the 2D state of a Gaussian broadband pump.

    C(w+, w-) = C_p(w+) * C_PM(w+, w-) * C_cav(w+, w-).
    """
    if pump.mode is not PumpMode.GAUSSIAN_BROADBAND:
        raise ValidationError("assemble_jsa_broadband requires a broadband pump")
    if not grid.is_two_dimensional:
        raise ValidationError("assemble_jsa_broadband requires a 2D grid")
    _check_resolution(grid, cav)
    wp_axis = grid.omega_plus()[:, None]
    wm_axis = grid.omega_minus()[None, :]
    c = _spectral.eval_pump(pump, wp_axis) * _spectral.eval_phase_match(
        pm, wp_axis, wm_axis
    )
    c = c * _cavity.cavity_factor(
        cav,
        wp_axis,
        wm_axis,
        dispersion=pm.dispersion,
        dispersion_center=pump.center_frequency / 2.0,
    )
    jsa = Jsa(
        grid=grid,
        amplitudes=c,
        pump_frequency=pump.center_frequency,
        applied_factors=("pump", "phase_match", "cavity"),
    )
    if jsa.norm_squared <= 0.0:
        raise DegenerateStateError("assembled state has zero norm")
    return jsa


def apply_delay(jsa: Jsa, tau: float) -> Jsa:
    """Relative-delay operator: multiply by exp(i*tau*w-/2)."""
    phase = np.exp(1j * tau * jsa.grid.omega_minus() / 2.0)
    if jsa.grid.is_two_dimensional:
        phase = phase[None, :]
    return replace(
        jsa,
        amplitudes=jsa.amplitudes * phase,
        applied_factors=jsa.applied_factors + (f"delay:{tau!r}",),
    )


def apply_filter(jsa: Jsa, filt: FilterSpec) -> Jsa:
    """Apply a spectral filter to both photons: F(w_s) * F(w_i)."""
    wm = jsa.grid.omega_minus()
    if jsa.grid.is_two_dimensional:
        wp = jsa.grid.omega_plus()[:, None]
        wm = wm[None, :]
    else:
        wp = jsa.pump_frequency
    f = _spectral.eval_filter(filt, (wp + wm) / 2.0) * _spectral.eval_filter(
        filt, (wp - wm) / 2.0
    )
    out = replace(
        jsa,
        amplitudes=jsa.amplitudes * f,
        applied_factors=jsa.applied_factors + (f"filter:{filt.shape.value}",),
    )
    if out.norm_squared < 1e-12 * jsa.norm_squared:
        raise OverFilteredError("filter removed essentially all of the state")
    return out


def exchange_overlap(jsa: Jsa) -> complex:
    """Normalized overlap between the state and its particle-swapped mirror.

    +1 for exchange-symmetric states, -1 for anti-symmetric ones.
    """
    if jsa.grid.is_two_dimensional:
        raise ValidationError("exchange_overlap is defined for 1D states")
    if not jsa.grid.is_symmetric():
        raise GridSymmetryError(
            "exchange_overlap requires a grid symmetric about w- = 0"
        )
    c = jsa.amplitudes
    n2 = jsa.norm_squared
    if n2 <= 0.0:
        raise DegenerateStateError("zero-norm state")
    return complex(np.sum(c * np.conj(c[::-1])) * jsa.grid.step_minus / n2)


def jsi(jsa: Jsa) -> np.ndarray:
    """Joint spectral intensity: pointwise squared modulus."""
    return np.abs(jsa.amplitudes) ** 2


def count_comb_peaks(jsi_1d: np.ndarray, threshold_fraction: float) -> int:
    """Count strict local maxima above threshold_fraction * max(JSI)."""
    if not 0.0 < threshold_fraction < 1.0:
        raise ValidationError("threshold_fraction must lie in (0, 1)")
    y = np.asarray(jsi_1d, dtype=float)
    if y.size < 3:
        raise ValidationError("need at least 3 samples to count peaks")
    top = float(y.max())
    if top <= 0.0 or float(y.min()) == top:
        raise ValidationError("flat or empty intensity has no peaks")
    inner = y[1:-1]
    mask = (inner > y[:-2]) & (inner > y[2:]) & (inner > threshold_fraction * top)
    return int(np.count_nonzero(mask))


def symmetry_report(
    jsa: Jsa,
    cav: CavitySpec,
    *,
    threshold: float = SYMMETRY_THRESHOLD,
    tolerance: float | None = None,
) -> SymmetryReport:
    """Classify a 1D state by exchange overlap and pump tuning."""
    s = exchange_overlap(jsa)
    if s.real >= threshold:
        label = "symmetric"
    elif s.real <= -threshold:
        label = "anti_symmetric"
    else:
        label = "mixed"
    tol = tolerance if tolerance is not None else cav.fsr / 8.0
    pc = _cavity.classify_pump(cav, jsa.pump_frequency, tol)
    return SymmetryReport(exchange_overlap=s, label=label, pump_class=pc)
