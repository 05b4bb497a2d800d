"""Spectral grids, JSA assembly, delay/filter operators, symmetry metrics.

1D states live on a difference-frequency axis at a fixed sum frequency
(monochromatic pump); 2D states live on a rectangular (sum, difference)
grid. Swapping signal and idler is the reflection w- -> -w- at fixed w+,
which is an exact index map on grids symmetric about w- = 0.
"""

from __future__ import annotations

import functools
import math
import numbers
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
    require_finite,
)
from .spectral import FilterSpec, PhaseMatchSpec, PumpMode, PumpSpec

#: Exchange-overlap magnitude above which a state is labeled (anti)symmetric.
SYMMETRY_THRESHOLD = 0.9
#: Pump-tuning tolerance of ``symmetry_report``, in free spectral ranges.
PUMP_TOLERANCE_FSR = 1 / 8


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
        require_finite(self)
        for name in ("points_minus", "points_plus"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, numbers.Integral):
                raise ValidationError(f"SpectralGrid.{name} must be an integer, got {value!r}")
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

    def axes(self, pump_frequency: float):
        """(w+, w-) shaped like the amplitudes; w+ is the pump frequency in 1D."""
        if self.is_two_dimensional:
            return self.omega_plus()[:, None], self.omega_minus()[None, :]
        return pump_frequency, self.omega_minus()

    def is_symmetric(self) -> bool:
        """True when the w- axis is symmetric about 0 with a center sample."""
        return self.center_minus == 0.0 and self.points_minus % 2 == 1


@dataclass(frozen=True)
class Jsa:
    """Complex joint spectral amplitude over a grid, with factor provenance.

    1D amplitudes are indexed by w-; 2D amplitudes by (w+, w-). Nothing
    writes to ``amplitudes`` in place, so the norm is computed once.
    """

    grid: SpectralGrid
    amplitudes: np.ndarray
    pump_frequency: float
    applied_factors: tuple[str, ...] = field(default_factory=tuple)

    @functools.cached_property
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
        try:
            widths.append(_cavity.linewidth(cav, pol))
        except ValidationError:
            # R = 0 or a low-contrast Airy with no FWHM: nothing sharp to resolve.
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
    return _assemble(pump, pm, cav, grid)


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
    return _assemble(pump, pm, cav, grid)


def _assemble(pump, pm, cav, grid) -> Jsa:
    """Pump (broadband only) x phase matching x cavity on the grid's axes."""
    _check_resolution(grid, cav)
    wp0 = pump.center_frequency
    wp, wm = grid.axes(wp0)
    if pump.mode is PumpMode.MONOCHROMATIC:
        factors = ("phase_match", "cavity")
        c = _spectral.eval_phase_match(pm, wp, wm)
    else:
        factors = ("pump", "phase_match", "cavity")
        c = _spectral.eval_pump(pump, wp) * _spectral.eval_phase_match(pm, wp, wm)
    c = c * _cavity.cavity_factor(
        cav, wp, wm, dispersion=pm.dispersion, dispersion_center=wp0 / 2.0
    )
    jsa = Jsa(grid=grid, amplitudes=c, pump_frequency=wp0, applied_factors=factors)
    if not 0.0 < jsa.norm_squared < math.inf:
        raise DegenerateStateError("assembled state has zero or non-finite norm")
    return jsa


def apply_delay(jsa: Jsa, tau: float) -> Jsa:
    """Relative-delay operator: multiply by exp(i*tau*w-/2)."""
    if not math.isfinite(tau):
        raise ValidationError(f"delay must be finite, got {tau!r}")
    return replace(
        jsa,
        amplitudes=jsa.amplitudes * _spectral.cis(tau * jsa.grid.omega_minus() / 2.0),
        applied_factors=jsa.applied_factors + (f"delay:{tau!r}",),
    )


def apply_filter(jsa: Jsa, filt: FilterSpec) -> Jsa:
    """Apply a spectral filter to both photons: F(w_s) * F(w_i)."""
    wp, wm = jsa.grid.axes(jsa.pump_frequency)
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


def exchange_kernel(jsa: Jsa) -> np.ndarray:
    """C(w-) C*(-w-) dw- / |C|^2 of a 1D state on a grid symmetric about w- = 0.

    Its sum is the exchange overlap; its delay transform gives the HOM trace.
    """
    if jsa.grid.is_two_dimensional:
        raise ValidationError("the exchange kernel is defined for 1D states")
    if not jsa.grid.is_symmetric():
        raise GridSymmetryError("the exchange kernel requires a grid symmetric about w- = 0")
    n2 = jsa.norm_squared
    if not 0.0 < n2 < math.inf:
        raise DegenerateStateError("zero or non-finite norm")
    c = jsa.amplitudes
    return c * np.conj(c[::-1]) * (jsa.grid.step_minus / n2)


def exchange_kernel_model(
    pump: PumpSpec, pm: PhaseMatchSpec, cav: CavitySpec, grid: SpectralGrid
):
    """Map (bandwidth, walkoff, dispersion, detuning) -> ``exchange_kernel`` of
    the state ``assemble_jsa_mono`` builds from ``pm`` with those three fields
    and a pump ``detuning`` rad/s above ``pump``, without assembling it.

    The phase-match phase cancels from C(w)C*(-w) but for exp(i walkoff w),
    and at a, b = (w_p +- w)/2 both Airy phases carry the same chirp
    dispersion w^2/4 on top of their linear parts, so with A the envelope
    K(w) = A(w)^2 exp(i walkoff w) T_s(a) T_i(b) conj(T_s(b) T_i(a)) dw / |C|^2.
    ``cavity.airy`` is t_r(e) = (1 - r) e / (1 - r E) with the round-trip
    phasor E = e^2, and |e| = 1. So with D+ = (1 - r_s E_a)(1 - r_i E_b),
    D- = (1 - r_s E_b)(1 - r_i E_a) and c = ((1 - r_s)(1 - r_i))^2,
    T_s(a) T_i(b) conj(T_s(b) T_i(a)) = c / (D+ conj(D-)) and
    |T_s(a) T_i(b)|^2 = c / |D+|^2, |T_s(b) T_i(a)|^2 = c / |D-|^2, with no
    Airy evaluation (``_cavity_exchange``). The chirp is centred on the
    pump's half-frequency, so detuning the pump by d only multiplies both E
    by exp(i pi d / fsr). Each call evaluates K on the w = k dw >= 0 half,
    the norm from the same half, and returns the full Hermitian kernel; the
    ramp and the chirp are ``spectral.uniform_cis`` tables. Each factor
    keeps its last value, keyed on the one parameter it depends on: the
    squared envelope on the bandwidth, the ramp on the walk-off and the
    chirped E on the dispersion. So a sweep over the detuning computes each
    once, and a root find over the dispersion recomputes only the chirp.
    The preconditions of ``assemble_jsa_mono`` and ``exchange_kernel`` are
    checked here once, the spec fields, the detuning and the norm at each
    call, with the same errors.
    """
    if pump.mode is not PumpMode.MONOCHROMATIC:
        raise ValidationError("exchange_kernel_model requires a monochromatic pump")
    if grid.is_two_dimensional:
        raise ValidationError("exchange_kernel_model requires a 1D grid")
    _check_resolution(grid, cav)
    if not grid.is_symmetric():
        raise GridSymmetryError("the exchange kernel requires a grid symmetric about w- = 0")
    w = grid.omega_minus()[grid.points_minus // 2 :]
    n, dw = w.size, grid.step_minus
    wp = pump.center_frequency
    # Round-trip phasors of the linear parts pi (x - offset) / fsr of the Airy phases at x = a, b.
    line_a = _spectral.cis(np.pi * ((wp + w) / 2.0 - cav.resonance_offset) / cav.fsr) ** 2
    line_b = _spectral.cis(np.pi * ((wp - w) / 2.0 - cav.resonance_offset) / cav.fsr) ** 2
    r_s, r_i = cav.reflectivity_signal, cav.reflectivity_idler
    last = {}  # factor -> (the parameter it was computed at, its value)

    def factor(name, parameter, evaluate):
        if name not in last or last[name][0] != parameter:
            last[name] = (parameter, evaluate())
        return last[name][1]

    def round_trips(dispersion):
        chirp = _spectral.uniform_cis(dispersion * dw * dw / 2.0, n, power=2)
        return line_a * chirp, line_b * chirp

    def kernel(bandwidth, walkoff, dispersion, detuning=0.0):
        spec = replace(pm, bandwidth=bandwidth, walkoff=walkoff, dispersion=dispersion)
        weight = factor("envelope", spec.bandwidth, lambda: _spectral.phase_match_envelope(spec, w) ** 2)
        ramp = factor("ramp", spec.walkoff, lambda: _spectral.uniform_cis(spec.walkoff * dw, n))
        e_a, e_b = factor("chirp", spec.dispersion, lambda: round_trips(spec.dispersion))
        if not math.isfinite(detuning):
            raise ValidationError(f"pump detuning must be finite, got {detuning!r}")
        shift = _spectral.cis(np.pi * detuning / cav.fsr)
        cross, both = _cavity_exchange(r_s, r_i, e_a, e_b, shift)
        both[0] /= 2.0  # w = 0 is one sample, where the two terms are equal
        n2 = float(np.sum(weight * both)) * dw
        if not 0.0 < n2 < math.inf:
            raise DegenerateStateError("zero or non-finite norm")
        half = weight * (dw / n2) * ramp * cross
        return np.concatenate((np.conj(half[:0:-1]), half))

    return kernel


def _cavity_exchange(r_s: float, r_i: float, round_a, round_b, shift):
    """(c / (D+ conj(D-)), c / |D+|^2 + c / |D-|^2) of the round-trip
    phasors E_a, E_b, each times the unit ``shift``, as derived in
    ``exchange_kernel_model``: the cavity products
    T_s(a) T_i(b) conj(T_s(b) T_i(a)) and |T_s(a) T_i(b)|^2 + |T_s(b) T_i(a)|^2."""
    d_plus = (1.0 - r_s * shift * round_a) * (1.0 - r_i * shift * round_b)
    d_minus = (1.0 - r_s * shift * round_b) * (1.0 - r_i * shift * round_a)
    p = d_plus.real**2 + d_plus.imag**2
    q = d_minus.real**2 + d_minus.imag**2
    g = ((1.0 - r_s) * (1.0 - r_i)) ** 2 / (p * q)
    return g * np.conj(d_plus) * d_minus, g * (p + q)


def exchange_overlap(jsa: Jsa) -> complex:
    """Normalized overlap between the state and its particle-swapped mirror.

    +1 for exchange-symmetric states, -1 for anti-symmetric ones.
    """
    return complex(np.sum(exchange_kernel(jsa)))


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


def symmetry_report(jsa: Jsa, cav: CavitySpec) -> SymmetryReport:
    """Classify a 1D state by exchange overlap and pump tuning."""
    s = exchange_overlap(jsa)
    if s.real >= SYMMETRY_THRESHOLD:
        label = "symmetric"
    elif s.real <= -SYMMETRY_THRESHOLD:
        label = "anti_symmetric"
    else:
        label = "mixed"
    pc = _cavity.classify_pump(cav, jsa.pump_frequency, cav.fsr * PUMP_TOLERANCE_FSR)
    return SymmetryReport(exchange_overlap=s, label=label, pump_class=pc)
