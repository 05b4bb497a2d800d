"""Spectral grids, JSA assembly, delay/filter operators, symmetry metrics.

1D states live on a difference-frequency axis at a fixed sum frequency
(monochromatic pump); 2D states live on a rectangular (sum, difference)
grid (broadband pump). Swapping signal and idler is the reflection
w- -> -w- at fixed w+, an exact index map on grids symmetric about w- = 0.
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
from .spectral import FilterSpec, PhaseMatchSpec, PumpSpec

#: Exchange-overlap magnitude above which a state is labeled (anti)symmetric.
SYMMETRY_THRESHOLD = 0.9
#: Most samples a grid or a ``--points`` axis may hold, 256 times the README
#: chip grid: one complex array of 2^24 samples is 268 MB, and a state is several.
MAX_POINTS = 2**24 + 1


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform grid of angular-frequency detunings.

    Always carries a difference-frequency (w-) axis centred on w- = 0; a 2D
    grid adds a sum-frequency (w+) axis centred on the pump frequency
    (``axes``). A 1D grid has an odd point count, so the exchange
    w- -> -w- is an exact index map on it (``GridSymmetryError``
    otherwise); a 2D grid takes any point count.
    """

    span_minus: float
    points_minus: int
    span_plus: float | None = None
    points_plus: int | None = None

    def __post_init__(self):
        require_finite(self)
        for name in ("points_minus", "points_plus"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, numbers.Integral):
                raise ValidationError(f"SpectralGrid.{name} must be an integer, got {value!r}")
        if self.span_minus <= 0 or self.points_minus < 2:
            raise ValidationError("grid needs span_minus > 0 and points_minus >= 2")
        if (self.span_plus is None) != (self.points_plus is None):
            raise ValidationError("2D grid needs span_plus and points_plus")
        if self.span_plus is not None and (self.span_plus <= 0 or self.points_plus < 2):
            raise ValidationError("grid needs span_plus > 0 and points_plus >= 2")
        if int(self.points_minus) * int(self.points_plus or 1) > MAX_POINTS:
            raise ValidationError(f"grid holds more than MAX_POINTS = {MAX_POINTS} samples")
        if not self.is_two_dimensional and self.points_minus % 2 == 0:
            raise GridSymmetryError(
                "the exchange of a 1D state requires a grid symmetric about w- = 0 with an odd point"
                f" count, got {self.points_minus!r} points"
            )

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
        return np.linspace(-self.span_minus / 2.0, self.span_minus / 2.0, self.points_minus)

    def check_pump(self, pump: PumpSpec) -> None:
        """Refuse a pump the grid does not pair with: a monochromatic pump
        (linewidth 0) takes a 1D grid, a broadband one (linewidth > 0) a 2D grid."""
        if (pump.linewidth > 0.0) != self.is_two_dimensional:
            shape = "2D" if self.is_two_dimensional else "1D"
            raise ValidationError(
                f"a pump of linewidth {pump.linewidth!r} rad/s does not pair with a {shape} grid: a"
                " monochromatic pump (linewidth 0) takes a 1D grid, a broadband one (linewidth > 0) a 2D grid"
            )

    def axes(self, pump_frequency: float):
        """(w+, w-) shaped like the amplitudes: w+ is the pump frequency in
        1D, and a column centred on it in 2D."""
        if self.is_two_dimensional:
            half = self.span_plus / 2.0
            wp = pump_frequency + np.linspace(-half, half, self.points_plus)
            return wp[:, None], self.omega_minus()[None, :]
        return pump_frequency, self.omega_minus()


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


def assemble_jsa(
    pump: PumpSpec, pm: PhaseMatchSpec, cav: CavitySpec, grid: SpectralGrid
) -> Jsa:
    """Assemble the state of the pump on the grid it pairs with.

    1D (monochromatic pump at w_p):
    C(w-) = C_PM(w-) * T_s((w_p + w-)/2) * T_i((w_p - w-)/2).
    2D (Gaussian broadband pump):
    C(w+, w-) = C_p(w+) * C_PM(w-) * T_s((w+ + w-)/2) * T_i((w+ - w-)/2).

    The medium's quadratic dispersion chirps the cavity resonance comb
    (the cavity is the dispersive medium itself), so the phase-match
    dispersion coefficient also enters the transmission phases.
    """
    grid.check_pump(pump)
    _check_resolution(grid, cav)
    wp0 = pump.center_frequency
    wp, wm = grid.axes(wp0)
    factors = ("phase_match", "cavity")
    c = _spectral.eval_phase_match(pm, wm)
    if grid.is_two_dimensional:
        factors = ("pump",) + factors
        c = _spectral.eval_pump(pump, wp) * c
    c = c * _cavity.cavity_factor(
        cav, wp, wm, dispersion=pm.dispersion, dispersion_center=wp0 / 2.0
    )
    jsa = Jsa(grid=grid, amplitudes=c, pump_frequency=wp0, applied_factors=factors)
    if not 0.0 < jsa.norm_squared < math.inf:
        raise DegenerateStateError("assembled state has zero or non-finite norm")
    return jsa


def assemble_jsa_mono(
    pump: PumpSpec, pm: PhaseMatchSpec, cav: CavitySpec, grid: SpectralGrid
) -> Jsa:
    """``assemble_jsa`` on a 1D grid only: the state of a monochromatic pump."""
    if grid.is_two_dimensional:
        raise ValidationError("assemble_jsa_mono requires a 1D grid")
    return assemble_jsa(pump, pm, cav, grid)


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
    """Half kernel h of a 1D state on a grid symmetric about w- = 0.

    K(w-) = C(w-) C*(-w-) dw- / |C|^2 is Hermitian, so h holds it on w- >= 0
    only, with h[0] = K(0) / 2. ``kernel_overlap(h)`` is the exchange
    overlap; ``hom.delay_transform`` maps h to the HOM trace.
    """
    if jsa.grid.is_two_dimensional:
        raise ValidationError("the exchange kernel is defined for 1D states")
    n2 = jsa.norm_squared
    if not 0.0 < n2 < math.inf:
        raise DegenerateStateError("zero or non-finite norm")
    c, centre = jsa.amplitudes, jsa.grid.points_minus // 2
    h = c[centre:] * np.conj(c[centre::-1]) * (jsa.grid.step_minus / n2)
    h[0] /= 2.0
    return h


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
    by exp(i pi d / fsr). Each call evaluates the half kernel h on w = k dw
    >= 0 and the norm from the same half, both through a squared envelope
    whose w = 0 sample is halved; the ramp and the chirp are
    ``spectral.uniform_cis`` tables. Each factor
    keeps its last value, keyed on the one parameter it depends on: the
    squared envelope on the bandwidth, the ramp on the walk-off and the
    chirped E on the dispersion. So a sweep over the detuning computes each
    once, and a root find over the dispersion recomputes only the chirp.
    It refuses what ``assemble_jsa_mono`` and ``exchange_kernel`` refuse,
    with the same errors: the grid's dimension, its pairing with the pump
    and its resolution here, the spec fields, the detuning and the norm at
    each call. Every 1D grid is symmetric about w- = 0 by construction.
    """
    if grid.is_two_dimensional:
        raise ValidationError("exchange_kernel_model requires a 1D grid")
    grid.check_pump(pump)
    _check_resolution(grid, cav)
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

    def envelope(spec):  # h[0] = K(0) / 2, and w = 0 counts once in the norm
        weight = _spectral.phase_match_envelope(spec, w) ** 2
        weight[0] /= 2.0
        return weight

    def round_trips(dispersion):
        chirp = _spectral.uniform_cis(dispersion * dw * dw / 2.0, n, power=2)
        return line_a * chirp, line_b * chirp

    def kernel(bandwidth, walkoff, dispersion, detuning=0.0):
        spec = replace(pm, bandwidth=bandwidth, walkoff=walkoff, dispersion=dispersion)
        weight = factor("envelope", spec.bandwidth, lambda: envelope(spec))
        ramp = factor("ramp", spec.walkoff, lambda: _spectral.uniform_cis(spec.walkoff * dw, n))
        e_a, e_b = factor("chirp", spec.dispersion, lambda: round_trips(spec.dispersion))
        if not math.isfinite(detuning):
            raise ValidationError(f"pump detuning must be finite, got {detuning!r}")
        shift = _spectral.cis(np.pi * detuning / cav.fsr)
        cross, both = _cavity_exchange(r_s, r_i, e_a, e_b, shift)
        n2 = float(np.sum(weight * both)) * dw
        if not 0.0 < n2 < math.inf:
            raise DegenerateStateError("zero or non-finite norm")
        return weight * (dw / n2) * ramp * cross

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


def kernel_overlap(h: np.ndarray) -> float:
    """Sum of the Hermitian kernel of the half kernel h: 2 Re sum h, real."""
    return 2.0 * float(np.sum(h.real))


def exchange_overlap(jsa: Jsa) -> float:
    """Normalized overlap between the state and its particle-swapped mirror.

    +1 for exchange-symmetric states, -1 for anti-symmetric ones.
    """
    return kernel_overlap(exchange_kernel(jsa))


def jsi(jsa: Jsa) -> np.ndarray:
    """Joint spectral intensity: pointwise squared modulus."""
    return np.abs(jsa.amplitudes) ** 2

