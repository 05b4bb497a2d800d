"""Self-calibration of the dispersion and baseline against dip observables.

The source's chromatic dispersion and uncorrelated-background level are
not known a priori. This module tunes them so the simulated interference
jointly matches a target dip visibility at zero relative delay and a
target residual visibility after the symmetry-flipping delay, using only
the model itself (a scalar root find per knob).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from . import biphoton, hom, presets
from .biphoton import SpectralGrid
from .cavity import CavitySpec
from .errors import ValidationError
from .spectral import PhaseMatchSpec, PumpSpec

#: Default delay axis for calibration traces: +-400 fs around the dip.
DELAY_SPAN = 8e-13
DELAY_POINTS = 401


def baseline_for_visibility(p_min: float, target_visibility: float) -> float:
    """Additive background making (N_tau - N_0)/N_tau equal the target.

    Counts model is P_c + b with unit amplitude and flat baseline 1/2.
    """
    if not 0.0 < target_visibility <= 1.0:
        raise ValidationError("target visibility must lie in (0, 1]")
    b = (0.5 - p_min) / target_visibility - 0.5
    if b < 0.0:
        raise ValidationError(
            "dip floor already shallower than the target visibility"
        )
    return b


def calibrate_dispersion(
    pump: PumpSpec,
    phase_match: PhaseMatchSpec,
    cavity: CavitySpec,
    grid: SpectralGrid,
    flip_delay: float,
    target_residual_depth: float,
    bracket: tuple[float, float] = (0.0, 6e-27),
) -> float:
    """Find the dispersion whose delayed-state dip depth hits the target.

    Without dispersion the symmetry-flipped comb retains a sizable residual
    dip; chirping the resonance comb washes it out. The depth decreases
    monotonically over the bracket, so a scalar root find suffices.
    """
    delays = np.linspace(-DELAY_SPAN, DELAY_SPAN, DELAY_POINTS)

    def residual_depth(kappa2):
        pm = PhaseMatchSpec(
            degeneracy_frequency=phase_match.degeneracy_frequency,
            bandwidth=phase_match.bandwidth,
            walkoff=phase_match.walkoff,
            dispersion=kappa2,
            shape=phase_match.shape,
        )
        jsa = biphoton.assemble_jsa_mono(pump, pm, cavity, grid)
        trace = hom.trace_for_delayed_state(jsa, flip_delay, delays)
        return hom.contrast(trace)

    def objective(kappa2):
        return residual_depth(kappa2) - target_residual_depth

    try:
        return float(brentq(objective, *bracket, xtol=1e-31))
    except ValueError as exc:  # brentq: f(lo) and f(hi) have the same sign
        raise ValidationError(
            "target residual depth not bracketed; widen the dispersion bracket"
        ) from exc


@dataclass(frozen=True)
class OperatingPoint:
    """Calibrated parameter set reproducing the reference dip observables."""

    pump: PumpSpec
    phase_match: PhaseMatchSpec
    cavity: CavitySpec
    grid: SpectralGrid
    baseline: float
    flip_delay: float


@lru_cache(maxsize=1)
def paper_operating_point(
    target_visibility: float = 0.86, target_residual_depth: float = 0.135
) -> OperatingPoint:
    """Chip parameters with dispersion and baseline calibrated.

    Dispersion is tuned so the symmetry-flipped state keeps only a small
    residual dip; the additive background then sets the zero-delay
    visibility to the target.
    """
    pump = presets.chip_pump()
    cavity = presets.chip_cavity()
    grid = presets.chip_grid()
    template = presets.chip_phase_match()
    kappa2 = calibrate_dispersion(
        pump,
        template,
        cavity,
        grid,
        presets.EXCHANGE_FLIP_DELAY,
        target_residual_depth,
    )
    pm = presets.chip_phase_match(dispersion=kappa2)
    jsa = biphoton.assemble_jsa_mono(pump, pm, cavity, grid)
    delays = np.linspace(-DELAY_SPAN, DELAY_SPAN, DELAY_POINTS)
    trace = hom.coincidence_trace(jsa, delays)
    baseline = baseline_for_visibility(trace.extremum, target_visibility)
    return OperatingPoint(
        pump=pump,
        phase_match=pm,
        cavity=cavity,
        grid=grid,
        baseline=baseline,
        flip_delay=presets.EXCHANGE_FLIP_DELAY,
    )
