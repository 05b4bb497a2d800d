"""Self-calibration of the dispersion and baseline against dip observables.

The source's chromatic dispersion and uncorrelated-background level are
not known a priori. This module tunes them so the simulated interference
jointly matches a target dip visibility at zero relative delay and a
target residual visibility after the symmetry-flipping delay, using only
the model itself: a scalar root find for the dispersion, on the factored
exchange kernel of ``biphoton.exchange_kernel_model``, and a closed form
for the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import biphoton, hom, presets
from .biphoton import SpectralGrid
from .cavity import CavitySpec
from .errors import ValidationError
from .spectral import PhaseMatchSpec, PumpSpec

#: Default delay axis for calibration traces: +-800 fs around the dip, in 4 fs steps.
DELAY_SPAN = 8e-13
DELAY_POINTS = 401

#: Reference dip observables that ``paper_operating_point`` calibrates to:
#: the zero-delay visibility and the residual dip depth after the flip.
TARGET_VISIBILITY = 0.86
TARGET_RESIDUAL_DEPTH = 0.135


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
    monotonically over the bracket, so a scalar root find suffices. Each
    depth is read off the trace of ``biphoton.exchange_kernel_model``'s
    kernel, with the flip delay folded into the walk-off; no state is
    assembled.
    """
    model = biphoton.exchange_kernel_model(pump, phase_match, cavity, grid)
    transform = hom.delay_transform(grid, np.linspace(-DELAY_SPAN, DELAY_SPAN, DELAY_POINTS))
    # The flip delay folds into the walk-off. The model and the transform go
    # in through args, not a closure: brentq's NaN guard holds its objective
    # in a reference cycle, which would keep their arrays alive until the
    # cyclic collector runs.
    walkoff = phase_match.walkoff + flip_delay
    args = (model, transform, phase_match.bandwidth, walkoff, target_residual_depth)
    try:
        return float(brentq(_depth_error, *bracket, args=args, xtol=1e-31))
    except ValueError as exc:  # brentq: f(lo) and f(hi) have the same sign
        raise ValidationError(
            "target residual depth not bracketed; widen the dispersion bracket"
        ) from exc


def _depth_error(kappa2, model, transform, bandwidth, walkoff, target):
    """Residual dip depth of the flipped state at dispersion kappa2, less the target."""
    kernel = model(bandwidth, walkoff, kappa2)
    return hom.contrast(hom.kernel_trace(kernel, transform)) - target


@dataclass(frozen=True)
class OperatingPoint:
    """Calibrated chip parameters reproducing the paper's HOM observables:
    the reference dip, the delayed resonant dip and anti-resonant peak, and
    the filtered-state prediction (acceptance criteria 4-6)."""

    pump: PumpSpec
    phase_match: PhaseMatchSpec
    cavity: CavitySpec
    grid: SpectralGrid
    baseline: float
    flip_delay: float


def paper_operating_point() -> OperatingPoint:
    """Chip parameters with dispersion and baseline calibrated.

    Dispersion is tuned so the symmetry-flipped state keeps only a small
    residual dip; the additive background then sets the zero-delay
    visibility to the target. The result reproduces the paper's reference
    dip (V = 0.86, FWHM near 45 fs), its delayed-state dip and peak, and the
    25 nm filtered-state visibility (acceptance criteria 4-6).
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
        TARGET_RESIDUAL_DEPTH,
    )
    pm = presets.chip_phase_match(dispersion=kappa2)
    jsa = biphoton.assemble_jsa_mono(pump, pm, cavity, grid)
    delays = np.linspace(-DELAY_SPAN, DELAY_SPAN, DELAY_POINTS)
    trace = hom.coincidence_trace(jsa, delays)
    # The background b of the counts model P_c + b (unit amplitude, flat
    # level 1/2) that makes (N_tau - N_0)/N_tau equal the target.
    baseline = (0.5 - trace.extremum) / TARGET_VISIBILITY - 0.5
    if baseline < 0.0:
        raise ValidationError("dip floor already shallower than the target visibility")
    return OperatingPoint(
        pump=pump,
        phase_match=pm,
        cavity=cavity,
        grid=grid,
        baseline=baseline,
        flip_delay=presets.EXCHANGE_FLIP_DELAY,
    )
