"""Reference operating point of the on-chip comb source.

Numbers describe a doubly-resonant AlGaAs microcavity source: 19.2 GHz
free spectral range, signal/idler reflectivities 0.27/0.24, a sinc
phase-matching profile of 2*pi*21.82 THz intensity FWHM in the difference
frequency, and photons degenerate near 1530 nm. The ``chip_*`` factories
build that device: calibrated by ``calibration.paper_operating_point``, it
reproduces the paper's HOM dips (acceptance criteria 4-6), and its comb
has the peak count of criterion 7.
"""

from __future__ import annotations

import math

from .biphoton import SpectralGrid
from .cavity import CavitySpec
from .spectral import PhaseMatchSpec, PumpSpec

#: Cavity free spectral range (rad/s).
FSR = 2.0 * math.pi * 19.2e9

R_SIGNAL = 0.27
R_IDLER = 0.24

#: Intensity FWHM of the phase-matching profile in the difference frequency.
DIFFERENCE_BANDWIDTH = 2.0 * math.pi * 21.82e12

CENTER_WAVELENGTH = 1530e-9

#: Degenerate photons near 1530 nm: pump at twice that frequency, snapped
#: to the nearest even multiple of the FSR (doubly-resonant operation).
RESONANT_INDEX = round(2.0 * math.pi * 299792458.0 / CENTER_WAVELENGTH / FSR)
PUMP_RESONANT = 2.0 * RESONANT_INDEX * FSR
PUMP_ANTI_RESONANT = PUMP_RESONANT + FSR

#: Relative delay that flips the exchange symmetry of a comb state.
EXCHANGE_FLIP_DELAY = math.pi / FSR


def chip_cavity() -> CavitySpec:
    """The chip's cavity: FSR and the measured signal/idler reflectivities."""
    return CavitySpec(fsr=FSR, reflectivity_signal=R_SIGNAL, reflectivity_idler=R_IDLER)


def chip_pump(anti_resonant: bool = False) -> PumpSpec:
    """Monochromatic pump on an even (resonant) or odd (anti-resonant)
    multiple of the FSR: the paper's two symmetry settings (criterion 5)."""
    center = PUMP_ANTI_RESONANT if anti_resonant else PUMP_RESONANT
    return PumpSpec(center_frequency=center)


def chip_phase_match(walkoff: float = 0.0, dispersion: float = 0.0) -> PhaseMatchSpec:
    """The chip's sinc phase matching; ``paper_operating_point`` calibrates
    its dispersion."""
    return PhaseMatchSpec(
        degeneracy_frequency=PUMP_RESONANT / 2.0,
        bandwidth=DIFFERENCE_BANDWIDTH,
        walkoff=walkoff,
        dispersion=dispersion,
    )


def chip_grid() -> SpectralGrid:
    """Difference-frequency grid wide enough for the full comb envelope."""
    return SpectralGrid(span_minus=2.0 * DIFFERENCE_BANDWIDTH, points_minus=2**16 + 1)
