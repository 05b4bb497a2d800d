import math

import numpy as np
import pytest

from qcomb.biphoton import SpectralGrid
from qcomb.cavity import CavitySpec
from qcomb.spectral import PhaseMatchSpec, PumpSpec

#: A convenient small free spectral range for fast unit-test cavities.
FSR = 2.0 * math.pi * 10e9


def gaussian_trace(sigma: float, delays) -> np.ndarray:
    """Closed-form trace for C = exp(-w^2/(2 sigma^2)) with no cavity."""
    t = np.asarray(delays, dtype=float)
    return 0.5 * (1.0 - np.exp(-(sigma**2) * t * t / 4.0))


def gaussian_dip_fwhm(sigma: float) -> float:
    """FWHM of the Gaussian-state dip: 4 sqrt(ln 2)/sigma."""
    return 4.0 * math.sqrt(math.log(2.0)) / sigma


@pytest.fixture
def fast_cavity():
    return CavitySpec(fsr=FSR, reflectivity_signal=0.4, reflectivity_idler=0.4)


@pytest.fixture
def fast_grid():
    return SpectralGrid(span_minus=16 * FSR, points_minus=513)


@pytest.fixture
def resonant_pump():
    # Pump on an even multiple of the FSR: doubly-resonant photon pair.
    return PumpSpec(center_frequency=2 * 100 * FSR)


@pytest.fixture
def anti_resonant_pump():
    return PumpSpec(center_frequency=(2 * 100 + 1) * FSR)


@pytest.fixture
def fast_phase_match(resonant_pump):
    return PhaseMatchSpec(
        degeneracy_frequency=resonant_pump.center_frequency / 2, bandwidth=4 * FSR
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def pytest_terminal_summary(terminalreporter):
    """Print the acceptance-criterion scoreboard after the test run."""
    try:
        import test_acceptance
    except ImportError:
        return
    if test_acceptance.RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in test_acceptance.RESULTS:
            terminalreporter.write_line(line)
