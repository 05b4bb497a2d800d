import math

import pytest

from qcomb import biphoton, calibration
from qcomb.errors import ValidationError
from conftest import FSR

#: Dispersion range over which the fast test state's flipped dip washes out
#: (residual depth from 0.69 at zero down to 0.23).
BRACKET = (0.0, 1e-21)


def calibrate(resonant_pump, fast_phase_match, fast_cavity, fast_grid, target):
    return calibration.calibrate_dispersion(
        resonant_pump,
        fast_phase_match,
        fast_cavity,
        fast_grid,
        math.pi / FSR,
        target,
        bracket=BRACKET,
    )


def test_each_dispersion_evaluated_once(
    monkeypatch, resonant_pump, fast_phase_match, fast_cavity, fast_grid
):
    seen = []
    assemble = biphoton.assemble_jsa_mono

    def recording(pump, pm, cav, grid):
        seen.append(pm.dispersion)
        return assemble(pump, pm, cav, grid)

    monkeypatch.setattr(biphoton, "assemble_jsa_mono", recording)
    kappa2 = calibrate(resonant_pump, fast_phase_match, fast_cavity, fast_grid, 0.4)
    assert BRACKET[0] < kappa2 < BRACKET[1]
    assert seen[:2] == list(BRACKET)
    assert len(set(seen)) == len(seen)


def test_unbracketed_target_rejected(
    resonant_pump, fast_phase_match, fast_cavity, fast_grid
):
    with pytest.raises(ValidationError, match="not bracketed"):
        calibrate(resonant_pump, fast_phase_match, fast_cavity, fast_grid, 0.9)
