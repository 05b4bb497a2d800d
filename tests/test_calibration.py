import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from scipy.optimize import brentq

from qcomb import biphoton, calibration, hom
from qcomb.errors import ValidationError
from conftest import FSR
from test_biphoton import forbid_states, record_kernel_calls

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
    forbid_states(monkeypatch)
    models, calls = record_kernel_calls(monkeypatch)
    kappa2 = calibrate(resonant_pump, fast_phase_match, fast_cavity, fast_grid, 0.4)
    assert BRACKET[0] < kappa2 < BRACKET[1]
    assert len(models) == 1
    seen = [dispersion for _, _, dispersion, _ in calls]
    assert seen[:2] == list(BRACKET)
    assert len(set(seen)) == len(seen)
    flipped = (fast_phase_match.bandwidth, fast_phase_match.walkoff + math.pi / FSR)
    assert all(c[:2] == flipped and c[3] == 0.0 for c in calls)


def test_matches_root_of_assembled_state_objective(
    resonant_pump, fast_phase_match, fast_cavity, fast_grid
):
    pm = dataclasses.replace(fast_phase_match, walkoff=1e-13)
    flip = math.pi / FSR
    target = 0.4
    delays = np.linspace(-calibration.DELAY_SPAN, calibration.DELAY_SPAN, calibration.DELAY_POINTS)

    def depth_error(kappa2):
        spec = dataclasses.replace(pm, dispersion=kappa2)
        jsa = biphoton.assemble_jsa_mono(resonant_pump, spec, fast_cavity, fast_grid)
        return hom.contrast(hom.coincidence_trace(biphoton.apply_delay(jsa, flip), delays)) - target

    expected = brentq(depth_error, *BRACKET, xtol=1e-31)
    got = calibration.calibrate_dispersion(
        resonant_pump, pm, fast_cavity, fast_grid, flip, target, bracket=BRACKET
    )
    assert got == pytest.approx(expected, rel=1e-9, abs=0.0)


def test_no_kernel_model_outlives_calibration(
    monkeypatch, resonant_pump, fast_phase_match, fast_cavity, fast_grid
):
    models = []
    build = biphoton.exchange_kernel_model

    def watched(*args):
        kernel = build(*args)
        models.append(weakref.ref(kernel))
        return kernel

    monkeypatch.setattr(biphoton, "exchange_kernel_model", watched)
    transforms = []
    delay_transform = hom.delay_transform

    def watched_transform(*args):
        transform = delay_transform(*args)
        transforms.append(weakref.ref(transform))
        return transform

    monkeypatch.setattr(hom, "delay_transform", watched_transform)
    # Without the cyclic collector, only reference counting can free the
    # model and the transform: a reference cycle that holds them keeps them alive.
    gc.collect()
    gc.disable()
    try:
        calibrate(resonant_pump, fast_phase_match, fast_cavity, fast_grid, 0.4)
        assert len(models) == 1 and len(transforms) == 1
        assert models[0]() is None
        assert transforms[0]() is None
    finally:
        gc.enable()


def test_unbracketed_target_rejected(
    resonant_pump, fast_phase_match, fast_cavity, fast_grid
):
    with pytest.raises(ValidationError, match="not bracketed"):
        calibrate(resonant_pump, fast_phase_match, fast_cavity, fast_grid, 0.9)
