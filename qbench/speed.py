"""Machine speed, measured beside every timed job.

The benchmark runs on shared machines whose speed drifts by tens of
percent within minutes, more than the bound a later commit is held to.
``reference_kernel`` is fixed numpy work of the program's own kind (complex
exponentials, an Airy-like division and an FFT pair on a 65 537-point
grid); it takes about ``REFERENCE_S`` seconds on the machine the baseline
was recorded on. ``at_reference_speed`` scales a measured wall time by
``REFERENCE_S`` over the kernel's time measured next to it, so a run made
during a slow spell reads about as a fast one does.
The kernel does not use qcomb, so no change to the program moves it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.fft

#: About the median time of the reference kernel over the recorded baseline
#: runs (qbench/baseline.json); a scale, not a limit.
REFERENCE_S = 0.115

_GRID = np.linspace(-1.0, 1.0, 65537)
_FFT_LENGTH = 2**17
_REPEATS = 8


def reference_kernel() -> float:
    """Run the fixed reference work once; returns its wall time in seconds."""
    start = time.perf_counter()
    for k in range(_REPEATS):
        phase = np.exp(1j * (k + 1.0) * _GRID)
        state = phase / (1.0 - 0.3 * phase) * np.sinc(_GRID)
        scipy.fft.ifft(scipy.fft.fft(state, _FFT_LENGTH) * 0.5)
    return time.perf_counter() - start


def at_reference_speed(seconds: float, kernel_s: float) -> float:
    """Wall time scaled to the speed at which the reference kernel takes
    REFERENCE_S, given the kernel's time measured next to it."""
    return seconds * REFERENCE_S / kernel_s
