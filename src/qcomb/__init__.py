"""Simulator and estimation toolkit for cavity-filtered biphoton combs.

Builds joint spectral amplitudes from pump, phase-matching and
Fabry-Perot cavity factors, controls the exchange symmetry via pump
tuning and relative delay, predicts Hong-Ou-Mandel coincidence traces,
and fits the model to trace data.

Each name is imported from its module, e.g. ``from qcomb import biphoton,
hom``; importing the package itself loads no submodule.
"""

__version__ = "0.1.0"
