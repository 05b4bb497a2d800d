"""JSON run-configuration parsing.

A single JSON document carries all physics parameters. Frequencies are
accepted under unit-suffixed keys (``_thz``, ``_ghz``, ``_rad_per_s``);
``_thz``/``_ghz`` values are ordinary frequencies and are converted to
angular rad/s internally.

``SCHEMA`` and ``ROOT_FIELDS`` are the only list of configuration keys:
``parse_config`` walks them, and a key left out of a document takes the
default its spec dataclass declares.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .biphoton import SpectralGrid
from .cavity import CavitySpec
from .errors import ConfigError
from .spectral import (
    FilterShape,
    FilterSpec,
    PhaseMatchShape,
    PhaseMatchSpec,
    PumpSpec,
)

_FREQ_SUFFIXES = {
    "rad_per_s": 1.0,
    "ghz": 2.0 * math.pi * 1e9,
    "thz": 2.0 * math.pi * 1e12,
}

# Field kinds. A frequency key is a base name that takes a unit suffix; an
# enum.Enum subclass as the kind reads a string naming one of its values.
FREQUENCY, NUMBER, INTEGER = "frequency", "number", "integer"

#: Sections as (attribute, spec class, required, fields); each field is
#: (attribute, JSON key, kind, required).
SCHEMA = (
    ("pump", PumpSpec, True, (
        ("center_frequency", "center_frequency", FREQUENCY, True),
        ("linewidth", "linewidth", FREQUENCY, False),
    )),
    ("phase_match", PhaseMatchSpec, True, (
        ("shape", "shape", PhaseMatchShape, False),
        ("degeneracy_frequency", "degeneracy_frequency", FREQUENCY, True),
        ("bandwidth", "bandwidth", FREQUENCY, True),
        ("walkoff", "walkoff_s", NUMBER, False),
        ("dispersion", "dispersion_s2", NUMBER, False),
    )),
    ("cavity", CavitySpec, True, (
        ("fsr", "fsr", FREQUENCY, True),
        ("reflectivity_signal", "reflectivity_signal", NUMBER, True),
        ("reflectivity_idler", "reflectivity_idler", NUMBER, True),
        ("resonance_offset", "resonance_offset", FREQUENCY, False),
    )),
    ("grid", SpectralGrid, True, (
        ("span_minus", "span_minus", FREQUENCY, True),
        ("points_minus", "points_minus", INTEGER, True),
        ("span_plus", "span_plus", FREQUENCY, False),
        ("points_plus", "points_plus", INTEGER, False),
    )),
    ("filter", FilterSpec, False, (
        ("shape", "shape", FilterShape, False),
        ("center", "center", FREQUENCY, True),
        ("bandwidth", "bandwidth", FREQUENCY, True),
    )),
)

#: Top-level scalar fields of the document, as RunConfig fields.
ROOT_FIELDS = (
    ("delay", "delay_s", NUMBER, False),
    ("seed", "seed", INTEGER, False),
)


@dataclass(frozen=True)
class RunConfig:
    """Validated physics parameters, grid and fit seed of one invocation."""

    pump: PumpSpec
    phase_match: PhaseMatchSpec
    cavity: CavitySpec
    grid: SpectralGrid
    delay: float = 0.0
    filter: FilterSpec | None = None
    seed: int = 0

    def __post_init__(self):
        self.grid.check_pump(self.pump)


def _object(value, path, problems):
    if isinstance(value, dict):
        return dict(value)
    problems.append(f"{path}: expected an object")
    return {}


def _number(value, where, problems, scale=1.0):
    """The one reader of numeric values: finite floats, times ``scale``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        problems.append(f"{where}: expected a number")
        return None
    try:
        x = float(value) * scale
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf
    if not math.isfinite(x):
        problems.append(f"{where}: expected a finite number")
        return None
    return x


def _frequency(data, path, base, required, problems):
    hits = [s for s in _FREQ_SUFFIXES if f"{base}_{s}" in data]
    keys = [f"{base}_{s}" for s in hits]
    keys += [k for k in data if k.startswith(f"{base}_") and k not in keys]
    values = [data.pop(k) for k in keys]
    if hits and len(keys) > 1:
        problems.append(f"{path}.{base}: ambiguous units ({', '.join(keys)})")
    elif keys and not hits:
        allowed = ", ".join(_FREQ_SUFFIXES)
        problems.append(f"{path}.{keys[0]}: unsupported unit suffix (use {allowed})")
    elif hits:
        return _number(values[0], f"{path}.{keys[0]}", problems, _FREQ_SUFFIXES[hits[0]])
    elif required:
        problems.append(f"{path}.{base}_rad_per_s: missing")
    return None


def _field(data, path, key, kind, required, problems):
    """Pop one field from ``data``: its value, or None if absent or invalid."""
    if kind == FREQUENCY:
        return _frequency(data, path, key, required, problems)
    where = f"{path}.{key}"
    if key not in data:
        if required:
            problems.append(f"{where}: missing")
        return None
    value = data.pop(key)
    if kind == NUMBER:
        return _number(value, where, problems)
    expected, cls = (INTEGER, int) if kind == INTEGER else ("string", str)
    if isinstance(value, bool) or not isinstance(value, cls):
        problems.append(f"{where}: expected a {expected}")
        return None
    if kind == INTEGER:
        return value
    try:
        return kind(value)
    except ValueError:
        allowed = ", ".join(e.value for e in kind)
        problems.append(f"{where}: must be one of {allowed}")
        return None


def _fields(data, path, fields, problems):
    """Read every field of one section, then report the keys left over."""
    values = {}
    for attr, key, kind, required in fields:
        value = _field(data, path, key, kind, required, problems)
        if value is not None:
            values[attr] = value
    problems.extend(f"{path}.{key}: unknown key" for key in sorted(data))
    return values


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from exc
    problems: list[str] = []
    root = _object(doc, "config", problems)
    # Take every section before the root scalars, so a section that is not
    # an object is reported first.
    taken = []
    for name, cls, required, fields in SCHEMA:
        if name in root:
            section = _object(root.pop(name), f"config.{name}", problems)
            taken.append((name, cls, fields, section))
        elif required:
            problems.append(f"config.{name}: missing")
    top = _fields(root, "config", ROOT_FIELDS, problems)
    specs = [
        (name, cls, _fields(section, f"config.{name}", fields, problems))
        for name, cls, fields, section in taken
    ]
    if problems:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(problems))
    return RunConfig(**{name: cls(**values) for name, cls, values in specs}, **top)

