"""Golden-value regression of the command-line outputs.

Each directory under ``data/golden`` holds a ``config.json`` and the files
``qcomb`` wrote for it when the values were recorded: the README chip
(``jsi``, ``hom``, ``sweep``), a delayed, walked-off, tophat-filtered 1D
state (``jsi``, ``hom``) and a filtered 2D broadband state (``jsi``).
Numbers are compared to a relative 1e-9, not byte for byte, because their
last bits move with FMA and temporary elision from machine to machine.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from qcomb import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

#: Output file -> the command that writes it.
COMMANDS = {
    "jsi_meta.json": "jsi",
    "jsi.csv": "jsi",
    "hom_report.json": "hom",
    "hom_trace.csv": "hom",
    "sweep.csv": "sweep",
}

#: Absolute tolerance of JSON values that are rounding residue near 0: the
#: pump's distance to a resonance (pump frequencies near 1e13 rad/s round at
#: ~1e-3 rad/s). The imaginary overlap is recorded as 0.0 and held to it exactly.
JSON_ATOL = {"nearest_resonant_detuning_rad_per_s": 1.0}

CASES = sorted(
    {(case.name, COMMANDS[f.name]) for case in GOLDEN.iterdir() for f in case.iterdir()
     if f.name in COMMANDS}
)


def assert_json_close(actual, expected, key=None):
    if isinstance(expected, dict):
        assert set(actual) == set(expected)
        for k in expected.keys() - {"provenance"}:
            assert_json_close(actual[k], expected[k], k)
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=1e-9, abs=JSON_ATOL.get(key, 0.0)), key
    else:
        assert actual == expected, key


def csv_cells(path):
    """Header and data rows of a qcomb CSV, provenance comment dropped."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return lines[0], [line.split(",") for line in lines[1:]]


def assert_cells_close(actual, expected):
    """Text cells equal; numbers per column to rtol 1e-9 plus an atol of
    1e-12 of the column's largest magnitude, for values that cancel to ~0."""
    assert [len(row) for row in actual] == [len(row) for row in expected]
    for col_a, col_e in zip(zip(*actual), zip(*expected)):
        text = [i for i, cell in enumerate(col_e) if cell in ("", "dip", "peak")]
        assert [col_a[i] for i in text] == [col_e[i] for i in text]
        a = np.array([float(c) for i, c in enumerate(col_a) if i not in text])
        e = np.array([float(c) for i, c in enumerate(col_e) if i not in text])
        np.testing.assert_allclose(a, e, rtol=1e-9, atol=1e-12 * np.abs(e).max(initial=0.0))


@pytest.mark.parametrize("case, command", CASES)
def test_outputs_match_recorded_values(tmp_path, case, command):
    directory = GOLDEN / case
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(directory / "config.json"), "--out", str(out)]) == 0
    for name in sorted(n for n, c in COMMANDS.items() if c == command):
        expected = directory / name
        if not expected.exists():
            continue
        if name.endswith(".json"):
            assert_json_close(json.loads((out / name).read_text()), json.loads(expected.read_text()))
            continue
        header, rows = csv_cells(out / name)
        header_e, rows_e = csv_cells(expected)
        assert header == header_e
        if rows_e[0][0] == "":  # 2D JSI: the first row is the w- axis
            assert_cells_close(rows[:1], rows_e[:1])
            rows, rows_e = rows[1:], rows_e[1:]
        assert_cells_close(rows, rows_e)


def test_exchange_overlap_is_written_real(tmp_path):
    """The overlap of a Hermitian kernel is real: its imaginary part is
    written as exactly 0.0, not as rounding residue."""
    out = tmp_path / "out"
    assert cli.main(["hom", "--config", str(GOLDEN / "chip" / "config.json"), "--out", str(out)]) == 0
    assert '"exchange_overlap_im": 0.0,' in (out / "hom_report.json").read_text()
