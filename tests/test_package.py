import subprocess
import sys
from pathlib import Path

import qcomb


def test_import_loads_no_submodule():
    # Each public name has one import path, its module; the package is empty.
    src = str(Path(qcomb.__file__).resolve().parents[1])
    code = "import sys, qcomb; print(sorted(m for m in sys.modules if m.startswith('qcomb')))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=src, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert out.strip() == "['qcomb']"


def test_cli_import_leaves_scipy_signal_out():
    # The delay transform runs on scipy.fft; importing scipy.signal as well
    # nearly doubles the time ``import qcomb.cli`` takes.
    src = str(Path(qcomb.__file__).resolve().parents[1])
    code = "import sys, qcomb.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=src, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    assert out.strip() == "False"
