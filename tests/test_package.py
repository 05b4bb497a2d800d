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
    # Importing scipy.signal nearly doubles the time ``import qcomb.cli``
    # takes; the delay transform needs no scipy at all.
    src = str(Path(qcomb.__file__).resolve().parents[1])

    def loaded(module):
        code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        return subprocess.run(
            [sys.executable, "-c", code],
            cwd=src, capture_output=True, text=True, check=True, timeout=120,
        ).stdout.strip()

    assert "'scipy.signal'" not in loaded("qcomb.cli")
    assert loaded("qcomb.hom") == "[]"
