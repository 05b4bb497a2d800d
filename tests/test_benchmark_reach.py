"""The benchmark under ``qbench/`` reaches into qcomb by name: ``tracing``
patches each ``TARGETS`` attribute, and ``workloads`` calls the rest. A
change that deletes or renames one of them fails here, not only as a
failed benchmark run. The modules are imported read-only: no bytecode is
written into ``qbench/``, and a job's files go to a temporary directory.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

QBENCH = Path(__file__).resolve().parents[1] / "qbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"qbench_{name}", QBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_every_traced_name_exists(tracing):
    missing = [name for owner, attr, name, *_ in tracing.TARGETS if not hasattr(owner, attr)]
    assert missing == []


@pytest.mark.parametrize("name", ["fit", "sweep"])
def test_one_job_passes_its_checks(workloads, tmp_path, monkeypatch, name):
    monkeypatch.setattr(workloads, "SCRATCH", tmp_path)
    job = workloads.WORKLOADS[name](1)
    inputs = job.inputs(0)
    try:
        assert job.check(inputs, job.run(inputs)) == []
    finally:
        job.cleanup(inputs)
