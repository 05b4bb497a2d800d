"""Tests of the benchmark itself. Run from the root of the checkout:

    python3 qbench/selftest.py

They take one to two minutes. The file name keeps them out of the project's
pytest collection, which they would slow down.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import qcomb.estimation  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import Run, run_job  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def traced_counts(seed):
    """Integer metrics and spans of one traced sweep job."""
    wl = workloads.Sweep(seed)
    tracer = tracing.Tracer()
    inputs = wl.inputs(0)
    try:
        _, problems, _ = run_job(wl, inputs, tracer)
    finally:
        wl.cleanup(inputs)
    counts = {k: v for k, v in tracing.layer_metrics(tracer.spans).items() if isinstance(v, int)}
    return counts, tracer.spans, problems


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(HERE.name) / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


class TracedRun(unittest.TestCase):
    def test_counts_repeat_for_a_seed_and_wrappers_are_removed(self):
        originals = {
            (owner, attr): getattr(owner, attr) for owner, attr, *_ in tracing.TARGETS
        }
        first, spans, problems = traced_counts(seed=5)
        second, _, _ = traced_counts(seed=5)
        self.assertEqual(problems, [])
        self.assertEqual(first, second)
        # 41 detunings in qcomb sweep, one state each.
        from_cli = [
            s for s in spans
            if s.name == "biphoton.assemble_jsa_mono"
            and s.parent is not None
            and spans[s.parent].name == "cli.main"
        ]
        self.assertEqual(len(from_cli), 41)
        self.assertEqual(first["cli.main.calls"], 1)
        self.assertGreater(first["calibration.objective_evals"], 2)
        self.assertEqual(first["czt.plan_builds"], first["czt.applies"])
        for (owner, attr), fn in originals.items():
            self.assertIs(getattr(owner, attr), fn, f"{owner}.{attr} still wrapped")


class PerturbedSweep(workloads.Sweep):
    """Adds 1e-6 to every point of the measured-axis trace."""

    def run(self, inputs):
        out = super().run(inputs)
        trace = out["trace"]
        out["trace"] = dataclasses.replace(trace, p_coincidence=trace.p_coincidence + 1e-6)
        return out


class OffBandwidthFit(workloads.Fit):
    """A converged fit whose bandwidth is 10 % off the truth."""

    def run(self, inputs):
        bandwidth = 1.1 * inputs["truth"]["bandwidth"]
        result = qcomb.estimation.FitResult(
            parameters={"bandwidth": bandwidth}, clipped={}, residual=0.0, iterations=1, converged=True
        )
        return {"result": result}


class StuckFit(workloads.Fit):
    """A converged fit with the true bandwidth whose residual exceeds that
    of the true parameters."""

    def run(self, inputs):
        result = qcomb.estimation.FitResult(
            parameters={"bandwidth": inputs["truth"]["bandwidth"]},
            clipped={},
            residual=1.01 * inputs["true_residual"],
            iterations=1,
            converged=True,
        )
        return {"result": result}


class FailedJobs(unittest.TestCase):
    def one_job(self, wl):
        """(attempted, failed) after one job."""
        run = Run(wl, wl.inputs(0))
        run.job()
        return run.attempted, run.failed

    def test_unperturbed_jobs_pass(self):
        self.assertEqual(self.one_job(workloads.Sweep(seed=3)), (1, 0))
        self.assertEqual(self.one_job(workloads.Fit(seed=3)), (1, 0))

    def test_perturbed_trace_counts_as_failed(self):
        self.assertEqual(self.one_job(PerturbedSweep(seed=3)), (1, 1))

    def test_bad_fits_count_as_failed(self):
        self.assertEqual(self.one_job(OffBandwidthFit(seed=3)), (1, 1))
        self.assertEqual(self.one_job(StuckFit(seed=3)), (1, 1))

    def test_exception_counts_as_failed(self):
        def broken(*args, **kwargs):
            raise qcomb.estimation.NonConvergenceError("broken on purpose")

        original = qcomb.estimation.fit_hom_trace
        qcomb.estimation.fit_hom_trace = broken
        try:
            counts = self.one_job(workloads.Fit(seed=3))
        finally:
            qcomb.estimation.fit_hom_trace = original
        self.assertEqual(counts, (1, 1))


class Command(unittest.TestCase):
    def last_json(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_metric_names_match_benchmark_json(self):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            out = self.last_json(
                run_bench("--workload", "fit", "--seed", "0", "--seconds", "1", "--trace", trace)
            )
            self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(out["correct"])
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            printed = {name: m["unit"] for name, m in out["metrics"].items()}
            self.assertEqual(printed, expected)

    def test_refuses_to_run_without_the_program(self):
        workloads.SCRATCH.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=ROOT / workloads.SCRATCH))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("--workload", "fit", "--seed", "0", "--seconds", "1", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("metrics", proc.stdout)


if __name__ == "__main__":
    unittest.main()
