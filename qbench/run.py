"""qcomb benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 qbench/run.py --workload <sweep|fit> --seed <n> \
        --seconds <s> --trace <0|1>

Run it from the root of a source checkout; qcomb is imported from
``src/``. It starts one workload process at a time and prints a summary,
then, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics with tracing off:

- ``setup_s``: fresh process to first job (import qcomb, parse the
  workload's configuration, draw the first job's inputs); the median of
  ``SETUP_SAMPLES`` set-up-only processes, started one after another
  before the process that runs the jobs;
- ``job_s_mean``: mean wall time of one job, the inverse of the run's
  throughput; the number of jobs, the median and the fastest job are
  printed beside it;
- ``peak_rss_mb``: peak resident memory of the workload process.

Both times are reported at reference speed (``speed.at_reference_speed``),
so that drift in the speed of a shared machine does not read as a change
of the program: each job's and each set-up process's wall time is scaled
by the mean of the reference kernel's times just before and just after
it. The wall times as measured are printed beside them.

``--trace 1`` reports the per-layer metrics of ``tracing.layer_metrics``
and the tracing overhead. Why each workload exists, and which layer metric
should move which end-to-end metric on which workload, is recorded in
``qbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import at_reference_speed, reference_kernel

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "fit")
SETUP_SAMPLES = 5
#: A run must end within 180 s; the job loop takes no job that would end
#: well after ``--seconds``, and no job takes more than about ten seconds.
WORKER_TIMEOUT_S = 170.0


def worker_env():
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One workload process on one thread: nothing else competes for cores.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args, deadline, setup_only):
    """Start a workload process; return it and its set-up time in seconds."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env())
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        finish(proc, deadline)
        raise RuntimeError(f"workload process did not finish set-up (exit {proc.returncode})")
    return proc, setup


def finish(proc, deadline):
    """Wait for a workload process; kill it if it overruns. Returns stdout."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("workload process overran its time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return out


def measure(args):
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    setups, scaled = [], []
    if not args.trace:
        reference_kernel()  # the first call also builds the FFT plan
        kernel = [reference_kernel()]
        for _ in range(SETUP_SAMPLES):
            proc, setup = start_worker(args, deadline, setup_only=True)
            finish(proc, deadline)
            kernel.append(reference_kernel())
            setups.append(setup)
            scaled.append(at_reference_speed(setup, statistics.fmean(kernel[-2:])))
    proc, _ = start_worker(args, deadline, setup_only=False)
    result = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    result.update(setup_s=setups, setup_scaled_s=scaled)
    return result


def report(args, result):
    if args.trace:
        layers, units = result["per_layer"], layer_units()
        if set(layers) != set(units):
            raise RuntimeError(f"per-layer metrics differ from BENCHMARK.json: {set(layers) ^ set(units)}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(result["setup_scaled_s"]), "unit": "s"},
            "job_s_mean": {"value": statistics.fmean(result["job_scaled_s"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    times, kernel = result["job_s"], result["kernel_s"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    if result["setup_s"]:
        print("  set-up wall times (s): " + ", ".join(f"{t:.4f}" for t in result["setup_s"]))
    print(f"  jobs attempted {result['attempted']}, failed {result['failed']}")
    print("  untraced job wall times (s): " + ", ".join(f"{t:.4f}" for t in times))
    print(
        f"  {len(times)} untraced jobs, fastest {min(times):.6g} s, median {statistics.median(times):.6g} s,"
        f" mean {statistics.fmean(times):.6g} s (wall)"
    )
    print(f"  reference kernel median {statistics.median(kernel):.6g} s over {len(kernel)} runs")
    if result["fit_bw_rel_err"]:
        errs = result["fit_bw_rel_err"]
        print(f"  fit_bw_rel_err (mean over {len(errs)} fits): {statistics.fmean(errs):.5f}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )


def layer_units():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "qcomb" / "__init__.py").is_file():
        print("qbench: run from the root of a qcomb checkout (no src/qcomb here)", file=sys.stderr)
        return 2
    try:
        report(args, measure(args))
    except (RuntimeError, ValueError) as exc:
        print(f"qbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
