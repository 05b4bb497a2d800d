"""One workload process: set up, run jobs, print one JSON result line.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``. After set-up (import
qcomb, parse the workload's base configuration, draw the first job's
inputs) it prints ``ready`` so the parent can time set-up from process
start. With ``--setup-only`` it stops there.

Untraced (``--trace 0``), it runs jobs for ``--seconds`` (at least one)
and reports job times and peak memory. Traced
(``--trace 1``), it first runs a fixed number of jobs under the tracer, so
that every count repeats exactly for a seed, then untraced jobs for the
rest of the time; the difference of the two mean job times is the
tracing overhead. Spans are written to ``.qbench/`` when the run ends.

The reference kernel of ``speed`` runs before the first job and after
every job, so each job's wall time is also reported at reference speed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback

import workloads
from speed import at_reference_speed, reference_kernel
from tracing import Tracer, layer_metrics

#: Jobs run under the tracer, per workload: under half of a 50 s run.
TRACED_JOBS = {"sweep": 5, "fit": 4}


def run_job(wl, inputs, tracer=None):
    """Run and check one job; returns (seconds, problems, outputs).

    An exception from the program or a failed check is a problem; it never
    ends the run.
    """
    out = None
    with tracer.installed() if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            out = wl.run(inputs)
        except Exception as exc:  # counted as a failed job, not raised
            traceback.print_exc(file=sys.stderr)
            problems = [f"{type(exc).__name__}: {exc}"]
        seconds = time.perf_counter() - start
    if out is not None:
        try:
            problems = wl.check(inputs, out)
        except Exception as exc:  # an unreadable output is a failed check
            traceback.print_exc(file=sys.stderr)
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    return seconds, problems, out


class Run:
    """Job loop and tallies of one workload process."""

    def __init__(self, wl, first_inputs):
        self.wl = wl
        self.next_inputs = first_inputs
        self.j = 0
        self.times = []  # untraced wall times
        self.scaled = []  # the same at reference speed
        self.traced_scaled = []
        self.kernel_s = []  # reference kernel before the first job and after each
        self.attempted = 0
        self.failed = 0
        self.bw_errors = []
        self.bytes_written = 0

    def job(self, tracer=None):
        inputs = self.next_inputs if self.next_inputs is not None else self.wl.inputs(self.j)
        self.next_inputs = None
        if not self.kernel_s:
            reference_kernel()  # the first call also builds the FFT plan
            self.kernel_s.append(reference_kernel())
        seconds, problems, out = run_job(self.wl, inputs, tracer)
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"job {self.j} failed: {'; '.join(problems)}", file=sys.stderr)
        if out is not None and hasattr(self.wl, "bandwidth_error"):
            self.bw_errors.append(self.wl.bandwidth_error(inputs, out))
        if tracer is not None:
            self.bytes_written += self.wl.output_bytes(inputs)
        self.wl.cleanup(inputs)
        self.kernel_s.append(reference_kernel())
        scaled = at_reference_speed(seconds, statistics.fmean(self.kernel_s[-2:]))
        if tracer is not None:
            self.traced_scaled.append(scaled)
        else:
            self.times.append(seconds)
            self.scaled.append(scaled)
        self.j += 1

    def until(self, deadline):
        """Run jobs while the next one, if it takes as long as the last,
        ends by the deadline; at least one."""
        while True:
            start = time.perf_counter()
            self.job()
            now = time.perf_counter()
            if now + (now - start) > deadline:
                return


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cls = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        wl = cls(args.seed)
    first = wl.inputs(0)
    print("ready", flush=True)
    if args.setup_only:
        wl.cleanup(first)
        return 0

    start = time.perf_counter()
    run = Run(wl, first)
    result = {}
    if tracer is not None:
        for _ in range(TRACED_JOBS[args.workload]):
            run.job(tracer)
        traced_errors = run.bw_errors[:]
        run.until(start + args.seconds)
        layers = layer_metrics(tracer.spans)
        layers.update(
            {
                "trace.jobs": len(run.traced_scaled),
                "trace.overhead_s": statistics.fmean(run.traced_scaled)
                - statistics.fmean(run.scaled),
                "cli.output_bytes": run.bytes_written,
                "estimation.fit_bw_rel_err": statistics.fmean(traced_errors)
                if traced_errors
                else 0.0,
            }
        )
        result["per_layer"] = layers
        workloads.SCRATCH.mkdir(exist_ok=True)
        spans_path = workloads.SCRATCH / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps([s.as_list() for s in tracer.spans]))
    else:
        run.until(start + args.seconds)
    result.update(
        attempted=run.attempted,
        failed=run.failed,
        job_s=run.times,
        job_scaled_s=run.scaled,
        kernel_s=run.kernel_s,
        fit_bw_rel_err=run.bw_errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
