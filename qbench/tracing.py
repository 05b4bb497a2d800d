"""Spans and counts around the calls into each qcomb module, taken from outside.

``Tracer.installed()`` replaces each traced function at the name its
callers look it up under, records one span per call in memory (name,
parent span, start, end and a few attributes), and restores every original
when the block ends. The program itself is not edited: biphoton calls
``spectral.eval_phase_match`` through the module, ``cli`` binds
``parse_config`` by name, and ``scipy.signal.CZT`` is patched on the class,
which is what both ``hom`` (through ``scipy.signal.czt``) and
``estimation`` construct.

``layer_metrics`` turns the spans into the per-layer metrics. A span's self
time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np
import scipy.signal

from qcomb import biphoton, calibration, cavity, cli, config, estimation, hom, spectral


def _points(attrs, args, kwargs, result):
    grid = args[3] if len(args) > 3 else kwargs["grid"]
    attrs["points"] = grid.points_minus


def _delays(attrs, args, kwargs, result):
    attrs["delays"] = int(np.size(args[1] if len(args) > 1 else kwargs["delays"]))


def _optimizer(attrs, args, kwargs, result):
    attrs["nfev"] = int(result.nfev)
    attrs["success"] = bool(result.success)


#: (owner, attribute, span name, attribute recorder, opens a span).
#: ``estimation.minimize`` only counts: Nelder-Mead is the fit engine
#: itself, so its time stays in the estimation layer's self time.
TARGETS = (
    (spectral, "eval_phase_match", "spectral.eval_phase_match", None, True),
    (cavity, "amplitude_transmission", "cavity.amplitude_transmission", None, True),
    (biphoton, "assemble_jsa_mono", "biphoton.assemble_jsa_mono", _points, True),
    (biphoton, "apply_delay", "biphoton.apply_delay", None, True),
    (biphoton, "exchange_overlap", "biphoton.exchange_overlap", None, True),
    (hom, "coincidence_trace", "hom.coincidence_trace", _delays, True),
    (hom, "trace_for_delayed_state", "hom.trace_for_delayed_state", None, True),
    (hom, "visibility", "hom.visibility", None, True),
    (hom, "feature_width", "hom.feature_width", None, True),
    (estimation, "fit_hom_trace", "estimation.fit_hom_trace", None, True),
    (estimation, "minimize", "estimation.minimize", _optimizer, False),
    (calibration, "calibrate_dispersion", "calibration.calibrate_dispersion", None, True),
    (cli, "main", "cli.main", None, True),
    (cli, "parse_config", "config.parse_config", None, True),
    (config, "parse_config", "config.parse_config", None, True),
    (scipy.signal.CZT, "__init__", "czt.plan_build", None, True),
    (scipy.signal.CZT, "__call__", "czt.apply", None, True),
)

#: Spans that only count; their time stays in their caller's self time.
COUNT_ONLY = frozenset(name for *_, name, _, opens_span in TARGETS if not opens_span)


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs = {}

    @property
    def seconds(self):
        return self.end - self.start

    def as_list(self):
        return [self.name, self.parent, self.start, self.end, self.attrs]


class Tracer:
    """In-memory span recorder; spans refer to their parent by index."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name, note, opens_span):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            if opens_span:
                self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if opens_span:
                    self._stack.pop()
            if note is not None:
                note(span.attrs, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, note, opens_span in TARGETS:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, note, opens_span))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer counts and times from the spans of the traced jobs."""
    # Only spans that open a scope can be parents; counting-only spans
    # (the optimizer) have children of their own caller instead.
    child_seconds = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None and s.name not in COUNT_ONLY:
            child_seconds[s.parent] += s.seconds

    def named(name):
        return [i for i, s in enumerate(spans) if spans[i].name == name]

    def calls(name):
        return len(named(name))

    def total(name):
        return sum(spans[i].seconds for i in named(name))

    def self_time(name):
        return sum(spans[i].seconds - child_seconds[i] for i in named(name))

    def under(name, ancestor):
        """Spans called ``name`` with an enclosing ``ancestor`` span."""
        count = 0
        for i in named(name):
            p = spans[i].parent
            while p is not None and spans[p].name != ancestor:
                p = spans[p].parent
            count += p is not None
        return count

    def attr_sum(name, key):
        return sum(spans[i].attrs[key] for i in named(name))

    builds = calls("czt.plan_build")
    applies = calls("czt.apply")
    model_evals = under("biphoton.assemble_jsa_mono", "estimation.fit_hom_trace")
    fit_s = total("estimation.fit_hom_trace")
    return {
        "czt.plan_builds": builds,
        "czt.plan_build_s": total("czt.plan_build"),
        "czt.applies": applies,
        "czt.apply_s": total("czt.apply"),
        "czt.applies_per_build": applies / builds if builds else 0.0,
        "hom.coincidence_trace.calls": calls("hom.coincidence_trace"),
        "hom.coincidence_trace.s": total("hom.coincidence_trace"),
        "hom.coincidence_trace.self_s": self_time("hom.coincidence_trace"),
        "hom.delays_evaluated": attr_sum("hom.coincidence_trace", "delays"),
        "hom.visibility.s": total("hom.visibility"),
        "hom.feature_width.s": total("hom.feature_width"),
        "biphoton.assemble_jsa_mono.calls": calls("biphoton.assemble_jsa_mono"),
        "biphoton.assemble_jsa_mono.s": total("biphoton.assemble_jsa_mono"),
        "biphoton.assemble_jsa_mono.self_s": self_time("biphoton.assemble_jsa_mono"),
        "biphoton.points_assembled": attr_sum("biphoton.assemble_jsa_mono", "points"),
        "biphoton.apply_delay.s": total("biphoton.apply_delay"),
        "biphoton.exchange_overlap.s": total("biphoton.exchange_overlap"),
        "spectral.eval_phase_match.calls": calls("spectral.eval_phase_match"),
        "spectral.eval_phase_match.s": total("spectral.eval_phase_match"),
        "cavity.amplitude_transmission.calls": calls("cavity.amplitude_transmission"),
        "cavity.amplitude_transmission.s": total("cavity.amplitude_transmission"),
        "estimation.fit_hom_trace.s": fit_s,
        "estimation.fit_hom_trace.self_s": self_time("estimation.fit_hom_trace"),
        "estimation.model_evals": model_evals,
        "estimation.nfev": attr_sum("estimation.minimize", "nfev"),
        "estimation.starts": calls("estimation.minimize"),
        "estimation.starts_converged": attr_sum("estimation.minimize", "success"),
        "estimation.s_per_model_eval": fit_s / model_evals if model_evals else 0.0,
        "calibration.calibrate_dispersion.s": total("calibration.calibrate_dispersion"),
        "calibration.objective_evals": under(
            "hom.trace_for_delayed_state", "calibration.calibrate_dispersion"
        ),
        "cli.main.calls": calls("cli.main"),
        "cli.main.s": total("cli.main"),
        "cli.main.self_s": self_time("cli.main"),
        "config.parse_config.calls": calls("config.parse_config"),
        "config.parse_config.s": total("config.parse_config"),
    }
