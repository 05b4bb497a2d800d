"""Command-line entry point: jsi / hom / sweep / fit.

One JSON configuration document holds the physics, the spectral grid and
the fit seed; flags only pick the command, the paths, and the length of
the delay (hom) or detuning (sweep) axis the command builds itself.
Exported CSVs open with a '#' provenance comment (tool version and the
SHA-256 of the configuration file) so outputs are traceable and runs of
one configuration are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, biphoton, estimation, hom
from .cavity import classify_pump
from .config import RunConfig, parse_config
from .errors import DataFormatError, QcombError, ValidationError

#: Half-span of the default delay axis, in units of 1/bandwidth.
_DELAY_HALF_SPAN_FACTOR = 60.0


def _fmt(x) -> str:
    return repr(float(x))


class _Run:
    """One invocation: parsed config, provenance, output directory.

    Every refusal of a command happens here, before anything is written;
    the output directory is created with the first file.
    """

    def __init__(self, args):
        path = Path(args.config)
        raw = path.read_bytes()
        self.config: RunConfig = parse_config(raw.decode("utf-8"))
        self.sha = hashlib.sha256(raw).hexdigest()
        self.points = args.points
        self.data = args.data
        command = args.command
        if self.points is not None:
            if command in ("jsi", "fit"):
                raise ValidationError(f"{command} takes no --points")
            if not 2 <= self.points <= biphoton.MAX_POINTS:
                raise ValidationError(f"--points must be at least 2 and at most {biphoton.MAX_POINTS}")
            if command == "sweep" and self.points < 3:
                # Two detunings, 0 and 2 FSR, leave no sample near one FSR.
                raise ValidationError("sweep needs --points of at least 3")
        if command in ("sweep", "fit") and self.config.filter is not None:
            raise ValidationError(f"{command} does not apply config.filter; remove the section")
        if command != "jsi" and self.config.grid.is_two_dimensional:
            raise ValidationError(f"{command} is defined for 1D grids; only jsi takes a 2D grid")
        if command == "sweep" and self.config.delay != 0.0:
            raise ValidationError("sweep applies its own flip delay, not config.delay_s; set it to 0")
        if command != "fit" and self.data is not None:
            raise ValidationError("--data is read only by fit")
        if command == "fit" and self.data is None:
            raise DataFormatError("fit requires --data <csv path>")
        self.out = Path(args.out)

    def _write(self, name, text):
        self.out.mkdir(parents=True, exist_ok=True)
        (self.out / name).write_text(text)

    def write_csv(self, name, header, rows):
        lines = [f"# qcomb {__version__} config_sha256={self.sha}", header]
        lines.extend(",".join(_fmt(v) if not isinstance(v, str) else v for v in row) for row in rows)
        self._write(name, "\n".join(lines) + "\n")

    def write_json(self, name, payload):
        payload = dict(payload)
        payload["provenance"] = {"version": __version__, "config_sha256": self.sha}
        self._write(name, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _assemble(config: RunConfig):
    jsa = biphoton.assemble_jsa(config.pump, config.phase_match, config.cavity, config.grid)
    if config.delay != 0.0:
        jsa = biphoton.apply_delay(jsa, config.delay)
    if config.filter is not None:
        jsa = biphoton.apply_filter(jsa, config.filter)
    return jsa


def _delay_axis(config: RunConfig, points):
    half = _DELAY_HALF_SPAN_FACTOR / config.phase_match.bandwidth
    return np.linspace(-half, half, 401 if points is None else points)


def _symmetry_payload(overlap, pump_frequency, cavity):
    """Exchange overlap, its label and the pump class of a 1D state."""
    t = biphoton.SYMMETRY_THRESHOLD
    label = "symmetric" if overlap >= t else "anti_symmetric" if overlap <= -t else "mixed"
    pump_class = classify_pump(cavity, pump_frequency)
    return {
        "symmetry_label": label,
        "exchange_overlap_re": overlap,
        "exchange_overlap_im": 0.0,  # the overlap of a Hermitian kernel is real
        "pump_class": {
            "label": pump_class.label.value,
            "nearest_resonant_detuning_rad_per_s": pump_class.nearest_resonant_detuning,
        },
    }


def _cmd_jsi(run: _Run) -> int:
    config = run.config
    jsa = _assemble(config)
    intensity = biphoton.jsi(jsa)
    meta = {"norm_squared": jsa.norm_squared, "applied_factors": list(jsa.applied_factors)}
    wp, wm = config.grid.axes(jsa.pump_frequency)
    if config.grid.is_two_dimensional:
        rows = [[""] + [_fmt(w) for w in wm.ravel()]]
        rows += [[_fmt(w)] + [_fmt(v) for v in row] for w, row in zip(wp.ravel(), intensity)]
        run.write_csv("jsi.csv", "omega_plus_rad_per_s\\omega_minus_rad_per_s", rows)
    else:
        overlap = biphoton.exchange_overlap(jsa)
        meta.update(_symmetry_payload(overlap, jsa.pump_frequency, config.cavity))
        run.write_csv(
            "jsi.csv",
            "omega_minus_rad_per_s,jsi",
            [(wm[i], intensity[i]) for i in range(wm.size)],
        )
    run.write_json("jsi_meta.json", meta)
    return 0


def _unless_unresolved(observable, trace):
    """The observable of the trace, or None (JSON null) if the trace cannot resolve it."""
    try:
        return observable(trace)
    except QcombError:
        return None


def _cmd_hom(run: _Run) -> int:
    config = run.config
    jsa = _assemble(config)
    delays = _delay_axis(config, run.points)
    h = biphoton.exchange_kernel(jsa)
    trace = hom.kernel_trace(h, hom.delay_transform(jsa.grid, delays))
    report = {
        "visibility": _unless_unresolved(hom.visibility, trace),
        "fwhm_s": _unless_unresolved(hom.feature_width, trace),
        "extremum_kind": trace.extremum_kind,
        "baseline": trace.baseline,
        **_symmetry_payload(biphoton.kernel_overlap(h), jsa.pump_frequency, config.cavity),
    }
    rows = [
        (delays[i], trace.p_coincidence[i], trace.p_coincidence[i] / 0.5)
        for i in range(delays.size)
    ]
    run.write_csv("hom_trace.csv", "tau_s,p_coincidence,p_normalized", rows)
    run.write_json("hom_report.json", report)
    return 0


def _cmd_sweep(run: _Run) -> int:
    config = run.config
    steps = 41 if run.points is None else run.points
    fsr = config.cavity.fsr
    flip = np.pi / fsr
    detunings = np.linspace(0.0, 2.0 * fsr, steps)
    pm = config.phase_match
    model = biphoton.exchange_kernel_model(config.pump, pm, config.cavity, config.grid)
    transform = hom.delay_transform(config.grid, _delay_axis(config, 201))
    rows = []
    for d in detunings:
        # The flip delay folds into the walk-off, as in the fit.
        h = model(pm.bandwidth, pm.walkoff + flip, pm.dispersion, detuning=d)
        trace = hom.kernel_trace(h, transform)
        rows.append((d, biphoton.kernel_overlap(h), hom.contrast(trace), trace.extremum_kind))
    near_one_fsr = int(np.argmin(np.abs(detunings - fsr)))
    if not (rows[0][1] > 0.0 and rows[near_one_fsr][1] < 0.0):
        raise ValidationError(
            "sweep did not produce the expected symmetry sign flip between "
            "detuning 0 (Re S > 0) and one free spectral range (Re S < 0); "
            "check that the base pump frequency is resonant"
        )
    run.write_csv(
        "sweep.csv", "detuning_rad_per_s,re_exchange_overlap,visibility,extremum_kind", rows
    )
    return 0


def read_data_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a two-column delay/counts CSV of finite delays and finite counts >= 0,
    reporting bad rows by line number."""
    taus, counts = [], []
    header_seen = False
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                cols = [c.strip() for c in line.split(",")]
                if cols != ["tau_s", "counts"]:
                    raise DataFormatError(
                        f"{path}:{lineno}: expected header 'tau_s,counts'"
                    )
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise DataFormatError(f"{path}:{lineno}: expected 2 columns")
            try:
                tau, count = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
            if not (np.isfinite(tau) and np.isfinite(count)):
                raise DataFormatError(f"{path}:{lineno}: tau_s and counts must be finite, got {line!r}")
            if count < 0.0:
                raise DataFormatError(f"{path}:{lineno}: counts must be non-negative, got {count!r}")
            taus.append(tau)
            counts.append(count)
    if not header_seen:
        raise DataFormatError(f"{path}: missing 'tau_s,counts' header")
    return np.asarray(taus), np.asarray(counts)


def default_fit_bounds(config: RunConfig, counts: np.ndarray) -> dict:
    """Physics-informed default bounds around the configured bandwidth."""
    bw = config.phase_match.bandwidth
    top = float(counts.max()) if counts.size else 1.0
    top = max(top, 1e-12)
    return {
        "bandwidth": (0.1 * bw, 10.0 * bw),
        "walkoff": (-1e-12, 1e-12),
        # Only dispersion magnitude is identifiable from centered traces.
        "dispersion": (0.0, 1e-24),
        "amplitude": (1e-12 * top, 4.0 * top),
        "baseline": (0.0, top),
    }


def _cmd_fit(run: _Run) -> int:
    taus, counts = read_data_csv(run.data)
    config = run.config
    problem = estimation.FitProblem(
        delays=taus,
        counts=counts,
        bounds=default_fit_bounds(config, counts),
        pump=config.pump,
        phase_match_template=config.phase_match,
        cavity=config.cavity,
        grid=config.grid,
        state_delay=config.delay,
    )
    result = estimation.fit_hom_trace(
        problem, estimation.FitSettings(seed=config.seed)
    )
    report = asdict(result)  # a half-width with no curvature is inf, written as null
    report["confidence"] = {n: v if np.isfinite(v) else None for n, v in result.confidence.items()}
    run.write_json("fit_report.json", report)
    return 0


_COMMANDS = {"jsi": _cmd_jsi, "hom": _cmd_hom, "sweep": _cmd_sweep, "fit": _cmd_fit}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcomb",
        description="Cavity-filtered biphoton comb simulator and fitter",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="JSON configuration path")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--points", type=int, help="number of delays (hom) or detunings (sweep)")
    parser.add_argument("--data", help="input trace CSV (fit only, required)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](_Run(args))
    except (OSError, DataFormatError) as exc:
        print(f"qcomb: i/o error: {exc}", file=sys.stderr)
        return 2
    except QcombError as exc:
        print(f"qcomb: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
