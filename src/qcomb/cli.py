"""Command-line entry point: jsi / hom / sweep / fit.

All physics parameters come from a single JSON configuration document;
flags only pick the command, paths, resolution overrides, and the seed.
Exported CSVs open with a '#' provenance comment (tool version and the
SHA-256 of the configuration file) so outputs are traceable and runs with
identical config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, biphoton, estimation, hom
from .config import RunConfig, parse_config
from .errors import DataFormatError, QcombError, ValidationError
from .spectral import PumpMode, PumpSpec

#: Half-span of the default delay axis, in units of 1/bandwidth.
_DELAY_HALF_SPAN_FACTOR = 60.0


def _fmt(x) -> str:
    return repr(float(x))


class _Run:
    """One invocation: parsed config, provenance, output directory."""

    def __init__(self, args):
        path = Path(args.config)
        raw = path.read_bytes()
        self.config: RunConfig = parse_config(raw.decode("utf-8"))
        self.sha = hashlib.sha256(raw).hexdigest()
        self.seed = args.seed if args.seed is not None else self.config.seed
        self.points = args.points
        self.out = Path(args.out) if args.out else Path(self.config.output_dir)
        self.out.mkdir(parents=True, exist_ok=True)

    @property
    def provenance(self) -> str:
        return f"# qcomb {__version__} config_sha256={self.sha}"

    def write_csv(self, name, header, rows):
        lines = [self.provenance, header]
        lines.extend(",".join(_fmt(v) if not isinstance(v, str) else v for v in row) for row in rows)
        (self.out / name).write_text("\n".join(lines) + "\n")

    def write_json(self, name, payload):
        payload = dict(payload)
        payload["provenance"] = {"version": __version__, "config_sha256": self.sha}
        (self.out / name).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _assemble(config: RunConfig):
    if config.pump.mode is PumpMode.MONOCHROMATIC:
        jsa = biphoton.assemble_jsa_mono(
            config.pump, config.phase_match, config.cavity, config.grid
        )
    else:
        jsa = biphoton.assemble_jsa_broadband(
            config.pump, config.phase_match, config.cavity, config.grid
        )
    if config.delay != 0.0:
        jsa = biphoton.apply_delay(jsa, config.delay)
    if config.filter is not None:
        jsa = biphoton.apply_filter(jsa, config.filter)
    return jsa


def _delay_axis(config: RunConfig, points):
    half = _DELAY_HALF_SPAN_FACTOR / config.phase_match.bandwidth
    return np.linspace(-half, half, points or 401)


def _pump_class_payload(report):
    return {
        "label": report.pump_class.label.value,
        "nearest_resonant_detuning_rad_per_s": report.pump_class.nearest_resonant_detuning,
    }


def _cmd_jsi(run: _Run) -> int:
    config = run.config
    if run.points:
        grid = replace(config.grid, points_minus=run.points)
        if grid.is_two_dimensional:
            grid = replace(grid, points_plus=run.points)
        config = replace(config, grid=grid)
    jsa = _assemble(config)
    intensity = biphoton.jsi(jsa)
    meta = {"norm_squared": jsa.norm_squared, "applied_factors": list(jsa.applied_factors)}
    if config.grid.is_two_dimensional:
        wm = config.grid.omega_minus()
        wp = config.grid.omega_plus()
        rows = [[""] + [_fmt(w) for w in wm]]
        rows += [[_fmt(wp[i])] + [_fmt(v) for v in intensity[i]] for i in range(wp.size)]
        run.write_csv("jsi.csv", "omega_plus_rad_per_s\\omega_minus_rad_per_s", rows)
    else:
        wm = config.grid.omega_minus()
        run.write_csv(
            "jsi.csv",
            "omega_minus_rad_per_s,jsi",
            [(wm[i], intensity[i]) for i in range(wm.size)],
        )
        report = biphoton.symmetry_report(jsa, config.cavity)
        meta["pump_class"] = _pump_class_payload(report)
        meta["symmetry_label"] = report.label
        meta["exchange_overlap_re"] = report.exchange_overlap.real
        meta["exchange_overlap_im"] = report.exchange_overlap.imag
    run.write_json("jsi_meta.json", meta)
    return 0


def _cmd_hom(run: _Run) -> int:
    config = run.config
    jsa = _assemble(config)
    delays = _delay_axis(config, run.points)
    trace = hom.coincidence_trace(jsa, delays)
    rows = [
        (delays[i], trace.p_coincidence[i], trace.p_coincidence[i] / 0.5)
        for i in range(delays.size)
    ]
    run.write_csv("hom_trace.csv", "tau_s,p_coincidence,p_normalized", rows)
    try:
        width = hom.feature_width(trace)
    except QcombError:
        width = None
    report = biphoton.symmetry_report(jsa, config.cavity)
    run.write_json(
        "hom_report.json",
        {
            "visibility": hom.visibility(trace),
            "fwhm_s": width,
            "extremum_kind": trace.extremum_kind,
            "baseline": trace.baseline,
            "symmetry_label": report.label,
            "exchange_overlap_re": report.exchange_overlap.real,
            "exchange_overlap_im": report.exchange_overlap.imag,
            "pump_class": _pump_class_payload(report),
        },
    )
    return 0


def _cmd_sweep(run: _Run) -> int:
    config = run.config
    steps = run.points or 41
    if steps < 2:
        raise ValidationError("sweep needs at least 2 detuning steps")
    fsr = config.cavity.fsr
    flip = np.pi / fsr
    detunings = np.linspace(0.0, 2.0 * fsr, steps)
    delays = _delay_axis(config, 201)
    rows = []
    for d in detunings:
        pump = PumpSpec(
            center_frequency=config.pump.center_frequency + d,
            mode=config.pump.mode,
            linewidth=config.pump.linewidth,
        )
        jsa = biphoton.assemble_jsa_mono(pump, config.phase_match, config.cavity, config.grid)
        jsa = biphoton.apply_delay(jsa, flip)
        s = biphoton.exchange_overlap(jsa)
        trace = hom.coincidence_trace(jsa, delays)
        rows.append((d, s.real, hom.contrast(trace), trace.extremum_kind))
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
    """Read a two-column delay/counts CSV, reporting bad rows by line number."""
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
                taus.append(float(parts[0]))
                counts.append(float(parts[1]))
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
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


def _cmd_fit(run: _Run, data_path) -> int:
    if data_path is None:
        raise DataFormatError("fit requires --data <csv path>")
    taus, counts = read_data_csv(data_path)
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
        problem, estimation.FitSettings(seed=run.seed)
    )
    run.write_json(
        "fit_report.json",
        {
            "parameters": result.parameters,
            "clipped": result.clipped,
            "confidence": result.confidence,
            "residual": result.residual,
            "iterations": result.iterations,
            "converged": result.converged,
        },
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcomb",
        description="Cavity-filtered biphoton comb simulator and fitter",
    )
    parser.add_argument("command", choices=["jsi", "hom", "sweep", "fit"])
    parser.add_argument("--config", required=True, help="JSON configuration path")
    parser.add_argument("--out", help="output directory (default from config)")
    parser.add_argument("--points", type=int, help="resolution override")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--data", help="input trace CSV for the fit command")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = _Run(args)
        if args.command == "jsi":
            return _cmd_jsi(run)
        if args.command == "hom":
            return _cmd_hom(run)
        if args.command == "sweep":
            return _cmd_sweep(run)
        return _cmd_fit(run, args.data)
    except (OSError, DataFormatError) as exc:
        print(f"qcomb: i/o error: {exc}", file=sys.stderr)
        return 2
    except QcombError as exc:
        print(f"qcomb: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
