import json
import math
from pathlib import Path

import numpy as np
import pytest

from qcomb import biphoton, cli, estimation, hom
from qcomb.config import ROOT_FIELDS, SCHEMA, RunConfig, parse_config
from qcomb.errors import ConfigError, DataFormatError, ValidationError
from conftest import FSR
from test_properties import emit_config

FSR_GHZ = FSR / (2 * math.pi * 1e9)
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def small_config_doc(**overrides):
    doc = {
        "pump": {"center_frequency_ghz": 2 * 100 * FSR_GHZ},
        "phase_match": {
            "degeneracy_frequency_ghz": 100 * FSR_GHZ,
            "bandwidth_ghz": 4 * FSR_GHZ,
        },
        "cavity": {
            "fsr_ghz": FSR_GHZ,
            "reflectivity_signal": 0.4,
            "reflectivity_idler": 0.4,
        },
        "grid": {"span_minus_ghz": 16 * FSR_GHZ, "points_minus": 513},
    }
    doc.update(overrides)
    return doc


class TestParseConfig:
    def test_ghz_converted_to_angular(self):
        doc = small_config_doc()
        doc["cavity"]["fsr_ghz"] = 19.2
        config = parse_config(json.dumps(doc))
        assert config.cavity.fsr == pytest.approx(2 * math.pi * 19.2e9)

    def test_thz_and_rad_per_s_agree(self):
        a = small_config_doc()
        a["phase_match"]["bandwidth_thz"] = a["phase_match"].pop("bandwidth_ghz") / 1e3
        b = small_config_doc()
        b["phase_match"]["bandwidth_rad_per_s"] = 4 * FSR
        del b["phase_match"]["bandwidth_ghz"]
        ca = parse_config(json.dumps(a))
        cb = parse_config(json.dumps(b))
        assert ca.phase_match.bandwidth == pytest.approx(cb.phase_match.bandwidth)

    def test_unit_ambiguity_rejected(self):
        doc = small_config_doc()
        doc["cavity"]["fsr_rad_per_s"] = FSR
        with pytest.raises(ConfigError, match="ambiguous units"):
            parse_config(json.dumps(doc))

    def test_unsupported_unit_alongside_valid_one_is_ambiguous(self):
        doc = small_config_doc()
        doc["cavity"]["fsr_mhz"] = 1e3 * FSR_GHZ
        with pytest.raises(ConfigError, match="ambiguous units"):
            parse_config(json.dumps(doc))

    def test_unknown_key_rejected_with_path(self):
        doc = small_config_doc()
        doc["cavity"]["finesse"] = 12.0
        with pytest.raises(ConfigError, match="config.cavity.finesse"):
            parse_config(json.dumps(doc))

    def test_empty_document_lists_required_keys(self):
        with pytest.raises(ConfigError) as info:
            parse_config("{}")
        message = str(info.value)
        for key in ("config.pump", "config.phase_match", "config.cavity", "config.grid"):
            assert key in message

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="malformed JSON"):
            parse_config("{not json")

    def test_optional_filter_and_delay(self):
        doc = small_config_doc(
            delay_s=1e-12,
            filter={
                "center_ghz": 100 * FSR_GHZ,
                "bandwidth_ghz": 8 * FSR_GHZ,
                "shape": "tophat",
            },
        )
        config = parse_config(json.dumps(doc))
        assert config.delay == 1e-12
        assert config.filter is not None
        assert config.filter.shape.value == "tophat"

    def test_round_trip(self):
        config = parse_config(json.dumps(small_config_doc(delay_s=2.5e-12, seed=9)))
        assert parse_config(emit_config(config)) == config

    @pytest.mark.parametrize(
        "mutate, problems",
        [
            (
                lambda d: d["cavity"].update(fsr_mhz=d["cavity"].pop("fsr_ghz")),
                ["config.cavity.fsr_mhz: unsupported unit suffix (use rad_per_s, ghz, thz)"],
            ),
            (
                lambda d: d["cavity"].update(fsr_ghz="10"),
                ["config.cavity.fsr_ghz: expected a number"],
            ),
            (
                lambda d: d["cavity"].update(reflectivity_signal=True),
                ["config.cavity.reflectivity_signal: expected a number"],
            ),
            (
                lambda d: d["grid"].update(points_minus=513.0),
                ["config.grid.points_minus: expected a integer"],
            ),
            (lambda d: d.update(seed="1"), ["config.seed: expected a integer"]),
            (lambda d: d["phase_match"].update(shape=3), ["config.phase_match.shape: expected a string"]),
            (
                lambda d: d["phase_match"].update(shape="box"),
                ["config.phase_match.shape: must be one of sinc, gaussian"],
            ),
            # A linewidth alone sets the pump; there is no mode key.
            (lambda d: d["pump"].update(mode="monochromatic"), ["config.pump.mode: unknown key"]),
            (
                lambda d: d.update(filter={"center_ghz": 1.0, "bandwidth_ghz": 1.0, "shape": "box"}),
                ["config.filter.shape: must be one of gaussian, tophat"],
            ),
            (
                lambda d: d.update(filter=[]),
                [
                    "config.filter: expected an object",
                    "config.filter.center_rad_per_s: missing",
                    "config.filter.bandwidth_rad_per_s: missing",
                ],
            ),
            (
                # A section that is not an object is reported when it is
                # taken, before the problems of the root scalars.
                lambda d: d.update(phase_match=5, delay_s="0"),
                [
                    "config.phase_match: expected an object",
                    "config.delay_s: expected a number",
                    "config.phase_match.degeneracy_frequency_rad_per_s: missing",
                    "config.phase_match.bandwidth_rad_per_s: missing",
                ],
            ),
        ],
        ids=[
            "unsupported-unit", "frequency-not-number", "bool-not-number", "float-not-integer",
            "string-not-integer", "enum-not-string", "phase-match-shape-not-member",
            "pump-mode-unknown", "filter-shape-not-member", "filter-not-object",
            "section-before-root-scalars",
        ],
    )
    def test_problem_messages(self, mutate, problems):
        doc = small_config_doc()
        mutate(doc)
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert str(info.value) == "invalid configuration:\n  " + "\n  ".join(problems)


NUMERIC_KEYS = [
    ("pump", "center_frequency_ghz"),
    ("pump", "linewidth_ghz"),
    ("phase_match", "degeneracy_frequency_ghz"),
    ("phase_match", "bandwidth_ghz"),
    ("phase_match", "walkoff_s"),
    ("phase_match", "dispersion_s2"),
    ("cavity", "fsr_ghz"),
    ("cavity", "reflectivity_signal"),
    ("cavity", "reflectivity_idler"),
    ("cavity", "resonance_offset_ghz"),
    ("grid", "span_minus_ghz"),
    ("grid", "span_plus_ghz"),
    ("filter", "center_ghz"),
    ("filter", "bandwidth_ghz"),
    (None, "delay_s"),
]


def non_finite_text(section, key, literal):
    """A valid document, as JSON text, with one numeric key set to ``literal``."""
    doc = small_config_doc(filter={"center_ghz": 100 * FSR_GHZ, "bandwidth_ghz": 8 * FSR_GHZ})
    (doc if section is None else doc[section])[key] = "@VALUE@"
    return json.dumps(doc).replace('"@VALUE@"', literal)


class TestNonFinite:
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    @pytest.mark.parametrize("section, key", NUMERIC_KEYS)
    def test_rejected_naming_the_key(self, section, key, literal):
        path = "config" if section is None else f"config.{section}"
        with pytest.raises(ConfigError, match=f"{path}.{key}: expected a finite number"):
            parse_config(non_finite_text(section, key, literal))

    def test_cli_exits_1_without_output(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(non_finite_text("phase_match", "bandwidth_ghz", "NaN"))
        out = tmp_path / "out"
        assert cli.main(["jsi", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()


def test_readme_lists_every_config_key():
    # The README table has one row per key: section, key, unit suffixes,
    # and "required" or the default.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in table.splitlines():
        cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0] not in ("Section", "---"):
            rows[(cells[0], cells[1])] = cells[3] == "required"
    expected = {("(top level)", key): required for _, key, _, required in ROOT_FIELDS}
    for name, _, _, fields in SCHEMA:
        expected.update({(name, key): required for _, key, _, required in fields})
    assert rows == expected


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv_lines(path):
    return path.read_text().splitlines()


class TestCli:
    def test_jsi_outputs_and_provenance(self, tmp_path):
        cfg = write_config(tmp_path, small_config_doc())
        assert cli.main(["jsi", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        csv = tmp_path / "out" / "jsi.csv"
        lines = read_csv_lines(csv)
        assert lines[0].startswith("# qcomb ")
        assert "config_sha256=" in lines[0]
        assert lines[1] == "omega_minus_rad_per_s,jsi"
        assert len(lines) == 2 + 513
        meta = json.loads((tmp_path / "out" / "jsi_meta.json").read_text())
        assert meta["pump_class"]["label"] == "resonant"
        assert meta["norm_squared"] > 0

    def test_jsi_deterministic_bytes(self, tmp_path):
        cfg = write_config(tmp_path, small_config_doc())
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(["jsi", "--config", cfg, "--out", out1]) == 0
        assert cli.main(["jsi", "--config", cfg, "--out", out2]) == 0
        a = (tmp_path / "a" / "jsi.csv").read_bytes()
        b = (tmp_path / "b" / "jsi.csv").read_bytes()
        assert a == b

    def test_hom_report(self, tmp_path):
        cfg = write_config(tmp_path, small_config_doc())
        out = str(tmp_path / "out")
        assert cli.main(["hom", "--config", cfg, "--out", out]) == 0
        lines = read_csv_lines(tmp_path / "out" / "hom_trace.csv")
        assert lines[1] == "tau_s,p_coincidence,p_normalized"
        report = json.loads((tmp_path / "out" / "hom_report.json").read_text())
        assert report["extremum_kind"] == "dip"
        assert report["visibility"] > 0.9
        assert report["symmetry_label"] == "symmetric"

    def test_sweep_has_sign_flip(self, tmp_path):
        cfg = write_config(tmp_path, small_config_doc())
        out = str(tmp_path / "out")
        assert cli.main(["sweep", "--config", cfg, "--out", out, "--points", "9"]) == 0
        lines = read_csv_lines(tmp_path / "out" / "sweep.csv")
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 9
        re_s = [float(r[1]) for r in rows]
        # The flip delay keeps only the comb-revival fraction of the overlap
        # (about 2R/(1+R^2) at R = 0.4), so test signs, not magnitude 1.
        assert re_s[0] > 0.5 and re_s[4] < -0.5

    def test_sweep_rejects_filter(self, tmp_path, capsys):
        doc = small_config_doc(filter={"center_ghz": 100 * FSR_GHZ, "bandwidth_ghz": FSR_GHZ})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out), "--points", "3"]) == 1
        assert "config.filter" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_rejects_two_points(self, tmp_path, capsys):
        # Detunings 0 and 2 FSR leave no sample near one FSR.
        cfg = write_config(tmp_path, small_config_doc())
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out), "--points", "2"]) == 1
        assert "qcomb: error: sweep needs --points of at least 3" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_three_points(self, tmp_path):
        cfg = write_config(tmp_path, small_config_doc())
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out), "--points", "3"]) == 0
        assert len(read_csv_lines(out / "sweep.csv")) == 2 + 3

    def test_sweep_rejects_delay(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_config_doc(delay_s=1e-11))
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", cfg, "--out", str(out), "--points", "3"]) == 1
        assert "config.delay_s" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_single_step_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_config_doc())
        assert cli.main(["sweep", "--config", cfg, "--points", "1",
                         "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("points", ["0", "-5"])
    @pytest.mark.parametrize("command, output", [("hom", "hom_trace.csv"), ("sweep", "sweep.csv")])
    def test_points_below_two_rejected(self, tmp_path, capsys, command, output, points):
        cfg = write_config(tmp_path, small_config_doc())
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfg, "--out", str(out), "--points", points]) == 1
        assert "qcomb: error: --points must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_rejects_points(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_config_doc())
        data = tmp_path / "data.csv"
        data.write_text("tau_s,counts\n" + "".join(f"{i}e-12,500\n" for i in range(-16, 17)))
        out = tmp_path / "out"
        argv = ["fit", "--config", cfg, "--out", str(out), "--data", str(data), "--points", "7"]
        assert cli.main(argv) == 1
        assert "qcomb: error: fit takes no --points" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("points", ["301", "512", "0", "-5", str(biphoton.MAX_POINTS + 1)])
    @pytest.mark.parametrize("grid", ["1d", "2d"])
    def test_jsi_rejects_points_before_assembly(self, tmp_path, capsys, monkeypatch, grid, points):
        # The config's grid alone sets the size of the state jsi writes, in
        # either grid shape; any --points, in range or not, is refused as such.
        assembled = []
        assemble = biphoton.assemble_jsa
        monkeypatch.setattr(biphoton, "assemble_jsa", lambda *a: assembled.append(a) or assemble(*a))
        if grid == "1d":
            cfg = write_config(tmp_path, small_config_doc())
        else:
            cfg = str(GOLDEN / "broadband_2d" / "config.json")
        out = tmp_path / "out"
        assert cli.main(["jsi", "--config", cfg, "--out", str(out), "--points", points]) == 1
        assert "qcomb: error: jsi takes no --points" in capsys.readouterr().err
        assert assembled == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["jsi", "hom", "sweep"])
    def test_data_rejected_outside_fit(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, small_config_doc())
        out = tmp_path / "out"
        argv = [command, "--config", cfg, "--out", str(out), "--data", str(tmp_path / "missing.csv")]
        assert cli.main(argv) == 1
        assert "qcomb: error: --data is read only by fit" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_without_data_is_io_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_config_doc())
        out = tmp_path / "out"
        assert cli.main(["fit", "--config", cfg, "--out", str(out)]) == 2
        assert "fit requires --data" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["hom", "sweep", "fit"])
    def test_2d_grid_refused_before_assembly(self, tmp_path, capsys, monkeypatch, command):
        assembled = []
        assemble = biphoton.assemble_jsa
        monkeypatch.setattr(biphoton, "assemble_jsa", lambda *a: assembled.append(a) or assemble(*a))
        doc = json.loads((GOLDEN / "broadband_2d" / "config.json").read_text())
        if command != "hom":
            del doc["filter"]  # sweep and fit refuse a filter first
        out = tmp_path / "out"
        argv = [command, "--config", write_config(tmp_path, doc), "--out", str(out)]
        if command == "fit":
            data = tmp_path / "data.csv"
            taus = np.linspace(-1e-10, 1e-10, 33)
            data.write_text("tau_s,counts\n" + "".join(f"{t:.6e},{500 + k % 3}\n" for k, t in enumerate(taus)))
            argv += ["--data", str(data)]
        assert cli.main(argv) == 1
        assert f"{command} is defined for 1D grids; only jsi takes a 2D grid" in capsys.readouterr().err
        assert assembled == []
        assert not out.exists()

    def test_hom_computes_the_exchange_kernel_once(self, tmp_path, monkeypatch):
        # The trace and the exchange overlap share one half kernel.
        kernels = []
        kernel = biphoton.exchange_kernel
        monkeypatch.setattr(biphoton, "exchange_kernel", lambda jsa: kernels.append(jsa) or kernel(jsa))
        argv = ["hom", "--config", str(GOLDEN / "chip" / "config.json"), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        assert len(kernels) == 1

    @pytest.mark.parametrize("command", ["jsi", "hom"], ids=["jsi-even", "hom-even"])
    def test_asymmetric_1d_grid_refused_before_assembly(self, tmp_path, capsys, monkeypatch, command):
        assembled = []
        assemble = biphoton.assemble_jsa
        monkeypatch.setattr(biphoton, "assemble_jsa", lambda *a: assembled.append(a) or assemble(*a))
        doc = small_config_doc()
        doc["grid"]["points_minus"] = 512
        out = tmp_path / "out"
        argv = [command, "--config", write_config(tmp_path, doc), "--out", str(out)]
        assert cli.main(argv) == 1
        assert "requires a grid symmetric about w- = 0" in capsys.readouterr().err
        assert assembled == []
        assert not out.exists()

    def test_hom_unresolved_observables_are_null(self, tmp_path):
        # 41 delays leave too few baseline samples for the visibility and
        # too few samples inside the FWHM; the trace itself is still valid.
        cfg = write_config(tmp_path, small_config_doc())
        out = tmp_path / "out"
        assert cli.main(["hom", "--config", cfg, "--out", str(out), "--points", "41"]) == 0
        assert len(read_csv_lines(out / "hom_trace.csv")) == 2 + 41
        report = json.loads((out / "hom_report.json").read_text())
        assert report["visibility"] is None
        assert report["fwhm_s"] is None

    def test_negative_pump_linewidth_refused(self, tmp_path, capsys):
        doc = small_config_doc()
        doc["pump"]["linewidth_ghz"] = -50.0
        out = tmp_path / "out"
        assert cli.main(["hom", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
        assert "PumpSpec.linewidth" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, grid_shape",
        [("jsi", "1d"), ("hom", "1d"), ("sweep", "1d"), ("fit", "1d"), ("jsi", "2d")],
    )
    def test_unpaired_pump_refused_before_assembly(
        self, tmp_path, capsys, monkeypatch, command, grid_shape
    ):
        # A positive linewidth on a 1D grid, or linewidth 0 on a 2D grid.
        assembled = []
        assemble = biphoton.assemble_jsa
        monkeypatch.setattr(biphoton, "assemble_jsa", lambda *a: assembled.append(a) or assemble(*a))
        if grid_shape == "1d":
            doc = small_config_doc()
            doc["pump"]["linewidth_ghz"] = 50.0
        else:
            doc = json.loads((GOLDEN / "broadband_2d" / "config.json").read_text())
            del doc["pump"]["linewidth_ghz"]
        out = tmp_path / "out"
        argv = [command, "--config", write_config(tmp_path, doc), "--out", str(out)]
        if command == "fit":
            data = tmp_path / "data.csv"
            data.write_text("tau_s,counts\n" + "".join(f"{k}e-13,{500 + k % 3}\n" for k in range(-8, 9)))
            argv += ["--data", str(data)]
        assert cli.main(argv) == 1
        assert "a monochromatic pump (linewidth 0) takes a 1D grid" in capsys.readouterr().err
        assert assembled == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "golden, section, key",
        [("chip", None, "output_dir"), ("broadband_2d", None, "output_dir"),
         ("chip", "grid", "center_minus_ghz"), ("chip", "grid", "center_plus_ghz"),
         ("broadband_2d", "grid", "center_minus_ghz"), ("broadband_2d", "grid", "center_plus_ghz"),
         # Every unit form of a removed centre is unknown, not a bad suffix.
         ("chip", "grid", "center_minus_rad_per_s"), ("broadband_2d", "grid", "center_plus_thz")],
    )
    def test_removed_settings_refused_as_unknown_keys(self, tmp_path, capsys, golden, section, key):
        # The output directory is --out's alone; w- is centred on 0, and w+ on the pump.
        doc = json.loads((GOLDEN / golden / "config.json").read_text())
        elsewhere = tmp_path / "elsewhere"
        value = str(elsewhere) if key == "output_dir" else 0.0
        (doc if section is None else doc[section])[key] = value
        path = "config" if section is None else f"config.{section}"
        with pytest.raises(ConfigError, match=f"{path}.{key}: unknown key"):
            parse_config(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["jsi", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
        assert f"{path}.{key}: unknown key" in capsys.readouterr().err
        assert not out.exists() and not elsewhere.exists()

    @pytest.mark.parametrize("command", ["fit", "jsi", "hom", "sweep"])
    def test_seed_is_not_a_flag(self, tmp_path, capsys, command):
        # The fit seed is the config's seed alone; no command takes --seed.
        assert "--seed" not in cli.build_parser().format_help()
        cfg = str(GOLDEN / "chip" / "config.json")
        out = tmp_path / "out"
        argv = [command, "--config", cfg, "--out", str(out), "--seed", "1"]
        if command == "fit":
            argv += ["--data", "d.csv"]
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_is_io_error(self, tmp_path):
        assert cli.main(["jsi", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_physics_is_validation_error(self, tmp_path):
        doc = small_config_doc()
        doc["cavity"]["reflectivity_signal"] = 1.5
        cfg = write_config(tmp_path, doc)
        assert cli.main(["jsi", "--config", cfg, "--out", str(tmp_path / "out")]) == 1

    def test_fit_round_trip(self, tmp_path):
        doc = small_config_doc()
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "out")
        assert cli.main(["hom", "--config", cfg, "--out", out, "--points", "65"]) == 0
        trace_lines = read_csv_lines(tmp_path / "out" / "hom_trace.csv")
        data = tmp_path / "data.csv"
        rows = ["tau_s,counts"]
        for line in trace_lines[2:]:
            tau, p, _ = line.split(",")
            rows.append(f"{tau},{float(p) * 1000}")
        data.write_text("\n".join(rows) + "\n")
        assert cli.main(["fit", "--config", cfg, "--out", out, "--data", str(data)]) == 0
        report = json.loads((tmp_path / "out" / "fit_report.json").read_text())
        assert report["converged"] is True
        bw_true = 4 * FSR
        assert report["parameters"]["bandwidth"] == pytest.approx(bw_true, rel=0.05)

    def test_fit_refuses_constant_counts(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("tau_s,counts\n" + "".join(f"{i}e-13,0\n" for i in range(-6, 6)))
        out = tmp_path / "out"
        cfg = str(GOLDEN / "chip" / "config.json")
        assert cli.main(["fit", "--config", cfg, "--out", str(out), "--data", str(data)]) == 1
        assert "counts are all equal" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_report_is_strict_json(self, tmp_path):
        # With both reflectivities 0 the dispersion cancels from the kernel,
        # so the residual has no curvature along it: its half-width is inf.
        doc = small_config_doc()
        doc["cavity"].update(reflectivity_signal=0.0, reflectivity_idler=0.0)
        cfg = write_config(tmp_path, doc)
        config = parse_config(json.dumps(doc))
        jsa = biphoton.assemble_jsa_mono(config.pump, config.phase_match, config.cavity, config.grid)
        delays = cli._delay_axis(config, 65)
        counts = estimation.simulate_counts(hom.coincidence_trace(jsa, delays), 1e3, seed=0)
        data = tmp_path / "data.csv"
        rows = "".join(f"{t!r},{n}\n" for t, n in zip(delays.tolist(), counts.tolist()))
        data.write_text("tau_s,counts\n" + rows)
        out = tmp_path / "out"
        assert cli.main(["fit", "--config", cfg, "--out", str(out), "--data", str(data)]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads((out / "fit_report.json").read_text(), parse_constant=refuse)
        assert report["confidence"]["dispersion"] is None
        assert all(isinstance(v, float) for k, v in report["confidence"].items() if k != "dispersion")

    @pytest.mark.parametrize("command", ["hom", "sweep"])
    def test_oversized_points_refused_before_any_allocation(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, small_config_doc())
        out = tmp_path / "out"
        argv = [command, "--config", cfg, "--out", str(out), "--points", str(biphoton.MAX_POINTS + 1)]
        with pytest.raises(ValidationError, match="at most"):
            cli._Run(cli.build_parser().parse_args(argv))  # set-up, before any command runs
        assert cli.main(argv) == 1
        assert f"--points must be at least 2 and at most {biphoton.MAX_POINTS}" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_config_grid_refused(self):
        doc = small_config_doc()
        doc["grid"]["points_minus"] = biphoton.MAX_POINTS + 2
        with pytest.raises(ValidationError, match="more than MAX_POINTS"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize(
        "points_minus, points_plus",
        [(4097, 4097), (41, biphoton.MAX_POINTS // 41 + 1)],
        ids=["both-axes", "product-just-over"],
    )
    def test_oversized_2d_jsi_grid_refused(self, tmp_path, capsys, points_minus, points_plus):
        # The bound is on the samples of both axes together, not on each axis.
        doc = json.loads((GOLDEN / "broadband_2d" / "config.json").read_text())
        doc["grid"].update(points_minus=points_minus, points_plus=points_plus)
        with pytest.raises(ValidationError, match="more than MAX_POINTS"):
            parse_config(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["jsi", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 1
        assert "more than MAX_POINTS" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_rejects_filter(self, tmp_path, capsys):
        # The fit model has no filter, so a filtered trace would be fitted
        # as if unfiltered.
        doc = small_config_doc(filter={"center_ghz": 100 * FSR_GHZ, "bandwidth_ghz": FSR_GHZ})
        cfg = write_config(tmp_path, doc)
        data = tmp_path / "data.csv"
        taus = np.linspace(-1e-10, 1e-10, 33)
        data.write_text("tau_s,counts\n" + "".join(f"{t:.6e},500\n" for t in taus))
        out = tmp_path / "out"
        assert cli.main(["fit", "--config", cfg, "--out", str(out), "--data", str(data)]) == 1
        assert "config.filter" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_rejects_asymmetric_grid(self, tmp_path, capsys):
        doc = small_config_doc()
        doc["grid"]["points_minus"] = 512
        cfg = write_config(tmp_path, doc)
        data = tmp_path / "data.csv"
        taus = np.linspace(-1e-10, 1e-10, 33)
        # Not constant: constant counts are refused before the check under test.
        data.write_text("tau_s,counts\n" + "".join(f"{t:.6e},{500 + k % 3}\n" for k, t in enumerate(taus)))
        out = tmp_path / "out"
        assert cli.main(["fit", "--config", cfg, "--out", str(out), "--data", str(data)]) == 1
        assert "requires a grid symmetric about w- = 0" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_rejects_negative_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_config_doc(seed=-1))
        data = tmp_path / "data.csv"
        taus = np.linspace(-1e-10, 1e-10, 33)
        # Not constant: constant counts are refused before the check under test.
        data.write_text("tau_s,counts\n" + "".join(f"{t:.6e},{500 + k % 3}\n" for k, t in enumerate(taus)))
        out = tmp_path / "out"
        argv = ["fit", "--config", cfg, "--out", str(out), "--data", str(data)]
        assert cli.main(argv) == 1
        assert "qcomb: error: fit seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("literal", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["tau_s", "counts"])
    def test_fit_refuses_non_finite_row_naming_line(self, tmp_path, capsys, column, literal):
        cfg = write_config(tmp_path, small_config_doc())
        rows = [[f"{k}e-13", f"{500 + k % 3}"] for k in range(-8, 9)]
        rows[4][["tau_s", "counts"].index(column)] = literal
        data = tmp_path / "data.csv"
        data.write_text("tau_s,counts\n" + "".join(",".join(row) + "\n" for row in rows))
        out = tmp_path / "out"
        assert cli.main(["fit", "--config", cfg, "--out", str(out), "--data", str(data)]) == 2
        assert f"{data}:6: tau_s and counts must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_missing_data_file(self, tmp_path):
        cfg = write_config(tmp_path, small_config_doc())
        code = cli.main(
            ["fit", "--config", cfg, "--out", str(tmp_path / "out"),
             "--data", str(tmp_path / "missing.csv")]
        )
        assert code == 2

    def test_fit_refuses_negative_counts(self, tmp_path, capsys):
        # The default fit bounds assume counts >= 0.
        cfg = write_config(tmp_path, small_config_doc())
        data = tmp_path / "negative.csv"
        data.write_text("tau_s,counts\n" + "".join(f"{k}e-14,{-1000 - k}\n" for k in range(41)))
        out = tmp_path / "out"
        assert cli.main(["fit", "--config", cfg, "--out", str(out), "--data", str(data)]) == 2
        assert f"{data}:2: counts must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_malformed_row_names_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_config_doc())
        data = tmp_path / "bad.csv"
        data.write_text("tau_s,counts\n0.0,10\nnot-a-number,3\n")
        code = cli.main(
            ["fit", "--config", cfg, "--out", str(tmp_path / "out"),
             "--data", str(data)]
        )
        assert code == 2
        assert ":3:" in capsys.readouterr().err


class TestReadDataCsv:
    def test_reads_with_comments(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# provenance\ntau_s,counts\n0.0,1\n1e-12,2\n")
        taus, counts = cli.read_data_csv(str(path))
        assert np.allclose(taus, [0.0, 1e-12])
        assert np.allclose(counts, [1.0, 2.0])

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,counts\n0.0,1\n")
        with pytest.raises(DataFormatError, match=":1:"):
            cli.read_data_csv(str(path))

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("tau_s,counts\n0.0,1,2\n")
        with pytest.raises(DataFormatError, match=":2:"):
            cli.read_data_csv(str(path))
