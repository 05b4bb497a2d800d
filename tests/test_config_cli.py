import json
import math

import numpy as np
import pytest

from qcomb import cli
from qcomb.config import RunConfig, emit_config, parse_config
from qcomb.errors import ConfigError, DataFormatError
from conftest import FSR

FSR_GHZ = FSR / (2 * math.pi * 1e9)


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


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv_lines(path):
    return path.read_text().splitlines()


class TestCli:
    def test_jsi_outputs_and_provenance(self, tmp_path):
        cfg = write_config(tmp_path, small_config_doc(output_dir=str(tmp_path / "out")))
        assert cli.main(["jsi", "--config", cfg]) == 0
        csv = tmp_path / "out" / "jsi.csv"
        lines = read_csv_lines(csv)
        assert lines[0].startswith("# qcomb ")
        assert "config_sha256=" in lines[0]
        assert lines[1] == "omega_minus_rad_per_s,jsi"
        assert len(lines) == 2 + 513
        meta = json.loads((tmp_path / "out" / "jsi_meta.json").read_text())
        assert meta["pump_class"]["label"] == "resonant"
        assert meta["norm_squared"] > 0

    def test_jsi_points_override_1d(self, tmp_path):
        cfg = write_config(tmp_path, small_config_doc())
        assert cli.main(["jsi", "--config", cfg, "--out", str(tmp_path / "out"),
                         "--points", "301"]) == 0
        lines = read_csv_lines(tmp_path / "out" / "jsi.csv")
        assert len(lines) == 2 + 301

    def test_jsi_points_override_2d(self, tmp_path):
        doc = small_config_doc()
        doc["pump"].update(mode="gaussian_broadband", linewidth_ghz=40 * FSR_GHZ)
        doc["grid"] = {
            "span_minus_ghz": 4 * FSR_GHZ,
            "points_minus": 129,
            "span_plus_ghz": 4 * FSR_GHZ,
            "points_plus": 129,
            "center_plus_ghz": 2 * 100 * FSR_GHZ,
        }
        cfg = write_config(tmp_path, doc)
        assert cli.main(["jsi", "--config", cfg, "--out", str(tmp_path / "out"),
                         "--points", "101"]) == 0
        rows = [line.split(",") for line in read_csv_lines(tmp_path / "out" / "jsi.csv")[2:]]
        # One omega_minus header row, then one row per omega_plus sample.
        assert len(rows) == 1 + 101
        assert all(len(row) == 1 + 101 for row in rows)

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

    def test_sweep_single_step_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_config_doc())
        assert cli.main(["sweep", "--config", cfg, "--points", "1",
                         "--out", str(tmp_path / "out")]) == 1

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

    def test_fit_missing_data_file(self, tmp_path):
        cfg = write_config(tmp_path, small_config_doc())
        code = cli.main(
            ["fit", "--config", cfg, "--out", str(tmp_path / "out"),
             "--data", str(tmp_path / "missing.csv")]
        )
        assert code == 2

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
