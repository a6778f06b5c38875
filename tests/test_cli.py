import hashlib
import json

import pytest

from vtqg.cli import main
from vtqg.harness import read_results


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecompose:
    def test_prints_terms_and_gamma(self, capsys):
        code, out, err = run_cli(capsys, "decompose", "--theta", "0.787")
        assert code == 0 and err == ""
        assert "PROJ_ROT" in out and "gamma" in out
        assert "2.4164770861" in out
        grouped = out.split("grouped instruments")[1].splitlines()[1:]
        assert grouped == [
            "  II         weight=+0.8529866025",
            "  ZZ         weight=+0.1470133975",
            "  MEAS_ROT   weight=+0.3541192715  rz=-1.570796",
            "  MEAS_ROT   weight=-0.3541192715  rz=+1.570796",
            "  ROT_MEAS   weight=+0.3541192715  rz=-1.570796",
            "  ROT_MEAS   weight=-0.3541192715  rz=+1.570796",
        ]

    def test_bad_theta_fails(self, capsys):
        code, out, err = run_cli(capsys, "decompose", "--theta", "nan")
        assert code == 1
        assert err.startswith("error:")


class TestRoute:
    def test_eight_qubit_path(self, capsys):
        code, out, _ = run_cli(capsys, "route", "--qubits", "8")
        assert code == 0
        assert "SWAP gates            : 6" in out
        assert "18 from SWAPs" in out

    def test_coupling_file(self, capsys, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}))
        code, out, _ = run_cli(capsys, "route", "--qubits", "4", "--coupling", str(path))
        assert code == 0 and "SWAP gates            : 2" in out

    def test_non_path_errors(self, capsys, tmp_path):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}))
        code, _, err = run_cli(capsys, "route", "--qubits", "3", "--coupling", str(path))
        assert code == 1 and "path" in err


class TestExperiment:
    def test_end_to_end_csv(self, capsys, tmp_path):
        out_path = tmp_path / "results.csv"
        code, out, err = run_cli(
            capsys, "experiment", "--qubits", "4", "--reps", "2", "--seed", "9",
            "--variant", "vtqg", "--out", str(out_path), "--stable-timing")
        assert code == 0, err
        records = read_results(out_path)
        assert len(records) == 2
        assert records[0].fragments == 10
        assert "vtqg" in out and "wrote 2 records" in out

    def test_exact_mode_past_the_density_cap(self, capsys, tmp_path):
        # 24 qubits: light cones in exact mode, and a reference past the statevector cap
        out_path = tmp_path / "results.csv"
        code, out, err = run_cli(capsys, "experiment", "--qubits", "24", "--mode", "exact", "--reps", "1",
                                 "--out", str(out_path))
        assert code == 0, err
        records = read_results(out_path)
        assert [r.variant for r in records] == ["routed_original", "vtqg", "vtqg_pet"]
        assert all(r.n_qubits == 24 and 0.0 < r.mag < r.ideal for r in records)
        assert "wrote 3 records" in out

    def test_config_file_with_overrides(self, capsys, tmp_path):
        config = {
            "params": {"n_qubits": 6, "h": 0.786, "J": 0.787, "dt": 0.5, "n_steps": 1},
            "variants": ["routed_original"],
            "noise": {"p1": 0.0, "p2": 0.0},
            "repetitions": 1,
            "seed": 2,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "results.json"
        code, out, err = run_cli(
            capsys, "experiment", "--config", str(cfg_path), "--qubits", "4",
            "--out", str(out_path), "--format", "json")
        assert code == 0, err
        records = read_results(out_path)
        assert records[0].n_qubits == 4  # flag overrode the file
        assert records[0].variant == "routed_original"
        assert abs(records[0].mag - records[0].ideal) < 1e-9

    def test_format_inferred_from_extension(self, capsys, tmp_path):
        out_path = tmp_path / "results.json"
        code, _, _ = run_cli(capsys, "experiment", "--qubits", "4", "--reps", "1",
                             "--variant", "vtqg_pet", "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text())[0]["variant"] == "vtqg_pet"

    def test_format_inferred_from_an_upper_case_extension(self, capsys, tmp_path):
        out_path = tmp_path / "results.JSON"
        code, _, _ = run_cli(capsys, "experiment", "--qubits", "4", "--reps", "1",
                             "--variant", "vtqg", "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text())[0]["variant"] == "vtqg"

    def test_sampling_mode_flag(self, capsys, tmp_path):
        out_path = tmp_path / "results.csv"
        code, out, _ = run_cli(
            capsys, "experiment", "--qubits", "4", "--reps", "1", "--mode", "sampling",
            "--shots", "64", "--variant", "vtqg", "--out", str(out_path))
        assert code == 0
        assert read_results(out_path)[0].fragments == 6
        assert "mode=sampling" in out

    # the determinism contract README states: the default exact run and one sampling run, byte for byte
    @pytest.mark.parametrize("argv, digest", [
        (("--reps", "20"), "0aa4bad7f443dc0452dd2851addda5f214c6012aa799a602ee8b066f4837e86a"),
        (("--reps", "3", "--mode", "sampling", "--shots", "512"),
         "85317a9af0ad6fe174b0852662c0b9f6f07717410bad4021132992bedf149d8d"),
    ], ids=["exact", "sampling"])
    def test_stable_output_digest(self, capsys, tmp_path, argv, digest):
        out_path = tmp_path / "results.csv"
        code, _, err = run_cli(capsys, "experiment", "--qubits", "8", *argv, "--stable-timing", "--out", str(out_path))
        assert code == 0, err
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest

    def test_invalid_flag_value_errors(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "experiment", "--qubits", "1",
                               "--out", str(tmp_path / "r.csv"))
        assert code == 1 and "error:" in err


class TestReport:
    def test_report_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "results.csv"
        run_cli(capsys, "experiment", "--qubits", "4", "--reps", "2", "--variant", "vtqg",
                "--out", str(out_path), "--stable-timing")
        code, out, _ = run_cli(capsys, "report", str(out_path))
        assert code == 0
        assert "vtqg" in out and "mean_mag" in out

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "report", "/nonexistent/results.csv")
        assert code == 1 and "error:" in err
