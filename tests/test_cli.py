"""Command-line artifacts: schemas, determinism, exit codes, config plumbing."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tfim_dqpt.cli import main

T_C_12 = np.pi / (2.0 * np.sqrt(0.44))


def read_csv(path: Path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def read_json(path: Path):
    return json.loads(path.read_text())


class TestRateFunction:
    def test_artifacts_and_peak(self, tmp_path):
        out = tmp_path / "rate"
        assert main(["rate-function", "--out", str(out), "--n", "30"]) == 0
        header, rows = read_csv(out / "rate_function.csv")
        assert header == ["g_f", "t", "f"]
        series = {}
        for g_f, t, f in rows:
            series.setdefault(float(g_f), []).append((float(t), float(f)))
        assert set(series) == {0.5, 0.8, 1.2}
        ts, fs = zip(*series[1.2])
        assert abs(ts[int(np.argmax(fs))] - T_C_12) < 0.2
        analytic = read_json(out / "critical_times.json")
        by_gf = {entry["g_f"]: entry for entry in analytic["series"]}
        assert by_gf[1.2]["dqpt"] is True
        assert by_gf[1.2]["critical_times"][0] == pytest.approx(T_C_12, abs=1e-9)
        assert by_gf[0.8] == {"g_f": 0.8, "dqpt": False, "critical_times": []}

    def test_trivial_quench_is_flat_zero(self, tmp_path):
        out = tmp_path / "flat"
        assert main(["rate-function", "--out", str(out), "--gf", "0"]) == 0
        _, rows = read_csv(out / "rate_function.csv")
        assert all(abs(float(f)) < 1e-12 for _, _, f in rows)

    def test_invalid_size_names_field(self, tmp_path, capsys):
        assert main(["rate-function", "--out", str(tmp_path), "--n", "1"]) == 2
        assert "quench.n" in capsys.readouterr().err
        assert not (tmp_path / "rate_function.csv").exists()

    def test_manifest_checksums(self, tmp_path):
        out = tmp_path / "rate"
        main(["rate-function", "--out", str(out), "--n", "8"])
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "rate-function"
        assert manifest["config"]["sweep"]["tolerance"] == 1e-6  # default echoed
        for name, digest in manifest["checksums"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
        assert set(manifest["checksums"]) == {"rate_function.csv",
                                              "critical_times.json"}


class TestHeatmap:
    def test_surface_shape_and_nodes(self, tmp_path):
        out = tmp_path / "hm"
        assert main(["heatmap", "--out", str(out), "--gf", "0.8,1.2",
                     "--n", "30"]) == 0
        header, rows = read_csv(out / "return_prob.csv")
        assert header == ["g_f", "k", "t_over_t0", "probability"]
        taus = sorted({float(r[2]) for r in rows})
        assert taus[0] == 0.0 and taus[-1] == 2.0
        probs = {g: [] for g in (0.8, 1.2)}
        for g_f, _, _, p in rows:
            probs[float(g_f)].append(float(p))
        assert min(probs[0.8]) > 0.0
        assert min(probs[1.2]) < 0.01


class TestOtoc:
    def test_artifacts(self, tmp_path):
        out = tmp_path / "otoc"
        assert main(["otoc", "--out", str(out), "--gf", "0.8,1.2",
                     "--n", "12", "--config",
                     write_config(tmp_path, "[quench]\nt_points = 40\n")]) == 0
        header, rows = read_csv(out / "otoc_surface.csv")
        assert header == ["g_f", "phi", "t", "fidelity", "magnetization"]
        for g_f, phi, t, fid, mag in rows:
            if float(phi) == 0.0:
                assert abs(float(fid) - 1.0) < 1e-12
        sheader, srows = read_csv(out / "spectra.csv")
        assert sheader == ["g_f", "observable", "t", "m", "re", "im", "abs"]
        assert {r[1] for r in srows} == {"fidelity", "magnetization"}
        assert {int(r[3]) for r in srows} == set(range(-3, 4))
        wells = read_json(out / "doublewell.json")
        verdicts = {entry["g_f"]: entry["classification"]
                    for entry in wells["results"]}
        assert verdicts == {0.8: "single_well", 1.2: "double_well"}
        assert wells["detector"]["eps_dw"] == 1e-3

    def test_spectra_alias_emits_spectra_only(self, tmp_path):
        out = tmp_path / "spectra"
        assert main(["spectra", "--out", str(out), "--gf", "1.2", "--n", "8",
                     "--config",
                     write_config(tmp_path, "[quench]\nt_points = 10\n")]) == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"spectra.csv", "manifest.json"}
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "spectra"


class TestOracleCompare:
    def test_default_grid_is_abc(self, tmp_path):
        out = tmp_path / "ocdef"
        assert main(["oracle-compare", "--out", str(out), "--gf", "1.2"]) == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["config"]["quench"]["grid"] == "abc"

    def test_matched_grids_pass(self, tmp_path):
        out = tmp_path / "oc"
        assert main(["oracle-compare", "--out", str(out), "--grid", "abc",
                     "--gf", "0.8,1.2"]) == 0
        _, rows = read_csv(out / "compare.csv")
        assert {r[1] for r in rows} == {"rate_function", "fidelity",
                                        "magnetization"}
        assert max(float(r[4]) for r in rows) < 1e-6

    def test_mismatched_grid_is_negative_control(self, tmp_path, capsys):
        out = tmp_path / "ocneg"
        assert main(["oracle-compare", "--out", str(out), "--grid", "paper",
                     "--gf", "1.2"]) == 1
        err = capsys.readouterr().err
        assert "tolerance failure" in err and "grid=paper" in err
        # artifacts still written so the mismatch can be inspected
        assert (out / "compare.csv").exists()
        assert (out / "manifest.json").exists()

    def test_loose_tolerance_rescues_mismatch(self, tmp_path):
        out = tmp_path / "ocloose"
        assert main(["oracle-compare", "--out", str(out), "--grid", "paper",
                     "--gf", "1.2", "--tolerance", "10"]) == 0


class TestPulseSchedule:
    def test_schedule_layout(self, tmp_path):
        out = tmp_path / "pulse"
        assert main(["pulse-schedule", "--out", str(out), "--gf", "1.0,1.2",
                     "--n", "8"]) == 0
        header, rows = read_csv(out / "schedule.csv")
        assert header == ["g_f", "k", "axis_angle", "rabi_rate",
                          "duration_index", "duration", "idle"]
        per_mode = {}
        for row in rows:
            per_mode.setdefault((row[0], row[1]), []).append(row)
        assert all(len(v) == 100 for v in per_mode.values())  # default n_T
        idle = [r for r in rows if r[6] == "1"]
        assert idle and all(r[0] == "1.0" and float(r[1]) == 0.0 for r in idle)
        check = read_json(out / "replay_check.json")
        assert check["max_deviation"] < 1e-12

    def test_nt_flag(self, tmp_path):
        out = tmp_path / "pulse2"
        assert main(["pulse-schedule", "--out", str(out), "--gf", "1.2",
                     "--n", "4", "--nt", "7"]) == 0
        _, rows = read_csv(out / "schedule.csv")
        assert len(rows) == 5 * 7  # paper grid has n+1 modes


class TestFormatsAndConfig:
    def test_json_format(self, tmp_path):
        out = tmp_path / "json"
        assert main(["rate-function", "--out", str(out), "--n", "8",
                     "--format", "json"]) == 0
        payload = read_json(out / "rate_function.json")
        assert payload["columns"] == ["g_f", "t", "f"]
        assert all(len(row) == 3 for row in payload["rows"])
        assert not (out / "rate_function.csv").exists()

    def test_config_file_and_flag_precedence(self, tmp_path):
        path = write_config(tmp_path,
                            "[quench]\nn = 8\ng_f = 0.5\n\n[echo]\nn_phi = 16\n")
        out = tmp_path / "cfg"
        assert main(["rate-function", "--out", str(out), "--config", path]) == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["config"]["quench"]["n"] == 8
        assert manifest["config"]["quench"]["g_f"] == [0.5]
        assert manifest["config"]["echo"]["n_phi"] == 16
        out2 = tmp_path / "cfg2"
        assert main(["rate-function", "--out", str(out2), "--config", path,
                     "--n", "10"]) == 0
        assert read_json(out2 / "manifest.json")["config"]["quench"]["n"] == 10

    def test_unknown_config_key(self, tmp_path, capsys):
        path = write_config(tmp_path, "[quench]\nwavelength = 3\n")
        assert main(["rate-function", "--out", str(tmp_path), "--config",
                     path]) == 2
        assert "wavelength" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["rate-function", "--out", str(tmp_path), "--config",
                     str(tmp_path / "nope.ini")]) == 2


class TestDeterminism:
    def rerun_identical(self, tmp_path, argv):
        out = tmp_path / "run"
        assert main([*argv, "--out", str(out)]) == 0
        snapshot = tmp_path / "snapshot"
        shutil.copytree(out, snapshot)
        assert main([*argv, "--out", str(out)]) == 0
        first = sorted(p.name for p in snapshot.iterdir())
        second = sorted(p.name for p in out.iterdir())
        assert first == second
        for name in first:
            assert (snapshot / name).read_bytes() == (out / name).read_bytes(), name

    def test_rate_function_reruns_identically(self, tmp_path):
        self.rerun_identical(tmp_path, ["rate-function", "--n", "12"])

    def test_otoc_reruns_identically(self, tmp_path):
        cfg = write_config(tmp_path, "[quench]\nt_points = 25\n")
        self.rerun_identical(tmp_path, ["otoc", "--n", "8", "--gf", "1.2",
                                        "--config", cfg])

    def test_thread_count_does_not_change_artifacts(self, tmp_path):
        base = ["rate-function", "--n", "12", "--gf", "0.8,1.2,1.5"]
        out1, out2 = tmp_path / "t1", tmp_path / "t4"
        assert main([*base, "--threads", "1", "--out", str(out1)]) == 0
        assert main([*base, "--threads", "4", "--out", str(out2)]) == 0
        assert (out1 / "rate_function.csv").read_bytes() \
            == (out2 / "rate_function.csv").read_bytes()


def write_config(tmp_path, text: str) -> str:
    path = tmp_path / "config.ini"
    path.write_text(text)
    return str(path)


def test_cli_import_does_not_load_scipy_sparse():
    # the sparse Hamiltonian is built on demand; importing it up front
    # would add its import time to every CLI run
    import tfim_dqpt

    src = os.path.dirname(os.path.dirname(os.path.abspath(tfim_dqpt.__file__)))
    code = ("import sys, tfim_dqpt.cli; "
            "print('scipy.sparse' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"
