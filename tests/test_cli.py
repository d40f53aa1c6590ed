"""Command-line artifacts: schemas, determinism, exit codes, config plumbing."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tfim_dqpt import cli, quench
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
        # g_f = 1 closes the gap at k = 0 and at k = 2 pi, the same mode
        idle = [r for r in rows if r[6] == "1"]
        assert all(r[0] == "1.0" for r in idle)
        assert sorted({float(r[1]) for r in idle}) == [0.0, 2.0 * np.pi]
        assert len(idle) == 2 * 100
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


def run_python(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on this src."""
    import tfim_dqpt

    src = os.path.dirname(os.path.dirname(os.path.abspath(tfim_dqpt.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout.strip()


LOADED_SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_does_not_load_scipy_sparse():
    # chain computes its Bessel weights itself and builds the sparse
    # Hamiltonian on demand; importing scipy up front would add its import
    # time to every CLI run
    for module in ("tfim_dqpt", "tfim_dqpt.cli"):
        assert run_python(f"import sys, {module}; print({LOADED_SCIPY})") \
            == "[]", module


def test_commands_load_no_scipy(tmp_path):
    # only the open-chain register oracle beyond DENSE_LIMIT needs scipy.sparse
    commands = ["rate-function", "heatmap", "otoc", "spectra",
                "pulse-schedule", "oracle-compare"]
    code = (f"import sys; from tfim_dqpt.cli import main\n"
            f"for i, command in enumerate({commands!r}):\n"
            f"    code = main([command, '--threads', '1', '--out', "
            f"{str(tmp_path)!r} + '/' + str(i)])\n"
            f"    print(command, code, {LOADED_SCIPY})\n")
    lines = run_python(code).splitlines()
    assert lines == [f"{command} 0 []" for command in commands]


@pytest.mark.parametrize("n_oracle, bc", [(12, "periodic"), (14, "periodic"),
                                         (11, "open")])
def test_only_the_large_open_oracle_loads_scipy(tmp_path, n_oracle, bc):
    # every periodic sector is small enough for the dense eigensystem; the
    # open chain past DENSE_LIMIT runs Chebyshev on a sparse matrix (its
    # rows are the documented mismatch, so the tolerance is loose)
    config = write_config(tmp_path, f"[oracle]\nn_oracle = {n_oracle}\n"
                                    f"bc = {bc}\n[quench]\nt_max = 1.0\n")
    code = ("import sys; from tfim_dqpt.cli import main\n"
            f"code = main(['oracle-compare', '--gf', '1.2', '--threads', '1', "
            f"'--tolerance', '1', '--config', {config!r}, '--out', "
            f"{str(tmp_path / 'out')!r}])\n"
            f"print(code, {LOADED_SCIPY})\n")
    code, loaded = run_python(code).split(" ", 1)
    assert code == "0"
    if bc == "periodic":
        assert loaded == "[]"
    else:
        assert "'scipy.sparse'" in loaded


def reference_fmt(value) -> str:
    """The per-cell CSV formatter the columnar writer replaced."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value) + 0.0)
    return str(value)


def reference_jsonable(value):
    """The per-cell JSON conversion the columnar writer replaced."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value) + 0.0
    return value


def reference_table(columns, rows, fmt: str) -> bytes:
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([reference_fmt(cell) for cell in row])
        return buffer.getvalue().encode()
    payload = {"columns": columns,
               "rows": [[reference_jsonable(cell) for cell in row]
                        for row in rows]}
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


COLUMN_POOLS = {
    "float64": [-0.0, 0.0, 5e-324, 0.1 + 0.2, -1.0 / 3.0, 1e16, np.inf,
                -np.inf, np.nan, 2.0],
    "int64": [2 ** 53 + 1, -2 ** 62, 0, -7],
    "bool": [True, False],
    "strings": ["", "fidelity", "a,b", 'q"t', '""', "line\nbreak"],
    "mixed": ["", 0.0, 0.7853981633974483, np.nan, 1e-300],
}
COLUMN_KINDS = sorted(COLUMN_POOLS)


class TestColumnarWriter:
    FLOATS = np.array([-0.0, 0.0, 1e-300, 5e-324, 2.2250738585072014e-308 / 3,
                       0.1 + 0.2, -1.0 / 3.0, 2.0 ** 60, 1e16, 123456789.12345678,
                       np.pi, -np.e, 0.5, np.inf, -np.inf, np.nan, 7.0])

    def table(self):
        n = self.FLOATS.size
        rng = np.random.default_rng(4)
        ints = rng.integers(-10 ** 12, 10 ** 12, size=n)
        bools = rng.random(n) < 0.5
        strings = [["", "fidelity", "a,b", 'q"t'][i % 4] for i in range(n)]
        mixed = ["" if i % 3 == 0 else v
                 for i, v in enumerate((self.FLOATS + 0.0).tolist())]
        data = [self.FLOATS, ints, bools, strings, mixed, -self.FLOATS]
        rows = list(zip(self.FLOATS, ints, bools, strings, mixed, -self.FLOATS))
        return ["x", "n", "flag", "label", "phi", "neg"], data, rows

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("chunk", [3, cli.CHUNK_ROWS])
    def test_bytes_equal_per_cell_reference(self, tmp_path, monkeypatch,
                                            fmt, chunk):
        monkeypatch.setattr(cli, "CHUNK_ROWS", chunk)
        columns, data, rows = self.table()
        name = cli._write_table(str(tmp_path), "table", columns, data, fmt)
        assert name == f"table.{fmt}"
        assert (tmp_path / name).read_bytes() == reference_table(columns, rows, fmt)
        assert not (tmp_path / f"{name}.tmp").exists()

    def repeated_table(self):
        """Long columns of heavily repeated values, as the sweeps write."""
        n = self.FLOATS.size
        strings = ["", "fidelity", "a,b", 'q"t', '""']
        mixed = [""] + (self.FLOATS + 0.0).tolist()
        data = [np.repeat(self.FLOATS, 23),
                np.tile(np.array([2 ** 53 + 1, -2 ** 62, 0, 7, 2 ** 63 - 1]),
                        n * 23 // 5 + 1)[:n * 23],
                np.tile(np.repeat([True, False, False], 4), n * 23)[:n * 23],
                [strings[i // 5 % len(strings)] for i in range(n * 23)],
                [mixed[i % len(mixed)] for i in range(n * 23)],
                np.tile(-self.FLOATS, 23)]
        rows = list(zip(*data))
        return ["x", "n", "flag", "label", "phi", "neg"], data, rows

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("chunk", [3, 7, cli.CHUNK_ROWS])
    def test_repeated_values_equal_per_cell_reference(self, tmp_path,
                                                       monkeypatch, fmt, chunk):
        # chunk edges fall inside runs of one value
        monkeypatch.setattr(cli, "CHUNK_ROWS", chunk)
        columns, data, rows = self.repeated_table()
        name = cli._write_table(str(tmp_path), "table", columns, data, fmt)
        assert (tmp_path / name).read_bytes() == reference_table(columns, rows, fmt)

    @given(st.integers(0, 40), st.lists(st.sampled_from(COLUMN_KINDS),
                                        min_size=2, max_size=5),
           st.sampled_from([1, 2, 5, 16384]), st.sampled_from(["csv", "json"]),
           st.data())
    def test_drawn_columns_equal_per_cell_reference(self, n_rows, kinds, chunk,
                                                    fmt, data):
        columns, table = [], []
        for i, kind in enumerate(kinds):
            pool = COLUMN_POOLS[kind]
            picks = data.draw(st.lists(st.integers(0, len(pool) - 1),
                                       min_size=n_rows, max_size=n_rows))
            values = [pool[j] for j in picks]
            columns.append(f"c{i}" if i % 2 else f"c,{i}")
            table.append(values if kind in ("strings", "mixed")
                         else np.array(values, dtype=kind))
        with tempfile.TemporaryDirectory() as outdir, \
                mock.patch.object(cli, "CHUNK_ROWS", chunk):
            name = cli._write_table(outdir, "t", columns, table, fmt)
            with open(os.path.join(outdir, name), "rb") as handle:
                written = handle.read()
        assert written == reference_table(columns, list(zip(*table)), fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, fmt):
        calls = []

        def failing(column, fmt):
            calls.append(1)
            if len(calls) > 2:         # the second chunk of two columns
                raise MemoryError("simulated")
            return cells(column, fmt)

        cells = cli._cells
        monkeypatch.setattr(cli, "CHUNK_ROWS", 3)
        monkeypatch.setattr(cli, "_cells", failing)
        with pytest.raises(MemoryError):
            cli._write_table(str(tmp_path), "t", ["a", "b"],
                             [np.arange(10.0), np.arange(10)], fmt)
        assert list(tmp_path.iterdir()) == []

    def test_failed_atomic_write_leaves_no_file(self, tmp_path):
        def pieces():
            yield "partial"
            raise OSError("simulated")

        with pytest.raises(OSError):
            cli._atomic_write(str(tmp_path / "x.json"), pieces())
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_table(self, tmp_path, fmt):
        name = cli._write_table(str(tmp_path), "empty", ["a", "b"],
                                [np.zeros(0), []], fmt)
        assert (tmp_path / name).read_bytes() == reference_table(["a", "b"], [], fmt)

    def test_otoc_csv_equals_json_rows(self, tmp_path):
        # every subcommand's tables, CSV text against the parsed JSON cells
        cfg = write_config(tmp_path, "[quench]\nt_points = 7\n"
                                     "tau_points = 5\n")
        commands = {"otoc": ("otoc_surface", "spectra"),
                    "spectra": ("spectra",),
                    "rate-function": ("rate_function",),
                    "heatmap": ("return_prob",),
                    "oracle-compare": ("compare",),
                    "pulse-schedule": ("schedule",)}
        for command, stems in commands.items():
            base = [command, "--n", "6", "--gf", "0.7,1.0,1.3", "--nphi", "9",
                    "--nt", "4", "--config", cfg]
            csv_out, json_out = tmp_path / command / "c", tmp_path / command / "j"
            assert main([*base, "--out", str(csv_out)]) == 0
            assert main([*base, "--out", str(json_out), "--format", "json"]) == 0
            for stem in stems:
                header, csv_rows = read_csv(csv_out / f"{stem}.csv")
                payload = read_json(json_out / f"{stem}.json")
                assert payload["columns"] == header
                assert len(payload["rows"]) == len(csv_rows) > 0
                for csv_row, json_row in zip(csv_rows, payload["rows"]):
                    assert csv_row == [reference_fmt(cell) for cell in json_row]
        phis = {type(row[2]) for row in read_json(
            tmp_path / "oracle-compare" / "j" / "compare.json")["rows"]}
        assert phis == {float, str}             # "" on the rate rows
        flags = {row[-1] for row in read_json(
            tmp_path / "pulse-schedule" / "j" / "schedule.json")["rows"]}
        assert flags == {True, False}
        for _, _, _, _, re_, im_, abs_ in read_json(
                tmp_path / "otoc" / "j" / "spectra.json")["rows"]:
            assert abs_ == abs(complex(re_, im_))


class TestResourceAndRangeGuards:
    @pytest.mark.parametrize("command", ["rate-function", "otoc",
                                         "oracle-compare"])
    def test_infinite_t_max_is_refused(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, "[quench]\nt_max = inf\n")
        out = tmp_path / "out"
        assert main([command, "--out", str(out), "--config", cfg]) == 2
        assert "quench.t_max" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("argv, config, field", [
        (["--gi", "nan"], "", "quench.g_i"),
        (["--n", "1"], "", "quench.n"),
        (["--nphi", "2"], "", "echo.n_phi"),
        ([], "[echo]\naggregation = median\n", "echo.aggregation"),
        ([], "[quench]\ngrid = foo\n", "quench.grid"),
    ])
    def test_invalid_model_value_is_refused(self, tmp_path, capsys, argv,
                                            config, field):
        out = tmp_path / "out"
        assert main(["otoc", "--out", str(out), *argv,
                     "--config", write_config(tmp_path, config)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_mode_grid_is_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["rate-function", "--out", str(out),
                     "--n", str(10 ** 8)]) == 2
        assert "mode budget" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command, flag, value", [
        ("rate-function", "--n", 10 ** 400),
        ("heatmap", "--n", 10 ** 400),
        ("pulse-schedule", "--n", 10 ** 400),
        ("pulse-schedule", "--n", 10 ** 8),
        ("otoc", "--nphi", 10 ** 400),
    ], ids=["rate-n-1e400", "heatmap-n-1e400", "pulse-n-1e400", "pulse-n-1e8",
            "otoc-nphi-1e400"])
    def test_huge_size_is_refused(self, tmp_path, capsys, command, flag,
                                  value):
        # 10**400 overflows a float; 10**8 schedule entries would need
        # about 80 GB: both are refused by the mode budget, exit 2
        out = tmp_path / "out"
        assert main([command, "--out", str(out), "--gf", "1.2",
                     flag, str(value)]) == 2
        assert "mode budget" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_oversized_echo_scan_is_refused(self, tmp_path, capsys,
                                            monkeypatch):
        # 31 modes x 500 times fit a 300 kB budget; 4096 angles do not
        monkeypatch.setattr(quench, "MODE_BUDGET_BYTES", 300_000)
        out = tmp_path / "out"
        assert main(["otoc", "--out", str(out), "--gf", "1.2",
                     "--nphi", "4096"]) == 2
        assert "mode budget" in capsys.readouterr().err
        assert not any(out.iterdir())
