"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest benchmarks/test_bench.py

They run the benchmark in ``--quick`` mode only and assert nothing about
time.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

sys.path.insert(0, bench.SRC)   # check() reads the echo oracle from the package

with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(*args, cwd=bench.ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert SPEC["command"] == ["python3", "benchmarks/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_quick_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    info = json.loads(proc.stdout.splitlines()[-2])
    assert info["env"]["seed"] == 5 and info["env"]["blas_pin"] == bench.BLAS_PIN
    assert not os.path.exists(bench.WORK)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "otoc-sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_same_seed_same_inputs(workload):
    first = bench.draw_inputs(workload, 7)
    assert first == bench.draw_inputs(workload, 7)
    assert first != bench.draw_inputs(workload, 8)
    spec = bench.WORKLOADS[workload]
    fields = first["fields"]
    above, below = fields[:spec["above"]], fields[spec["above"]:]
    assert len(below) == spec["below"]
    assert all(bench.ABOVE[0] <= g <= bench.ABOVE[1] for g in above)
    assert all(bench.BELOW[0] <= g <= bench.BELOW[1] for g in below)


def test_failed_sample_counts_against_the_run():
    good = {"reasons": [], "wall_s": 1.0, "setup_s": 0.2, "run_s": 0.7,
            "cpu_s": 1.1, "peak_rss_mb": 50.0}
    bad = dict(good, reasons=["exit code 3"])
    out = bench.result({"probes": [], "samples": [good, bad], "traced": []},
                       trace=False)
    assert out["correct"] is False
    assert (out["attempted"], out["failed"]) == (2, 1)
    assert out["metrics"]["ok_frac"]["value"] == 0.5


def _set_checksum(out, name, digest=None):
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    if digest is None:
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
    manifest["checksums"][name] = digest
    path.write_text(json.dumps(manifest))


def test_gate_catches_tampered_float_and_checksum(tmp_path):
    name = "otoc-sweep"
    config = bench.config_for(name, quick=True)
    inputs = bench.draw_inputs(name, 5, quick=True)
    sample = bench.invoke(name, inputs, config, str(tmp_path), "run",
                          deadline=time.monotonic() + 120)
    assert sample["reasons"] == []
    out = tmp_path / "out"
    surface = out / "otoc_surface.csv"
    pristine = surface.read_text()

    # one float in a checked cell, with the manifest made to agree
    f, p, j = inputs["cells"][0]
    phi = 2.0 * 3.141592653589793 * p / config["echo"]["n_phi"]
    t = config["quench"]["t_max"] * j / (config["quench"]["t_points"] - 1)
    lines = pristine.splitlines()
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if float(cells[0]) == inputs["fields"][f] and \
                abs(float(cells[1]) - phi) < 1e-12 and abs(float(cells[2]) - t) < 1e-12:
            cells[4] = repr(float(cells[4]) + 1e-9)
            lines[i] = ",".join(cells)
            break
    else:
        pytest.fail("checked cell not found")
    surface.write_text("\n".join(lines) + "\n")
    _set_checksum(out, "otoc_surface.csv")
    reasons, _ = bench.check(name, inputs, config, str(out))
    assert any("otoc_surface.csv: cell" in r for r in reasons)

    # pristine data, one checksum altered
    surface.write_text(pristine)
    _set_checksum(out, "otoc_surface.csv")
    assert bench.check(name, inputs, config, str(out))[0] == []
    _set_checksum(out, "spectra.csv", "0" * 64)
    reasons, _ = bench.check(name, inputs, config, str(out))
    assert reasons == ["spectra.csv: sha256 does not match manifest"]
