"""Command-line artifacts: schemas, determinism, exit codes, config plumbing."""

from __future__ import annotations

import contextlib
import copy
import csv
import functools
import hashlib
import io
import itertools
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tfim_dqpt import cli, otoc, quench, su2
from tfim_dqpt.cli import main
from tfim_dqpt.errors import InvalidArgumentError, ResourceGuardError

T_C_12 = np.pi / (2.0 * np.sqrt(0.44))
FORKS_HERE = pytest.mark.skipif(sys.platform != "linux",
                                reason="fields fork on Linux only")


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

    @pytest.mark.parametrize("points", [160, 1000])
    def test_even_grid_finds_the_flat_bottomed_well(self, tmp_path, points):
        # an even dw_tau_points would leave tau = 1/2 unsampled; the verdict
        # is the closed-form depth, so it samples nothing and reads the same
        out = tmp_path / "otoc"
        cfg = write_config(tmp_path, f"[echo]\ndw_tau_points = {points}\n")
        assert main(["otoc", "--out", str(out), "--config", cfg]) == 0
        results = read_json(out / "doublewell.json")["results"]
        verdicts = {entry["g_f"]: entry["classification"] for entry in results}
        assert verdicts == {0.5: "single_well", 0.8: "single_well",
                            1.2: "double_well"}
        for entry in results:
            assert (entry["classification"] == "double_well") \
                == (entry["margin"] >= 0.0)

    def test_complex_spectra_abs_is_pythons_abs(self, tmp_path):
        # product fidelity spectra have imaginary parts, where np.abs can
        # differ from abs() in the last bit
        out = tmp_path / "spectra"
        assert main(["spectra", "--out", str(out), "--aggregation", "product",
                     "--format", "json"]) == 0
        rows = read_json(out / "spectra.json")["rows"]
        assert any(row[5] != 0.0 for row in rows)
        for _, _, _, _, re_, im_, abs_ in rows:
            assert abs_ == abs(complex(re_, im_))

    def test_doublewell_depth_and_margin(self, tmp_path):
        out = tmp_path / "otoc"
        assert main(["otoc", "--out", str(out), "--n", "12"]) == 0
        wells = read_json(out / "doublewell.json")
        eps_dw = wells["detector"]["eps_dw"]
        for entry in wells["results"]:
            depth = otoc.double_well_depth(0.0, entry["g_f"], 12)
            assert entry["depth"] == depth
            assert entry["margin"] == depth - eps_dw
            assert (entry["classification"] == "double_well") \
                == (entry["margin"] >= 0.0)

    def test_depth_at_the_threshold_is_a_double_well(self, tmp_path):
        # the verdict is depth >= eps_dw: a threshold equal to the depth
        # leaves a margin of exactly 0.0, and that reads double_well
        depth = otoc.double_well_depth(0.0, 1.2, 30)
        out = tmp_path / "otoc"
        assert main(["otoc", "--out", str(out), "--n", "30", "--gf", "1.2",
                     "--dw-threshold", repr(depth)]) == 0
        [entry] = read_json(out / "doublewell.json")["results"]
        assert depth > 0.0 and entry["margin"] == 0.0
        assert entry["classification"] == "double_well"

    @pytest.mark.parametrize("command", ["otoc", "spectra"])
    def test_mean_path_holds_no_mode_matrix_and_no_dft(self, tmp_path,
                                                       command):
        # the mean surfaces and spectra come from m(t) alone: no (modes, n_t)
        # matrix, no scan call and no DFT; spectra builds no surface
        refused = {"_probabilities": quench, "fidelity_otoc": otoc,
                   "magnetization_otoc": otoc, "mqc_components": otoc}
        if command == "spectra":
            refused["_mean_surface"] = otoc
        with contextlib.ExitStack() as stack:
            for name, module in refused.items():
                stack.enter_context(mock.patch.object(
                    module, name, side_effect=AssertionError(name)))
            assert main([command, "--out", str(tmp_path / "out")]) == 0

    def test_verdicts_match_the_literal_dft_path(self):
        # A_1 as the order-1 DFT of the 64-angle magnetization surface at
        # 161 normalized times, the literal path, on a 0.05 grid of fields;
        # the detector reads it within 0.4 of t_c, as criterion 07 does
        eps_dw = cli.DEFAULTS["sweep"]["dw_threshold"]
        taus = np.linspace(0.0, 1.0, 161)
        kinds = set()
        for g_i in (0.0, 0.5, -0.3):
            for g_f in np.round(np.arange(0.05, 2.5, 0.05), 2):
                spec = quench.QuenchSpec(g_i, g_f, 30)
                config = otoc.EchoConfig(spec, taus, n_phi=64,
                                         time_mode="normalized")
                a1 = np.real(otoc.coherence_series(otoc.spectrum_dynamics(
                    config, "magnetization", 1), 1))
                literal = otoc.double_well_detector(taus, a1, 0.5, 0.4, eps_dw)
                well = cli._well(spec, eps_dw)
                assert well["classification"] == literal, (g_i, g_f)
                assert (well["margin"] >= 0.0) == (literal == "double_well")
                kinds.add(literal)
        assert kinds == {"single_well", "double_well"}

    @pytest.mark.parametrize("aggregation", ["mean", "product"])
    @pytest.mark.parametrize("n, n_t, eps_dw", [(30, 500, 1e-3),
                                                (2000, 64, 1e-3),
                                                (30, 500, None)])
    def test_job_holds_no_more_than_its_counts(self, aggregation, n, n_t,
                                               eps_dw):
        # one field's work: the job, with the scan's one count taken before
        # it, then under otoc (eps_dw given) the parent's double-well entry,
        # whose mode geometry that count holds.  The job returns m(t) and,
        # under product, the fidelity surface, and nothing else
        e = dict(cli.DEFAULTS["echo"], aggregation=aggregation)
        spec = quench.QuenchSpec(0.0, 1.2, n)
        ts = np.linspace(0.0, 5.0, n_t)
        counted, guard = [], quench._require_budget

        def recording(need, what):
            counted.append(need)
            guard(need, what)

        with mock.patch.object(quench, "_require_budget", recording):
            tracemalloc.start()
            try:
                m, fidelity = cli._job_otoc(spec, ts, e)
                peak = tracemalloc.get_traced_memory()[1]
                if eps_dw is not None:     # beside the job's result
                    tracemalloc.reset_peak()
                    held = tracemalloc.get_traced_memory()[0]
                    cli._well(spec, eps_dw)
                    well_peak = tracemalloc.get_traced_memory()[1] - held
            finally:
                tracemalloc.stop()
        assert len(counted) == 1 and peak <= counted[0]
        assert m.shape == (n_t,)
        assert (fidelity is None) == (aggregation == "mean")
        if eps_dw is not None:
            assert well_peak <= counted[0]

    @pytest.mark.parametrize("n", [160, 100_000])
    @pytest.mark.parametrize("g_f", [0.5, 1.2])
    def test_well_holds_no_more_than_its_count(self, n, g_f):
        # the parent's double-well entry is the closed-form depth: its mode
        # geometry alone, the count double_well_depth checks
        spec = quench.QuenchSpec(0.0, g_f, n)
        tracemalloc.start()
        try:
            cli._well(spec, cli.DEFAULTS["sweep"]["dw_threshold"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= quench._working_set(spec.n_distinct, 0, 0)


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

    @pytest.mark.parametrize("seed", range(8))
    def test_message_names_the_first_largest_row(self, tmp_path, capsys,
                                                 monkeypatch, seed):
        # differences in quarters, each block's below its own drawn cap, so
        # the largest is tied; NaN rows never count
        def job(spec, ts, phis, echo_ts):
            rng = np.random.default_rng([seed, round(10 * spec.g_f)])
            gaps = [rng.integers(0, rng.integers(1, 5), shape) / 4.0
                    for shape in (ts.shape, *2 * [(phis.size, echo_ts.size)])]
            for gap in gaps:
                gap.flat[rng.integers(0, gap.size, 3)] = np.nan
            return gaps

        monkeypatch.setattr(cli, "_job_compare", job)
        out = tmp_path / "out"
        assert main(["oracle-compare", "--gf", "0.5,0.8,1.2",
                     "--out", str(out)]) == 1
        _, rows = read_csv(out / "compare.csv")
        ranked = [-np.inf if np.isnan(float(row[4])) else float(row[4])
                  for row in rows]
        g_f, quantity, _, t, gap = rows[int(np.argmax(ranked))]
        assert capsys.readouterr().err.startswith(
            f"tolerance failure: worst difference {float(gap):.3e} > tolerance "
            f"1.000e-06 ({quantity}, g_f={float(g_f)}, t={float(t):.6f}, "
            f"grid=abc)\n")

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


# the critical fields close a final gap on the grid: idle rows at k = 0, 2pi
# (g_f = 1) and k = pi (g_f = -1)
critical_fields = (st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
                   | st.sampled_from([1.0, -1.0]))
CORRUPTIONS = ("arcsin_axis", "rabi_rate", "duration")


def closed_form_deviation(sched, g_f, c):
    """The replay check of ``cli._job_pulse``, run on the given schedule."""
    with mock.patch.object(quench, "pulse_schedule", return_value=sched):
        return cli._job_pulse(quench.QuenchSpec(0.0, g_f, 2), c,
                              sched.durations.shape[1])[1]


def literal_deviation(sched, g_f, c):
    """Largest |replay_unitary - evolution_unitary| entry, pulse by pulse.

    The target of duration T is the propagator of d_f(k) at c T / 2, whose
    angle c |d_f| T / 2 must also be pi j / (n_t - 1) at index j (the angle
    difference counts too); idle rows replay and target the identity.
    """
    n_t = sched.durations.shape[1]
    worst = 0.0
    for entry in sched:
        d_f = quench.bloch_vector(g_f, entry.k)
        for j, duration in enumerate(entry.durations):
            replay = quench.replay_unitary(entry, duration)
            if entry.idle:
                target, drift = np.eye(2), 0.0
            else:
                target = su2.evolution_unitary(d_f, c * duration / 2.0)
                drift = abs(c * np.linalg.norm(d_f) * duration / 2.0
                            - np.pi * j / (n_t - 1))
            worst = max(worst, drift, float(np.max(np.abs(replay - target))))
    return worst


def retimed(sched, rate):
    """``sched`` driven at ``rate``, its durations following: period 2 pi/rate."""
    bad = sched.copy()
    bad.durations *= np.divide(sched.rabi_rate, rate, out=np.zeros_like(rate),
                               where=~sched.idle)[:, None]
    bad.rabi_rate = rate
    return bad


class TestReplayCheck:
    """The closed-form replay check against the literal per-pulse one."""

    @example(1.2, 8, "paper", 1.0, 5, 0, "arcsin_axis")
    @example(-1.5, 9, "abc", 0.3, 7, 0, "arcsin_axis")
    @given(critical_fields, st.integers(2, 30), st.sampled_from(["paper", "abc"]),
           st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e), st.integers(2, 12),
           st.integers(0, 10 ** 6), st.sampled_from(CORRUPTIONS))
    def test_corrupted_column_is_caught_as_the_literal_check_sees_it(
            self, g_f, n, grid, c, n_t, pick, corruption):
        sched = quench.pulse_schedule(quench.QuenchSpec(0.0, g_f, n, grid),
                                      c=c, n_t=n_t)
        assert closed_form_deviation(sched, g_f, c) <= 1e-12
        assert literal_deviation(sched, g_f, c) <= 1e-12
        bad, live = sched.copy(), np.flatnonzero(~sched.idle)
        visible = True
        if corruption == "arcsin_axis":
            # the quoted arcsin(d_y / |d_f|): wrong where d_x < 0, that is
            # |g_f| > 1 near k = 0 (g_f > 1) or k = pi (g_f < -1)
            d_x = 1.0 - g_f * np.cos(sched.k[live])
            d_y = g_f * np.sin(sched.k[live])
            bad.axis_angle[live] = np.arcsin(
                np.clip(d_y / np.hypot(d_x, d_y), -1.0, 1.0))
            # an axis error shows through sin a, a = pi j / (n_t - 1): a
            # schedule of n_t = 2 turns by 0 and pi only, on any axis
            moved = np.abs(np.exp(1j * bad.axis_angle)
                           - np.exp(1j * sched.axis_angle)).max()
            visible = moved * np.sin(np.linspace(0.0, np.pi, n_t)).max() > 1e-6
        elif corruption == "rabi_rate":
            bad.rabi_rate *= 1.0 + 1e-6
        else:
            row = live[pick % live.size]
            bad.durations[row, pick % n_t] += 1e-6 * sched.durations[row, -1]
        closed = closed_form_deviation(bad, g_f, c)
        assert abs(closed - literal_deviation(bad, g_f, c)) <= 1e-12
        if visible:
            assert closed > 1e-7

    @pytest.mark.parametrize("mistake", ["constant dropped", "sqrt dropped"])
    @pytest.mark.parametrize("g_f", [0.5, 1.2])
    def test_schedule_at_a_wrong_rate_is_caught(self, g_f, mistake):
        # the durations follow the wrong rate, so only the constant shows it
        c = 2.5
        sched = quench.pulse_schedule(quench.QuenchSpec(0.0, g_f, 8), c=c)
        rate = sched.rabi_rate / c
        if mistake == "sqrt dropped":
            rate = c * rate ** 2
        bad = retimed(sched, rate)
        assert closed_form_deviation(bad, g_f, c) > 1e-2
        assert literal_deviation(bad, g_f, c) == pytest.approx(
            closed_form_deviation(bad, g_f, c), abs=1e-12)

    @pytest.mark.parametrize("g_f, n_t", [(1.2, 2), (1.2, 100), (1.0, 2),
                                          (1.2, 500)])
    def test_check_holds_no_more_than_its_guard_counts(self, monkeypatch,
                                                       g_f, n_t):
        # the four (n_k, n_t) arrays and numpy's iteration buffers
        spec = quench.QuenchSpec(0.0, g_f, 2000)
        sched = quench.pulse_schedule(spec, n_t=n_t)
        counted = []
        guard = quench._require_budget

        def recording(need, what):
            counted.append(need)
            guard(need, what)

        monkeypatch.setattr(quench, "_require_budget", recording)
        monkeypatch.setattr(quench, "pulse_schedule", lambda *_, **__: sched)
        tracemalloc.start()
        try:
            _, deviation = cli._job_pulse(spec, 1.0, n_t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert deviation <= 1e-13 and len(counted) == 1
        assert peak <= counted[0]

    def test_cli_path_replays_no_single_pulse(self, tmp_path):
        with mock.patch.object(su2, "evolution_unitary",
                               side_effect=AssertionError), \
                mock.patch.object(quench, "replay_unitary",
                                  side_effect=AssertionError):
            assert main(["pulse-schedule", "--out", str(tmp_path / "p"),
                         "--gf", "1.0,1.2"]) == 0
        assert read_json(tmp_path / "p" / "replay_check.json")[
            "max_deviation"] <= 1e-13

    @pytest.mark.parametrize("constant", ["1e-320", "1e308"])
    @pytest.mark.parametrize("g_f", ["1.0", "1.2"])
    def test_pulse_constant_out_of_float_range_is_refused(
            self, tmp_path, capsys, constant, g_f):
        # 2 pi / Omega overflows at 1e-320, Omega itself at 1e308
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["pulse-schedule", "--out", str(out), "--gf", g_f,
                         "--pulse-constant", constant]) == 2
        assert f"pulse constant {float(constant)}" in capsys.readouterr().err
        assert not list(out.glob("schedule.*"))

    def test_infinite_pulse_constant_is_refused_up_front(self, tmp_path,
                                                         capsys):
        out = tmp_path / "out"
        assert main(["pulse-schedule", "--out", str(out),
                     "--pulse-constant", "inf"]) == 2
        assert "sweep.pulse_constant" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("source", ["flag", "ini"])
    def test_empty_output_path_is_refused_before_any_field(
            self, tmp_path, monkeypatch, capsys, source):
        # outputs.out is a nonempty path: the config path refuses "" before
        # any field runs or any directory is made
        argv = (["rate-function", "--out", ""] if source == "flag" else
                ["rate-function", "--config",
                 write_config(tmp_path, "[outputs]\nout =\n")])
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        fields = []
        monkeypatch.setattr(quench, "rate_function",
                            lambda *args, **kwargs: fields.append(args))
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: outputs.out: must be a nonempty path")
        assert fields == [] and not any(work.iterdir())

    def test_unknown_config_key(self, tmp_path, capsys):
        path = write_config(tmp_path, "[quench]\nwavelength = 3\n")
        assert main(["rate-function", "--out", str(tmp_path), "--config",
                     path]) == 2
        assert "wavelength" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["rate-function", "--out", str(tmp_path), "--config",
                     str(tmp_path / "nope.ini")]) == 2

    @pytest.mark.parametrize("text, message", [
        ("n = 8\n", "malformed config file"),
        ("[quench]\nn\n", "malformed config file"),
        ("[lattice]\nn = 8\n", "unknown config section [lattice]")],
        ids=["no-section", "no-value", "unknown-section"])
    def test_unreadable_config_is_refused(self, tmp_path, capsys, text,
                                          message):
        out = tmp_path / "out"
        assert main(["rate-function", "--out", str(out), "--config",
                     write_config(tmp_path, text)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


# flag -> (section, key), from the rows of cli.KEYS that have a flag
FLAGS = {flag: (section, key) for section, key, *_, flag, _ in cli.KEYS if flag}
# a valid string for each flag's key; the equivalence test also draws
# near misses and arbitrary text for every key but outputs.out, which it
# keeps inside a temporary directory
FLAG_VALUES = {
    "--out": st.text("abcxyz_", min_size=1, max_size=8),
    "--format": st.sampled_from(["csv", "json"]),
    "--gf": st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3).map(
        lambda fields: ",".join(map(repr, fields))),
    "--gi": st.floats(-3.0, 3.0).map(repr),
    "--n": st.integers(2, 40).map(str),
    "--grid": st.sampled_from(["paper", "abc"]),
    "--aggregation": st.sampled_from(["mean", "product"]),
    "--nphi": st.integers(7, 128).map(str),
    "--tolerance": st.floats(1e-12, 1.0).map(repr),
    "--dw-threshold": st.floats(1e-6, 1.0).map(repr),
    "--pulse-constant": st.floats(1e-3, 1e3).map(repr),
    "--nt": st.integers(2, 200).map(str),
}
NEAR_MISSES = st.sampled_from([
    "", "0", "-1", "1.5", "3.0", "1e400", "inf", "-inf", "nan", "10" * 40,
    "1,2", ",", "50%", "%(n)s", "paper", "product", "json", "0x10", "1_0"])
# configparser strips a value's outer whitespace and ends it at a line break
ANY_TEXT = st.text(st.characters(blacklist_categories=("Cs", "Cc")),
                   max_size=10).filter(lambda raw: raw == raw.strip())


def flag_and_raw(flag: str):
    values = FLAG_VALUES[flag]
    if flag != "--out":
        values = st.one_of(values, NEAR_MISSES, ANY_TEXT)
    return st.tuples(st.just(flag), values)


def key_and_raw(row):
    """A KEYS row's name and a near miss or arbitrary text for it; for
    outputs.out one that stays inside the directory it is joined to."""
    values = st.one_of(NEAR_MISSES, ANY_TEXT)
    if row[:2] == ("outputs", "out"):
        values = values.filter(lambda raw: "/" not in raw
                               and raw not in (".", ".."))
    return st.tuples(st.just(f"{row[0]}.{row[1]}"), values)


def assert_names_key(lines: list[str], name: str) -> None:
    """Each refusal line but a mode-budget one names ``name`` first; the one
    cross-key rule, n_phi >= 2 m_max + 1, names echo.n_phi first and then
    echo.m_max."""
    for line in lines:
        if "mode budget" in line:
            continue
        first = re.match(r"configuration error: ([\w.]+)[: ]", line)
        assert first, line
        assert first[1] == name or (first[1], name) == (
            "echo.n_phi", "echo.m_max") and name in line, line


def manifest_only(resolved):
    """A command that only writes its manifest: the resolved config."""
    cli._write_manifest(resolved["outputs"]["out"], "otoc", resolved, [])


class TestFlags:
    def test_each_flag_is_listed_once_with_its_key(self):
        for command in cli.COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()) as text, \
                    pytest.raises(SystemExit):
                main([command, "--help"])
            lines = text.getvalue().splitlines()
            for flag, (section, key) in FLAGS.items():
                listed = [line for line in lines
                          if line.split()[:2] == [flag, f"{section}.{key}"]]
                assert len(listed) == 1, (command, flag)
        keys = list(FLAGS.values())
        assert len(set(keys)) == len(keys) == len(FLAGS)
        assert all(key in cli.DEFAULTS[section] for section, key in keys)

    def test_help_names_every_command(self):
        # one help page; each command's line is its COMMANDS help, which
        # python -OO keeps (it strips docstrings)
        with contextlib.redirect_stdout(io.StringIO()) as text, \
                pytest.raises(SystemExit) as exited:
            main(["--help"])
        assert exited.value.code == 0
        lines = [line.split(None, 1) for line in text.getvalue().splitlines()]
        for name, (_, help_text) in cli.COMMANDS.items():
            assert [name, help_text] in lines, name

    def test_flags_may_come_before_the_command(self, tmp_path):
        before, after = tmp_path / "before", tmp_path / "after"
        assert main(["--out", str(before), "--n", "12", "rate-function"]) == 0
        assert main(["rate-function", "--n", "12", "--out", str(after)]) == 0
        for name in ("rate_function.csv", "critical_times.json"):
            assert (before / name).read_bytes() == (after / name).read_bytes()

    @given(st.sampled_from(sorted(FLAGS)).flatmap(flag_and_raw))
    @example(("--grid", "foo"))
    @example(("--n", "3.0"))
    @example(("--gf", "-0.5,1.2"))
    @example(("--dw-threshold", "inf"))
    @example(("--n", "10" * 40))        # a mode-budget refusal
    def test_flag_and_ini_key_are_one_rule(self, drawn):
        # the same string as a flag and as an INI value: the same exit code,
        # stderr and resolved config; the command only writes its manifest
        flag, raw = drawn
        section, key = FLAGS[flag]
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.dict(cli.COMMANDS, {"otoc": (manifest_only, "")}):
            out, out_flag = os.path.join(tmp, "out"), []
            if flag == "--out":
                raw = out = os.path.join(tmp, raw)
            else:
                out_flag = ["--out", out]
            ini = Path(tmp) / "flag.ini"
            ini.write_text(f"[{section}]\n{key} = {raw}\n", encoding="utf-8")
            runs = []
            for argv in ([f"{flag}={raw}"], ["--config", str(ini)]):
                with contextlib.redirect_stderr(io.StringIO()) as err:
                    code = main(["otoc", *argv, *out_flag])
                config = None
                if os.path.exists(out):
                    config = read_json(Path(out) / "manifest.json")["config"]
                    shutil.rmtree(out)
                runs.append((code, [line for line in err.getvalue().splitlines()
                                    if not line.startswith("completed in")],
                             config))
        assert runs[0] == runs[1]
        code, lines, config = runs[0]
        assert code in (0, 2) and (code == 0) == (config is not None)
        if code == 2:
            assert lines
            assert_names_key(lines, f"{section}.{key}")

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_flags_and_ini_write_the_same_files(self, tmp_path, command):
        flags = {"--format": "json", "--gf": "0.7,1.3", "--gi": "0",
                 "--n": "6", "--grid": "abc", "--aggregation": "product",
                 "--nphi": "9", "--tolerance": "1", "--dw-threshold": "0.002",
                 "--pulse-constant": "1.5", "--nt": "4"}
        if command == "oracle-compare":     # it refuses quench.n
            del flags["--n"]
        sections = {}
        for flag, raw in flags.items():
            section, key = FLAGS[flag]
            sections.setdefault(section, []).append(f"{key} = {raw}\n")
        cfg = write_config(tmp_path, "".join(
            f"[{section}]\n" + "".join(lines)
            for section, lines in sections.items()))
        out, files = tmp_path / "out", []
        for argv in ([arg for pair in flags.items() for arg in pair],
                     ["--config", cfg]):
            assert main([command, *argv, "--out", str(out)]) == 0
            files.append({path.name: path.read_bytes()
                          for path in out.iterdir()})
            shutil.rmtree(out)
        assert files[0] == files[1] and "manifest.json" in files[0]


class TestKeys:
    @given(st.sampled_from(sorted(cli.COMMANDS)),
           st.sampled_from(cli.KEYS).flatmap(key_and_raw))
    @example("otoc", ("echo.m_max", "-1"))
    @example("otoc", ("echo.m_max", "40"))
    @example("otoc", ("echo.n_phi", "5"))
    @example("rate-function", ("quench.g_f", "-inf"))
    @example("oracle-compare", ("quench.g_i", "0.5"))
    @example("oracle-compare", ("quench.n", "30"))
    @example("heatmap", ("oracle.bc", "open"))
    def test_every_refusal_names_its_key(self, command, drawn):
        # one key set in the INI file, every other at its default: a refusal
        # names that key first, whichever key it is and whatever command
        name, raw = drawn
        section, key = name.split(".")
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.dict(cli.COMMANDS, {command: (manifest_only, "")}):
            out = os.path.join(tmp, "out")
            out_flag = ["--out", out]
            if name == "outputs.out":
                raw = out = os.path.join(out, raw)
                out_flag = []
            ini = Path(tmp) / "key.ini"
            ini.write_text(f"[{section}]\n{key} = {raw}\n", encoding="utf-8")
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main([command, "--config", str(ini), *out_flag])
            assert code in (0, 2)
            assert (code == 0) == os.path.exists(os.path.join(out, "manifest.json"))
        lines = [line for line in err.getvalue().splitlines()
                 if not line.startswith("completed in")]
        assert bool(lines) == (code == 2)
        assert_names_key(lines, name)

    def test_readme_table_is_the_table(self):
        # README's key table holds each KEYS row: its flag, its default as
        # INI text, the rule's text and the help, row for row
        def ini_text(default):
            if isinstance(default, list):
                return ",".join(map(str, default))
            return str(default)

        expected = ["| INI key | flag | default | allowed values | meaning |",
                    "| --- | --- | --- | --- | --- |"]
        expected += [f"| `{section}.{key}` | {f'`{flag}`' if flag else 'INI only'} "
                     f"| `{ini_text(default)}` | {cli._allowed(rule)} | {text} |"
                     for section, key, default, rule, flag, text in cli.KEYS]
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8").splitlines()
        start = lines.index(expected[0])
        assert lines[start:start + len(expected)] == expected
        assert not lines[start + len(expected)].startswith("|")


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

    @FORKS_HERE
    @pytest.mark.parametrize("argv", [
        ["rate-function", "--n", "12", "--gf", "0.8,1.2,1.5"],
        ["otoc", "--n", "8", "--gf", "1.2,0.5", "--nphi", "8"]],
        ids=lambda argv: argv[0])
    def test_pooled_and_serial_runs_write_the_same_files(self, tmp_path,
                                                         monkeypatch, argv):
        # both runs write to one --out path, so manifest.json must match too
        usable_cpus(monkeypatch, 2)
        ks = fork_join_ks(monkeypatch)
        monkeypatch.setattr(cli, "POOL_MIN_CELLS", 0)
        out, pooled = tmp_path / "run", tmp_path / "pooled"
        assert main([*argv, "--out", str(out)]) == 0
        shutil.move(out, pooled)
        monkeypatch.setattr(cli, "POOL_MIN_CELLS", 2 ** 62)
        assert main([*argv, "--out", str(out)]) == 0
        assert ks == [2, 1]
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(p.name for p in pooled.iterdir())
        assert "manifest.json" in names
        for name in names:
            assert (pooled / name).read_bytes() == (out / name).read_bytes(), name


class ForkStarted(Exception):
    """Raised by a stand-in ``_fork_join`` in place of forking any child."""


def fork_started(fn, specs, workers):
    raise ForkStarted(workers)


def usable_cpus(monkeypatch, count: int) -> None:
    """``count`` CPUs in this process's affinity set."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def fork_join_ks(monkeypatch) -> list:
    """The participant count k of every ``_fork_join`` call, each then run
    as it is: k = 1 runs the fields in this process."""
    ks, fork_join = [], cli._fork_join
    monkeypatch.setattr(cli, "_fork_join", lambda fn, specs, k: (
        ks.append(k) or fork_join(fn, specs, k)))
    return ks


def record_forks(monkeypatch) -> list:
    """The pid of every child that ``os.fork`` starts from this process."""
    parent, pids, fork = os.getpid(), [], os.fork

    def recording_fork():
        pid = fork()
        if os.getpid() == parent:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids) -> None:
    # a child that is running, or a zombie, is still this process's child
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@contextlib.contextmanager
def within(seconds: int):
    """Fail the block, rather than hang, once it runs ``seconds``."""
    def expire(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestFieldPool:
    """Fields run in ``_fork_join`` with k participants: k = 1, this process
    alone, unless the planned work reaches POOL_MIN_CELLS on Linux; then one
    per usable CPU, at most one per field: this process runs one share and a
    forked child each other share.
    """

    @pytest.mark.parametrize("argv, config, fields", [
        # the benchmark's rate-large-n workload
        (["rate-function", "--n", "20000", "--gf", "1.7,1.3,0.4,0.6",
          "--format", "json"], "", 4),
        (["rate-function", "--n", "10000"], "", 3),
        # 41 fields of the ring N = 16 sector: 41 x 1162 states x 180 samples
        (["oracle-compare", "--gf", ",".join(["1.2"] * 41)],
         "[oracle]\nn_oracle = 16\n", 41)],
        ids=["rate-large-n", "rate-n10000", "oracle-n16-41-fields"])
    @FORKS_HERE
    def test_large_work_is_pooled(self, tmp_path, monkeypatch, argv, config,
                                  fields):
        # more CPUs than fields: one participant per field
        usable_cpus(monkeypatch, 64)
        monkeypatch.setattr(cli, "_fork_join", fork_started)
        if config:
            argv = [*argv, "--config", write_config(tmp_path, config)]
        with pytest.raises(ForkStarted) as started:
            main([*argv, "--out", str(tmp_path / "out")])
        assert started.value.args == (fields,)

    @pytest.mark.parametrize("argv, config", [
        # every subcommand at its defaults; otoc there is the benchmark's
        # otoc-sweep workload, and the oracle at n_oracle = 12 its oracle-n12
        *[([command], "") for command in cli.COMMANDS],
        (["oracle-compare"], "[oracle]\nn_oracle = 12\n"),
        # the ring N = 14 sector takes the dense eigensystem on 362 states
        (["oracle-compare"], "[oracle]\nn_oracle = 14\n"),
        (["pulse-schedule", "--n", "3000", "--gf", "1.0,1.2"], "")],
        ids=[*cli.COMMANDS, "oracle-n12", "oracle-n14", "pulse-n3000"])
    def test_small_work_runs_in_process(self, tmp_path, monkeypatch, argv,
                                        config):
        usable_cpus(monkeypatch, 64)
        ks = fork_join_ks(monkeypatch)
        if config:
            argv = [*argv, "--config", write_config(tmp_path, config)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert ks == ([] if argv[0] in ("heatmap", "pulse-schedule") else [1])

    @pytest.mark.parametrize("command", ["heatmap", "pulse-schedule"])
    @pytest.mark.parametrize("n, code", [(40, 0), (10 ** 8, 2)])
    def test_per_mode_commands_never_pool(self, tmp_path, monkeypatch,
                                          command, n, code):
        # each field's result holds a row per mode: heatmap streams its maps
        # to the writer and pulse-schedule builds its schedules here, however
        # large the planned work; a refused size leaves no directory
        usable_cpus(monkeypatch, 64)
        ks = fork_join_ks(monkeypatch)
        monkeypatch.setattr(cli, "POOL_MIN_CELLS", 0)
        out = tmp_path / "out"
        assert main([command, "--n", str(n), "--out", str(out)]) == code
        assert out.exists() == (code == 0)
        assert ks == []

    @pytest.mark.parametrize("command", ["rate-function", "otoc", "spectra"])
    def test_refused_size_starts_no_pool(self, tmp_path, monkeypatch, capsys,
                                         command):
        # 3 fields x 10**8 modes plan a fork, but validate_config makes the
        # job's own check first: the job's message, exit 2, no directory
        spec = quench.QuenchSpec(0.0, 1.2, 10 ** 8)
        ts = np.linspace(0.0, 5.0, 500)
        job = (functools.partial(quench.rate_function, spec, ts)
               if command == "rate-function" else functools.partial(
                   cli._job_otoc, spec, ts, cli.DEFAULTS["echo"]))
        with pytest.raises(ResourceGuardError) as refused:
            job()
        usable_cpus(monkeypatch, 64)
        ks = fork_join_ks(monkeypatch)
        out = tmp_path / "out"
        assert main([command, "--n", str(10 ** 8), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"configuration error: {refused.value}\n"
        assert not out.exists() and ks == []

    def test_one_usable_cpu_runs_in_process(self, tmp_path, monkeypatch):
        # the affinity set counts, not the CPUs installed
        usable_cpus(monkeypatch, 1)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        ks = fork_join_ks(monkeypatch)
        monkeypatch.setattr(cli, "POOL_MIN_CELLS", 0)
        assert main(["rate-function", "--n", "12",
                     "--out", str(tmp_path / "out")]) == 0
        assert ks == [1]

    @pytest.mark.parametrize("platform", ["darwin", "win32"])
    def test_fields_fork_on_linux_only(self, tmp_path, monkeypatch, platform):
        # elsewhere a run that plans a fork runs its fields in process
        monkeypatch.setattr(sys, "platform", platform)
        usable_cpus(monkeypatch, 64)
        ks = fork_join_ks(monkeypatch)
        monkeypatch.setattr(cli, "POOL_MIN_CELLS", 0)
        assert main(["rate-function", "--n", "12",
                     "--out", str(tmp_path / "out")]) == 0
        assert ks == [1]

    @FORKS_HERE
    def test_killed_child_fails_the_command(self, tmp_path, monkeypatch,
                                            capsys):
        # a child killed mid-run sends no result: exit 3 at once, naming its
        # field, and no child left behind
        forked = record_forks(monkeypatch)
        parent, rate = os.getpid(), quench.rate_function

        def rate_or_die(spec, t):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return rate(spec, t)

        monkeypatch.setattr(quench, "rate_function", rate_or_die)
        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(cli, "POOL_MIN_CELLS", 0)
        out = tmp_path / "out"
        with within(10):
            code = main(["rate-function", "--n", "12", "--gf", "0.5,0.8,1.2",
                         "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: the worker for g_f = 0.8 ended with no result "
            f"(signal {int(signal.SIGKILL)})\n")
        assert len(forked) == 1
        assert_reaped(forked)
        assert not out.exists()

    @FORKS_HERE
    def test_refusal_in_a_child_share_matches_a_serial_run(
            self, tmp_path, monkeypatch, capsys):
        # at t = 1e308 only g_f = 2.0's phases overflow, in the child's share
        config = write_config(tmp_path, "[quench]\nt_max = 1e308\n")
        out = tmp_path / "out"
        argv = ["rate-function", "--n", "12", "--gf", "0.5,2.0",
                "--config", config, "--out", str(out)]
        forked = record_forks(monkeypatch)
        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(cli, "POOL_MIN_CELLS", 0)
        assert main(argv) == 2
        forked_err = capsys.readouterr().err
        assert len(forked) == 1 and not out.exists()
        monkeypatch.setattr(cli, "POOL_MIN_CELLS", 2 ** 62)
        assert main(argv) == 2
        assert capsys.readouterr().err == forked_err == (
            "configuration error: t must keep every phase finite, got |t| "
            "up to 1e+308\n")
        assert len(forked) == 1 and not out.exists()
        assert_reaped(forked)

    @FORKS_HERE
    @pytest.mark.parametrize("fields, reported", [
        # field 1 fails in the child after field 2 has failed in this process
        ("0.5,2.0,3.0", "2.0"),
        # field 0 fails in this process, field 1 in the child
        ("3.0,2.0", "3.0")], ids=["child-lower", "parent-lower"])
    def test_lowest_failing_field_is_reported(self, tmp_path, monkeypatch,
                                              capsys, fields, reported):
        forked = record_forks(monkeypatch)
        parent, rate = os.getpid(), quench.rate_function

        def refuse_from_two(spec, t):
            if spec.g_f >= 2.0:
                if os.getpid() != parent:
                    time.sleep(0.3)     # the child's error comes last
                raise InvalidArgumentError(f"refused g_f = {spec.g_f}")
            return rate(spec, t)

        monkeypatch.setattr(quench, "rate_function", refuse_from_two)
        usable_cpus(monkeypatch, 2)
        argv = ["rate-function", "--n", "12", "--gf", fields,
                "--out", str(tmp_path / "out")]
        for least in (0, 2 ** 62):      # forked, then in process
            monkeypatch.setattr(cli, "POOL_MIN_CELLS", least)
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                f"configuration error: refused g_f = {reported}\n")
        assert len(forked) == 1
        assert_reaped(forked)
        assert not (tmp_path / "out").exists()

    @FORKS_HERE
    def test_interrupt_kills_every_child(self, tmp_path, monkeypatch):
        # Ctrl-C in this process's own share, while each child would run a
        # minute more: no child is left running
        forked = record_forks(monkeypatch)
        parent = os.getpid()

        def interrupt_or_stall(spec, t):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(quench, "rate_function", interrupt_or_stall)
        usable_cpus(monkeypatch, 3)
        monkeypatch.setattr(cli, "POOL_MIN_CELLS", 0)
        with within(10), pytest.raises(KeyboardInterrupt):
            main(["rate-function", "--n", "12", "--out", str(tmp_path / "out")])
        assert len(forked) == 2
        assert_reaped(forked)

    def test_worker_count_is_not_an_option(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exited:
            main(["rate-function", "--threads", "2", "--out", str(out)])
        assert exited.value.code == 2
        config = write_config(tmp_path, "[sweep]\nthreads = 2\n")
        assert main(["rate-function", "--config", config,
                     "--out", str(out)]) == 2
        assert "sweep.threads" in capsys.readouterr().err
        assert not out.exists()


# spectra of 601 orders on as many angles; under product, whose DFT is
# counted with the surfaces, of 301 at 400 times, which an 8 MiB budget
# admits (at 500 times it does not)
M_MAX_300 = "[echo]\nm_max = 300\nn_phi = 601\n"
M_MAX_150 = "[echo]\nm_max = 150\nn_phi = 301\n[quench]\nt_points = 400\n"

# the least valid value of each size the refusal sweep draws
LEAST = {"quench.n": 2, "quench.t_points": 2, "quench.tau_points": 2,
         "echo.n_phi": 7, "echo.dw_tau_points": 3, "sweep.n_t": 2}


def huge_size(low: int):
    """An integer >= low, log-uniform up to 10**400: uniform in its number
    of digits, then uniform within them."""
    return st.integers(len(str(low)), 400).flatmap(
        lambda digits: st.integers(max(low, 10 ** (digits - 1)),
                                   10 ** digits))


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
    # the package runs on numpy alone
    for module in ("tfim_dqpt", "tfim_dqpt.cli"):
        assert run_python(f"import sys, {module}; print({LOADED_SCIPY})") \
            == "[]", module


def test_commands_load_no_scipy(tmp_path):
    # every command at its defaults, and the oracle on the largest ring
    # sector (1162 states), runs on numpy alone
    config = write_config(tmp_path, "[oracle]\nn_oracle = 16\n"
                                    "[quench]\nt_max = 1.0\n")
    runs = [[command] for command in cli.COMMANDS]
    runs.append(["oracle-compare", "--gf", "1.2", "--config", config])
    code = (f"import sys; from tfim_dqpt.cli import main\n"
            f"for i, argv in enumerate({runs!r}):\n"
            f"    code = main([*argv, '--out', "
            f"{str(tmp_path)!r} + '/' + str(i)])\n"
            f"    print(argv[0], code, {LOADED_SCIPY})\n")
    lines = run_python(code).splitlines()
    assert lines == [f"{argv[0]} 0 []" for argv in runs]


@pytest.mark.parametrize("n_oracle, bc", [(12, "periodic"), (14, "periodic")])
def test_ring_oracle_with_bc_spelled_out_loads_no_scipy(tmp_path, n_oracle, bc):
    # open chains are refused, so no oracle loads scipy: each ring sector,
    # with oracle.bc spelled out, runs on numpy alone at the default tolerance
    config = write_config(tmp_path, f"[oracle]\nn_oracle = {n_oracle}\n"
                                    f"bc = {bc}\n[quench]\nt_max = 1.0\n")
    code = ("import sys; from tfim_dqpt.cli import main\n"
            f"code = main(['oracle-compare', '--gf', '1.2', "
            f"'--config', {config!r}, '--out', "
            f"{str(tmp_path / 'out')!r}])\n"
            f"print(code, {LOADED_SCIPY})\n")
    assert run_python(code) == "0 []"


def test_no_run_imports_multiprocessing(tmp_path):
    # every command at its defaults in process, and rate-large-n forked:
    # none imports multiprocessing (and socket, selectors and array with it)
    runs = [[command] for command in cli.COMMANDS]
    runs.append(["rate-function", "--n", "20000", "--gf", "1.7,1.3,0.4,0.6"])
    code = (f"import os, sys; from tfim_dqpt import cli\n"
            f"os.sched_getaffinity = lambda pid: set(range(64))\n"
            f"for i, argv in enumerate({runs!r}):\n"
            f"    code = cli.main([*argv, '--out', "
            f"{str(tmp_path)!r} + '/' + str(i)])\n"
            f"    print(argv[0], code, 'multiprocessing' in sys.modules)\n")
    lines = run_python(code).splitlines()
    assert lines == [*(f"{command} 0 False" for command in cli.COMMANDS),
                     "rate-function 0 False"]


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
    "str": ["", "fidelity", "a,b", 'q"t', '""', "line\nbreak"],
}
# "mixed" is a float column written as the str scalar "" in some blocks, as
# compare writes its phi column
COLUMN_KINDS = sorted([*COLUMN_POOLS, "mixed"])


def str_then_floats(data, at: int, cut: int):
    """Two blocks of the columns ``data``, split at row ``cut``; column
    ``at`` is the str scalar "" in the first block and floats in the
    second.  Returns the blocks and the rows they write."""
    first = [column[:cut] for column in data]
    first[at] = ""
    rows = list(zip(*data))
    rows[:cut] = [(*row[:at], "", *row[at + 1:]) for row in rows[:cut]]
    return [first, [column[cut:] for column in data]], rows


def texted(monkeypatch) -> list:
    """The values of every ``_cells`` call from now on, one list per call."""
    inputs, cells = [], cli._cells

    def recording(column, *args):
        inputs.append(column.tolist())
        return cells(column, *args)

    monkeypatch.setattr(cli, "_cells", recording)
    return inputs


def cells_of(inputs: list, values) -> int:
    """The cells of the recorded ``_cells`` calls that text only ``values``."""
    values = set(np.ravel(values).tolist())
    return sum(len(cells) for cells in inputs if cells and set(cells) <= values)


def written_table(columns, blocks, fmt: str, chunk: int) -> bytes:
    """The bytes ``_write_table`` writes for ``blocks`` in chunks of
    ``chunk`` rows."""
    with tempfile.TemporaryDirectory() as outdir, \
            mock.patch.object(cli, "CHUNK_ROWS", chunk):
        name, _ = cli._write_table(outdir, "t", columns, iter(blocks), fmt)
        with open(os.path.join(outdir, name), "rb") as handle:
            return handle.read()


class TestColumnarWriter:
    FLOATS = np.array([-0.0, 0.0, 1e-300, 5e-324, 2.2250738585072014e-308 / 3,
                       0.1 + 0.2, -1.0 / 3.0, 2.0 ** 60, 1e16, 123456789.12345678,
                       np.pi, -np.e, 0.5, np.inf, -np.inf, np.nan, 7.0])

    def table(self):
        n = self.FLOATS.size
        rng = np.random.default_rng(4)
        ints = rng.integers(-10 ** 12, 10 ** 12, size=n)
        bools = rng.random(n) < 0.5
        strings = np.array([["", "fidelity", "a,b", 'q"t'][i % 4]
                            for i in range(n)])
        data = [self.FLOATS, ints, bools, strings, self.FLOATS[::-1],
                -self.FLOATS]
        return (["x", "n", "flag", "label", "phi", "neg"],
                *str_then_floats(data, 4, n // 3))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("chunk", [3, cli.CHUNK_ROWS])
    def test_bytes_equal_per_cell_reference(self, tmp_path, monkeypatch,
                                            fmt, chunk):
        monkeypatch.setattr(cli, "CHUNK_ROWS", chunk)
        columns, blocks, rows = self.table()
        name, digest = cli._write_table(str(tmp_path), "table", columns, blocks,
                                        fmt)
        assert name == f"table.{fmt}"
        written = (tmp_path / name).read_bytes()
        assert written == reference_table(columns, rows, fmt)
        assert digest == hashlib.sha256(written).hexdigest()
        assert not (tmp_path / f"{name}.tmp").exists()

    def repeated_table(self):
        """Long columns of heavily repeated values, as the sweeps write."""
        n = self.FLOATS.size
        strings = ["", "fidelity", "a,b", 'q"t', '""']
        data = [np.repeat(self.FLOATS, 23),
                np.tile(np.array([2 ** 53 + 1, -2 ** 62, 0, 7, 2 ** 63 - 1]),
                        n * 23 // 5 + 1)[:n * 23],
                np.tile(np.repeat([True, False, False], 4), n * 23)[:n * 23],
                np.array([strings[i // 5 % len(strings)]
                          for i in range(n * 23)]),
                np.tile(self.FLOATS, 23),
                np.tile(-self.FLOATS, 23)]
        return (["x", "n", "flag", "label", "phi", "neg"],
                *str_then_floats(data, 4, 5 * n))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("chunk", [3, 7, cli.CHUNK_ROWS])
    def test_repeated_values_equal_per_cell_reference(self, tmp_path,
                                                       monkeypatch, fmt, chunk):
        # chunk edges fall inside runs of one value
        monkeypatch.setattr(cli, "CHUNK_ROWS", chunk)
        columns, blocks, rows = self.repeated_table()
        name, _ = cli._write_table(str(tmp_path), "table", columns, blocks, fmt)
        assert (tmp_path / name).read_bytes() == reference_table(columns, rows, fmt)

    @given(st.integers(0, 40), st.lists(st.sampled_from(COLUMN_KINDS),
                                        min_size=2, max_size=5),
           st.sampled_from([1, 2, 5, 16384]), st.sampled_from(["csv", "json"]),
           st.data())
    def test_drawn_columns_equal_per_cell_reference(self, n_rows, kinds, chunk,
                                                    fmt, data):
        columns, table = [], []
        for i, kind in enumerate(kinds):
            pool = COLUMN_POOLS["float64" if kind == "mixed" else kind]
            picks = data.draw(st.lists(st.integers(0, len(pool) - 1),
                                       min_size=n_rows, max_size=n_rows))
            columns.append(f"c{i}" if i % 2 else f"c,{i}")
            table.append(np.array([pool[j] for j in picks],
                                  dtype="float64" if kind == "mixed" else kind))
        # consecutive blocks of the rows; equal edges make empty blocks
        edges = [0, *sorted(data.draw(st.lists(st.integers(0, n_rows),
                                               max_size=4))), n_rows]
        blocks = [[column[start:stop] for column in table]
                  for start, stop in zip(edges, edges[1:])]
        rows = list(zip(*table))
        for (start, stop), block in zip(zip(edges, edges[1:]), blocks):
            for i, kind in enumerate(kinds):
                if kind == "mixed" and data.draw(st.booleans()):
                    block[i] = ""                     # the str scalar ""
                    rows[start:stop] = [(*row[:i], "", *row[i + 1:])
                                        for row in rows[start:stop]]
        if n_rows == 0 and data.draw(st.booleans()):
            blocks = []                                # no block at all
        assert written_table(columns, blocks, fmt, chunk) \
            == reference_table(columns, rows, fmt)

    @given(st.sampled_from([3, 7]), st.sampled_from(["csv", "json"]),
           st.data())
    def test_values_repeated_across_chunks_equal_per_cell_reference(
            self, chunk, fmt, data):
        # each column draws from a few values, so most values of a chunk
        # were in the chunk before and some were not; NaN, +-inf and +-0.0
        # sit on both sides of a chunk edge in each block.  Column
        # "phi" is the str scalar "" in the first block and floats in the
        # second, as compare writes it
        n = data.draw(st.integers(4 * chunk, 8 * chunk))
        cut = data.draw(st.integers(chunk + 2, n - chunk - 2))
        table = []
        for kind in ("float64", "float64", "int64", "bool", "str", "float64"):
            pool = COLUMN_POOLS[kind]
            if kind == "float64":
                pool = pool + data.draw(st.lists(st.floats(), max_size=3))
            picks = data.draw(st.lists(st.integers(0, len(pool) - 1),
                                       min_size=n, max_size=n))
            table.append(np.array([pool[j] for j in picks], dtype=kind))
        for edge in (chunk, cut + chunk):
            table[0][edge - 2:edge + 2] = [np.nan, -np.inf, np.nan, -np.inf]
            table[1][edge - 2:edge + 2] = [0.0, np.inf, -0.0, np.inf]
            table[5][edge - 2:edge + 2] = [-0.0, np.nan, 0.0, np.nan]
        columns = ["x", "y", "n", "flag", "label", "phi"]
        blocks, rows = str_then_floats(table, 5, cut)
        assert written_table(columns, blocks, fmt, chunk) \
            == reference_table(columns, rows, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("chunk, n", [(3, 3), (12, 4), (12, 6)])
    def test_mirrored_rows_are_texted_once(self, monkeypatch, chunk, n, fmt):
        # the "f" block is given on its n // 2 + 1 distinct rows with the
        # fold min(j, n - j), as an echo surface is: each distinct row is
        # texted once, whether its mirror is in its own chunk or the next
        inputs = texted(monkeypatch)
        f = -1.0 - np.arange(3 * (n // 2 + 1)).reshape(-1, 3) / 7.0
        fold = np.minimum(np.arange(n), -np.arange(n) % n)
        block = [np.arange(n)[:, None] / 4.0, np.arange(3.0), f]
        written = written_table(["phi", "t", "f"], [(block, fold)], fmt, chunk)
        assert cells_of(inputs, f) == f.size
        assert written == written_table(["phi", "t", "f"], [[
            np.repeat(block[0], 3), np.tile(block[1], n), f[fold].ravel()]],
            fmt, chunk)

    def test_only_the_previous_chunks_rows_are_held(self, monkeypatch):
        # 4 distinct rows of 3 cells, folded as 0 1 | 2 1 | 3 0 in chunks of
        # 2 rows: row 1 is taken from the chunk before, but row 0, two
        # chunks back, is texted again
        inputs = texted(monkeypatch)
        f = 10.0 + np.arange(12.0).reshape(4, 3)
        fold = np.array([0, 1, 2, 1, 3, 0])
        written = written_table(["k", "t", "f"], [(
            [-1.0 - np.arange(6)[:, None], np.arange(3.0), f], fold)], "csv", 6)
        assert [cells for cells in inputs if set(cells) <= set(f.ravel())] \
            == [f[[0, 1]].ravel().tolist(), f[[2]].ravel().tolist(),
                f[[3, 0]].ravel().tolist()]
        assert written == reference_table(["k", "t", "f"], list(zip(
            np.repeat(-1.0 - np.arange(6), 3), np.tile(np.arange(3.0), 6),
            f[fold].ravel())), "csv")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_heatmap_mirrored_mode_rows_are_texted_once(self, tmp_path,
                                                        monkeypatch, fmt):
        # modes k and 2 pi - k reach the writer as one distinct row: 7 grid
        # modes at N = 6 are 4 rows of 5 probabilities per field
        inputs = texted(monkeypatch)
        config = write_config(tmp_path, "[quench]\ntau_points = 5\n")
        out = tmp_path / "out"
        assert main(["heatmap", "--n", "6", "--gf", "1.2", "--config", config,
                     "--format", fmt, "--out", str(out)]) == 0
        spec = quench.QuenchSpec(0.0, 1.2, 6)
        ks, taus, probs = quench.return_probability_map(spec, 5)
        assert cells_of(inputs, probs) == 4 * 5
        rows = list(zip(itertools.repeat(1.2), np.repeat(ks, 5),
                        np.tile(taus, 7), probs.ravel()))
        assert (out / f"return_prob.{fmt}").read_bytes() == reference_table(
            ["g_f", "k", "t_over_t0", "probability"], rows, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_scalar_key_column_is_texted_once_per_block(self, monkeypatch, fmt):
        # a block of 4 rows of 2 cells is 4 chunks of 3 cells, but its
        # scalar g_f and observable are each texted once, as one cell
        inputs = texted(monkeypatch)
        blocks = [[g_f, "fidelity", np.arange(4.0)[:, None], np.arange(2),
                   np.arange(8.0).reshape(4, 2) + 10 + g_f]
                  for g_f in (0.625, 1.375)]
        columns = ["g_f", "observable", "t", "m", "re"]
        written = written_table(columns, blocks, fmt, 3)
        assert [cells for cells in inputs if len(cells) == 1
                and cells[0] in (0.625, 1.375, "fidelity")] \
            == [[0.625], ["fidelity"], [1.375], ["fidelity"]]
        assert sum(0.625 in cells or 1.375 in cells for cells in inputs) == 2
        rows = [row for block in blocks for row in zip(*(
            np.broadcast_to(column, (4, 2)).ravel() for column in block))]
        assert written == reference_table(columns, rows, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_equal_column_is_texted_once(self, monkeypatch, fmt):
        # "abs" is the object "re", as spectra's abs is under mean: it takes
        # re's texts; "copy" equals re but is texted on its own, and the
        # scalar "im" is texted once for the block
        inputs = texted(monkeypatch)
        re_ = np.linspace(0.5, 0.9, 12).reshape(4, 3)
        block = [np.arange(4.0)[:, None] + 10, np.arange(3), re_, 0.0, re_,
                 re_.copy()]
        columns = ["t", "m", "re", "im", "abs", "copy"]
        written = written_table(columns, [block], fmt, 3)
        assert cells_of(inputs, re_) == 2 * re_.size
        assert inputs.count([0.0]) == 1
        rows = list(zip(*(np.broadcast_to(column, (4, 3)).ravel()
                          for column in block)))
        assert written == reference_table(columns, rows, fmt)

    @given(st.lists(st.sampled_from(sorted(COLUMN_POOLS)), min_size=2,
                    max_size=5),
           st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                    min_size=1, max_size=3),
           st.sampled_from([1, 2, 5, 16384]), st.sampled_from(["csv", "json"]),
           st.data())
    def test_broadcast_blocks_equal_materialized_columns(
            self, kinds, sizes, chunk, fmt, data):
        # a block's rows are the C-order cells of its broadcast columns:
        # 0-d, (a, 1), (1, b) or (a, b), with a or b possibly 0.  Rows j and
        # a - j of a column may be equal, as on an echo surface, and the last
        # column may be an earlier one or a copy of it, as spectra's abs is
        # re.  A block may carry a fold, leading row i taking row fold[i] of
        # each value column with rows: it writes its unfolded columns
        twin = data.draw(st.sampled_from([None, *range(len(kinds))]))
        columns = [f"c{i}" for i in range(len(kinds) + (twin is not None))]
        blocks, materialized = [], []
        for a, b in sizes:
            block = []
            for kind in kinds:
                pool = COLUMN_POOLS[kind]
                shape = data.draw(st.sampled_from([(), (a, 1), (1, b), (a, b)]))
                picks = data.draw(st.lists(
                    st.integers(0, len(pool) - 1), min_size=int(np.prod(shape)),
                    max_size=int(np.prod(shape))))
                values = np.array([pool[j] for j in picks],
                                  dtype=kind).reshape(shape)
                if values.ndim and data.draw(st.booleans()):    # mirrored rows
                    rows = np.arange(values.shape[0])
                    values = values[np.minimum(rows, -rows % values.shape[0])]
                block.append(values.item() if values.ndim == 0 else values)
            if twin is not None:
                block.append(block[twin] if data.draw(st.booleans())
                             else copy.copy(block[twin]))
            unfolded, leading = block, []
            if data.draw(st.booleans()):    # its leading rows are the fold's
                along = [np.shape(column)[-1:] in ((), (1,)) for column in block]
                lead = min(along.index(False) if False in along else len(block),
                           len(block) - 1)
                ranked = [np.ndim(column) == 2 and len(column) == a
                          for column in block[lead:]]
                fold = np.array(data.draw(st.lists(
                    st.integers(0, max(a - 1, 0) if any(ranked) else 0),
                    min_size=a, max_size=a)), dtype=np.intp)
                unfolded = block[:lead] + [column[fold] if rows else column
                                           for column, rows in zip(block[lead:], ranked)]
                block, leading = (block, fold), [(a, 1)]
            shape = np.broadcast_shapes(*map(np.shape, unfolded), *leading)
            blocks.append(block)
            materialized.append([np.broadcast_to(column, shape).ravel()
                                 for column in unfolded])
        written = written_table(columns, blocks, fmt, chunk)
        assert written == written_table(columns, materialized, fmt, chunk)
        rows = [row for block in materialized for row in zip(*block)]
        assert written == reference_table(columns, rows, fmt)

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
                             [[np.arange(10.0), np.arange(10)]], fmt)
        assert list(tmp_path.iterdir()) == []

    def test_failed_atomic_write_leaves_no_file(self, tmp_path):
        def pieces():
            yield "partial"
            raise OSError("simulated")

        with pytest.raises(OSError):
            cli._atomic_write(str(tmp_path / "x.json"), pieces())
        assert list(tmp_path.iterdir()) == []

    def test_manifest_opens_no_artifact(self, tmp_path):
        # a 17 MiB artifact: its checksum is taken as its bytes are
        # written, so the manifest step reads nothing back
        piece = "0123456789abcdef" * 2 ** 16                     # 1 MiB
        written = [cli._atomic_write(str(tmp_path / "big.csv"), [piece] * 17)]
        assert (tmp_path / "big.csv").stat().st_size >= 16 * 2 ** 20
        opened = []

        def recording(path, *args, **kwargs):
            opened.append(os.path.basename(path))
            return open(path, *args, **kwargs)

        with mock.patch.object(cli, "open", recording, create=True):
            tracemalloc.start()
            try:
                cli._write_manifest(str(tmp_path), "heatmap", cli.DEFAULTS,
                                    written)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert opened == ["manifest.json.tmp"] and peak < 2 ** 20
        digest = hashlib.sha256()
        with open(tmp_path / "big.csv", "rb") as handle:
            for block in iter(lambda: handle.read(2 ** 20), b""):
                digest.update(block)
        assert read_json(tmp_path / "manifest.json")["checksums"] \
            == {"big.csv": digest.hexdigest()}

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_table(self, tmp_path, fmt):
        name, _ = cli._write_table(str(tmp_path), "empty", ["a", "b"],
                                   [[np.zeros(0), []]], fmt)
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
            base = [command, "--gf", "0.7,1.0,1.3", "--nphi", "9",
                    "--nt", "4", "--config", cfg]
            if command != "oracle-compare":     # it refuses quench.n
                base += ["--n", "6"]
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


# fields at and near 0 and +-1, and up to 1e6
DRAWN_FIELDS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.0 + 1e-12, -1.0 + 1e-12,
                                1e-300, 0.5, 1.2, 1e6, -1e6]) \
    | st.floats(-1e6, 1e6, allow_nan=False)


def drawn_config(data, command: str) -> str:
    """The INI text of a small configuration of ``command``, drawn from
    every value class the commands take, refused ones among them."""
    n_phi = data.draw(st.integers(3, 24))
    fields = data.draw(st.lists(DRAWN_FIELDS, min_size=1, max_size=3))
    sections = {
        # the oracle refuses g_i != 0
        "quench": {"g_i": data.draw(st.just(0.0) | DRAWN_FIELDS),
                   "g_f": ",".join(map(repr, fields)),
                   "grid": data.draw(st.sampled_from(quench.GRID_MODES)),
                   "t_max": 10.0 ** data.draw(st.floats(-9.0, 4.0)),
                   "t_points": data.draw(st.integers(2, 20)),
                   "tau_points": data.draw(st.integers(2, 10))},
        "echo": {"n_phi": n_phi,
                 "m_max": data.draw(st.integers(0, n_phi // 2)),  # even: refused
                 "aggregation": data.draw(st.sampled_from(otoc.AGGREGATIONS))},
        "sweep": {"n_t": data.draw(st.integers(2, 6))},
        "oracle": {"n_oracle": data.draw(st.integers(2, 6))}}
    if command != "oracle-compare":        # it refuses quench.n
        sections["quench"]["n"] = data.draw(st.integers(2, 30))
    return "".join(f"[{section}]\n" + "".join(f"{key} = {value}\n"
                                             for key, value in keys.items())
                   for section, keys in sections.items())


class TestDrawnConfigs:
    """The real commands on small drawn configurations, in both formats, in
    one participant and forced to fork."""

    def run(self, argv, out, forks: bool):
        affinity = set(range(2 if forks else 1))
        with mock.patch.object(os, "sched_getaffinity", lambda pid: affinity,
                               create=True), \
                mock.patch.object(cli, "POOL_MIN_CELLS", 0 if forks else 2 ** 62), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([*argv, "--out", str(out)])
        return code, err.getvalue()

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    @settings(max_examples=12)
    @given(data=st.data())
    def test_every_command_on_drawn_configs(self, command, data):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            argv = [command, "--config", write_config(tmp, drawn_config(data, command))]
            runs = {}
            for fmt, forks in (("csv", False), ("json", False), ("csv", True)):
                out = tmp / "out"
                runs[fmt, forks] = *self.run([*argv, "--format", fmt], out, forks), \
                    out.exists() and shutil.move(out, tmp / f"{fmt}-{forks}")
            (code, err, serial), (_, _, as_json), (fork_code, fork_err, forked) \
                = runs.values()
            assert code in (0, 1, 2) and fork_code == code, err
            if code == 2:
                assert err.startswith("configuration error: ")
                assert err.count("\n") == 1 and fork_err == err
                assert not (serial or as_json or forked)
                return
            for out in (Path(serial), Path(as_json)):
                checksums = read_json(out / "manifest.json")["checksums"]
                assert checksums == {path.name: hashlib.sha256(
                    path.read_bytes()).hexdigest() for path in out.iterdir()
                    if path.name != "manifest.json"}
            for path in Path(serial).iterdir():
                assert path.read_bytes() == (Path(forked) / path.name).read_bytes()
                if path.suffix == ".csv":
                    header, rows = read_csv(path)
                    payload = read_json(Path(as_json) / f"{path.stem}.json")
                    assert payload["columns"] == header
                    assert rows == [[reference_fmt(cell) for cell in row]
                                    for row in payload["rows"]]
                elif path.name != "manifest.json":
                    assert path.read_bytes() == (Path(as_json) / path.name).read_bytes()


class TestResourceAndRangeGuards:
    @pytest.mark.parametrize("command", ["rate-function", "otoc",
                                         "oracle-compare"])
    def test_infinite_t_max_is_refused(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, "[quench]\nt_max = inf\n")
        out = tmp_path / "out"
        assert main([command, "--out", str(out), "--config", cfg]) == 2
        assert "quench.t_max" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["rate-function", "otoc",
                                         "oracle-compare"])
    def test_time_past_the_phase_range_is_refused(self, tmp_path, capsys,
                                                  command):
        # t_max = 1e308 is a finite float, but the phases |d_f| t are not:
        # refused where they are formed, before any NaN row is written
        cfg = write_config(tmp_path, "[quench]\nt_max = 1e308\n")
        out = tmp_path / "out"
        assert main([command, "--out", str(out), "--config", cfg]) == 2
        assert "t must keep every phase finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, config, field", [
        (["--gi", "nan"], "", "quench.g_i"),
        (["--n", "1"], "", "quench.n"),
        (["--nphi", "2"], "", "echo.n_phi"),
        ([], "[echo]\naggregation = median\n", "echo.aggregation"),
        ([], "[quench]\ngrid = foo\n", "quench.grid"),
        (["--dw-threshold", "inf"], "", "sweep.dw_threshold"),
        ([], "[sweep]\ndw_threshold = inf\n", "sweep.dw_threshold"),
        (["--gf=0.5,-inf"], "", "quench.g_f"),
        ([], "[echo]\nm_max = -1\n", "echo.m_max"),
    ])
    def test_invalid_model_value_is_refused(self, tmp_path, capsys, argv,
                                            config, field):
        out = tmp_path / "out"
        assert main(["otoc", "--out", str(out), *argv,
                     "--config", write_config(tmp_path, config)]) == 2
        # the key itself: quench.grid_mode does not name quench.grid
        assert re.search(rf"{re.escape(field)}\b", capsys.readouterr().err)
        assert not out.exists()

    def test_oversized_mode_grid_is_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["rate-function", "--out", str(out),
                     "--n", str(10 ** 8)]) == 2
        assert "mode budget" in capsys.readouterr().err
        assert not out.exists()

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
        assert not out.exists()

    @pytest.mark.parametrize("command, section, key", [
        ("rate-function", "quench", "t_points"),
        ("otoc", "quench", "t_points"),
        ("spectra", "quench", "t_points"),
    ])
    @pytest.mark.parametrize("size", [10 ** 9, 10 ** 400])
    def test_time_grid_size_is_refused_before_its_grid(
            self, tmp_path, capsys, monkeypatch, command, section, key, size):
        # 10**9 times take 8 GB a grid; the CLI checks before np.linspace,
        # which here refuses to build any grid at all
        config = tmp_path / "grid.ini"
        config.write_text(f"[{section}]\n{key} = {size}\n")
        out = tmp_path / "out"
        monkeypatch.setattr(np, "linspace", lambda *args, **kwargs: pytest.fail(
            "np.linspace ran on a refused size"))
        tracemalloc.start()
        try:
            code = main([command, "--config", str(config), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 2 ** 20
        assert "mode budget" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, config", [
        ("rate-function", "[echo]\ndw_tau_points = 200000000\n"),
        ("heatmap", "[quench]\nt_points = 40000000\n"),
        ("spectra", "[echo]\ndw_tau_points = 200000000\n"),
        ("otoc", "[echo]\ndw_tau_points = 200000000\n"),
        ("otoc", "[echo]\ndw_tau_points = 3\ndw_window = 0.05\n"),
    ])
    def test_grid_a_command_never_builds_is_not_counted(self, tmp_path,
                                                        command, config):
        # each grid alone is over the mode budget (1.6 GB and 4.2 GB).  No
        # command builds the double-well grid: dw_tau_points and dw_window
        # are accepted and unused, so no value of them changes an artifact
        default, sized = tmp_path / "default", tmp_path / "sized"
        assert main([command, "--out", str(default)]) == 0
        assert main([command, "--out", str(sized),
                     "--config", write_config(tmp_path, config)]) == 0
        files = [{path.name: path.read_bytes() for path in out.iterdir()
                  if path.name != "manifest.json"} for out in (default, sized)]
        assert files[0] == files[1] and files[0]

    @pytest.mark.parametrize("argv, config", [
        (["--n", "2000"], ""), (["--n", "30"], ""), ([], "[quench]\nn = 2000\n")],
        ids=["flag", "flag-default", "ini"])
    def test_oracle_refuses_the_grid_size(self, tmp_path, capsys, monkeypatch,
                                          argv, config):
        # its chain has oracle.n_oracle spins: any explicit quench.n, even
        # the default value, exits 2 before any field runs or any file exists
        monkeypatch.setattr(cli, "_fan_out", lambda *args, **kwargs:
                            pytest.fail("_fan_out ran on a refused config"))
        out = tmp_path / "out"
        assert main(["oracle-compare", *argv, "--out", str(out),
                     "--config", write_config(tmp_path, config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: quench.n: ")
        assert "oracle.n_oracle" in err
        assert not out.exists()

    @pytest.mark.parametrize("config, key", [
        ("[oracle]\nbc = open\n", "oracle.bc: must be 'periodic'"),
        ("[oracle]\nn_oracle = 17\n", "oracle.n_oracle must be an integer in "
                                        "[2, 16], got 17")],
        ids=["open-chain", "ring-17"])
    def test_oracle_past_the_ring_sector_is_refused(self, tmp_path, capsys,
                                                    monkeypatch, config, key):
        # open chains are not modelled, and the ring N = 17 sector (2056
        # states) is past the dense limit: exit 2 before any field runs
        monkeypatch.setattr(cli, "_fan_out", lambda *args, **kwargs:
                            pytest.fail("_fan_out ran on a refused config"))
        out = tmp_path / "out"
        assert main(["oracle-compare", "--out", str(out), "--config",
                     write_config(tmp_path, config)]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {key}")
        assert not out.exists()

    def test_oracle_initial_field_is_refused_before_any_field_runs(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_fan_out", lambda *args, **kwargs:
                            pytest.fail("_fan_out ran on a refused config"))
        out = tmp_path / "out"
        assert main(["oracle-compare", "--gi", "0.2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: quench.g_i must be 0 for the oracle")
        assert not out.exists()

    @given(st.sampled_from(sorted(cli.COMMANDS)), st.fixed_dictionaries(
        {}, optional={key: huge_size(low) for key, low in LEAST.items()}))
    # the surfaces' scan fits; the unused dw_tau_points is never counted
    @example("otoc", {"quench.t_points": 2000, "echo.dw_tau_points": 3000,
                      "echo.n_phi": 64})
    # the schedule fits, its replay check does not
    @example("pulse-schedule", {"quench.n": 2000, "sweep.n_t": 100})
    @example("heatmap", {"quench.n": 10 ** 8})
    def test_every_size_is_refused_before_it_is_allocated(self, command,
                                                          sizes):
        # a size not drawn takes its least value, so admitted runs are
        # quick; fields run in process, so tracemalloc sees every allocation.
        # oracle-compare refuses quench.n, so it is left out there
        sections = {}
        for key, value in {**LEAST, **sizes}.items():
            if command == "oracle-compare" and key == "quench.n":
                continue
            section, name = key.split(".")
            sections.setdefault(section, []).append(f"{name} = {value}\n")
        text = "".join(f"[{section}]\n" + "".join(lines)
                       for section, lines in sections.items())
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(quench, "MODE_BUDGET_BYTES", 4 * 2 ** 20), \
                mock.patch.object(os, "sched_getaffinity", lambda pid: {0},
                                  create=True), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            out = os.path.join(tmp, "out")
            config = write_config(Path(tmp), text)
            tracemalloc.start()
            try:
                code = main([command, "--config", config, "--out", out])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if code == 2:
                assert "mode budget" in err.getvalue()
                assert peak < 2 ** 20 and not os.path.exists(out)
            else:
                assert code == 0, err.getvalue()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv, config, bound", [
        (["heatmap", "--n", "2500"], "", 1.25),
        (["pulse-schedule", "--n", "2483"], "", 2.5),
        (["otoc", "--n", "1827"], "", 1.05),
        (["spectra", "--gf", "1.2"], M_MAX_300, 1.5),
        (["spectra", "--gf", "1.2", "--aggregation", "product"], M_MAX_150, 1.6)],
        ids=["heatmap-2500-1.25", "pulse-schedule-2483-2.5", "otoc-1827-1.05",
             "spectra-m300-mean", "spectra-m150-product"])
    def test_whole_command_peak_at_an_admitted_size(self, tmp_path, argv,
                                                   config, bound, fmt):
        # 3 default fields in process at 8 MiB: heatmap and pulse-schedule
        # at the largest n their guards admit; otoc's peak is one block's
        # surfaces and chunk text, the same up to its largest admitted n,
        # 3615.  heatmap holds one field's map, built as the writer reaches
        # its block, and pulse-schedule and otoc every field's result (for
        # otoc, m(t) alone), each with one chunk's text; a key column built
        # whole, or every field's maps or surfaces held at once, would
        # break the bound.  spectra at m_max = 300 writes one field's 601
        # orders x 500 times, 4.8 MB of complex numbers per observable: one
        # observable's are built at a time, as the writer reaches them
        # (1.31x; both stacked read 2.32x).  product's DFT, counted up
        # front with the surfaces held beside it, holds its kernel and its
        # product besides: at m_max = 150 on 301 angles x 400 times, which
        # it admits (7.9 MB counted), 1.35x (json 1.42x)
        budget = 8 * 2 ** 20
        if config:
            argv = [*argv, "--config", write_config(tmp_path, config)]
        with mock.patch.object(quench, "MODE_BUDGET_BYTES", budget), \
                mock.patch.object(os, "sched_getaffinity", lambda pid: {0},
                                  create=True), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            tracemalloc.start()
            try:
                code = main([*argv, "--format", fmt,
                             "--out", str(tmp_path / "out")])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0, err.getvalue()
        assert peak <= bound * budget

    def test_every_product_surface_is_counted_up_front(self, tmp_path, capsys,
                                                       monkeypatch):
        # product holds each field's (n_phi, n_t) fidelity surface until it
        # is written: at 601 angles x 500 times, one field's surface and
        # spectra's DFT fit an 8 MiB budget (7.6 MB); 20 fields (53 MB)
        # exit 2 before any field runs
        monkeypatch.setattr(quench, "MODE_BUDGET_BYTES", 8 * 2 ** 20)
        ks = fork_join_ks(monkeypatch)
        resolved = copy.deepcopy(cli.DEFAULTS)
        resolved["quench"]["g_f"] = [1.2]
        resolved["echo"].update(n_phi=601, aggregation="product")
        cli.validate_config(resolved, "otoc")
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main(["otoc", "--aggregation", "product", "--nphi", "601",
                         "--gf", ",".join(["1.2"] * 20), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 2 ** 20
        assert capsys.readouterr().err.startswith(
            "configuration error: the DFT of 601 angles x 500 times to 7 orders "
            "and 20 product surfaces need 53,291,264 bytes, over the "
            "8,388,608-byte mode budget")
        assert not out.exists() and ks == []

    @pytest.mark.parametrize("fields", [1, 6])
    def test_product_surfaces_and_dft_are_counted_together(
            self, tmp_path, capsys, monkeypatch, fields):
        # every field's surface is held while each spectra's DFT runs: at
        # m_max = 150 on 301 angles x 500 times, 6 fields' surfaces (7.2 MB)
        # and the DFT (7.9 MB) each fit an 8 MiB budget, but not together,
        # nor does one surface with the DFT (9.1 MB): exit 2 before any
        # field runs, with no directory
        monkeypatch.setattr(quench, "MODE_BUDGET_BYTES", 8 * 2 ** 20)
        ks = fork_join_ks(monkeypatch)
        config = write_config(tmp_path, M_MAX_150.replace("400", "500"))
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main(["spectra", "--aggregation", "product", "--config", config,
                         "--gf", ",".join(["1.2"] * fields), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 2 ** 20
        err = capsys.readouterr().err
        assert err.startswith("configuration error: the DFT of 301 angles x 500 "
                              f"times to 301 orders and {fields} product surface")
        assert "mode budget" in err and not out.exists() and ks == []

    def test_product_spectra_dft_is_counted_up_front(self, tmp_path, capsys,
                                                     monkeypatch):
        # one field's scan at 10001 angles x 50 times fits the 1 GiB budget
        # (12 MB), but its DFT to m_max = 5000 would build a 1.6 GB complex
        # kernel: the run exits 2 before any field runs, and no kernel forms
        ks = fork_join_ks(monkeypatch)
        monkeypatch.setattr(np, "exp", mock.Mock(side_effect=AssertionError))
        config = write_config(tmp_path, "[echo]\nm_max = 5000\nn_phi = 10001\n"
                              "aggregation = product\n[quench]\nt_points = 50\n"
                              "g_f = 1.2\n")
        out = tmp_path / "out"
        assert main(["spectra", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: the DFT of 10001 angles x 50 "
                              "times to 10001 orders and 1 product surface need")
        assert "mode budget" in err
        assert not out.exists() and ks == []

    @pytest.mark.parametrize("argv, message", [
        # a gapless initial mode, refused as heatmap's first map is built
        (["heatmap", "--gi", "1.0"], "gapless"),
        # the first field's rates fit; the second's overflow
        (["pulse-schedule", "--pulse-constant", "1e308", "--gf", "0.5,1.5"],
         "out of the float range")], ids=["heatmap-gi", "pulse-second-field"])
    def test_refusal_while_a_field_is_built_leaves_no_directory(
            self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_output_path_that_is_a_file_is_refused(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        for out in (taken, taken / "out"):
            assert main(["rate-function", "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error: outputs.out")
            assert err.count("\n") == 1
        assert taken.read_text() == ""

    def test_oversized_echo_scan_is_refused(self, tmp_path, capsys,
                                            monkeypatch):
        # 31 modes x 500 times fit a 300 kB budget; 4096 angles do not
        monkeypatch.setattr(quench, "MODE_BUDGET_BYTES", 300_000)
        out = tmp_path / "out"
        assert main(["otoc", "--out", str(out), "--gf", "1.2",
                     "--nphi", "4096"]) == 2
        assert "mode budget" in capsys.readouterr().err
        assert not out.exists()
