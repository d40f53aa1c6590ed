"""Command-line front end: sweeps, figure data, manifests, oracle harness.

Subcommands
-----------
rate-function   rate_function.csv + critical_times.json
heatmap         return_prob.csv (k, t/t0, probability surface)
otoc            otoc_surface.csv + spectra.csv + doublewell.json
spectra         otoc with spectra-only output
oracle-compare  compare.csv; exit 1 when any difference beats the tolerance
pulse-schedule  schedule.csv + replay_check.json

Every run writes ``manifest.json`` holding the fully resolved configuration
(defaults included), the artifact version, and a sha256 checksum per output
file.  Identical configurations produce byte-identical files: floats are
printed in shortest round-trip form and the wall-clock duration goes to
stderr, never into an artifact.  Files appear atomically (temp + rename).

Exit codes: 0 success, 1 tolerance failure, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import io
import json
import multiprocessing
import os
import sys
import time

import numpy as np

from . import __version__, chain, otoc, quench, su2
from .errors import (
    ConfigurationError,
    NoDqptError,
    NumericalFailureError,
    SimulatorError,
    ToleranceFailure,
    UndefinedExpressionError,
)

__all__ = ["main", "build_parser", "resolve_config", "DEFAULTS"]

DEFAULTS = {
    "quench": {
        "g_i": 0.0,
        "g_f": [0.5, 0.8, 1.2],
        "n": 30,
        "grid": "paper",
        "t_max": 5.0,
        "t_points": 500,
        "tau_points": 201,
    },
    "echo": {
        "n_phi": 64,
        "aggregation": "mean",
        "m_max": 3,
        "dw_tau_points": 161,
        "dw_window": 0.4,
    },
    "sweep": {
        "threads": os.cpu_count() or 1,
        "tolerance": 1e-6,
        "dw_threshold": otoc.DW_THRESHOLD,
        "pulse_constant": 1.0,
        "n_t": 100,
    },
    "oracle": {
        "n_oracle": 8,
        "bc": "periodic",
    },
    "outputs": {
        "out": "out",
        "format": "csv",
    },
}

# flag destination -> (section, key)
FLAG_MAP = {
    "gi": ("quench", "g_i"),
    "gf": ("quench", "g_f"),
    "n": ("quench", "n"),
    "grid": ("quench", "grid"),
    "nphi": ("echo", "n_phi"),
    "aggregation": ("echo", "aggregation"),
    "threads": ("sweep", "threads"),
    "tolerance": ("sweep", "tolerance"),
    "dw_threshold": ("sweep", "dw_threshold"),
    "pulse_constant": ("sweep", "pulse_constant"),
    "nt": ("sweep", "n_t"),
    "out": ("outputs", "out"),
    "format": ("outputs", "format"),
}


def _parse_field_list(section: str, key: str, raw: str) -> list[float]:
    try:
        return [float(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"{section}.{key}: not a float list: {raw!r}") \
            from exc


def _coerce(section: str, key: str, raw: str):
    default = DEFAULTS[section][key]
    try:
        if isinstance(default, list):
            return _parse_field_list(section, key, raw)
        if isinstance(default, bool):
            raise TypeError
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        return raw
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"{section}.{key}: cannot parse {raw!r}") from exc


def load_config_file(path: str) -> dict:
    """Flat INI-style file with sections mirroring the module layout."""
    import configparser

    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config file {path}: {exc}") from exc
    overrides: dict = {}
    for section in parser.sections():
        if section not in DEFAULTS:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in DEFAULTS[section]:
                raise ConfigurationError(f"unknown config key {section}.{key}")
            overrides.setdefault(section, {})[key] = _coerce(section, key, raw)
    return overrides


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults <- config file <- command-line flags, then validation."""
    resolved = copy.deepcopy(DEFAULTS)
    # the oracle correspondence needs anti-periodic momenta, so that command
    # defaults to abc; an explicit --grid paper is the negative control
    if getattr(args, "command", None) == "oracle-compare":
        resolved["quench"]["grid"] = "abc"
    if getattr(args, "config", None):
        for section, values in load_config_file(args.config).items():
            resolved[section].update(values)
    for dest, (section, key) in FLAG_MAP.items():
        value = getattr(args, dest, None)
        if value is not None:
            if key == "g_f" and isinstance(value, str):
                value = _parse_field_list(section, key, value)
            resolved[section][key] = value
    validate_config(resolved)
    return resolved


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise ConfigurationError(f"{field}: {message}")


def validate_config(resolved: dict) -> None:
    q, e = resolved["quench"], resolved["echo"]
    s, o = resolved["sweep"], resolved["oracle"]
    out = resolved["outputs"]
    _require(np.isfinite(q["g_i"]), "quench.g_i", "must be finite")
    _require(len(q["g_f"]) > 0 and all(np.isfinite(g) for g in q["g_f"]),
             "quench.g_f", "must be a nonempty list of finite floats")
    _require(isinstance(q["n"], int) and q["n"] >= 2,
             "quench.n", f"must be an integer >= 2, got {q['n']}")
    _require(q["grid"] in ("paper", "abc"), "quench.grid",
             "must be 'paper' or 'abc'")
    _require(q["t_max"] > 0, "quench.t_max", "must be positive")
    _require(isinstance(q["t_points"], int) and q["t_points"] >= 2,
             "quench.t_points", "must be an integer >= 2")
    _require(isinstance(q["tau_points"], int) and q["tau_points"] >= 2,
             "quench.tau_points", "must be an integer >= 2")
    _require(isinstance(e["n_phi"], int) and e["n_phi"] >= 3,
             "echo.n_phi", "must be an integer >= 3")
    _require(e["aggregation"] in ("mean", "product"), "echo.aggregation",
             "must be 'mean' or 'product'")
    _require(isinstance(e["m_max"], int) and e["m_max"] >= 0,
             "echo.m_max", "must be a nonnegative integer")
    _require(e["n_phi"] >= 2 * e["m_max"] + 1, "echo.m_max",
             f"needs n_phi >= {2 * e['m_max'] + 1} to avoid aliasing")
    _require(isinstance(e["dw_tau_points"], int) and e["dw_tau_points"] >= 3,
             "echo.dw_tau_points", "must be an integer >= 3")
    _require(0 < e["dw_window"] <= 0.5, "echo.dw_window", "must be in (0, 0.5]")
    _require(isinstance(s["threads"], int) and s["threads"] >= 1,
             "sweep.threads", "must be an integer >= 1")
    _require(s["tolerance"] > 0, "sweep.tolerance", "must be positive")
    _require(s["dw_threshold"] > 0, "sweep.dw_threshold", "must be positive")
    _require(s["pulse_constant"] > 0, "sweep.pulse_constant", "must be positive")
    _require(isinstance(s["n_t"], int) and s["n_t"] >= 2,
             "sweep.n_t", "must be an integer >= 2")
    _require(isinstance(o["n_oracle"], int) and 2 <= o["n_oracle"] <= chain.MAX_SPINS,
             "oracle.n_oracle", f"must be an integer in [2, {chain.MAX_SPINS}]")
    _require(o["bc"] in ("periodic", "open"), "oracle.bc",
             "must be 'periodic' or 'open'")
    _require(out["format"] in ("csv", "json"), "outputs.format",
             "must be 'csv' or 'json'")


# ---------------------------------------------------------------------------
# deterministic artifact writing

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value) + 0.0)   # + 0.0 canonicalizes negative zero
    return str(value)


def _jsonable(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value) + 0.0
    return value


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    os.replace(tmp, path)


def _write_table(outdir: str, stem: str, columns: list[str], rows, fmt: str) -> str:
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])
        name = f"{stem}.csv"
        _atomic_write(os.path.join(outdir, name), buffer.getvalue())
    else:
        name = f"{stem}.json"
        payload = {"columns": columns,
                   "rows": [[_jsonable(cell) for cell in row] for row in rows]}
        _atomic_write(os.path.join(outdir, name),
                      json.dumps(payload, sort_keys=True) + "\n")
    return name


def _write_json(outdir: str, name: str, payload) -> str:
    _atomic_write(os.path.join(outdir, name),
                  json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return name


def _write_manifest(outdir: str, command: str, resolved: dict,
                    names: list[str]) -> None:
    checksums = {}
    for name in names:
        with open(os.path.join(outdir, name), "rb") as handle:
            checksums[name] = hashlib.sha256(handle.read()).hexdigest()
    manifest = {
        "artifact_version": __version__,
        "command": command,
        "config": resolved,
        "checksums": checksums,
    }
    _atomic_write(os.path.join(outdir, "manifest.json"),
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _fan_out(fn, jobs, threads: int):
    if threads <= 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with multiprocessing.Pool(processes=min(threads, len(jobs))) as pool:
        return pool.map(fn, jobs)


# ---------------------------------------------------------------------------
# per-field worker jobs (module level so a process pool can pickle them)

def _job_rate(job):
    g_i, g_f, n, grid, ts = job
    spec = quench.QuenchSpec(g_i, g_f, n, grid)
    return np.asarray(quench.rate_function(spec, ts))


def _job_heatmap(job):
    g_i, g_f, n, grid, tau_points = job
    spec = quench.QuenchSpec(g_i, g_f, n, grid)
    return quench.return_probability_map(spec, tau_points)


def _job_otoc(job):
    (g_i, g_f, n, grid, ts, n_phi, aggregation, m_max,
     dw_tau_points, dw_window, dw_threshold) = job
    spec = quench.QuenchSpec(g_i, g_f, n, grid)
    fid_cfg = otoc.EchoConfig(spec, ts, n_phi=n_phi, aggregation=aggregation)
    mag_cfg = otoc.EchoConfig(spec, ts, n_phi=n_phi, aggregation="mean")
    fidelity = otoc.fidelity_otoc(fid_cfg)
    magnetization = otoc.magnetization_otoc(mag_cfg)
    spectra = {
        "fidelity": [s.components for s in
                     otoc.spectrum_dynamics(fid_cfg, "fidelity", m_max)],
        "magnetization": [s.components for s in
                          otoc.spectrum_dynamics(mag_cfg, "magnetization", m_max)],
    }
    taus = np.linspace(0.0, 1.0, dw_tau_points)
    dw_cfg = otoc.EchoConfig(spec, taus, n_phi=n_phi, aggregation="mean",
                             time_mode="normalized")
    a1 = np.real(otoc.coherence_series(
        otoc.spectrum_dynamics(dw_cfg, "magnetization", 1), 1))
    verdict = otoc.double_well_detector(taus, a1, 0.5, dw_window,
                                        eps_dw=dw_threshold)
    return fidelity, magnetization, spectra, verdict


def _job_pulse(job):
    g_i, g_f, n, grid, constant, n_t = job
    spec = quench.QuenchSpec(g_i, g_f, n, grid)
    entries = quench.pulse_schedule(spec, c=constant, n_t=n_t)
    deviation = 0.0
    for entry in entries:
        d_f = quench.bloch_vector(g_f, entry.k)
        for duration in entry.durations:
            replay = quench.replay_unitary(entry, duration)
            target = np.eye(2) if entry.idle else \
                su2.evolution_unitary(d_f, constant * duration / 2.0)
            deviation = max(deviation, float(np.max(np.abs(replay - target))))
    return entries, deviation


def _job_compare(job):
    g_i, g_f, n_oracle, grid, bc, ts, phis, echo_ts = job
    spec = quench.QuenchSpec(g_i, g_f, n_oracle, grid)
    rate_gap = np.abs(np.asarray(quench.rate_function(spec, ts))
                      - chain.rate_function_ed(n_oracle, g_i, g_f, ts, bc=bc))
    cfg_prod = otoc.EchoConfig(spec, echo_ts, n_phi=len(phis),
                               aggregation="product")
    cfg_mean = otoc.EchoConfig(spec, echo_ts, n_phi=len(phis), aggregation="mean")
    fid_mom = otoc.fidelity_otoc(cfg_prod)
    mag_mom = otoc.magnetization_otoc(cfg_mean)
    fid_ed, mag_ed = chain.echo_scan_chain(n_oracle, g_f, echo_ts, phis, bc=bc)
    return rate_gap, np.abs(fid_ed - fid_mom), np.abs(mag_ed - mag_mom)


# ---------------------------------------------------------------------------
# subcommands

def cmd_rate_function(resolved: dict) -> None:
    q, s, out = resolved["quench"], resolved["sweep"], resolved["outputs"]
    ts = np.linspace(0.0, q["t_max"], q["t_points"])
    jobs = [(q["g_i"], g_f, q["n"], q["grid"], ts) for g_f in q["g_f"]]
    series = _fan_out(_job_rate, jobs, s["threads"])
    rows = [(g_f, t, f)
            for g_f, fs in zip(q["g_f"], series)
            for t, f in zip(ts, fs)]
    names = [_write_table(out["out"], "rate_function",
                          ["g_f", "t", "f"], rows, out["format"])]
    analytic = []
    for g_f in q["g_f"]:
        try:
            t_c = [float(x) for x in quench.critical_times(q["g_i"], g_f, n_max=2)]
        except (NoDqptError, UndefinedExpressionError):
            t_c = []
        analytic.append({"g_f": g_f,
                         "dqpt": quench.dqpt_predicate(q["g_i"], g_f),
                         "critical_times": t_c})
    names.append(_write_json(out["out"], "critical_times.json",
                             {"g_i": q["g_i"], "series": analytic}))
    _write_manifest(out["out"], "rate-function", resolved, names)


def cmd_heatmap(resolved: dict) -> None:
    q, s, out = resolved["quench"], resolved["sweep"], resolved["outputs"]
    jobs = [(q["g_i"], g_f, q["n"], q["grid"], q["tau_points"])
            for g_f in q["g_f"]]
    maps = _fan_out(_job_heatmap, jobs, s["threads"])
    rows = [(g_f, k, tau, p)
            for g_f, (ks, taus, probs) in zip(q["g_f"], maps)
            for i, k in enumerate(ks)
            for j, tau in enumerate(taus)
            for p in (probs[i, j],)]
    names = [_write_table(out["out"], "return_prob",
                          ["g_f", "k", "t_over_t0", "probability"],
                          rows, out["format"])]
    _write_manifest(out["out"], "heatmap", resolved, names)


def cmd_otoc(resolved: dict, spectra_only: bool = False) -> None:
    q, e = resolved["quench"], resolved["echo"]
    s, out = resolved["sweep"], resolved["outputs"]
    ts = np.linspace(0.0, q["t_max"], q["t_points"])
    jobs = [(q["g_i"], g_f, q["n"], q["grid"], ts, e["n_phi"], e["aggregation"],
             e["m_max"], e["dw_tau_points"], e["dw_window"], s["dw_threshold"])
            for g_f in q["g_f"]]
    results = _fan_out(_job_otoc, jobs, s["threads"])
    phis = 2.0 * np.pi * np.arange(e["n_phi"]) / e["n_phi"]
    names = []
    if not spectra_only:
        surface_rows = [(g_f, phi, t, fid[i, j], mag[i, j])
                        for g_f, (fid, mag, _, _) in zip(q["g_f"], results)
                        for i, phi in enumerate(phis)
                        for j, t in enumerate(ts)]
        names.append(_write_table(out["out"], "otoc_surface",
                                  ["g_f", "phi", "t", "fidelity", "magnetization"],
                                  surface_rows, out["format"]))
    orders = np.arange(-e["m_max"], e["m_max"] + 1)
    spectra_rows = [(g_f, observable, t, m, comp.real, comp.imag, abs(comp))
                    for g_f, (_, _, spectra, _) in zip(q["g_f"], results)
                    for observable in ("fidelity", "magnetization")
                    for t, comps in zip(ts, spectra[observable])
                    for m, comp in zip(orders, comps)]
    names.append(_write_table(out["out"], "spectra",
                              ["g_f", "observable", "t", "m", "re", "im", "abs"],
                              spectra_rows, out["format"]))
    if not spectra_only:
        payload = {
            "detector": {
                "series": "order-1 magnetization coherence, normalized time",
                "t_c_normalized": 0.5,
                "window": e["dw_window"],
                "eps_dw": s["dw_threshold"],
                "tau_points": e["dw_tau_points"],
            },
            "results": [{"g_f": g_f, "classification": verdict}
                        for g_f, (_, _, _, verdict) in zip(q["g_f"], results)],
        }
        names.append(_write_json(out["out"], "doublewell.json", payload))
    _write_manifest(out["out"], "spectra" if spectra_only else "otoc",
                    resolved, names)


def cmd_oracle_compare(resolved: dict) -> None:
    q, s = resolved["quench"], resolved["sweep"]
    o, out = resolved["oracle"], resolved["outputs"]
    n = o["n_oracle"]
    # the correspondence holds on the abc grid with one mode per chain site;
    # requesting the "paper" endpoint grid here is the documented negative control
    grid = q["grid"]
    ts = np.linspace(0.0, q["t_max"], 100)
    phis = 2.0 * np.pi * np.arange(8) / 8
    echo_ts = np.linspace(0.0, q["t_max"], 10)
    jobs = [(q["g_i"], g_f, n, grid, o["bc"], ts, phis, echo_ts)
            for g_f in q["g_f"]]
    results = _fan_out(_job_compare, jobs, s["threads"])
    rows = []
    worst = (0.0, None)
    for g_f, (rate_gap, fid_gap, mag_gap) in zip(q["g_f"], results):
        for t, gap in zip(ts, rate_gap):
            rows.append((g_f, "rate_function", "", t, gap))
            if gap > worst[0]:
                worst = (gap, ("rate_function", g_f, t))
        for name, gaps in (("fidelity", fid_gap), ("magnetization", mag_gap)):
            for i, phi in enumerate(phis):
                for j, t in enumerate(echo_ts):
                    rows.append((g_f, name, phi, t, gaps[i, j]))
                    if gaps[i, j] > worst[0]:
                        worst = (gaps[i, j], (name, g_f, t))
    names = [_write_table(out["out"], "compare",
                          ["g_f", "quantity", "phi", "t", "difference"],
                          rows, out["format"])]
    _write_manifest(out["out"], "oracle-compare", resolved, names)
    if worst[0] > s["tolerance"]:
        quantity, g_f, t = worst[1]
        raise ToleranceFailure(
            f"worst difference {worst[0]:.3e} > tolerance {s['tolerance']:.3e} "
            f"({quantity}, g_f={g_f}, t={t:.6f}, grid={grid})")


def cmd_pulse_schedule(resolved: dict) -> None:
    q, s, out = resolved["quench"], resolved["sweep"], resolved["outputs"]
    jobs = [(q["g_i"], g_f, q["n"], q["grid"], s["pulse_constant"], s["n_t"])
            for g_f in q["g_f"]]
    results = _fan_out(_job_pulse, jobs, s["threads"])
    rows = [(g_f, entry.k, entry.axis_angle, entry.rabi_rate, idx, duration,
             entry.idle)
            for g_f, (entries, _) in zip(q["g_f"], results)
            for entry in entries
            for idx, duration in enumerate(entry.durations)]
    names = [_write_table(out["out"], "schedule",
                          ["g_f", "k", "axis_angle", "rabi_rate",
                           "duration_index", "duration", "idle"],
                          rows, out["format"])]
    payload = {
        "per_g_f": [{"g_f": g_f, "max_deviation": deviation}
                    for g_f, (_, deviation) in zip(q["g_f"], results)],
        "max_deviation": max(dev for _, dev in results),
    }
    names.append(_write_json(out["out"], "replay_check.json", payload))
    _write_manifest(out["out"], "pulse-schedule", resolved, names)


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file")
    common.add_argument("--out", help="output directory")
    common.add_argument("--format", choices=["csv", "json"],
                        help="tabular artifact format")
    common.add_argument("--threads", type=int, help="worker pool size")
    common.add_argument("--gf", help="comma-separated final fields")
    common.add_argument("--gi", type=float, help="initial field")
    common.add_argument("--n", type=int, help="momentum grid size")
    common.add_argument("--grid", choices=["paper", "abc"],
                        help="momentum grid convention")
    common.add_argument("--aggregation", choices=["mean", "product"],
                        help="mode aggregation for fidelity")
    common.add_argument("--nphi", type=int, help="rotation angles per scan")
    common.add_argument("--tolerance", type=float,
                        help="oracle comparison tolerance")
    common.add_argument("--dw-threshold", type=float, dest="dw_threshold",
                        help="double-well noise threshold")
    common.add_argument("--pulse-constant", type=float, dest="pulse_constant",
                        help="Rabi proportionality constant C")
    common.add_argument("--nt", type=int, help="pulse durations per mode")

    parser = argparse.ArgumentParser(
        prog="tfim-dqpt",
        description="Quench, echo, and pulse-schedule sweeps for the "
                    "transverse-field Ising chain")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("rate-function", parents=[common],
                   help="rate function sweep and analytic critical times")
    sub.add_parser("heatmap", parents=[common],
                   help="per-mode return probability surface")
    sub.add_parser("otoc", parents=[common],
                   help="echo surfaces, coherence spectra, well classification")
    sub.add_parser("spectra", parents=[common],
                   help="coherence spectra only")
    sub.add_parser("oracle-compare", parents=[common],
                   help="momentum model vs full-register oracle")
    sub.add_parser("pulse-schedule", parents=[common],
                   help="per-mode rotation schedule and replay check")
    return parser


COMMANDS = {
    "rate-function": cmd_rate_function,
    "heatmap": cmd_heatmap,
    "otoc": cmd_otoc,
    "spectra": lambda resolved: cmd_otoc(resolved, spectra_only=True),
    "oracle-compare": cmd_oracle_compare,
    "pulse-schedule": cmd_pulse_schedule,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        resolved = resolve_config(args)
        os.makedirs(resolved["outputs"]["out"], exist_ok=True)
        COMMANDS[args.command](resolved)
    except ToleranceFailure as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return 1
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except SimulatorError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(f"completed in {time.perf_counter() - started:.3f} s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
