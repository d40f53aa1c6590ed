"""Cold-CLI benchmark of tfim-dqpt.

    python3 benchmarks/run.py --workload otoc-sweep --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload oracle-n12 --seed 1 --seconds 2 --trace 1 --quick

Run from the repository root (any directory holding ``src/tfim_dqpt``
next to this benchmark).  Every end-to-end sample is one fresh
``tfim-dqpt`` process (``child.py`` calling ``cli.main``): users pay the
import and cold caches on every run, and repeating in one process would
reuse ``chain._oracle_operator``'s cache.  One CLI process runs at a time;
the CLI keeps its default process pool, and BLAS/OpenMP pools are pinned
to one thread.  Each run's ``--out`` is a fresh directory under
``.bench_work/`` and is removed after its outputs are checked.

The last line of standard output is the result object; the line before it
holds the environment, the inputs and every sample (artifact sha256 sums
are recorded there as information, not checked).  ``--trace 1`` adds two
serial, traced processes (one timed, one under tracemalloc) and reports
per-layer metrics instead.
``--quick`` shrinks every problem so the whole run takes seconds; it exists
for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(HERE, "child.py")

BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
BELOW = (0.2, 0.95)     # final fields below the critical field |g| = 1
ABOVE = (1.05, 2.0)     # and above it
MIN_RUNS = 3            # CLI processes per benchmark run, however short
SETUP_PROBES = 10       # extra import-only processes per benchmark run
HARD_LIMIT_S = 165.0    # every process is started and reaped within this
TOL_ECHO = 1e-12        # otoc surface vs mode mean of otoc.echo_state
TOL_ORACLE = 1e-9       # max difference column of compare.csv
TOL_RATE = 1e-12        # relative, rate function and critical times
ECHO_CELLS = 32
RATE_CELLS = 16

# Grid sizes are the CLI defaults at the time of writing, passed explicitly
# so a change of defaults cannot silently change a workload.
WORKLOADS = {
    "otoc-sweep": {
        "command": "otoc", "below": 2, "above": 1,
        "full": {"quench": {"g_i": 0.0, "n": 30, "grid": "paper", "t_max": 5.0,
                            "t_points": 500},
                 "echo": {"n_phi": 64, "aggregation": "mean", "m_max": 3,
                          "dw_tau_points": 161},
                 "outputs": {"format": "csv"}},
        "quick": {"quench": {"n": 8, "t_points": 40}, "echo": {"n_phi": 16}},
    },
    "oracle-n12": {
        "command": "oracle-compare", "below": 2, "above": 1,
        "full": {"quench": {"g_i": 0.0, "grid": "abc", "t_max": 5.0},
                 "oracle": {"n_oracle": 12, "bc": "periodic"},
                 "outputs": {"format": "csv"}},
        "quick": {"oracle": {"n_oracle": 8}},
    },
    "rate-large-n": {
        "command": "rate-function", "below": 2, "above": 2,
        "full": {"quench": {"g_i": 0.0, "n": 20000, "grid": "paper",
                            "t_max": 5.0, "t_points": 500},
                 "outputs": {"format": "json"}},
        "quick": {"quench": {"n": 2000}},
    },
}


def config_for(name: str, quick: bool) -> dict:
    """The workload's CLI configuration, as INI sections (fields excluded)."""
    spec = WORKLOADS[name]
    config = {section: dict(values) for section, values in spec["full"].items()}
    if quick:
        for section, values in spec["quick"].items():
            config[section].update(values)
    return config


def _antithetic(rng, count: int, lo: float, hi: float) -> list[float]:
    # pairs (x, lo + hi - x) keep the sum of the fields, and with it the
    # Chebyshev term count of the oracle, independent of the seed
    values = []
    while len(values) < count:
        x = float(rng.uniform(lo, hi))
        values += [x, lo + hi - x]
    return [round(v, 4) for v in values[:count]]


def draw_inputs(name: str, seed: int, quick: bool = False) -> dict:
    """Final fields and the cells to check, all drawn from the seed.

    Fields above the critical field come first: with the default two pool
    workers the pair below it then shares one worker, so the run's length
    does not depend on the draw either.
    """
    spec = WORKLOADS[name]
    config = config_for(name, quick)
    rng = np.random.default_rng(seed)
    fields = (_antithetic(rng, spec["above"], *ABOVE)
              + _antithetic(rng, spec["below"], *BELOW))
    inputs = {"fields": fields}
    quench = config["quench"]
    if name == "otoc-sweep":
        shape = (len(fields), config["echo"]["n_phi"], quench["t_points"])
        flat = rng.choice(int(np.prod(shape)), ECHO_CELLS, replace=False)
        inputs["cells"] = [[int(i) for i in np.unravel_index(f, shape)]
                           for f in flat]
    elif name == "rate-large-n":
        shape = (len(fields), quench["t_points"])
        flat = rng.choice(int(np.prod(shape)), RATE_CELLS, replace=False)
        inputs["cells"] = [[int(i) for i in np.unravel_index(f, shape)]
                           for f in flat]
    return inputs


def write_ini(path: str, config: dict, fields: list[float]) -> None:
    lines = []
    for section, values in config.items():
        lines.append(f"[{section}]")
        if section == "quench":
            lines.append("g_f = " + ",".join(repr(g) for g in fields))
        lines += [f"{key} = {value}" for key, value in values.items()]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# one process

def spawn(mode: str, workdir: str, cli_args: list[str], deadline: float) -> dict:
    """Start child.py, wait for it, and return its report plus wall time.

    The child leads its own process group, so a timeout kills its pool
    workers with it; every process is reaped before this returns.
    """
    report_path = os.path.join(workdir, "report.json")
    env = dict(os.environ, **BLAS_PIN)
    # an installed package has its bytecode compiled; let the warm-up
    # process write it (inside the checkout) whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    with open(os.path.join(workdir, "stderr.txt"), "wb") as stderr:
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, report_path, mode, *cli_args],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=stderr, start_new_session=True)
        # a pidfd wakes at the exit itself; Popen.wait(timeout) polls in
        # steps of up to 50 ms, which would quantize wall_s
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = select.select([pidfd], [], [],
                                   max(deadline - time.monotonic(), 0.0))[0]
        finally:
            os.close(pidfd)
        wall = time.monotonic() - started
        if not exited:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return {"returncode": None, "reasons": ["timed out"]}
        proc.wait()
        if proc.returncode != 0:
            # a crashed child may leave pool workers behind in its group
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    result = {"returncode": proc.returncode, "wall_s": wall, "reasons": []}
    try:
        with open(report_path, encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, ValueError):
        with open(os.path.join(workdir, "stderr.txt"), "rb") as handle:
            tail = handle.read().decode(errors="replace").strip().splitlines()
        result["reasons"].append(
            f"no report, exit {proc.returncode}: {tail[-1] if tail else ''}")
        return result
    result["setup_s"] = report["ready"] - started
    for key in ("run_s", "cpu_s", "peak_rss_mb"):
        if key in report:
            result[key] = report[key]
    if proc.returncode != 0:
        result["reasons"].append(f"exit code {proc.returncode}")
    return result


def invoke(name: str, inputs: dict, config: dict, workdir: str, mode: str,
           deadline: float) -> dict:
    """One CLI process writing into ``workdir/out``, then the output checks."""
    ini = os.path.join(workdir, "run.ini")
    out = os.path.join(workdir, "out")
    write_ini(ini, config, inputs["fields"])
    result = spawn(mode, workdir, [WORKLOADS[name]["command"], "--config", ini,
                                   "--out", out], deadline)
    if not result["reasons"]:
        reasons, info = check(name, inputs, config, out)
        result["reasons"] += reasons
        result.update(info)
    if mode in ("trace", "memtrace") and not result["reasons"]:
        with open(os.path.join(workdir, "report.json.spans"),
                  encoding="utf-8") as handle:
            trace = json.load(handle)
        result["layers"] = tracer.summarize(trace["spans"], trace["counts"])
        result["layers"].update(cli_output_counts(out))
    return result


# ---------------------------------------------------------------------------
# output checks

def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def check_manifest(out: str, needed: list[str]) -> tuple[list[str], dict]:
    """Every manifest checksum matches its file; returns the sha256 sums."""
    try:
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as handle:
            listed = json.load(handle)["checksums"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"manifest unreadable: {exc}"], {}
    reasons = [f"{name} missing from manifest" for name in needed
               if name not in listed]
    sums = {}
    for name, digest in sorted(listed.items()):
        path = os.path.join(out, name)
        sums[name] = _sha256(path) if os.path.isfile(path) else None
        if sums[name] != digest:
            reasons.append(f"{name}: sha256 does not match manifest")
    return reasons, sums


def _dqpt(g_i: float, g_f: float) -> bool:
    return (1.0 - abs(g_i)) * (1.0 - abs(g_f)) < 0.0


def _bloch(g: float, ks: np.ndarray) -> np.ndarray:
    return np.stack([1.0 - g * np.cos(ks), g * np.sin(ks), np.zeros_like(ks)], 1)


def _paper_grid(n: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(n + 1) / n


def check_otoc(inputs: dict, config: dict, out: str) -> tuple[list[str], dict]:
    """Drawn surface cells equal the mode mean of the literal echo oracle."""
    from tfim_dqpt.otoc import echo_state

    quench, echo = config["quench"], config["echo"]
    fields = inputs["fields"]
    surface = np.loadtxt(os.path.join(out, "otoc_surface.csv"), delimiter=",",
                         skiprows=1, ndmin=2)
    reasons = []
    expected_rows = len(fields) * echo["n_phi"] * quench["t_points"]
    if surface.shape != (expected_rows, 5):
        return [f"otoc_surface.csv: shape {surface.shape}, expected "
                f"({expected_rows}, 5)"], {}
    phi_zero = surface[surface[:, 1] == 0.0]
    if phi_zero.shape[0] != len(fields) * quench["t_points"] or \
            not np.all(np.abs(phi_zero[:, 3] - 1.0) <= TOL_ECHO):
        reasons.append("otoc_surface.csv: phi = 0 fidelity column is not 1")
    phis = 2.0 * np.pi * np.arange(echo["n_phi"]) / echo["n_phi"]
    ts = np.linspace(0.0, quench["t_max"], quench["t_points"])
    # g_i = 0: every mode starts in |x>, echo_state's default, and the mode
    # Hamiltonian is d_f(k) itself
    ks = _paper_grid(quench["n"])
    for f, p, j in inputs["cells"]:
        key = np.array([fields[f], phis[p], ts[j]])
        rows = surface[np.all(np.abs(surface[:, :3] - key) <= 1e-12, axis=1)]
        if rows.shape[0] != 1:
            reasons.append(f"otoc_surface.csv: {rows.shape[0]} rows at {key}")
            continue
        states = [echo_state(d_f, ts[j], phis[p])
                  for d_f in _bloch(fields[f], ks)]
        fid = np.mean([abs(s[0] + s[1]) ** 2 / 2.0 for s in states])
        mag = np.mean([np.real(np.conj(s[0]) * s[1]) for s in states])
        if not (abs(rows[0, 3] - fid) <= TOL_ECHO
                and abs(rows[0, 4] - mag) <= TOL_ECHO):
            reasons.append(f"otoc_surface.csv: cell {key} reads "
                           f"({rows[0, 3]!r}, {rows[0, 4]!r}), oracle "
                           f"({fid!r}, {mag!r})")
    with open(os.path.join(out, "doublewell.json"), encoding="utf-8") as handle:
        verdicts = json.load(handle)["results"]
    mismatches = sum((v["classification"] == "double_well")
                     != _dqpt(quench["g_i"], v["g_f"]) for v in verdicts)
    if len(verdicts) != len(fields):
        reasons.append(f"doublewell.json: {len(verdicts)} verdicts")
    return reasons, {"detector_mismatches": mismatches}


def check_oracle(inputs: dict, out: str) -> tuple[list[str], dict]:
    with open(os.path.join(out, "compare.csv"), encoding="utf-8",
              newline="") as handle:
        rows = list(csv.DictReader(handle))
    seen = {(float(row["g_f"]), row["quantity"]) for row in rows}
    wanted = {(g, q) for g in inputs["fields"]
              for q in ("rate_function", "fidelity", "magnetization")}
    reasons = [f"compare.csv: no rows for {missing}"
               for missing in sorted(wanted - seen)]
    differences = [float(row["difference"]) for row in rows]
    worst = max(differences)
    if not all(d <= TOL_ORACLE for d in differences):   # NaN fails too
        reasons.append(f"compare.csv: max difference {worst!r} > {TOL_ORACLE}")
    return reasons, {"max_difference": worst}


def _rate_closed_form(g_i: float, g_f: float, n: int, t: float) -> float:
    ks = _paper_grid(n)
    d_i, d_f = _bloch(g_i, ks), _bloch(g_f, ks)
    n_i = np.linalg.norm(d_i, axis=1)
    n_f = np.linalg.norm(d_f, axis=1)
    gapped = n_f > 0.0
    overlap = np.where(gapped, np.sum(d_i * d_f, axis=1)
                       / (n_i * np.where(gapped, n_f, 1.0)), 1.0)
    prob = np.cos(n_f * t) ** 2 + (overlap * np.sin(n_f * t)) ** 2
    return float(-np.sum(np.log(np.maximum(prob, 1e-300))) / n)


def check_rate(inputs: dict, config: dict, out: str) -> tuple[list[str], dict]:
    """f(t) at drawn cells and every critical time against closed forms."""
    quench = config["quench"]
    g_i, fields = quench["g_i"], inputs["fields"]
    with open(os.path.join(out, "rate_function.json"), encoding="utf-8") as handle:
        table = json.load(handle)
    rows = np.array(table["rows"], dtype=float)
    reasons = []
    if table["columns"] != ["g_f", "t", "f"] or \
            rows.shape != (len(fields) * quench["t_points"], 3):
        return [f"rate_function.json: columns {table['columns']}, "
                f"shape {rows.shape}"], {}
    ts = np.linspace(0.0, quench["t_max"], quench["t_points"])
    for f, j in inputs["cells"]:
        match = rows[(rows[:, 0] == fields[f]) & (np.abs(rows[:, 1] - ts[j]) <= 1e-12)]
        want = _rate_closed_form(g_i, fields[f], quench["n"], ts[j])
        if match.shape[0] != 1 or not abs(match[0, 2] - want) <= TOL_RATE * abs(want):
            reasons.append(f"rate_function.json: f at g_f={fields[f]}, "
                           f"t={ts[j]!r} is {match[:, 2].tolist()}, "
                           f"closed form {want!r}")
    with open(os.path.join(out, "critical_times.json"), encoding="utf-8") as handle:
        series = json.load(handle)["series"]
    if [entry["g_f"] for entry in series] != fields:
        return reasons + ["critical_times.json: fields differ"], {}
    for entry in series:
        g_f, times = entry["g_f"], entry["critical_times"]
        if entry["dqpt"] != _dqpt(g_i, g_f):
            reasons.append(f"critical_times.json: dqpt wrong at g_f={g_f}")
            continue
        if not entry["dqpt"]:
            if times:
                reasons.append(f"critical_times.json: times without DQPT at {g_f}")
            continue
        k_star = np.arccos((1.0 + g_i * g_f) / (g_i + g_f))
        gap = np.sqrt(1.0 + g_f ** 2 - 2.0 * g_f * np.cos(k_star))
        want = np.pi / gap * (np.arange(len(times)) + 0.5)
        if not times or not np.all(np.abs(np.array(times) - want)
                                   <= TOL_RATE * want):
            reasons.append(f"critical_times.json: {times} at g_f={g_f}, "
                           f"closed form {want.tolist()}")
    return reasons, {}


ARTIFACTS = {
    "otoc-sweep": ["otoc_surface.csv", "spectra.csv", "doublewell.json"],
    "oracle-n12": ["compare.csv"],
    "rate-large-n": ["rate_function.json", "critical_times.json"],
}


def check(name: str, inputs: dict, config: dict, out: str) -> tuple[list[str], dict]:
    """Failure reasons (empty when the outputs are correct) and information."""
    reasons, sums = check_manifest(out, ARTIFACTS[name])
    info = {"sha256": sums}
    if reasons:
        return reasons, info
    try:
        if name == "otoc-sweep":
            more, extra = check_otoc(inputs, config, out)
        elif name == "oracle-n12":
            more, extra = check_oracle(inputs, out)
        else:
            more, extra = check_rate(inputs, config, out)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        more, extra = [f"unreadable output: {type(exc).__name__}: {exc}"], {}
    info.update(extra)
    return reasons + more, info


def cli_output_counts(out: str) -> dict:
    """Bytes and table rows the CLI wrote (manifest included)."""
    written, rows = 0, 0
    for name in os.listdir(out):
        path = os.path.join(out, name)
        written += os.path.getsize(path)
        if name.endswith(".csv"):
            with open(path, encoding="utf-8") as handle:
                rows += sum(1 for _ in handle) - 1
        elif name.endswith(".json"):
            with open(path, encoding="utf-8") as handle:
                rows += len(json.load(handle).get("rows", []))
    return {"cli.bytes_written": written, "cli.rows_written": rows}


# ---------------------------------------------------------------------------
# the benchmark run

def environment(seed: int) -> dict:
    import scipy

    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), platform.machine())
    except OSError:
        model = platform.machine()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "blas_pin": BLAS_PIN,
        "git_commit": commit,
        "seed": seed,
        "memory": "ru_maxrss of the CLI process and its reaped pool workers "
                  "(own process tree only; nothing traced system-wide)",
    }


def measure(name: str, inputs: dict, config: dict, seconds: float,
            trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    os.makedirs(WORK, exist_ok=True)

    def run(mode: str) -> dict:
        workdir = tempfile.mkdtemp(dir=WORK)
        try:
            if mode == "setup":
                return spawn(mode, workdir, [], deadline)
            return invoke(name, inputs, config, workdir, mode, deadline)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    try:
        # the first process compiles bytecode and warms the file cache,
        # which a user who runs the CLI twice does not pay again
        run("setup")
        probes = [run("setup") for _ in range(SETUP_PROBES)]
        traced = [run("trace"), run("memtrace")] if trace else []
        samples = []
        while len(samples) < MIN_RUNS or time.monotonic() - started < seconds:
            if samples and time.monotonic() > deadline - 2 * samples[-1].get(
                    "wall_s", HARD_LIMIT_S):
                break
            samples.append(run("run"))
            if samples[-1]["returncode"] is None:
                break
    finally:
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    return {"probes": probes, "samples": samples, "traced": traced}


def end_to_end(measured: dict) -> dict:
    samples = [s for s in measured["samples"] if not s["reasons"]]
    setups = [s["setup_s"] for s in measured["probes"] + measured["samples"]
              if "setup_s" in s]
    metrics = {}
    for key, unit in (("wall_s", "s"), ("run_s", "s"), ("cpu_s", "s"),
                      ("peak_rss_mb", "MB")):
        values = [s[key] for s in samples]
        if values:
            metrics[key] = {"value": statistics.median(values), "unit": unit}
    if setups:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    attempted = len(measured["samples"])
    metrics["ok_frac"] = {"value": len(samples) / attempted, "unit": "1"}
    return metrics


PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "share": "1", "peak_mb": "MB",
                   "modes": "count", "scans": "count", "echo_cells": "count",
                   "detector_mismatches": "count", "evolutions": "count",
                   "matvecs": "count", "matvec_s": "s", "bytes_written": "B",
                   "rows_written": "count", "overhead_s": "s"}


def per_layer(measured: dict) -> dict:
    """Times and counts from the timing trace, peaks from the memory trace."""
    timed, memory = measured["traced"]
    if "layers" not in timed or "layers" not in memory:
        return {}
    values = {key: value for key, value in timed["layers"].items()
              if not key.endswith(".peak_mb")}
    values.update({key: value for key, value in memory["layers"].items()
                   if key.endswith(".peak_mb")})
    values["otoc.detector_mismatches"] = timed.get("detector_mismatches", 0)
    run_s = [s["run_s"] for s in measured["samples"] if not s["reasons"]]
    if run_s:
        values["trace.overhead_s"] = timed["run_s"] - statistics.median(run_s)
    return {key: {"value": value, "unit": PER_LAYER_UNITS[key.split(".", 1)[1]]}
            for key, value in sorted(values.items())}


def result(measured: dict, trace: bool) -> dict:
    """The result line: every CLI process counts, the traced ones included."""
    processes = measured["samples"] + measured["traced"]
    failed = sum(1 for s in processes if s["reasons"])
    return {"correct": failed == 0, "attempted": len(processes),
            "failed": failed,
            "metrics": per_layer(measured) if trace else end_to_end(measured)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small problem sizes, for the benchmark's tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tfim_dqpt", "cli.py")):
        print(f"benchmark: no tfim_dqpt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    config = config_for(args.workload, args.quick)
    inputs = draw_inputs(args.workload, args.seed, args.quick)
    measured = measure(args.workload, inputs, config, args.seconds,
                       bool(args.trace))
    print(json.dumps({"env": environment(args.seed), "workload": args.workload,
                      "quick": args.quick, "inputs": inputs, **measured}))
    print(json.dumps(result(measured, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
