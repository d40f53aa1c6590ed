"""Command-line front end: sweeps, figure data, manifests, oracle harness.

Subcommands
-----------
rate-function   rate_function.csv + critical_times.json
heatmap         return_prob.csv (k, t/t0, probability surface)
otoc            otoc_surface.csv + spectra.csv + doublewell.json
spectra         otoc with spectra-only output
oracle-compare  compare.csv; exit 1 when any difference beats the tolerance
pulse-schedule  schedule.csv + replay_check.json

Configuration is DEFAULTS, then the INI file (``--config``), then flags.
``KEYS`` holds each key once: its default, its rule, its flag (if any) and
its help, which ``--help`` shows with the rule's text.  A flag's value is
collected as a plain string; ``_coerce`` parses it and ``validate_config``
checks it by the key's rule, exactly as for the same string in the INI file.

Every run writes ``manifest.json`` holding the fully resolved configuration
(defaults included), the artifact version, and a sha256 checksum per output
file, taken from the bytes as they are written.  Identical configurations
give byte-identical files for one numpy build at one CPU dispatch level
(across levels only numeric cells move, by a few ulp: README); floats
print in shortest round-trip form, and the run time goes only to stderr.
Files appear atomically (temp + rename), each directory once its first piece
exists; a failed write removes its temp file.

``heatmap`` (each field's map built as the writer reaches its block) and
``pulse-schedule`` never fork.  The other commands run their final fields on
one path, ``_fork_join`` with k participants: this process runs one strided
share of the fields while a forked child runs each other share and pipes its
pickled results back.  k is one per usable CPU, at most one per field, once
the planned work (fields x grid size x time samples per field) reaches
``POOL_MIN_CELLS`` on Linux; otherwise k = 1, and the fields run in this
process with nothing forked.  ``oracle-compare``'s grid size is its ring
sector's orbit states.  Each job's budget check runs in ``validate_config``
too, so a refused size exits before any fork.  No run imports the standard
library's process-pool module, and no option picks k or changes an artifact.

The ``otoc`` and ``spectra`` jobs (and ``oracle-compare``'s echo) return
one mode moment m(t) per field, and under ``product`` its fidelity surface;
the parent forms every ``mean`` surface and spectrum from m in closed form
as it writes.  Each field's double-well verdict is its closed-form well
depth against ``sweep.dw_threshold`` (depth >= eps_dw); ``echo.dw_tau_points``
and ``echo.dw_window`` are still accepted and checked, and change nothing.

Tables are written one block at a time: one final field's arrays (and
scalars), whose rows are the C-order cells of their broadcast, viewed as
(leading rows, last axis), so no key column is ever built whole.  The keys
(g_f, phi, k, t of the spectra), the columns constant along the last axis
that open the block, are texted once per leading row.  A block may carry a
fold, which maps each leading row to a row of its value columns, given then
on their distinct rows only: an echo surface's angles phi_j and 2 pi - phi_j
share one row, and so do the heatmap's modes k and 2 pi - k.  Each value row
is texted once, its cell texts held for this chunk and the next, and each
leading row's lines are one ``str.join`` with its key text inside the
separator.  A value column constant across the rows (the times, the
orders; spectra's im under ``mean``, the scalar 0.0) is texted once per
block, and one passed as an earlier column's object (spectra's abs under
``mean``, which is re) takes its texts.  CSV and JSON share that one text
path; CSV fields follow csv's QUOTE_MINIMAL rule.

Exit codes: 0 success, 1 tolerance failure, 2 configuration error,
3 any other simulator error (a safety net).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import functools
import hashlib
import itertools
import json
import math
import os
import pickle
import sys
import time

import numpy as np

from . import __version__, chain, otoc, quench, su2
from .errors import (
    ConfigurationError,
    NoDqptError,
    SimulatorError,
    ToleranceFailure,
    UndefinedExpressionError,
)

__all__ = ["main", "build_parser", "resolve_config", "DEFAULTS", "KEYS"]

_POSITIVE = (lambda value: math.isfinite(value) and value > 0, "a finite float > 0")

# One row per key: (section, key, default, rule, flag or None, help).  A rule
# is an integer range (least, most or None), a tuple of the allowed words, or
# a test of the value and its text.  _coerce parses a value as its default's
# type (the final fields as comma-separated floats), validate_config applies
# the rule, and argparse only collects each flag's value as a string.
KEYS = (
    ("quench", "g_i", 0.0, (math.isfinite, "a finite float"), "--gi", "initial field"),
    ("quench", "g_f", [0.5, 0.8, 1.2], (lambda fields: bool(fields) and all(
        map(math.isfinite, fields)), "comma-separated finite floats, at least one"),
     "--gf", "final fields"),
    ("quench", "n", 30, (2, None), "--n",
     "momentum grid size; oracle-compare refuses it"),
    ("quench", "grid", "paper", quench.GRID_MODES, "--grid",
     "momentum grid convention"),
    ("quench", "t_max", 5.0, _POSITIVE, None, "last time of the t grid"),
    ("quench", "t_points", 500, (2, None), None, "times in the t grid"),
    ("quench", "tau_points", 201, (2, None), None, "heatmap times t/t0 in [0, 2]"),
    ("echo", "n_phi", 64, (3, None), "--nphi",
     "rotation angles, at least 2 echo.m_max + 1"),
    ("echo", "aggregation", "mean", otoc.AGGREGATIONS, "--aggregation",
     "fidelity over modes"),
    ("echo", "m_max", 3, (0, None), None, "largest coherence order written"),
    ("echo", "dw_tau_points", 161, (3, None), None, "unused since 0.16.0"),
    ("echo", "dw_window", 0.4, (lambda value: 0 < value <= 0.5,
                                "a float in (0, 0.5]"), None, "unused since 0.16.0"),
    ("sweep", "tolerance", 1e-6, (lambda value: value > 0, "a float > 0"),
     "--tolerance", "oracle comparison tolerance"),
    ("sweep", "dw_threshold", otoc.DW_THRESHOLD, _POSITIVE, "--dw-threshold",
     "double-well threshold eps_dw"),
    ("sweep", "pulse_constant", 1.0, _POSITIVE, "--pulse-constant", "Rabi constant C"),
    ("sweep", "n_t", 100, (2, None), "--nt", "pulse durations per mode"),
    ("oracle", "n_oracle", 8, (2, chain.MAX_RING), None, "ring size of oracle-compare"),
    ("oracle", "bc", "periodic", ("periodic",), None,
     "boundary condition; only the ring is modelled"),
    ("outputs", "out", "out", (lambda path: path != "", "a nonempty path"), "--out",
     "output directory, made at the first artifact"),
    ("outputs", "format", "csv", ("csv", "json"), "--format",
     "tabular artifact format"),
)
DEFAULTS = {section: {key: default for where, key, default, *_ in KEYS
                      if where == section}
            for section in dict.fromkeys(row[0] for row in KEYS)}


def _allowed(rule) -> str:
    """The text of what a KEYS rule admits."""
    if isinstance(rule[0], int):
        return su2._int_range(*rule)
    if isinstance(rule[0], str):
        return " or ".join(map(repr, rule))
    return rule[1]


def _coerce(section: str, key: str, raw: str):
    """A flag's or an INI value's string as the type of its default (int,
    float or str); the final fields are comma-separated floats."""
    default = DEFAULTS[section][key]
    try:
        if isinstance(default, list):
            return [float(part) for part in raw.split(",") if part.strip()]
        return type(default)(raw)
    except ValueError as exc:
        raise ConfigurationError(
            f"{section}.{key}: cannot parse {raw!r}") from exc


def load_config_file(path: str) -> dict:
    """Flat INI-style file with sections mirroring the module layout."""
    import configparser

    parser = configparser.ConfigParser(interpolation=None)   # '%' is literal
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
    if args.command == "oracle-compare":
        resolved["quench"]["grid"] = "abc"
    ini = load_config_file(args.config) if args.config else {}
    for section, values in ini.items():
        resolved[section].update(values)
    for section, key, *_, flag, _ in KEYS:
        raw = getattr(args, f"{section}.{key}") if flag else None
        if raw is not None:
            resolved[section][key] = _coerce(section, key, raw)
    _require(args.command != "oracle-compare" or "n" not in ini.get("quench", {})
             and getattr(args, "quench.n") is None, "quench.n",
             "oracle-compare sizes its chain by oracle.n_oracle; leave it unset")
    validate_config(resolved, args.command)
    return resolved


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise ConfigurationError(f"{field}: {message}")


def validate_config(resolved: dict, command: str | None) -> None:
    """Every key of ``resolved`` by its KEYS rule, the keys that bound one
    another, and the time grids and per-field jobs ``command`` plans."""
    for section, key, _, rule, *_ in KEYS:
        name, value = f"{section}.{key}", resolved[section][key]
        if isinstance(rule[0], int):
            su2._require_int(name, value, *rule)
        else:
            _require(value in rule if isinstance(rule[0], str) else rule[0](value),
                     name, f"must be {_allowed(rule)}, got {value!r}")
    q, e = resolved["quench"], resolved["echo"]
    _require(e["n_phi"] >= 2 * e["m_max"] + 1, "echo.n_phi",
             f"{e['n_phi']} angles cannot resolve echo.m_max = {e['m_max']}; "
             f"need at least {2 * e['m_max'] + 1}")
    if command == "oracle-compare":
        chain._require_quench_fields(q["g_i"], "quench.g_i")
    # the t grid and its rate columns, for the commands that build them,
    # before any grid, fork or library guard
    t_points = q["t_points"] if command in ("rate-function", "otoc", "spectra") else 0
    quench._require_budget(8 * t_points * (1 + 4 * len(q["g_f"])),
                           f"time grids of {t_points} points")
    # each fanned-out job's own check, so a refused size forks no child
    spec = quench.QuenchSpec(q["g_i"], q["g_f"][0], q["n"], q["grid"])
    if command == "rate-function":
        quench._require_rate_budget(spec, t_points)
    elif command in ("otoc", "spectra"):
        otoc._require_scan_budget(spec, t_points, e["n_phi"], e["aggregation"])
        if e["aggregation"] == "product":   # every field's surface is held
            otoc._require_dft_budget(       # while each spectra's DFT runs
                e["n_phi"], e["m_max"], t_points, len(q["g_f"]))


# ---------------------------------------------------------------------------
# deterministic artifact writing

# rows per formatted chunk: bounds the Python strings alive at once
CHUNK_ROWS = 16384


def _quote(text: str) -> str:
    """One CSV field under csv's QUOTE_MINIMAL rule.

    The field is wrapped in quotes, with every quote doubled, when it holds
    a comma, a quote, a newline or a carriage return.  A bare carriage
    return would read back as a line end, so it is quoted even where csv
    with a newline terminator leaves it bare.
    """
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(column: np.ndarray, fmt: str) -> list[str]:
    """A 1-D array as CSV or JSON cell text.

    Each distinct value is turned into text once and the texts are indexed
    back through ``np.unique``.  Floats print in shortest round-trip form
    with -0.0 made 0.0 (``NaN``/``Infinity`` in JSON, as ``json.dumps``
    writes them); bools print as 1/0 in CSV; strings are quoted as csv or
    ``json.dumps`` would quote them.
    """
    as_json, kind = fmt == "json", column.dtype.kind
    # + 0.0 canonicalizes negative zero; np.unique joins every NaN
    levels, codes = np.unique(column + 0.0 if kind == "f" else column,
                              return_inverse=True)
    if kind == "b":
        words = ("false", "true") if as_json else ("0", "1")
        texts = [words[value] for value in levels.tolist()]
    elif kind == "U":
        texts = list(map(json.dumps if as_json else _quote, levels.tolist()))
    elif kind == "f":
        texts = list(map(repr, levels.tolist()))
        if as_json and not np.isfinite(levels).all():
            names = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
            texts = [names.get(text, text) for text in texts]
    else:
        texts = list(map(str, levels.tolist()))
    return np.array(texts, dtype=object)[codes].tolist()


def _block_rows(block: list, fold, row_sep: str, cell_sep: str, fmt: str):
    """The text of one block, as a list of row texts per chunk.

    The block is viewed as (leading rows, last axis).  Its keys, the columns
    constant along the last axis that open it (never every column), are
    texted per leading row as its prefix.  Leading row i takes row
    ``fold[i]`` of the value columns (row i without a fold), whose cells
    are texted once and held for this chunk and the next.  A value
    column constant across rows is texted once per block unless its rows are
    split, and one that is an earlier one's object takes its texts.  A chunk
    is as many whole rows as fit in CHUNK_ROWS lines, or one piece of a
    longer row; each row is one ``str.join`` with the prefix inside the
    separator.
    """
    along = [np.shape(column)[-1:] in ((), (1,)) for column in block]
    lead = min(along.index(False) if False in along else len(block), len(block) - 1)
    shape = np.broadcast_shapes(*map(np.shape, block if fold is None else block[lead:]))
    width, rows = (shape[-1], math.prod(shape[:-1])) if shape else (1, 1)
    fold = np.arange(rows) if fold is None else fold
    if not (fold.size and rows * width):
        return
    keys = [np.broadcast_to(column, (fold.size, 1))[:, 0] for column in block[:lead]]
    values = [np.broadcast_to(column, (rows, width)) for column in block[lead:]]
    along = along[lead:]
    twin = [next(d for d in range(c + 1) if block[lead + d] is block[lead + c])
            for c in range(len(values))]
    key_once = {c: _cells(view[:1], fmt) for c, view in enumerate(keys)
                if fold.size == 1 or view.strides[0] == 0}
    once = {c: _cells(view[0, :1] if along[c] else view[0], fmt)
            for c, view in enumerate(values)
            if twin[c] == c and (rows == 1 or not view.strides[0])
            and (along[c] or width <= CHUNK_ROWS)}
    held, per = {}, max(1, CHUNK_ROWS // width)
    for top in range(0, fold.size, per):
        index = fold[top:top + per].tolist()
        key_texts = [key_once[c] * len(index) if c in key_once
                     else _cells(view[top:top + per], fmt)
                     for c, view in enumerate(keys)]
        prefixes = list(map(cell_sep.join, zip(*key_texts, [""] * len(index))))
        for left in range(0, width, CHUNK_ROWS):
            span = min(CHUNK_ROWS, width - left)
            here = {d: held.get(d) for d in index}
            new = [d for d, cells in here.items() if cells is None]
            parts = []
            for c, view in enumerate(values):
                if twin[c] < c:
                    parts.append(parts[twin[c]])
                elif along[c]:
                    texts = (once[c] * len(new) if c in once
                             else _cells(view[new, 0], fmt))
                    parts.append([[text] * span for text in texts])
                elif c in once:
                    parts.append([once[c]] * len(new))
                else:
                    texts = _cells(view[new, left:left + span].ravel(), fmt)
                    parts.append([texts[at:at + span]
                                  for at in range(0, len(texts), span)])
            here.update(zip(new, zip(*parts)))
            held = here if width <= CHUNK_ROWS else {}  # no piece of a split row
            yield [prefix + (row_sep + prefix).join(map(cell_sep.join, zip(*here[d])))
                   for prefix, d in zip(prefixes, index)]


def _table_text(columns: list[str], blocks, fmt: str):
    """The text of a table, yielded one chunk at a time, from an iterable
    of blocks.  A block is a list of arrays (or scalars) that broadcast
    together to at most two axes, and its rows are the C-order cells of the
    broadcast (``np.broadcast_to`` makes views only, so no key column is
    built whole), or a pair (list, fold) whose value columns broadcast on
    their own rows and whose keys take ``fold``'s length (``_block_rows``).
    A block may be empty.  Each block is built only once the one before is
    dropped, the first before the header; one block, one chunk's text and
    the cell texts of this chunk's and the previous chunk's value rows are
    held at a time.
    csv would write a row of one empty field as ``""``; every table here
    has at least two columns, so no row is one field.
    """
    blocks = iter(blocks)
    block = next(blocks, None)
    if fmt == "csv":
        head, row_sep, cell_sep, tail = "", "\n", ",", "\n"
        yield ",".join(map(_quote, columns)) + "\n"
    else:
        head, row_sep, cell_sep, tail = "[", "], [", ", ", "]"
        yield f'{{"columns": {json.dumps(columns)}, "rows": ['
    while block is not None:
        block, fold = block if isinstance(block, tuple) else (block, None)
        for rows in _block_rows(block, fold, row_sep, cell_sep, fmt):
            rows[0] = head + rows[0]    # copies of one row, not of the chunk
            rows[-1] += tail
            yield row_sep.join(rows)
            head = "" if fmt == "csv" else ", ["
        del block, fold         # released before the next block is built
        block = next(blocks, None)
    if fmt == "json":
        yield "]}\n"


def _atomic_write(path: str, pieces) -> tuple[str, str]:
    """Write an iterable of text pieces to ``path`` through a temp file;
    return the file's name and the sha256 of the bytes written.

    The output directory is made once the first artifact's first piece
    exists, so a refused request leaves none.  The temp file is renamed
    into place when every piece is written; on any failure it is removed.
    """
    outdir, tmp = os.path.dirname(path), f"{path}.tmp"
    pieces = iter(pieces)
    pieces = itertools.chain([next(pieces, "")], pieces)
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"outputs.out: cannot make {outdir!r}: {exc.strerror}") from exc
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as handle:
            for data in map(str.encode, pieces):
                digest.update(data)
                handle.write(data)
                del data        # not held while the next piece is built
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    return os.path.basename(path), digest.hexdigest()


def _write_table(outdir: str, stem: str, columns: list[str], blocks,
                 fmt: str) -> tuple[str, str]:
    """Write blocks of broadcast columns as ``stem.csv`` or
    ``stem.json``, chunk by chunk from ``_table_text``; the JSON layout is
    ``{"columns": [...], "rows": [[...], ...]}``, as ``json.dumps`` with
    sorted keys would write it.  Returns the name and its sha256."""
    return _atomic_write(os.path.join(outdir, f"{stem}.{fmt}"),
                         _table_text(columns, blocks, fmt))


def _write_json(outdir: str, name: str, payload) -> tuple[str, str]:
    return _atomic_write(os.path.join(outdir, name),
                         [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


def _write_manifest(outdir: str, command: str, resolved: dict,
                    written: list[tuple[str, str]]) -> None:
    """``manifest.json`` from the writers' (name, sha256) pairs."""
    _write_json(outdir, "manifest.json", {
        "artifact_version": __version__,
        "command": command,
        "config": resolved,
        "checksums": dict(written),
    })


# planned cells (fields x grid size x time samples per field) from which the
# fields fork: the process pool's measured crossover (CHANGES.md), not yet
# measured again for the cheaper fork
POOL_MIN_CELLS = 2 ** 23


def _fan_out(fn, q: dict, n: int, samples: int, grid_size=None) -> list:
    """Each final field's per-time result ``fn(spec)`` on ``n`` sites, from
    ``_fork_join`` in one participant below POOL_MIN_CELLS fields x ``grid_size``
    (default: modes) x ``samples`` or off Linux, else min(usable CPUs, fields)."""
    specs = [quench.QuenchSpec(q["g_i"], g_f, n, q["grid"]) for g_f in q["g_f"]]
    cells = len(specs) * (grid_size or specs[0].n_modes) * samples
    workers = 1
    if cells >= POOL_MIN_CELLS and sys.platform == "linux":
        workers = min(len(os.sched_getaffinity(0)), len(specs))
    return _fork_join(fn, specs, workers)


def _run_share(fn, specs: list, share: int, workers: int) -> dict:
    """{field index: result} of the fields ``specs[share::workers]`` in
    order, up to the first that raised, whose entry is its error."""
    outcomes = {}
    for index in range(share, len(specs), workers):
        try:
            outcomes[index] = fn(specs[index])
        except Exception as exc:
            return {**outcomes, index: exc}
    return outcomes


def _fork_join(fn, specs: list, workers: int) -> list:
    """``[fn(spec) for spec in specs]`` in ``workers`` participants.

    A forked child runs each share s >= 1 and pickles its ``_run_share``
    outcomes into a pipe; this process runs share 0 (with one participant,
    every field), then reads each pipe to EOF and reaps its child.  The first
    error in field order is raised, as in a serial run; a child that ends with
    no outcome fails at its first field.  Any child still running on the way
    out is killed.
    """
    running, pipes = [], []
    try:
        for share in range(1, workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:     # the child never returns into the caller
                code = 1
                try:
                    os.close(read)
                    with open(write, "wb") as pipe:
                        pickle.dump(_run_share(fn, specs, share, workers), pipe)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            running.append(pid)
            pipes.append(open(read, "rb"))
        outcomes = _run_share(fn, specs, 0, workers)
        for share, (pid, pipe) in enumerate(zip(running[:], pipes), 1):
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            running.remove(pid)
            if code == 0:
                outcomes.update(pickle.loads(data))
                continue
            fields = ", ".join(str(spec.g_f) for spec in specs[share::workers])
            ended = f"signal {-code}" if code < 0 else f"exit code {code}"
            outcomes[share] = SimulatorError(
                f"the worker for g_f = {fields} ended with no result ({ended})")
        for index in sorted(outcomes):      # a share stops at its error
            if isinstance(outcomes[index], Exception):
                raise outcomes[index]
        return [outcomes[index] for index in range(len(specs))]
    finally:
        if running:
            import signal
            for pid in running:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


# ---------------------------------------------------------------------------
# per-field jobs (_fan_out's)

def _job_otoc(spec, ts, e: dict):
    """One field's mode moment m(t) after the scan's one count, and under
    ``product`` its fidelity surface (else None); the parent forms the rest."""
    otoc._require_scan_budget(spec, ts.size, e["n_phi"], e["aggregation"])
    config = otoc.EchoConfig(spec, ts, e["n_phi"], e["aggregation"])
    return otoc._mode_moment(config), (otoc._product_fidelity(config)
                                      if config.aggregation == "product" else None)


def _job_pulse(spec, constant: float, n_t: int):
    """One field's schedule and its largest deviation from d_f(k).

    Replay and target are cos(a) I - i sin(a) (u . sigma).  The replay reads
    a = rabi_rate T / 2 and u = exp(i axis_angle) off the schedule; the
    target is d_f(k)'s propagator at C T / 2 (the identity if idle), and
    its angle must also be pi j / (n_t - 1) at duration j: one period.
    """
    # four (n_k, n_t) arrays, refused before the schedule, which holds less
    quench._require_budget(quench._working_set(spec.n_modes, n_t, 4),
                           f"replay check of {spec.n_modes} x {n_t} pulses")
    sched = quench.pulse_schedule(spec, c=constant, n_t=n_t)
    live = ~sched.idle
    d_x, d_y = quench._bloch_xy(spec.g_f, sched.k)
    norm = np.hypot(d_x, d_y) * live                     # |d_f|, 0 if idle
    u_x, u_y = (np.divide(d, norm, out=np.zeros_like(d), where=live)[:, None]
                for d in (d_x, d_y))
    a = sched.durations * (0.5 * sched.rabi_rate)[:, None]   # replay angle
    b = sched.durations * (0.5 * constant * norm)[:, None]   # target angle
    w = np.multiply.outer(live, np.linspace(0.0, np.pi, n_t))
    drift = np.abs(np.subtract(w, b, out=w), out=w).max()  # |pi j/(n_t-1) - a'|
    x = np.cos(b)
    diag = np.abs(np.subtract(np.cos(a, out=w), x, out=w), out=w).max()
    np.sin(a, out=a)
    np.sin(b, out=b)
    np.subtract(np.multiply(a, np.cos(sched.axis_angle)[:, None], out=w),
                np.multiply(b, u_x, out=x), out=w)
    a *= np.sin(sched.axis_angle)[:, None]
    a -= np.multiply(b, u_y, out=b)
    off = np.hypot(w, a, out=w).max()                    # |sin a u - sin a' u'|
    return sched, float(max(drift, diag, off))


def _job_compare(spec, ts, phis, echo_ts):
    rate_gap = np.abs(quench.rate_function(spec, ts) - chain.rate_function_ed(
        spec.n, spec.g_i, spec.g_f, ts))
    m, fid = _job_otoc(spec, echo_ts, {"n_phi": phis.size, "aggregation": "product"})
    fid_ed, mag_ed = chain.echo_scan_chain(spec.n, spec.g_f, echo_ts, phis)
    fold = otoc._phi_fold(phis.size)
    return rate_gap, np.abs(fid_ed - fid[fold]), np.abs(
        mag_ed - otoc._mean_surface(m, phis.size, "magnetization")[fold])


# ---------------------------------------------------------------------------
# subcommands

def cmd_rate_function(resolved: dict) -> None:
    q, out = resolved["quench"], resolved["outputs"]
    ts = np.linspace(0.0, q["t_max"], q["t_points"])
    series = _fan_out(functools.partial(quench.rate_function, t=ts), q, q["n"],
                      ts.size)
    written = [_write_table(out["out"], "rate_function", ["g_f", "t", "f"],
                            ([g_f, ts, f] for g_f, f in zip(q["g_f"], series)),
                            out["format"])]
    analytic = []
    for g_f in q["g_f"]:
        try:
            t_c = [float(x) for x in quench.critical_times(q["g_i"], g_f, n_max=2)]
        except (NoDqptError, UndefinedExpressionError):
            t_c = []
        analytic.append({"g_f": g_f,
                         "dqpt": quench.dqpt_predicate(q["g_i"], g_f),
                         "critical_times": t_c})
    written.append(_write_json(out["out"], "critical_times.json",
                               {"g_i": q["g_i"], "series": analytic}))
    _write_manifest(out["out"], "rate-function", resolved, written)


def cmd_heatmap(resolved: dict) -> None:
    q, out = resolved["quench"], resolved["outputs"]

    def block(g_f):     # built as the writer reaches it, dropped once written
        spec = quench.QuenchSpec(q["g_i"], g_f, q["n"], q["grid"])
        taus, probs = quench._grid_probabilities(spec, q["tau_points"])
        return [g_f, spec._grid()[:, None], taus, probs], spec._distinct_index()
    written = [_write_table(out["out"], "return_prob",
                            ["g_f", "k", "t_over_t0", "probability"],
                            map(block, q["g_f"]), out["format"])]
    _write_manifest(out["out"], "heatmap", resolved, written)


def _well(spec, eps_dw: float) -> dict:
    """The double-well verdict, depth >= eps_dw, from the closed-form depth,
    and the depth and its margin over eps_dw."""
    depth = otoc._well_depth(spec)      # its modes fit: the job's scan holds them
    return {"classification": "double_well" if depth >= eps_dw else "single_well",
            "depth": depth, "margin": depth - eps_dw}


def cmd_otoc(resolved: dict, spectra_only: bool = False) -> None:
    q, e = resolved["quench"], resolved["echo"]
    s, out = resolved["sweep"], resolved["outputs"]
    ts = np.linspace(0.0, q["t_max"], q["t_points"])
    results = _fan_out(functools.partial(_job_otoc, ts=ts, e=e), q, q["n"],
                       ts.size)
    phis, fold = otoc._phi_grid(e["n_phi"]), otoc._phi_fold(e["n_phi"])
    written = []
    if not spectra_only:    # each surface on its distinct angles, with its fold
        blocks = (([g_f, phis[:, None], ts, otoc._mean_surface(
                    m, phis.size, "fidelity") if fid is None else fid,
                    otoc._mean_surface(m, phis.size, "magnetization")], fold)
                  for g_f, (m, fid) in zip(q["g_f"], results))
        written.append(_write_table(
            out["out"], "otoc_surface",
            ["g_f", "phi", "t", "fidelity", "magnetization"], blocks,
            out["format"]))
    orders = np.arange(-e["m_max"], e["m_max"] + 1)

    def spectra(g_f, observable, m, scan):  # over (t, m), built as it is written
        if scan is None:    # im is +0.0 and re >= 0, so abs is re bit for bit
            re = otoc._mean_spectra(m, e["m_max"], observable).T
            return [g_f, observable, ts[:, None], orders, re, 0.0, re]
        c = otoc.mqc_components(scan[fold], e["m_max"]).T
        # Python's abs() bit for bit; np.abs differs in the last bit
        return [g_f, observable, ts[:, None], orders, c.real, c.imag,
                np.hypot(c.real, c.imag)]
    written.append(_write_table(   # a block per field and observable
        out["out"], "spectra", ["g_f", "observable", "t", "m", "re", "im", "abs"],
        itertools.starmap(spectra, ((g_f, observable, m, scan)
                                    for g_f, (m, fid) in zip(q["g_f"], results)
                                    for observable, scan in (("fidelity", fid),
                                                             ("magnetization", None)))),
        out["format"]))
    if not spectra_only:
        payload = {
            "detector": {
                "series": "order-1 magnetization coherence, normalized time",
                "t_c_normalized": 0.5,
                "eps_dw": s["dw_threshold"],
            },
            "results": [{"g_f": g_f, **_well(quench.QuenchSpec(
                q["g_i"], g_f, q["n"], q["grid"]), s["dw_threshold"])}
                        for g_f in q["g_f"]],
        }
        written.append(_write_json(out["out"], "doublewell.json", payload))
    _write_manifest(out["out"], "spectra" if spectra_only else "otoc",
                    resolved, written)


def cmd_oracle_compare(resolved: dict) -> None:
    q, s = resolved["quench"], resolved["sweep"]
    o, out = resolved["oracle"], resolved["outputs"]
    n = o["n_oracle"]
    ts = np.linspace(0.0, q["t_max"], 100)
    phis = otoc._phi_grid(8)
    echo_ts = np.linspace(0.0, q["t_max"], 10)
    # each rate time and (phi, t) echo cell samples the sector's orbit states
    results = _fan_out(functools.partial(_job_compare, ts=ts, phis=phis,
                                         echo_ts=echo_ts), q, n,
                       ts.size + phis.size * echo_ts.size,
                       chain._orbits(n)[1].size)
    # per field: the rate rows (no phi), then fidelity and magnetization
    # over (phi, t)
    keys = [("rate_function", "", ts), ("fidelity", phis[:, None], echo_ts),
            ("magnetization", phis[:, None], echo_ts)]
    blocks = [[g_f, *key, gap] for g_f, gaps in zip(q["g_f"], results)
              for key, gap in zip(keys, gaps)]
    written = [_write_table(out["out"], "compare",
                            ["g_f", "quantity", "phi", "t", "difference"],
                            blocks, out["format"])]
    _write_manifest(out["out"], "oracle-compare", resolved, written)
    # the first largest difference; NaN rows never count as the worst
    ranked = [np.where(np.isnan(gap), -np.inf, gap) for *_, gap in blocks]
    index = max(range(len(blocks)), key=lambda i: ranked[i].max())
    row = np.argmax(ranked[index])                    # C-order, as written
    if ranked[index].flat[row] > s["tolerance"]:
        g_f, quantity, _, t, gap = blocks[index]
        raise ToleranceFailure(
            f"worst difference {gap.flat[row]:.3e} > tolerance "
            f"{s['tolerance']:.3e} ({quantity}, g_f={g_f}, "
            f"t={np.broadcast_to(t, gap.shape).flat[row]:.6f}, grid={q['grid']})")


def cmd_pulse_schedule(resolved: dict) -> None:
    q, s, out = resolved["quench"], resolved["sweep"], resolved["outputs"]
    # every field before any file: a later g_f can refuse the pulse constant
    scheds, deviations = zip(*(_job_pulse(
        quench.QuenchSpec(q["g_i"], g_f, q["n"], q["grid"]), s["pulse_constant"],
        s["n_t"]) for g_f in q["g_f"]))
    keys = ("k", "axis_angle", "rabi_rate")
    blocks = ([g_f, *(sched[key][:, None] for key in keys),
               np.arange(s["n_t"]), sched.durations, sched.idle[:, None]]
              for g_f, sched in zip(q["g_f"], scheds))
    written = [_write_table(out["out"], "schedule",
                            ["g_f", *keys, "duration_index", "duration", "idle"],
                            blocks, out["format"])]
    written.append(_write_json(out["out"], "replay_check.json", {
        "per_g_f": [{"g_f": g_f, "max_deviation": deviation}
                    for g_f, deviation in zip(q["g_f"], deviations)],
        "max_deviation": max(deviations)}))
    _write_manifest(out["out"], "pulse-schedule", resolved, written)


# ---------------------------------------------------------------------------

# subcommand -> (function of the resolved config, help)
COMMANDS = {
    "rate-function": (cmd_rate_function,
                      "rate function sweep and analytic critical times"),
    "heatmap": (cmd_heatmap, "per-mode return probability surface"),
    "otoc": (cmd_otoc, "echo surfaces, coherence spectra, well classification"),
    "spectra": (functools.partial(cmd_otoc, spectra_only=True),
                "coherence spectra only"),
    "oracle-compare": (cmd_oracle_compare,
                       "momentum model vs full-register oracle"),
    "pulse-schedule": (cmd_pulse_schedule,
                       "per-mode rotation schedule and replay check"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfim-dqpt", formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Quench, echo, and pulse-schedule sweeps for the "
                    "transverse-field Ising chain",
        epilog="commands:\n" + "".join(f"  {name:<16}{text}\n"
                                       for name, (_, text) in COMMANDS.items()))
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=COMMANDS, metavar="command",
                        help="one of the commands below")
    parser.add_argument("--config", help="INI config file")
    for section, key, _, rule, flag, text in KEYS:
        if flag:
            parser.add_argument(flag, dest=f"{section}.{key}",
                                metavar=f"{section}.{key}",
                                help=f"{text} ({_allowed(rule)})")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        COMMANDS[args.command][0](resolve_config(args))
    except ToleranceFailure as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return 1
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SimulatorError as exc:  # a dead worker, else a safety net
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(f"completed in {time.perf_counter() - started:.3f} s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
