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

``heatmap`` (each field's map built with its table block) and
``pulse-schedule`` never fork their fields.  The other commands run their
final fields on one path, ``_fork_join`` with k participants: this process
runs one strided share of the fields while a forked child runs each other
share and pipes its pickled results back.  On Linux k is the least of the
usable CPUs, the fields and 2 x the planned work (fields x grid size x time
samples per field) // ``POOL_MIN_CELLS``, and at least 1, so the shares
plan at least half of ``POOL_MIN_CELLS`` on average; elsewhere k = 1, and
the fields run in this process with nothing forked.
``oracle-compare``'s grid size is its ring sector's orbit states.  Each
job's budget check (and ``heatmap``'s map count) runs in
``validate_config`` too, so a refused size exits before any fork.  No run
imports the standard library's process-pool module, and no option picks k
or changes an artifact.

Every command then hands its artifacts, in write order, to one writer,
``_write``, which texts the tables on the same ``_fork_join``.  Their
blocks are split into contiguous ranges of about equal planned values
(``_Table.plan``), one per participant; k follows the same rule, with the
blocks for the fields and ``WRITER_MIN_VALUES`` for ``POOL_MIN_CELLS``.
Each participant builds and texts only its own blocks, and holds one block
and one chunk's text at a time: a forked child writes its range's text
into one anonymous temp file (a spool) per table it touches and pipes back
only its outcome, and this process writes the first range straight into
its tables' temp files, then appends the spools in order.  At the ``otoc``
defaults on 2 CPUs, this process texts the surfaces of fields 1-2 and a
child field 3's and every spectra block.

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
path.  Every header is fixed, and every string cell is one of a few fixed
words (an observable, a compared quantity, or ""), none holding a comma, a
quote or a line end, so CSV writes them as they are.

Exit codes: 0 success, 1 tolerance failure, 2 configuration error,
3 any other simulator error (a safety net).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import functools
import gc
import hashlib
import itertools
import json
import math
import os
import pickle
import sys
import tempfile
import time
import typing

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
    # each fanned-out job's (and heatmap block's) own check, so a refused
    # size forks no child
    spec = quench.QuenchSpec(q["g_i"], q["g_f"][0], q["n"], q["grid"])
    if command == "rate-function":
        quench._require_rate_budget(spec, t_points)
    elif command == "heatmap":
        quench._require_map_budget(spec, q["tau_points"])
    elif command in ("otoc", "spectra"):
        otoc._require_scan_budget(spec, t_points, e["n_phi"], e["aggregation"])
        if e["aggregation"] == "product":   # every field's surface is held
            otoc._require_dft_budget(       # while each spectra's DFT runs
                e["n_phi"], e["m_max"], t_points, len(q["g_f"]))


# ---------------------------------------------------------------------------
# deterministic artifact writing

# rows per formatted chunk: bounds the Python strings alive at once
CHUNK_ROWS = 16384


def _cells(column: np.ndarray, fmt: str) -> list[str]:
    """A 1-D array as CSV or JSON cell text.

    Each distinct value is turned into text once and the texts are indexed
    back through ``np.unique``.  Floats print in shortest round-trip form
    with -0.0 made 0.0; bools print as 1/0 in CSV; strings are quoted as
    ``json.dumps`` quotes them in JSON and written as they are in CSV.
    """
    as_json, kind = fmt == "json", column.dtype.kind
    # + 0.0 canonicalizes negative zero
    levels, codes = np.unique(column + 0.0 if kind == "f" else column,
                              return_inverse=True)
    if kind == "b":
        words = ("false", "true") if as_json else ("0", "1")
        texts = [words[value] for value in levels.tolist()]
    elif kind == "U":
        texts = list(map(json.dumps, levels.tolist())) if as_json else levels.tolist()
    elif kind == "f":
        texts = list(map(repr, levels.tolist()))
    else:
        texts = list(map(str, levels.tolist()))
    return np.array(texts, dtype=object)[codes].tolist()


def _planned(block) -> int:
    """The values a block plans to text: the sizes of its columns before
    broadcasting."""
    return sum(map(np.size, block[0] if isinstance(block, tuple) else block))


def _block_rows(block: list, fold, row_sep: str, cell_sep: str, fmt: str):
    """The text of one block, as a list of row texts per chunk.

    The block is viewed as (leading rows, last axis).  Its keys, the
    columns constant along the last axis that open it (never every column),
    are texted per leading row as its prefix.  Leading row i takes row
    ``fold[i]`` of the value columns (its own row without a fold),
    whose cells are texted once and held for this chunk and the next.  A
    value column constant across rows is texted once per block unless its
    rows are split, and one that is an earlier one's object takes its
    texts.  A chunk is as many whole rows as fit in CHUNK_ROWS lines, or one
    piece of a longer row; each row is one ``str.join`` with the prefix
    inside the separator.
    """
    along = [np.shape(column)[-1:] in ((), (1,)) for column in block]
    lead = min(along.index(False) if False in along else len(block), len(block) - 1)
    shape = np.broadcast_shapes(*map(np.shape, block if fold is None else block[lead:]))
    rows, width = (math.prod(shape[:-1]), shape[-1]) if shape else (1, 1)
    fold = np.arange(rows) if fold is None else fold
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


class _Table(typing.NamedTuple):
    """A table artifact, ``stem.csv`` or ``stem.json``, of blocks of
    broadcast columns (``_block_rows``).  Block i is ``build(i)``, built only
    by the participant that texts it, and ``plan[i]`` its ``_planned``
    count, known before it is built.  Every table has a block, and every
    block a row."""

    stem: str
    columns: list
    plan: list
    build: typing.Callable


def _table(stem: str, columns: list, blocks) -> _Table:
    """A _Table of blocks that are built already."""
    blocks = list(blocks)
    return _Table(stem, columns, list(map(_planned, blocks)), blocks.__getitem__)


def _frame(columns: list, fmt: str) -> tuple[str, str]:
    """A table's text before its rows and after them; the JSON layout is
    ``{"columns": [...], "rows": [[...], ...]}``, as ``json.dumps`` with
    sorted keys would write it."""
    if fmt == "csv":
        return ",".join(columns) + "\n", ""
    return f'{{"columns": {json.dumps(columns)}, "rows": [', "]}\n"


def _table_text(table: _Table, lo: int, hi: int, fmt: str):
    """The rows of blocks lo..hi-1 of ``table``, yielded one chunk at a
    time, exactly as one participant texting every block writes them.

    ``_write`` calls it once per participant and table: this process for
    the first range of blocks, into the table's temp file, and each forked
    child for a later range, into its spool for the table (an anonymous
    ``tempfile.TemporaryFile``).  So the frame around the texts of
    consecutive ranges is the table's text byte for byte: each CSV row ends
    its own line, and a JSON range opens with ``[`` at the table's first
    block, else with ``, [``.  Each block is built only once the one before
    is dropped; one block, one chunk's text and the cell texts of this
    chunk's and the previous chunk's value rows are held at a time.  Every
    table here has at least two columns, so no row is an empty line.
    """
    if fmt == "csv":
        head, row_sep, cell_sep, tail = "", "\n", ",", "\n"
    else:
        head = ", [" if lo else "["
        row_sep, cell_sep, tail = "], [", ", ", "]"
    for index in range(lo, hi):
        block = table.build(index)
        block, fold = block if isinstance(block, tuple) else (block, None)
        for rows in _block_rows(block, fold, row_sep, cell_sep, fmt):
            rows[0] = head + rows[0]    # copies of one row, not of the chunk
            rows[-1] += tail
            yield row_sep.join(rows)
            head = "" if fmt == "csv" else ", ["
        del block, fold         # released before the next block is built


class _Sink:
    """A file written through ``path.tmp``, with the sha256 of the bytes
    written so far; ``commit`` renames it into place, ``discard`` removes
    the temp file.  Opening one makes the output directory."""

    def __init__(self, path: str):
        outdir = os.path.dirname(path)
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"outputs.out: cannot make {outdir!r}: {exc.strerror}") from exc
        self.path, self.digest = path, hashlib.sha256()
        self.handle = open(f"{path}.tmp", "wb")

    def write(self, data: bytes) -> None:
        self.digest.update(data)
        self.handle.write(data)

    def commit(self) -> tuple[str, str]:
        """The file's name and sha256, once it is in place."""
        self.handle.close()
        os.replace(f"{self.path}.tmp", self.path)
        return os.path.basename(self.path), self.digest.hexdigest()

    def discard(self) -> None:
        self.handle.close()
        with contextlib.suppress(FileNotFoundError):
            os.remove(f"{self.path}.tmp")


def _write_json(outdir: str, name: str, payload) -> tuple[str, str]:
    """``payload`` as indented JSON with sorted keys, through a ``_Sink``
    opened once its text exists; the file's name and sha256."""
    data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    sink = _Sink(os.path.join(outdir, name))
    try:
        sink.write(data)
        return sink.commit()
    except BaseException:
        sink.discard()
        raise


def _write_manifest(outdir: str, command: str, resolved: dict,
                    written: list[tuple[str, str]]) -> None:
    """``manifest.json`` from the writers' (name, sha256) pairs."""
    _write_json(outdir, "manifest.json", {
        "artifact_version": __version__,
        "command": command,
        "config": resolved,
        "checksums": dict(written),
    })


def _write(resolved: dict, command: str, artifacts: list) -> None:
    """Write ``artifacts`` in order, then ``manifest.json``.

    An artifact is a ``_Table`` or a pair (name, a function of no argument
    that returns its JSON payload).  The tables' blocks are split into
    contiguous ranges (module docstring) texted in ``_fork_join``.  A spool
    is a ``tempfile.TemporaryFile``, opened before the fork and nameless,
    so none is left on any way out.  Once every range is texted, each table
    takes its spools in order, in pieces of at most 1 MiB, and is renamed
    into place; every byte is hashed as it is written.
    """
    outdir, fmt = resolved["outputs"]["out"], resolved["outputs"]["format"]
    tables = [artifact for artifact in artifacts if isinstance(artifact, _Table)]
    blocks = [(t, i) for t, table in enumerate(tables)
              for i in range(len(table.plan))]
    planned = np.cumsum([0, *(tables[t].plan[i] for t, i in blocks)])
    workers = _participants(planned[-1], WRITER_MIN_VALUES, len(blocks))
    # the s-th cut at the block edge nearest s/k of the planned values
    cuts = sorted({0, len(blocks), *(
        int(np.abs(planned - planned[-1] * s / workers).argmin())
        for s in range(1, workers))})
    shares = list(zip(cuts, cuts[1:]))
    sinks, spools = {}, {}

    def sink(t: int) -> _Sink:
        """Table t's file, opened with the head of its text at its first piece."""
        if t not in sinks:
            sinks[t] = _Sink(os.path.join(outdir, f"{tables[t].stem}.{fmt}"))
            sinks[t].write(_frame(tables[t].columns, fmt)[0].encode())
        return sinks[t]

    def text(share: tuple) -> None:     # a child has a spool for each table
        for t, run in itertools.groupby(range(*share), lambda j: blocks[j][0]):
            run = [blocks[j][1] for j in run]
            spool = spools.get((share, t))
            for data in map(str.encode,
                            _table_text(tables[t], run[0], run[-1] + 1, fmt)):
                (sink(t) if spool is None else spool).write(data)
                del data        # not held while the next chunk is built
            if spool is not None:
                spool.flush()

    try:
        for share in shares[1:]:
            for t in {blocks[j][0] for j in range(*share)}:
                spools[share, t] = tempfile.TemporaryFile()
        _fork_join(text, shares, len(shares), lambda shares: "table blocks "
                   + ", ".join(f"{lo + 1}-{hi}" for lo, hi in shares))
        written, order = [], iter(range(len(tables)))
        for artifact in artifacts:
            if not isinstance(artifact, _Table):
                name, payload = artifact
                written.append(_write_json(outdir, name, payload()))
                continue
            t = next(order)
            for spool in (spools[share, t] for share in shares[1:]
                          if (share, t) in spools):
                spool.seek(0)
                for data in iter(functools.partial(spool.read, 2 ** 20), b""):
                    sink(t).write(data)
            sink(t).write(_frame(artifact.columns, fmt)[1].encode())
            written.append(sinks[t].commit())
            del sinks[t]
        _write_manifest(outdir, command, resolved, written)
    finally:
        for unwritten in sinks.values():
            unwritten.discard()
        for spool in spools.values():
            spool.close()


# The fork-join thresholds, from cold alternated pairs, forked against one
# participant, each pair between two parallelism probes (a CPU-bound loop
# alone, then two forked copies of it at once: 0.8-2.1x as long), on 2
# vCPUs (Xeon, CPython 3.11, numpy 2.4, BLAS on one thread).
# POOL_MIN_CELLS is the planned cells (fields x grid size x time samples
# per field) from which the fields fork: rate-function --n 20000 with 4
# fields in json (4.0e7 cells) ran 121 ms forked against 218 ms, faster in
# 7 of 8 pairs, at 387 against 385 ms of CPU.  WRITER_MIN_VALUES is the
# planned values (_Table.plan) from which the tables fork: otoc at
# t_points = 100, 200, 300 and 500 (29k, 58k, 88k and 146k values) ran 26
# against 30 ms (8 of 8, +12 ms of CPU), 59 against 78 ms (7 of 10), 71
# against 93 ms (10 of 10) and 91 against 128 ms (8 of 8, 274 against 282
# ms of CPU).
POOL_MIN_CELLS = 2 ** 23
WRITER_MIN_VALUES = 2 ** 16


def _participants(planned: int, least: int, most: int) -> int:
    """The k of a fork-join on Linux: the least of the usable CPUs (the
    affinity set, not the CPUs installed), ``most`` and ``2 * planned //
    least``, and at least 1, so the shares plan ``least / 2`` or more on
    average; else 1."""
    if sys.platform != "linux":
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), most, 2 * planned // least))


def _fan_out(fn, q: dict, n: int, samples: int, grid_size=None) -> list:
    """Each final field's per-time result ``fn(spec)`` on ``n`` sites, from
    ``_fork_join`` with ``_participants`` of the planned fields x
    ``grid_size`` (default: modes) x ``samples`` against POOL_MIN_CELLS."""
    specs = [quench.QuenchSpec(q["g_i"], g_f, n, q["grid"]) for g_f in q["g_f"]]
    cells = len(specs) * (grid_size or specs[0].n_modes) * samples
    return _fork_join(fn, specs, _participants(cells, POOL_MIN_CELLS, len(specs)))


def _run_share(fn, specs: list, share: int, workers: int) -> dict:
    """{index: result} of ``specs[share::workers]`` in order, up to the
    first that raised, whose entry is its error."""
    outcomes = {}
    for index in range(share, len(specs), workers):
        try:
            outcomes[index] = fn(specs[index])
        except Exception as exc:
            return {**outcomes, index: exc}
    return outcomes


def _fork_join(fn, specs: list, workers: int, name=lambda specs: "g_f = " + ", ".join(
        str(spec.g_f) for spec in specs)) -> list:
    """``[fn(spec) for spec in specs]`` in ``workers`` participants.

    A forked child runs each share s >= 1 and pickles its ``_run_share``
    outcomes into a pipe; this process runs share 0 (with one participant,
    every spec), then reads each pipe to EOF and reaps its child.  The first
    error in spec order is raised, as in a serial run; a child that ends with
    no outcome fails at its first spec, with a message naming its specs by
    ``name``.  Any child still running on the way out is killed.
    """
    running, pipes = [], []
    if workers > 1:     # so that no collection in either process writes to
        gc.freeze()     # the objects they share, copying their pages
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
            ended = f"signal {-code}" if code < 0 else f"exit code {code}"
            outcomes[share] = SimulatorError(
                f"the worker for {name(specs[share::workers])} ended with no "
                f"result ({ended})")
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
        if workers > 1:
            gc.unfreeze()


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
    q = resolved["quench"]
    ts = np.linspace(0.0, q["t_max"], q["t_points"])
    series = _fan_out(functools.partial(quench.rate_function, t=ts), q, q["n"],
                      ts.size)

    def analytic():
        results = []
        for g_f in q["g_f"]:
            try:
                t_c = [float(x) for x in quench.critical_times(q["g_i"], g_f, n_max=2)]
            except (NoDqptError, UndefinedExpressionError):
                t_c = []
            results.append({"g_f": g_f,
                            "dqpt": quench.dqpt_predicate(q["g_i"], g_f),
                            "critical_times": t_c})
        return {"g_i": q["g_i"], "series": results}
    _write(resolved, "rate-function", [
        _table("rate_function", ["g_f", "t", "f"],
               ([g_f, ts, f] for g_f, f in zip(q["g_f"], series))),
        ("critical_times.json", analytic)])


def cmd_heatmap(resolved: dict) -> None:
    q = resolved["quench"]
    specs = [quench.QuenchSpec(q["g_i"], g_f, q["n"], q["grid"]) for g_f in q["g_f"]]

    def block(i):       # built as its texter reaches it, dropped once texted
        taus, probs = quench._grid_probabilities(specs[i], q["tau_points"])
        return ([specs[i].g_f, specs[i]._grid()[:, None], taus, probs],
                specs[i]._distinct_index())
    _write(resolved, "heatmap", [_Table(
        "return_prob", ["g_f", "k", "t_over_t0", "probability"],
        [1 + spec.n_modes + (1 + spec.n_distinct) * q["tau_points"]
         for spec in specs], block)])


def _well(spec, eps_dw: float) -> dict:
    """The double-well verdict, depth >= eps_dw, from the closed-form depth,
    and the depth and its margin over eps_dw."""
    depth = otoc._well_depth(spec)      # its modes fit: the job's scan holds them
    return {"classification": "double_well" if depth >= eps_dw else "single_well",
            "depth": depth, "margin": depth - eps_dw}


def cmd_otoc(resolved: dict, spectra_only: bool = False) -> None:
    q, e, s = resolved["quench"], resolved["echo"], resolved["sweep"]
    ts = np.linspace(0.0, q["t_max"], q["t_points"])
    results = _fan_out(functools.partial(_job_otoc, ts=ts, e=e), q, q["n"],
                       ts.size)
    phis, fold = otoc._phi_grid(e["n_phi"]), otoc._phi_fold(e["n_phi"])
    orders = np.arange(-e["m_max"], e["m_max"] + 1)
    n_t, rows, n_m = ts.size, phis.size // 2 + 1, orders.size

    def surface(i):     # on its distinct angles, with its fold
        m, fid = results[i]
        return [q["g_f"][i], phis[:, None], ts, otoc._mean_surface(
            m, phis.size, "fidelity") if fid is None else fid,
            otoc._mean_surface(m, phis.size, "magnetization")], fold

    # a block per field and observable, over (t, m)
    pairs = [(g_f, observable, m, scan) for g_f, (m, fid) in zip(q["g_f"], results)
             for observable, scan in (("fidelity", fid), ("magnetization", None))]

    def spectra(i):
        g_f, observable, m, scan = pairs[i]
        if scan is None:    # im is +0.0 and re >= 0, so abs is re bit for bit
            re = otoc._mean_spectra(m, e["m_max"], observable).T
            return [g_f, observable, ts[:, None], orders, re, 0.0, re]
        c = otoc.mqc_components(scan[fold], e["m_max"]).T
        # Python's abs() bit for bit; np.abs differs in the last bit
        return [g_f, observable, ts[:, None], orders, c.real, c.imag,
                np.hypot(c.real, c.imag)]

    def doublewell():
        return {
            "detector": {
                "series": "order-1 magnetization coherence, normalized time",
                "t_c_normalized": 0.5,
                "eps_dw": s["dw_threshold"],
            },
            "results": [{"g_f": g_f, **_well(quench.QuenchSpec(
                q["g_i"], g_f, q["n"], q["grid"]), s["dw_threshold"])}
                        for g_f in q["g_f"]],
        }
    # each block's planned values: its columns' sizes (_planned)
    spectra_table = _Table(
        "spectra", ["g_f", "observable", "t", "m", "re", "im", "abs"],
        [2 + n_t + n_m + (2 * n_t * n_m + 1 if scan is None else 3 * n_t * n_m)
         for *_, scan in pairs], spectra)
    if spectra_only:
        _write(resolved, "spectra", [spectra_table])
    else:
        _write(resolved, "otoc", [
            _Table("otoc_surface", ["g_f", "phi", "t", "fidelity", "magnetization"],
                   [1 + phis.size + n_t + 2 * rows * n_t] * len(results), surface),
            spectra_table, ("doublewell.json", doublewell)])


def cmd_oracle_compare(resolved: dict) -> None:
    q, s, o = resolved["quench"], resolved["sweep"], resolved["oracle"]
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
    _write(resolved, "oracle-compare", [_table(
        "compare", ["g_f", "quantity", "phi", "t", "difference"], blocks)])
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
    q, s = resolved["quench"], resolved["sweep"]
    # every field before any file: a later g_f can refuse the pulse constant
    scheds, deviations = zip(*(_job_pulse(
        quench.QuenchSpec(q["g_i"], g_f, q["n"], q["grid"]), s["pulse_constant"],
        s["n_t"]) for g_f in q["g_f"]))
    keys = ("k", "axis_angle", "rabi_rate")
    blocks = ([g_f, *(sched[key][:, None] for key in keys),
               np.arange(s["n_t"]), sched.durations, sched.idle[:, None]]
              for g_f, sched in zip(q["g_f"], scheds))
    _write(resolved, "pulse-schedule", [
        _table("schedule", ["g_f", *keys, "duration_index", "duration", "idle"],
               blocks),
        ("replay_check.json", lambda: {
            "per_g_f": [{"g_f": g_f, "max_deviation": deviation}
                        for g_f, deviation in zip(q["g_f"], deviations)],
            "max_deviation": max(deviations)})])


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
