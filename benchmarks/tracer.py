"""Spans around the public entry points of the tfim_dqpt layers.

Used only in the traced runs.  ``install`` replaces every public function of
``su2``, ``quench``, ``otoc``, ``chain`` and ``cli`` (the names in each
module's ``__all__``) with a wrapper, in every package module that refers
to it, so calls are caught wherever callers look the name up (for example
``otoc.build_ensemble`` as well as ``quench.build_ensemble``).
``ChainOperator.apply`` is wrapped on the class to count matrix-vector
products.  The process pool is replaced by a serial one so that calls made
in pool workers are traced too.

A span is ``[name, parent, start, end, peak_bytes]``: ``parent`` is the
index of the enclosing span (None at the root) and times come from
``time.perf_counter``.  With ``memory=True`` tracemalloc runs and
``peak_bytes`` is the peak reached inside the span above the traced memory
at its start; otherwise it is 0.  tracemalloc slows code that makes many
small Python objects (the CSV writer, the per-k loops) far more than numpy
code, so times and memory come from two separate traced processes.  Spans
stay in memory until ``Tracer.dump`` writes them once, at the end of the
run.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import multiprocessing
import time
import tracemalloc

LAYERS = ("su2", "quench", "otoc", "chain", "cli")

# quench functions that loop over the momentum grid once per call; the
# callers (rate_function, ...) delegate to these, so counting here counts
# every mode once
MODE_LOOPS = ("mode_probabilities", "return_probability_map",
              "pulse_schedule", "build_ensemble")
ECHO_SCANS = ("fidelity_otoc", "magnetization_otoc")


def _modes(spec, *args, **kwargs):
    return {"quench.modes": spec.momentum_grid().size}


def _echo_cells(config, *args, **kwargs):
    n_k = config.spec.momentum_grid().size
    return {"otoc.echo_cells": n_k * config.time_grid.size * config.n_phi}


class SerialPool:
    """Stand-in for ``multiprocessing.Pool`` that maps in this process."""

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return [fn(item) for item in iterable]


class Tracer:
    def __init__(self, memory: bool):
        self.memory = memory
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []   # [span index, traced bytes at entry, peak so far]

    def _enter(self, name: str) -> int:
        current = 0
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], peak)
            tracemalloc.reset_peak()
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([index, current, current])
        self.spans.append([name, parent, time.perf_counter(), None, 0])
        return index

    def _exit(self, index: int) -> None:
        end = time.perf_counter()
        _, start_bytes, high = self._stack.pop()
        span = self.spans[index]
        span[3] = end
        if self.memory:
            high = max(high, tracemalloc.get_traced_memory()[1])
            span[4] = high - start_bytes
            if self._stack:
                self._stack[-1][2] = max(self._stack[-1][2], high)
            tracemalloc.reset_peak()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                self.counts.update(count(*args, **kwargs))
            index = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(index)
        return traced

    def dump(self, path: str) -> None:
        tracemalloc.stop()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


def install(memory: bool, package: str = "tfim_dqpt") -> Tracer:
    """Wrap the layers' public functions; with ``memory``, start tracemalloc."""
    tracer = Tracer(memory)
    modules = {layer: importlib.import_module(f"{package}.{layer}")
               for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for attr in module.__all__:
            fn = getattr(module, attr)
            if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                continue
            count = _modes if layer == "quench" and attr in MODE_LOOPS else \
                _echo_cells if layer == "otoc" and attr in ECHO_SCANS else None
            wrapped[fn] = tracer.wrap(f"{layer}.{attr}", fn, count)
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(module, attr, wrapped[value])
    operator = modules["chain"].ChainOperator
    operator.apply = tracer.wrap("chain.ChainOperator.apply", operator.apply)
    multiprocessing.Pool = SerialPool
    if memory:
        tracemalloc.start()
    return tracer


def summarize(spans, counts) -> dict:
    """Per-layer metrics from the spans of one traced ``cli.main`` call.

    ``<layer>.peak_mb`` is meaningful only for spans recorded with memory.
    """
    durations = [end - start for _, _, start, end, _ in spans]
    self_s = list(durations)
    for (_, parent, _, _, _), duration in zip(spans, durations):
        if parent is not None:
            self_s[parent] -= duration
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    layer_peak = dict.fromkeys(LAYERS, 0)
    by_name = collections.Counter()
    name_time = collections.Counter()
    for (name, _, _, _, peak), own, duration in zip(spans, self_s, durations):
        layer = name.split(".", 1)[0]
        layer_self[layer] += own
        layer_calls[layer] += 1
        layer_peak[layer] = max(layer_peak[layer], peak)
        by_name[name] += 1
        name_time[name] += duration
    total = sum(d for (name, parent, *_), d in zip(spans, durations)
                if name == "cli.main" and parent is None)
    mb = 2.0 ** 20
    metrics = {}
    for layer in LAYERS:
        if layer != "cli":
            metrics[f"{layer}.calls"] = layer_calls[layer]
        metrics[f"{layer}.self_s"] = layer_self[layer]
        metrics[f"{layer}.share"] = layer_self[layer] / total if total else 0.0
    for layer in ("quench", "otoc", "chain"):
        metrics[f"{layer}.peak_mb"] = layer_peak[layer] / mb
    metrics["quench.modes"] = counts.get("quench.modes", 0)
    metrics["otoc.scans"] = sum(by_name[f"otoc.{name}"] for name in ECHO_SCANS)
    metrics["otoc.echo_cells"] = counts.get("otoc.echo_cells", 0)
    metrics["chain.evolutions"] = by_name["chain.evolve_chain"]
    metrics["chain.matvecs"] = by_name["chain.ChainOperator.apply"]
    metrics["chain.matvec_s"] = name_time["chain.ChainOperator.apply"]
    return metrics
