"""Spans around calls into each ``gausswork`` layer, recorded from outside it.

The program is not edited.  ``instrument`` replaces a layer's public functions
by timing wrappers in every ``gausswork`` module namespace that binds them,
which is where the calling module looks them up (``from .ops import apply``
binds ``apply`` in ``extraction``, so ``gausswork.extraction.apply`` is
wrapped).  Spans stay in memory; ``Tracer.write`` saves them at the end.

A span's self time is its duration minus that of its direct child spans.  A
call made while a span of the same name is open (``require_valid`` calling
``validate_state``) is passed straight through and stays in its parent.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

MODULES = (
    "gausswork.core",
    "gausswork.ops",
    "gausswork.extraction",
    "gausswork.fock",
    "gausswork.gap",
    "gausswork.fileio",
    "gausswork.cli",
)

# (module, function) -> span name; the benchmark's layer names.
LAYERS = {
    ("core", "validate_state"): "core.validate",
    ("core", "require_valid"): "core.validate",
    ("core", "symplectic_spectrum"): "core.spectrum",
    ("core", "mean_energy"): "core.energy",
    ("ops", "rotation"): "ops.make",
    ("ops", "squeeze"): "ops.make",
    ("ops", "two_mode_squeeze"): "ops.make",
    ("ops", "beam_splitter"): "ops.make",
    ("ops", "displacement"): "ops.make",
    ("ops", "apply"): "ops.apply",
    ("ops", "compose"): "ops.compose",
    ("extraction", "gaussian_ergotropy"): "extraction",
    ("extraction", "nmode_gaussian_ergotropy"): "extraction",
    ("extraction", "is_gaussian_passive"): "extraction.verdict",
    ("extraction", "all_pairs_gaussian_passive"): "extraction.verdict",
    ("fock", "apply_gaussian_unitary"): "fock.apply",
    ("fock", "moments_of"): "fock.moments",
    ("fock", "energy_of"): "fock.energy",
    ("fock", "brute_force_min_energy"): "fock.search",
    ("fileio", "load_state"): "fileio.load",
    ("fileio", "load_protocol_steps"): "fileio.load",
    ("fileio", "save_state"): "fileio.save",
    ("fileio", "save_protocol"): "fileio.save",
    ("fileio", "write_trace_csv"): "fileio.save",
    ("gap", "ergotropy_gap"): "gap.ergotropy_gap",
}

OP_KINDS = ("rotation", "squeeze", "two_mode_squeeze", "beam_splitter", "displacement")
VERBS = ("validate", "check", "spectrum", "extract", "gap", "witness", "oracle_verify")

_CALLS_AND_TIME = (
    "core.validate",
    "core.spectrum",
    "core.energy",
    "ops.make",
    "ops.apply",
    "ops.compose",
    "extraction.verdict",
    *(f"fock.apply.{kind}" for kind in OP_KINDS),
    "fock.moments",
    "fock.search",
)

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = {
    **{f"{name}.{part}": unit for name in _CALLS_AND_TIME for part, unit in (("calls", "count"), ("s", "s"))},
    "extraction.self.s": "s",
    "extraction.steps": "count",
    "extraction.tms_steps": "count",
    "extraction.sweeps": "count",
    "fock.apply.columns": "count",
    "fock.energy.s": "s",
    "fock.search.nfev": "count",
    "fileio.load.s": "s",
    "fileio.save.s": "s",
    "gap.ergotropy_gap.s": "s",
    "cli.import.s": "s",
    **{f"cli.{verb}.p50_s": "s" for verb in VERBS},
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans ``[name, parent, start, end]`` and counters, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def call(self, name, fn, args, kwargs):
        if self._open and self.spans[self._open[-1]][0] == name:
            return fn(*args, **kwargs)
        parent = self._open[-1] if self._open else -1
        span = [name, parent, time.perf_counter(), None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._open.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, parent, start, end in self.spans:
                fh.write(json.dumps([name, parent, start, end]) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def span_totals(spans, first: int = 0) -> dict[str, float]:
    """``<name>.calls`` and ``<name>.s`` (self time) over ``spans[first:]``."""
    child_time = defaultdict(float)
    for name, parent, start, end in spans[first:]:
        if parent >= first:
            child_time[parent] += end - start
    out = defaultdict(float)
    for k, (name, _, start, end) in enumerate(spans[first:], first):
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += end - start - child_time[k]
    return out


def merge_files(paths) -> dict[str, float]:
    """Summed span totals and counters of trace files written by ``Tracer.write``."""
    out = defaultdict(float)
    for path in paths:
        with open(path) as fh:
            lines = [json.loads(line) for line in fh]
        for name, value in span_totals(lines[:-1]).items():
            out[name] += value
        for name, value in lines[-1]["counters"].items():
            out[name] += value
    return out


def _after(tracer: Tracer, name: str, result) -> None:
    """Counters read from a layer's results where the work happens."""
    c = tracer.counters
    if name == "extraction":
        c["extraction.steps"] += len(result.steps)
        c["extraction.tms_steps"] += sum(s.op.kind == "two_mode_squeeze" for s in result.steps)
        c["extraction.sweeps"] += result.sweeps or 0
    elif name == "fock.apply":
        c["fock.apply.columns"] += result.vectors.shape[1]


def _wrap(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        span = f"fock.apply.{args[0].kind}" if name == "fock.apply" else name
        result = tracer.call(span, fn, args, kwargs)
        _after(tracer, name, result)
        return result

    return traced


def _count_nfev(tracer: Tracer, fn):
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.counters["fock.search.nfev"] += result.nfev
        return result

    return counted


def instrument(tracer: Tracer):
    """Wrap every binding of a layer function; returns a function undoing it."""
    modules = [importlib.import_module(m) for m in MODULES]
    fock = importlib.import_module("gausswork.fock")
    wrappers = {}
    for (module, func), name in LAYERS.items():
        fn = getattr(importlib.import_module(f"gausswork.{module}"), func)
        wrappers[id(fn)] = _wrap(tracer, name, fn)
    saved = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                saved.append((mod, attr, value))
                setattr(mod, attr, wrapper)
    saved.append((fock, "minimize", fock.minimize))
    fock.minimize = _count_nfev(tracer, fock.minimize)

    def restore():
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)

    return restore
