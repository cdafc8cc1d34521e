"""Span recorder for the traced run.

Wrappers are installed from outside the program, at the module attributes
callers look up (``uqkit.posterior.value_and_grad``, ``uqkit.cli.map_fit``,
``uqkit.predictive.posterior_sample`` ...), so nothing under ``src/``
changes. Each wrapped call records a span (name, start, end, parent); the
spans of one CLI command share a trace id. Spans stay in memory and are
written out when the run ends.

Per-element methods (``Rng.uniform``, ``Rng.standard_normal``,
``Rng.integer``) and tape ops are never wrapped: they run millions of
times, and their cost shows as self time of the vector call that loops
over them. A few hot callables (``kth_smallest``, the optimizer step and
tape sweeps) only bump a counter and open no span, so their time stays in
their caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import os
import re
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, TRACE = range(5)


class Recorder:
    """In-memory spans and counters of one command sequence."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.trace_id = -1

    def begin_trace(self) -> None:
        self.trace_id += 1

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.trace_id])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self.stack.pop()

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][NAME] if self.stack else None

    def take(self) -> tuple[list[list], dict[str, int]]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.stack, self.counts = [], [], defaultdict(int)
        return spans, counts


# ---------------------------------------------------------------------------
# wrapper kinds

def _span(rec: Recorder, name: str, fn, after=None, name_of=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name if name_of is None else name_of(args))
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _generator(rec: Recorder, name: str, fn):
    """One span per ``next()`` on the wrapped generator."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            idx = rec.open(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                rec.close(idx)
            yield item

    return wrapper


def _counter(rec: Recorder, key: str, fn, unless_inside: str | None = None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if unless_inside is None or rec.current() != unless_inside:
            rec.counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _csv(rec: Recorder, role: str, fn):
    """CSV readers and writers count by role; only the outermost call of a
    nested reader chain opens a span. Bytes are the file's size."""
    name = f"data.csv_{role}"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.current() == name:
            return fn(*args, **kwargs)
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        path = next((a for a in args if isinstance(a, (str, os.PathLike))), None)
        if path is not None and os.path.exists(path):
            rec.counts[f"{name}.bytes"] += os.path.getsize(path)
        return result

    return wrapper


def _add_count(rec: Recorder, key: str, amount):
    def after(args, result):
        rec.counts[key] += amount(args, result)

    return after


def _state_kind(args) -> str:
    kind = type(args[0]).__name__.lower().removesuffix("state")
    return f"posterior.posterior_sample.{kind}"


# (module, attribute path, span or counter name); every entry wraps the
# name a caller looks up, so one function may be wrapped in two modules
_SPANS = [
    ("uqkit.posterior", "value_and_grad", "autodiff.value_and_grad"),
    ("uqkit.cli", "map_fit", "posterior.map_fit"),
    ("uqkit.posterior", "map_fit", "posterior.map_fit"),
    ("uqkit.cli", "swag_fit", "posterior.swag_fit"),
    ("uqkit.cli", "advi_fit", "posterior.advi_fit"),
    ("uqkit.cli", "laplace_fit", "posterior.laplace_fit"),
    ("uqkit.cli", "save_state", "posterior.save_state"),
    ("uqkit.cli", "load_state", "posterior.load_state"),
    ("uqkit.predictive", "mlp_forward", "mlp.mlp_forward"),
    ("uqkit.cli", "mlp_forward", "mlp.mlp_forward"),
    ("uqkit.cli", "predictive_mean_classification", "predictive.predictive_mean_classification"),
    ("uqkit.cli", "predictive_moments_regression", "predictive.predictive_moments_regression"),
    ("uqkit.cli", "credible_interval_regression", "predictive.credible_interval_regression"),
    ("uqkit.cli", "apply_temperature", "calibration.apply_temperature"),
    ("uqkit.calibration", "apply_temperature", "calibration.apply_temperature"),
    ("uqkit.cli", "baseline_sets", "conformal.baseline_sets"),
    ("uqkit.cli", "adaptive_sets", "conformal.adaptive_sets"),
    ("uqkit.cli", "cqr_interval", "conformal.cqr_interval"),
    ("uqkit.cli", "scalar_score_interval", "conformal.scalar_score_interval"),
    ("uqkit.cli", "classification_report", "metrics.classification_report"),
    ("uqkit.cli", "load_config", "config.load_config"),
]
_COUNTERS = [
    ("uqkit.posterior", "_Optimizer.step", "posterior.steps"),
    ("uqkit.predictive", "kth_smallest", "numerics.kth_smallest.calls"),
    ("uqkit.conformal", "kth_smallest", "numerics.kth_smallest.calls"),
]
_DRAWS = ("normals", "uniforms", "permutation")
_CSV_MODULES = ("uqkit.cli", "uqkit.data", "uqkit.config")
_CSV_READ = re.compile(r"^(read_\w*csv|load_csv)$")
_CSV_WRITE = re.compile(r"^(write_\w*csv|save_csv)$")


def _resolve(module: str, path: str):
    """(owner, attribute) for a dotted path, or None when it is missing."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


def install(rec: Recorder) -> list[str]:
    """Wrap the program's layer boundaries; return the hooks not found."""
    missing = []

    def wrap(module, path, make):
        found = _resolve(module, path)
        if found is None:
            missing.append(f"{module}.{path}")
            return
        owner, attr = found
        setattr(owner, attr, make(getattr(owner, attr)))

    for module, path, name in _SPANS:
        wrap(module, path, lambda fn, name=name: _span(rec, name, fn))
    for module, path, key in _COUNTERS:
        wrap(module, path, lambda fn, key=key: _counter(rec, key, fn))
    # backward sweeps made outside value_and_grad (Laplace's GGN)
    wrap("uqkit.autodiff", "Tape.gradient",
         lambda fn: _counter(rec, "autodiff.Tape.gradient.calls", fn,
                             unless_inside="autodiff.value_and_grad"))
    wrap("uqkit.cli", "fit_temperature",
         lambda fn: _span(rec, "calibration.fit_temperature", fn,
                          after=_add_count(rec, "calibration.fit_temperature.iterations",
                                           lambda args, r: r.iterations)))
    wrap("uqkit.predictive", "posterior_sample",
         lambda fn: _span(rec, "posterior.posterior_sample", fn, name_of=_state_kind))
    for draw in _DRAWS:
        wrap("uqkit.rng", f"Rng.{draw}",
             lambda fn, draw=draw: _span(
                 rec, f"rng.{draw}", fn,
                 after=_add_count(rec, f"rng.{draw}.n", lambda args, r: int(args[1]))))
    wrap("uqkit.posterior", "batches", lambda fn: _generator(rec, "data.batches", fn))
    for module in _CSV_MODULES:
        mod = importlib.import_module(module)
        for attr in sorted(vars(mod)):
            role = "read" if _CSV_READ.match(attr) else "write" if _CSV_WRITE.match(attr) else None
            if role and callable(getattr(mod, attr)):
                setattr(mod, attr, _csv(rec, role, getattr(mod, attr)))
    return missing


# ---------------------------------------------------------------------------
# aggregation

_FITS = ("posterior.map_fit", "posterior.swag_fit", "posterior.advi_fit")


def layer_metrics(spans: list[list], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer totals of one sequence: ``<name>.s`` (span time),
    ``<name>.self_s`` (span time minus the time its child spans cover),
    ``<name>.calls``, plus the recorded counters."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    out: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        name, dur = span[NAME], span[END] - span[START]
        out[f"{name}.s"] += dur
        out[f"{name}.self_s"] += dur - child[i]
        out[f"{name}.calls"] += 1
        if name in _FITS:
            out["posterior.fit.self_s"] += dur - child[i]
        if name.startswith("cli."):
            out["cli.self_s"] += dur - child[i]
    out.update(counts)
    return dict(out)
