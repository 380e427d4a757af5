"""Span recording around calls into multida's public functions.

A ``Tracer`` keeps spans in memory: name, start, end, parent and a few
attributes taken from the call's arguments or result.  ``patched`` wraps
each public function under every name it is looked up by
(``multida.cli.fit``, ``multida.simlab.fit``, ``multida.estimator.fit``
...) and restores the originals on exit, so the program is not edited.
``figures`` reduces the spans of one set-up or one command to per-layer
numbers; ``fit_rows`` gives the stage times of each fit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    trace: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store; ``trace`` labels the spans of one set-up or
    one command so that they can be told apart after merging."""

    def __init__(self, trace: str = "") -> None:
        self.spans: list[Span] = []
        self.trace = trace
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, name, self.trace, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()


# Span attributes: byte counts are file sizes, cell counts are computed
# from shapes (the work the algorithm implies), not measured.

def _read(args, result):
    return {"data_io.bytes_read": os.path.getsize(args["path"])}


def _written(args, result):
    return {"data_io.bytes_written": os.path.getsize(args["path"])}


def _load_dataset(args, result):
    return {**_read(args, result), "data_io.load_dataset_cells": result.n * result.p}


def _fit(args, result):
    return {"K": result.K, "variance": result.variance_mode, "n": result.n,
            "p": result.p, "M": result.M, "z_M": result.parts.n_slots}


def _predict(args, result):
    rows = len(result.labels)
    model = args["model"]
    # the per-slot predict loop makes one n* x p pass per partition slot
    return {"estimator.predict_rows": rows,
            "estimator.predict_cells_slots": rows * model.p * model.parts.n_slots}


def _stats(args, result):
    return {"estimator.stats_cells": args["data"].n * args["data"].p}


def _partitions(args, result):
    return {"partitions.n_slots": result.n_slots}


# layer.function -> (modules that look the function up by that name, attributes)
LAYERS = {
    "data_io.load_dataset": (("data_io", "cli"), _load_dataset),
    "data_io.load_matrix": (("data_io", "cli"), _read),
    "data_io.load_model": (("data_io", "cli"), _read),
    "data_io.save_dataset": (("data_io", "cli"), _written),
    "data_io.save_model": (("data_io", "cli"), _written),
    "estimator.fit": (("estimator", "cli", "simlab"), _fit),
    "estimator.predict": (("estimator", "cli", "simlab"), _predict),
    "estimator.selected_features": (("estimator", "cli"), None),
    "estimator.accumulate_stats": (("estimator",), _stats),
    "estimator.fit_mles": (("estimator",), None),
    "estimator.lrt": (("estimator",), None),
    "estimator.gamma_weights": (("estimator",), None),
    "partitions.build_partition_set": (("partitions", "estimator", "cli"), _partitions),
    "simlab.generate": (("simlab", "cli"), None),
    "simlab.cross_validate": (("simlab", "cli"), None),
}

SUMMED = ("data_io.bytes_read", "data_io.bytes_written", "data_io.load_dataset_cells",
          "estimator.predict_rows", "estimator.predict_cells_slots",
          "estimator.stats_cells")
MAXIMA = ("partitions.n_slots",)


def _wrap(tracer: Tracer, name: str, fn, attrs):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as s:
            result = fn(*args, **kwargs)
        if attrs is not None:
            s.attrs.update(attrs(signature.bind(*args, **kwargs).arguments, result))
        return result

    return traced


@contextmanager
def patched(tracer: Tracer):
    """Record a span for every call into a function of ``LAYERS``."""
    saved = []
    try:
        for name, (modules, attrs) in LAYERS.items():
            func = name.split(".")[1]
            for module_name in modules:
                module = importlib.import_module(f"multida.{module_name}")
                original = getattr(module, func)
                saved.append((module, func, original))
                setattr(module, func, _wrap(tracer, name, original, attrs))
        yield tracer
    finally:
        for module, func, original in reversed(saved):
            setattr(module, func, original)


def _children(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return children


def figures(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of the spans of one trace.

    ``<layer>.<function>_s`` is the total time in that function,
    ``..._self_s`` the part its child spans do not cover and ``..._calls``
    the call count.  A root ``cli.<command>`` span gives ``cli.self_s``.
    Attributes in ``SUMMED`` are summed, those in ``MAXIMA`` maximised.
    """
    children = _children(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        self_s = s.duration - sum(c.duration for c in children[s.id])
        if s.parent is None and s.name.startswith("cli."):
            out["cli.self_s"] += self_s
            continue
        out[f"{s.name}_s"] += s.duration
        out[f"{s.name}_self_s"] += self_s
        out[f"{s.name}_calls"] += 1
        for key in SUMMED:
            out[key] += s.attrs.get(key, 0)
        for key in MAXIMA:
            out[key] = max(out[key], s.attrs.get(key, 0))
    return dict(out)


def fit_rows(spans: list[Span]) -> list[dict]:
    """Stage times of each ``estimator.fit`` span, in the columns of the
    ROADMAP baseline table (stats, mles, lrt, gamma, fit)."""
    children = _children(spans)
    stages = {"estimator.accumulate_stats": "stats", "estimator.fit_mles": "mles",
              "estimator.lrt": "lrt", "estimator.gamma_weights": "gamma"}
    rows = []
    for s in spans:
        if s.name != "estimator.fit":
            continue
        row = {**s.attrs, **{col: 0.0 for col in stages.values()}}
        for c in children[s.id]:
            if c.name in stages:
                row[stages[c.name]] += c.duration
        row["fit"] = s.duration
        rows.append(row)
    return rows
