"""Spans around calls into the acdii layers, recorded from outside.

``instrument(tracer)`` wraps the functions listed in ``TARGETS`` and
rebinds every name under which an ``acdii`` module holds them: ``inverse``
imports ``assemble`` by name, ``cli`` imports from ``geometry`` and
``inverse`` by name, so wrapping only the defining module would miss those
calls.  A wrapper records one span per call and returns the wrapped
call's value unchanged.  Spans stay in memory; ``job_metrics`` turns the
spans of one job into per-layer numbers.

A layer is the first component of a span name, which is the acdii module
the wrapped function lives in.  A span's self time is its duration minus
the durations of its direct children (calls nest, so children never
overlap), and every second of a job's root spans lands in exactly one
self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field


def _cg_iterations(span, args, kwargs, result):
    # _pcg returns (x, relative residual, iterations); solve_dirichlet
    # drops the count, so it is taken here
    span.counts["cg_iterations"] = int(result[2])


def _bytes_written(span, args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    span.counts["bytes_written"] = os.path.getsize(path)


def _bytes_read(span, args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[0]
    span.counts["bytes_read"] = os.path.getsize(path)


def _keep_value(span, args, kwargs, result):
    span.value = float(result)


# (module, function, span name, counter called after the call returns)
TARGETS = (
    ("acdii.forward", "assemble", "forward.assemble", None),
    ("acdii.forward", "solve_dirichlet", "forward.solve", None),
    ("acdii.forward", "_pcg", "forward.cg", _cg_iterations),
    ("acdii.data", "synthesize_triplet", "data.synthesize", None),
    ("acdii.data", "save_triplet", "data.triplet_io", None),
    ("acdii.data", "load_triplet", "data.triplet_io", None),
    ("acdii.io", "write_field_file", "io.write", _bytes_written),
    ("acdii.io", "read_field_file", "io.read", _bytes_read),
    ("acdii.inverse", "reconstruct", "inverse.reconstruct", None),
    ("acdii.inverse", "minimize_tv_fixedpoint", "inverse.fixedpoint", None),
    # the relative change that ends a fixed-point stage once it meets fp_tol
    ("acdii.inverse", "_masked_rel_change", "inverse.fixedpoint.rel_change", _keep_value),
    ("acdii.inverse", "minimize_tv_primal_dual", "inverse.primaldual", None),
    ("acdii.inverse", "minimality_audit", "inverse.audits", None),
    ("acdii.inverse", "coarea_audit", "inverse.audits", None),
    ("acdii.inverse", "recover_c", "inverse.recovery", None),
    ("acdii.inverse", "classify_inclusions", "inverse.recovery", None),
    ("acdii.geometry", "extract_level_set", "geometry.extract_level_set", None),
    ("acdii.geometry", "area_minimality_audit", "geometry.audits", None),
    ("acdii.geometry", "truncation_limit_audit", "geometry.audits", None),
    ("acdii.geometry", "curvature_residual", "geometry.audits", None),
    ("acdii.geometry", "build_metric", "geometry.audits", None),
    ("acdii.cli", "_penalization_ladder", "cli.ladder", None),
)

LAYERS = ("cli", "data", "forward", "inverse", "geometry", "io")


@dataclass
class Span:
    name: str
    job: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    value: float | None = None  # the call's result, where a counter keeps it


class Tracer:
    """In-memory span recorder for one job; ``job`` tags all its spans."""

    def __init__(self, job: int):
        self.spans: list[Span] = []
        self.job = job
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, self.job, parent, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()


def _wrap(tracer: Tracer, fn, name: str, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            result = fn(*args, **kwargs)
            if counter is not None:
                counter(sp, args, kwargs, result)
        return result

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every target and rebind it in all loaded acdii modules; undo on exit."""
    for modname, _, _, _ in TARGETS:
        importlib.import_module(modname)
    modules = [m for k, m in sorted(sys.modules.items())
               if (k == "acdii" or k.startswith("acdii.")) and m is not None]
    undo = []
    try:
        for modname, attr, name, counter in TARGETS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = _wrap(tracer, orig, name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        yield tracer
    finally:
        for mod, key, orig in reversed(undo):
            setattr(mod, key, orig)


def self_times(spans: list[Span]) -> list[float]:
    own = [sp.end - sp.start for sp in spans]
    for sp in spans:
        if sp.parent is not None:
            own[sp.parent] -= sp.end - sp.start
    return own


def job_metrics(spans: list[Span], fp_tol: float) -> dict:
    """Per-layer numbers from the spans of one job (one tracer).

    Times are in seconds and inclusive unless the name says ``self_s``.
    ``fp_tol`` is the fixed-point stopping tolerance: a stage stops at the
    first relative change that meets it, so each converged stage has
    exactly one such change, whichever inner iteration it came on.
    """
    own = self_times(spans)
    incl: dict[str, float] = {}
    selfs: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for sp, s in zip(spans, own):
        incl[sp.name] = incl.get(sp.name, 0.0) + (sp.end - sp.start)
        selfs[sp.name] = selfs.get(sp.name, 0.0) + s
        calls[sp.name] = calls.get(sp.name, 0) + 1
        for k, v in sp.counts.items():
            counts[k] = counts.get(k, 0) + v
    wall = sum(sp.end - sp.start for sp in spans if sp.parent is None)
    cli_self = sum(s for sp, s in zip(spans, own) if sp.parent is None)

    assembles = calls.get("forward.assemble", 0)
    assemble_s = incl.get("forward.assemble", 0.0)
    solves = calls.get("forward.solve", 0)
    cg_its = counts.get("cg_iterations", 0)
    out = {
        "forward.assemble.calls": assembles,
        "forward.assemble.s": assemble_s,
        "forward.assemble.ms_per_call": 1e3 * assemble_s / assembles if assembles else 0.0,
        "forward.solve.calls": solves,
        "forward.solve.s": incl.get("forward.solve", 0.0),
        "forward.cg.s": incl.get("forward.cg", 0.0),
        "forward.cg.iterations": cg_its,
        "forward.cg.iterations_per_solve": cg_its / solves if solves else 0.0,
        "inverse.fixedpoint.self_s": (selfs.get("inverse.fixedpoint", 0.0)
                                      + selfs.get("inverse.fixedpoint.rel_change", 0.0)),
        "inverse.fixedpoint.stages_converged": sum(
            1 for sp in spans if sp.name == "inverse.fixedpoint.rel_change" and sp.value <= fp_tol
        ),
        "inverse.primaldual.self_s": selfs.get("inverse.primaldual", 0.0),
        "inverse.audits.s": selfs.get("inverse.audits", 0.0),
        "inverse.recovery.s": selfs.get("inverse.recovery", 0.0),
        "geometry.extract_level_set.calls": calls.get("geometry.extract_level_set", 0),
        "geometry.extract_level_set.s": incl.get("geometry.extract_level_set", 0.0),
        "geometry.audits.s": selfs.get("geometry.audits", 0.0),
        "data.synthesize.self_s": selfs.get("data.synthesize", 0.0),
        "data.triplet_io.s": incl.get("data.triplet_io", 0.0),
        "io.bytes_written": counts.get("bytes_written", 0),
        "io.bytes_read": counts.get("bytes_read", 0),
        "io.s": incl.get("io.write", 0.0) + incl.get("io.read", 0.0),
        "cli.ladder.self_s": selfs.get("cli.ladder", 0.0),
        "cli.self_s": cli_self,
        "trace.spans": len(spans),
        "trace.wall_s": wall,
    }
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            s for sp, s in zip(spans, own) if sp.name.split(".", 1)[0] == layer
        )
    return out
