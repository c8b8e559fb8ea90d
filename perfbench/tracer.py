"""Per-layer tracing of the ldgrd package, installed from outside it.

The tracer wraps the public functions of every ``ldgrd`` module and patches
each binding of them, in every ldgrd module that holds one (the package
binds names with ``from .x import y``).  It edits nothing under ``src/``
and restores every patched attribute afterwards.

Three kinds of wrapper keep the overhead small:

* span layers (mesh, assembly1d, assembly2d, linalg, norms, projection,
  study, cli) record one span (name, start, end, parent) per entry into the
  layer; a call from a layer into itself adds no span, only a call count;
* ``problems`` is timed and counted but records no spans: the callables of
  every problem spec are invoked thousands of times a few points at a time;
* ``polyspace`` is counted only.

A layer's self time is the duration of its spans minus the part covered by
child spans and by timed ``problems`` calls.  Time outside every span is
"unattributed" (the benchmark's own code), so the layer self times plus the
unattributed time add up to the traced wall time.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("mesh", "problems", "polyspace", "assembly1d", "assembly2d", "linalg",
          "norms", "projection", "study", "cli")
TIMED_COUNTER_LAYERS = ("problems",)
COUNTER_LAYERS = ("polyspace",)

# Per-cell projections: their calls are the projection.cells count.
CELL_PROJECTIONS = ("l2_project", "gauss_radau_minus", "gauss_radau_plus",
                    "l2_project_2d", "gauss_radau_2d")
MEASURE_FUNCTIONS = ("measure_interp_error", "measure_interp_error_2d")
PROBLEM_FACTORIES = ("get_problem", "layer1d", "layer2d", "poly_exact_1d", "poly_exact_2d")
ASSEMBLERS = ("assemble", "assemble2d")
# polyspace is counted only where a metric reads the count: the other
# reference-cell helpers run once per cell and would only add overhead.
POLYSPACE_COUNTED = ("legendre_basis",)

# Every per-layer metric, in report order, with its unit.
METRIC_UNITS = {
    "assembly1d.self_s": "s", "assembly1d.calls": "count", "assembly1d.nnz": "count",
    "assembly2d.self_s": "s", "assembly2d.calls": "count", "assembly2d.nnz": "count",
    "linalg.factor_s": "s", "linalg.self_s": "s", "linalg.fill_nnz": "count",
    "linalg.fill_ratio": "ratio", "linalg.refinements": "count", "linalg.failures": "count",
    "projection.self_s": "s", "projection.calls": "count", "projection.cells": "count",
    "projection.measure_s": "s",
    "problems.calls": "count", "problems.points": "count", "problems.self_s": "s",
    "polyspace.basis_calls": "count", "polyspace.basis_cache_entries": "count",
    "norms.self_s": "s", "norms.calls": "count",
    "mesh.self_s": "s", "mesh.calls": "count",
    "study.self_s": "s", "cli.self_s": "s",
    "trace.unattributed_s": "s",
    "trace_overhead_ratio": "ratio",
}

# Span record fields.
_NAME, _LAYER, _START, _END, _PARENT, _CHILD = range(6)


def public_functions(module) -> dict[str, object]:
    """Functions (including lru-cached ones) that the module defines and
    exports: its ``__all__`` if it has one, else its names without a
    leading underscore.  Classes are not wrapped."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if obj is None or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        out[name] = obj
    return out


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ldgrd" or name.startswith("ldgrd."))]


def clear_package_caches() -> None:
    """Empty every functools cache held by an ldgrd module, so that each
    execution starts as cold as a fresh CLI call."""
    for module in package_modules():
        for obj in list(vars(module).values()):
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", "").startswith("ldgrd"):
                obj.cache_clear()


class _SplaProxy:
    """Stands in for ``scipy.sparse.linalg`` as ``ldgrd.linalg`` sees it,
    timing ``splu`` and reading the fill of each factorization."""

    def __init__(self, real, tracer: "Tracer"):
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def splu(self, A, *args, **kwargs):
        tracer = self._tracer
        factor = tracer.run_span("linalg", "linalg.splu", self._real.splu, (A,) + args, kwargs)
        tracer.counts["linalg.matrix_nnz"] += int(A.nnz)
        tracer.counts["linalg.fill_nnz"] += int(factor.L.nnz + factor.U.nnz)
        return factor


class Tracer:
    """Spans and counters of one traced execution.  ``install`` patches the
    package, ``restore`` undoes every patch; use it as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.fn_calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.timed: Counter = Counter()  # summed seconds of timed-counter layers
        self.root_covered = 0.0
        self.case_sizes: dict[str, dict] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._in_factory = False
        self.start = self.end = 0.0

    # -- recording -----------------------------------------------------------

    def run_span(self, layer, name, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
        spans.append(rec)
        stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            rec[_START] = start
            rec[_END] = end
            self._credit_parent(end - start)

    def _credit_parent(self, dt: float) -> None:
        if self._stack:
            self.spans[self._stack[-1]][_CHILD] += dt
        else:
            self.root_covered += dt

    def _span_wrapper(self, layer, qualname, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.fn_calls[qualname] += 1
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]][_LAYER] == layer:
                result = fn(*args, **kwargs)
            else:
                result = tracer.run_span(layer, qualname, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counter_wrapper(self, qualname, fn):
        calls = self.fn_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[qualname] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _problem_callable(self, qualname, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - start
            tracer.fn_calls[qualname] += 1
            tracer.counts["problems.calls"] += 1
            tracer.counts["problems.points"] += int(np.size(result))
            tracer.timed["problems"] += dt
            tracer._credit_parent(dt)
            return result

        return wrapper

    def _factory_wrapper(self, qualname, fn):
        """Counts the factory call and wraps the callables of the spec it
        returns; factories called by other factories return raw specs."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.fn_calls[qualname] += 1
            if tracer._in_factory:
                return fn(*args, **kwargs)
            tracer._in_factory = True
            try:
                spec = fn(*args, **kwargs)
            finally:
                tracer._in_factory = False
            fields = {f.name: tracer._problem_callable(f"problems.{spec.name}.{f.name}",
                                                       getattr(spec, f.name))
                      for f in dataclasses.fields(spec) if callable(getattr(spec, f.name))}
            return dataclasses.replace(spec, **fields)

        return wrapper

    def _after_assemble(self, layer):
        def after(args, kwargs, system):
            matrix = getattr(system, "matrix", system)
            nnz = int(matrix.nnz) if hasattr(matrix, "nnz") else int(matrix.indices.size)
            ndof = int(matrix.shape[0]) if hasattr(matrix, "shape") else int(matrix.n)
            self.counts[f"{layer}.nnz"] += nnz
            mesh = args[0] if args else kwargs["mesh"]
            k = args[2] if len(args) > 2 else kwargs["k"]
            self.case_sizes[case_key(layer, mesh, k)] = {"ndof": ndof, "nnz": nnz}
        return after

    def _lu_wrapper(self, span_wrapped):
        tracer = self

        @functools.wraps(span_wrapped)
        def wrapper(*args, **kwargs):
            before = tracer.fn_calls["linalg.matvec"]
            try:
                return span_wrapped(*args, **kwargs)
            except Exception:
                tracer.counts["linalg.failures"] += 1
                raise
            finally:
                # lu_solve does one residual matvec, and a second one when it refines.
                tracer.counts["linalg.refinements"] += max(0, tracer.fn_calls["linalg.matvec"] - before - 1)

        return wrapper

    # -- installing ----------------------------------------------------------

    def _wrapper_for(self, layer, name, fn):
        qualname = f"{layer}.{name}"
        if layer in COUNTER_LAYERS:
            return self._counter_wrapper(qualname, fn)
        if layer in TIMED_COUNTER_LAYERS:
            if name in PROBLEM_FACTORIES:
                return self._factory_wrapper(qualname, fn)
            return self._counter_wrapper(qualname, fn)
        after = self._after_assemble(layer) if name in ASSEMBLERS else None
        wrapped = self._span_wrapper(layer, qualname, fn, after)
        if layer == "linalg" and name == "lu_solve":
            wrapped = self._lu_wrapper(wrapped)
        return wrapped

    def install(self) -> "Tracer":
        modules = package_modules()
        by_name = {m.__name__: m for m in modules}
        replacement: dict[int, object] = {}
        originals: dict[int, object] = {}
        for layer in LAYERS:
            module = by_name.get(f"ldgrd.{layer}")
            if module is None:
                continue
            for name, fn in public_functions(module).items():
                if layer in COUNTER_LAYERS and name not in POLYSPACE_COUNTED:
                    continue
                replacement[id(fn)] = self._wrapper_for(layer, name, fn)
                originals[id(fn)] = fn
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replacement.get(id(value))
                if wrapper is not None and originals[id(value)] is value:
                    self._patch(module, attr, wrapper)
        linalg = by_name.get("ldgrd.linalg")
        if linalg is not None and hasattr(linalg, "spla"):
            self._patch(linalg, "spla", _SplaProxy(linalg.spla, self))
        return self

    def _patch(self, module, attr, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> list[str]:
        """Undo every patch; return the attributes that do not hold their
        original object afterwards (checked by identity)."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        bad = [f"{m.__name__}.{a}" for m, a, o in self._patches if getattr(m, a) is not o]
        self.patched = len(self._patches)
        self._patches = []
        return bad

    def __enter__(self):
        self.install()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.unrestored = self.restore()
        return False

    # -- results -------------------------------------------------------------

    @property
    def wall(self) -> float:
        return self.end - self.start

    def self_times(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for rec in self.spans:
            out[rec[_LAYER]] += rec[_END] - rec[_START] - rec[_CHILD]
        for layer, t in self.timed.items():
            out[layer] += t
        return out

    def span_calls(self) -> Counter:
        return Counter(rec[_LAYER] for rec in self.spans if rec[_NAME] != "linalg.splu")

    def metrics(self, cache_entries: int) -> dict[str, float]:
        """Per-layer metrics of this execution (without trace_overhead_ratio)."""
        st = self.self_times()
        calls = self.span_calls()
        dur = Counter()
        for rec in self.spans:
            dur[rec[_NAME]] += rec[_END] - rec[_START]
        c = self.counts
        m = {
            "assembly1d.self_s": st["assembly1d"],
            "assembly1d.calls": calls["assembly1d"],
            "assembly1d.nnz": c["assembly1d.nnz"],
            "assembly2d.self_s": st["assembly2d"],
            "assembly2d.calls": calls["assembly2d"],
            "assembly2d.nnz": c["assembly2d.nnz"],
            "linalg.factor_s": dur["linalg.splu"],
            "linalg.self_s": st["linalg"],
            "linalg.fill_nnz": c["linalg.fill_nnz"],
            "linalg.fill_ratio": (c["linalg.fill_nnz"] / c["linalg.matrix_nnz"]
                                  if c["linalg.matrix_nnz"] else 0.0),
            "linalg.refinements": c["linalg.refinements"],
            "linalg.failures": c["linalg.failures"],
            "projection.self_s": st["projection"],
            "projection.calls": calls["projection"],
            "projection.cells": sum(self.fn_calls[f"projection.{n}"] for n in CELL_PROJECTIONS),
            "projection.measure_s": sum(dur[f"projection.{n}"] for n in MEASURE_FUNCTIONS),
            "problems.calls": c["problems.calls"],
            "problems.points": c["problems.points"],
            "problems.self_s": st["problems"],
            "polyspace.basis_calls": self.fn_calls["polyspace.legendre_basis"],
            "polyspace.basis_cache_entries": cache_entries,
            "norms.self_s": st["norms"],
            "norms.calls": calls["norms"],
            "mesh.self_s": st["mesh"],
            "mesh.calls": calls["mesh"],
            "study.self_s": st["study"],
            "cli.self_s": st["cli"],
            "trace.unattributed_s": self.wall - self.root_covered,
        }
        return m

    def consistency(self) -> list[str]:
        """Hard checks on this traced execution: every patch was restored and
        the self times plus unattributed time add up to the wall time."""
        problems = [f"not restored: {name}" for name in self.unrestored]
        total = sum(self.self_times().values()) + (self.wall - self.root_covered)
        if abs(total - self.wall) > 1e-6 * max(self.wall, 1e-3):
            problems.append(f"self times + unattributed = {total!r} s, traced wall = {self.wall!r} s")
        if any(rec[_START] < self.start or rec[_END] > self.end for rec in self.spans):
            problems.append("a span lies outside the traced interval")
        return problems

    def span_dump(self) -> list[dict]:
        t0 = self.start
        return [{"name": r[_NAME], "start": r[_START] - t0, "end": r[_END] - t0, "parent": r[_PARENT]}
                for r in self.spans]


def case_key(layer: str, mesh, k: int) -> str:
    """Key of one assembled case, matching the sweep reference keys."""
    dim = 2 if layer == "assembly2d" else 1
    params = mesh.mesh_x.params if dim == 2 else mesh.params
    return sweep_key(dim, k, params.eps, params.N)


def sweep_key(dim: int, k: int, eps: float, n: int) -> str:
    return f"dim={dim},k={k},eps={eps!r},N={n}"
