"""Span recording around the public functions of mixedhg, from outside the package.

``Tracer.install`` replaces every public module-level function of the traced
modules, in every namespace that holds it (``mixedhg.search.chromatic_spectrum``
is the same function as ``mixedhg.coloring.chromatic_spectrum``), with a
wrapper that records one span per call, and wraps ``MixedHypergraph.__init__``
so hypergraph builds show up as spans too.  ``uninstall`` puts the originals
back.  Spans stay in memory until ``write``.

A span is ``(name, start, end, parent, op, count)``: ``name`` is
``<layer>.<function>`` with the layer being the module that defines the
function, ``parent`` the index of the enclosing span (-1 for none), ``op``
the benchmark operation the call belongs to, and ``count`` a work count read
from the call (partitions, bytes, candidates) where one is defined.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import types
from time import perf_counter

MODULES = ("cli", "documents", "constructions", "core", "coloring", "search")
LAYERS = ("bench",) + MODULES


def _bms_count(args, result):
    examined = result.examined
    return (examined, round(examined * (1.0 - result.dedup_ratio)))


# Work counts read at the layer boundary, keyed by span name.
COUNTS = {
    "coloring.chromatic_spectrum": lambda args, result: sum(result.counts),
    "coloring.all_feasible_partitions": lambda args, result: len(result),
    "coloring.enumerate_strict": lambda args, result: len(result),
    "documents.dumps": lambda args, result: len(result.encode()),
    "documents.loads": lambda args, result: len(args[0].encode()),
    "documents.sha256_of": lambda args, result: os.path.getsize(args[0]),
    "search.bounded_minimality_search": _bms_count,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, count = self.spans, self._stack, COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                n = count(args, result) if count is not None and result is not None else 0
                spans[idx] = (name, start, end, parent, self.op, n)

        return traced

    def begin(self) -> int:
        """Open a root span by hand (the benchmark's own span around one op)."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def end(self, idx: int, name: str, start: float, end: float) -> None:
        self.spans[idx] = (name, start, end, -1, self.op, 0)
        self._stack.pop()

    # --- installing -----------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("mixedhg")
        namespaces = [pkg] + [importlib.import_module(f"mixedhg.{m}") for m in MODULES]
        homes = {ns.__name__ for ns in namespaces[1:]}
        wrapped: dict[int, object] = {}
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ not in homes):
                    continue
                if id(obj) not in wrapped:
                    layer = obj.__module__.rpartition(".")[2]
                    wrapped[id(obj)] = self._wrap(f"{layer}.{obj.__name__}", obj)
                self._restore.append((ns, attr, obj))
                setattr(ns, attr, wrapped[id(obj)])
        cls = importlib.import_module("mixedhg.core").MixedHypergraph
        self._restore.append((cls, "__init__", cls.__init__))
        cls.__init__ = self._wrap("core.MixedHypergraph", cls.__init__)

    def uninstall(self) -> None:
        while self._restore:
            ns, attr, obj = self._restore.pop()
            setattr(ns, attr, obj)

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(spans: list, first: int, last: int) -> dict[str, float]:
    """Per-layer totals over ``spans[first:last]``, the spans of one traced pass.

    Self time is a span's duration minus the durations of its direct
    children; calls in one process nest, so the children never overlap.
    """
    local = spans[first:last]
    child = [0.0] * len(local)
    under_search = [False] * len(local)
    for i, (name, start, end, parent, _, _) in enumerate(local):
        if parent >= first:
            child[parent - first] += end - start
            under_search[i] = under_search[parent - first]
        if name == "search.bounded_minimality_search":
            under_search[i] = True

    m: dict = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for key in ("cli.calls", "documents.calls", "documents.bytes", "constructions.calls",
                "core.builds", "core.iso_calls", "coloring.count_calls", "coloring.list_calls",
                "coloring.partitions", "search.candidates", "search.classes", "search.spectrum_tests"):
        m[key] = 0
    for key in ("core.build_s", "core.iso_s", "coloring.count_s", "coloring.list_s",
                "search.keys_s", "search.eval_s", "search.build_s", "search.scan_self_s"):
        m[key] = 0.0
    for i, (name, start, end, parent, _, n) in enumerate(local):
        dur = end - start
        layer = name.partition(".")[0]
        m[f"{layer}.self_s"] += dur - child[i]
        if layer in ("cli", "documents", "constructions"):
            m[f"{layer}.calls"] += 1
        if layer == "documents":
            m["documents.bytes"] += n
        if name == "core.MixedHypergraph":
            m["core.builds"] += 1
            m["core.build_s"] += dur
        elif name == "core.are_isomorphic":
            m["core.iso_calls"] += 1
            m["core.iso_s"] += dur
        elif name == "coloring.chromatic_spectrum":
            m["coloring.count_calls"] += 1
            m["coloring.count_s"] += dur
            m["coloring.partitions"] += n
            if under_search[i]:
                m["search.spectrum_tests"] += 1
        elif name in ("coloring.all_feasible_partitions", "coloring.enumerate_strict"):
            m["coloring.list_calls"] += 1
            m["coloring.list_s"] += dur
            m["coloring.partitions"] += n
        elif name == "search.bounded_minimality_search":
            m["search.candidates"] += n[0]
            m["search.classes"] += n[1]
            m["search.scan_self_s"] += dur - child[i]
        elif name == "search.canonical_keys":
            m["search.keys_s"] += dur
        elif name == "search.is_one_realization" and under_search[i]:
            m["search.eval_s"] += dur
        elif name == "search.hypergraph_from_masks" and under_search[i]:
            m["search.build_s"] += dur
    parts = m["coloring.partitions"]
    m["coloring.us_per_partition"] = (m["coloring.count_s"] + m["coloring.list_s"]) * 1e6 / parts if parts else 0.0
    cands = m["search.candidates"]
    m["search.useful_ratio"] = m["search.classes"] / cands if cands else 0.0
    m["trace.spans"] = len(local)
    return m
