"""Generators for minimum-size one-realizations of a target feasible set.

For a target set ``n_1 > n_2 > ... > n_s >= 2`` the variant-one hypergraph
lives on ``2*n_1 - n_s`` vertices labeled by s-coordinate tuples; grouping
vertices by any one coordinate is a feasible partition, and those coordinate
partitions are the only ones.  When ``n_1 == n_2 + 1`` the variant-two
hypergraph drops one vertex and achieves the same with ``2*n_1 - n_s - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import core
from .core import Label, MixedHypergraph, _quote
from .coloring import Partition, is_gap_free

# The largest minimum size ``mixedhg construct`` builds.  At the cap a build
# takes well under a second, and its edge masks O(n^2 * s) memory; the library
# functions themselves take any size.
VERTEX_CAP = 256


@dataclass(frozen=True)
class TargetSet:
    """A strictly decreasing tuple of part counts, all at least 2.

    Input values may come in any order and are normalized to decreasing
    order; duplicates are rejected, as are sets with fewer than two values
    (the constructions need at least two distinct part counts).
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            vals = tuple(sorted(self.values, reverse=True))
        except TypeError as exc:
            raise ValueError(f"target set {_quote(self.values)} must be integers") from exc
        if len(set(vals)) != len(vals):
            raise ValueError(f"target set {_quote(sorted(self.values))} has duplicate values")
        if len(vals) < 2:
            raise ValueError("target set needs at least two values")
        if not all(isinstance(v, int) for v in vals) or vals[-1] < 2:
            raise ValueError(f"target set values must be integers >= 2, got {_quote(sorted(vals))}")
        object.__setattr__(self, "values", vals)

    @property
    def size(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __contains__(self, k: int) -> bool:
        return k in self.values

    def __len__(self) -> int:
        return len(self.values)


def construction_labels(ts: TargetSet) -> list[Label]:
    """Vertex labels of the variant-one hypergraph, in canonical id order.

    Constant tuples ``(i,...,i)`` for ``i < n_s`` come first, then for every
    coordinate position ``t >= 2`` and every ``j`` with ``n_t <= j < n_t-1``
    the pair ``(j,..,j,n_t,n_t+1,..,n_s)`` and ``(j,..,j,1,..,1)``, and the
    tuple ``(n_1,...,n_s)`` last.
    """
    vals = ts.values
    s = len(vals)
    labels: list[Label] = [(i,) * s for i in range(1, vals[-1])]
    for t in range(2, s + 1):
        lo, hi = vals[t - 1], vals[t - 2]
        for j in range(lo, hi):
            labels.append((j,) * (t - 1) + vals[t - 1 :])
            labels.append((j,) * (t - 1) + (1,) * (s - t + 1))
    labels.append(vals)
    return labels


def _label_edges(labels: list[Label]) -> tuple[list[list[int]], list[list[int]]]:
    """C-edges: the vertex triples whose labels take exactly two distinct
    values at every coordinate.  D-edges: the pairs whose labels differ at
    every coordinate.  Both are read off the agreement words
    ``agree[w, i, j]``, bits ``64*w .. 64*w + 63`` of the coordinates at
    which labels ``i`` and ``j`` agree (``core._packed``, from n x n x s
    unpacked bytes); a label's words with itself have every coordinate set.
    The triples are tested a run of first vertices at a time
    (``core._slices``), each first vertex counted as all the agreement
    words, which bound its triple test's m x m words per plane for its m
    later vertices.  ``argwhere`` yields them in lexicographic order."""
    n = len(labels)
    lab = np.array(labels)
    agree = np.ascontiguousarray(core._packed(lab[:, None] == lab[None]).transpose(2, 0, 1))
    idx = np.arange(n)
    upper = idx[:, None] < idx[None, :]
    c_edges: list[list[int]] = []
    for part in core._slices(n - 2, agree.nbytes):
        later = slice(part.start + 1, n)  # j and k beyond the run's first vertex
        ok = upper[part, later, None] & upper[later, later]  # i < j < k
        for a, f in zip(agree, agree[:, 0, 0]):  # f: every coordinate set
            ij = a[part, later]
            # labels take two values at a coordinate exactly when one of ij
            # and ik agrees there, or jk agrees there and so not ij (nor ik)
            two = ij[:, :, None] ^ ij[:, None, :]
            two |= a[later, later] & ~ij[:, :, None]
            ok &= two == f
        c_edges += (np.argwhere(ok) + (part.start, part.start + 1, part.start + 1)).tolist()
    return c_edges, np.argwhere(upper & ~agree.any(axis=0)).tolist()


def _variant_labels(ts: TargetSet, which: str) -> list[Label]:
    """Vertex labels of variant ``which`` in id order: variant two drops
    ``(n_2, 1, ..., 1)``.  Edges depend only on their members' labels."""
    if which not in ("one", "two"):
        raise ValueError(f"variant must be 'one' or 'two', got {which!r}")
    labels = construction_labels(ts)
    if which == "two":
        vals = ts.values
        if vals[0] != vals[1] + 1:
            raise ValueError(
                f"variant two needs the two largest values consecutive, got {vals[0]} and {vals[1]}"
            )
        labels.remove((vals[1],) + (1,) * (len(vals) - 1))
    return labels


def _realization(ts: TargetSet, which: str) -> MixedHypergraph:
    """Variant ``which`` on its labels, with the edges of ``_label_edges``."""
    labels = _variant_labels(ts, which)
    return MixedHypergraph(len(labels), *_label_edges(labels), labels)


def construct_one(ts: TargetSet) -> MixedHypergraph:
    """The variant-one realization on ``2*n_1 - n_s`` labeled vertices."""
    return _realization(ts, "one")


def construct_two(ts: TargetSet) -> MixedHypergraph:
    """The variant-two realization: variant one without ``(n_2, 1, ..., 1)``."""
    return _realization(ts, "two")


def canonical_coloring(ts: TargetSet, i: int, which: str = "one") -> Partition:
    """The feasible partition grouping vertices by coordinate ``i`` (1-based).

    Read off either variant's labels, numbering the values of coordinate
    ``i`` by first occurrence; the result has exactly ``n_i`` blocks.
    """
    if type(i) is not int:
        raise ValueError(f"coordinate index must be an int, got {_quote(i)}")
    if not 1 <= i <= ts.size:
        raise ValueError(f"coordinate index {i} out of range 1..{ts.size}")
    first: dict[int, int] = {}
    row = tuple(first.setdefault(lab[i - 1], len(first)) for lab in _variant_labels(ts, which))
    if len(first) != ts.values[i - 1]:
        raise AssertionError(f"coordinate {i} spans {len(first)} values, expected {ts.values[i - 1]}")
    return Partition(row)


def minimum_size(ts: TargetSet) -> int:
    """Vertex count of the smallest one-realization of the target set."""
    vals = ts.values
    n = 2 * vals[0] - vals[-1]
    return n - 1 if vals[0] == vals[1] + 1 else n


def smallest_one_realization(ts: TargetSet) -> MixedHypergraph:
    """The minimum-size one-realization: variant two when the two largest
    values are consecutive, variant one otherwise."""
    return _realization(ts, "two" if ts.values[0] == ts.values[1] + 1 else "one")


def is_realizable_set(values: Iterable[int]) -> bool:
    """Whether a set of positive integers is the feasible set of some mixed
    hypergraph: it must avoid 1 or be an interval."""
    vs = set(values)
    if not vs:
        raise ValueError("the empty set is not a candidate feasible set")
    if any(type(v) is not int or v < 1 for v in vs):
        raise ValueError(f"feasible-set values must be positive integers, got {_quote(sorted(vs))}")
    return 1 not in vs or is_gap_free(vs)
