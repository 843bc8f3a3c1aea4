"""Realization checks, deletion criticality, and a capped minimality search.

The search enumerates every hypergraph on ``n`` vertices whose C-edges all
have one fixed size and whose D-edges all have another, rejects isomorphic
duplicates via a canonical form (the minimum of the edge-set bit masks over
all vertex permutations), and tests survivors for being a one-realization of
the target set.  The uniform edge sizes and the small vertex cap make this
evidence about minimality, not a proof: a non-uniform or larger hypergraph is
never examined.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations, permutations
from typing import Iterable, Optional

import numpy as np

from .core import MixedHypergraph
from .coloring import Spectrum, _chunk, chromatic_spectrum, feasible_set, map_shards
from .constructions import TargetSet, minimum_size, smallest_one_realization

VERTEX_CAP = 6


class Outcome(str, Enum):
    WITNESS_FOUND = "witness-found"
    EXHAUSTED = "exhausted"
    BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the bounded search: vertex ceiling, fixed edge sizes, and the
    maximum number of edge-set combinations worth examining."""

    max_vertices: int = 5
    c_edge_size: int = 3
    d_edge_size: int = 2
    max_candidates: int = 1 << 22

    def __post_init__(self) -> None:
        if not 1 <= self.max_vertices <= VERTEX_CAP:
            raise ValueError(f"max_vertices must be in 1..{VERTEX_CAP}")
        if self.c_edge_size < 2 or self.d_edge_size < 2:
            raise ValueError("edge sizes must be at least 2")
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be positive")


@dataclass(frozen=True)
class SearchReport:
    outcome: Outcome
    witness: Optional[MixedHypergraph]
    examined: int
    dedup_ratio: float

    def __post_init__(self) -> None:
        if (self.witness is not None) != (self.outcome is Outcome.WITNESS_FOUND):
            raise ValueError("witness present exactly when the outcome is witness-found")


def is_realization(h: MixedHypergraph, values: Iterable[int]) -> bool:
    """Feasible set of ``h`` equals the given set."""
    return set(feasible_set(h)) == set(values)


def realization_problems(spectrum: Spectrum, target: Iterable[int]) -> list[str]:
    """Why a hypergraph with this spectrum is not a one-realization of the
    target set: missing values, extra values, then block counts with more
    than one feasible partition.  Empty exactly for a one-realization."""
    wanted = set(target)
    feasible = set(spectrum.feasible_values())
    problems = [f"{k} not feasible" for k in sorted(wanted - feasible)]
    problems += [f"{k} feasible but not in the target set" for k in sorted(feasible - wanted)]
    problems += [
        f"r_{k} = {count} (a one-realization allows at most 1)"
        for k, count in enumerate(spectrum.counts, start=1)
        if count > 1
    ]
    return problems


def is_one_realization(h: MixedHypergraph, values: Iterable[int]) -> bool:
    """Feasible set equals the given set and no block count admits more than
    one feasible partition."""
    return not realization_problems(chromatic_spectrum(h), values)


def deletion_criticality(h: MixedHypergraph, values: Iterable[int]) -> list[tuple[int, bool]]:
    """For each vertex, whether the hypergraph still one-realizes the set
    after deleting it.  A minimum-size one-realization must report all-false."""
    target = set(values)
    if h.n < 2:
        return []
    return [(v, is_one_realization(h.delete_vertex(v), target)) for v in range(h.n)]


def check_minimum_size(ts: TargetSet) -> bool:
    """End-to-end check: the generated smallest realization has exactly the
    predicted vertex count and one-realizes the target set."""
    h = smallest_one_realization(ts)
    return h.n == minimum_size(ts) and is_one_realization(h, ts)


# --- candidate space --------------------------------------------------------


def edge_subsets(n: int, size: int) -> list[tuple[int, ...]]:
    """All vertex subsets of the given size, in lexicographic order."""
    return list(combinations(range(n), size))


def _mask_image_table(image: list[int], nbits: int) -> np.ndarray:
    """``table[mask]`` = mask with every set bit ``i`` moved to ``image[i]``."""
    table = np.zeros(1 << nbits, dtype=np.int64)
    for i in range(nbits):
        half = 1 << i
        table[half : 2 * half] = table[:half] | (1 << image[i])
    return table


def canonical_keys(n: int, c_subsets: list[tuple[int, ...]], d_subsets: list[tuple[int, ...]]) -> np.ndarray:
    """Canonical form of every (C-mask, D-mask) candidate pair.

    Entry ``mask_c << len(d_subsets) | mask_d`` holds the minimum, over all
    vertex permutations, of the permuted pair packed the same way.  Two
    candidates get equal keys exactly when they are isomorphic.
    """
    nc, nd = len(c_subsets), len(d_subsets)
    c_index = {s: i for i, s in enumerate(c_subsets)}
    d_index = {s: i for i, s in enumerate(d_subsets)}
    best: Optional[np.ndarray] = None
    packed = np.empty((1 << nc, 1 << nd), dtype=np.int64)
    for perm in permutations(range(n)):
        c_image = [c_index[tuple(sorted(perm[v] for v in s))] for s in c_subsets]
        d_image = [d_index[tuple(sorted(perm[v] for v in s))] for s in d_subsets]
        c_table = _mask_image_table(c_image, nc) << nd
        d_table = _mask_image_table(d_image, nd)
        np.bitwise_or(c_table[:, None], d_table[None, :], out=packed)
        if best is None:
            best = packed.copy()
        else:
            np.minimum(best, packed, out=best)
    assert best is not None
    return best.ravel()


def _candidate_order(nc: int, nd: int) -> np.ndarray:
    """Flat candidate ids sorted by total edge count, then C-mask, then D-mask."""
    pc = np.zeros(1, dtype=np.uint8)
    for _ in range(nc):
        pc = np.concatenate([pc, pc + 1])
    pd = np.zeros(1, dtype=np.uint8)
    for _ in range(nd):
        pd = np.concatenate([pd, pd + 1])
    total = (pc[:, None].astype(np.uint16) + pd[None, :]).ravel()
    return np.argsort(total, kind="stable")


def hypergraph_from_masks(
    n: int,
    c_mask: int,
    d_mask: int,
    c_subsets: list[tuple[int, ...]],
    d_subsets: list[tuple[int, ...]],
) -> MixedHypergraph:
    c = [c_subsets[i] for i in range(len(c_subsets)) if c_mask >> i & 1]
    d = [d_subsets[i] for i in range(len(d_subsets)) if d_mask >> i & 1]
    return MixedHypergraph(n, c, d)


# --- scan -------------------------------------------------------------------

_CHUNK = 1 << 15


def _scan(order, keys, n, c_subsets, d_subsets, target, span: range):
    """Stream candidates ``order[span]``; returns the first witness position
    (or None), its masks, and the set of canonical keys seen."""
    nd = len(d_subsets)
    seen: set[int] = set()
    for at in range(span.start, span.stop, _CHUNK):
        stop = min(at + _CHUNK, span.stop)
        flats = order[at:stop].tolist()
        kvals = keys[order[at:stop]].tolist()
        for off, (flat, key) in enumerate(zip(flats, kvals)):
            if key in seen:
                continue
            seen.add(key)
            h = hypergraph_from_masks(n, flat >> nd, flat & ((1 << nd) - 1), c_subsets, d_subsets)
            if is_one_realization(h, target):
                return at + off, (flat >> nd, flat & ((1 << nd) - 1)), seen
    return None, None, seen


def bounded_minimality_search(
    ts: TargetSet,
    n: int,
    budget: Optional[SearchBudget] = None,
    jobs: int = 1,
) -> SearchReport:
    """Exhaust the uniform-edge-size candidate space on ``n`` vertices.

    Candidates are visited in deterministic order (fewest edges first); each
    isomorphism class is spectrum-tested once.  The report carries the first
    witness in that order, the number of candidates enumerated before
    stopping, and the fraction removed as isomorphic duplicates.  Workers only
    shard the candidate range; the report is identical for any ``jobs``.
    """
    budget = budget or SearchBudget()
    if n < 1:
        raise ValueError("vertex count must be positive")
    if n > budget.max_vertices:
        raise ValueError(f"n={n} exceeds the search cap of {budget.max_vertices} vertices")

    c_subsets = edge_subsets(n, budget.c_edge_size)
    d_subsets = edge_subsets(n, budget.d_edge_size)
    total = 1 << (len(c_subsets) + len(d_subsets))
    if total > budget.max_candidates:
        return SearchReport(Outcome.BUDGET_EXCEEDED, None, 0, 0.0)

    keys = canonical_keys(n, c_subsets, d_subsets)
    order = _candidate_order(len(c_subsets), len(d_subsets))
    shards = _chunk(range(total), jobs)
    results = map_shards(_scan, (order, keys, n, c_subsets, d_subsets, set(ts.values)), shards, jobs)

    hits = [(pos, masks) for pos, masks, _ in results if pos is not None]
    if not hits:
        unique = set().union(*(seen for _, _, seen in results))
        ratio = (total - len(unique)) / total if total else 0.0
        return SearchReport(Outcome.EXHAUSTED, None, total, ratio)

    first, (c_mask, d_mask) = min(hits)
    # Shards beyond the winning position never influence a sequential run:
    # drop their keys so the report matches the jobs=1 scan bit for bit.
    unique = set().union(*(seen for span, (_, _, seen) in zip(shards, results) if span.start <= first))
    examined = first + 1
    witness = hypergraph_from_masks(n, c_mask, d_mask, c_subsets, d_subsets)
    return SearchReport(Outcome.WITNESS_FOUND, witness, examined, (examined - len(unique)) / examined)
