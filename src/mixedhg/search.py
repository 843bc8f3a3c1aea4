"""Realization checks, deletion criticality, and a capped minimality search.

The search covers every hypergraph on ``n`` vertices whose C-edges all have
one fixed size and whose D-edges all have another, ordered by edge count and
then by flat id, and reports the first one-realization of the target set in
that order.  It decides with partition bitsets: a C-mask's kill mask ORs
the rainbow masks of its edges, a D-mask's the monochromatic ones.  Edges
only remove partitions, so each side first drops the kill masks that cannot
be part of any hit (``_can_hit``); the C-masks left with equal kill masks are
merged, and the D-masks are walked in chunks, each tested against every
distinct C kill mask left at once (``_hits``), so an exhausted space needs no
candidate order at all.  The witness is read off that one pass.  The prune,
the pass and the canonical keys work in slices of ``core.WORKING_BYTES``.
Isomorphism classes are counted per edge count by Polya's theorem
(``class_counts``); only in the layer of a witness, up to the witness, are
they told apart by a canonical form (the smallest id in the candidate's
isomorphism class).  Only the hit tests depend on the target set; the rest
is kept for later searches in two caches.  Per ``n``: the Bell(n)
partitions, every vertex subset's rainbow and monochromatic partition masks
and the block-count rows (``_partition_masks``), the one source of partition
structure here: the class counts read their cycle types off its block
shapes.  The subset masks come from one recurrence that adds a subset's top
vertex to the masks of the rest, reading only the packed rows of the
partitions in which two vertices share a block, so they stay small past the
search's cap.  For the last ``n`` and pair of edge sizes searched: the
candidate space (``_space``), that is the edge subsets, the class counts,
every C-mask's and D-mask's kill mask, the canonical form's OR tables and
the D-order.  README "Limits" gives their sizes.  The uniform
edge sizes and the small vertex cap make this evidence about minimality,
not a proof: a non-uniform or larger hypergraph is never examined.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass, fields
from enum import Enum
from functools import cache, lru_cache
from itertools import combinations, permutations
from math import comb, factorial, prod
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import Edge, MixedHypergraph, _packed, _slices
from .coloring import Spectrum, _partition_rows, chromatic_spectrum, feasible_set
from .constructions import TargetSet, minimum_size, smallest_one_realization

VERTEX_CAP = 6
# at n <= 6 no space has between 2^21 and 2^26 candidates; the largest take
# about 0.6 s and 100 MiB (README, "Limits")
CANDIDATE_CAP = 1 << 26


class Outcome(str, Enum):
    WITNESS_FOUND = "witness-found"
    EXHAUSTED = "exhausted"
    BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True, kw_only=True)
class SearchBudget:
    """The fixed edge sizes of the bounded search and its one budget: the
    most edge-set combinations (candidates) that one search may cover."""

    c_edge_size: int = 3
    d_edge_size: int = 2
    max_candidates: int = 1 << 22

    def __post_init__(self) -> None:
        for field in fields(self):
            if type(getattr(self, field.name)) is not int:
                raise ValueError(f"{field.name} must be an int")
        if self.c_edge_size < 2 or self.d_edge_size < 2:
            raise ValueError("edge sizes must be at least 2")
        if not 1 <= self.max_candidates <= CANDIDATE_CAP:
            raise ValueError(f"max_candidates must be in 1..{CANDIDATE_CAP}")


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


def _or_table(values: np.ndarray) -> np.ndarray:
    """``table[mask]`` = OR of ``values[i]`` over the set bits ``i`` of ``mask``."""
    table = np.zeros((1 << len(values),) + values.shape[1:], dtype=values.dtype)
    for i, value in enumerate(values):
        half = 1 << i
        table[half : 2 * half] = table[:half] | value
    return table


def _bitmasks(subsets: Iterable[tuple[int, ...]]) -> np.ndarray:
    """Each vertex subset as its vertex bitmask."""
    return np.array([sum(1 << v for v in s) for s in subsets], dtype=np.int64)


def _images(n: int, subsets: Sequence[Edge], perms: np.ndarray) -> np.ndarray:
    """``images[i, p]``: the index that vertex permutation ``perms[p]`` moves
    subset ``i`` to, found through a lookup from vertex bitmask to index."""
    masks = _bitmasks(subsets)
    index = np.zeros(1 << n, dtype=np.int64)
    index[masks] = np.arange(len(subsets))
    return index[(masks[:, None] >> np.arange(n) & 1) @ (1 << perms.T)]


def canonical_keys(n: int, c_size: int, d_size: int, flats: np.ndarray) -> np.ndarray:
    """Canonical form of the candidates ``flats`` of ``_space(n, c_size, d_size)``.

    Candidate ``mask_c << len(d_subsets) | mask_d`` maps to the minimum, over
    all vertex permutations, of the permuted pair packed the same way.  Two
    candidates get equal keys exactly when they are isomorphic.  Each byte
    of a mask is permuted by one OR table of ``_key_tables``.
    """
    space = _space(n, c_size, d_size)
    nd = len(space.d_subsets)
    masks = ((flats >> nd, len(space.c_subsets)), (flats & ((1 << nd) - 1), nd))
    # (a byte of every candidate's mask, the images of that byte)
    pieces = list(zip([side >> low & 255 for side, size in masks for low in range(0, size, 8)], space.keys))
    best = np.array(flats, dtype=np.int64)
    perms = factorial(n)
    for part in _slices(len(best), 8 * perms):
        permuted = np.zeros((len(best[part]), perms), dtype=np.int64)
        for byte, table in pieces:
            permuted |= table[byte[part]]
        np.minimum(best[part], permuted.min(axis=1), out=best[part])
    return best


def _key_tables(n: int, c_subsets: Sequence[Edge], d_subsets: Sequence[Edge]) -> tuple[np.ndarray, ...]:
    """``canonical_keys``' OR tables: for each byte of the C-mask, then of
    the D-mask, ``table[byte, p]`` is that byte's subsets moved by the
    ``p``-th vertex permutation, packed as in a candidate id."""
    perms = np.array(list(permutations(range(n))), dtype=np.int64)
    tables = []
    for subsets, shift in ((c_subsets, len(d_subsets)), (d_subsets, 0)):
        images = 1 << (_images(n, subsets, perms) + shift)
        tables += [_or_table(images[low : low + 8]) for low in range(0, len(subsets), 8)]
    return tuple(tables)


def class_counts(n: int, c_subsets: Sequence[Edge], d_subsets: Sequence[Edge]) -> tuple[int, ...]:
    """``classes[m]``: the isomorphism classes of candidates with ``m`` edges.

    By Polya's counting theorem, the mean over vertex permutations of the
    coefficients of the product of ``1 + x^len`` over the permutation's
    cycles on the C-subsets and on the D-subsets.  Those cycles depend only
    on the permutation's own cycle type, so one permutation of each type is
    expanded.  The cycle types are the block shapes of the partitions of
    ``_partition_masks(n)``: cycling each block of a partition with block
    sizes ``l_i`` gives ``prod((l_i - 1)!)`` permutations, so a type's
    weight, its ``n! / z`` permutations, is that product times the number of
    partitions of its shape.
    """
    shapes = Counter(tuple(sorted(np.bincount(row).tolist(), reverse=True)) for row in _partition_masks(n)[0])
    reps, weights = [], []
    for lengths, rows in shapes.items():
        perm: list[int] = []
        for length in lengths:
            start = len(perm)
            perm += [start + (j + 1) % length for j in range(length)]
        reps.append(perm)
        weights.append(rows * prod(factorial(length - 1) for length in lengths))
    fixed = [0] * (len(c_subsets) + len(d_subsets) + 1)
    c_images, d_images = (_images(n, subsets, np.array(reps)).T.tolist() for subsets in (c_subsets, d_subsets))
    for weight, c_image, d_image in zip(weights, c_images, d_images):
        poly = [1] + [0] * (len(fixed) - 1)
        for image in (c_image, d_image):
            seen = [False] * len(image)
            for i in range(len(image)):
                length = 0
                while not seen[i]:
                    seen[i] = True
                    i = image[i]
                    length += 1
                if length:
                    for m in range(len(poly) - 1, length - 1, -1):
                        poly[m] += poly[m - length]
        fixed = [f + weight * p for f, p in zip(fixed, poly)]
    return tuple(f // factorial(n) for f in fixed)


def hypergraph_from_masks(
    n: int,
    c_mask: int,
    d_mask: int,
    c_subsets: Sequence[Edge],
    d_subsets: Sequence[Edge],
) -> MixedHypergraph:
    c = [c_subsets[i] for i in range(len(c_subsets)) if c_mask >> i & 1]
    d = [d_subsets[i] for i in range(len(d_subsets)) if d_mask >> i & 1]
    return MixedHypergraph(n, c, d)


# --- partition kill masks ---------------------------------------------------
#
# A candidate's feasible partitions are those that none of its edges kills: a
# C-edge kills the partitions in which it is rainbow, a D-edge those in which
# it is monochromatic.  With the Bell(n) partitions of n <= 6 vertices as the
# bits of at most four uint64 words, a candidate's spectrum is a popcount of
# its feasible bits per block count.


@cache
def _partition_masks(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Partition bitsets on ``n`` vertices, built once per ``n`` and read-only.

    Bit ``j`` of a row stands for the ``j``-th restricted-growth partition.
    Returns the Bell(n) restricted-growth rows; for every vertex subset,
    indexed by its vertex bitmask, the partitions in which it is rainbow and
    those in which it is monochromatic; and one row per block count
    ``k = 1..n`` holding the partitions with ``k`` blocks.

    The subset masks follow one recurrence over the subsets ``s | v`` with
    every member of ``s`` below ``v``, from ``same[u, v]``, the partitions in
    which ``u`` and ``v`` share a block: ``s | v`` is rainbow where ``s`` is
    and ``v`` shares no member's block (``_or_table`` ORs ``same[u, v]``
    over the members ``u`` of every ``s`` at once), and monochromatic where
    ``s`` is and ``v`` shares the block of the lowest member of ``s | v``.
    Past the ``n x n`` pair rows, every working array is a table over the
    ``2^v`` subsets ``s``, so the build stays within tens of MiB at n=10
    (README "Limits").
    """
    parts = _partition_rows(MixedHypergraph(n, [], []))
    # same[i, j]: the partitions in which i and j share a block; comparing
    # the strided ``parts.T`` itself would give a table 30x slower to pack
    cols = np.ascontiguousarray(parts.T)
    same = _packed(cols[:, None] == cols[None])
    rainbow, mono = np.empty((2, 1 << n, same.shape[-1]), dtype=same.dtype)
    rainbow[0] = mono[0] = same[0, 0]  # every partition
    for v in range(n):
        half, top = 1 << v, np.arange(1 << v, 2 << v)
        rainbow[half : 2 * half] = rainbow[:half] & ~_or_table(same[:v, v])
        # bitwise_count(t ^ (t - 1)) - 1 is the lowest member of subset t
        mono[half : 2 * half] = mono[:half] & same[np.bitwise_count(top ^ (top - 1)) - 1, v]
    blocks = _packed(np.arange(1, n + 1)[:, None] == parts.max(axis=1) + 1)
    for table in (parts, rainbow, mono, blocks):
        table.flags.writeable = False
    return parts, rainbow, mono, blocks


def _distinct_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``table`` in no set order, and ``row_of`` with
    ``distinct[row_of] == table``: sort the rows by their words, keep each
    one that differs from its neighbour, and number the runs."""
    order = np.lexsort(table.T)
    ranked = table[order]
    new = np.concatenate(([True], (ranked[1:] != ranked[:-1]).any(axis=1)))
    row_of = np.empty(len(table), dtype=np.int64)
    row_of[order] = np.cumsum(new) - 1
    return ranked[new], row_of


def _can_hit(kills: np.ndarray, other_all: np.ndarray, blocks: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Whether each kill mask of one side can be part of a hit with some mask
    of the other side, whose kill masks are all subsets of ``other_all``.
    Edges only remove partitions, so a hit needs a partition that ``kills``
    spares for each wanted block count, and ``other_all`` must kill every
    unwanted partition that ``kills`` spares."""
    spared = ~kills
    can = ~(spared & np.bitwise_or.reduce(blocks[~want]) & ~other_all).any(axis=1)
    for row in blocks[want]:
        can &= (spared & row).any(axis=1)
    return can


def _hits(kills: np.ndarray, kill_d: np.ndarray, blocks: np.ndarray, want: np.ndarray) -> np.ndarray:
    """``hits[i, mask_d]``: whether the partitions killed neither by
    ``kills[i]`` nor by D-mask ``mask_d`` are one with ``k`` blocks for each
    wanted block count ``k`` and none with any other.  Built one word at a
    time, so every working array is one ``(i, mask_d)`` table."""
    unwanted = np.bitwise_or.reduce(blocks[~want])
    wanted = blocks[want]
    spill = np.zeros((len(kills), len(kill_d)), dtype=np.uint64)
    counts = np.zeros((len(wanted), len(kills), len(kill_d)), dtype=np.uint8)
    for w in range(kills.shape[1]):
        feasible = ~(kills[:, w, None] | kill_d[:, w])
        spill |= feasible & unwanted[w]
        for count, row in zip(counts, wanted):
            count += np.bitwise_count(feasible & row[w])
    hit = spill == 0
    for count in counts:
        hit &= count == 1
    return hit


def _layer_until(flat: int, d_order: np.ndarray) -> np.ndarray:
    """The ids with as many set bits as ``flat``, ascending, up to and
    including ``flat``.  ``d_order`` lists the D-masks by edge count, then
    mask, so the D-masks that bring a C-mask ``id >> nd`` to that many bits
    are one run of it, already ascending: each C-mask up to ``flat``'s is
    repeated once per D-mask of its run."""
    nd = len(d_order).bit_length() - 1
    # runs[j]: where the D-masks with j edges start in d_order
    runs = np.searchsorted(np.bitwise_count(d_order), np.arange(nd + 2))
    c_masks = np.arange((flat >> nd) + 1)
    j = flat.bit_count() - np.bitwise_count(c_masks).astype(np.int64)
    keep = (j >= 0) & (j <= nd)
    c_masks, j = c_masks[keep], j[keep]
    lengths = runs[j + 1] - runs[j]
    ends = np.cumsum(lengths)
    within = np.arange(ends[-1]) - np.repeat(ends - lengths, lengths)
    layer = np.repeat(c_masks << nd, lengths) | d_order[np.repeat(runs[j], lengths) + within]
    return layer[: np.searchsorted(layer, flat) + 1]


# --- search -----------------------------------------------------------------


# what a search reads that no target set changes; ``d_order`` lists the
# D-masks by edge count, then mask
_Space = namedtuple("_Space", "c_subsets d_subsets classes kill_c kill_d blocks keys d_order")


@lru_cache(maxsize=1)
def _space(n: int, c_size: int, d_size: int) -> _Space:
    """The candidate space on ``n`` vertices with the given edge sizes, built
    whole and read-only.  Only the last space is kept."""
    c_subsets, d_subsets = tuple(edge_subsets(n, c_size)), tuple(edge_subsets(n, d_size))
    _, rainbow, mono, blocks = _partition_masks(n)
    kill_c, kill_d = _or_table(rainbow[_bitmasks(c_subsets)]), _or_table(mono[_bitmasks(d_subsets)])
    keys = _key_tables(n, c_subsets, d_subsets)
    # int32: D-masks are below 2^20, as 6 vertices have at most 20 D-subsets
    d_order = np.argsort(np.bitwise_count(np.arange(1 << len(d_subsets))), kind="stable").astype(np.int32)
    for table in (kill_c, kill_d, *keys, d_order):
        table.flags.writeable = False
    return _Space(c_subsets, d_subsets, class_counts(n, c_subsets, d_subsets), kill_c, kill_d, blocks, keys, d_order)


def bounded_minimality_search(
    ts: TargetSet,
    n: int,
    budget: Optional[SearchBudget] = None,
    jobs: int = 1,
) -> SearchReport:
    """Exhaust the uniform-edge-size candidate space on ``n`` vertices.

    Candidates are ordered by edge count, fewest first, and by flat id
    ``mask_c << len(d_subsets) | mask_d`` within an edge count; the report
    carries the first one-realization in that order, the number of
    candidates up to and including it, and the fraction of them that are
    isomorphic duplicates of an earlier candidate.  Isomorphic candidates
    share a spectrum, so the first hit is also the first hit among class
    representatives.  ``jobs`` is accepted like elsewhere in the package, but
    the search runs vectorised in this process and starts no workers.
    """
    budget = budget or SearchBudget()
    if type(n) is not int:
        raise ValueError("vertex count must be an int")
    if n < 1:
        raise ValueError("vertex count must be positive")
    if n > VERTEX_CAP:
        raise ValueError(f"n={n} exceeds the search cap of {VERTEX_CAP} vertices")

    total = 1 << (comb(n, budget.c_edge_size) + comb(n, budget.d_edge_size))
    if total > budget.max_candidates:
        return SearchReport(Outcome.BUDGET_EXCEEDED, None, 0, 0.0)

    space = _space(n, budget.c_edge_size, budget.d_edge_size)
    kill_c, kill_d, blocks, d_order = space.kill_c, space.kill_d, space.blocks, space.d_order
    nc, nd = len(space.c_subsets), len(space.d_subsets)
    exhausted = SearchReport(Outcome.EXHAUSTED, None, total, (total - sum(space.classes)) / total)
    # a target above n needs more blocks than vertices: nothing can hit
    if max(ts.values) > n:
        return exhausted
    want = np.array([k in ts.values for k in range(1, n + 1)])
    # only the C and D kill masks that can be part of a hit meet in _hits
    live = np.flatnonzero(np.concatenate(
        [_can_hit(kill_c[part], kill_d[-1], blocks, want) for part in _slices(len(kill_c), kill_c[0].nbytes)]
    ))
    if not live.size:
        return exhausted
    # live C-masks with equal kill masks hit with the same D-masks
    survivors, row_of = _distinct_rows(kill_c[live])
    # in the D-order a kill mask's first hit has the fewest D-edges, and
    # position 1 << nd stands for no hit
    found = np.full(len(survivors), 1 << nd)
    for part in _slices(1 << nd, survivors.nbytes):
        chunk = kill_d[d_order[part]]
        cols = np.flatnonzero(_can_hit(chunk, kill_c[-1], blocks, want))
        if cols.size:
            hit = _hits(survivors, chunk[cols], blocks, want)
            np.minimum(found, np.where(hit.any(axis=1), part.start + cols[hit.argmax(axis=1)], 1 << nd), out=found)
    first = found[row_of]  # each live C-mask's first hit

    # the first hit: fewest edges, then the smallest C-mask (live ascends), then D-mask
    d_edges = np.append(np.bitwise_count(d_order), nc + nd + 1)
    edges = np.bitwise_count(live) + d_edges[first]
    best = int(edges.argmin())
    m = int(edges[best])
    if m > nc + nd:
        return exhausted
    mask_c, mask_d = int(live[best]), int(d_order[first[best]])
    layer = _layer_until(mask_c << nd | mask_d, d_order)
    examined = sum(comb(nc + nd, j) for j in range(m)) + len(layer)
    # isomorphic candidates have equal edge counts: every class of the layers
    # below is complete, and the layer prefix holds each class it meets at its
    # smallest id, which is the class's key
    keys = canonical_keys(n, budget.c_edge_size, budget.d_edge_size, layer)
    unique = sum(space.classes[:m]) + int((keys == layer).sum())
    witness = hypergraph_from_masks(n, mask_c, mask_d, space.c_subsets, space.d_subsets)
    return SearchReport(Outcome.WITNESS_FOUND, witness, examined, (examined - unique) / examined)
