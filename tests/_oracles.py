"""Independent brute-force oracles used to validate the engine.

Nothing here shares code paths with the library's pruned enumeration: the
partition generator spells out every restricted-growth string, and the
spectrum oracle filters them with the definitional properness check.  The
layer-scan minimality search spectrum-tests every candidate in order and
shares only its unchanged helpers with the pair-table search it checks; its
class counts expand every vertex permutation on its own (Burnside), where
the library expands one per cycle type.  The
dict frontier programme is the counting engine as it was before its one-pass
edge plan and bitmask states, kept as the reference for that engine on
instances too large for brute force.  The dict programme
reads its frontier from each vertex's neighbourhood, built edge by edge.
The per-edge validation loop and the per-row document renderer are the core
and document code as they were before their bulk checks and one-call
rendering, and the edge-by-edge isomorphism profiles those of before they
were counted per group of edges.  The per-edge row engine is
the listing engine as it was before it tested closing edges by group, and
the column-zip build the ``Partition`` build as it was before it unpacked
each row's bytes.  The
popcount build of the partition masks is ``_partition_masks`` as it was
before its subset recurrence.  The product of partition choices decides
whether a set has a one-realization on ``n`` vertices among all mixed
hypergraphs, trying every choice with no prune and no symmetry.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from functools import cache
from itertools import combinations, islice, permutations, product
from math import factorial
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from mixedhg import MixedHypergraph, Partition, is_proper
from mixedhg.coloring import _partition_rows
from mixedhg.core import Edge
from mixedhg.constructions import TargetSet
from mixedhg.documents import to_document
from mixedhg.search import (
    Outcome,
    SearchBudget,
    SearchReport,
    VERTEX_CAP,
    _or_table,
    _partition_masks,
    edge_subsets,
    hypergraph_from_masks,
)


def all_restricted_growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """Every canonical set-partition encoding of 0..n-1, lexicographically."""
    if n < 1:
        return
    assignment = [0] * n

    def rec(v: int, top: int) -> Iterator[tuple[int, ...]]:
        if v == n:
            yield tuple(assignment)
            return
        for b in range(top + 2):
            assignment[v] = b
            yield from rec(v + 1, max(top, b))

    yield from rec(1, 0)


def brute_force_partitions(h: MixedHypergraph) -> list[Partition]:
    """Filter every partition by the definitional properness check."""
    out = []
    for assignment in all_restricted_growth_strings(h.n):
        p = Partition(assignment)
        if is_proper(h, p):
            out.append(p)
    return out


def brute_force_spectrum(h: MixedHypergraph) -> tuple[int, ...]:
    """Feasible-partition counts per block count, trailing zeros trimmed."""
    counts = [0] * (h.n + 1)
    for p in brute_force_partitions(h):
        counts[p.num_blocks] += 1
    top = max((k for k in range(h.n + 1) if counts[k]), default=0)
    return tuple(counts[1 : top + 1])


@cache
def stirling_second(n: int, k: int) -> int:
    """Partitions of an n-set into k nonempty blocks, by the recurrence."""
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * stirling_second(n - 1, k) + stirling_second(n - 1, k - 1)


def restrict_partition(p: Partition, keep: set[int]) -> Partition:
    """Drop vertices outside ``keep`` and renumber; empty blocks vanish."""
    kept = sorted(keep)
    pos = {v: i for i, v in enumerate(kept)}
    blocks: dict[int, list[int]] = {}
    for v in kept:
        blocks.setdefault(p.assignment[v], []).append(pos[v])
    return Partition.from_blocks(blocks.values())


# --- the per-edge row engine -------------------------------------------------


def per_edge_partition_rows(h: MixedHypergraph, k: Optional[int] = None) -> np.ndarray:
    """Every feasible partition of ``h`` (with exactly ``k`` blocks when
    ``k`` is set) as one int16 restricted-growth row, in lexicographic order,
    level by level with each closing edge tested on its own."""
    n = h.n
    closing: list[list[tuple[bool, list[int]]]] = [[] for _ in range(n)]  # edges by last vertex
    for is_c, edges in ((True, h.c_edges), (False, h.d_edges)):
        for e in edges:
            closing[e[-1]].append((is_c, list(e[:-1])))
    rows = np.zeros((1, 1), dtype=np.int16)
    used = np.ones(1, dtype=np.int16)  # blocks used by each row
    for v in range(1, n):
        blocks = np.arange(min(v + 1, n if k is None else k), dtype=np.int16)
        allowed = blocks <= used[:, None]
        for is_c, others in closing[v]:
            members = rows[:, others]
            if is_c:
                spread = np.sort(members, axis=1)
                rainbow = (spread[:, 1:] != spread[:, :-1]).all(axis=1)
                hit = (members[:, :, None] == blocks).any(axis=1)
                allowed &= hit | ~rainbow[:, None]
            else:
                mono = (members == members[:, :1]).all(axis=1)
                allowed &= ~(mono[:, None] & (members[:, :1] == blocks))
        parent, b = np.nonzero(allowed)
        rows = np.column_stack((rows[parent], b.astype(np.int16)))
        used = used[parent]
        used += b == used
        if k is not None:  # the vertices left can open at most one block each
            live = used + (n - 1 - v) >= k
            rows, used = rows[live], used[live]
    return rows


def column_zip_partitions(rows: np.ndarray) -> list[Partition]:
    """``Partition._from_rows`` as it was before it unpacked each row's
    bytes: checked over the strided columns of ``rows.T``, then one tuple
    per row zipped from the column lists of Python ints."""
    bad = np.zeros(len(rows), dtype=bool)
    top = np.full(len(rows), -1, dtype=rows.dtype)
    for col in rows.T:
        bad |= (col < 0) | (col > top + 1)
        np.maximum(top, col, out=top)
    if bad.any():
        Partition(tuple(rows[bad.argmax()].tolist()))
    out = [object.__new__(Partition) for _ in range(len(rows))]
    for p, assignment in zip(out, zip(*rows.T.tolist())):
        object.__setattr__(p, "assignment", assignment)
    return out


# --- the dict frontier programme ---------------------------------------------


def neighbourhoods(h: MixedHypergraph) -> list[set[int]]:
    """Each vertex with every vertex it shares an edge with, edge by edge."""
    near = [{u} for u in range(h.n)]
    for e in h.c_edges + h.d_edges:
        for u in e:
            near[u].update(e)
    return near


def leave_points(near: list[set[int]], order: Sequence[int]) -> list[int]:
    """For each step of ``order``, the step after which its vertex leaves the
    frontier: the last step of a vertex in its neighbourhood ``near``."""
    step = [0] * len(order)
    for i, v in enumerate(order):
        step[v] = i
    return [max(map(step.__getitem__, near[v])) for v in order]


def dict_frontier_counts(h: MixedHypergraph, order: Sequence[int], near: list[set[int]]) -> list[int]:
    """``counts[k]``: the feasible partitions of ``h`` with ``k`` blocks, for
    ``k = 0..n``, by the frontier programme along ``order``; ``near`` is
    ``neighbourhoods(h)``.  Each step maps the frontier to slots through a
    dict, tests each closing edge on a set of its other members' blocks, and
    keeps the blocks a vertex may join as a set."""
    step = [0] * len(order)
    for i, v in enumerate(order):
        step[v] = i
    # the step after which each vertex leaves the frontier: its last neighbour's
    leave = [max(map(step.__getitem__, vs)) for vs in near]
    closing: list[list[tuple[bool, Edge]]] = [[] for _ in order]  # edges by last step
    for is_c, edges in ((True, h.c_edges), (False, h.d_edges)):
        for e in edges:
            closing[max(map(step.__getitem__, e))].append((is_c, e))
    states: dict[tuple[tuple[int, ...], int], int] = {((), 0): 1}
    frontier: list[int] = []
    for i, v in enumerate(order):
        slot = {u: j for j, u in enumerate(frontier)}
        # a pair names one block v must join (C) or avoid (D); a longer edge
        # is tested on the blocks of its other members
        same, differ, checks = [], [], []
        for is_c, e in closing[i]:
            slots = [slot[u] for u in e if u != v]
            if len(slots) > 1:
                checks.append((is_c, itemgetter(*slots), len(slots)))
            else:
                (same if is_c else differ).append(slots[0])
        kept = [j for j, u in enumerate(frontier) if leave[u] > i]
        drops = len(kept) < len(frontier)
        stays = leave[v] > i
        frontier = [frontier[j] for j in kept] + [v] * stays
        nxt: dict[tuple[tuple[int, ...], int], int] = defaultdict(int)
        for (labels, k), count in states.items():
            a = max(labels, default=-1) + 1
            joins = set(range(a))  # frontier blocks v may join
            joins.difference_update(map(labels.__getitem__, differ))
            for j in same:
                joins &= {labels[j]}
            fresh = not same  # whether v may take a block without frontier vertices
            for is_c, get, size in checks:
                seen = set(get(labels))
                if is_c:
                    if len(seen) == size:  # rainbow so far: v must repeat one
                        joins &= seen
                        fresh = False
                elif len(seen) == 1:  # monochromatic so far: v must differ
                    joins -= seen
            base, new = labels, a  # the frontier labels after the step, the next unused label
            if drops:  # renumber by first occurrence
                first: dict[int, int] = {}
                base = tuple([first.setdefault(labels[j], len(first)) for j in kept])
                new = len(first)
            if not stays:  # v is forgotten: every block it may join leads to one state
                ways = len(joins) + (k - a if fresh else 0)
                if ways:
                    nxt[base, k] += count * ways
                if fresh:
                    nxt[base, k + 1] += count
                continue
            # a block whose frontier vertices all left takes the next unused label
            for x in [first.get(x, new) for x in joins] if drops else joins:
                nxt[base + (x,), k] += count
            if fresh:
                if k > a:
                    nxt[base + (new,), k] += count * (k - a)
                nxt[base + (new,), k + 1] += count
        states = nxt
    counts = [0] * (h.n + 1)
    for (_, k), count in states.items():
        counts[k] = count
    return counts


# --- the layer-scan minimality search ----------------------------------------
#
def per_edge_canonical_edges(edges: Iterable[Iterable[int]], n: int, kind: str) -> tuple[Edge, ...]:
    """Deduplicate, sort, and range-check an edge family, vertex by vertex."""
    out: set[Edge] = set()
    try:
        for raw in edges:
            raw = tuple(raw)  # exact ints, no bools; checked before dedup folds True into 1
            for v in raw:
                if type(v) is not int or not 0 <= v < n:
                    raise ValueError(f"{kind}-edge {list(raw)}: vertex {v!r} out of range 0..{n - 1}")
            members = sorted(set(raw))
            if len(members) < 2:
                raise ValueError(f"{kind}-edge {members}: an edge needs at least two vertices")
            out.add(tuple(members))
    except TypeError:  # the family or one of its edges is not iterable
        raise ValueError(f"{kind}-edges must be a list of vertex lists") from None
    return tuple(sorted(out))


def vertex_signatures(h: MixedHypergraph) -> list[tuple]:
    """Each vertex's counts of its edges per kind and size, edge by edge."""
    sigs: list[Counter] = [Counter() for _ in range(h.n)]
    for kind, edges in (("c", h.c_edges), ("d", h.d_edges)):
        for e in edges:
            for v in e:
                sigs[v][(kind, len(e))] += 1
    return [tuple(sorted(c.items())) for c in sigs]


def pair_profiles(h: MixedHypergraph) -> dict[tuple[int, int], tuple]:
    """Each pair of vertices that share an edge with its counts of the edges
    they share per kind and size, edge by edge."""
    prof: dict[tuple[int, int], Counter] = {}
    for kind, edges in (("c", h.c_edges), ("d", h.d_edges)):
        for e in edges:
            for a, b in combinations(e, 2):
                prof.setdefault((a, b), Counter())[(kind, len(e))] += 1
    return {pair: tuple(sorted(c.items())) for pair, c in prof.items()}


def per_row_dumps(h: MixedHypergraph) -> str:
    """The canonical document of ``h``, every row of a list rendered on its own."""

    def row_list(rows: list[list[int]]) -> str:
        if not rows:
            return "[]"
        inner = ",\n".join("    [" + ", ".join(map(str, row)) + "]" for row in rows)
        return "[\n" + inner + "\n  ]"

    doc = to_document(h)
    fields = []
    for key in sorted(doc):
        value = doc[key]
        rendered = row_list(value) if isinstance(value, list) else json.dumps(value)
        fields.append(f'  "{key}": {rendered}')
    return "{\n" + ",\n".join(fields) + "\n}\n"


# The search as it was before the pair table: every candidate is
# spectrum-tested, one edge-count layer at a time, and canonical keys are
# built one vertex permutation at a time.  Only helpers the pair-table engine
# left unchanged are imported from the library.


def _subset_images(
    perms: Iterable[Sequence[int]], c_subsets: list[tuple[int, ...]], d_subsets: list[tuple[int, ...]]
) -> Iterator[tuple[list[int], list[int]]]:
    """For each vertex permutation in turn, the index every C-subset and every
    D-subset moves to."""
    c_index = {s: i for i, s in enumerate(c_subsets)}
    d_index = {s: i for i, s in enumerate(d_subsets)}
    for perm in perms:
        yield (
            [c_index[tuple(sorted(perm[v] for v in s))] for s in c_subsets],
            [d_index[tuple(sorted(perm[v] for v in s))] for s in d_subsets],
        )


def per_permutation_keys(
    n: int, c_subsets: list[tuple[int, ...]], d_subsets: list[tuple[int, ...]], flats: np.ndarray
) -> np.ndarray:
    """Canonical form of the candidates ``flats``.

    Candidate ``mask_c << len(d_subsets) | mask_d`` maps to the minimum, over
    all vertex permutations, of the permuted pair packed the same way.  Two
    candidates get equal keys exactly when they are isomorphic.
    """
    nd = len(d_subsets)
    c_masks, d_masks = flats >> nd, flats & ((1 << nd) - 1)
    best = np.array(flats, dtype=np.int64)
    for c_image, d_image in _subset_images(permutations(range(n)), c_subsets, d_subsets):
        c_table = _or_table(1 << np.array(c_image, dtype=np.int64)) << nd
        d_table = _or_table(1 << np.array(d_image, dtype=np.int64))
        np.minimum(best, c_table[c_masks] | d_table[d_masks], out=best)
    return best


def subset_image_class_counts(n: int, c_subsets: list[tuple[int, ...]], d_subsets: list[tuple[int, ...]]) -> list[int]:
    """``classes[m]``: the isomorphism classes of candidates with ``m`` edges.

    By Burnside's lemma, the mean over all ``n!`` vertex permutations of the
    coefficients of the product of ``1 + x^len`` over the permutation's
    cycles on the C-subsets and on the D-subsets, each permutation expanded
    on its own.
    """
    fixed = [0] * (len(c_subsets) + len(d_subsets) + 1)
    for c_image, d_image in _subset_images(permutations(range(n)), c_subsets, d_subsets):
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
        fixed = [f + p for f, p in zip(fixed, poly)]
    return [f // factorial(n) for f in fixed]


def kill_tables(
    n: int, c_subsets: Sequence[Edge], d_subsets: Sequence[Edge]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kill masks of every C-mask and every D-mask over the given subset
    lists (a C-edge kills the partitions in which it is rainbow, a D-edge
    those in which it is monochromatic), ORed from ``_partition_masks(n)``'
    subset masks as ``search._space`` ORs them, and its block-count rows."""
    _, rainbow, mono, blocks = _partition_masks(n)
    c_masks, d_masks = ([sum(1 << v for v in s) for s in subsets] for subsets in (c_subsets, d_subsets))
    return _or_table(rainbow[c_masks]), _or_table(mono[d_masks]), blocks


def _spectra(kill_c: np.ndarray, kill_d: np.ndarray, blocks: np.ndarray, flats: np.ndarray, nd: int) -> np.ndarray:
    """Feasible partitions per block count of the candidates ``flats``:
    row ``i``, column ``k - 1`` counts those of ``flats[i]`` with ``k`` blocks."""
    feasible = ~(kill_c[flats >> nd] | kill_d[flats & ((1 << nd) - 1)])
    # built block count by block count: comparisons along a long axis are fast
    return np.array([np.bitwise_count(feasible & row).sum(axis=1, dtype=np.uint8) for row in blocks]).T


def _layers(bits: int) -> Iterator[np.ndarray]:
    """Layer ``m`` for ``m = 0..bits``: the ids below ``2**bits`` with ``m``
    set bits, ascending."""
    below = [np.zeros(1, dtype=np.int64)] * (bits + 1)  # below[b]: layer m of the ids under 2**b
    for _ in range(bits + 1):
        yield below[bits]
        # layer m + 1 under 2**(b + 1) is layer m + 1 under 2**b, then layer
        # m under 2**b with bit b set
        grown = np.zeros(0, dtype=np.int64)
        for b in range(bits):
            below[b], grown = grown, np.concatenate((grown, below[b] | 1 << b))
        below[bits] = grown


_CHUNK = 1 << 15


def layer_scan_search(
    ts: TargetSet,
    n: int,
    budget: Optional[SearchBudget] = None,
    jobs: int = 1,
) -> SearchReport:
    """Exhaust the uniform-edge-size candidate space on ``n`` vertices.

    Candidates are visited layer by layer, fewest edges first, and by flat id
    ``mask_c << len(d_subsets) | mask_d`` within a layer; the report carries
    the first one-realization in that order, the number of candidates
    enumerated before stopping, and the fraction of them that are isomorphic
    duplicates of an earlier candidate.  Isomorphic candidates share a
    spectrum, so the first hit is also the first hit among class
    representatives.  ``jobs`` is accepted like elsewhere in the package, but
    the search runs vectorised in this process and starts no workers.
    """
    budget = budget or SearchBudget()
    if n < 1:
        raise ValueError("vertex count must be positive")
    if n > VERTEX_CAP:
        raise ValueError(f"n={n} exceeds the search cap of {VERTEX_CAP} vertices")

    c_subsets = edge_subsets(n, budget.c_edge_size)
    d_subsets = edge_subsets(n, budget.d_edge_size)
    nc, nd = len(c_subsets), len(d_subsets)
    total = 1 << (nc + nd)
    if total > budget.max_candidates:
        return SearchReport(Outcome.BUDGET_EXCEEDED, None, 0, 0.0)

    kill_c, kill_d, blocks = kill_tables(n, c_subsets, d_subsets)
    want = np.array([int(k in ts.values) for k in range(1, n + 1)])
    classes = subset_image_class_counts(n, c_subsets, d_subsets)
    before = 0  # candidates in the layers already scanned
    # a target above n needs more blocks than vertices: nothing can hit
    for m, layer in enumerate(_layers(nc + nd) if max(ts.values) <= n else ()):
        for at in range(0, len(layer), _CHUNK):
            flats = layer[at : at + _CHUNK]
            hits = np.flatnonzero((_spectra(kill_c, kill_d, blocks, flats, nd) == want).all(axis=1))
            if len(hits):
                pos = at + int(hits[0])
                examined = before + pos + 1
                flat = int(layer[pos])
                # isomorphic candidates have equal edge counts: every class of
                # the layers below is complete, keys split only this layer
                keys = per_permutation_keys(n, c_subsets, d_subsets, layer[: pos + 1])
                unique = sum(classes[:m]) + len(np.unique(keys))
                witness = hypergraph_from_masks(n, flat >> nd, flat & ((1 << nd) - 1), c_subsets, d_subsets)
                return SearchReport(Outcome.WITNESS_FOUND, witness, examined, (examined - unique) / examined)
        before += len(layer)
    return SearchReport(Outcome.EXHAUSTED, None, total, (total - sum(classes)) / total)


# The witness layer and the hit test as they were before the layer was cut
# from runs of the D-order and the hit test went one word at a time.


def per_count_layer_until(flat: int, nd: int) -> np.ndarray:
    """The ids with as many set bits as ``flat``, ascending, up to and
    including ``flat``: each C-mask ``id >> nd`` up to ``flat``'s, with the
    D-masks that bring it to that many, gathered per D edge count and sorted."""
    d_masks = np.arange(1 << nd)
    d_edges = np.bitwise_count(d_masks)
    below = flat.bit_count() - np.bitwise_count(np.arange((flat >> nd) + 1))
    layer = np.sort(np.concatenate(
        [(np.flatnonzero(below == j)[:, None] << nd | d_masks[d_edges == j]).ravel() for j in range(nd + 1)]
    ))
    return layer[: np.searchsorted(layer, flat) + 1]


def stacked_hits(kills: np.ndarray, kill_d: np.ndarray, blocks: np.ndarray, want: np.ndarray) -> np.ndarray:
    """``hits[i, mask_d]`` from one ``(i, mask_d, word)`` array of feasible
    partitions, reduced over its words."""
    feasible = ~(kills[:, None] | kill_d)
    hit = ~(feasible & np.bitwise_or.reduce(blocks[~want])).any(axis=2)
    for row in blocks[want]:
        hit &= np.bitwise_count(feasible & row).sum(axis=2, dtype=np.uint8) == 1
    return hit


def popcount_partition_masks(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``search._partition_masks(n)`` from a 2^n x Bell(n) table of the
    blocks each vertex subset meets in each partition, counted by popcount."""
    parts = _partition_rows(MixedHypergraph(n, [], []))
    words = -(-len(parts) // 64)

    def pack(bits: np.ndarray) -> np.ndarray:
        """``bits[j, i]`` for partition ``j`` as row ``i`` of packed words."""
        rows = np.zeros((bits.shape[1], 64 * words), dtype=bool)
        rows[:, : len(parts)] = bits.T
        return np.packbits(rows, axis=1, bitorder="little").view("<u8")

    # met[s, j]: the blocks of partition j that vertex subset s meets
    met = np.bitwise_count(_or_table(1 << parts.T.astype(np.int64)))
    size = np.bitwise_count(np.arange(1 << n))[:, None]
    rainbow, mono = pack((met == size).T), pack((met <= 1).T)
    blocks = pack(parts.max(axis=1)[:, None] + 1 == np.arange(1, n + 1))
    return parts, rainbow, mono, blocks


# --- the product of partition choices ----------------------------------------


def one_realization_by_choice(values: Sequence[int], n: int) -> Optional[MixedHypergraph]:
    """A one-realization of ``values`` on ``n`` vertices among all mixed
    hypergraphs, with edges of every size, or None when there is none.

    Tries every choice ``W0`` of one partition per value, with no prune and
    no symmetry.  ``H*(W0)`` has as C-edges the vertex sets of size at least
    2 that are rainbow in no chosen partition, and as D-edges those that are
    monochromatic in none.  A hypergraph that keeps ``W0`` feasible has its
    edges inside ``H*(W0)``, and edges only remove feasible partitions, so a
    one-realization exists exactly when the partitions some ``H*(W0)``
    leaves feasible are ``W0`` itself; that ``H*(W0)`` is returned.
    """
    if max(values) > n:
        return None
    parts, rainbow, mono, blocks = _partition_masks(n)

    def unpack(table: np.ndarray) -> np.ndarray:
        """``bits[s, j]``: bit ``j`` of row ``s`` as 0.0 or 1.0, one column per partition."""
        return np.unpackbits(table.view(np.uint8), axis=1, bitorder="little")[:, : len(parts)].astype(np.float32)

    edges = [s for s in range(1 << n) if s.bit_count() >= 2]  # vertex bitmasks
    rainbow, mono, blocks = unpack(rainbow)[edges], unpack(mono)[edges], unpack(blocks)
    choices = product(*(np.flatnonzero(blocks[k - 1]) for k in values))
    while chosen := list(islice(choices, 1024)):
        # c[s, i], d[s, i]: whether vertex set s is a C-edge, a D-edge of H*(chosen[i])
        c, d = (~table[:, chosen].any(axis=2) for table in (rainbow, mono))
        # killed[i, j]: whether an edge of H*(chosen[i]) kills partition j
        killed = c.T.astype(np.float32) @ rainbow + d.T.astype(np.float32) @ mono > 0
        exact = np.flatnonzero((~killed).sum(axis=1) == len(values))
        if exact.size:
            c_edges, d_edges = (
                [tuple(v for v in range(n) if s >> v & 1) for s, e in zip(edges, side[:, exact[0]]) if e]
                for side in (c, d)
            )
            return MixedHypergraph(n, c_edges, d_edges)
    return None
