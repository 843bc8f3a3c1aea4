"""Exhaustive strict-coloring enumeration, chromatic spectra, and gap queries.

Colorings are counted as partitions of the vertex set (color names do not
matter), encoded canonically as restricted-growth strings: vertex 0 is in
block 0 and every later vertex uses either an existing block index or the
next unused one.  Listing is depth-first over vertices in id order, so
results always come out in lexicographic restricted-growth order.  Counting
is a frontier dynamic programme that never visits a partition one by one.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .core import Edge, MixedHypergraph

FeasibleSet = tuple[int, ...]


@dataclass(frozen=True)
class Partition:
    """A partition of ``0..n-1`` in restricted-growth form."""

    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        a = tuple(self.assignment)
        object.__setattr__(self, "assignment", a)
        if not a:
            raise ValueError("partition of an empty vertex set")
        top = -1
        for v, b in enumerate(a):
            if not isinstance(b, int) or b < 0 or b > top + 1:
                raise ValueError(f"assignment {a} is not a restricted-growth string (vertex {v})")
            if b > top:
                top = b

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "Partition":
        """Canonicalize explicit blocks (any order) into a partition."""
        groups = [sorted(b) for b in blocks]
        if any(not g for g in groups):
            raise ValueError("blocks must be nonempty")
        groups.sort(key=lambda g: g[0])
        assignment: dict[int, int] = {}
        for i, g in enumerate(groups):
            for v in g:
                if v in assignment:
                    raise ValueError(f"vertex {v} appears in two blocks")
                assignment[v] = i
        n = len(assignment)
        if set(assignment) != set(range(n)):
            raise ValueError("blocks must cover exactly 0..n-1")
        return cls(tuple(assignment[v] for v in range(n)))

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks ordered by smallest member."""
        out: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for v, b in enumerate(self.assignment):
            out[b].append(v)
        return tuple(tuple(b) for b in out)

    @property
    def num_blocks(self) -> int:
        return max(self.assignment) + 1

    def __len__(self) -> int:
        return len(self.assignment)


@dataclass(frozen=True)
class Spectrum:
    """Counts of feasible partitions per block count.

    ``counts[k-1]`` is the number of feasible partitions with exactly ``k``
    blocks; trailing zeros are trimmed, so the length is the upper chromatic
    number.  An uncolorable hypergraph has the empty spectrum and undefined
    chromatic numbers (reported as ``None``).
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        c = tuple(self.counts)
        object.__setattr__(self, "counts", c)
        if any(x < 0 for x in c):
            raise ValueError("spectrum entries must be non-negative")
        if c and c[-1] == 0:
            raise ValueError("spectrum must not carry trailing zeros")

    @property
    def is_colorable(self) -> bool:
        return bool(self.counts)

    def entry(self, k: int) -> int:
        """Number of feasible partitions with exactly ``k`` blocks."""
        if k < 1:
            raise ValueError("block counts start at 1")
        return self.counts[k - 1] if k <= len(self.counts) else 0

    @property
    def lower_chromatic_number(self) -> Optional[int]:
        for k, c in enumerate(self.counts, start=1):
            if c:
                return k
        return None

    @property
    def upper_chromatic_number(self) -> Optional[int]:
        return len(self.counts) if self.counts else None

    def feasible_values(self) -> FeasibleSet:
        return tuple(k for k, c in enumerate(self.counts, start=1) if c)


def is_proper(h: MixedHypergraph, p: Partition) -> bool:
    """Every C-edge has a repeated block, no D-edge is monochromatic."""
    if len(p.assignment) != h.n:
        raise ValueError(f"partition covers {len(p.assignment)} vertices, hypergraph has {h.n}")
    a = p.assignment
    for e in h.c_edges:
        if len({a[v] for v in e}) == len(e):
            return False
    for e in h.d_edges:
        if len({a[v] for v in e}) == 1:
            return False
    return True


# --- listing: depth-first walk ---------------------------------------------
#
# Each edge is checked exactly when its highest vertex gets a block: at that
# moment all members are assigned, so a monochromatic D-edge or a rainbow
# C-edge kills the branch.  For exactly-k enumeration two more prunes apply:
# block indices stay below k, and a branch dies when the unassigned vertices
# cannot open enough new blocks to reach k.


def _edge_plan(h: MixedHypergraph) -> list[list[tuple[bool, tuple[int, ...]]]]:
    plan: list[list[tuple[bool, tuple[int, ...]]]] = [[] for _ in range(h.n)]
    for is_c, edges in ((True, h.c_edges), (False, h.d_edges)):
        for e in edges:
            plan[e[-1]].append((is_c, e))
    return plan


def _walk(
    plan: list[list[tuple[bool, tuple[int, ...]]]],
    n: int,
    k: Optional[int],
    prefix: tuple[int, ...],
    depth: int,
    visit: Callable[[list[int]], None],
) -> None:
    """DFS over proper restricted-growth assignments extending ``prefix``.

    ``visit(colors)`` fires at ``depth`` (block indices valid up to
    ``depth``).  With ``k`` set, branches that cannot hit exactly ``k`` blocks
    by vertex ``n`` are cut.
    """
    colors = list(prefix) + [-1] * (n - len(prefix))
    start = len(prefix)
    used0 = (max(prefix) + 1) if prefix else 0

    def rec(v: int, used: int) -> None:
        if k is not None and used + (n - v) < k:
            return
        if v == depth:
            visit(colors)
            return
        limit = used + 1 if (k is None or used < k) else used
        for b in range(limit):
            colors[v] = b
            ok = True
            for is_c, members in plan[v]:
                distinct = len({colors[w] for w in members})
                if (distinct == len(members)) if is_c else (distinct == 1):
                    ok = False
                    break
            if ok:
                rec(v + 1, used + (1 if b == used else 0))
        colors[v] = -1

    rec(start, used0)


def _list_shard(plan, n, k, prefixes) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for prefix in prefixes:
        _walk(plan, n, k, prefix, n, lambda colors: out.append(tuple(colors)))
    return out


def _prefix_shards(plan, n, k, jobs) -> list[list[tuple[int, ...]]]:
    """Contiguous runs of the lexicographic walk prefixes, about four per
    worker, so that the merged shard results equal a sequential walk."""
    workers = worker_count(jobs)
    if workers == 1:
        return [[()]]
    prefixes: list[tuple[int, ...]] = []
    depth = 0
    while depth < n and len(prefixes) < 4 * workers:
        depth += 1
        prefixes = []
        _walk(plan, n, k, (), depth, lambda colors: prefixes.append(tuple(colors[:depth])))
    # one empty shard when no prefix survives (an uncolorable hypergraph)
    pieces = max(1, min(4 * workers, len(prefixes)))
    size, extra = divmod(len(prefixes), pieces)
    bounds = [i * size + min(i, extra) for i in range(pieces + 1)]
    return [prefixes[a:b] for a, b in zip(bounds, bounds[1:])]


# --- counting: frontier dynamic programme ----------------------------------
#
# Vertices are placed one by one along an order.  The frontier is the placed
# vertices that still belong to an edge whose last vertex is unplaced.  A
# state is the partition restricted to the frontier, as a restricted-growth
# string over the frontier in placement order, plus ``k``, the blocks used so
# far; it maps to the number of proper partial partitions behind it.  A new
# vertex joins a block holding a frontier vertex, or one of the ``k - a``
# blocks holding none (``a`` frontier blocks; these blocks are alike for every
# edge still to close), or opens a new one.  Edges are checked when their
# last vertex is placed.  The cost grows with n times the number of frontier
# states, not with the number of feasible partitions.


def _steps(near: list[set[int]], order: Sequence[int]) -> tuple[list[int], list[int]]:
    """``step[u]``, the step of ``order`` that places ``u``, and ``leave[u]``,
    the step after which ``u`` leaves the frontier: the last of ``near[u]``."""
    step = [0] * len(order)
    for i, v in enumerate(order):
        step[v] = i
    return step, [max(map(step.__getitem__, vs)) for vs in near]


def _frontier_width(near: list[set[int]], order: Sequence[int]) -> tuple[int, int]:
    """Largest and total frontier size over the steps of ``order``."""
    delta = [0] * (len(order) + 1)
    for placed, left in zip(*_steps(near, order)):
        delta[placed] += 1
        delta[left] -= 1
    widths = list(accumulate(delta[:-1]))
    return max(widths), sum(widths)


def _greedy_order(near: list[set[int]]) -> list[int]:
    """Next is the unplaced vertex with the most placed neighbours, ties to
    the lowest id."""
    score = [0] * len(near)
    unplaced = list(range(len(near)))
    order = []
    while unplaced:
        v = max(unplaced, key=score.__getitem__)  # the first maximum: the lowest id
        unplaced.remove(v)
        order.append(v)
        for u in near[v]:
            score[u] += 1
    return order


def _neighbourhoods(h: MixedHypergraph) -> list[set[int]]:
    """Each vertex with every vertex it shares an edge with."""
    near = [{u} for u in range(h.n)]
    for e in h.c_edges + h.d_edges:
        for u in e:
            near[u].update(e)
    return near


def _count_order(near: list[set[int]]) -> list[int]:
    """Id order, or the greedy order where its frontier is narrower."""
    ids = list(range(len(near)))
    greedy = _greedy_order(near)
    return greedy if _frontier_width(near, greedy) < _frontier_width(near, ids) else ids


def _frontier_counts(h: MixedHypergraph, order: Sequence[int], near: list[set[int]]) -> list[int]:
    """``counts[k]``: the feasible partitions of ``h`` with ``k`` blocks, for
    ``k = 0..n``, by the frontier programme along ``order``; ``near`` is
    ``_neighbourhoods(h)``."""
    step, leave = _steps(near, order)
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


# --- process pool -----------------------------------------------------------


def worker_count(jobs: int) -> int:
    """Processes worth starting for ``jobs``: at least one, at most the CPUs
    this process may run on."""
    if jobs <= 1:  # the common case skips the affinity query
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(jobs, cpus)


def map_shards(fn: Callable, shared: tuple, shards: Sequence, jobs: int) -> list:
    """``[fn(*shared, s) for s in shards]``, in shard order, over at most
    ``worker_count(jobs)`` processes.

    ``fn`` and ``shared`` are pickled with every shard, so both must be small
    and ``fn`` a module-level function.  Workers are forked where the platform
    allows it, which spares each one the package import.
    """
    workers = min(worker_count(jobs), len(shards))
    if workers <= 1:
        return [fn(*shared, s) for s in shards]
    ctx = multiprocessing.get_context("fork" if "fork" in multiprocessing.get_all_start_methods() else None)
    with ProcessPoolExecutor(workers, mp_context=ctx) as ex:
        return list(ex.map(partial(fn, *shared), shards))


# --- public operations ------------------------------------------------------


def _partitions(h: MixedHypergraph, k: Optional[int], jobs: int) -> list[Partition]:
    plan = _edge_plan(h)
    parts = map_shards(_list_shard, (plan, h.n, k), _prefix_shards(plan, h.n, k, jobs), jobs)
    return [Partition(a) for part in parts for a in part]


def enumerate_strict(h: MixedHypergraph, k: int, jobs: int = 1) -> list[Partition]:
    """All feasible partitions of ``h`` into exactly ``k`` blocks, in
    lexicographic restricted-growth order."""
    if not 1 <= k <= h.n:
        raise ValueError(f"k={k} out of range 1..{h.n}")
    return _partitions(h, k, jobs)


def all_feasible_partitions(h: MixedHypergraph, jobs: int = 1) -> list[Partition]:
    """Every feasible partition of ``h`` (any block count), in lexicographic
    restricted-growth order."""
    return _partitions(h, None, jobs)


def chromatic_spectrum(h: MixedHypergraph, jobs: int = 1) -> Spectrum:
    """Count feasible partitions per block count; empty if uncolorable.

    ``jobs`` is accepted like elsewhere in the package; counting runs in this
    process and starts no workers."""
    near = _neighbourhoods(h)
    counts = _frontier_counts(h, _count_order(near), near)
    top = 0
    for k in range(h.n, 0, -1):
        if counts[k]:
            top = k
            break
    return Spectrum(tuple(counts[1 : top + 1]))


def feasible_set(h: MixedHypergraph, jobs: int = 1) -> FeasibleSet:
    """The sorted set of block counts that admit a feasible partition."""
    return chromatic_spectrum(h, jobs=jobs).feasible_values()


def has_gap_at(values: Iterable[int], k: int) -> bool:
    """True when the set has members on both sides of ``k`` but not ``k``."""
    vs = set(values)
    return bool(vs) and min(vs) < k < max(vs) and k not in vs


def is_gap_free(values: Iterable[int]) -> bool:
    """True when the set is an interval of integers (empty counts as gap-free)."""
    vs = set(values)
    return not vs or max(vs) - min(vs) + 1 == len(vs)


def gaps(values: Iterable[int]) -> tuple[int, ...]:
    """All interior values missing from the set, ascending."""
    vs = set(values)
    if not vs:
        return ()
    return tuple(k for k in range(min(vs) + 1, max(vs)) if k not in vs)
