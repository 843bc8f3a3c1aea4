"""Exhaustive strict-coloring enumeration, chromatic spectra, and gap queries.

Colorings are counted as partitions of the vertex set (color names do not
matter), encoded canonically as restricted-growth strings: vertex 0 is in
block 0 and every later vertex uses either an existing block index or the
next unused one.  Enumeration is depth-first over vertices in id order, so
results always come out in lexicographic restricted-growth order.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

from .core import MixedHypergraph

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
            top = max(top, b)

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


# --- search engine ---------------------------------------------------------
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
    visit: Callable[[list[int], int], None],
) -> None:
    """DFS over proper restricted-growth assignments extending ``prefix``.

    ``visit(colors, used)`` fires at ``depth`` (block indices valid up to
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
            visit(colors, used)
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
        _walk(plan, n, k, prefix, n, lambda colors, used: out.append(tuple(colors)))
    return out


def _count_shard(plan, n, prefixes) -> list[int]:
    counts = [0] * (n + 1)
    for prefix in prefixes:
        _walk(plan, n, None, prefix, n, lambda colors, used: counts.__setitem__(used, counts[used] + 1))
    return counts


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
        _walk(plan, n, k, (), depth, lambda colors, used: prefixes.append(tuple(colors[:depth])))
    return _chunk(prefixes, 4 * workers)


def _chunk(items: Sequence, pieces: int) -> list[Sequence]:
    pieces = max(1, min(pieces, len(items)))
    size, extra = divmod(len(items), pieces)
    chunks, at = [], 0
    for i in range(pieces):
        step = size + (1 if i < extra else 0)
        chunks.append(items[at : at + step])
        at += step
    return chunks


# --- process pool -----------------------------------------------------------


def worker_count(jobs: int) -> int:
    """Processes worth starting for ``jobs``: at least one, at most the CPUs
    this process may run on."""
    if jobs <= 1:  # the common case skips the affinity query
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(jobs, cpus)


_worker_task: tuple = ()  # (fn, shared), set once in each pool worker


def _init_worker(fn, shared) -> None:
    global _worker_task
    _worker_task = (fn, shared)


def _run_shard(shard):
    fn, shared = _worker_task
    return fn(*shared, shard)


def map_shards(fn: Callable, shared: tuple, shards: Sequence, jobs: int) -> list:
    """``[fn(*shared, s) for s in shards]``, in shard order, over at most
    ``worker_count(jobs)`` processes.

    ``shared`` reaches each worker once, through the pool initializer; where
    fork is available it is inherited and never pickled.  ``fn`` must be a
    module-level function.
    """
    workers = min(worker_count(jobs), len(shards))
    if workers <= 1:
        return [fn(*shared, s) for s in shards]
    ctx = multiprocessing.get_context("fork" if "fork" in multiprocessing.get_all_start_methods() else None)
    with ProcessPoolExecutor(workers, mp_context=ctx, initializer=_init_worker, initargs=(fn, shared)) as ex:
        return list(ex.map(_run_shard, shards))


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
    """Count feasible partitions per block count; empty if uncolorable."""
    plan = _edge_plan(h)
    parts = map_shards(_count_shard, (plan, h.n), _prefix_shards(plan, h.n, None, jobs), jobs)
    counts = list(map(sum, zip(*parts)))
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
