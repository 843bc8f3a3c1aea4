"""Exhaustive strict-coloring enumeration, chromatic spectra, and gap queries.

Colorings are counted as partitions of the vertex set (color names do not
matter), encoded canonically as restricted-growth strings: vertex 0 is in
block 0 and every later vertex uses either an existing block index or the
next unused one.  Listing is level by level in vertex id order, one
vectorised step per vertex over all partial partitions at once, so results
always come out in lexicographic restricted-growth order; at each vertex the
edges it closes are tested by group (one kind and size), each group on every
row at once.  The listed ``Partition`` objects are built in bulk from the
checked rows, with the process's cyclic garbage collector paused while they
are made (re-enabled afterwards only if it was enabled; a thread that runs
meanwhile runs with it paused too).  Counting is a frontier dynamic programme
along one greedy vertex order, and never visits a partition one by one; it
has quick rules for D-pairs and C-triples, the edges of the paper's
constructions, and one general rule per kind for every other edge.  Every
operation runs in this process: ``jobs`` is accepted, ignored, and starts no
workers.
"""

from __future__ import annotations

import gc
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import MixedHypergraph, _slices

FeasibleSet = tuple[int, ...]

# the most partitions ``spectrum --list-colorings`` lists; the library's own
# listing functions take no cap
LIST_CAP = 1 << 22


@dataclass(frozen=True, slots=True)
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
            if type(b) is not int or b < 0 or b > top + 1:
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
                if type(v) is not int:
                    raise ValueError(f"vertex {v!r} is not an integer")
                if v in assignment:
                    raise ValueError(f"vertex {v} appears in two blocks")
                assignment[v] = i
        n = len(assignment)
        if set(assignment) != set(range(n)):
            raise ValueError("blocks must cover exactly 0..n-1")
        return cls(tuple(assignment[v] for v in range(n)))

    @classmethod
    def _from_rows(cls, rows: np.ndarray) -> list["Partition"]:
        """One partition per row of a 2-D integer array.

        The array is checked once, column by column against each row's
        running maximum, by the rule ``__post_init__`` applies to one
        assignment; only then are the objects built without that check.  A
        bad row raises the error ``Partition(row)`` raises.
        """
        bad = np.zeros(len(rows), dtype=bool)
        top = np.full(len(rows), -1, dtype=rows.dtype)  # the running maximum of each row
        for col in rows.T:
            bad |= (col < 0) | (col > top + 1)
            np.maximum(top, col, out=top)
        if bad.any():
            cls(tuple(rows[bad.argmax()].tolist()))  # raises the error of the first bad row
        del bad, top  # building the objects is the peak of listing's memory
        # the new objects hold only ints and form no cycles, so a collection
        # while they are made would walk the heap and free nothing
        enabled = gc.isenabled()
        gc.disable()
        try:
            out = list(map(object.__new__, repeat(cls, len(rows))))
            # by columns: far fewer list objects
            deque(map(cls.assignment.__set__, out, zip(*rows.T.tolist())), maxlen=0)
        finally:
            if enabled:
                gc.enable()
        return out

    @property
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


# --- listing: level by level ----------------------------------------------
#
# The partial partitions of vertices 0..v-1 are the rows of one array, in
# lexicographic order.  Vertex v extends each row by every block it may take:
# an old block or the next unused one, and below k when k is set.  Each edge
# is filed once, under its last vertex, in a group of edges of one kind and
# size; at v each group is tested on all rows at once, from one gather per
# member position (edges x rows).  A C-edge whose other members are rainbow
# forces v into one of their blocks, a D-edge whose other members share a
# block keeps v out of it.  The children of a row come out in block order, so
# the rows stay lexicographic without a sort.


def _partition_rows(h: MixedHypergraph, k: Optional[int] = None) -> np.ndarray:
    """Every feasible partition of ``h`` (with exactly ``k`` blocks when
    ``k`` is set) as one restricted-growth row, in lexicographic order."""
    n = h.n
    # each edge once, under its last vertex, grouped by kind and number of
    # other members: a group is tested on all rows at once
    closing: list[dict[tuple[bool, int], list[tuple[int, ...]]]] = [defaultdict(list) for _ in range(n)]
    for is_c, edges in ((True, h.c_edges), (False, h.d_edges)):
        for e in edges:
            closing[e[-1]][is_c, len(e) - 1].append(e[:-1])
    rows = np.zeros((1, n), dtype=np.int16)  # full width: a level gathers its parents' rows and sets column v
    used = np.ones(1, dtype=np.int16)  # blocks used by each row
    for v in range(1, n):
        blocks = np.arange(min(v + 1, n if k is None else k), dtype=np.int16)
        allowed = blocks <= used[:, None]
        for (is_c, _), group in closing[v].items():
            for part in _slices(len(group), allowed.nbytes):  # edges x allowed within WORKING_BYTES
                # edges x rows: the block of each edge's i-th other member
                members = [rows[:, list(col)].T for col in zip(*group[part])]
                first = members[0]
                if is_c:  # a block is spared where it repeats a member or the edge is not rainbow
                    spared = first[:, :, None] == blocks
                    for i, m in enumerate(members[1:], start=1):
                        spared |= m[:, :, None] == blocks
                        for earlier in members[:i]:
                            spared |= (m == earlier)[:, :, None]
                    allowed &= spared.all(axis=0)
                else:  # the first member's block is barred where every member shares it
                    barred = first[:, :, None] == blocks
                    for m in members[1:]:
                        barred &= (m == first)[:, :, None]
                    allowed &= ~barred.any(axis=0)
        parent, b = np.nonzero(allowed)
        rows = rows[parent]
        rows[:, v] = b
        used = used[parent]
        used += b == used
        if k is not None:  # the vertices left can open at most one block each
            live = used + (n - 1 - v) >= k
            rows, used = rows[live], used[live]
    return rows


# --- counting: frontier dynamic programme ----------------------------------
#
# Vertices are placed one by one along the greedy order of ``_greedy_order``,
# which keeps the frontier narrow on sparse instances and is id order when
# every vertex shares an edge with every other.  The frontier is the placed
# vertices that still belong to an edge whose last vertex is unplaced.  A
# state is the partition restricted to the frontier, as a restricted-growth
# string over the frontier in placement order, plus ``k``, the blocks used so
# far; it maps to the number of proper partial partitions behind it.  A new
# vertex joins a block holding a frontier vertex, or one of the ``k - a``
# blocks holding none (``a`` frontier blocks; these blocks are alike for every
# edge still to close), or opens a new one.  Edges are checked when their
# last vertex is placed: one pass over the edges files each under that step,
# with its other members, and a state's blocks the new vertex may join are
# the bits of one int.  The cost grows with n times the number of frontier
# states, not with the number of feasible partitions.


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


def _frontier_counts(h: MixedHypergraph, order: Sequence[int], near: list[set[int]]) -> list[int]:
    """``counts[k]``: the feasible partitions of ``h`` with ``k`` blocks, for
    ``k = 0..n``, by the frontier programme along ``order``; ``near`` is
    ``_neighbourhoods(h)``."""
    n = len(order)
    step = [0] * n
    for i, v in enumerate(order):
        step[v] = i
    # from here on a vertex goes by its step; ``leave[i]``: the step after
    # which step i's vertex leaves the frontier, its last neighbour's
    leave = [max(map(step.__getitem__, near[v])) for v in order]
    # one pass over the edges: each goes to the step that places its last
    # member, as the steps of its other members
    c_closing: list[list[Sequence[int]]] = [[] for _ in range(n)]
    d_closing: list[list[Sequence[int]]] = [[] for _ in range(n)]
    # along id order an edge's members are its steps, ascending; every paper
    # construction (a complete primal graph) is counted along id order
    in_id_order = step == list(range(n))
    for closing, edges in ((c_closing, h.c_edges), (d_closing, h.d_edges)):
        for e in edges:
            if in_id_order:
                closing[e[-1]].append(e[:-1])
            else:
                others = sorted(map(step.__getitem__, e))
                closing[others.pop()].append(others)
    states: dict[tuple[tuple[int, ...], int], int] = {((), 0): 1}
    frontier: list[int] = []  # the open steps, in order
    slot = list(range(n))  # each open step's position in the frontier labels
    for i in range(n):
        # a D-pair names one block the new vertex must avoid, a C-triple two
        # blocks compared with each other (the paper's shapes); any other edge
        # is tested on the set of its other members' blocks
        whole = len(frontier) == i  # every earlier step is open: slots are steps
        c_pairs, c_longer = [], []
        for others in c_closing[i]:
            js = others if whole else [slot[t] for t in others]
            (c_pairs if len(js) == 2 else c_longer).append(js)
        differ, d_longer = [], []
        for others in d_closing[i]:
            js = others if whole else [slot[t] for t in others]
            (differ if len(js) == 1 else d_longer).append(js)
        kept = [j for j, t in enumerate(frontier) if leave[t] > i]
        drops = len(kept) < len(frontier)
        stays = leave[i] > i
        if drops:
            frontier = [frontier[j] for j in kept]
            for j, t in enumerate(frontier):
                slot[t] = j
        if stays:
            slot[i] = len(frontier)
            frontier.append(i)
        nxt: dict[tuple[tuple[int, ...], int], int] = defaultdict(int)
        for (labels, k), count in states.items():
            a = max(labels, default=-1) + 1
            allowed = (1 << a) - 1  # bit x: the new vertex may join frontier block x
            for (j,) in differ:
                allowed &= ~(1 << labels[j])
            fresh = True  # whether it may take a block without frontier vertices
            for j, l in c_pairs:
                x, y = labels[j], labels[l]
                if x != y:  # rainbow so far: the new vertex must repeat one
                    allowed &= 1 << x | 1 << y
                    fresh = False
            for js in c_longer:
                seen = {labels[j] for j in js}
                if len(seen) == len(js):
                    allowed &= sum(1 << x for x in seen)
                    fresh = False
            for js in d_longer:
                seen = {labels[j] for j in js}
                if len(seen) == 1:
                    allowed &= ~(1 << seen.pop())
            base, new = labels, a  # the frontier labels after the step, the next unused label
            if drops:  # renumber by first occurrence
                first: dict[int, int] = {}
                base = tuple([first.setdefault(labels[j], len(first)) for j in kept])
                new = len(first)
            if not stays:  # the new vertex is forgotten: every block it may join leads to one state
                ways = allowed.bit_count() + (k - a if fresh else 0)
                if ways:
                    nxt[base, k] += count * ways
                if fresh:
                    nxt[base, k + 1] += count
                continue
            while allowed:  # the set bits, lowest first
                low = allowed & -allowed
                allowed ^= low
                x = low.bit_length() - 1
                # a block whose frontier vertices all left takes the next unused label
                nxt[base + (first.get(x, new) if drops else x,), k] += count
            if fresh:
                if k > a:
                    nxt[base + (new,), k] += count * (k - a)
                nxt[base + (new,), k + 1] += count
        states = nxt
    counts = [0] * (h.n + 1)
    for (_, k), count in states.items():
        counts[k] = count
    return counts


# --- public operations ------------------------------------------------------


def _partitions(h: MixedHypergraph, k: Optional[int]) -> list[Partition]:
    return Partition._from_rows(_partition_rows(h, k))


def enumerate_strict(h: MixedHypergraph, k: int, jobs: int = 1) -> list[Partition]:
    """All feasible partitions of ``h`` into exactly ``k`` blocks, in
    lexicographic restricted-growth order."""
    if not 1 <= k <= h.n:
        raise ValueError(f"k={k} out of range 1..{h.n}")
    return _partitions(h, k)


def all_feasible_partitions(h: MixedHypergraph, jobs: int = 1) -> list[Partition]:
    """Every feasible partition of ``h`` (any block count), in lexicographic
    restricted-growth order."""
    return _partitions(h, None)


def chromatic_spectrum(h: MixedHypergraph, jobs: int = 1) -> Spectrum:
    """Count feasible partitions per block count; empty if uncolorable.

    ``jobs`` is accepted like elsewhere in the package; counting runs in this
    process and starts no workers."""
    near = _neighbourhoods(h)
    counts = _frontier_counts(h, _greedy_order(near), near)[1:]
    while counts and not counts[-1]:
        counts.pop()
    return Spectrum(tuple(counts))


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
