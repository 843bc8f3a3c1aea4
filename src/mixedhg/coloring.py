"""Feasible partitions of mixed hypergraphs: listing, chromatic spectra, gaps.

Colorings are counted as partitions of the vertex set (color names do not
matter), encoded as restricted-growth strings: vertex 0 is in block 0 and
every later vertex takes an existing block or the next unused one.

- ``enumerate_strict`` and ``all_feasible_partitions`` list partitions in
  lexicographic restricted-growth order and take no cap; the CLI's listing
  stops at ``LIST_CAP``.
- ``chromatic_spectrum`` and ``feasible_set`` count without listing, by a
  frontier programme in the spirit of the splitting-contraction recurrence
  of Voloshin, *Coloring Mixed Hypergraphs* (AMS, 2002).
- While a listing builds its ``Partition`` objects, the cyclic garbage
  collector is paused for the whole process and re-enabled afterwards, also
  on an error, only if it was enabled: another thread's allocations go
  uncollected for those milliseconds, and a thread that switches the
  collector meanwhile may find its setting undone.
- Everything runs in this process: ``all_feasible_partitions`` and
  ``chromatic_spectrum`` accept ``jobs``, ignore it, and start no workers.
"""

from __future__ import annotations

import gc
import struct
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import combinations, groupby, repeat
from operator import add, mul
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import MixedHypergraph, _columns, _quote, _slices

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
                raise ValueError(f"assignment {_quote(a)} is not a restricted-growth string (vertex {v})")
            if b > top:
                top = b

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "Partition":
        """Canonicalize explicit blocks (any order) into a partition."""
        groups = [list(b) for b in blocks]  # unsorted: a string or None does not compare with an int
        if any(not g for g in groups):
            raise ValueError("blocks must be nonempty")
        assignment: dict[int, int] = {}
        for i, g in enumerate(groups):
            for v in g:
                if type(v) is not int:
                    raise ValueError(f"vertex {_quote(v)} is not an integer")
                if v in assignment:
                    raise ValueError(f"vertex {v} appears in two blocks")
                assignment[v] = i
        n = len(assignment)
        if set(assignment) != set(range(n)):
            raise ValueError("blocks must cover exactly 0..n-1")
        number: dict[int, int] = {}  # each block's number, in the order of its smallest vertex
        return cls(tuple(number.setdefault(assignment[v], len(number)) for v in range(n)))

    @classmethod
    def _from_rows(cls, rows: np.ndarray) -> list["Partition"]:
        """One partition per row of a 2-D integer array.

        The array is checked once, column by column against each row's
        running maximum, by the rule ``__post_init__`` applies to one
        assignment; only then are the objects built without that check.  A
        bad row raises the error ``Partition(row)`` raises.
        """
        rows = rows.astype(rows.dtype.newbyteorder("="), copy=False)  # struct reads native order
        bad = np.zeros(len(rows), dtype=bool)
        top = np.full(len(rows), -1, dtype=rows.dtype)  # the running maximum of each row
        for col in np.ascontiguousarray(rows.T):  # contiguous columns: a strided pass is about 2x slower
            bad |= (col < 0) | (col > top + 1)
            np.maximum(top, col, out=top)
        if bad.any():
            cls(tuple(rows[bad.argmax()].tolist()))  # raises the error of the first bad row
        del bad, top  # building the objects is the peak of listing's memory
        row = struct.Struct(f"{rows.shape[1]}{rows.dtype.char}")  # one row's bytes as its assignment tuple
        # the new objects hold only ints and form no cycles, so a collection
        # while they are made would walk the heap and free nothing
        enabled = gc.isenabled()
        gc.disable()
        try:
            out = list(map(object.__new__, repeat(cls, len(rows))))
            deque(map(cls.assignment.__set__, out, row.iter_unpack(rows.tobytes())), maxlen=0)
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
        for x in c:
            if type(x) is not int:
                raise ValueError(f"spectrum entries must be ints, got {_quote(x)}")
            if x < 0:
                raise ValueError("spectrum entries must be non-negative")
        if c and c[-1] == 0:
            raise ValueError("spectrum must not carry trailing zeros")

    @property
    def is_colorable(self) -> bool:
        return bool(self.counts)

    def entry(self, k: int) -> int:
        """Number of feasible partitions with exactly ``k`` blocks."""
        if type(k) is not int:
            raise ValueError(f"block count must be an int, got {_quote(k)}")
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
# an old block or the next unused one, and below k when k is set.  These are
# the true entries of one flat boolean array, ``row << shift | block``, each
# row padded to a power of two of entries and taken from one table row per
# count of blocks used, so that one ``np.flatnonzero`` and a shift and a
# mask give every child's parent and block.  Each edge is
# filed once, under its last vertex, in a group of edges of one kind and
# size; at v a group gathers its members' blocks once (edges x rows) and
# writes into the flat array: a D-edge whose other members share a block
# clears that block's entry, one scatter for the group, and a C-edge whose
# other members are rainbow keeps only their blocks, touching only its
# rainbow rows.  The children of a row come out in block order, so the rows
# stay lexicographic without a sort.


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
        width = min(v + 1, n if k is None else k)
        shift = (width - 1).bit_length()  # a row's entries: the power of two 1 << shift >= width
        pos = np.flatnonzero(_allowed_blocks(rows, used, width, shift, closing[v]))
        b = pos & ((1 << shift) - 1)
        parent = np.right_shift(pos, shift, out=pos)  # in place: two arrays of children, not three
        rows = rows.take(parent, axis=0)  # take: fancy indexing is about 3x slower
        rows[:, v] = b
        used = used.take(parent)
        used += b == used
        if k is not None:  # the vertices left can open at most one block each
            live = used + (n - 1 - v) >= k
            rows, used = rows[live], used[live]
    return rows


def _allowed_blocks(
    rows: np.ndarray, used: np.ndarray, width: int, shift: int, groups: dict[tuple[bool, int], list[tuple[int, ...]]]
) -> np.ndarray:
    """The blocks each row may give the next vertex: entry
    ``row << shift | block`` of one flat boolean array, after the closing
    ``groups`` of edges (by kind and number of other members) are tested."""
    # a row with u blocks used may take blocks 0..u, none at or past k: one
    # table row per value of u, taken (about 8x faster than comparing each row)
    grid = (np.arange(1 << shift) <= np.arange(width + 1).clip(max=width - 1)[:, None]).take(used, axis=0)
    allowed = grid.reshape(-1)
    # each row's entries as one item: clearing rows is a 1-D assignment,
    # about 5x faster than clearing rows of the 2-D array
    items = grid.view(f"V{1 << shift}").reshape(-1)
    starts = np.arange(0, len(rows) << shift, 1 << shift)  # each row's first entry
    for (is_c, _), group in groups.items():
        for part in _slices(len(group), 8 * len(rows)):  # edges x rows int64 entries within WORKING_BYTES
            # edges x rows: the block of each edge's i-th other member
            members = [rows[:, list(col)].T for col in zip(*group[part])]
            if is_c:  # a rainbow row keeps only its members' blocks
                rainbow = np.ones(members[0].shape, dtype=bool)
                for i, m in enumerate(members):
                    for earlier in members[:i]:
                        rainbow &= m != earlier
                for e, edge_rainbow in enumerate(rainbow):
                    hit = np.flatnonzero(edge_rainbow)
                    entries = [(hit << shift) + m[e, hit] for m in members]
                    kept = [allowed[x] for x in entries]
                    items[hit] = np.zeros((), items.dtype)
                    for x, keep in zip(entries, kept):
                        allowed[x] = keep
            else:  # the first member's block is cleared where every member shares it
                entries = members[0] + starts
                if len(members) > 1:  # a D-pair's one other member always does
                    entries = entries[np.logical_and.reduce([m == members[0] for m in members[1:]])]
                allowed[entries] = False
    return allowed


# --- counting: frontier dynamic programme ----------------------------------
#
# Vertices are placed one by one along one order.  One pass over the edges
# collects the vertex pairs that share an edge: when every pair does (a
# complete primal graph, as in 627 of the 1,012 paper constructions) the
# order is id order, else it is the greedy order of ``_greedy_order``, which
# keeps the frontier narrow on sparse instances.  The frontier is the placed
# vertices that still belong to an edge whose last vertex is unplaced; a
# vertex leaves it after the step of its last neighbour, which is the last
# step for every vertex of a complete primal graph.  A state is the partition
# restricted to the frontier, as a restricted-growth string over the
# frontier in placement order, with ``a``, its number of blocks, and ``k``,
# the blocks used so far; it maps to the number of proper partial partitions
# behind it.  A new vertex joins a block holding a frontier vertex, or one of
# the ``k - a`` blocks holding none (these blocks are alike for every edge
# still to close), or opens a new one.  Edges are checked when their last
# vertex is placed: one pass over the edges files each under that step by
# shape, and a state's blocks the new vertex may join are the bits of one
# int.  Only a step at which some frontier vertex leaves renumbers the
# states.  The cost grows with n times the number of frontier states, not
# with the number of feasible partitions.


def _greedy_order(near: list[list[int]]) -> list[int]:
    """Next is the unplaced vertex with the most placed neighbours, ties to
    the lowest id, so on a complete primal graph it is id order."""
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


def _counting_plan(h: MixedHypergraph) -> tuple[list[int], list[int]]:
    """The order counting places the vertices in, and ``leave``: for each
    step, the step after which its vertex leaves the frontier, that of its
    last neighbour (or its own)."""
    n = h.n
    # the vertex pairs u < v that share an edge, as the ints u * n + v, from
    # the columns of each edge length
    pairs: set[int] = set()
    for size, group in groupby(sorted(h.c_edges + h.d_edges, key=len), len):
        for first, second in combinations(_columns(list(group), size), 2):
            pairs.update(map(add, map(mul, first, repeat(n)), second))
    if len(pairs) == n * (n - 1) // 2:  # every vertex shares an edge with every other
        return list(range(n)), [n - 1] * n
    near = [[v] for v in range(n)]
    for u, v in map(divmod, pairs, repeat(n)):
        near[u].append(v)
        near[v].append(u)
    order = _greedy_order(near)
    step = [0] * n
    for i, v in enumerate(order):
        step[v] = i
    return order, [max(map(step.__getitem__, near[v])) for v in order]


def _frontier_counts(h: MixedHypergraph, order: Sequence[int], leave: Sequence[int]) -> list[int]:
    """``counts[k]``: the feasible partitions of ``h`` with ``k`` blocks, for
    ``k = 0..n``, by the frontier programme along ``order``; ``leave[i]`` is
    the step after which step i's vertex leaves the frontier, at least ``i``
    and at least the step of every vertex it shares an edge with."""
    n = len(order)
    step = [0] * n
    for i, v in enumerate(order):
        step[v] = i
    # one pass over the edges: each goes to the step that places its last
    # member, by shape.  A D-pair is the step of its other member, a C-triple
    # (the paper's shapes) the steps of all its members, so that along id
    # order no tuple is cut per edge, and any other edge the steps of its
    # other members.  Along id order an edge's members are its steps,
    # ascending; every paper construction with a complete primal graph is
    # counted along id order
    in_id_order = step == list(range(n))
    differ: list[list[int]] = [[] for _ in range(n)]
    c_triples: list[list[Sequence[int]]] = [[] for _ in range(n)]
    c_longer: list[list[Sequence[int]]] = [[] for _ in range(n)]
    d_longer: list[list[Sequence[int]]] = [[] for _ in range(n)]
    for e in h.d_edges:
        members = e if in_id_order else sorted(map(step.__getitem__, e))
        if len(members) == 2:
            differ[members[1]].append(members[0])
        else:
            d_longer[members[-1]].append(members[:-1])
    for e in h.c_edges:
        members = e if in_id_order else sorted(map(step.__getitem__, e))
        if len(members) == 3:
            c_triples[members[2]].append(members)
        else:
            c_longer[members[-1]].append(members[:-1])
    departs = [0] * n  # departs[i]: the frontier vertices that leave at step i
    for i, last in enumerate(leave):
        if last > i:
            departs[last] += 1
    states: dict[tuple[tuple[int, ...], int, int], int] = {((), 0, 0): 1}
    frontier: list[int] = []  # the open steps, in order
    slot = list(range(n))  # each open step's position in the frontier labels
    for i in range(n):
        # a D-pair names one block the new vertex must avoid, a C-triple two
        # blocks compared with each other; any other edge is tested on the
        # set of its other members' blocks
        bars, triples, c_sets, d_sets = differ[i], c_triples[i], c_longer[i], d_longer[i]
        if len(frontier) < i:  # some earlier step is closed: map steps to slots
            bars = [slot[t] for t in bars]
            triples = [(slot[j], slot[l], i) for j, l, _ in triples]
            c_sets = [[slot[t] for t in js] for js in c_sets]
            d_sets = [[slot[t] for t in js] for js in d_sets]
        drops = departs[i] > 0
        stays = leave[i] > i
        if drops:
            kept = [j for j, t in enumerate(frontier) if leave[t] > i]
            frontier = [frontier[j] for j in kept]
            for j, t in enumerate(frontier):
                slot[t] = j
        if stays:
            slot[i] = len(frontier)
            frontier.append(i)
        nxt: dict[tuple[tuple[int, ...], int, int], int] = defaultdict(int)
        for (labels, a, k), count in states.items():
            allowed = (1 << a) - 1  # bit x: the new vertex may join frontier block x
            for j in bars:
                allowed &= ~(1 << labels[j])
            fresh = True  # whether it may take a block without frontier vertices
            for j, l, _ in triples:
                x, y = labels[j], labels[l]
                if x != y:  # rainbow so far: the new vertex must repeat one
                    allowed &= 1 << x | 1 << y
                    fresh = False
            for js in c_sets:
                seen = {labels[j] for j in js}
                if len(seen) == len(js):
                    allowed &= sum(1 << x for x in seen)
                    fresh = False
            for js in d_sets:
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
                    nxt[base, new, k] += count * ways
                if fresh:
                    nxt[base, new, k + 1] += count
                continue
            while allowed:  # the set bits, lowest first
                low = allowed & -allowed
                allowed ^= low
                x = low.bit_length() - 1
                # a block whose frontier vertices all left takes the next unused label
                if drops:
                    x = first.get(x, new)
                nxt[base + (x,), new + (x == new), k] += count
            if fresh:
                if k > a:
                    nxt[base + (new,), new + 1, k] += count * (k - a)
                nxt[base + (new,), new + 1, k + 1] += count
        states = nxt
    counts = [0] * (h.n + 1)
    for (_, _, k), count in states.items():
        counts[k] = count
    return counts


# --- public operations ------------------------------------------------------


def enumerate_strict(h: MixedHypergraph, k: int) -> list[Partition]:
    """All feasible partitions of ``h`` into exactly ``k`` blocks, in
    lexicographic restricted-growth order."""
    if type(k) is not int:
        raise ValueError(f"k must be an int, got {_quote(k)}")
    if not 1 <= k <= h.n:
        raise ValueError(f"k={k} out of range 1..{h.n}")
    return Partition._from_rows(_partition_rows(h, k))


def all_feasible_partitions(h: MixedHypergraph, jobs: int = 1) -> list[Partition]:
    """Every feasible partition of ``h`` (any block count), in lexicographic
    restricted-growth order."""
    return Partition._from_rows(_partition_rows(h))


def chromatic_spectrum(h: MixedHypergraph, jobs: int = 1) -> Spectrum:
    """Count feasible partitions per block count; empty if uncolorable.

    ``jobs`` is accepted like elsewhere in the package; counting runs in this
    process and starts no workers."""
    counts = _frontier_counts(h, *_counting_plan(h))[1:]
    while counts and not counts[-1]:
        counts.pop()
    return Spectrum(tuple(counts))


def feasible_set(h: MixedHypergraph) -> FeasibleSet:
    """The sorted set of block counts that admit a feasible partition."""
    return chromatic_spectrum(h).feasible_values()


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
