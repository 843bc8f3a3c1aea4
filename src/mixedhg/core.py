"""Immutable mixed hypergraphs: validation, derived sub-hypergraphs, isomorphism."""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, combinations, groupby, pairwise, starmap
from operator import itemgetter, lt
from typing import Iterable, Iterator, Optional

import numpy as np

Edge = tuple[int, ...]
Label = tuple[int, ...]

# The exhaustive isomorphism backtracking is exact but only sized for small
# instances; everything this package generates stays well below the cap.
ISO_VERTEX_CAP = 12
# the most bytes of UTF-8 an error message quotes of one input value
QUOTE_BYTES = 64
# the most bytes of one working array in every chunked numpy pass (8 MiB)
WORKING_BYTES = 1 << 23


def _cut(text: str, limit: int) -> str:
    """``text`` cut to ``limit`` bytes of UTF-8 with ``...`` marking the cut."""
    data = text.encode()
    return text if len(data) <= limit else data[: limit - 3].decode(errors="ignore") + "..."


def _quote(value: object) -> str:
    """``repr(value)``, cut to ``QUOTE_BYTES`` bytes, so an error message
    stays short whatever input it quotes."""
    return _cut(repr(value), QUOTE_BYTES)


def _slices(length: int, item_bytes: int) -> Iterator[slice]:
    """Consecutive slices covering ``range(length)``, each of at most
    ``WORKING_BYTES // item_bytes`` items and at least one."""
    step = max(1, WORKING_BYTES // max(1, item_bytes))
    return (slice(at, min(at + step, length)) for at in range(0, length, step))


def _packed(bits: np.ndarray) -> np.ndarray:
    """``bits`` packed along the last axis into little-endian 64-bit words:
    bit ``j % 64`` of word ``j // 64`` is ``bits[..., j]``, zero past the end.
    The bytes are copied into zeros, as ``np.pad`` costs more than packing."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    width = packed.shape[-1]
    words = np.zeros(packed.shape[:-1] + (width + -width % 8,), dtype=np.uint8)
    words[..., :width] = packed
    return words.view("<u8")


def _columns(rows: list[Edge], width: int) -> list[list[int]]:
    """The columns of rows of one length ``width``: ``zip(*rows)``, but with
    no iterator object made per row, whose allocations would set off the
    cyclic garbage collector on a large family."""
    return [list(map(itemgetter(x), rows)) for x in range(width)]


def _first_bad_edge(rows: list[tuple], n: int, kind: str) -> Optional[str]:
    """The error of the first edge in ``rows`` with a vertex that is not an
    int in ``0..n-1`` or with fewer than two distinct vertices, if any."""
    for raw in rows:
        for v in raw:
            if type(v) is not int or not 0 <= v < n:
                return f"{kind}-edge {_quote(list(raw))}: vertex {_quote(v)} out of range 0..{_quote(n - 1)}"
        members = sorted(set(raw))
        if len(members) < 2:
            return f"{kind}-edge {members}: an edge needs at least two vertices"
    return None


def _canonical_edges(edges: Iterable[Iterable[int]], n: int, kind: str) -> tuple[Edge, ...]:
    """Deduplicate, sort, and range-check an edge family.

    A family whose edges all have one length is checked by columns: exact
    ints (no bools), each edge strictly increasing from column to column, and
    the range from the first and last columns.  Any other family (mixed
    lengths, or an edge not yet sorted) has every vertex checked in bulk.  A
    family that is already canonical, each edge and the family strictly
    increasing, comes back as it is.  Only a family that fails a check is
    walked edge by edge, for its first error."""
    rows: list[tuple] = []
    try:
        rows.extend(map(tuple, edges))  # keeps the rows before a non-iterable edge
    except TypeError:  # the family or one of its edges is not iterable
        raise ValueError(_first_bad_edge(rows, n, kind) or f"{kind}-edges must be a list of vertex lists") from None
    widths = set(map(len, rows))
    if len(widths) == 1:  # one edge length: by columns
        cols = _columns(rows, widths.pop())
        if (
            len(cols) >= 2
            and set(map(type, chain.from_iterable(cols))) <= {int}
            and all(all(map(lt, a, b)) for a, b in pairwise(cols))
            and 0 <= min(cols[0])
            and max(cols[-1]) < n
        ):
            return tuple(rows if all(map(lt, rows, rows[1:])) else sorted(set(rows)))
    flat = list(chain.from_iterable(rows))
    if set(map(type, flat)) <= {int} and (not flat or 0 <= min(flat) and max(flat) < n):
        canonical = all(map(lt, rows, rows[1:])) and all(starmap(lt, chain.from_iterable(map(pairwise, rows))))
        out = rows if canonical else sorted({tuple(sorted(set(raw))) for raw in rows})
        if min(map(len, out), default=2) >= 2:
            return tuple(out)
    raise ValueError(_first_bad_edge(rows, n, kind))


@dataclass(frozen=True)
class MixedHypergraph:
    """A mixed hypergraph on vertices ``0..n-1``.

    Every ``c_edges`` member must contain two vertices of a common color in a
    proper coloring; every ``d_edges`` member must contain two vertices of
    distinct colors (no monochromatic D-edge).  Edge families have set
    semantics, the two families may overlap (bi-edges), and each edge has at
    least two vertices.  ``labels`` optionally attaches a distinct integer
    tuple to each vertex; labels ride along through vertex operations and are
    ignored by isomorphism.

    Instances are immutable after construction and safe to share between
    concurrent readers; all operations return new hypergraphs.
    """

    n: int
    c_edges: tuple[Edge, ...] = ()
    d_edges: tuple[Edge, ...] = ()
    labels: Optional[tuple[Label, ...]] = None

    def __post_init__(self) -> None:
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {_quote(self.n)}")
        object.__setattr__(self, "c_edges", _canonical_edges(self.c_edges, self.n, "C"))
        object.__setattr__(self, "d_edges", _canonical_edges(self.d_edges, self.n, "D"))
        if self.labels is not None:
            try:
                labs = tuple(map(tuple, self.labels))
            except TypeError:
                raise ValueError("labels must be a list of integer tuples") from None
            if len(labs) != self.n:
                raise ValueError(f"got {len(labs)} labels for {_quote(self.n)} vertices")
            if not set(map(type, chain.from_iterable(labs))) <= {int}:
                # walked label by label only to name the first bad one
                lab = next(lab for lab in labs if not all(type(x) is int for x in lab))
                raise ValueError(f"label {_quote(lab)} must be a tuple of integers")
            if len(set(labs)) != len(labs):
                raise ValueError("vertex labels must be distinct")
            object.__setattr__(self, "labels", labs)

    def __repr__(self) -> str:  # keep failure output readable for dense instances
        return (
            f"MixedHypergraph(n={self.n}, c_edges={len(self.c_edges)},"
            f" d_edges={len(self.d_edges)})"
        )

    @property
    def vertices(self) -> range:
        return range(self.n)

    def derived_subhypergraph(self, keep: Iterable[int]) -> "MixedHypergraph":
        """Restriction to ``keep``: retains exactly the edges contained in it.

        Vertices are relabeled ``0..len(keep)-1`` preserving their original
        order; labels are carried over.
        """
        keep = list(keep)
        if not set(map(type, keep)) <= {int}:
            raise ValueError(f"vertex set {_quote(keep)} must hold only ints")
        xs = sorted(set(keep))
        if not xs:
            raise ValueError("derived sub-hypergraph needs a nonempty vertex set")
        if xs[0] < 0 or xs[-1] >= self.n:
            raise ValueError(f"vertex set {_quote(xs)} not contained in 0..{self.n - 1}")
        inside = set(xs)
        pos = {v: i for i, v in enumerate(xs)}
        c = [tuple(pos[v] for v in e) for e in self.c_edges if inside.issuperset(e)]
        d = [tuple(pos[v] for v in e) for e in self.d_edges if inside.issuperset(e)]
        labs = tuple(self.labels[v] for v in xs) if self.labels is not None else None
        return MixedHypergraph(len(xs), c, d, labs)

    def delete_vertex(self, v: int) -> "MixedHypergraph":
        """Drop one vertex (same as restricting to the rest)."""
        if type(v) is not int or not 0 <= v < self.n:
            raise ValueError(f"vertex {_quote(v)} not present")
        if self.n < 2:
            raise ValueError("cannot delete the last vertex")
        return self.derived_subhypergraph(u for u in range(self.n) if u != v)

    def permuted(self, perm: Iterable[int]) -> "MixedHypergraph":
        """Relabel vertices: old vertex ``v`` becomes ``perm[v]``."""
        p = tuple(perm)
        if not set(map(type, p)) <= {int} or sorted(p) != list(range(self.n)):
            raise ValueError(f"{_quote(p)} is not a permutation of 0..{self.n - 1}")
        c = [tuple(p[v] for v in e) for e in self.c_edges]
        d = [tuple(p[v] for v in e) for e in self.d_edges]
        labs: Optional[list[Label]] = None
        if self.labels is not None:
            labs = [()] * self.n
            for v, lab in enumerate(self.labels):
                labs[p[v]] = lab
        return MixedHypergraph(self.n, c, d, labs)

    def label_index(self, label: Iterable[int]) -> int:
        """Vertex id carrying ``label``; raises if unlabeled or absent."""
        if self.labels is None:
            raise ValueError("hypergraph has no vertex labels")
        want = tuple(label)
        try:
            return self.labels.index(want)
        except ValueError:
            raise ValueError(f"no vertex labeled {_quote(want)}") from None


@dataclass(frozen=True)
class IsoMapping:
    """A vertex bijection witnessing an isomorphism (``mapping[v]`` is the image)."""

    mapping: tuple[int, ...]

    def __getitem__(self, v: int) -> int:
        return self.mapping[v]

    def inverse(self) -> "IsoMapping":
        inv = [0] * len(self.mapping)
        for v, u in enumerate(self.mapping):
            inv[u] = v
        return IsoMapping(tuple(inv))


def is_isomorphism(h1: MixedHypergraph, h2: MixedHypergraph, mapping: Iterable[int]) -> bool:
    """Check that ``mapping`` sends C-edges onto C-edges and D-edges onto D-edges."""
    m = tuple(mapping)
    if h1.n != h2.n or sorted(m) != list(range(h1.n)):
        return False

    def image(edges: tuple[Edge, ...]) -> set[Edge]:
        return {tuple(sorted(m[v] for v in e)) for e in edges}

    return image(h1.c_edges) == set(h2.c_edges) and image(h1.d_edges) == set(h2.d_edges)


def _incidence_profiles(h: MixedHypergraph) -> tuple[list[tuple], dict[tuple[int, int], tuple]]:
    """Each vertex's signature, and each profile of a pair of vertices that
    share an edge: the counts of its edges per kind and size, as sorted
    ``((kind, size), count)`` tuples, from one count per group of edges."""
    sigs: list[list] = [[] for _ in range(h.n)]
    prof: dict[tuple[int, int], list] = defaultdict(list)
    for kind, edges in (("c", h.c_edges), ("d", h.d_edges)):
        for size, group in groupby(sorted(edges, key=len), len):  # the groups in sorted order
            group = list(group)
            counts = Counter(chain.from_iterable(group))  # the vertices, then the pairs, by columns
            counts.update(chain.from_iterable(starmap(zip, combinations(_columns(group, size), 2))))
            for x, count in counts.items():
                (prof[x] if type(x) is tuple else sigs[x]).append(((kind, size), count))
    return list(map(tuple, sigs)), {pair: tuple(p) for pair, p in prof.items()}


def are_isomorphic(h1: MixedHypergraph, h2: MixedHypergraph) -> Optional[IsoMapping]:
    """Search for an isomorphism between two mixed hypergraphs.

    Returns a witness mapping, or ``None`` when the hypergraphs are not
    isomorphic.  Backtracks over vertex bijections, pruning on per-vertex
    incidence signatures, pairwise co-incidence profiles and fully-mapped
    edges.  Only supports instances with at most ``ISO_VERTEX_CAP`` vertices.
    """
    if h1.n > ISO_VERTEX_CAP or h2.n > ISO_VERTEX_CAP:
        raise ValueError(f"isomorphism search supports at most {ISO_VERTEX_CAP} vertices")
    if h1.n != h2.n:
        return None

    n = h1.n
    (sig1, prof1), (sig2, prof2) = _incidence_profiles(h1), _incidence_profiles(h2)
    freq = Counter(sig1)
    if freq != Counter(sig2):  # also compares the edge counts per kind and size
        return None
    c2set, d2set = set(h2.c_edges), set(h2.d_edges)

    # Rare signatures first: fewer candidate images early in the search.
    order = sorted(range(n), key=lambda v: (freq[sig1[v]], v))
    rank = {v: i for i, v in enumerate(order)}
    closing: list[list[tuple[bool, Edge]]] = [[] for _ in range(n)]
    for is_c, edges in ((True, h1.c_edges), (False, h1.d_edges)):
        for e in edges:
            closing[max(rank[v] for v in e)].append((is_c, e))

    mapping = [-1] * n
    used = [False] * n

    def extend(depth: int) -> bool:
        if depth == n:
            return True
        v = order[depth]
        for u in range(n):
            if used[u] or sig2[u] != sig1[v]:
                continue
            ok = True
            for w in order[:depth]:
                x = mapping[w]
                key1 = (v, w) if v < w else (w, v)
                key2 = (u, x) if u < x else (x, u)
                if prof1.get(key1) != prof2.get(key2):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = u
            for is_c, e in closing[depth]:
                img = tuple(sorted(mapping[w] for w in e))
                if img not in (c2set if is_c else d2set):
                    ok = False
                    break
            if ok:
                used[u] = True
                if extend(depth + 1):
                    return True
                used[u] = False
            mapping[v] = -1
        return False

    if extend(0):
        return IsoMapping(tuple(mapping))
    return None
