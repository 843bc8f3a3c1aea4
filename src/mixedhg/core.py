"""Immutable mixed hypergraphs: validation, derived sub-hypergraphs, isomorphism."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

Edge = tuple[int, ...]
Label = tuple[int, ...]

# The exhaustive isomorphism backtracking is exact but only sized for small
# instances; everything this package generates stays well below the cap.
ISO_VERTEX_CAP = 12


def _canonical_edges(edges: Iterable[Iterable[int]], n: int, kind: str) -> tuple[Edge, ...]:
    """Deduplicate, sort, and range-check an edge family."""
    out: set[Edge] = set()
    for raw in edges:
        raw = tuple(raw)  # exact ints, no bools; checked before dedup folds True into 1
        for v in raw:
            if type(v) is not int or not 0 <= v < n:
                raise ValueError(f"{kind}-edge {list(raw)}: vertex {v!r} out of range 0..{n - 1}")
        members = sorted(set(raw))
        if len(members) < 2:
            raise ValueError(f"{kind}-edge {members}: an edge needs at least two vertices")
        out.add(tuple(members))
    return tuple(sorted(out))


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
            raise ValueError(f"vertex count must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "c_edges", _canonical_edges(self.c_edges, self.n, "C"))
        object.__setattr__(self, "d_edges", _canonical_edges(self.d_edges, self.n, "D"))
        if self.labels is not None:
            labs = tuple(tuple(lab) for lab in self.labels)
            if len(labs) != self.n:
                raise ValueError(f"got {len(labs)} labels for {self.n} vertices")
            for lab in labs:
                if not all(type(x) is int for x in lab):
                    raise ValueError(f"label {lab!r} must be a tuple of integers")
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
        xs = sorted(set(keep))
        if not xs:
            raise ValueError("derived sub-hypergraph needs a nonempty vertex set")
        if xs[0] < 0 or xs[-1] >= self.n:
            raise ValueError(f"vertex set {xs} not contained in 0..{self.n - 1}")
        inside = set(xs)
        pos = {v: i for i, v in enumerate(xs)}
        c = [tuple(pos[v] for v in e) for e in self.c_edges if inside.issuperset(e)]
        d = [tuple(pos[v] for v in e) for e in self.d_edges if inside.issuperset(e)]
        labs = tuple(self.labels[v] for v in xs) if self.labels is not None else None
        return MixedHypergraph(len(xs), c, d, labs)

    def delete_vertex(self, v: int) -> "MixedHypergraph":
        """Drop one vertex (same as restricting to the rest)."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} not present")
        if self.n < 2:
            raise ValueError("cannot delete the last vertex")
        return self.derived_subhypergraph(u for u in range(self.n) if u != v)

    def permuted(self, perm: Iterable[int]) -> "MixedHypergraph":
        """Relabel vertices: old vertex ``v`` becomes ``perm[v]``."""
        p = tuple(perm)
        if sorted(p) != list(range(self.n)):
            raise ValueError(f"{p} is not a permutation of 0..{self.n - 1}")
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
            raise ValueError(f"no vertex labeled {want}") from None


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


def _vertex_signatures(h: MixedHypergraph) -> list[tuple]:
    sigs: list[Counter] = [Counter() for _ in range(h.n)]
    for kind, edges in (("c", h.c_edges), ("d", h.d_edges)):
        for e in edges:
            for v in e:
                sigs[v][(kind, len(e))] += 1
    return [tuple(sorted(c.items())) for c in sigs]


def _pair_profiles(h: MixedHypergraph) -> dict[tuple[int, int], tuple]:
    prof: dict[tuple[int, int], Counter] = {}
    for kind, edges in (("c", h.c_edges), ("d", h.d_edges)):
        for e in edges:
            for a, b in combinations(e, 2):
                prof.setdefault((a, b), Counter())[(kind, len(e))] += 1
    return {pair: tuple(sorted(c.items())) for pair, c in prof.items()}


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
    if len(h1.c_edges) != len(h2.c_edges) or len(h1.d_edges) != len(h2.d_edges):
        return None
    if sorted(map(len, h1.c_edges)) != sorted(map(len, h2.c_edges)):
        return None
    if sorted(map(len, h1.d_edges)) != sorted(map(len, h2.d_edges)):
        return None

    n = h1.n
    sig1, sig2 = _vertex_signatures(h1), _vertex_signatures(h2)
    freq = Counter(sig1)
    if freq != Counter(sig2):
        return None
    prof1, prof2 = _pair_profiles(h1), _pair_profiles(h2)
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
