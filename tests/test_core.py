import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from mixedhg import (
    ISO_VERTEX_CAP,
    MixedHypergraph,
    TargetSet,
    are_isomorphic,
    construct_one,
    is_isomorphism,
    smallest_one_realization,
)
from mixedhg import core
from mixedhg.core import QUOTE_BYTES, _canonical_edges, _incidence_profiles, _packed, _quote, _slices

from _oracles import pair_profiles, per_edge_canonical_edges, vertex_signatures


class TestConstruction:
    def test_two_vertices_one_d_edge(self):
        h = MixedHypergraph(2, [], [(0, 1)])
        assert h.n == 2
        assert h.c_edges == ()
        assert h.d_edges == ((0, 1),)

    def test_singleton_edge_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            MixedHypergraph(2, [(0,)], [])
        with pytest.raises(ValueError, match="at least two"):
            MixedHypergraph(3, [], [(1, 1)])  # duplicates collapse to a singleton

    def test_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            MixedHypergraph(2, [(0, 2)], [])
        with pytest.raises(ValueError, match="out of range"):
            MixedHypergraph(2, [], [(-1, 0)])
        # a family or an edge that is not iterable is a ValueError too
        with pytest.raises(ValueError, match="C-edges must be a list of vertex lists"):
            MixedHypergraph(3, 5)
        with pytest.raises(ValueError, match="C-edges must be a list of vertex lists"):
            MixedHypergraph(3, [5])

    def test_vertex_count_must_be_positive(self):
        with pytest.raises(ValueError):
            MixedHypergraph(0, [], [])

    def test_bools_rejected(self):
        # documents have no booleans, so neither may a hypergraph
        with pytest.raises(ValueError, match="positive integer"):
            MixedHypergraph(True)
        with pytest.raises(ValueError, match="out of range"):
            MixedHypergraph(3, [(True, 2)])
        with pytest.raises(ValueError, match="out of range"):
            MixedHypergraph(3, [], [(1, True, 2)])
        with pytest.raises(ValueError, match="integers"):
            MixedHypergraph(2, [], [], labels=[(True,), (2,)])

    def test_duplicate_edges_collapse(self):
        h = MixedHypergraph(3, [(0, 1, 2), (2, 1, 0)], [(0, 1), (1, 0), (0, 1)])
        assert h.c_edges == ((0, 1, 2),)
        assert h.d_edges == ((0, 1),)

    def test_bi_edges_allowed(self):
        h = MixedHypergraph(2, [(0, 1)], [(0, 1)])
        assert h.c_edges == h.d_edges == ((0, 1),)

    def test_edges_stored_in_canonical_order(self):
        h = MixedHypergraph(4, [(3, 2, 1), (1, 0, 2)], [(3, 0), (1, 0)])
        assert h.c_edges == ((0, 1, 2), (1, 2, 3))
        assert h.d_edges == ((0, 1), (0, 3))

    def test_accepts_generated_edge_lists(self):
        # the 6-vertex realization of {4,2}, rebuilt from its raw edge lists
        generated = construct_one(TargetSet((4, 2)))
        rebuilt = MixedHypergraph(6, generated.c_edges, generated.d_edges)
        assert rebuilt.n == 6
        assert rebuilt.c_edges == generated.c_edges
        assert rebuilt.d_edges == generated.d_edges

    def test_first_bad_label_is_named(self):
        with pytest.raises(ValueError) as info:
            MixedHypergraph(3, [], [], labels=[(1, 2), (2, 1.0), (True, 3)])
        assert str(info.value) == "label (2, 1.0) must be a tuple of integers"

    def test_label_validation(self):
        with pytest.raises(ValueError, match="labels"):
            MixedHypergraph(2, [], [], labels=[(1,)])
        with pytest.raises(ValueError, match="distinct"):
            MixedHypergraph(2, [], [], labels=[(1,), (1,)])
        with pytest.raises(ValueError, match="labels must be a list of integer tuples"):
            MixedHypergraph(2, [], [], labels=5)
        h = MixedHypergraph(2, [], [], labels=[(1, 2), (2, 1)])
        assert h.label_index((2, 1)) == 1
        with pytest.raises(ValueError, match="no vertex labeled"):
            h.label_index((9, 9))


@st.composite
def edge_families(draw):
    """An edge family as data: the vertex count, the edge kind, whether the
    family is a generator, and its edges as ``(form, vertices)`` pairs, where
    a ``"generator"`` edge yields its vertices once and a ``"scalar"`` edge
    is its first vertex (or None), not an iterable.  Half the families hold
    in-range ints only, and half of those are canonical already."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from("CD"))
    clean = draw(st.booleans())
    if clean:
        vertex, forms = st.integers(0, n - 1), ["list", "tuple", "generator"]
    else:
        vertex = st.one_of(
            st.integers(-2, n + 1), st.booleans(), st.sampled_from([0.0, 1.0, 2.5]),
            st.integers(0, n - 1).map(np.int64),
        )
        forms = ["list", "tuple", "generator", "scalar"]
    edges = draw(st.lists(st.tuples(st.sampled_from(forms), st.lists(vertex, max_size=4)), max_size=8))
    if clean and draw(st.booleans()):
        rows = sorted({tuple(sorted(set(vs))) for _, vs in edges if len(set(vs)) >= 2})
        edges = [("tuple", list(row)) for row in rows]
    return n, kind, draw(st.booleans()), edges


def build_family(generator, edges):
    """The family that ``edge_families`` describes, built afresh."""

    def edge(form, vertices):
        if form == "generator":
            return (v for v in vertices)
        if form == "scalar":
            return vertices[0] if vertices else None
        return tuple(vertices) if form == "tuple" else list(vertices)

    family = (edge(*e) for e in edges)
    return family if generator else list(family)


class TestBulkEdgeChecks:
    @given(edge_families())
    # bools, floats, numpy ints, negative and out-of-range vertices, singletons,
    # duplicates, unsorted rows, generator and non-iterable edges and families
    @example((3, "C", False, [("list", [True, 2])]))
    @example((3, "D", False, [("tuple", [0, 1]), ("list", [1.0, 2])]))
    @example((3, "C", False, [("list", [np.int64(0), 1])]))
    @example((3, "C", False, [("list", [0, 1]), ("list", [-1, 2]), ("scalar", [5])]))
    @example((3, "D", False, [("list", [0, 3])]))
    @example((3, "C", True, [("list", [1, 2]), ("generator", [2])]))
    @example((3, "C", False, [("list", [2, 1]), ("tuple", [1, 2]), ("generator", [0, 2, 0])]))
    @example((3, "C", True, [("tuple", [0, 1]), ("scalar", [])]))
    @example((3, "D", False, [("scalar", [1]), ("list", [5, 0])]))
    def test_match_the_per_edge_loop(self, case):
        n, kind, generator, edges = case

        def outcome(canonical_edges):
            try:
                return canonical_edges(build_family(generator, edges), n, kind)
            except ValueError as exc:
                return str(exc)

        got = outcome(_canonical_edges)
        assert got == outcome(per_edge_canonical_edges)
        if not isinstance(got, str):
            assert all(type(v) is int for e in got for v in e)

    @pytest.mark.parametrize("uniform", [True, False], ids=["one-length", "mixed-lengths"])
    def test_column_and_bulk_checks_match_the_per_edge_loop(self, uniform):
        # one edge length goes through the column check, mixed lengths through
        # the bulk one: the same edges or the same error text, on families
        # with bools, floats, out-of-range vertices and 0- or 1-vertex edges
        rng = random.Random(uniform)
        odd = [True, False, 1.0, 2.5, -1, 7, 6]
        for _ in range(3000):
            n = rng.randint(1, 6)
            width = rng.randint(0, 4)
            family = []
            for _ in range(rng.randint(0, 8)):
                size = width if uniform else rng.randint(0, 4)
                if rng.random() < 0.1:
                    edge = [rng.choice(odd + list(range(n))) for _ in range(size)]
                elif rng.random() < 0.7:
                    edge = sorted(rng.sample(range(n), min(size, n)))
                else:
                    edge = [rng.randrange(n) for _ in range(size)]
                family.append(edge)
            if rng.random() < 0.5:
                family = sorted(family)
            outcomes = []
            for canonical_edges in (_canonical_edges, per_edge_canonical_edges):
                try:
                    outcomes.append(canonical_edges([list(e) for e in family], n, "D"))
                except ValueError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (n, family)

    def test_canonical_family_is_returned_as_it_is(self):
        h = construct_one(TargetSet((5, 3, 2)))
        out = _canonical_edges(h.c_edges, h.n, "C")
        assert out == h.c_edges and all(a is b for a, b in zip(out, h.c_edges))


class TestErrorSize:
    def test_quote_cuts_at_a_byte_count(self):
        assert _quote("x" * (QUOTE_BYTES - 2)) == repr("x" * (QUOTE_BYTES - 2))
        assert _quote("x" * (QUOTE_BYTES - 1)) == "'" + "x" * (QUOTE_BYTES - 4) + "..."
        # a cut never splits a character
        assert _quote("\u00e9" * QUOTE_BYTES) == "'" + "\u00e9" * ((QUOTE_BYTES - 4) // 2) + "..."

    def test_short_messages_are_kept_whole(self):
        with pytest.raises(ValueError) as info:
            MixedHypergraph(3, [(0, 1, 2, np.int64(4))])
        assert str(info.value) == "C-edge [0, 1, 2, np.int64(4)]: vertex np.int64(4) out of range 0..2"
        with pytest.raises(ValueError) as info:
            TargetSet((4, 4, 2))
        assert str(info.value) == "target set [2, 4, 4] has duplicate values"

    def test_huge_inputs_give_short_messages(self):
        big = list(range(100_000))
        h = MixedHypergraph(3, [], [], labels=[(0,), (1,), (2,)])
        calls = [
            lambda: MixedHypergraph(big),
            lambda: MixedHypergraph(10**300, [(-1, 0)]),
            lambda: MixedHypergraph(3, [], [(0, "\u00e9" * 100_000)]),
            lambda: MixedHypergraph(10**300, labels=[(0,)]),
            lambda: MixedHypergraph(2, labels=[big + [None], (1,)]),
            lambda: h.derived_subhypergraph(big),
            lambda: h.derived_subhypergraph(big + [0.5]),
            lambda: h.permuted(big),
            lambda: h.label_index(big),
            lambda: TargetSet(tuple(big)),
            lambda: TargetSet((2,) * 100_000),
            lambda: TargetSet(("x",) * 100_000 + (2,)),
        ]
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            # the CLI prints it as one "error: ..." line
            assert len(f"error: {info.value}\n".encode()) < 256, str(info.value)


class TestSlices:
    @pytest.mark.parametrize("item_bytes", [0, 1, 3, 8, 64, 65, 1 << 20])
    @pytest.mark.parametrize("length", [0, 1, 2, 7, 8, 9, 100])
    def test_cover_the_range_once_within_the_budget(self, working_bytes, length, item_bytes):
        working_bytes(64)
        parts = list(_slices(length, item_bytes))
        assert [i for part in parts for i in range(length)[part]] == list(range(length))
        # no empty slice, so length 0 yields none
        assert all(part.start < part.stop <= length and part.step is None for part in parts)
        # each slice fits the budget, or holds one item
        assert all((part.stop - part.start) * item_bytes <= 64 or part.stop - part.start == 1 for part in parts)
        if item_bytes <= 64:  # full slices but the last
            assert all(part.stop - part.start == 64 // max(1, item_bytes) for part in parts[:-1])

    def test_budget_is_read_at_call_time(self, working_bytes):
        assert list(_slices(3, core.WORKING_BYTES)) == [slice(0, 1), slice(1, 2), slice(2, 3)]
        assert list(_slices(3, core.WORKING_BYTES // 2)) == [slice(0, 2), slice(2, 3)]
        working_bytes(10)
        assert list(_slices(5, 5)) == [slice(0, 2), slice(2, 4), slice(4, 5)]


class TestPacked:
    @pytest.mark.parametrize("width", [1, 63, 64, 65, 203])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 5)])
    def test_matches_unpackbits_with_zero_padding(self, width, lead):
        bits = np.random.default_rng(width).random(lead + (width,)) < 0.5
        words = _packed(bits)
        assert words.dtype == np.dtype("<u8") and words.shape == lead + (-(-width // 64),)
        unpacked = np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little").astype(bool)
        assert (unpacked[..., :width] == bits).all()
        assert not unpacked[..., width:].any()
        # bit j % 64 of word j // 64
        j = width - 1
        assert ((words[..., j // 64] >> np.uint64(j % 64) & np.uint64(1)).astype(bool) == bits[..., j]).all()


class TestDerivedSubhypergraph:
    def test_single_vertex(self):
        h = MixedHypergraph(3, [], [])
        sub = h.derived_subhypergraph({0})
        assert sub == MixedHypergraph(1, [], [])

    def test_full_set_is_identity(self):
        h = MixedHypergraph(4, [(0, 1, 2)], [(2, 3)], labels=[(i,) for i in range(4)])
        assert h.derived_subhypergraph(range(4)) == h

    def test_keeps_exactly_contained_edges(self):
        h = MixedHypergraph(5, [(0, 1, 2), (1, 2, 3), (2, 3, 4)], [(0, 4), (1, 3)])
        sub = h.derived_subhypergraph({1, 2, 3})
        # relabeled 1,2,3 -> 0,1,2
        assert sub.c_edges == ((0, 1, 2),)
        assert sub.d_edges == ((0, 2),)

    def test_relabels_preserving_order_and_labels(self):
        h = MixedHypergraph(4, [], [(1, 3)], labels=[(0,), (1,), (2,), (3,)])
        sub = h.derived_subhypergraph({3, 1})
        assert sub.n == 2
        assert sub.labels == ((1,), (3,))
        assert sub.d_edges == ((0, 1),)

    def test_drop_one_vertex_of_generated_instance(self):
        h = construct_one(TargetSet((4, 2)))
        victim = h.label_index((2, 1))
        keep = [v for v in range(h.n) if v != victim]
        sub = h.derived_subhypergraph(keep)
        assert sub.n == 5
        # oracle: filter the parent's edge lists by containment, then relabel
        pos = {v: i for i, v in enumerate(keep)}
        expect_c = sorted(tuple(pos[v] for v in e) for e in h.c_edges if victim not in e)
        expect_d = sorted(tuple(pos[v] for v in e) for e in h.d_edges if victim not in e)
        assert list(sub.c_edges) == expect_c
        assert list(sub.d_edges) == expect_d

    def test_rejects_bad_vertex_sets(self):
        h = MixedHypergraph(3, [], [])
        with pytest.raises(ValueError, match="nonempty"):
            h.derived_subhypergraph([])
        with pytest.raises(ValueError, match="not contained"):
            h.derived_subhypergraph({0, 3})


class TestDeleteVertex:
    def test_two_vertex_case(self):
        h = MixedHypergraph(2, [], [])
        assert h.delete_vertex(1) == MixedHypergraph(1, [], [])

    def test_matches_derived_subhypergraph(self):
        h = MixedHypergraph(4, [(0, 1, 3)], [(1, 2), (0, 3)])
        for v in range(4):
            rest = [u for u in range(4) if u != v]
            assert h.delete_vertex(v) == h.derived_subhypergraph(rest)

    def test_errors(self):
        h = MixedHypergraph(1, [], [])
        with pytest.raises(ValueError, match="last vertex"):
            h.delete_vertex(0)
        with pytest.raises(ValueError, match="not present"):
            MixedHypergraph(2, [], []).delete_vertex(5)


class TestPermuted:
    def test_roundtrip(self):
        h = MixedHypergraph(4, [(0, 1, 2)], [(2, 3)], labels=[(i, i) for i in range(4)])
        perm = (2, 0, 3, 1)
        inv = [0] * 4
        for v, u in enumerate(perm):
            inv[u] = v
        assert h.permuted(perm).permuted(inv) == h

    def test_edges_follow_vertices(self):
        h = MixedHypergraph(3, [(0, 1, 2)], [(0, 1)])
        g = h.permuted((2, 1, 0))
        assert g.c_edges == ((0, 1, 2),)
        assert g.d_edges == ((1, 2),)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            MixedHypergraph(3, [], []).permuted((0, 0, 1))


class TestVertexArguments:
    # each vertex argument is an exact int: a float, a string or a bool is
    # refused with the input quoted, as a vertex of an edge is
    def test_delete_vertex(self):
        h = MixedHypergraph(3, [(0, 1, 2)], [(0, 1)])
        for v in (1.5, True, "1"):
            with pytest.raises(ValueError) as info:
                h.delete_vertex(v)
            assert str(info.value) == f"vertex {v!r} not present"

    def test_derived_subhypergraph(self):
        h = MixedHypergraph(3, [(0, 1, 2)], [(0, 1)])
        for keep in ([0.5, 1], ["a", 1], [True, 2], [[1], 2]):
            with pytest.raises(ValueError) as info:
                h.derived_subhypergraph(keep)
            assert str(info.value) == f"vertex set {keep!r} must hold only ints"
        # a generator is quoted as the vertices it gave
        with pytest.raises(ValueError, match=r"vertex set \[0, 1\.0\] must hold only ints"):
            h.derived_subhypergraph(v / 1 if v else v for v in range(2))

    def test_permuted(self):
        h = MixedHypergraph(3, [(0, 1, 2)], [(0, 1)], labels=[(0,), (1,), (2,)])
        for perm in ([0, 1, 2.0], [True, False, 2], ["a", 1, 2]):
            with pytest.raises(ValueError) as info:
                h.permuted(perm)
            assert str(info.value) == f"{tuple(perm)!r} is not a permutation of 0..2"
        assert h.permuted([1, 0, 2]).labels == ((1,), (0,), (2,))


class TestIsomorphism:
    def test_identity(self):
        h = construct_one(TargetSet((4, 2)))
        witness = are_isomorphic(h, h)
        assert witness is not None
        assert is_isomorphism(h, h, witness.mapping)

    def test_edge_kinds_must_match(self):
        c_pair = MixedHypergraph(2, [(0, 1)], [])
        d_pair = MixedHypergraph(2, [], [(0, 1)])
        assert are_isomorphic(c_pair, d_pair) is None

    def test_generated_families_nest(self):
        big = construct_one(TargetSet((4, 3, 2)))
        assert big.labels is not None
        inner = [v for v, lab in enumerate(big.labels) if lab[0] == lab[1]]
        derived = big.derived_subhypergraph(inner)
        small = construct_one(TargetSet((3, 2)))
        witness = are_isomorphic(derived, small)
        assert witness is not None
        assert is_isomorphism(derived, small, witness.mapping)

    def test_witness_is_invertible(self):
        h = MixedHypergraph(5, [(0, 1, 2)], [(3, 4), (0, 4)])
        g = h.permuted((4, 2, 0, 1, 3))
        witness = are_isomorphic(h, g)
        assert witness is not None
        assert is_isomorphism(g, h, witness.inverse().mapping)
        back = are_isomorphic(g, h)
        assert back is not None and is_isomorphism(g, h, back.mapping)

    def test_counts_rule_out_quickly(self):
        h1 = MixedHypergraph(3, [(0, 1, 2)], [])
        h2 = MixedHypergraph(3, [(0, 1, 2)], [(0, 1)])
        assert are_isomorphic(h1, h2) is None
        h3 = MixedHypergraph(4, [(0, 1, 2)], [])
        assert are_isomorphic(h1, h3) is None

    def test_same_counts_different_shape(self):
        # paths vs a triangle plus an isolated edge: equal edge counts
        path = MixedHypergraph(4, [], [(0, 1), (1, 2), (2, 3)])
        star = MixedHypergraph(4, [], [(0, 1), (0, 2), (0, 3)])
        assert are_isomorphic(path, star) is None

    def test_pasch_configurations_are_told_apart_by_their_edges(self):
        # every vertex in two triples, every pair in at most one: the vertex
        # signatures and pair profiles agree on every bijection, so only the
        # edge check rejects the wrong ones
        h1 = MixedHypergraph(6, [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)], [])
        h2 = MixedHypergraph(6, [(0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5)], [])
        witness = are_isomorphic(h1, h2)
        assert witness is not None and is_isomorphism(h1, h2, witness.mapping)

    def test_hexagon_and_two_triangles(self):
        # equal vertex signatures (every vertex in two D-pairs), not isomorphic:
        # the backtracking runs out of bijections
        hexagon = MixedHypergraph(6, [], [(i, (i + 1) % 6) for i in range(6)])
        triangles = MixedHypergraph(6, [], [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert are_isomorphic(hexagon, triangles) is None
        assert are_isomorphic(triangles, hexagon) is None

    def test_profiles_match_the_edge_by_edge_counts(self):
        # the 97 paper constructions within the cap, and random hypergraphs
        # with edges of 2-5 vertices
        rng = random.Random(12)
        sets = (v for size in range(2, 6) for v in itertools.combinations(range(2, 13), size))
        cases = [h for h in map(smallest_one_realization, map(TargetSet, sets)) if h.n <= ISO_VERTEX_CAP]
        assert len(cases) == 97
        for _ in range(500):
            n = rng.randint(2, ISO_VERTEX_CAP)
            c, d = ([rng.sample(range(n), rng.randint(2, min(n, 5))) for _ in range(rng.randint(0, 10))] for _ in "cd")
            cases.append(MixedHypergraph(n, c, d))
        for h in cases:
            assert _incidence_profiles(h) == (vertex_signatures(h), pair_profiles(h)), h

    def test_cap_enforced(self):
        big = MixedHypergraph(ISO_VERTEX_CAP + 1, [], [(0, 1)])
        with pytest.raises(ValueError, match="at most"):
            are_isomorphic(big, big)

    def test_random_relabelings_found(self):
        import random

        rng = random.Random(20240817)
        for _ in range(25):
            n = rng.randint(2, 7)
            pool = list(itertools.combinations(range(n), 2)) + list(
                itertools.combinations(range(n), min(3, n))
            )
            c = rng.sample(pool, k=min(len(pool), rng.randint(0, 3)))
            d = rng.sample(pool, k=min(len(pool), rng.randint(0, 3)))
            c = [e for e in c if len(e) >= 2]
            d = [e for e in d if len(e) >= 2]
            h = MixedHypergraph(n, c, d)
            perm = list(range(n))
            rng.shuffle(perm)
            g = h.permuted(perm)
            witness = are_isomorphic(h, g)
            assert witness is not None
            assert is_isomorphism(h, g, witness.mapping)
