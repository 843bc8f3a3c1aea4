import itertools

import pytest

from mixedhg import (
    ISO_VERTEX_CAP,
    MixedHypergraph,
    TargetSet,
    are_isomorphic,
    construct_one,
    is_isomorphism,
)


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

    def test_label_validation(self):
        with pytest.raises(ValueError, match="labels"):
            MixedHypergraph(2, [], [], labels=[(1,)])
        with pytest.raises(ValueError, match="distinct"):
            MixedHypergraph(2, [], [], labels=[(1,), (1,)])
        h = MixedHypergraph(2, [], [], labels=[(1, 2), (2, 1)])
        assert h.label_index((2, 1)) == 1
        with pytest.raises(ValueError, match="no vertex labeled"):
            h.label_index((9, 9))


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
