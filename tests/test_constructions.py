import random
import tracemalloc
from itertools import combinations

import pytest

from mixedhg import (
    MixedHypergraph,
    Partition,
    TargetSet,
    canonical_coloring,
    construct_one,
    construct_two,
    construction_labels,
    feasible_set,
    is_proper,
    is_realizable_set,
    minimum_size,
    smallest_one_realization,
)
from mixedhg import constructions
from mixedhg.constructions import _label_edges


class TestTargetSet:
    def test_normalizes_to_decreasing(self):
        assert TargetSet((2, 4)).values == (4, 2)
        assert TargetSet([3, 5, 2]).values == (5, 3, 2)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            TargetSet((4, 4, 2))

    def test_rejects_small_sets_and_values(self):
        with pytest.raises(ValueError, match="two values"):
            TargetSet((4,))
        with pytest.raises(ValueError, match=">= 2"):
            TargetSet((3, 1))
        with pytest.raises(ValueError):
            TargetSet(())

    def test_container_protocol(self):
        ts = TargetSet((4, 2))
        assert list(ts) == [4, 2]
        assert 4 in ts and 3 not in ts
        assert len(ts) == 2


class TestConstructOne:
    def test_pair_instance_vertices(self):
        labels = construction_labels(TargetSet((4, 2)))
        assert labels == [(1, 1), (2, 2), (2, 1), (3, 2), (3, 1), (4, 2)]

    def test_pair_instance_edges(self):
        h = construct_one(TargetSet((4, 2)))
        # hand-filtered: pairs of labels differing in both coordinates
        assert h.d_edges == ((0, 1), (0, 3), (0, 5), (1, 4), (2, 3), (2, 5), (4, 5))
        assert len(h.d_edges) == 7
        # the triple {(1,1),(2,1),(2,2)} must be a C-edge
        assert (0, 1, 2) in h.c_edges

    def test_triple_instance_labels(self):
        labels = construction_labels(TargetSet((4, 3, 2)))
        assert labels == [
            (1, 1, 1),
            (3, 3, 2),
            (3, 1, 1),
            (2, 2, 2),
            (2, 2, 1),
            (4, 3, 2),
        ]

    def test_vertex_count_formula(self):
        for values in combinations(range(2, 9), 2):
            ts = TargetSet(values)
            assert construct_one(ts).n == 2 * ts.values[0] - ts.values[-1]

    def test_labels_distinct_and_cover_coordinates(self):
        for values in [(5, 2), (6, 4, 3), (5, 4, 3, 2)]:
            ts = TargetSet(values)
            labels = construction_labels(ts)
            assert len(set(labels)) == len(labels)
            for i, n_i in enumerate(ts.values):
                assert {lab[i] for lab in labels} == set(range(1, n_i + 1))

    @pytest.mark.parametrize("values", [(4, 3, 2), (5, 3, 2), (5, 4, 3), (6, 4, 2)])
    def test_equal_leading_coordinates_give_the_next_smaller_family(self, values):
        from mixedhg import are_isomorphic

        ts = TargetSet(values)
        h = construct_one(ts)
        assert h.labels is not None
        inner = [v for v, lab in enumerate(h.labels) if lab[0] == lab[1]]
        derived = h.derived_subhypergraph(inner)
        smaller = construct_one(TargetSet(values[1:]))
        assert derived.n == smaller.n
        assert are_isomorphic(derived, smaller) is not None


def filtered_edges(labels: list[tuple[int, ...]]) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The C- and D-edges by the filters the numpy masks replaced, kept as a
    reference: every label triple and pair tested in Python."""
    c_edges = [
        (i, j, k) for i, j, k in combinations(range(len(labels)), 3)
        if all(len({x, y, z}) == 2 for x, y, z in zip(labels[i], labels[j], labels[k]))
    ]
    d_edges = [
        (i, j) for i, j in combinations(range(len(labels)), 2)
        if all(x != y for x, y in zip(labels[i], labels[j]))
    ]
    return c_edges, d_edges


def filtered_construction(ts: TargetSet) -> MixedHypergraph:
    labels = construction_labels(ts)
    return MixedHypergraph(len(labels), *filtered_edges(labels), labels)


def test_label_masks_match_the_filters_on_random_labels():
    # few values per coordinate, so triples that agree at a coordinate, or
    # that repeat a whole label, are common
    rng = random.Random(2011)
    for _ in range(200):
        s = rng.randint(1, 4)
        labels = [tuple(rng.randint(1, 3) for _ in range(s)) for _ in range(rng.randint(3, 12))]
        c_edges, d_edges = _label_edges(labels)
        assert (list(map(tuple, c_edges)), list(map(tuple, d_edges))) == filtered_edges(labels), labels
    # labels across the 64-bit word boundary of the agreement words: each
    # coordinate copies one of a few random columns, or now and then takes
    # fresh values, so that C-triples stay common at any label length
    found = 0
    for s in (63, 64, 65, 129):
        for _ in range(25):
            n = rng.randint(3, 12)
            base = [[rng.randint(1, 3) for _ in range(n)] for _ in range(rng.randint(1, 4))]
            columns = [
                [rng.randint(1, 3) for _ in range(n)] if rng.random() < 0.05 else rng.choice(base) for _ in range(s)
            ]
            labels = [tuple(column[v] for column in columns) for v in range(n)]
            c_edges, d_edges = _label_edges(labels)
            assert (list(map(tuple, c_edges)), list(map(tuple, d_edges))) == filtered_edges(labels), (s, labels)
            found += bool(c_edges) and bool(d_edges)
    assert found >= 20, found


@pytest.mark.parametrize("limit", [1, 4 * 8 * 20 * 20])
def test_small_budgets_give_the_same_edges(working_bytes, limit):
    # a first vertex counts as all the agreement words: at 1 byte every chunk
    # is one first vertex; at four 20-vertex one-word tables the random labels
    # run in chunks of four first vertices and a short last chunk of two
    working_bytes(limit)
    rng = random.Random(24)
    labels = [construction_labels(TargetSet(values)) for values in [(4, 2), (6, 4, 3), (9, 5, 3, 2)]]
    labels += [[tuple(rng.randint(1, 3) for _ in range(3)) for _ in range(20)] for _ in range(10)]
    for lab in labels:
        c_edges, d_edges = _label_edges(lab)
        assert (list(map(tuple, c_edges)), list(map(tuple, d_edges))) == filtered_edges(lab), lab


PAPER_SETS = [values for size in range(2, 6) for values in combinations(range(2, 13), size)]


@pytest.mark.parametrize(
    "sets", [PAPER_SETS, [(30, 2), (33, 32, 2), (12, 9, 6, 4, 2)]], ids=["paper-sets", "larger"]
)
def test_masks_match_the_filters(sets):
    # MixedHypergraph equality compares n, c_edges, d_edges and labels
    for values in sets:
        ts = TargetSet(values)
        one = auto = filtered_construction(ts)
        cases = [("one", construct_one(ts), one)]
        if ts.values[0] == ts.values[1] + 1:
            auto = one.delete_vertex(one.label_index((ts.values[1],) + (1,) * (ts.size - 1)))
            cases.append(("two", construct_two(ts), auto))
        cases.append(("auto", smallest_one_realization(ts), auto))
        for variant, got, want in cases:
            assert got == want, (values, variant)


def test_more_than_64_coordinates_match_the_filters():
    # {2..66} has 65 coordinates: every agreement mask spans two 64-bit words
    ts = TargetSet(range(2, 67))
    h = smallest_one_realization(ts)
    assert (h.n, len(h.c_edges), len(h.d_edges)) == (129, 4095, 4097)
    labels = list(h.labels)
    assert labels == [lab for lab in construction_labels(ts) if lab != (65,) + (1,) * 64]
    assert h == MixedHypergraph(len(labels), *filtered_edges(labels), labels)


def test_more_than_64_coordinates_peak_memory():
    # each first vertex counts as all the agreement words, so {2..66} runs
    # in chunks of 31 first vertices whose arrays never grow to the budget
    ts = TargetSet(range(2, 67))
    tracemalloc.start()
    try:
        smallest_one_realization(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 << 20, peak


class TestConstructTwo:
    def test_requires_consecutive_leaders(self):
        with pytest.raises(ValueError, match="consecutive"):
            construct_two(TargetSet((4, 2)))

    def test_four_three(self):
        h = construct_two(TargetSet((4, 3)))
        assert h.n == 4
        assert h.labels == ((1, 1), (2, 2), (3, 3), (4, 3))

    def test_three_two(self):
        h = construct_two(TargetSet((3, 2)))
        assert h.labels == ((1, 1), (2, 2), (3, 2))
        assert h.c_edges == ()
        assert h.d_edges == ((0, 1), (0, 2))

    def test_drops_exactly_one_vertex(self):
        for values in [(3, 2), (4, 3), (5, 4, 2), (6, 5, 3, 2)]:
            ts = TargetSet(values)
            assert construct_two(ts).n == construct_one(ts).n - 1

    def test_matches_deletion_of_labeled_vertex(self):
        ts = TargetSet((4, 3))
        one = construct_one(ts)
        assert construct_two(ts) == one.delete_vertex(one.label_index((3, 1)))

    def test_builds_from_labels_without_deleting(self, monkeypatch):
        ts = TargetSet((6, 5, 3, 2))
        want = construct_two(ts)

        def refuse(self, v):
            raise AssertionError("construct_two deleted a vertex")

        monkeypatch.setattr(MixedHypergraph, "delete_vertex", refuse)
        assert construct_two(ts) == want


class TestCanonicalColorings:
    def test_pair_instance_second_coordinate(self):
        p = canonical_coloring(TargetSet((4, 2)), 2)
        assert p.blocks == ((0, 2, 4), (1, 3, 5))

    def test_pair_instance_first_coordinate(self):
        p = canonical_coloring(TargetSet((4, 2)), 1)
        assert p.blocks == ((0,), (1, 2), (3, 4), (5,))

    def test_block_counts_and_properness(self):
        for values in [(4, 2), (5, 3), (5, 3, 2), (6, 5, 3)]:
            ts = TargetSet(values)
            h = construct_one(ts)
            for i, n_i in enumerate(ts.values, start=1):
                p = canonical_coloring(ts, i)
                assert p.num_blocks == n_i
                assert is_proper(h, p)

    def test_variant_two_colorings(self):
        ts = TargetSet((4, 3))
        h = construct_two(ts)
        by_first = canonical_coloring(ts, 1, which="two")
        by_second = canonical_coloring(ts, 2, which="two")
        assert by_first == Partition((0, 1, 2, 3))
        assert by_second == Partition((0, 1, 2, 2))
        assert is_proper(h, by_first) and is_proper(h, by_second)

    def test_reads_labels_without_building_edges(self, monkeypatch):
        ts = TargetSet((6, 5, 3, 2))
        want = [canonical_coloring(ts, i, which) for which in ("one", "two") for i in (1, 2, 3, 4)]

        def refuse(labels):
            raise AssertionError("canonical_coloring built edges")

        monkeypatch.setattr(constructions, "_label_edges", refuse)
        assert [canonical_coloring(ts, i, which) for which in ("one", "two") for i in (1, 2, 3, 4)] == want

    def test_paper_sets_match_the_built_labels(self):
        # reference: build the hypergraph (variant two by deleting its vertex
        # from variant one) and group its labels by coordinate
        for values in PAPER_SETS:
            ts = TargetSet(values)
            one = construct_one(ts)
            built = {"one": one}
            if ts.values[0] == ts.values[1] + 1:
                built["two"] = one.delete_vertex(one.label_index((ts.values[1],) + (1,) * (ts.size - 1)))
            for which, h in built.items():
                for i in range(1, ts.size + 1):
                    groups: dict[int, list[int]] = {}
                    for v, lab in enumerate(h.labels):
                        groups.setdefault(lab[i - 1], []).append(v)
                    assert canonical_coloring(ts, i, which) == Partition.from_blocks(groups.values()), (values, which, i)

    def test_index_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            canonical_coloring(TargetSet((4, 2)), 3)
        with pytest.raises(ValueError, match="variant"):
            canonical_coloring(TargetSet((4, 2)), 1, which="three")

    @pytest.mark.parametrize("i", [1.5, True, 1.0, "1", None])
    def test_index_must_be_an_int(self, i):
        # 1.5 used to raise TypeError, True to read coordinate 1
        with pytest.raises(ValueError, match="coordinate index must be an int"):
            canonical_coloring(TargetSet((4, 2)), i)


class TestMinimumSize:
    @pytest.mark.parametrize(
        "values,expected",
        [((4, 2), 6), ((4, 3), 4), ((5, 3, 2), 8), ((3, 2), 3), ((6, 5, 3, 2), 9)],
    )
    def test_formula(self, values, expected):
        assert minimum_size(TargetSet(values)) == expected

    def test_dispatch(self):
        assert smallest_one_realization(TargetSet((4, 2))) == construct_one(TargetSet((4, 2)))
        assert smallest_one_realization(TargetSet((4, 3))) == construct_two(TargetSet((4, 3)))
        assert smallest_one_realization(TargetSet((3, 2))).n == 3

    def test_size_matches_formula(self):
        for values in [(4, 2), (4, 3), (5, 3, 2), (6, 5, 2), (7, 3)]:
            ts = TargetSet(values)
            assert smallest_one_realization(ts).n == minimum_size(ts)


class TestRealizableSets:
    def test_characterization(self):
        assert is_realizable_set({2, 4})
        assert not is_realizable_set({1, 3})
        assert is_realizable_set({1, 2, 3})
        assert is_realizable_set({7})

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="empty"):
            is_realizable_set(set())
        with pytest.raises(ValueError, match="positive"):
            is_realizable_set({0, 2})
        with pytest.raises(ValueError, match="positive"):
            is_realizable_set({True})

    def test_generated_realizations_pass(self):
        for values in [(4, 2), (4, 3), (5, 3, 2)]:
            ts = TargetSet(values)
            assert is_realizable_set(set(feasible_set(smallest_one_realization(ts))))
