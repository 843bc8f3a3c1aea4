import itertools
import json
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from math import comb

import numpy as np
import pytest

from mixedhg import (
    MixedHypergraph,
    Outcome,
    SearchBudget,
    SearchReport,
    TargetSet,
    are_isomorphic,
    bounded_minimality_search,
    check_minimum_size,
    construct_one,
    deletion_criticality,
    is_one_realization,
    is_realization,
    minimum_size,
    smallest_one_realization,
)
from mixedhg import search
from mixedhg.documents import to_document
from mixedhg.search import (
    CANDIDATE_CAP,
    _can_hit,
    _distinct_rows,
    _hits,
    _layer_until,
    canonical_keys,
    class_counts,
    hypergraph_from_masks,
)

from _oracles import (
    all_restricted_growth_strings,
    brute_force_spectrum,
    kill_tables,
    layer_scan_search,
    one_realization_by_choice,
    per_count_layer_until,
    per_permutation_keys,
    popcount_partition_masks,
    stacked_hits,
    subset_image_class_counts,
)


class TestRealizationPredicates:
    def test_is_realization(self):
        h = construct_one(TargetSet((4, 2)))
        assert is_realization(h, {2, 4})
        assert not is_realization(h, {2, 3, 4})
        assert is_realization(MixedHypergraph(3, [], []), {1, 2, 3})

    def test_is_one_realization(self):
        assert is_one_realization(construct_one(TargetSet((5, 3, 2))), {5, 3, 2})
        assert is_one_realization(MixedHypergraph(2, [], []), {1, 2})
        # three 2-block partitions of an edgeless triple: realization, not a one-realization
        assert is_realization(MixedHypergraph(3, [], []), {1, 2, 3})
        assert not is_one_realization(MixedHypergraph(3, [], []), {1, 2, 3})


class TestDeletionCriticality:
    def test_edgeless_pair(self):
        flags = deletion_criticality(MixedHypergraph(2, [], []), {1, 2})
        assert flags == [(0, False), (1, False)]

    def test_generated_instances_are_critical(self):
        for values in [(4, 2), (4, 3)]:
            ts = TargetSet(values)
            h = smallest_one_realization(ts)
            flags = deletion_criticality(h, set(ts.values))
            assert len(flags) == h.n
            assert all(flag is False for _, flag in flags)

    def test_single_vertex_has_no_deletions(self):
        assert deletion_criticality(MixedHypergraph(1, [], []), {1}) == []


class TestCheckMinimumSize:
    @pytest.mark.parametrize("values", [(4, 2), (4, 3), (5, 3, 2), (3, 2), (6, 5, 3, 2)])
    def test_spot_values(self, values):
        assert check_minimum_size(TargetSet(values))


class TestBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(c_edge_size=1)
        with pytest.raises(ValueError):
            SearchBudget(max_candidates=0)
        SearchBudget(max_candidates=CANDIDATE_CAP)
        with pytest.raises(ValueError, match="max_candidates"):
            SearchBudget(max_candidates=CANDIDATE_CAP + 1)

    @pytest.mark.parametrize("field", ["c_edge_size", "d_edge_size", "max_candidates"])
    @pytest.mark.parametrize("value", [3.0, 2.5, True, "3", None])
    def test_non_int_fields_are_rejected(self, field, value):
        # a float or bool would also share _space's cache key with an int
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            SearchBudget(**{field: value})

    def test_fields_are_keyword_only(self):
        with pytest.raises(TypeError):
            SearchBudget(5, 3, 2)

    def test_report_witness_consistency(self):
        with pytest.raises(ValueError):
            SearchReport(Outcome.EXHAUSTED, MixedHypergraph(2, [], [(0, 1)]), 1, 0.0)
        with pytest.raises(ValueError):
            SearchReport(Outcome.WITNESS_FOUND, None, 1, 0.0)


class TestBoundedSearch:
    def test_small_witness_found(self):
        report = bounded_minimality_search(TargetSet((3, 2)), 3)
        assert report.outcome is Outcome.WITNESS_FOUND
        assert report.witness is not None
        assert report.witness.n == 3
        assert is_one_realization(report.witness, {3, 2})
        assert 0 < report.examined <= 16
        assert 0.0 <= report.dedup_ratio < 1.0

    def test_too_few_vertices_exhausts(self):
        report = bounded_minimality_search(TargetSet((4, 3)), 2)
        assert report.outcome is Outcome.EXHAUSTED
        assert report.examined == 2  # no triples fit, one optional pair

    def test_four_vertices_cannot_realize_4_2(self):
        report = bounded_minimality_search(TargetSet((4, 2)), 4)
        assert report.outcome is Outcome.EXHAUSTED
        assert report.examined == 1 << 10
        assert report.witness is None

    def test_vertex_cap_is_an_error(self):
        with pytest.raises(ValueError, match="n=7 exceeds the search cap of 6 vertices"):
            bounded_minimality_search(TargetSet((4, 2)), 7)

    @pytest.mark.parametrize("n", [True, False, 5.0, "5"])
    def test_non_int_vertex_count_is_an_error(self, n):
        with pytest.raises(ValueError, match="vertex count must be an int"):
            bounded_minimality_search(TargetSet((4, 2)), n)

    def test_six_vertices_need_only_the_candidate_budget(self):
        # the default sizes give 2^35 candidates at n=6 (test_pinned_reports
        # runs n=6 spaces within the budget)
        report = bounded_minimality_search(TargetSet((4, 2)), 6)
        assert report == SearchReport(Outcome.BUDGET_EXCEEDED, None, 0, 0.0)

    def test_candidate_cap_reports_budget_exceeded(self):
        budget = SearchBudget(max_candidates=8)
        report = bounded_minimality_search(TargetSet((3, 2)), 3, budget)
        assert report.outcome is Outcome.BUDGET_EXCEEDED
        assert report.examined == 0
        assert report.witness is None

    @pytest.mark.parametrize("values,n", [((3, 2), 3), ((4, 2), 4), ((4, 3), 4)])
    def test_jobs_do_not_change_the_report(self, values, n):
        ts = TargetSet(values)
        baseline = bounded_minimality_search(ts, n)
        for jobs in (2, 3):
            assert bounded_minimality_search(ts, n, jobs=jobs) == baseline

    def test_never_beats_the_formula_on_small_sets(self):
        # searching below the minimum size never yields a witness
        for values in [(3, 2), (4, 3)]:
            ts = TargetSet(values)
            for n in range(2, minimum_size(ts)):
                report = bounded_minimality_search(ts, n)
                assert report.outcome is Outcome.EXHAUSTED, (values, n)

    @pytest.mark.parametrize(
        "values,n,c_size,d_size,expected",
        [
            # Bell(6) = 203 partitions need four 64-bit words per mask
            ((6, 5), 6, 6, 2, ("witness-found", 65400, 0.9953058103975535)),
            ((3, 2), 6, 5, 5, ("exhausted", 4096, 0.9794921875)),
            # witnesses deep in the default n=5 space, whose layer holds many classes
            ((4, 3), 5, 3, 2, ("witness-found", 60583, 0.9878183648878398)),
            ((3, 2), 5, 3, 2, ("witness-found", 22415, 0.9848315859915235)),
            # the 2^26-candidate spaces, nearly all pruned before the hit pass
            ((4, 2), 6, 5, 3, ("exhausted", 67108864, 0.9983775615692139)),
            ((4, 2), 6, 3, 5, ("exhausted", 67108864, 0.9983775615692139)),
        ],
    )
    def test_pinned_reports(self, values, n, c_size, d_size, expected):
        budget = SearchBudget(c_edge_size=c_size, d_edge_size=d_size, max_candidates=CANDIDATE_CAP)
        report = bounded_minimality_search(TargetSet(values), n, budget)
        assert (report.outcome.value, report.examined, report.dedup_ratio) == expected
        if report.witness is not None:
            assert is_one_realization(report.witness, values)

    @pytest.mark.parametrize(
        "values,expected",
        [
            ((4, 2), ("exhausted", 1048576, 0.98980712890625)),
            ((5, 3), ("exhausted", 1048576, 0.98980712890625)),
            ((5, 4), ("witness-found", 263951, 0.9893995476433126)),
            ((4, 3, 2), ("witness-found", 139116, 0.988160959199517)),
        ],
    )
    def test_pinned_reports_at_five_vertices(self, values, expected):
        report = bounded_minimality_search(TargetSet(values), 5)
        assert (report.outcome.value, report.examined, report.dedup_ratio) == expected
        if report.witness is not None:
            assert is_one_realization(report.witness, values)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_the_layer_scan(self, n):
        sizes = [(3, 2), (2, 3)] + ([(2, 2), (3, 3), (4, 2)] if n <= 4 else [])
        targets = [v for r in (2, 3) for v in itertools.combinations(range(2, 7), r)]
        for (c_size, d_size), values in itertools.product(sizes, targets):
            budget = SearchBudget(c_edge_size=c_size, d_edge_size=d_size)
            ts = TargetSet(values)
            expected = layer_scan_search(ts, n, budget)
            assert bounded_minimality_search(ts, n, budget) == expected, (c_size, d_size, values)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_chunks_do_not_change_the_report(self, n, working_bytes):
        # small chunks split the D-masks, so first hits are merged across chunks
        sizes = [(3, 2), (2, 3)] + ([(2, 2), (3, 3), (4, 2)] if n <= 4 else [])
        targets = [v for r in (2, 3) for v in itertools.combinations(range(2, 7), r)]
        cases = [(SearchBudget(c_edge_size=c, d_edge_size=d), TargetSet(values))
                 for (c, d), values in itertools.product(sizes, targets)]
        whole = [bounded_minimality_search(ts, n, budget) for budget, ts in cases]
        for limit in (8, 56, 2048):  # 1, 7 and 256 words
            working_bytes(limit)
            assert [bounded_minimality_search(ts, n, budget) for budget, ts in cases] == whole, limit

    def test_hit_tables_stay_within_the_bound(self, monkeypatch, working_bytes):
        sizes, pruned = [], []

        def recording(kills, kill_d, blocks, want):
            sizes.append(len(kills) * len(kill_d) * kills[0].nbytes)
            return _hits(kills, kill_d, blocks, want)

        def recording_prune(kills, other_all, blocks, want):
            pruned.append(kills.nbytes)  # the prune's arrays are the shape of ``kills``
            return _can_hit(kills, other_all, blocks, want)

        budget = SearchBudget(c_edge_size=4, d_edge_size=2)
        whole = bounded_minimality_search(TargetSet((4, 3)), 5, budget)
        working_bytes(2048)  # 256 words
        monkeypatch.setattr(search, "_hits", recording)
        monkeypatch.setattr(search, "_can_hit", recording_prune)
        assert bounded_minimality_search(TargetSet((4, 3)), 5, budget) == whole
        assert sizes and max(sizes) <= 2048
        assert pruned and max(pruned) <= 2048

    @pytest.mark.parametrize("c_size,d_size,examined,dedup", [(5, 2, 64, 0.828125), (3, 5, 16, 0.6875)])
    def test_edge_size_above_n(self, c_size, d_size, examined, dedup):
        # that side has no subsets: one empty mask, which kills nothing
        budget = SearchBudget(c_edge_size=c_size, d_edge_size=d_size)
        report = bounded_minimality_search(TargetSet((4, 2)), 4, budget)
        assert report == SearchReport(Outcome.EXHAUSTED, None, examined, dedup)

    def test_witness_at_the_formula_size_for_4_3(self):
        # delta({4,3}) = 4 and the variant-two instance is (3,2)-uniform,
        # so the capped search must find some witness on 4 vertices
        report = bounded_minimality_search(TargetSet((4, 3)), 4)
        assert report.outcome is Outcome.WITNESS_FOUND
        assert is_one_realization(report.witness, {4, 3})


class TestCanonicalKeys:
    def test_equal_keys_mean_isomorphic(self):
        n = 3
        c_subsets = list(itertools.combinations(range(n), 3))
        d_subsets = list(itertools.combinations(range(n), 2))
        nd = len(d_subsets)
        keys = canonical_keys(n, 3, 2, np.arange(1 << (len(c_subsets) + nd)))
        by_key: dict[int, list[int]] = {}
        for flat, key in enumerate(keys.tolist()):
            by_key.setdefault(key, []).append(flat)
        groups = [flats for flats in by_key.values() if len(flats) > 1]
        assert groups, "3-vertex space must contain isomorphic duplicates"
        for flats in groups:
            rep = hypergraph_from_masks(n, flats[0] >> nd, flats[0] & (1 << nd) - 1, c_subsets, d_subsets)
            for other in flats[1:]:
                h = hypergraph_from_masks(n, other >> nd, other & (1 << nd) - 1, c_subsets, d_subsets)
                assert are_isomorphic(rep, h) is not None

    def test_distinct_keys_mean_non_isomorphic(self):
        n = 3
        c_subsets = list(itertools.combinations(range(n), 3))
        d_subsets = list(itertools.combinations(range(n), 2))
        nd = len(d_subsets)
        keys = canonical_keys(n, 3, 2, np.arange(1 << (len(c_subsets) + nd)))
        reps: dict[int, int] = {}
        for flat, key in enumerate(keys.tolist()):
            reps.setdefault(key, flat)
        chosen = sorted(reps.values())
        for a in chosen:
            for b in chosen:
                if a >= b:
                    continue
                ha = hypergraph_from_masks(n, a >> nd, a & (1 << nd) - 1, c_subsets, d_subsets)
                hb = hypergraph_from_masks(n, b >> nd, b & (1 << nd) - 1, c_subsets, d_subsets)
                assert are_isomorphic(ha, hb) is None

    @pytest.mark.parametrize("n,c_size,d_size", [(4, 3, 2), (5, 3, 2), (5, 2, 3)])
    def test_match_the_per_permutation_keys(self, n, c_size, d_size):
        c_subsets, d_subsets = (list(itertools.combinations(range(n), size)) for size in (c_size, d_size))
        total = 1 << (len(c_subsets) + len(d_subsets))
        flats = np.array(sorted(random.Random(n).sample(range(total), min(total, 3000))))
        expected = per_permutation_keys(n, c_subsets, d_subsets, flats)
        assert (canonical_keys(n, c_size, d_size, flats) == expected).all()

    def test_small_chunks_give_the_same_keys(self, working_bytes):
        n = 4
        c_subsets, d_subsets = (list(itertools.combinations(range(n), size)) for size in (3, 2))
        flats = np.arange(1 << (len(c_subsets) + len(d_subsets)))
        whole = canonical_keys(n, 3, 2, flats)
        working_bytes(7 * 24 * 8)  # 7 candidates of 24 permutations a chunk
        assert (canonical_keys(n, 3, 2, flats) == whole).all()

    def test_identity_key_bounds(self):
        n = 4
        c_subsets = list(itertools.combinations(range(n), 3))
        d_subsets = list(itertools.combinations(range(n), 2))
        nd = len(d_subsets)
        keys = canonical_keys(n, 3, 2, np.arange(1 << (len(c_subsets) + nd)))
        flat = np.arange(len(keys), dtype=np.int64)
        # canonical form never exceeds the candidate's own packed masks
        assert (keys <= flat).all()
        # edge counts are preserved by permutations
        for probe in (0, 17, 555, len(keys) - 1):
            key = int(keys[probe])
            assert bin(key >> nd).count("1") == bin(probe >> nd).count("1")
            assert bin(key & (1 << nd) - 1).count("1") == bin(probe & (1 << nd) - 1).count("1")


def class_scan(ts, n, c_size, d_size):
    """Reference search: spectrum-test the first candidate of each
    isomorphism class in candidate order, stop at the first one-realization."""
    c_subsets, d_subsets = (list(itertools.combinations(range(n), size)) for size in (c_size, d_size))
    nd = len(d_subsets)
    total = 1 << (len(c_subsets) + nd)
    order = sorted(range(total), key=lambda f: (f.bit_count(), f))
    keys = canonical_keys(n, c_size, d_size, np.arange(total))
    seen = set()
    for pos, flat in enumerate(order):
        if keys[flat] in seen:
            continue
        seen.add(keys[flat])
        h = hypergraph_from_masks(n, flat >> nd, flat & (1 << nd) - 1, c_subsets, d_subsets)
        if is_one_realization(h, ts.values):
            return SearchReport(Outcome.WITNESS_FOUND, h, pos + 1, (pos + 1 - len(seen)) / (pos + 1))
    return SearchReport(Outcome.EXHAUSTED, None, len(order), (len(order) - len(seen)) / len(order))


class TestKillMasks:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("c_size,d_size", [(3, 2), (2, 3)])
    def test_search_matches_the_class_scan(self, n, c_size, d_size):
        budget = SearchBudget(c_edge_size=c_size, d_edge_size=d_size)
        for values in itertools.combinations(range(2, 6), 2):
            ts = TargetSet(values)
            assert bounded_minimality_search(ts, n, budget) == class_scan(ts, n, c_size, d_size), values

    def test_witness_layer_follows_the_candidate_order(self):
        for bits in range(11):
            order = sorted(range(1 << bits), key=lambda f: (f.bit_count(), f))
            for nd in {0, bits // 2, bits}:
                for pos, flat in enumerate(order):
                    layer = _layer_until(flat, d_order(nd))
                    m = flat.bit_count()
                    assert sum(comb(bits, j) for j in range(m)) + len(layer) - 1 == pos, (bits, nd, flat)
                    assert layer.tolist() == order[pos - len(layer) + 1 : pos + 1], (bits, nd, flat)

    @pytest.mark.parametrize("nd", range(16))
    def test_witness_layer_matches_the_per_count_layer(self, nd):
        rng = random.Random(nd)
        order = d_order(nd)
        for nc in (0, 1, 4, 6):
            bits = nc + nd
            flats = [rng.randrange(1 << bits) for _ in range(10)]
            flats += [rng.randrange(1 << nd) for _ in range(5)]  # C-mask 0
            # the last id of each layer: its set bits on top
            flats += [((1 << m) - 1) << (bits - m) for m in range(bits + 1)]
            for flat in flats:
                expected = per_count_layer_until(flat, nd)
                layer = _layer_until(flat, order)
                assert layer.dtype == expected.dtype and layer.tolist() == expected.tolist(), (nc, nd, flat)

    @pytest.mark.parametrize("words", [1, 2, 3, 4])
    def test_distinct_rows(self, words):
        rng = np.random.default_rng(words)
        # few distinct values per word, and planted copies of earlier rows
        table = rng.integers(0, 3, size=(500, words), dtype=np.uint64) << np.uint64(61)
        table[rng.integers(0, 500, 200)] = table[rng.integers(0, 500, 200)]
        kills, row_of = _distinct_rows(table)
        assert (kills[row_of] == table).all()
        assert len(np.unique(kills, axis=0)) == len(kills) == len(np.unique(table, axis=0))

    def test_hits_match_brute_force(self):
        # one word of partitions at n=5, four at n=6
        for n, c_size, d_size in ((5, 3, 2), (6, 2, 5)):
            c_subsets, d_subsets = (list(itertools.combinations(range(n), size)) for size in (c_size, d_size))
            nd = len(d_subsets)
            kill_c, kill_d, blocks = kill_tables(n, c_subsets, d_subsets)
            assert kill_c.shape[1] == (1 if n == 5 else 4)
            flats = random.Random(n).sample(range(1 << (len(c_subsets) + nd)), 200 if n == 5 else 60)
            # and a witness, so that both verdicts are met
            budget = SearchBudget(c_edge_size=c_size, d_edge_size=d_size)
            h = bounded_minimality_search(TargetSet((3, 2)), n, budget).witness
            mask_c = sum(1 << c_subsets.index(e) for e in h.c_edges)
            mask_d = sum(1 << d_subsets.index(e) for e in h.d_edges)
            flats.append(mask_c << nd | mask_d)
            targets = [v for r in (2, 3) for v in itertools.combinations(range(2, n + 1), r)]
            hits = 0
            for flat in flats:
                h = hypergraph_from_masks(n, flat >> nd, flat & (1 << nd) - 1, c_subsets, d_subsets)
                spectrum = brute_force_spectrum(h)
                for values in targets:
                    want = np.isin(np.arange(1, n + 1), values)
                    verdict = bool(_hits(kill_c[[flat >> nd]], kill_d, blocks, want)[0, flat & (1 << nd) - 1])
                    one = tuple(int(k in values) for k in range(1, max(values) + 1))
                    assert verdict == (spectrum == one), (n, flat, values)
                    hits += verdict
            assert hits, "the sample must contain one-realizations"

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_burnside_count_matches_the_keys(self, n):
        # per edge count m: the Polya count equals the distinct keys with m edges
        for c_size, d_size in itertools.product(range(2, n + 1), repeat=2):
            c_subsets, d_subsets = (list(itertools.combinations(range(n), size)) for size in (c_size, d_size))
            flats = np.arange(1 << (len(c_subsets) + len(d_subsets)))
            keys = canonical_keys(n, c_size, d_size, flats)
            edges = np.bitwise_count(flats)
            expected = [len(np.unique(keys[edges == m])) for m in range(len(c_subsets) + len(d_subsets) + 1)]
            assert class_counts(n, c_subsets, d_subsets) == tuple(expected), (c_size, d_size)

    @pytest.mark.parametrize("n", [5, 6])
    def test_class_counts_match_every_permutation(self, n):
        # the cycle types read off the partitions' block shapes against
        # Burnside over all n! permutations, on every space within the cap
        for c_size, d_size in itertools.product(range(2, n + 1), repeat=2):
            c_subsets, d_subsets = (list(itertools.combinations(range(n), size)) for size in (c_size, d_size))
            if len(c_subsets) + len(d_subsets) <= 26:
                expected = subset_image_class_counts(n, c_subsets, d_subsets)
                assert class_counts(n, c_subsets, d_subsets) == tuple(expected), (c_size, d_size)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_kill_tables_match_the_definition(self, n):
        parts = list(all_restricted_growth_strings(n))
        assert search._partition_masks(n)[0].tolist() == [list(p) for p in parts]

        def bits(row):
            return np.unpackbits(row.view(np.uint8), bitorder="little")[: len(parts)].astype(bool).tolist()

        # every pair of edge sizes, n + 1 with no subsets; at most 12 subsets
        # a side keeps the OR tables small at n=6
        for c_size, d_size in itertools.product(range(2, n + 2), repeat=2):
            c_subsets, d_subsets = (list(itertools.combinations(range(n), size))[:12] for size in (c_size, d_size))
            kill_c, kill_d, blocks = kill_tables(n, c_subsets, d_subsets)
            assert (len(kill_c), len(kill_d)) == (1 << len(c_subsets), 1 << len(d_subsets))
            for subsets, kills, killed in ((c_subsets, kill_c, len), (d_subsets, kill_d, lambda s: 1)):
                for i, s in enumerate(subsets):
                    labels = [len({p[v] for v in s}) for p in parts]
                    assert bits(kills[1 << i]) == [count == killed(s) for count in labels], s
                # a mask's row is the OR of its subsets' rows
                assert (kills[-1] == np.bitwise_or.reduce(kills[[1 << i for i in range(len(subsets))]])).all()
            assert [bits(row) for row in blocks] == [[max(p) + 1 == k for p in parts] for k in range(1, n + 1)]
            if comb(n, c_size) <= 12 and comb(n, d_size) <= 12:
                # where no list was cut, these are the candidate space's tables
                space = search._space(n, c_size, d_size)
                assert (space.kill_c == kill_c).all() and (space.kill_d == kill_d).all()


class TestWordHits:
    """``_hits`` against the stacked ``(i, mask_d, word)`` hit test."""

    @pytest.mark.parametrize("words", [1, 2, 3, 4])
    def test_random_rows(self, words):
        rng = np.random.default_rng(words)
        n = 6
        # each partition bit gets one block count
        labels = rng.integers(0, n, 64 * words)
        bits = (labels == np.arange(n)[:, None]).reshape(n, words, 64)
        blocks = (bits.astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum(axis=2, dtype=np.uint64)
        hits = 0
        for spare in (2, 8, 40):
            # C rows that spare about ``spare`` partitions each, random D rows
            spared = rng.random((37, 64 * words)) < spare / (64 * words)
            kills = ~np.packbits(spared, axis=1, bitorder="little").view("<u8")
            kill_d = rng.integers(0, 1 << 64, size=(23, words), dtype=np.uint64)
            for want_bits in range(1 << n):
                want = (want_bits >> np.arange(n) & 1).astype(bool)
                hit = _hits(kills, kill_d, blocks, want)
                assert (hit == stacked_hits(kills, kill_d, blocks, want)).all(), (spare, want_bits)
                hits += hit.sum()
        assert hits, "some pair must hit"

    @pytest.mark.parametrize(
        "values,n,c_size,d_size",
        [((3, 2), 5, 3, 2), ((4, 3), 5, 3, 2), ((3, 2), 6, 3, 5), ((4, 2), 6, 5, 3), ((5, 4), 6, 2, 5)],
    )
    def test_real_pair_tables(self, values, n, c_size, d_size, monkeypatch):
        c_subsets, d_subsets = (list(itertools.combinations(range(n), size)) for size in (c_size, d_size))
        kill_c, kill_d, blocks = kill_tables(n, c_subsets, d_subsets)
        # every table the search builds
        calls = []

        def checked(kills, kill_d, blocks, want):
            hit = _hits(kills, kill_d, blocks, want)
            assert (hit == stacked_hits(kills, kill_d, blocks, want)).all()
            calls.append(hit.any())
            return hit

        monkeypatch.setattr(search, "_hits", checked)
        budget = SearchBudget(c_edge_size=c_size, d_edge_size=d_size, max_candidates=CANDIDATE_CAP)
        report = bounded_minimality_search(TargetSet(values), n, budget)
        assert any(calls) == (report.outcome is Outcome.WITNESS_FOUND)
        # and, for every wanted set, the masks of at most one edge and a sample
        # of the distinct kill masks of each side
        rng = np.random.default_rng(n)
        sides = []
        for kills, size in ((kill_c, len(c_subsets)), (kill_d, len(d_subsets))):
            distinct, _ = _distinct_rows(kills)
            sample = distinct[rng.choice(len(distinct), min(len(distinct), 200), replace=False)]
            sides.append(np.concatenate((kills[[0] + [1 << i for i in range(size)]], sample)))
        for want_bits in range(1 << n):
            want = (want_bits >> np.arange(n) & 1).astype(bool)
            assert (_hits(*sides, blocks, want) == stacked_hits(*sides, blocks, want)).all(), want_bits


class TestSharedTables:
    def test_partition_masks_are_read_only(self):
        # n=1 starts the recurrence from an empty subset and a 1 x 1 pair table
        for n in (1, 5, 7):
            tables = search._partition_masks(n)
            assert search._partition_masks(n) is tables
            for table in tables:
                with pytest.raises(ValueError, match="read-only"):
                    table[0] = 0
        # the candidate space reads the shared block-count rows
        assert search._space(5, 3, 2).blocks is search._partition_masks(5)[3]

    @pytest.mark.parametrize("n", range(1, 10))
    def test_partition_masks_match_the_popcount_build(self, n):
        # through __wrapped__, so that the session's cache keeps no n=9 tables
        built = search._partition_masks.__wrapped__(n)
        for table, expected in zip(built, popcount_partition_masks(n), strict=True):
            assert (table.dtype, table.shape) == (expected.dtype, expected.shape)
            assert table.flags.c_contiguous and (table == expected).all()

    @pytest.mark.parametrize("n,mib", [(9, 16), (10, 64)])
    def test_partition_masks_peak_memory(self, n, mib):
        # the popcount build peaks at 126 MiB at n=9 and about 1 GB at n=10
        tracemalloc.start()
        try:
            search._partition_masks.__wrapped__(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib << 20, peak

    def test_class_counts_are_new_lists(self):
        c_subsets, d_subsets = (list(itertools.combinations(range(4), size)) for size in (3, 2))
        counts = class_counts(4, c_subsets, d_subsets)
        assert class_counts(4, c_subsets, d_subsets) is not counts
        # a caller's list of the counts is its own
        expected = list(counts)
        changed = list(counts)
        changed[0] = -1
        changed.append(7)
        assert list(class_counts(4, c_subsets, d_subsets)) == expected
        # the space's counts are the builder's, frozen
        space = search._space(4, 3, 2)
        assert space.classes == counts and isinstance(space.classes, tuple)

    def test_key_tables_are_read_only(self):
        space = search._space(5, 3, 2)
        # one table per byte of the C-mask and of the D-mask, a column per permutation
        assert [table.shape for table in space.keys] == [(256, 120), (4, 120)] * 2
        assert sum(table.nbytes for table in space.keys) == 499_200
        built = search._key_tables(5, space.c_subsets, space.d_subsets)
        assert all((a == b).all() for a, b in zip(built, space.keys, strict=True))
        for table in space.keys:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0

    def test_space_is_read_only(self):
        space = search._space(5, 3, 2)
        assert search._space(5, 3, 2) is space
        assert space.classes == class_counts(5, space.c_subsets, space.d_subsets)
        assert isinstance(space.c_subsets, tuple) and isinstance(space.d_subsets, tuple)
        arrays = [value for value in space if isinstance(value, np.ndarray)] + list(space.keys)
        assert len(arrays) == 8
        assert space.d_order.dtype == np.int32
        assert space.d_order.tolist() == d_order(len(space.d_subsets)).tolist()
        for table in arrays:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0

    def test_warm_and_cold_keys_agree(self):
        flats = np.array(sorted(random.Random(7).sample(range(1 << 20), 2000)))
        search._space.cache_clear()
        cold = canonical_keys(5, 2, 3, flats)
        assert search._space.cache_info().misses == 1
        warm = canonical_keys(5, 2, 3, flats)
        assert search._space.cache_info().hits == 1
        assert (cold == warm).all()
        subsets = [list(itertools.combinations(range(5), size)) for size in (2, 3)]
        assert (cold == per_permutation_keys(5, *subsets, flats)).all()

    def test_one_space_is_kept(self):
        search._space.cache_clear()
        # two witness searches on different vertex counts and edge sizes
        assert bounded_minimality_search(TargetSet((3, 2)), 5).outcome is Outcome.WITNESS_FOUND
        budget = SearchBudget(c_edge_size=6, d_edge_size=2)
        assert bounded_minimality_search(TargetSet((6, 5)), 6, budget).outcome is Outcome.WITNESS_FOUND
        info = search._space.cache_info()
        assert (info.misses, info.currsize, info.maxsize) == (2, 1, 1)

    def test_rejected_searches_build_no_space(self):
        search._space.cache_clear()
        assert bounded_minimality_search(TargetSet((4, 2)), 5).outcome is Outcome.EXHAUSTED
        info = search._space.cache_info()
        # the default sizes at n=6 exceed the budget before any space is built
        assert bounded_minimality_search(TargetSet((4, 2)), 6).outcome is Outcome.BUDGET_EXCEEDED
        with pytest.raises(ValueError, match="exceeds the search cap"):
            bounded_minimality_search(TargetSet((4, 2)), 7)
        with pytest.raises(ValueError, match="must be an int"):
            bounded_minimality_search(TargetSet((4, 2)), True)
        with pytest.raises(ValueError, match="must be an int"):
            bounded_minimality_search(TargetSet((4, 2)), 5, SearchBudget(c_edge_size=3.0))
        assert search._space.cache_info() == info

    def test_no_state_leaks_between_searches(self):
        # the pinned n=5 searches and CI's two exhausted 2^26-candidate n=6
        # spaces, from an empty cache, in two orders: each order reuses a
        # retained 32 MiB space once, then replaces it
        cases = [((4, 2), 5, 3, 2), ((5, 3), 5, 3, 2), ((5, 4), 5, 3, 2), ((4, 3, 2), 5, 3, 2),
                 ((4, 2), 6, 5, 3), ((4, 3), 6, 5, 3), ((3, 2), 6, 3, 5)]

        def run(values, n, c_size, d_size):
            budget = SearchBudget(c_edge_size=c_size, d_edge_size=d_size, max_candidates=CANDIDATE_CAP)
            report = bounded_minimality_search(TargetSet(values), n, budget)
            witness = to_document(report.witness) if report.witness is not None else None
            return report.outcome.value, report.examined, report.dedup_ratio, witness

        def fresh(values, n, c_size, d_size):
            args = ["--set", ",".join(map(str, values)), "--n", str(n), "--c-size", str(c_size),
                    "--d-size", str(d_size), "--max-candidates", str(CANDIDATE_CAP), "--format", "json"]
            out = subprocess.run([sys.executable, "-m", "mixedhg.cli", "search-min", *args],
                                 capture_output=True, text=True, check=True).stdout
            report = json.loads(out)
            return report["outcome"], report["examined"], report["dedup_ratio"], report["witness"]

        expected = {case: fresh(*case) for case in cases}
        for order in (cases, cases[::-1]):
            search._partition_masks.cache_clear()
            search._space.cache_clear()
            assert {case: run(*case) for case in order} == expected
            assert search._space.cache_info().misses == 3
        assert [expected[case][1] for case in cases] == [1048576, 1048576, 263951, 139116] + [67108864] * 3


def d_order(nd):
    """The D-masks by edge count, then mask, as the search orders and keeps them."""
    return np.argsort(np.bitwise_count(np.arange(1 << nd)), kind="stable").astype(np.int32)


def as_int(row):
    """A packed partition bitset as one int, bit ``j`` for partition ``j``."""
    return int.from_bytes(row.tobytes(), "little")


class TestPrune:
    def test_drops_exactly_the_masks_that_cannot_hit(self):
        # over test_matches_the_layer_scan's grid at n <= 4: each side's prune
        # keeps a mask exactly when it spares a partition of every wanted
        # block count and the other side can kill every unwanted partition it
        # spares, and no dropped mask has a hit in the unpruned table
        dropped_by = Counter()
        for n in (2, 3, 4):
            sizes = [(3, 2), (2, 3), (2, 2), (3, 3), (4, 2)]
            targets = [v for r in (2, 3) for v in itertools.combinations(range(2, n + 1), r)]
            for (c_size, d_size), values in itertools.product(sizes, targets):
                subsets = [list(itertools.combinations(range(n), size)) for size in (c_size, d_size)]
                kill_c, kill_d, blocks = kill_tables(n, *subsets)
                want = np.isin(np.arange(1, n + 1), values)
                kills, _ = _distinct_rows(kill_c)
                hits = _hits(kills, kill_d, blocks, want)
                block_bits = [as_int(row) for row in blocks]
                spares = sum(block_bits)  # every partition
                unwanted = sum(bits for k, bits in enumerate(block_bits, start=1) if k not in values)
                for rows, other_all, hit in ((kills, kill_d[-1], hits.any(axis=1)), (kill_d, kill_c[-1], hits.any(axis=0))):
                    can = _can_hit(rows, other_all, blocks, want)
                    assert not (hit & ~can).any(), (n, c_size, d_size, values)
                    for row, kept in zip(rows, can.tolist()):
                        spared = spares & ~as_int(row)
                        a = all(spared & block_bits[k - 1] for k in values)
                        b = not spared & unwanted & ~as_int(other_all)
                        assert kept == (a and b), (n, c_size, d_size, values)
                        dropped_by["a"] += b and not a
                        dropped_by["b"] += a and not b
        assert dropped_by["a"] and dropped_by["b"], dropped_by


class TestLowerBound:
    """The paper's minimum size checked over every mixed hypergraph, edges of
    any size, by the product of partition choices in ``_oracles``."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_choice_matches_every_hypergraph(self, n):
        # each vertex set of size >= 2 is a C-edge, a D-edge, both or neither
        sets = [s for size in range(2, n + 1) for s in itertools.combinations(range(n), size)]
        realized = set()
        for kinds in itertools.product(range(4), repeat=len(sets)):
            h = MixedHypergraph(n, [s for s, k in zip(sets, kinds) if k & 1], [s for s, k in zip(sets, kinds) if k & 2])
            spectrum = brute_force_spectrum(h)
            if set(spectrum) <= {0, 1}:
                realized.add(tuple(k for k, count in enumerate(spectrum, start=1) if count))
        for r in range(1, n + 1):
            for values in itertools.combinations(range(1, n + 1), r):
                witness = one_realization_by_choice(values, n)
                assert (witness is not None) == (values in realized), values
                assert witness is None or is_one_realization(witness, values), values

    @pytest.mark.parametrize("values", [(4, 3, 2), (4, 2), (5, 4, 3), (6, 5, 4), (5, 3), (6, 4), (5, 2)])
    def test_none_below_the_minimum_size(self, values):
        assert one_realization_by_choice(values, minimum_size(TargetSet(values)) - 1) is None

    @pytest.mark.parametrize("values", [(3, 2), (4, 3), (4, 2), (4, 3, 2), (5, 4, 3), (5, 4, 2)])
    def test_witness_at_the_minimum_size(self, values):
        n = minimum_size(TargetSet(values))
        witness = one_realization_by_choice(values, n)
        assert witness.n == n and is_one_realization(witness, values)
