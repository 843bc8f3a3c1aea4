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
from mixedhg.search import canonical_keys, edge_subsets, hypergraph_from_masks


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
            SearchBudget(max_vertices=7)
        with pytest.raises(ValueError):
            SearchBudget(c_edge_size=1)
        with pytest.raises(ValueError):
            SearchBudget(max_candidates=0)

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
        with pytest.raises(ValueError, match="exceeds"):
            bounded_minimality_search(TargetSet((4, 2)), 7)

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

    def test_witness_at_the_formula_size_for_4_3(self):
        # delta({4,3}) = 4 and the variant-two instance is (3,2)-uniform,
        # so the capped search must find some witness on 4 vertices
        report = bounded_minimality_search(TargetSet((4, 3)), 4)
        assert report.outcome is Outcome.WITNESS_FOUND
        assert is_one_realization(report.witness, {4, 3})


class TestCanonicalKeys:
    def test_equal_keys_mean_isomorphic(self):
        n = 3
        c_subsets = edge_subsets(n, 3)
        d_subsets = edge_subsets(n, 2)
        keys = canonical_keys(n, c_subsets, d_subsets)
        nd = len(d_subsets)
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
        c_subsets = edge_subsets(n, 3)
        d_subsets = edge_subsets(n, 2)
        keys = canonical_keys(n, c_subsets, d_subsets)
        nd = len(d_subsets)
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

    def test_identity_key_bounds(self):
        n = 4
        c_subsets = edge_subsets(n, 3)
        d_subsets = edge_subsets(n, 2)
        keys = canonical_keys(n, c_subsets, d_subsets)
        nd = len(d_subsets)
        flat = np.arange(len(keys), dtype=np.int64)
        # canonical form never exceeds the candidate's own packed masks
        assert (keys <= flat).all()
        # edge counts are preserved by permutations
        for probe in (0, 17, 555, len(keys) - 1):
            key = int(keys[probe])
            assert bin(key >> nd).count("1") == bin(probe >> nd).count("1")
            assert bin(key & (1 << nd) - 1).count("1") == bin(probe & (1 << nd) - 1).count("1")
