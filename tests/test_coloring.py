import os

import pytest

from mixedhg import (
    MixedHypergraph,
    Partition,
    Spectrum,
    TargetSet,
    all_feasible_partitions,
    chromatic_spectrum,
    construct_one,
    construct_two,
    enumerate_strict,
    feasible_set,
    gaps,
    has_gap_at,
    is_gap_free,
    is_proper,
)

from mixedhg.coloring import _edge_plan, _prefix_shards, map_shards, worker_count

from _oracles import brute_force_spectrum, stirling_second


class TestPartition:
    def test_valid_strings(self):
        assert Partition((0,)).blocks == ((0,),)
        p = Partition((0, 1, 0, 2))
        assert p.num_blocks == 3
        assert p.blocks == ((0, 2), (1,), (3,))

    @pytest.mark.parametrize("bad", [(), (1,), (0, 2), (0, 1, 3)])
    def test_invalid_strings(self, bad):
        with pytest.raises(ValueError):
            Partition(bad)

    def test_from_blocks_canonicalizes(self):
        p = Partition.from_blocks([[3], [1, 2], [0, 4]])
        assert p.assignment == (0, 1, 1, 2, 0)
        assert Partition.from_blocks(p.blocks) == p

    def test_from_blocks_rejects_bad_input(self):
        with pytest.raises(ValueError, match="two blocks"):
            Partition.from_blocks([[0, 1], [1, 2]])
        with pytest.raises(ValueError, match="cover"):
            Partition.from_blocks([[0], [2]])
        with pytest.raises(ValueError, match="nonempty"):
            Partition.from_blocks([[0], []])


class TestIsProper:
    def test_c_edge_needs_a_common_color(self):
        h = MixedHypergraph(2, [(0, 1)], [])
        assert is_proper(h, Partition((0, 0)))
        assert not is_proper(h, Partition((0, 1)))

    def test_d_edge_rejects_monochrome(self):
        h = MixedHypergraph(2, [], [(0, 1)])
        assert not is_proper(h, Partition((0, 0)))
        assert is_proper(h, Partition((0, 1)))

    def test_mismatched_partition(self):
        h = MixedHypergraph(3, [], [])
        with pytest.raises(ValueError, match="covers"):
            is_proper(h, Partition((0, 1)))


class TestEnumerateStrict:
    def test_edgeless_pair(self):
        h = MixedHypergraph(2, [], [])
        assert enumerate_strict(h, 2) == [Partition((0, 1))]
        assert enumerate_strict(h, 1) == [Partition((0, 0))]

    def test_gap_value_has_no_colorings(self):
        h = construct_one(TargetSet((4, 2)))
        assert enumerate_strict(h, 3) == []

    def test_two_coloring_is_the_second_coordinate(self):
        h = construct_one(TargetSet((4, 2)))
        assert enumerate_strict(h, 2) == [Partition((0, 1, 0, 1, 0, 1))]

    def test_k_out_of_range(self):
        h = MixedHypergraph(2, [], [])
        with pytest.raises(ValueError):
            enumerate_strict(h, 0)
        with pytest.raises(ValueError):
            enumerate_strict(h, 3)

    def test_lexicographic_order(self):
        h = MixedHypergraph(4, [], [])
        got = [p.assignment for p in enumerate_strict(h, 2)]
        assert got == sorted(got)
        assert len(got) == stirling_second(4, 2)


class TestSpectrum:
    def test_edgeless_pair(self):
        assert chromatic_spectrum(MixedHypergraph(2, [], [])).counts == (1, 1)

    def test_d_triangle(self):
        h = MixedHypergraph(3, [], [(0, 1), (0, 2), (1, 2)])
        assert chromatic_spectrum(h).counts == (0, 0, 1)

    def test_generated_pair_instance(self):
        h = construct_one(TargetSet((4, 2)))
        assert chromatic_spectrum(h).counts == (0, 1, 0, 1)

    def test_variant_two_instance(self):
        h = construct_two(TargetSet((4, 3)))
        assert chromatic_spectrum(h).counts == (0, 0, 1, 1)

    def test_conflicting_bi_edge_is_uncolorable(self):
        h = MixedHypergraph(2, [(0, 1)], [(0, 1)])
        spectrum = chromatic_spectrum(h)
        assert spectrum.counts == ()
        assert not spectrum.is_colorable
        assert spectrum.lower_chromatic_number is None
        assert spectrum.upper_chromatic_number is None
        assert feasible_set(h) == ()

    def test_chromatic_numbers(self):
        spectrum = chromatic_spectrum(construct_one(TargetSet((5, 3, 2))))
        assert spectrum.counts == (0, 1, 1, 0, 1)
        assert spectrum.lower_chromatic_number == 2
        assert spectrum.upper_chromatic_number == 5
        assert spectrum.entry(5) == 1
        assert spectrum.entry(9) == 0
        with pytest.raises(ValueError):
            spectrum.entry(0)

    def test_trailing_zeros_rejected(self):
        with pytest.raises(ValueError):
            Spectrum((1, 0))

    def test_edgeless_matches_stirling(self):
        for n in range(1, 7):
            h = MixedHypergraph(n, [], [])
            expect = tuple(stirling_second(n, k) for k in range(1, n + 1))
            assert chromatic_spectrum(h).counts == expect

    def test_matches_brute_force_on_small_cases(self):
        cases = [
            MixedHypergraph(4, [(0, 1, 2), (1, 2, 3)], [(0, 3)]),
            MixedHypergraph(5, [(0, 1, 4)], [(0, 1), (2, 3), (3, 4)]),
            construct_one(TargetSet((3, 2))),
            construct_two(TargetSet((3, 2))),
        ]
        for h in cases:
            assert chromatic_spectrum(h).counts == brute_force_spectrum(h)


class TestFeasibleSets:
    def test_three_value_instance(self):
        assert feasible_set(construct_one(TargetSet((5, 3, 2)))) == (2, 3, 5)

    def test_edgeless_triple(self):
        assert feasible_set(MixedHypergraph(3, [], [])) == (1, 2, 3)

    def test_gap_queries(self):
        assert has_gap_at((2, 4), 3)
        assert not has_gap_at((2, 4), 2)
        assert not has_gap_at((2, 3), 3)
        assert not has_gap_at((), 1)
        assert is_gap_free((2, 3, 4))
        assert not is_gap_free((2, 4))
        assert is_gap_free((5,))
        assert gaps((2, 6)) == (3, 4, 5)
        assert gaps((2, 3)) == ()
        assert gaps(()) == ()


class TestJobs:
    def test_worker_count_is_capped_at_usable_cpus(self):
        # only computed: a pool of this size is never started
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count()
        assert 1 <= worker_count(5000) <= cpus
        assert worker_count(1) == 1

    def test_prefix_shards_follow_the_worker_cap(self):
        h = MixedHypergraph(8, [], [])
        shards = _prefix_shards(_edge_plan(h), h.n, None, 5000)
        assert len(shards) <= 4 * worker_count(5000)
        prefixes = [p for shard in shards for p in shard]
        assert prefixes == sorted(prefixes)

    def test_map_shards_keeps_shard_order(self):
        shards = [2, 3, 5, 7, 11]
        expected = [divmod(100, s) for s in shards]
        for jobs in (1, 2):
            assert map_shards(divmod, (100,), shards, jobs) == expected

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_enumeration_identical_across_workers(self, jobs):
        h = construct_one(TargetSet((5, 3, 2)))
        assert all_feasible_partitions(h, jobs=jobs) == all_feasible_partitions(h)
        assert enumerate_strict(h, 3, jobs=jobs) == enumerate_strict(h, 3)

    def test_spectrum_identical_across_workers(self):
        h = MixedHypergraph(6, [(0, 1, 2), (3, 4, 5)], [(0, 5), (1, 4)])
        baseline = chromatic_spectrum(h)
        for jobs in (2, 4):
            assert chromatic_spectrum(h, jobs=jobs) == baseline

    def test_random_instances_identical_across_workers(self):
        import itertools
        import random

        rng = random.Random(5150)
        for _ in range(6):
            n = rng.randint(4, 7)
            pool = list(itertools.combinations(range(n), 2)) + list(
                itertools.combinations(range(n), 3)
            )
            h = MixedHypergraph(
                n,
                [rng.choice(pool) for _ in range(rng.randint(0, 3))],
                [rng.choice(pool) for _ in range(rng.randint(0, 3))],
            )
            assert all_feasible_partitions(h, jobs=2) == all_feasible_partitions(h)
            assert chromatic_spectrum(h, jobs=2) == chromatic_spectrum(h)
