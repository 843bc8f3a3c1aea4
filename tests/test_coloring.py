import concurrent.futures
import copy
import dataclasses
import gc
import itertools
import json
import multiprocessing.process
import os
import pickle
import random
import re
import tracemalloc
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    smallest_one_realization,
)

from mixedhg import coloring
from mixedhg.coloring import (
    _counting_plan,
    _frontier_counts,
    _greedy_order,
)

from _oracles import (
    brute_force_partitions,
    brute_force_spectrum,
    column_zip_partitions,
    dict_frontier_counts,
    grouped_partition_rows,
    leave_points,
    neighbourhoods,
    per_edge_partition_rows,
    stirling_second,
)

POOL = Path(__file__).resolve().parent.parent / "bench" / "sparse_pool.json"


@pytest.fixture
def no_processes(monkeypatch):
    """Make starting a process pool or any process raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    # the base of multiprocessing.Process and of every start method's process class
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)


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

    def test_rejects_bools(self):
        # True == 1, so without a type check (0, True) would equal Partition((0, 1))
        for bad in [(0, True), (False,)]:
            with pytest.raises(ValueError, match="restricted-growth"):
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
        with pytest.raises(ValueError, match="not an integer"):
            Partition.from_blocks([[0, True]])
        with pytest.raises(ValueError, match="not an integer"):
            Partition.from_blocks([[0], [1.0]])
        # values that do not compare with an int are refused before any sorting
        for blocks in ([[0, "a"]], [[0], ["a"]], [[0, None]]):
            with pytest.raises(ValueError, match="not an integer"):
                Partition.from_blocks(blocks)

    def test_huge_inputs_give_short_messages(self):
        for call in (lambda: Partition(tuple(range(1, 100_000))), lambda: Partition.from_blocks([["x" * 100_000]])):
            with pytest.raises(ValueError) as info:
                call()
            # the CLI prints it as one "error: ..." line, as it does every other input error
            assert len(f"error: {info.value}\n".encode()) < 256, str(info.value)


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

    @pytest.mark.parametrize("k", [2.5, True, 2.0, "2", None])
    def test_k_must_be_an_int(self, k):
        # 2.5 used to list the six 3-block partitions, True the one 1-block partition
        with pytest.raises(ValueError, match="k must be an int"):
            enumerate_strict(MixedHypergraph(4, [], []), k)

    def test_feasible_set_and_enumerate_strict_take_no_jobs(self):
        h = MixedHypergraph(3, [], [])
        with pytest.raises(TypeError):
            enumerate_strict(h, 2, jobs=2)
        with pytest.raises(TypeError):
            feasible_set(h, jobs=2)

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

    def test_entry_needs_an_int(self):
        for spectrum in (Spectrum((1, 1)), Spectrum((1,))):
            for k in (1.5, True, "1"):
                with pytest.raises(ValueError) as info:
                    spectrum.entry(k)
                assert str(info.value) == f"block count must be an int, got {k!r}"
        with pytest.raises(ValueError, match="block counts start at 1"):
            Spectrum((1,)).entry(0)

    @pytest.mark.parametrize("bad", [1.5, True, "a"])
    def test_counts_must_be_ints(self, bad):
        with pytest.raises(ValueError) as info:
            Spectrum((bad,))
        assert str(info.value) == f"spectrum entries must be ints, got {bad!r}"

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


def both_ends_path(n: int) -> MixedHypergraph:
    """A D-path on ``n`` (even) vertices numbered from both ends: 0, n-1, 1, n-2, ..."""
    walk = [v for i in range(n // 2) for v in (i, n - 1 - i)]
    return MixedHypergraph(n, [], list(zip(walk, walk[1:])))


def sparse_instance(seed: int) -> MixedHypergraph:
    """13 vertices, 5 C-triples and 12 D-pairs drawn at random."""
    rng = random.Random(seed)
    triples = list(itertools.combinations(range(13), 3))
    pairs = list(itertools.combinations(range(13), 2))
    return MixedHypergraph(13, rng.sample(triples, 5), rng.sample(pairs, 12))


def random_hypergraph(rng: random.Random) -> MixedHypergraph:
    """1-9 vertices and up to eight C- and eight D-edges of 2-5 vertices."""
    n = rng.randint(1, 9)

    def edges():
        return [rng.sample(range(n), rng.randint(2, min(n, 5))) for _ in range(rng.randint(0, 8))] if n > 1 else []

    return MixedHypergraph(n, edges(), edges())


def pool_instances() -> list[MixedHypergraph]:
    pool = json.loads(POOL.read_text(encoding="utf-8"))
    return [MixedHypergraph(i["n"], i["c_edges"], i["d_edges"]) for i in pool["listed"] + pool["counted"]]


def paper_constructions() -> list[MixedHypergraph]:
    """The constructions of the 1,012 subsets of {2..12} with 2-5 values."""
    sets = (v for size in range(2, 6) for v in itertools.combinations(range(2, 13), size))
    return [smallest_one_realization(TargetSet(values)) for values in sets]


class TestFrontierCounts:
    def test_order_does_not_change_the_counts(self):
        rng = random.Random(2011)
        cases = [sparse_instance(seed) for seed in range(4)] + [
            MixedHypergraph(5, [(0, 1)], [(0, 1)]),  # uncolorable bi-edge
            MixedHypergraph(6, [(0, 5), (1, 2, 3, 4)], [(0, 2, 4), (3, 5)]),
            construct_one(TargetSet((5, 3, 2))),
            construct_two(TargetSet((4, 3))),
        ]
        for h in cases:
            near = neighbourhoods(h)
            shuffled = list(range(h.n))
            rng.shuffle(shuffled)
            expected = _frontier_counts(h, range(h.n), leave_points(near, range(h.n)))
            for order in (_greedy_order(near), shuffled):
                assert _frontier_counts(h, order, leave_points(near, order)) == expected

    def test_matches_the_dict_programme(self):
        # the set-based programme of _oracles as the reference: sparse
        # instances along the greedy order and a shuffled one (so vertices
        # leave the frontier mid-way), an edgeless instance out of brute
        # force's reach, and every construction of the paper's target sets
        rng = random.Random(2011)
        for h in [sparse_instance(seed) for seed in range(16)] + [MixedHypergraph(25, [], [])]:
            near = neighbourhoods(h)
            shuffled = list(range(h.n))
            rng.shuffle(shuffled)
            for order in (_greedy_order(near), shuffled):
                assert _frontier_counts(h, order, leave_points(near, order)) == dict_frontier_counts(h, order, near)
        for h in paper_constructions():
            near = neighbourhoods(h)
            order, leave = _counting_plan(h)
            assert _frontier_counts(h, order, leave) == dict_frontier_counts(h, order, near), h

    def test_matches_the_dict_programme_on_pool_and_random_instances(self):
        # the 96 sparse instances of the benchmark's pool, and random ones
        # with edges of every shape, along the plan and a shuffled order
        rng = random.Random(25)
        for h in pool_instances() + [random_hypergraph(rng) for _ in range(400)]:
            near = neighbourhoods(h)
            shuffled = list(range(h.n))
            rng.shuffle(shuffled)
            for order, leave in (_counting_plan(h), (shuffled, leave_points(near, shuffled))):
                assert _frontier_counts(h, order, leave) == dict_frontier_counts(h, order, near), h

    def test_plan_is_the_greedy_order_and_its_leave_points(self):
        # one pass over the vertex pairs gives what the neighbourhoods built
        # edge by edge give; a complete primal graph skips the greedy order
        rng = random.Random(7)
        cases = paper_constructions() + pool_instances() + [random_hypergraph(rng) for _ in range(400)]
        complete = 0
        for h in cases:
            near = neighbourhoods(h)
            order = _greedy_order(near)
            assert _counting_plan(h) == (order, leave_points(near, order)), h
            complete += all(len(vs) == h.n for vs in near)
        assert complete > 627  # the paper's 627, and random ones

    def test_complete_primal_graphs_outside_the_paper_shapes_run_in_id_order(self):
        # only long edges (size-4 C-edges) cover every pair, one vertex, and
        # one D-pair: the plan is id order, every vertex leaving at the last step
        rng = random.Random(4)
        cases = [
            MixedHypergraph(6, list(itertools.combinations(range(6), 4)), []),
            MixedHypergraph(7, [(0, 1, 2, 3), (0, 4, 5, 6), (1, 2, 4, 5), (1, 3, 5, 6), (2, 3, 4, 6), (0, 1, 5, 6),
                                (0, 2, 3, 4)], []),
            MixedHypergraph(1, [], []),
            MixedHypergraph(2, [], [(0, 1)]),
        ]
        for n in range(5, 9):
            quads = list(itertools.combinations(range(n), 4))
            rng.shuffle(quads)
            cases.append(MixedHypergraph(n, quads[: len(quads) // 2], rng.sample(quads, 3)))
        for h in cases:
            near = neighbourhoods(h)
            assert all(len(vs) == h.n for vs in near), h
            assert _counting_plan(h) == (list(range(h.n)), [h.n - 1] * h.n)
            assert chromatic_spectrum(h).counts == brute_force_spectrum(h)
            assert _frontier_counts(h, *_counting_plan(h)) == dict_frontier_counts(h, range(h.n), near)
        assert chromatic_spectrum(MixedHypergraph(1, [], [])).counts == (1,)
        assert chromatic_spectrum(MixedHypergraph(2, [], [(0, 1)])).counts == (0, 1)

    def test_counting_runs_along_the_greedy_order(self, monkeypatch):
        # a path numbered from both ends: id order keeps half the path open,
        # the greedy order walks along the path
        h = both_ends_path(10)
        orders = []
        frontier_counts = coloring._frontier_counts

        def record(h, order, leave):
            orders.append(list(order))
            return frontier_counts(h, order, leave)

        monkeypatch.setattr(coloring, "_frontier_counts", record)
        chromatic_spectrum(h)
        assert orders == [_greedy_order(neighbourhoods(h))] == [[0, 9, 1, 8, 2, 7, 3, 6, 4, 5]]

    def test_greedy_order_is_id_order_on_complete_primal_graphs(self):
        # every vertex shares an edge with every other: the greedy order is id order
        h = construct_one(TargetSet((5, 3, 2)))
        assert all(len(vs) == h.n for vs in neighbourhoods(h))
        assert _greedy_order(neighbourhoods(h)) == list(range(h.n))
        assert _counting_plan(h) == (list(range(h.n)), [h.n - 1] * h.n)
        assert chromatic_spectrum(h).counts == brute_force_spectrum(h)

    def test_relabelled_path_counts_like_the_path(self):
        # in id order the frontier of the both-ends numbering is about 30
        # vertices wide; a D-path on n vertices has S(n-1, k-1) k-colorings
        n = 60
        spectrum = chromatic_spectrum(both_ends_path(n))
        assert spectrum.counts == tuple(stirling_second(n - 1, k - 1) for k in range(1, n + 1))
        assert spectrum == chromatic_spectrum(MixedHypergraph(n, [], [(i, i + 1) for i in range(n - 1)]))

    def test_edgeless_up_to_25_vertices(self):
        # Bell(25) is about 4.6e18 partitions: out of reach of a walk
        for n in range(1, 26):
            expect = tuple(stirling_second(n, k) for k in range(1, n + 1))
            assert chromatic_spectrum(MixedHypergraph(n, [], [])).counts == expect

    def test_counting_starts_no_pool(self, no_processes):
        h = sparse_instance(13)
        baseline = chromatic_spectrum(h)
        assert chromatic_spectrum(h, jobs=2) == baseline
        assert sum(baseline.counts) > 0


def walk_partitions(h: MixedHypergraph, k: Optional[int] = None) -> list[tuple[int, ...]]:
    """The depth-first listing engine that the level-by-level one replaced,
    kept as a reference: each edge is checked when its last vertex gets a
    block, and with ``k`` set a branch dies when too few vertices are left to
    reach ``k`` blocks."""
    n = h.n
    plan: list[list[tuple[bool, tuple[int, ...]]]] = [[] for _ in range(n)]
    for is_c, edges in ((True, h.c_edges), (False, h.d_edges)):
        for e in edges:
            plan[e[-1]].append((is_c, e))
    colors = [-1] * n
    out: list[tuple[int, ...]] = []

    def rec(v: int, used: int) -> None:
        if k is not None and used + (n - v) < k:
            return
        if v == n:
            out.append(tuple(colors))
            return
        limit = used + 1 if (k is None or used < k) else used
        for b in range(limit):
            colors[v] = b
            ok = True
            for is_c, members in plan[v]:
                distinct = len({colors[w] for w in members})
                if (distinct == len(members)) if is_c else (distinct == 1):
                    ok = False
                    break
            if ok:
                rec(v + 1, used + (1 if b == used else 0))
        colors[v] = -1

    rec(0, 0)
    return out


@st.composite
def mixed_hypergraphs(draw, max_n=7, sizes=(2, 3, 4)):
    """C- and D-edges of the given sizes on at most ``max_n`` vertices."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pool = [e for size in sizes for e in itertools.combinations(range(n), size)]
    edges = st.lists(st.sampled_from(pool), max_size=7) if pool else st.just([])
    return MixedHypergraph(n, draw(edges), draw(edges))


CLOSING_GROUPS = [
    MixedHypergraph(5, [(0, 1)], [(0, 1)]),  # uncolorable bi-edge
    # several edges of one kind and size close at vertex 6, and at 5
    MixedHypergraph(
        7,
        [(0, 5), (1, 5), (0, 1, 6), (2, 3, 6), (1, 4, 6), (0, 5, 6), (0, 1, 2, 6), (2, 3, 4, 6)],
        [(2, 5), (4, 5), (0, 6), (2, 6), (3, 6), (3, 4, 6), (1, 5, 6), (0, 1, 2, 3, 6), (1, 2, 4, 5, 6)],
    ),
    MixedHypergraph(8, [(0, 7), (1, 7), (2, 7)], [(3, 4, 7), (4, 5, 7), (3, 6, 7), (5, 6, 7)]),
]
CLOSING_GROUP_IDS = ["bi-edge", "groups-at-5-and-6", "groups-at-7"]
# vertex 11 apart from every other vertex: its Bell(11) partitions
D_PAIR_STAR = MixedHypergraph(12, [], [(i, 11) for i in range(11)])


class TestListing:
    @staticmethod
    def check_against_the_walk_and_the_oracle(h):
        oracle = brute_force_partitions(h)
        listed = all_feasible_partitions(h)
        assert listed == oracle
        assert [p.assignment for p in listed] == walk_partitions(h)
        for k in range(1, h.n + 1):
            strict = enumerate_strict(h, k)
            assert strict == [p for p in oracle if p.num_blocks == k]
            assert [p.assignment for p in strict] == walk_partitions(h, k)

    @settings(max_examples=80, deadline=None)
    @given(mixed_hypergraphs())
    def test_matches_the_walk_and_the_oracle(self, h):
        self.check_against_the_walk_and_the_oracle(h)

    @pytest.mark.parametrize(
        "h",
        [
            MixedHypergraph(5, [(0, 1)], [(0, 1)]),  # uncolorable bi-edge
            MixedHypergraph(7, [(0, 1, 2, 3), (3, 4, 5, 6)], [(0, 4), (1, 2, 6), (2, 5)]),
            MixedHypergraph(7, [(2, 6), (0, 3, 5)], [(0, 1, 2, 3), (4, 5, 6), (1, 5)]),
            MixedHypergraph(6, [], [(0, 1), (0, 2), (1, 2), (3, 4, 5)]),
        ],
    )
    def test_fixed_cases(self, h):
        self.check_against_the_walk_and_the_oracle(h)

    def test_uncolorable_lists_nothing(self):
        h = MixedHypergraph(5, [(0, 1)], [(0, 1)])
        assert all_feasible_partitions(h) == []
        assert all(enumerate_strict(h, k) == [] for k in range(1, 6))

    @staticmethod
    def check_rows(h, oracle=per_edge_partition_rows):
        for k in [None, *range(1, h.n + 1)]:
            got, expected = coloring._partition_rows(h, k), oracle(h, k)
            assert got.dtype == expected.dtype == np.int16 and got.shape == expected.shape, k
            assert (got == expected).all(), k

    @settings(max_examples=120, deadline=None)
    @given(mixed_hypergraphs(sizes=(2, 3, 4, 5)))
    def test_grouped_test_matches_the_per_edge_loop(self, h):
        self.check_rows(h)

    @settings(max_examples=120, deadline=None)
    @given(mixed_hypergraphs(sizes=(2, 3, 4, 5)))
    def test_rows_match_the_grouped_engine(self, h):
        self.check_rows(h, grouped_partition_rows)

    @pytest.mark.parametrize("limit", [None, 64, 1])
    @pytest.mark.parametrize("h", CLOSING_GROUPS, ids=CLOSING_GROUP_IDS)
    def test_closing_groups_match_the_per_edge_loop(self, working_bytes, h, limit):
        # a small budget splits a group's edges across several tests (each
        # edge's entries take eight bytes a row)
        if limit is not None:
            working_bytes(limit)
        self.check_rows(h)

    @pytest.mark.parametrize("limit", [None, 64, 1])
    @pytest.mark.parametrize("h", CLOSING_GROUPS + [D_PAIR_STAR], ids=CLOSING_GROUP_IDS + ["d-pair-star-12"])
    def test_closing_groups_match_the_grouped_engine(self, working_bytes, h, limit):
        # the star closes eleven D-pairs at vertex 11 on Bell(11) rows, a
        # group split even under the default budget
        if limit is not None:
            working_bytes(limit)
        self.check_rows(h, grouped_partition_rows)

    def test_pool_instances_match_the_per_edge_loop(self):
        # C-triples and D-pairs on 12-14 vertices, as the benchmark lists them
        listed = json.loads(POOL.read_text(encoding="utf-8"))["listed"]
        for inst in listed[::16]:
            h = MixedHypergraph(inst["n"], inst["c_edges"], inst["d_edges"])
            self.check_rows(h)
            assert len(coloring._partition_rows(h)) == sum(inst["spectrum"])

    def test_pool_instances_match_the_grouped_engine(self):
        # all 64 instances the benchmark lists
        listed = json.loads(POOL.read_text(encoding="utf-8"))["listed"]
        assert len(listed) == 64
        for inst in listed:
            h = MixedHypergraph(inst["n"], inst["c_edges"], inst["d_edges"])
            self.check_rows(h, grouped_partition_rows)
            assert len(coloring._partition_rows(h)) == sum(inst["spectrum"])

    @pytest.mark.parametrize("h", [D_PAIR_STAR, MixedHypergraph(10)], ids=["d-pair-star-12", "edgeless-10"])
    def test_peak_memory_is_no_more_than_the_grouped_engine(self, h):
        peaks = []
        for engine in (grouped_partition_rows, coloring._partition_rows):
            tracemalloc.start()
            try:
                engine(h)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0], peaks

    @pytest.mark.parametrize("v", [1, 2, 3, 5, 8])
    def test_block_grid_at_few_rows(self, v):
        # with no closing edges, a row with u blocks used may take blocks
        # 0..u below the width, whether the level has fewer rows than the
        # width or more
        rng = np.random.default_rng(v)
        for k in [None, *range(1, v + 1)]:  # k unset, and every k below v + 1
            width = v + 1 if k is None else k
            shift = (width - 1).bit_length()
            for count in range(1, width + 3):
                used = rng.integers(1, min(v, width) + 1, count).astype(np.int16)
                rows = np.zeros((count, v + 1), dtype=np.int16)
                got = coloring._allowed_blocks(rows, used, width, shift, {})
                expected = (np.arange(1 << shift) <= np.minimum(used, width - 1)[:, None]).reshape(-1)
                assert got.dtype == bool and got.shape == expected.shape and (got == expected).all(), (k, count)

    def test_rows_are_int16_and_lexicographic(self):
        rows = coloring._partition_rows(MixedHypergraph(6, [], []))
        assert rows.dtype == np.int16 and rows.shape == (203, 6)
        assert [tuple(r) for r in rows.tolist()] == sorted(tuple(r) for r in rows.tolist())


class TestListedPartitions:
    """Listing builds its ``Partition``s from checked rows, not one by one."""

    @pytest.mark.parametrize(
        "h",
        [construct_one(TargetSet((5, 3, 2))), sparse_instance(11), MixedHypergraph(6, [], [])],
        ids=["construction-532", "sparse-13", "edgeless-6"],
    )
    def test_listed_objects_are_like_constructed_ones(self, h):
        lists = [all_feasible_partitions(h)] + [enumerate_strict(h, k) for k in range(1, h.n + 1)]
        assert len(lists[0]) == sum(map(len, lists[1:])) > 0
        for listed in lists:
            for p in listed:
                q = Partition(p.assignment)
                assert type(p) is Partition and type(p.assignment) is tuple
                assert not hasattr(p, "__dict__")
                assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
                assert p.blocks == q.blocks == p.blocks and p.num_blocks == q.num_blocks and len(p) == len(q)
            for p in listed[:1] + listed[-1:]:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    p.assignment = (0,) * len(p)
        for copied in (pickle.loads(pickle.dumps(lists[0])), copy.deepcopy(lists[0])):
            assert copied == lists[0]
            assert [hash(p) for p in copied] == [hash(p) for p in lists[0]]

    @pytest.mark.parametrize(
        "bad", [[[1, 0]], [[0, 2]], [[0, 1, 3]], [[0, -1]], [[0, 0, 0], [0, 1, 3], [0, 2, 0]]]
    )
    def test_bad_engine_rows_raise_the_constructor_error(self, monkeypatch, bad):
        rows = np.array(bad, dtype=np.int16)
        with pytest.raises(ValueError, match="restricted-growth") as expected:
            [Partition(tuple(r)) for r in bad]  # one by one, as listing did before
        monkeypatch.setattr(coloring, "_partition_rows", lambda h, k=None: rows)
        with pytest.raises(ValueError, match="restricted-growth") as raised:
            all_feasible_partitions(MixedHypergraph(rows.shape[1]))
        assert str(raised.value) == str(expected.value)

    def test_no_rows_give_no_partitions(self):
        assert Partition._from_rows(np.zeros((0, 5), dtype=np.int16)) == []

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dtype", ["i1", "i2", "i4", "i8", "<i2", ">i2", ">i4", ">i8"])
    def test_build_matches_the_column_zip(self, dtype, order):
        # random restricted-growth rows in every byte order and memory layout
        rng = random.Random(f"{dtype} {order}")
        for count, n in [(0, 5), (1, 1), (7, 1), (300, 12), (50, 40)]:
            strings = []
            for _ in range(count):
                row = [0]
                for _ in range(n - 1):
                    row.append(rng.randint(0, max(row) + 1))
                strings.append(row)
            rows = np.asarray(np.array(strings, dtype=dtype).reshape(count, n), order=order)
            assert rows.dtype == np.dtype(dtype) and rows.flags[f"{order}_CONTIGUOUS"]
            for view in (rows, rows[::3]):
                built = Partition._from_rows(view)
                assert built == column_zip_partitions(view) == [Partition(tuple(r)) for r in view.tolist()]
                assert all(type(p.assignment) is tuple and all(type(b) is int for b in p.assignment) for p in built)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bad_byte_swapped_rows_raise_the_constructor_error(self, order):
        rows = np.asarray(np.array([[0, 1, 2], [0, 1, 1], [0, 2, 1], [0, 0, 3], [1, 0, 0]], dtype=">i2"), order=order)
        with pytest.raises(ValueError) as expected:
            Partition((0, 2, 1))  # the first bad row
        for build in (Partition._from_rows, column_zip_partitions):
            with pytest.raises(ValueError) as raised:
                build(rows)
            assert str(raised.value) == str(expected.value)

    def test_listings_match_the_column_zip(self):
        listed = json.loads(POOL.read_text(encoding="utf-8"))["listed"]
        hs = [MixedHypergraph(inst["n"], inst["c_edges"], inst["d_edges"]) for inst in listed[::16]]
        for h in hs + [MixedHypergraph(n) for n in range(1, 9)]:
            assert all_feasible_partitions(h) == column_zip_partitions(coloring._partition_rows(h))
            for k in range(1, h.n + 1):
                assert enumerate_strict(h, k) == column_zip_partitions(coloring._partition_rows(h, k))


class TestListingLeavesTheCollector:
    """Listing pauses the cyclic GC while it builds its ``Partition``s and
    leaves ``gc.isenabled()`` as it found it."""

    @pytest.fixture
    def restore_gc(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_kept(self, monkeypatch, restore_gc, enabled):
        during = []

        def watch(*args):
            during.append(gc.isenabled())
            return itertools.repeat(*args)

        monkeypatch.setattr(coloring, "repeat", watch)
        (gc.enable if enabled else gc.disable)()
        assert len(all_feasible_partitions(MixedHypergraph(6))) == 203
        assert gc.isenabled() is enabled
        assert during == [False]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_kept_when_the_build_raises(self, monkeypatch, restore_gc, enabled):
        def fail(*args):
            raise RuntimeError("build failed")

        monkeypatch.setattr(coloring, "repeat", fail)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError, match="build failed"):
            all_feasible_partitions(MixedHypergraph(6))
        assert gc.isenabled() is enabled


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
    def test_jobs_match_one_job_and_start_no_process(self, no_processes):
        cases = [sparse_instance(7), construct_one(TargetSet((5, 3, 2))), MixedHypergraph(5, [(0, 1)], [(0, 1)])]
        for h in cases:
            listed = all_feasible_partitions(h)
            spectrum = chromatic_spectrum(h)
            for jobs in (2, 4):
                assert all_feasible_partitions(h, jobs=jobs) == listed
                assert chromatic_spectrum(h, jobs=jobs) == spectrum
        assert len(all_feasible_partitions(cases[0])) > 0

    def test_worker_count_is_capped_at_usable_cpus(self, no_processes):
        # a jobs value far above the usable CPUs is accepted and starts nothing
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        h = sparse_instance(7)
        jobs = cpus + 5000
        assert all_feasible_partitions(h, jobs=jobs) == all_feasible_partitions(h)
        assert chromatic_spectrum(h, jobs=jobs) == chromatic_spectrum(h)

    def test_prefix_shards_follow_the_worker_cap(self, no_processes):
        # each block count is listed in the walk's prefix order
        h = MixedHypergraph(8, [], [])
        for k in range(1, h.n + 1):
            listed = [p.assignment for p in enumerate_strict(h, k)]
            assert listed == walk_partitions(h, k)
            assert listed == sorted(listed)

    def test_map_shards_keeps_shard_order(self, no_processes):
        # the full listing keeps lexicographic order whatever jobs is
        h = construct_one(TargetSet((5, 3, 2)))
        expected = walk_partitions(h)
        assert expected == sorted(expected)
        for jobs in (1, 2):
            assert [p.assignment for p in all_feasible_partitions(h, jobs=jobs)] == expected

    def test_no_module_imports_a_process_pool(self):
        pool_import = re.compile(r"^\s*(?:from|import)\s+(?:multiprocessing|concurrent)\b", re.MULTILINE)
        sources = sorted(Path(coloring.__file__).parent.glob("*.py"))
        assert len(sources) > 1
        for path in sources:
            assert not pool_import.search(path.read_text(encoding="utf-8")), path.name

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_enumeration_identical_across_workers(self, jobs):
        h = construct_one(TargetSet((5, 3, 2)))
        assert all_feasible_partitions(h, jobs=jobs) == all_feasible_partitions(h)

    def test_spectrum_identical_across_workers(self):
        h = MixedHypergraph(6, [(0, 1, 2), (3, 4, 5)], [(0, 5), (1, 4)])
        baseline = chromatic_spectrum(h)
        for jobs in (2, 4):
            assert chromatic_spectrum(h, jobs=jobs) == baseline

    def test_random_instances_identical_across_workers(self):
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
        # uncolorable: no partial partition survives the first bi-edge
        h = MixedHypergraph(5, [(0, 1)], [(0, 1)])
        assert all_feasible_partitions(h, jobs=2) == []
        assert chromatic_spectrum(h, jobs=2) == Spectrum(())
