"""Invariant checks on randomized instances (engine vs brute-force oracles)."""

import itertools

from hypothesis import given, settings, strategies as st

from mixedhg import (
    MixedHypergraph,
    Partition,
    TargetSet,
    all_feasible_partitions,
    are_isomorphic,
    canonical_coloring,
    chromatic_spectrum,
    construct_one,
    enumerate_strict,
    feasible_set,
    gaps,
    has_gap_at,
    is_isomorphism,
    is_proper,
    minimum_size,
)
from mixedhg.documents import dumps, loads

from _oracles import (
    all_restricted_growth_strings,
    brute_force_partitions,
    brute_force_spectrum,
    restrict_partition,
)


@st.composite
def hypergraphs(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    # edges of 2, 3 and 4 vertices of both kinds: the counting programme's
    # D-pair and C-triple rules and its general rule for every other shape
    pool = [e for size in (2, 3, 4) for e in itertools.combinations(range(n), size)]
    edges = st.lists(st.sampled_from(pool), max_size=6) if pool else st.just([])
    return MixedHypergraph(n, draw(edges), draw(edges))


@st.composite
def target_sets(draw):
    values = draw(st.sets(st.integers(min_value=2, max_value=7), min_size=2, max_size=4))
    return TargetSet(tuple(values))


@given(hypergraphs())
def test_full_vertex_set_restriction_is_identity(h):
    assert h.derived_subhypergraph(range(h.n)) == h


@given(hypergraphs(), st.data())
def test_derived_edges_match_brute_filter(h, data):
    keep = data.draw(st.sets(st.integers(0, h.n - 1), min_size=1))
    xs = sorted(keep)
    pos = {v: i for i, v in enumerate(xs)}
    sub = h.derived_subhypergraph(keep)
    assert set(sub.c_edges) == {tuple(pos[v] for v in e) for e in h.c_edges if set(e) <= keep}
    assert set(sub.d_edges) == {tuple(pos[v] for v in e) for e in h.d_edges if set(e) <= keep}


@given(hypergraphs(max_n=5), st.data())
def test_delete_vertex_is_a_one_vertex_restriction(h, data):
    if h.n < 2:
        return
    v = data.draw(st.integers(0, h.n - 1))
    assert h.delete_vertex(v) == h.derived_subhypergraph(set(range(h.n)) - {v})


@settings(max_examples=60)
@given(hypergraphs(max_n=6))
def test_enumeration_matches_brute_force(h):
    expected = brute_force_partitions(h)
    assert all_feasible_partitions(h) == expected
    by_k = {}
    for p in expected:
        by_k.setdefault(p.num_blocks, []).append(p)
    for k in range(1, h.n + 1):
        assert enumerate_strict(h, k) == by_k.get(k, [])


@settings(max_examples=60)
@given(hypergraphs(max_n=6))
def test_spectrum_consistency(h):
    spectrum = chromatic_spectrum(h)
    assert spectrum.counts == brute_force_spectrum(h)
    assert all(
        spectrum.entry(k) == len(enumerate_strict(h, k)) for k in range(1, h.n + 1)
    )
    assert feasible_set(h) == tuple(k for k in range(1, h.n + 1) if spectrum.entry(k) > 0)


@settings(max_examples=60)
@given(hypergraphs(max_n=7))
def test_frontier_counts_match_the_oracle_and_the_listing(h):
    counts = chromatic_spectrum(h).counts
    assert counts == brute_force_spectrum(h)
    listed = [0] * len(counts)
    for p in all_feasible_partitions(h):
        listed[p.num_blocks - 1] += 1
    assert tuple(listed) == counts


@settings(max_examples=40)
@given(hypergraphs(max_n=6), st.data())
def test_feasible_partitions_restrict_properly(h, data):
    keep = data.draw(st.sets(st.integers(0, h.n - 1), min_size=1))
    sub = h.derived_subhypergraph(keep)
    for p in all_feasible_partitions(h):
        assert is_proper(sub, restrict_partition(p, keep))


@settings(max_examples=50)
@given(hypergraphs(max_n=6), st.data())
def test_relabeling_preserves_spectrum_and_is_detected(h, data):
    perm = data.draw(st.permutations(range(h.n)))
    g = h.permuted(perm)
    assert chromatic_spectrum(g) == chromatic_spectrum(h)
    witness = are_isomorphic(h, g)
    assert witness is not None
    assert is_isomorphism(h, g, witness.mapping)
    assert is_isomorphism(g, h, witness.inverse().mapping)


@settings(max_examples=60)
@given(hypergraphs(max_n=7))
def test_gap_bound_on_random_instances(h):
    values = feasible_set(h)
    for k in gaps(values):
        assert has_gap_at(values, k)
        assert h.n >= 2 * (k + 1) - min(values)


@given(st.integers(1, 7))
def test_rgs_oracle_counts_are_bell_numbers(n):
    bell = [1, 1, 2, 5, 15, 52, 203, 877]
    assert sum(1 for _ in all_restricted_growth_strings(n)) == bell[n]


@settings(max_examples=30)
@given(target_sets())
def test_construction_size_and_colorings(ts):
    h = construct_one(ts)
    assert h.n == 2 * ts.values[0] - ts.values[-1]
    for i, n_i in enumerate(ts.values, start=1):
        p = canonical_coloring(ts, i)
        assert p.num_blocks == n_i
        assert is_proper(h, p)
    assert minimum_size(ts) in (h.n, h.n - 1)


@settings(max_examples=30)
@given(hypergraphs(max_n=6))
def test_partition_blocks_round_trip(h):
    for p in all_feasible_partitions(h):
        assert Partition.from_blocks(p.blocks) == p


@given(hypergraphs(max_n=7))
def test_document_round_trip(h):
    text = dumps(h)
    assert loads(text) == h
    assert dumps(loads(text)) == text
