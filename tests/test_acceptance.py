"""Acceptance suite: one test per criterion, checked at its stated budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.  Spectra are memoized across criteria; the gap-bound criterion is
timed against the cached corpus, everything else pays for its own work.
"""

import itertools
import json
import random
import time
from collections import Counter


from mixedhg import (
    MixedHypergraph,
    Outcome,
    Partition,
    TargetSet,
    all_feasible_partitions,
    bounded_minimality_search,
    canonical_coloring,
    check_minimum_size,
    chromatic_spectrum,
    construct_one,
    construct_two,
    deletion_criticality,
    gaps,
    minimum_size,
    smallest_one_realization,
)
from mixedhg.cli import main as cli_main
from mixedhg.documents import save

from _oracles import brute_force_partitions

_SPECTRA: dict[MixedHypergraph, tuple[int, ...]] = {}


def spectrum_of(h: MixedHypergraph) -> tuple[int, ...]:
    if h not in _SPECTRA:
        _SPECTRA[h] = chromatic_spectrum(h).counts
    return _SPECTRA[h]


def feasible_of(h: MixedHypergraph) -> tuple[int, ...]:
    return tuple(k for k, c in enumerate(spectrum_of(h), start=1) if c)


def family(universe: range, sizes) -> list[TargetSet]:
    out = []
    for size in sizes:
        for values in itertools.combinations(universe, size):
            out.append(TargetSet(values))
    return out


def one_entries_at(ts: TargetSet, counts: tuple[int, ...]) -> bool:
    expect = {k: 1 for k in ts.values}
    return all(counts[k - 1] == expect.get(k, 0) for k in range(1, len(counts) + 1)) and len(
        counts
    ) == max(ts.values)


def report(number: int, elapsed: float, budget: float, detail: str) -> None:
    print(f"criterion {number}: PASS in {elapsed:.2f}s (budget {budget:g}s) - {detail}")


def test_criterion_1_construction_sizes():
    started = time.perf_counter()
    checked = 0
    for ts in family(range(2, 9), (2, 3, 4)):
        top, second, low = ts.values[0], ts.values[1], ts.values[-1]
        assert construct_one(ts).n == 2 * top - low, ts
        if top == second + 1:
            assert construct_two(ts).n == 2 * top - low - 1, ts
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 91
    assert elapsed < 1.0
    report(1, elapsed, 1, f"{checked} target sets, exact vertex counts")


def test_criterion_2_variant_one_realizes_exactly_the_coordinate_colorings():
    started = time.perf_counter()
    sets = family(range(2, 7), (2, 3))
    for ts in sets:
        h = construct_one(ts)
        expected = {canonical_coloring(ts, i) for i in range(1, ts.size + 1)}
        assert set(all_feasible_partitions(h)) == expected, ts
        counts = spectrum_of(h)
        assert one_entries_at(ts, counts), (ts, counts)
    elapsed = time.perf_counter() - started
    assert len(sets) == 20
    assert elapsed < 60.0
    report(2, elapsed, 60, f"{len(sets)} variant-one instances, partitions match exactly")


def test_criterion_3_variant_two_spectra():
    started = time.perf_counter()
    sets = [
        TargetSet(values)
        for size in (2, 3, 4, 5)
        for values in itertools.combinations(range(2, 7), size)
        if sorted(values)[-1] == sorted(values)[-2] + 1
    ]
    for ts in sets:
        counts = spectrum_of(construct_two(ts))
        assert one_entries_at(ts, counts), (ts, counts)
    assert spectrum_of(construct_two(TargetSet((4, 3)))) == (0, 0, 1, 1)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(3, elapsed, 5, f"{len(sets)} variant-two instances, 0/1 spectra at the target values")


def test_criterion_4_minimum_size_end_to_end():
    started = time.perf_counter()
    assert minimum_size(TargetSet((4, 2))) == 6
    assert minimum_size(TargetSet((4, 3))) == 4
    assert minimum_size(TargetSet((5, 3, 2))) == 8
    sets = family(range(2, 9), (2, 3, 4))
    for ts in sets:
        assert check_minimum_size(ts), ts
        spectrum_of(smallest_one_realization(ts))  # feed the gap-bound corpus
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(4, elapsed, 60, f"{len(sets)} target sets verified at the formula size")


def test_criterion_5_deletion_criticality():
    started = time.perf_counter()
    for values in [(4, 2), (4, 3), (5, 3, 2)]:
        ts = TargetSet(values)
        h = smallest_one_realization(ts)
        flags = deletion_criticality(h, set(ts.values))
        assert [v for v, _ in flags] == list(range(h.n))
        assert all(flag is False for _, flag in flags), values
        for v in range(h.n):  # register the deletions for the gap-bound corpus
            spectrum_of(h.delete_vertex(v))
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(5, elapsed, 30, "every single-vertex deletion breaks the one-realization")


def test_criterion_6_bounded_minimality_search(capsys):
    started = time.perf_counter()
    below = bounded_minimality_search(TargetSet((4, 2)), 5)
    assert below.outcome is Outcome.EXHAUSTED
    assert below.examined == 1 << 20
    small = bounded_minimality_search(TargetSet((3, 2)), 3)
    assert small.outcome is Outcome.WITNESS_FOUND
    assert small.witness is not None and small.witness.n == 3
    assert spectrum_of(small.witness) == (0, 1, 1)
    # same outcomes through the command-line surface
    assert cli_main(["search-min", "--set", "4,2", "--n", "5", "--format", "json"]) == 0
    empty_handed = json.loads(capsys.readouterr().out)
    assert empty_handed["outcome"] == "exhausted" and empty_handed["witness"] is None
    assert cli_main(["search-min", "--set", "3,2", "--n", "3", "--format", "json"]) == 0
    found = json.loads(capsys.readouterr().out)
    assert found["outcome"] == "witness-found"
    assert found["witness"]["vertex_count"] == 3
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(6, elapsed, 300, "no 5-vertex realization of {4,2}; 3-vertex witness for {3,2}")


def _ensure_gap_corpus() -> None:
    if len(_SPECTRA) >= 100:  # earlier criteria already filled the cache
        return
    for ts in family(range(2, 9), (2,)):
        spectrum_of(construct_one(ts))
    for ts in family(range(2, 7), (2, 3)):
        spectrum_of(construct_one(ts))
        if ts.values[0] == ts.values[1] + 1:
            spectrum_of(construct_two(ts))


def test_criterion_7_gap_size_bound():
    _ensure_gap_corpus()
    started = time.perf_counter()
    instances = 0
    gapped = 0
    for h, counts in _SPECTRA.items():
        values = tuple(k for k, c in enumerate(counts, start=1) if c)
        if not values:
            continue
        instances += 1
        for k in gaps(values):
            gapped += 1
            assert h.n >= 2 * (k + 1) - min(values), (h, values, k)
    # sharpness: for a two-value target set with a genuine gap, the bound is
    # met with equality at the largest gap of the variant-one instance
    for ts in family(range(2, 9), (2,)):
        top, low = ts.values
        if top >= low + 2:
            h = construct_one(ts)
            k = top - 1
            assert has_equal_bound(h, k, low)
    elapsed = time.perf_counter() - started
    assert gapped > 0
    assert elapsed < 1.0
    report(7, elapsed, 1, f"bound holds on {instances} cached spectra, sharp for pairs")


def has_equal_bound(h: MixedHypergraph, k: int, low: int) -> bool:
    values = feasible_of(h)
    assert k in gaps(values)
    return h.n == 2 * (k + 1) - low


def test_criterion_8_engine_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(987123)
    for trial in range(1000):
        n = rng.randint(1, 7)
        pool = list(itertools.combinations(range(n), 2))
        if n >= 3:
            pool += list(itertools.combinations(range(n), 3))
        c_edges = [rng.choice(pool) for _ in range(rng.randint(0, 4))] if pool else []
        d_edges = [rng.choice(pool) for _ in range(rng.randint(0, 4))] if pool else []
        h = MixedHypergraph(n, c_edges, d_edges)

        enumerated = all_feasible_partitions(h)
        assert enumerated == brute_force_partitions(h), trial

        spectrum = chromatic_spectrum(h)
        by_blocks = Counter(p.num_blocks for p in enumerated)
        assert all(spectrum.entry(k) == by_blocks.get(k, 0) for k in range(1, n + 1)), trial
        feasible = spectrum.feasible_values()
        assert feasible == tuple(sorted(by_blocks)), trial
        for k in gaps(feasible):
            assert k not in feasible and min(feasible) < k < max(feasible)

        perm = list(range(n))
        rng.shuffle(perm)
        assert chromatic_spectrum(h.permuted(perm)) == spectrum, trial
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report(8, elapsed, 120, "1000 random instances, zero disagreements with brute force")


def test_criterion_9_spectrum_output_determinism(tmp_path, capsys):
    doc = tmp_path / "h532.json"
    save(construct_one(TargetSet((5, 3, 2))), doc)
    started = time.perf_counter()
    outputs: dict[str, set] = {"json": set(), "human": set()}
    for fmt in outputs:
        for _ in range(3):
            code = cli_main(["spectrum", str(doc), "--format", fmt, "--list-colorings"])
            captured = capsys.readouterr()
            assert code == 0
            outputs[fmt].add(captured.out)
    assert all(len(variants) == 1 for variants in outputs.values())
    parsed = json.loads(next(iter(outputs["json"])))
    assert parsed["spectrum"] == [0, 1, 1, 0, 1]
    elapsed = time.perf_counter() - started
    print(
        f"criterion 9: PASS in {elapsed:.2f}s - byte-identical spectrum reports"
        f" over three runs per format"
    )
