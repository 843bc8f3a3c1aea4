"""The benchmark's workloads: seeded inputs, the operations on them, and checkers.

``build(name, seed, workdir)`` is the set-up: it turns the seed into inputs
(writing any input documents into ``workdir``) and returns the fixed list of
operations one pass runs.  Each ``Op`` has a ``run`` that calls the library
and returns its output, a ``check`` that decides whether that output is
right, and an optional ``prepare`` that computes, once and untimed, a
reference the check needs.  All calls go through module attributes at call
time, so the span wrappers of ``trace.py`` see them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Optional

from mixedhg import cli, coloring, constructions, core, search

import reference
from make_pool import LIST_LIMIT, POOL_FILE

WORKLOADS = ("paper-pipeline", "search-min", "sparse-spectrum", "parallel-jobs2")


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    prepare: Optional[Callable[[], None]] = None


def build(name: str, seed: int, workdir: str) -> list[Op]:
    if name == "paper-pipeline":
        return paper_ops(seed, workdir)
    if name == "search-min":
        return search_ops(seed)
    if name == "sparse-spectrum":
        return sparse_ops(seed, jobs=1)
    if name == "parallel-jobs2":
        return sparse_ops(seed, jobs=2) + [_jobs_one_variant(
            partial(_search_run, (4, 2), 2), partial(_search_run, (4, 2), 1),
            lambda report: report, f"search 4,2 n={SEARCH_N} jobs=2")]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# --- paper-pipeline -----------------------------------------------------------
#
# Target sets are the subsets of {2..12} with 2-5 values (1,012 sets, 3-22
# vertices).  Only the 97 sets with at most ISO_MAX_N vertices run `iso`, so
# the sample takes a fixed number from each side: every seed then has the
# same mix of 3-call and 4-call ops, and op_p90_ms stays inside one kind.

ISO_MAX_N = 12
PAPER_SMALL, PAPER_LARGE = 30, 120


class _Discard(io.TextIOBase):
    def write(self, s: str) -> int:
        return len(s)


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(_Discard()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _write_relabeled(vals: tuple[int, ...], rng: random.Random, path: str) -> dict:
    """A seeded vertex relabeling of the construction, as a document the
    benchmark writes itself."""
    h = constructions.smallest_one_realization(constructions.TargetSet(vals))
    perm = list(range(h.n))
    rng.shuffle(perm)
    doc = {
        "format_version": 1,
        "vertex_count": h.n,
        "c_edges": sorted(sorted(perm[v] for v in e) for e in h.c_edges),
        "d_edges": sorted(sorted(perm[v] for v in e) for e in h.d_edges),
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")
    return doc


def _paper_run(vals: tuple[int, ...], doc: str, relabeled: Optional[str]) -> list[tuple[int, str]]:
    text = ",".join(map(str, vals))
    out = [
        _cli(["construct", "--set", text, "--out", doc]),
        _cli(["spectrum", doc, "--format", "json"]),
        _cli(["verify", doc, "--set", text]),
    ]
    if relabeled is not None:
        out.append(_cli(["iso", doc, relabeled]))
    return out


def _paper_check(vals, n: int, doc: str, relabeled_doc: Optional[dict], out) -> bool:
    (rc_c, construct), (rc_s, spectrum), (rc_v, _), *iso = out
    if rc_c != 0 or construct != f"vertices={n} delta={n}\n":
        return False
    report = json.loads(spectrum) if rc_s == 0 else {}
    expected = [1 if k in vals else 0 for k in range(1, max(vals) + 1)]
    if report.get("spectrum") != expected or report.get("vertex_count") != n or rc_v != 0:
        return False
    if relabeled_doc is None:
        return not iso
    rc_i, lines = iso[0]
    if rc_i != 0:
        return False
    mapping = [int(line.split(" -> ")[1]) for line in lines.splitlines()]
    return reference.maps_edges(mapping, json.loads(Path(doc).read_text(encoding="utf-8")), relabeled_doc)


def paper_ops(seed: int, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    sets = [vals for r in range(2, 6) for vals in itertools.combinations(range(12, 1, -1), r)]
    small = [v for v in sets if reference.paper_vertex_count(v) <= ISO_MAX_N]
    large = [v for v in sets if reference.paper_vertex_count(v) > ISO_MAX_N]
    chosen = rng.sample(small, PAPER_SMALL) + rng.sample(large, PAPER_LARGE)
    rng.shuffle(chosen)
    ops = []
    for i, vals in enumerate(chosen):
        n = reference.paper_vertex_count(vals)
        doc = os.path.join(workdir, f"set{i}.json")
        relabeled = relabeled_doc = None
        if n <= ISO_MAX_N:
            relabeled = os.path.join(workdir, f"set{i}-relabeled.json")
            relabeled_doc = _write_relabeled(vals, rng, relabeled)
        ops.append(Op(
            label=f"set {','.join(map(str, vals))} n={n}",
            run=partial(_paper_run, vals, doc, relabeled),
            check=partial(_paper_check, vals, n, doc, relabeled_doc),
        ))
    return ops


# --- search-min ----------------------------------------------------------------
#
# (outcome, examined, dedup_ratio) of bounded_minimality_search at n=5 with
# the default budget, pinned from the library as first benchmarked.  Two
# cases exhaust all 2^20 candidates, two stop at a witness.

SEARCH_N = 5
SEARCH_PINNED = {
    (4, 2): ("exhausted", 1048576, 0.98980712890625),
    (5, 3): ("exhausted", 1048576, 0.98980712890625),
    (4, 3): ("witness-found", 60583, 0.9878183648878398),
    (3, 2): ("witness-found", 22415, 0.9848315859915235),
}


def _search_run(vals: tuple[int, ...], jobs: int):
    return search.bounded_minimality_search(constructions.TargetSet(vals), SEARCH_N, jobs=jobs)


def _search_check(vals: tuple[int, ...], report) -> bool:
    if (report.outcome.value, report.examined, report.dedup_ratio) != SEARCH_PINNED[vals]:
        return False
    w = report.witness
    return w is None or reference.is_one_realization_brute(w.n, w.c_edges, w.d_edges, vals)


def search_ops(seed: int) -> list[Op]:
    cases = sorted(SEARCH_PINNED)
    random.Random(seed).shuffle(cases)
    return [Op(f"search {vals[0]},{vals[1]} n={SEARCH_N}", partial(_search_run, vals, 1),
               partial(_search_check, vals)) for vals in cases]


# --- sparse-spectrum and parallel-jobs2 -------------------------------------------
#
# The random instances come from sparse_pool.json (see make_pool.py), which is
# sorted by walk work; the seed takes one instance from each equal slice of
# it, so every seed gets different instances but about the same work.

EDGELESS_N = 11


def _pick(pool: list, slices: int, rng: random.Random) -> list:
    size = len(pool) // slices
    return [pool[i * size + rng.randrange(size)] for i in range(slices)]


def sparse_instances(seed: int) -> list[dict]:
    pool = json.loads(POOL_FILE.read_text(encoding="utf-8"))
    rng = random.Random(seed)
    chosen = _pick(pool["listed"], 4, rng) + _pick(pool["counted"], 2, rng)
    rng.shuffle(chosen)
    return [{"n": EDGELESS_N, "c_edges": [], "d_edges": [],
             "spectrum": reference.stirling2_row(EDGELESS_N)}] + chosen


def _histogram(parts) -> list[int]:
    counts: list[int] = []
    for p in parts:
        k = p.num_blocks
        counts.extend([0] * (k - len(counts)))
        counts[k - 1] += 1
    return counts


def _listing_digest(parts) -> tuple[int, int]:
    return len(parts), hash(tuple(p.assignment for p in parts))


def _same_as(expected: dict, key: Callable[[Any], Any], out) -> bool:
    return key(out) == expected["value"]


def _reference(expected: dict, fn: Callable[[], Any], key: Callable[[Any], Any]) -> None:
    expected["value"] = key(fn())


def _jobs_one_variant(op_run: Callable[[], Any], reference_run: Callable[[], Any],
                      key: Callable[[Any], Any], label: str) -> Op:
    """An op whose output must equal the jobs=1 output, computed untimed first."""
    expected: dict = {}
    return Op(label, op_run, partial(_same_as, expected, key),
              partial(_reference, expected, reference_run, key))


def _instance_run(h, jobs: int, listed: bool):
    spectrum = coloring.chromatic_spectrum(h, jobs=jobs)
    return spectrum, coloring.all_feasible_partitions(h, jobs=jobs) if listed else None


def _instance_check(spectrum: tuple[int, ...], out) -> bool:
    counted, parts = out
    return counted.counts == spectrum and (parts is None or _histogram(parts) == list(spectrum))


def _instance_key(out):
    counted, parts = out
    return counted.counts, None if parts is None else _listing_digest(parts)


def sparse_ops(seed: int, jobs: int) -> list[Op]:
    """One op per instance: count its partitions, then list them when there
    are at most LIST_LIMIT."""
    ops = []
    for i, inst in enumerate(sparse_instances(seed)):
        h = core.MixedHypergraph(inst["n"], inst["c_edges"], inst["d_edges"])
        listed = sum(inst["spectrum"]) <= LIST_LIMIT
        label = (f"{'count+list' if listed else 'count'} #{i} n={inst['n']}"
                 f" |C|={len(inst['c_edges'])} |D|={len(inst['d_edges'])} jobs={jobs}")
        run = partial(_instance_run, h, jobs, listed)
        if jobs == 1:
            ops.append(Op(label, run, partial(_instance_check, tuple(inst["spectrum"]))))
        else:
            ops.append(_jobs_one_variant(run, partial(_instance_run, h, 1, listed), _instance_key, label))
    return ops
