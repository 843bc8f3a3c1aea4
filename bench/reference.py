"""Answers the benchmark computes on its own, without calling mixedhg.

The checkers compare the library's outputs against these, so a change to the
library cannot change what counts as correct.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def stirling2_row(n: int) -> list[int]:
    """``[S(n,1), ..., S(n,n)]`` by the recurrence S(m,k) = k S(m-1,k) + S(m-1,k-1)."""
    row = [1]  # S(0, 0)
    for m in range(1, n + 1):
        nxt = [0] * (m + 1)
        for k in range(1, m + 1):
            nxt[k] = k * (row[k] if k < len(row) else 0) + row[k - 1]
        row = nxt
    return row[1:]


def paper_vertex_count(values) -> int:
    """Size of the minimum one-realization: 2 n_1 - n_s, one less when n_1 = n_2 + 1."""
    vals = sorted(values, reverse=True)
    n = 2 * vals[0] - vals[-1]
    return n - 1 if vals[0] == vals[1] + 1 else n


def restricted_growth_strings(n: int) -> list[tuple[int, ...]]:
    """Every partition of ``0..n-1`` as a restricted-growth string (Bell(n) of them)."""
    out = [(0,)]
    for _ in range(1, n):
        out = [s + (b,) for s in out for b in range(max(s) + 2)]
    return out


def brute_spectrum(n: int, c_edges, d_edges) -> list[int]:
    """Feasible partitions per block count, by checking every partition."""
    counts = [0] * (n + 1)
    for s in restricted_growth_strings(n):
        if any(len({s[v] for v in e}) == len(e) for e in c_edges):
            continue
        if any(len({s[v] for v in e}) == 1 for e in d_edges):
            continue
        counts[max(s) + 1] += 1
    return counts[1:]


def is_one_realization_brute(n: int, c_edges, d_edges, values) -> bool:
    counts = brute_spectrum(n, c_edges, d_edges)
    feasible = {k for k, c in enumerate(counts, start=1) if c}
    return max(counts) <= 1 and feasible == set(values)


def maps_edges(mapping, first: dict, second: dict) -> bool:
    """Whether ``mapping`` sends the edges of one document onto the other's."""
    if sorted(mapping) != list(range(first["vertex_count"])):
        return False
    for key in ("c_edges", "d_edges"):
        image = {tuple(sorted(mapping[v] for v in e)) for e in first[key]}
        if image != {tuple(sorted(e)) for e in second[key]}:
            return False
    return True


class WalkTooLarge(Exception):
    """The level-by-level walk would try more assignments than allowed."""


def level_walk(n: int, c_edges, d_edges, max_attempts: int):
    """Breadth-first walk over proper restricted-growth prefixes, vectorised.

    Returns ``(spectrum, work)``.  ``spectrum[k-1]`` counts the feasible
    partitions with ``k`` blocks (trailing zeros trimmed).  ``work`` counts
    what a depth-first enumerator in vertex order does on this instance when
    it tests each edge as its highest vertex is placed, C-edges before
    D-edges and each family in sorted order, stopping at the first failed
    edge: ``attempts`` (prefix, block) extensions tried, ``nodes`` that
    survive, ``c_checks`` and ``d_checks`` edge tests made, and ``leaves``.
    Raises ``WalkTooLarge`` as soon as ``attempts`` passes ``max_attempts``.
    """
    closing: list[list[tuple[bool, tuple[int, ...]]]] = [[] for _ in range(n)]
    for is_c, edges in ((True, c_edges), (False, d_edges)):
        for e in sorted({tuple(sorted(e)) for e in edges}):
            closing[e[-1]].append((is_c, e))
    cols = np.zeros((1, n), dtype=np.int8)
    used = np.ones(1, dtype=np.int8)
    work = {"attempts": 1, "nodes": 1, "c_checks": 0, "d_checks": 0}
    for v in range(1, n):
        if used.size == 0:
            break
        work["attempts"] += int(used.sum()) + used.size
        if work["attempts"] > max_attempts:
            raise WalkTooLarge(work["attempts"])
        next_cols, next_used = [], []
        for b in range(int(used.max()) + 1):
            sel = used >= b
            rows = cols[sel]
            rows[:, v] = b
            ok = np.ones(len(rows), dtype=bool)
            for is_c, e in closing[v]:
                work["c_checks" if is_c else "d_checks"] += int(ok.sum())
                if is_c:  # some two members share a block
                    repeat = np.zeros(len(rows), dtype=bool)
                    for x, y in combinations(e, 2):
                        repeat |= rows[:, x] == rows[:, y]
                    ok &= repeat
                else:  # not every member in one block
                    ok &= ~np.all(rows[:, list(e)] == rows[:, [e[0]]], axis=1)
            next_cols.append(rows[ok])
            next_used.append((used[sel] + (used[sel] == b))[ok])
        cols = np.concatenate(next_cols)
        used = np.concatenate(next_used).astype(np.int8)
        work["nodes"] += used.size
    counts = np.bincount(used, minlength=n + 1)[1:].tolist() if used.size else []
    while counts and counts[-1] == 0:
        counts.pop()
    work["leaves"] = sum(counts)
    return counts, work
