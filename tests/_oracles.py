"""Independent brute-force oracles used to validate the engine.

Nothing here shares code paths with the library's pruned enumeration: the
partition generator spells out every restricted-growth string, and the
spectrum oracle filters them with the definitional properness check.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator

from mixedhg import MixedHypergraph, Partition, is_proper


def all_restricted_growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """Every canonical set-partition encoding of 0..n-1, lexicographically."""
    if n < 1:
        return
    assignment = [0] * n

    def rec(v: int, top: int) -> Iterator[tuple[int, ...]]:
        if v == n:
            yield tuple(assignment)
            return
        for b in range(top + 2):
            assignment[v] = b
            yield from rec(v + 1, max(top, b))

    yield from rec(1, 0)


def brute_force_partitions(h: MixedHypergraph) -> list[Partition]:
    """Filter every partition by the definitional properness check."""
    out = []
    for assignment in all_restricted_growth_strings(h.n):
        p = Partition(assignment)
        if is_proper(h, p):
            out.append(p)
    return out


def brute_force_spectrum(h: MixedHypergraph) -> tuple[int, ...]:
    """Feasible-partition counts per block count, trailing zeros trimmed."""
    counts = [0] * (h.n + 1)
    for p in brute_force_partitions(h):
        counts[p.num_blocks] += 1
    top = max((k for k in range(h.n + 1) if counts[k]), default=0)
    return tuple(counts[1 : top + 1])


@cache
def stirling_second(n: int, k: int) -> int:
    """Partitions of an n-set into k nonempty blocks, by the recurrence."""
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * stirling_second(n - 1, k) + stirling_second(n - 1, k - 1)


def restrict_partition(p: Partition, keep: set[int]) -> Partition:
    """Drop vertices outside ``keep`` and renumber; empty blocks vanish."""
    kept = sorted(keep)
    pos = {v: i for i, v in enumerate(kept)}
    blocks: dict[int, list[int]] = {}
    for v in kept:
        blocks.setdefault(p.assignment[v], []).append(pos[v])
    return Partition.from_blocks(blocks.values())
