"""Regenerate ``sparse_pool.json``, the instance pool of the sparse workloads.

    python3 bench/make_pool.py

Draws random mixed hypergraphs with n = 12..14 vertices, 3..6 C-triples and
6..18 D-pairs from a fixed seed, walks each one with the benchmark's own
level walk, and keeps those whose feasible-partition count and walk work
fall in narrow bands, so that the ops of one kind cost about the same on
every seed.  The pool stores each instance with its spectrum, so the
checkers need no library call, and is sorted by walk work, so a workload
seed can take one instance from each slice of it.

The selection depends only on the instances, never on a timing, so the pool
is the same on every machine.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

from reference import WalkTooLarge, level_walk

POOL_SEED = 20111106
POOL_FILE = Path(__file__).with_name("sparse_pool.json")

# A listed instance is counted and listed; a counted one (more than
# LIST_LIMIT feasible partitions) is only counted.
LIST_LIMIT = 100_000
KINDS = {
    #         feasible partitions   walk work          pool size
    "listed": ((15_000, 25_000), (300_000, 360_000), 64),
    "counted": ((LIST_LIMIT + 1, 150_000), (950_000, 1_100_000), 32),
}


def walk_work(work: dict) -> int:
    """Extensions tried plus edge tests: what the count costs."""
    return work["attempts"] + work["c_checks"] + work["d_checks"]


def draw(rng: random.Random, kind: str) -> dict:
    (fmin, fmax), (wmin, wmax), _ = KINDS[kind]
    while True:
        n = rng.randint(12, 14)
        c_edges = rng.sample(list(itertools.combinations(range(n), 3)), rng.randint(3, 6))
        d_edges = rng.sample(list(itertools.combinations(range(n), 2)), rng.randint(6, 18))
        try:
            spectrum, work = level_walk(n, c_edges, d_edges, max_attempts=wmax)
        except WalkTooLarge:
            continue
        units = walk_work(work)
        if fmin <= sum(spectrum) <= fmax and wmin <= units <= wmax:
            return {
                "n": n,
                "c_edges": sorted(c_edges),
                "d_edges": sorted(d_edges),
                "spectrum": spectrum,
                "work": units,
            }


def main() -> None:
    rng = random.Random(POOL_SEED)
    pool = {}
    for kind, (_, _, size) in KINDS.items():
        pool[kind] = sorted((draw(rng, kind) for _ in range(size)), key=lambda inst: inst["work"])
    text = json.dumps(pool, separators=(",", ":"))
    POOL_FILE.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {POOL_FILE} ({len(text)} bytes)")


if __name__ == "__main__":
    main()
