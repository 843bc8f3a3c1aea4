"""Compare two result sets of run.py, metric by metric and workload by workload.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records run.py appends to its ``--results`` file.  For
every (metric, workload) pair this prints both medians with their quartiles,
the share of pairs the change won (the i-th run of each side form a pair;
ties count for neither side), and a verdict:

- ``improved``: the change won at least 9/10 of the pairs and the medians
  differ by more than the base's interquartile distance;
- ``unresolved``: either side's interquartile distance, as a share of its
  median, is wider than the metric's bound, and not every change run beats
  every base run (metrics without a bound are never called no worse);
- ``worse``: the change's median is worse than the base's by more than the
  bound;
- ``no worse``: otherwise.

Bounds and the direction of "better" come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values in run order."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            for name, metric in record["metrics"].items():
                values[(record["workload"], name)].append(metric["value"])
    return values


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def relative_spread(xs: list[float]) -> float:
    q1, med, q3 = quartiles(xs)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def verdict(base: list[float], change: list[float], lower_is_better: bool, bound) -> tuple[float, str]:
    """Share of pairs won by the change, and the verdict."""

    def better(a: float, b: float) -> bool:  # b reads better than a
        return b < a if lower_is_better else b > a

    pairs = list(zip(base, change))
    won = sum(better(a, b) for a, b in pairs) / len(pairs)
    q1, base_med, q3 = quartiles(base)
    change_med = quartiles(change)[1]
    gain = base_med - change_med if lower_is_better else change_med - base_med
    if won >= 0.9 and gain > q3 - q1:
        return won, "improved"
    if bound is None:
        return won, "unresolved"
    every_run_better = all(better(a, b) for a in base for b in change)
    if max(relative_spread(base), relative_spread(change)) > bound and not every_run_better:
        return won, "unresolved"
    if -gain > bound * abs(base_med):
        return won, "worse"
    return won, "no worse"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare two result sets of bench/run.py.")
    p.add_argument("base", type=Path)
    p.add_argument("change", type=Path)
    args = p.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    metrics = spec["end_to_end"] + spec["per_layer"]
    order = {m["name"]: i for i, m in enumerate(metrics)}
    base, change = load(args.base), load(args.change)
    print(f"{'workload':16s} {'metric':26s} {'base median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'won':>6s}  verdict")
    shared = [k for k in base.keys() & change.keys() if k[1] in order]
    for key in sorted(shared, key=lambda k: (k[0], order[k[1]])):
        workload, name = key
        m = metrics[order[name]]
        won, word = verdict(base[key], change[key], m["better"] == "lower", m.get("bound"))
        cells = []
        for xs in (base[key], change[key]):
            q1, med, q3 = quartiles(xs)
            cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
        pairs = min(len(base[key]), len(change[key]))
        print(f"{workload:16s} {name:26s} {cells[0]:>34s} {cells[1]:>34s} "
              f"{won:6.0%}  {word} ({pairs} pairs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
