"""Self-test of the benchmark's checkers and seeding.

    python3 bench/selftest.py

Checks that a deliberately wrong spectrum (sparse-spectrum and
paper-pipeline) and a wrong search ``examined`` each count as one failed op
while the untouched ops pass, that two seeds give different sparse-spectrum
instances, and that short runs with those two seeds report the same metric
names with every output correct.  Exits 1 and names the failed checks
otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT, WORK, import_library, run_pass

import_library()
import workloads  # noqa: E402  (needs the library on the path)


def corrupted(op: workloads.Op, damage) -> workloads.Op:
    return dataclasses.replace(op, label=f"corrupted {op.label}", run=lambda: damage(op.run()))


def wrong_counts(out):
    spectrum, parts = out
    counts = list(spectrum.counts)
    counts[-1] += 1
    return dataclasses.replace(spectrum, counts=tuple(counts)), parts


def wrong_cli_spectrum(out):
    rc, text = out[1]
    report = json.loads(text)
    report["spectrum"][0] += 1
    return [out[0], (rc, json.dumps(report)), *out[2:]]


def short_run(seed: int, results: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "sparse-spectrum",
         "--seed", str(seed), "--seconds", "1", "--results", str(results)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    problems = []
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        count = next(op for op in workloads.build("sparse-spectrum", 1, workdir)
                     if "|C|=0" not in op.label)
        paper = workloads.build("paper-pipeline", 1, workdir)[0]
        witness = next(op for op in workloads.build("search-min", 1, workdir) if "4,3" in op.label)
        ops = [count, corrupted(count, wrong_counts),
               paper, corrupted(paper, wrong_cli_spectrum),
               witness, corrupted(witness, lambda r: dataclasses.replace(r, examined=r.examined + 1))]
        print("three corrupted ops follow; each should be reported as FAILED", file=sys.stderr)
        _, failed = run_pass(ops)
        if failed != 3:
            problems.append(f"expected the 3 corrupted ops to fail and the rest to pass, {failed} failed")

        if workloads.sparse_instances(1) == workloads.sparse_instances(2):
            problems.append("seeds 1 and 2 gave the same sparse-spectrum instances")
        results = Path(workdir) / "runs.jsonl"
        first, second = short_run(1, results), short_run(2, results)
        if sorted(first["metrics"]) != sorted(second["metrics"]):
            problems.append("seeds 1 and 2 report different metric names")
        if not (first["correct"] and second["correct"]):
            problems.append("a short sparse-spectrum run reported a wrong output")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in problems:
        print(f"FAIL: {line}")
    print("selftest:", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
