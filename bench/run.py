"""Run one benchmark workload, check every output, and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/``.  One process runs one workload as a closed loop: one caller issues
the next operation when the last one returns, pass after pass over the
workload's fixed operation list, for about ``--seconds`` seconds after a
warm-up pass.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run (see NOTES.md).  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every run is also appended to ``--results`` for compare.py.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
RESULTS = BENCH / "results"
SETUP_PROBES = 5

# On a shared 2-vCPU virtual machine (Intel Xeon) the CPU speed changed by up
# to 2x over a few seconds (same work, same process, CPU time equal to wall
# time), which left raw per-run times 25-35% apart between runs.  So every op is
# bracketed by a short fixed pure-Python kernel, and times are reported in
# reference seconds: measured seconds x REF_KERNEL_S / the kernel's time
# next to them, i.e. seconds on a CPU that runs the kernel in REF_KERNEL_S.
# Raw seconds are printed and recorded alongside.
REF_KERNEL_S = 0.001
KERNEL_LOOPS = 4000


def kernel_seconds() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(KERNEL_LOOPS):
        acc += len({i & 7, (i >> 1) & 3, (i >> 3) & 1})
    return time.perf_counter() - start


class SourcesMissing(Exception):
    pass


def import_library():
    """Import mixedhg from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "mixedhg" / "__init__.py").is_file():
        raise SourcesMissing(f"no mixedhg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    lib = importlib.import_module("mixedhg")
    if Path(lib.__file__).resolve().parent != (SRC / "mixedhg").resolve():
        raise SourcesMissing(f"mixedhg was imported from {lib.__file__}, not {SRC}")
    return lib


def git_sha() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_sha": git_sha(),
        "seed": seed,
        "loadavg": os.getloadavg(),
    }


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from ``import mixedhg`` through input generation, in this
    process, and the kernel's time right after."""
    start = time.perf_counter()
    import_library()
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        workloads.build(workload, seed, workdir)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return elapsed, statistics.median(kernel_seconds() for _ in range(9))


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(set-up seconds, kernel seconds) of SETUP_PROBES fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return samples


# --- the closed loop ------------------------------------------------------------


def _cpu(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def run_pass(ops, tracer=None) -> tuple[list[tuple[float, float, float, float]], int]:
    """Run every op once; returns per op (wall, own cpu, children cpu, kernel
    seconds around it) and the number of ops whose call raised or whose
    check failed."""
    timings, failed = [], 0
    kernel = kernel_seconds()
    for i, op in enumerate(ops):
        own0, kids0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
        if tracer is not None:
            tracer.op = i
            root = tracer.begin()
        start = time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception as exc:  # a failing op is counted, and the loop goes on
            out, error = None, exc
        end = time.perf_counter()
        if tracer is not None:
            tracer.end(root, "bench.op", start, end)
        own, kids = _cpu(resource.RUSAGE_SELF) - own0, _cpu(resource.RUSAGE_CHILDREN) - kids0
        after = kernel_seconds()
        timings.append((end - start, own, kids, (kernel + after) / 2))
        kernel = after
        if error is None:
            try:
                ok = bool(op.check(out))
            except Exception as exc:
                ok, error = False, exc
        else:
            ok = False
        if not ok:
            failed += 1
            detail = "".join(traceback.format_exception_only(error)).strip() if error else "wrong output"
            print(f"FAILED op {i} ({op.label}): {detail}", file=sys.stderr)
    return timings, failed


def per_op_median(passes: list[list[tuple]], value) -> list[float]:
    """Per op, the median over the passes of ``value(timing)``."""
    return [statistics.median(value(p[i]) for p in passes) for i in range(len(passes[0]))]


def ref_wall(t: tuple) -> float:
    return t[0] * REF_KERNEL_S / t[3]


def ref_cpu(t: tuple) -> float:
    return (t[1] + t[2]) * REF_KERNEL_S / t[3]


def loop(ops, seconds: float, traced: bool):
    """Warm-up pass, then passes until ``seconds`` are used up.  In a traced
    run the timed passes alternate between untraced and traced."""
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
    min_passes = 5 if traced else 3
    plain, spanned, bounds = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    for n in itertools.count():
        use_trace = traced and n % 2 == 0 and n > 0
        if use_trace:
            first = len(tracer.spans)
            tracer.install()
        try:
            timings, bad = run_pass(ops, tracer if use_trace else None)
        finally:
            if use_trace:
                tracer.uninstall()
                bounds.append((first, len(tracer.spans)))
        attempted += len(ops)
        failed += bad
        if n > 0:
            (spanned if use_trace else plain).append(timings)
        elapsed = time.perf_counter() - start
        if n + 1 >= min_passes and elapsed * (n + 2) / (n + 1) > seconds:
            break
    return plain, spanned, bounds, tracer, attempted, failed


# --- metrics ----------------------------------------------------------------------


def end_to_end(plain, setup, attempted, failed) -> tuple[dict, dict]:
    """The end-to-end metrics, and the raw-second readings of the timed ones."""
    walls = per_op_median(plain, ref_wall)
    p50, p90 = statistics.quantiles(walls, n=100, method="inclusive")[49:90:40]
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "setup_s": (statistics.median(raw * REF_KERNEL_S / k for raw, k in setup), "s"),
        "wall_s": (sum(walls), "s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "cpu_s": (sum(per_op_median(plain, ref_cpu)), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
    }
    raw = {
        "setup_s": statistics.median(raw for raw, _ in setup),
        "wall_s": sum(per_op_median(plain, lambda t: t[0])),
        "cpu_s": sum(per_op_median(plain, lambda t: t[1] + t[2])),
        "kernel_ms": statistics.median(t[3] for p in plain for t in p) * 1e3,
    }
    return metrics, raw


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("cpu_over_wall"):
        return "ratio"
    if name == "documents.bytes":
        return "B"
    if name == "coloring.us_per_partition":
        return "us"
    return "count"


def per_layer(plain, spanned, bounds, tracer) -> dict:
    from tracing import layer_metrics

    per_pass = []
    for timings, (first, last) in zip(spanned, bounds):
        m = layer_metrics(tracer.spans, first, last)
        wall = sum(t[0] for t in timings)
        own = sum(t[1] for t in timings)
        kids = sum(t[2] for t in timings)
        m.update({"pool.parent_s": own, "pool.child_cpu_s": kids,
                  "pool.cpu_over_wall": (own + kids) / wall, "trace.wall_s": wall})
        per_pass.append(m)
    metrics = {}
    for k in per_pass[0]:
        values = [m[k] for m in per_pass]
        metrics[k] = values[0] if len(set(values)) == 1 else statistics.median(values)
    metrics["trace.overhead_ratio"] = sum(per_op_median(spanned, ref_wall)) / sum(per_op_median(plain, ref_wall))
    return {k: (v, unit_of(k)) for k, v in sorted(metrics.items())}


# --- main -------------------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", type=Path, default=RESULTS / "runs.jsonl",
                   help="JSON-lines file each run is appended to")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0
    env = environment(args.seed)
    try:
        import_library()
    except SourcesMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        for op in ops:
            if op.prepare is not None:
                op.prepare()
        plain, spanned, bounds, tracer, attempted, failed = loop(ops, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    raw = {}
    if args.trace:
        metrics = per_layer(plain, spanned, bounds, tracer)
    else:
        metrics, raw = end_to_end(plain, setup, attempted, failed)
    passes = len(plain) + len(spanned)
    print(f"env: {json.dumps(env)}")
    print(f"workload {args.workload}: {len(ops)} ops per pass, {passes} timed passes after a warm-up,"
          f" {attempted} ops attempted, {failed} failed (fail_ratio {failed / attempted:.6g})")
    if raw:
        print(f"times in reference seconds (kernel = {REF_KERNEL_S * 1e3:g} ms), per op the median of"
              f" {len(plain)} passes; setup_s the median of {len(setup)} fresh processes;"
              f" raw: {json.dumps(raw)}")
    for name, (value, unit) in metrics.items():
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"  {name:28s} {shown} {unit}")
    if tracer is not None:
        RESULTS.mkdir(exist_ok=True)
        spans_file = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(str(spans_file))
        selfs = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
        print(f"layer self times {selfs:.6f} s of traced pass wall {metrics['trace.wall_s'][0]:.6f} s;"
              f" {len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "passes": passes, "raw": raw, **result}
    args.results.parent.mkdir(parents=True, exist_ok=True)
    with open(args.results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
