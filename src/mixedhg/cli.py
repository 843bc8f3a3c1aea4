"""Command-line front end.

Exit codes: 0 success / verified, 1 verification negative, 2 invalid input or
budget violation.  Reports on stdout are deterministic (timing never changes
them, and no command starts worker processes); timing goes to stderr.  The
argument parser is built once per process, on the first call of ``main``, and
reused by every later call.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from itertools import islice
from typing import Iterable, NoReturn, Optional

from . import coloring, documents, search
from .constructions import (
    VERTEX_CAP,
    TargetSet,
    construct_one,
    construct_two,
    minimum_size,
    smallest_one_realization,
)
from .core import MixedHypergraph, _cut, _quote, are_isomorphic

# the most bytes of UTF-8 that a usage error's message keeps
USAGE_MESSAGE_BYTES = 256
# an integer of --set: int() alone would also take "1_0" and non-ASCII digits
_DECIMAL = re.compile(r"[+-]?[0-9]+")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors keep at most
    ``USAGE_MESSAGE_BYTES`` of their message, so one that echoes a huge
    argument stays short; ``add_subparsers`` builds its parsers from the
    same class."""

    def error(self, message: str) -> NoReturn:
        super().error(_cut(message, USAGE_MESSAGE_BYTES))


def _parse_ints(text: str) -> list[int]:
    """The integers of a comma-separated list: ASCII digits with an optional
    sign, spaces around them and empty parts allowed."""
    parts = [part.strip() for part in text.split(",")]
    try:
        if all(map(_DECIMAL.fullmatch, filter(None, parts))):
            return [int(part) for part in parts if part]
    except ValueError:  # more digits than int() converts
        pass
    raise ValueError(f"--set expects comma-separated integers, got {_quote(text)}")


def _parse_target_set(text: str) -> TargetSet:
    return TargetSet(tuple(_parse_ints(text)))


def _parse_int_set(text: str) -> set[int]:
    values = set(_parse_ints(text))
    if not values or min(values) < 1:
        raise ValueError("--set expects one or more positive integers")
    return values


def _print_json(obj) -> None:
    """``json.dumps(obj, indent=2, sort_keys=True)`` and a newline, written in
    joined batches of 2^16 of the encoder's pieces: a long listing is never
    one string, and a write per piece would cost more than the encoding."""
    pieces = json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)
    for batch in iter(lambda: "".join(islice(pieces, 1 << 16)), ""):
        sys.stdout.write(batch)
    print()


def _spectrum_report(
    path: str,
    sha256: str,
    h: MixedHypergraph,
    spectrum: coloring.Spectrum,
    partitions: Optional[list[coloring.Partition]],
) -> dict:
    feasible = list(spectrum.feasible_values())
    report = {
        "command": "spectrum",
        "input": {"path": path, "sha256": sha256},
        "vertex_count": h.n,
        "spectrum": list(spectrum.counts),
        "feasible_set": feasible,
        "gaps": list(coloring.gaps(feasible)),
    }
    if spectrum.is_colorable:
        report["lower_chromatic_number"] = spectrum.lower_chromatic_number
        report["upper_chromatic_number"] = spectrum.upper_chromatic_number
    if partitions is not None:
        report["colorings"] = [p.blocks for p in partitions]
    return report


def _print_spectrum_human(report: dict) -> None:
    print(f"input: {report['input']['path']} (sha256 {report['input']['sha256']})")
    print(f"vertices: {report['vertex_count']}")
    print("spectrum: " + (" ".join(map(str, report["spectrum"])) or "(uncolorable)"))
    print("feasible set: " + (" ".join(map(str, report["feasible_set"])) or "(empty)"))
    print("gaps: " + (" ".join(map(str, report["gaps"])) or "none"))
    if "lower_chromatic_number" in report:
        print(
            f"chromatic numbers: lower={report['lower_chromatic_number']}"
            f" upper={report['upper_chromatic_number']}"
        )
    else:
        print("chromatic numbers: undefined")
    if "colorings" in report:
        print("colorings:")
        for idx, blocks in enumerate(report["colorings"], start=1):
            rendered = " ".join("{" + ",".join(map(str, b)) + "}" for b in blocks)
            print(f"  {idx}: {rendered}")


_BUILDERS = {"auto": smallest_one_realization, "one": construct_one, "two": construct_two}


def _cmd_construct(args: argparse.Namespace) -> int:
    ts = _parse_target_set(args.set)
    delta = minimum_size(ts)
    if delta > VERTEX_CAP:
        raise ValueError(f"target set needs {delta} vertices, above the construction cap of {VERTEX_CAP}")
    h = _BUILDERS[args.variant](ts)
    text = documents.dumps(h)
    summary = f"vertices={h.n} delta={delta}"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(summary)
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    h, sha256 = documents.load_hashed(args.input)
    started = time.perf_counter()
    spectrum = coloring.chromatic_spectrum(h)
    total = sum(spectrum.counts)
    if args.list_colorings and total > coloring.LIST_CAP:
        print(f"error: {total} feasible partitions exceed the listing cap of {coloring.LIST_CAP}", file=sys.stderr)
        return 2
    partitions = coloring.all_feasible_partitions(h) if args.list_colorings else None
    print(f"elapsed_seconds={time.perf_counter() - started:.3f}", file=sys.stderr)
    report = _spectrum_report(args.input, sha256, h, spectrum, partitions)
    if args.format == "json":
        _print_json(report)
    else:
        _print_spectrum_human(report)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    h = documents.load(args.input)
    target = _parse_int_set(args.set)
    problems = search.realization_problems(coloring.chromatic_spectrum(h), target)
    if problems:
        print(f"not a one-realization of {{{','.join(map(str, sorted(target)))}}}:")
        for line in problems:
            print(f"  - {line}")
        return 1
    print(f"verified: one-realization of {{{','.join(map(str, sorted(target)))}}}")
    return 0


def _cmd_search_min(args: argparse.Namespace) -> int:
    ts = _parse_target_set(args.set)
    budget = search.SearchBudget(
        c_edge_size=args.c_size,
        d_edge_size=args.d_size,
        max_candidates=args.max_candidates,
    )
    report = search.bounded_minimality_search(ts, args.n, budget)
    witness_doc = documents.to_document(report.witness) if report.witness is not None else None
    if args.format == "json":
        _print_json(
            {
                "command": "search-min",
                "outcome": report.outcome.value,
                "examined": report.examined,
                "dedup_ratio": report.dedup_ratio,
                "witness": witness_doc,
            }
        )
    else:
        print(f"outcome: {report.outcome.value}")
        print(f"examined: {report.examined}")
        print(f"dedup_ratio: {report.dedup_ratio:.6f}")
        if report.witness is not None:
            print("witness:")
            sys.stdout.write(documents.dumps(report.witness))
    return 2 if report.outcome is search.Outcome.BUDGET_EXCEEDED else 0


def _cmd_iso(args: argparse.Namespace) -> int:
    h1 = documents.load(args.first)
    h2 = documents.load(args.second)
    witness = are_isomorphic(h1, h2)
    if witness is None:
        print("not isomorphic")
        return 1
    for v, u in enumerate(witness.mapping):
        print(f"{v} -> {u}")
    return 0


def _cmd_delta(args: argparse.Namespace) -> int:
    print(minimum_size(_parse_target_set(args.set)))
    return 0


def _cmd_gaps(args: argparse.Namespace) -> int:
    h = documents.load(args.input)
    for k in coloring.gaps(coloring.feasible_set(h)):
        print(k)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mixedhg",
        description="Generate, color, and verify minimum-size one-realizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="generate a realization for a target set")
    p.add_argument("--set", required=True, help="target set, e.g. 4,2")
    p.add_argument("--variant", choices=list(_BUILDERS), default="auto")
    p.add_argument("--out", help="write the document here instead of stdout")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("spectrum", help="chromatic spectrum of a document")
    p.add_argument("input", help="hypergraph document")
    p.add_argument("--list-colorings", action="store_true", help="include every feasible partition")
    p.add_argument("--format", choices=["human", "json"], default="human")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("verify", help="check that a document one-realizes a set")
    p.add_argument("input", help="hypergraph document")
    p.add_argument("--set", required=True, help="expected feasible set, e.g. 2,4")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search-min", help="bounded exhaustive search for small one-realizations")
    p.add_argument("--set", required=True, help="target set, e.g. 3,2")
    p.add_argument("--n", type=int, required=True, help="vertex count to search")
    budget = search.SearchBudget()
    p.add_argument("--c-size", type=int, default=budget.c_edge_size, help="uniform C-edge size")
    p.add_argument("--d-size", type=int, default=budget.d_edge_size, help="uniform D-edge size")
    p.add_argument("--max-candidates", type=int, default=budget.max_candidates)
    p.add_argument("--format", choices=["human", "json"], default="human")
    p.set_defaults(func=_cmd_search_min)

    p = sub.add_parser("iso", help="test two documents for isomorphism")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("delta", help="minimum one-realization size for a target set")
    p.add_argument("--set", required=True)
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("gaps", help="gaps in the feasible set of a document")
    p.add_argument("input")
    p.set_defaults(func=_cmd_gaps)

    return parser


def main(argv: Optional[Iterable[str]] = None) -> int:
    args = _build_parser().parse_args(argv if argv is None else list(argv))
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # as str(exc), but with an OSError's file names quoted
        names = " -> ".join(_quote(f) for f in (getattr(exc, "filename", None), getattr(exc, "filename2", None)) if f)
        print(f"error: [Errno {exc.errno}] {exc.strerror}: {names}" if names else f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
