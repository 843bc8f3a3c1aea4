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
from contextlib import suppress
from typing import Iterable, Iterator, NoReturn, Optional

import numpy as np

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
# an integer on the command line: int() alone would also take "1_0" and
# non-ASCII digits
_DECIMAL = re.compile(r"[+-]?[0-9]+")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors keep at most
    ``USAGE_MESSAGE_BYTES`` of their message, so one that echoes a huge
    argument stays short; ``add_subparsers`` builds its parsers from the
    same class."""

    def error(self, message: str) -> NoReturn:
        super().error(_cut(message, USAGE_MESSAGE_BYTES))


def _parse_int(text: str) -> int:
    """An integer on the command line: ASCII digits with an optional sign,
    spaces around them allowed.  Refused, it raises the error that argparse
    reports as a usage error."""
    if _DECIMAL.fullmatch(text.strip()):
        with suppress(ValueError):  # more digits than int() converts
            return int(text)
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_ints(text: str) -> list[int]:
    """The integers of a comma-separated list; empty parts are allowed."""
    try:
        return [_parse_int(part) for part in text.split(",") if part.strip()]
    except argparse.ArgumentTypeError:
        raise ValueError(f"--set expects comma-separated integers, got {_quote(text)}") from None


def _parse_target_set(text: str) -> TargetSet:
    return TargetSet(tuple(_parse_ints(text)))


def _parse_int_set(text: str) -> set[int]:
    values = set(_parse_ints(text))
    if not values or min(values) < 1:
        raise ValueError("--set expects one or more positive integers")
    return values


def _print_json(obj, colorings: Optional[Iterable[tuple[int, list[str]]]] = None) -> None:
    """``json.dumps(obj, indent=2, sort_keys=True)`` and a newline, with
    ``obj["colorings"]`` written batch by batch from ``colorings``, when
    given, as laid out by ``_coloring_texts``: a listing is never one string."""
    if colorings is None:
        print(json.dumps(obj, indent=2, sort_keys=True))
        return
    # the report around its colorings: the placeholder 0 is the only value
    # of that key, and a quote inside a JSON string is escaped
    head, _, tail = json.dumps({**obj, "colorings": 0}, indent=2, sort_keys=True).partition('"colorings": 0')
    sys.stdout.write(head + '"colorings": [')
    at = None
    for at, batch in colorings:
        sys.stdout.write(("," if at else "") + "\n    " + ",\n    ".join(batch))
    print(("]" if at is None else "\n  ]") + tail)


# the text before a vertex of a listed coloring, by report format: before
# one in the block of the vertex before it, before the first vertex of the
# next block, and before the coloring's first vertex; then the text after
# its last vertex
_COLORING_TOKENS = {
    "json": (",\n        ", "\n      ],\n      [\n        ", "[\n      [\n        ", "\n      ]\n    ]"),
    "human": (",", "} {", "{", "}"),
}


def _coloring_texts(rows: np.ndarray, fmt: str) -> Iterator[tuple[int, list[str]]]:
    """The colorings of restricted-growth ``rows``, each as the text that
    report format ``fmt`` lists it by (its blocks ordered by smallest member), in
    batches of 4,096, each after the number of colorings before it."""
    *before, after = _COLORING_TOKENS[fmt]
    n = rows.shape[1]
    tokens = np.array([text + str(v) for text in before for v in range(n)], dtype=object)
    for at in range(0, len(rows), 1 << 12):
        batch = rows[at : at + (1 << 12)]
        # a row's keys block * n + vertex (intp: n * n passes int16 from n = 182), sorted,
        # give its vertices grouped by block and its blocks from 0 in steps of 0 or 1;
        # those steps, with 2 before the first vertex, are the kinds of token
        blocks, vertices = np.divmod(np.sort(batch.astype(np.intp) * n + np.arange(n), axis=1), n)
        kinds = np.diff(blocks, axis=1, prepend=-2)
        yield at, [text + after for text in map("".join, tokens[kinds * n + vertices].tolist())]


def _spectrum_report(path: str, sha256: str, h: MixedHypergraph, spectrum: coloring.Spectrum) -> dict:
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
    return report


def _print_spectrum_human(report: dict, colorings: Optional[Iterable[tuple[int, list[str]]]]) -> None:
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
    if colorings is not None:
        print("colorings:")
        for at, batch in colorings:
            sys.stdout.write("".join([f"  {i}: {text}\n" for i, text in enumerate(batch, at + 1)]))


def _cmd_construct(args: argparse.Namespace) -> int:
    ts = _parse_target_set(args.set)
    delta = minimum_size(ts)
    if delta > VERTEX_CAP:
        raise ValueError(f"target set needs {delta} vertices, above the construction cap of {VERTEX_CAP}")
    # looked up per call, so a builder swapped on this module is the one called
    h = {"auto": smallest_one_realization, "one": construct_one, "two": construct_two}[args.variant](ts)
    summary = f"vertices={h.n} delta={delta}"
    if args.out:
        documents.save(h, args.out)
        print(summary)
    else:
        sys.stdout.write(documents.dumps(h))
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
    colorings = _coloring_texts(coloring._partition_rows(h), args.format) if args.list_colorings else None
    print(f"elapsed_seconds={time.perf_counter() - started:.3f}", file=sys.stderr)
    report = _spectrum_report(args.input, sha256, h, spectrum)
    if args.format == "json":
        _print_json(report, colorings)
    else:
        _print_spectrum_human(report, colorings)
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
    p.add_argument("--variant", choices=["auto", "one", "two"], default="auto")
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
    p.add_argument("--n", type=_parse_int, required=True, help="vertex count to search")
    budget = search.SearchBudget()
    p.add_argument("--c-size", type=_parse_int, default=budget.c_edge_size, help="uniform C-edge size")
    p.add_argument("--d-size", type=_parse_int, default=budget.d_edge_size, help="uniform D-edge size")
    p.add_argument("--max-candidates", type=_parse_int, default=budget.max_candidates)
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
    except (ValueError, OSError) as exc:  # as str(exc), but with an OSError's file name quoted
        name = getattr(exc, "filename", None)
        print(f"error: [Errno {exc.errno}] {exc.strerror}: {_quote(name)}" if name else f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
