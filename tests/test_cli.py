import hashlib
import json
import time
from pathlib import Path

import pytest

from mixedhg import MixedHypergraph, TargetSet, coloring, construct_one, constructions
from mixedhg.cli import _build_parser, _spectrum_report, main
from mixedhg.documents import load_hashed, loads, save


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def doc42(tmp_path):
    path = tmp_path / "h42.json"
    save(construct_one(TargetSet((4, 2))), path)
    return str(path)


class TestConstruct:
    def test_writes_document_and_summary(self, capsys, tmp_path):
        out = tmp_path / "out.json"
        code, stdout, _ = run(capsys, "construct", "--set", "4,2", "--out", str(out))
        assert code == 0
        assert "vertices=6" in stdout and "delta=6" in stdout
        assert loads(out.read_text()) == construct_one(TargetSet((4, 2)))

    def test_document_on_stdout_without_out(self, capsys):
        code, stdout, stderr = run(capsys, "construct", "--set", "4,3", "--variant", "two")
        assert code == 0
        h = loads(stdout)
        assert h.n == 4
        assert "vertices=4 delta=4" in stderr

    def test_variant_two_needs_consecutive(self, capsys):
        code, _, stderr = run(capsys, "construct", "--set", "4,2", "--variant", "two")
        assert code == 2
        assert "error" in stderr

    def test_invalid_set(self, capsys):
        assert run(capsys, "construct", "--set", "4")[0] == 2
        assert run(capsys, "construct", "--set", "4,x")[0] == 2
        assert run(capsys, "construct", "--set", "4,1")[0] == 2

    def test_auto_picks_smaller_variant(self, capsys):
        code, stdout, _ = run(capsys, "construct", "--set", "3,2")
        assert code == 0
        assert loads(stdout).n == 3

    def test_vertex_cap(self, capsys):
        assert constructions.VERTEX_CAP == 256
        # (129, 2) needs exactly 256 vertices: built
        code, stdout, stderr = run(capsys, "construct", "--set", "129,2")
        assert code == 0 and "vertices=256 delta=256" in stderr
        h = loads(stdout)
        assert (h.n, len(h.c_edges), len(h.d_edges)) == (256, 32258, 16257)
        # (130, 3) needs 257: refused before anything is built or printed
        code, stdout, stderr = run(capsys, "construct", "--set", "130,3", "--variant", "one")
        assert (code, stdout) == (2, "")
        assert stderr == "error: target set needs 257 vertices, above the construction cap of 256\n"


class TestSpectrum:
    def test_json_report(self, capsys, doc42):
        code, stdout, _ = run(capsys, "spectrum", doc42, "--format", "json")
        assert code == 0
        report = json.loads(stdout)
        assert report["spectrum"] == [0, 1, 0, 1]
        assert report["feasible_set"] == [2, 4]
        assert report["gaps"] == [3]
        assert report["lower_chromatic_number"] == 2
        assert report["upper_chromatic_number"] == 4
        assert report["vertex_count"] == 6
        assert report["input"]["sha256"] == hashlib.sha256(Path(doc42).read_bytes()).hexdigest()
        assert "colorings" not in report

    def test_human_report(self, capsys, doc42):
        code, stdout, stderr = run(capsys, "spectrum", doc42)
        assert code == 0
        assert "spectrum: 0 1 0 1" in stdout
        assert "feasible set: 2 4" in stdout
        assert "gaps: 3" in stdout
        assert "elapsed_seconds=" in stderr

    def test_list_colorings(self, capsys, tmp_path):
        path = tmp_path / "h43.json"
        code = main(["construct", "--set", "4,3", "--variant", "two", "--out", str(path)])
        assert code == 0
        capsys.readouterr()
        code, stdout, _ = run(capsys, "spectrum", str(path), "--format", "json", "--list-colorings")
        assert code == 0
        report = json.loads(stdout)
        # grouping by second coordinate precedes the all-singletons grouping
        assert report["colorings"] == [[[0], [1], [2, 3]], [[0], [1], [2], [3]]]

    def test_json_listing_is_written_in_batches_of_the_same_bytes(self, capsys, tmp_path):
        # the Bell(8) = 4,140 partitions of an edgeless document: more than
        # 2^16 pieces of the encoder, so the report spans two batches
        path = tmp_path / "edgeless8.json"
        save(MixedHypergraph(8, [], []), path)
        code, stdout, _ = run(capsys, "spectrum", str(path), "--list-colorings", "--format", "json")
        assert code == 0
        h, sha256 = load_hashed(str(path))
        partitions = coloring.all_feasible_partitions(h)
        report = _spectrum_report(str(path), sha256, h, coloring.chromatic_spectrum(h), partitions)
        assert stdout == json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert len(report["colorings"]) == 4140
        assert sum(1 for _ in json.JSONEncoder(indent=2, sort_keys=True).iterencode(report)) > 1 << 16

    def test_edgeless_counts_follow_partition_numbers(self, capsys, tmp_path):
        path = tmp_path / "free3.json"
        save(MixedHypergraph(3, [], []), path)
        code, stdout, _ = run(capsys, "spectrum", str(path), "--format", "json")
        assert code == 0
        assert json.loads(stdout)["spectrum"] == [1, 3, 1]

    def test_uncolorable_reports_absent_numbers(self, capsys, tmp_path):
        path = tmp_path / "conflict.json"
        save(MixedHypergraph(2, [(0, 1)], [(0, 1)]), path)
        code, stdout, _ = run(capsys, "spectrum", str(path), "--format", "json")
        assert code == 0
        report = json.loads(stdout)
        assert report["spectrum"] == []
        assert "lower_chromatic_number" not in report
        code, stdout, _ = run(capsys, "spectrum", str(path))
        assert "chromatic numbers: undefined" in stdout

    def test_malformed_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(capsys, "spectrum", str(bad))[0] == 2
        assert run(capsys, "spectrum", str(tmp_path / "missing.json"))[0] == 2

    def test_jobs_is_an_unknown_argument(self, capsys, doc42):
        for argv in (["spectrum", doc42], ["search-min", "--set", "3,2", "--n", "3"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--jobs", "2"])
            captured = capsys.readouterr()
            assert (exc.value.code, captured.out) == (2, "")
            assert "unrecognized arguments: --jobs 2" in captured.err

    def test_listing_cap(self, capsys, tmp_path, monkeypatch):
        assert coloring.LIST_CAP == 4194304
        edgeless = {}
        for n in (11, 12):
            edgeless[n] = str(tmp_path / f"edgeless{n}.json")
            save(MixedHypergraph(n, [], []), edgeless[n])
        # Bell(12) = 4,213,597 is over the cap: refused from the count alone
        code, stdout, stderr = run(capsys, "spectrum", edgeless[12], "--list-colorings")
        assert (code, stdout) == (2, "")
        assert "error: 4213597 feasible partitions exceed the listing cap of 4194304" in stderr
        # Bell(11) = 678,570 is under it; printing that many takes long, so
        # only check that the listing is reached
        listed = []
        monkeypatch.setattr(coloring, "all_feasible_partitions", lambda h: listed.append(h.n) or [])
        assert run(capsys, "spectrum", edgeless[11], "--list-colorings")[0] == 0
        assert listed == [11]

    def test_listing_cap_is_inclusive(self, capsys, tmp_path, monkeypatch):
        path = str(tmp_path / "edgeless5.json")
        save(MixedHypergraph(5, [], []), path)  # Bell(5) = 52
        monkeypatch.setattr(coloring, "LIST_CAP", 52)
        code, stdout, _ = run(capsys, "spectrum", path, "--list-colorings", "--format", "json")
        assert code == 0 and len(json.loads(stdout)["colorings"]) == 52
        monkeypatch.setattr(coloring, "LIST_CAP", 51)
        code, stdout, stderr = run(capsys, "spectrum", path, "--list-colorings")
        assert (code, stdout) == (2, "")
        assert "52 feasible partitions exceed the listing cap of 51" in stderr
        # without --list-colorings the cap does not apply
        assert run(capsys, "spectrum", path)[0] == 0


class TestVerify:
    def test_positive(self, capsys, doc42):
        code, stdout, _ = run(capsys, "verify", doc42, "--set", "2,4")
        assert code == 0
        assert "verified" in stdout

    def test_missing_value_diagnosed(self, capsys, doc42):
        code, stdout, _ = run(capsys, "verify", doc42, "--set", "2,3,4")
        assert code == 1
        assert "3 not feasible" in stdout

    def test_repeated_partition_diagnosed(self, capsys, tmp_path):
        path = tmp_path / "free3.json"
        save(MixedHypergraph(3, [], []), path)
        code, stdout, _ = run(capsys, "verify", str(path), "--set", "1,2,3")
        assert code == 1
        assert "r_2 = 3" in stdout

    def test_extra_value_diagnosed(self, capsys, doc42):
        code, stdout, _ = run(capsys, "verify", doc42, "--set", "2")
        assert code == 1
        assert "4 feasible but not in the target set" in stdout

    def test_failure_report_is_exact(self, capsys, tmp_path):
        path = tmp_path / "free3.json"
        save(MixedHypergraph(3, [], []), path)
        code, stdout, _ = run(capsys, "verify", str(path), "--set", "2,4")
        assert code == 1
        assert stdout == (
            "not a one-realization of {2,4}:\n"
            "  - 4 not feasible\n"
            "  - 1 feasible but not in the target set\n"
            "  - 3 feasible but not in the target set\n"
            "  - r_2 = 3 (a one-realization allows at most 1)\n"
        )

    def test_malformed_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert run(capsys, "verify", str(bad), "--set", "2,4")[0] == 2
        assert run(capsys, "verify", str(bad), "--set", "0,4")[0] == 2
        bad.write_text('{"format_version": 1, "vertex_count": 2, "c_edges": [5], "d_edges": []}')
        assert run(capsys, "verify", str(bad), "--set", "2,4")[:2] == (2, "")


    @pytest.mark.parametrize("value", ["0", ","])
    def test_set_needs_positive_integers(self, capsys, doc42, value):
        code, stdout, stderr = run(capsys, "verify", doc42, "--set", value)
        assert (code, stdout, stderr) == (2, "", "error: --set expects one or more positive integers\n")


class TestDocumentVertexCap:
    @pytest.mark.parametrize("argv", [("verify", "--set", "2"), ("spectrum",)])
    def test_oversize_document_exits_2_at_once(self, capsys, tmp_path, argv):
        path = tmp_path / "big.json"
        path.write_text('{"format_version": 1, "vertex_count": 2000, "c_edges": [], "d_edges": []}')
        start = time.perf_counter()
        code, stdout, stderr = run(capsys, argv[0], str(path), *argv[1:])
        assert time.perf_counter() - start < 1.0
        assert (code, stdout) == (2, "")
        assert "document cap of 512" in stderr

    @pytest.mark.parametrize(
        "argv", [("verify", "--set", "2"), ("spectrum",), ("gaps",), ("iso", "deep.json")]
    )
    def test_deeply_nested_document_exits_2(self, capsys, tmp_path, monkeypatch, argv):
        # nesting deeper than the interpreter's recursion limit is invalid
        # JSON, not a document that fails verification (exit 1)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "deep.json").write_text("[" * 100_000)
        code, stdout, stderr = run(capsys, argv[0], "deep.json", *argv[1:])
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: not valid JSON")

    def test_largest_construction_still_loads(self, capsys):
        # delta({130, 129, 3}) = 256 and variant one builds one vertex more
        code, stdout, stderr = run(capsys, "construct", "--set", "130,129,3", "--variant", "one")
        assert code == 0 and "vertices=257 delta=256" in stderr
        assert loads(stdout).n == 257


# documents whose one bad value is huge: its repr would be 0.1-0.8 MB
HUGE_VALUES = {
    "nested-edge": {"c_edges": [[0] + [[]] * 200_000]},
    "wide-edge": {"c_edges": [list(range(100_000))]},
    "vertex": {"d_edges": [[0, "x" * 100_000]]},
    "non-ascii-vertex": {"d_edges": [[0, "\u00e9" * 100_000]]},
    "vertex_count": {"vertex_count": [0] * 100_000},
    "format_version": {"format_version": "v" * 100_000},
    "label": {"labels": [[0] * 100_000 + [None], [1]]},
}


class TestErrorSize:
    @pytest.mark.parametrize("value", sorted(HUGE_VALUES))
    @pytest.mark.parametrize(
        "argv", [("verify", "--set", "2"), ("spectrum",), ("gaps",), ("iso", "good.json")], ids=lambda argv: argv[0]
    )
    def test_one_short_error_line(self, capsys, tmp_path, monkeypatch, argv, value):
        monkeypatch.chdir(tmp_path)
        doc = {"format_version": 1, "vertex_count": 2, "c_edges": [], "d_edges": []} | HUGE_VALUES[value]
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        save(MixedHypergraph(2, [], []), tmp_path / "good.json")
        code, stdout, stderr = run(capsys, argv[0], "bad.json", *argv[1:])
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: ") and stderr.count("\n") == 1 and stderr.endswith("\n")
        assert len(stderr.encode()) < 256, stderr

    @pytest.mark.parametrize(
        "argv",
        [("spectrum", "x" * 5000), ("construct", "--set", "4,2", "--out", "/nonexistent/" + "x" * 5000)],
        ids=["spectrum", "construct-out"],
    )
    def test_long_paths_give_one_short_error_line(self, capsys, argv):
        code, stdout, stderr = run(capsys, *argv)
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: [Errno ") and stderr.count("\n") == 1 and stderr.endswith("...\n")
        assert len(stderr.encode()) < 256, stderr

    def test_short_paths_are_kept_whole(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, stderr = run(capsys, "spectrum", "missing.json")
        assert (code, stderr) == (2, "error: [Errno 2] No such file or directory: 'missing.json'\n")

    @pytest.mark.parametrize(
        "argv",
        [("search-min", "--set", "4,2", "--n", "x" * 100_000), ("spectrum", "doc.json", "--format", "x" * 100_000),
         ("x" * 100_000,)],
        ids=["int", "choice", "command"],
    )
    def test_usage_errors_are_cut(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "error: argument " in captured.err and captured.err.endswith("...\n")
        assert len(captured.err.encode()) < 1024, captured.err


class TestSearchMin:
    def test_witness_found(self, capsys):
        code, stdout, _ = run(capsys, "search-min", "--set", "3,2", "--n", "3", "--format", "json")
        assert code == 0
        report = json.loads(stdout)
        assert report["outcome"] == "witness-found"
        assert report["witness"]["vertex_count"] == 3

    def test_exhausted(self, capsys):
        code, stdout, _ = run(capsys, "search-min", "--set", "4,3", "--n", "2")
        assert code == 0
        assert "outcome: exhausted" in stdout

    def test_vertex_cap_exit(self, capsys):
        code, _, stderr = run(capsys, "search-min", "--set", "4,2", "--n", "7")
        assert code == 2
        assert "exceeds" in stderr

    def test_six_vertices_run_without_opt_in(self, capsys):
        code, stdout, _ = run(capsys, "search-min", "--set", "6,5", "--n", "6", "--c-size", "6")
        assert code == 0
        assert "outcome: witness-found\nexamined: 65400\n" in stdout
        # 2^35 candidates with the default sizes: over the default budget
        code, stdout, stderr = run(capsys, "search-min", "--set", "4,2", "--n", "6")
        assert code == 2
        assert stdout.startswith("outcome: budget-exceeded\n") and stderr == ""

    def test_max_vertices_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search-min", "--set", "4,2", "--n", "6", "--max-vertices", "6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-vertices" in capsys.readouterr().err

    def test_candidate_budget_exit(self, capsys):
        code, stdout, _ = run(
            capsys, "search-min", "--set", "3,2", "--n", "3", "--max-candidates", "4"
        )
        assert code == 2
        assert "budget-exceeded" in stdout

    def test_candidate_cap_exit(self, capsys):
        # 2^35 candidates: rejected before the candidate order is built
        code, stdout, stderr = run(
            capsys, "search-min", "--set", "4,2", "--n", "6",
            "--max-candidates", str(1 << 35),
        )
        assert code == 2
        assert stdout == ""
        assert "max_candidates must be in 1..67108864" in stderr


class TestIso:
    def test_same_document(self, capsys, doc42):
        code, stdout, _ = run(capsys, "iso", doc42, doc42)
        assert code == 0
        assert "0 -> 0" in stdout

    def test_kind_mismatch(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save(MixedHypergraph(2, [(0, 1)], []), a)
        save(MixedHypergraph(2, [], [(0, 1)]), b)
        code, stdout, _ = run(capsys, "iso", str(a), str(b))
        assert code == 1
        assert "not isomorphic" in stdout

    def test_relabeled_instances(self, capsys, tmp_path):
        h = construct_one(TargetSet((4, 2)))
        g = MixedHypergraph(h.n, h.c_edges, h.d_edges).permuted((5, 3, 1, 0, 2, 4))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save(h, a)
        save(g, b)
        assert run(capsys, "iso", str(a), str(b))[0] == 0

    def test_nested_family_documents(self, capsys, tmp_path):
        big = construct_one(TargetSet((4, 3, 2)))
        inner = [v for v, lab in enumerate(big.labels) if lab[0] == lab[1]]
        a, b = tmp_path / "derived.json", tmp_path / "small.json"
        save(big.derived_subhypergraph(inner), a)
        save(construct_one(TargetSet((3, 2))), b)
        code, stdout, _ = run(capsys, "iso", str(a), str(b))
        assert code == 0
        assert "->" in stdout

    def test_oversize_exits_2(self, capsys, tmp_path):
        big = tmp_path / "big.json"
        save(MixedHypergraph(13, [], [(0, 1)]), big)
        assert run(capsys, "iso", str(big), str(big))[0] == 2


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "mixedhg.cli", "delta", "--set", "4,2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "6\n"


class TestDeltaAndGaps:
    def test_delta(self, capsys):
        assert run(capsys, "delta", "--set", "4,2") == (0, "6\n", "")
        assert run(capsys, "delta", "--set", "5,3,2")[1] == "8\n"
        assert run(capsys, "delta", "--set", "2")[0] == 2

    @pytest.mark.parametrize(
        "argv", [("delta", "--set", "1_0,2"), ("delta", "--set", "٤,٢"), ("construct", "--set", "٥,٢")]
    )
    def test_set_takes_only_ascii_digits(self, capsys, argv):
        # int() alone reads "1_0" as 10 and Arabic-Indic digits as 4, 5 and 2
        expected = f"error: --set expects comma-separated integers, got {argv[-1]!r}\n"
        assert run(capsys, *argv) == (2, "", expected)

    @pytest.mark.parametrize("value", ["4, 2", "+4,2", " 4 ,2,", "4,,2"])
    def test_set_allows_spaces_signs_and_empty_parts(self, capsys, value):
        assert run(capsys, "delta", "--set", value) == (0, "6\n", "")

    def test_gaps(self, capsys, doc42, tmp_path):
        assert run(capsys, "gaps", doc42) == (0, "3\n", "")
        path = tmp_path / "h62.json"
        save(construct_one(TargetSet((6, 2))), path)
        assert run(capsys, "gaps", str(path))[1] == "3\n4\n5\n"
        free = tmp_path / "free.json"
        save(MixedHypergraph(3, [], []), free)
        assert run(capsys, "gaps", str(free)) == (0, "", "")


MAIN_HELP = """\
usage: mixedhg [-h] {construct,spectrum,verify,search-min,iso,delta,gaps} ...

Generate, color, and verify minimum-size one-realizations.

positional arguments:
  {construct,spectrum,verify,search-min,iso,delta,gaps}
    construct           generate a realization for a target set
    spectrum            chromatic spectrum of a document
    verify              check that a document one-realizes a set
    search-min          bounded exhaustive search for small one-realizations
    iso                 test two documents for isomorphism
    delta               minimum one-realization size for a target set
    gaps                gaps in the feasible set of a document

options:
  -h, --help            show this help message and exit
"""

SPECTRUM_HELP = """\
usage: mixedhg spectrum [-h] [--list-colorings] [--format {human,json}] input

positional arguments:
  input                 hypergraph document

options:
  -h, --help            show this help message and exit
  --list-colorings      include every feasible partition
  --format {human,json}
"""


class TestParserReuse:
    def test_parser_is_built_once(self, capsys):
        _build_parser.cache_clear()
        assert run(capsys, "delta", "--set", "4,2")[0] == 0
        assert run(capsys, "delta", "--set", "5,2")[0] == 0
        info = _build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_list_colorings_does_not_carry_over(self, capsys, doc42):
        code, stdout, _ = run(capsys, "spectrum", doc42, "--list-colorings", "--format", "json")
        assert code == 0 and "colorings" in json.loads(stdout)
        code, stdout, _ = run(capsys, "spectrum", doc42, "--format", "json")
        assert code == 0 and "colorings" not in json.loads(stdout)

    def test_variant_does_not_carry_over(self, capsys):
        assert run(capsys, "construct", "--set", "4,3", "--variant", "two")[0] == 0
        # a leftover "two" would refuse {5,3}
        code, stdout, _ = run(capsys, "construct", "--set", "5,3")
        assert code == 0 and loads(stdout).n == 7
        assert loads(run(capsys, "construct", "--set", "4,3", "--variant", "one")[1]).n == 5
        assert loads(run(capsys, "construct", "--set", "4,3")[1]).n == 4

    @pytest.mark.parametrize("argv,expected", [((), MAIN_HELP), (("spectrum",), SPECTRUM_HELP)])
    def test_help_is_unchanged(self, capsys, monkeypatch, argv, expected):
        monkeypatch.setenv("COLUMNS", "80")
        for _ in range(2):  # the first call and a reused parser print the same
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == expected
