import json

import pytest

from mixedhg import MixedHypergraph, TargetSet, construct_one
from mixedhg.cli import main
from mixedhg.documents import loads, save


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
        assert len(report["input"]["sha256"]) == 64
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

    def test_output_identical_across_jobs(self, capsys, doc42):
        outputs = set()
        for jobs in ("1", "2", "3"):
            code, stdout, _ = run(capsys, "spectrum", doc42, "--format", "json", "--jobs", jobs)
            assert code == 0
            outputs.add(stdout)
        assert len(outputs) == 1

    def test_bad_jobs_value(self, capsys, doc42):
        assert run(capsys, "spectrum", doc42, "--jobs", "0")[0] == 2


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

    def test_candidate_budget_exit(self, capsys):
        code, stdout, _ = run(
            capsys, "search-min", "--set", "3,2", "--n", "3", "--max-candidates", "4"
        )
        assert code == 2
        assert "budget-exceeded" in stdout

    def test_jobs_do_not_change_output(self, capsys):
        outputs = set()
        for jobs in ("1", "2"):
            code, stdout, _ = run(
                capsys, "search-min", "--set", "3,2", "--n", "3", "--format", "json", "--jobs", jobs
            )
            assert code == 0
            outputs.add(stdout)
        assert len(outputs) == 1


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

    def test_gaps(self, capsys, doc42, tmp_path):
        assert run(capsys, "gaps", doc42) == (0, "3\n", "")
        path = tmp_path / "h62.json"
        save(construct_one(TargetSet((6, 2))), path)
        assert run(capsys, "gaps", str(path))[1] == "3\n4\n5\n"
        free = tmp_path / "free.json"
        save(MixedHypergraph(3, [], []), free)
        assert run(capsys, "gaps", str(free)) == (0, "", "")
