from __future__ import annotations

import io
import json
import subprocess
import sys

import pytest

from finsemi import format_table, verify_theorem
from finsemi.cli import main
from support import L2, N3, S6

S6_TEXT = format_table(S6)
N3_TEXT = format_table(N3)
NON_ASSOC_TEXT = "2\n0 1\n0 0\n"


def left_zero_text(n):
    return f"{n}\n" + "".join(" ".join([str(x)] * n) + "\n" for x in range(n))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCheck:
    def test_associative_file(self, tmp_path, capsys):
        assert main(["check", write(tmp_path, "n3", N3_TEXT)]) == 0
        assert capsys.readouterr().out == "associative\n"

    def test_not_associative(self, tmp_path, capsys):
        assert main(["check", write(tmp_path, "bad", NON_ASSOC_TEXT)]) == 1
        assert capsys.readouterr().out == "not associative: witness 1 0 1\n"

    def test_structured(self, tmp_path, capsys):
        assert main(
            ["check", write(tmp_path, "bad", NON_ASSOC_TEXT), "--format", "structured"]
        ) == 1
        assert json.loads(capsys.readouterr().out) == {
            "associative": False,
            "witness": [1, 0, 1],
        }

    def test_out_of_range_entry_is_input_error(self, tmp_path, capsys):
        assert main(["check", write(tmp_path, "bad", "2\n0 3\n1 0\n")]) == 2
        assert capsys.readouterr().err.startswith("finsemi:")

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/table"]) == 2
        assert "finsemi:" in capsys.readouterr().err

    def test_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(N3_TEXT))
        assert main(["check"]) == 0
        assert capsys.readouterr().out == "associative\n"


class TestAnalyze:
    def test_s6_text(self, tmp_path, capsys):
        assert main(["analyze", write(tmp_path, "s6", S6_TEXT)]) == 0
        assert capsys.readouterr().out == (
            "order: 6\n"
            "product_set: 0 1\n"
            "h: 0 2 4 | 1 3 5\n"
            "psi: 0 | 1 | 2 4 | 3 5\n"
            "transversal: 0 1 2 3\n"
            "theta: 0 1 2 3 2 3\n"
            "inflation: ok\n"
        )

    def test_s6_structured(self, tmp_path, capsys):
        main(["analyze", write(tmp_path, "s6", S6_TEXT), "--format", "structured"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["order"] == 6
        assert doc["product_set"] == [0, 1]
        assert doc["psi_blocks"] == [[0], [1], [2, 4], [3, 5]]
        assert doc["theta"] == [0, 1, 2, 3, 2, 3]
        assert doc["inflation_ok"] is True
        assert doc["inflation_witness"] is None

    def test_greatest_policy(self, tmp_path, capsys):
        main(
            [
                "analyze",
                write(tmp_path, "s6", S6_TEXT),
                "--policy",
                "greatest",
                "--format",
                "structured",
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["transversal"] == [0, 1, 4, 5]
        assert doc["theta"] == [0, 1, 4, 5, 4, 5]

    def test_agrees_with_verify_theorem(self, tmp_path, capsys):
        path = write(tmp_path, "s6", S6_TEXT)
        for policy in ("least", "greatest"):
            main(["analyze", path, "--policy", policy, "--format", "structured"])
            analyzed = json.loads(capsys.readouterr().out)
            main(
                ["verify-theorem", path, "--policy", policy, "--format", "structured"]
            )
            verified = json.loads(capsys.readouterr().out)
            assert analyzed["transversal"] == verified["transversal_used"]
            assert (
                sorted(len(b) for b in analyzed["psi_blocks"])
                == verified["psi_class_sizes"]
            )

    def test_rejects_non_associative(self, tmp_path, capsys):
        assert main(["analyze", write(tmp_path, "bad", NON_ASSOC_TEXT)]) == 2


class TestAut:
    def test_s6_text(self, tmp_path, capsys):
        assert main(["aut", write(tmp_path, "s6", S6_TEXT)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "8"
        assert len(lines) == 9
        assert lines[1] == "p: 0 1 2 3 4 5"
        assert all(line.startswith("p: ") for line in lines[1:])

    def test_structured(self, tmp_path, capsys):
        main(["aut", write(tmp_path, "s6", S6_TEXT), "--format", "structured"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["degree"] == 6
        assert doc["order"] == 8
        assert len(doc["elements"]) == 8
        assert [0, 1, 2, 3, 4, 5] in doc["elements"]

    def test_max_order_cap(self, tmp_path, capsys):
        table4 = "4\n" + "\n".join("0 0 0 0" for _ in range(4)) + "\n"
        path = write(tmp_path, "n4", table4)
        assert main(["aut", path, "--max-order", "3"]) == 3
        assert "finsemi:" in capsys.readouterr().err


    @pytest.mark.parametrize("n,order", [(9, 362880), (12, 479001600)])
    def test_refuses_a_group_over_the_cap_before_listing(self, tmp_path, capsys, n, order):
        assert main(["aut", write(tmp_path, f"l{n}", left_zero_text(n))]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"finsemi: automorphism group order {order} exceeds the configured limit 100000\n"
        )

    def test_lists_a_group_under_the_cap(self, tmp_path, capsys):
        assert main(["aut", write(tmp_path, "l7", left_zero_text(7))]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "5040" and len(lines) == 5041
        assert lines[1] == "p: 0 1 2 3 4 5 6" and lines[-1] == "p: 6 5 4 3 2 1 0"


class TestVerifyTheorem:
    def test_left_zero_of_order_twelve(self, tmp_path, capsys):
        assert main(["verify-theorem", write(tmp_path, "l12", left_zero_text(12))]) == 0
        assert "aut_order: 479001600\n" in capsys.readouterr().out

    def test_null_semigroup_of_order_twelve(self, tmp_path, capsys):
        # |G| = 11!: G is never listed, so no cap refuses it
        null12 = "12\n" + "0 0 0 0 0 0 0 0 0 0 0 0\n" * 12
        assert main(["verify-theorem", write(tmp_path, "n12", null12)]) == 0
        assert "g_order: 39916800\n" in capsys.readouterr().out

    def test_s6_text_output(self, tmp_path, capsys):
        assert main(["verify-theorem", write(tmp_path, "s6", S6_TEXT)]) == 0
        assert capsys.readouterr().out == verify_theorem(S6).to_text()

    def test_s6_structured(self, tmp_path, capsys):
        main(["verify-theorem", write(tmp_path, "s6", S6_TEXT), "--format", "structured"])
        doc = json.loads(capsys.readouterr().out)
        assert doc == verify_theorem(S6).to_json_dict()
        assert (doc["aut_order"], doc["h_order"], doc["g_order"]) == (8, 2, 4)

    def test_max_order_cap(self, tmp_path, capsys):
        assert main(
            ["verify-theorem", write(tmp_path, "s6", S6_TEXT), "--max-order", "3"]
        ) == 3

    def test_order_over_the_cap_is_refused_with_empty_stdout(self, tmp_path, capsys):
        path = write(tmp_path, "l13", left_zero_text(13))
        assert main(["verify-theorem", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "finsemi: table order 13 exceeds the configured limit 12\n"
        assert main(["verify-theorem", path, "--max-order", "13"]) == 0
        assert "aut_order: 6227020800\n" in capsys.readouterr().out

    def test_malformed(self, tmp_path):
        assert main(["verify-theorem", write(tmp_path, "bad", "junk")]) == 2


class TestBuildInflation:
    SPEC = "2\n0 0\n1 1\nsizes: 3 3\n"

    def test_text_output(self, tmp_path, capsys):
        assert main(["build-inflation", write(tmp_path, "spec", self.SPEC)]) == 0
        assert capsys.readouterr().out == (
            "6\n"
            "0 0 0 0 0 0\n"
            "1 1 1 1 1 1\n"
            "0 0 0 0 0 0\n"
            "0 0 0 0 0 0\n"
            "1 1 1 1 1 1\n"
            "1 1 1 1 1 1\n"
            "theta: 0 1 0 0 1 1\n"
        )

    def test_structured(self, tmp_path, capsys):
        main(
            [
                "build-inflation",
                write(tmp_path, "spec", self.SPEC),
                "--format",
                "structured",
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["order"] == 6
        assert doc["theta"] == [0, 1, 0, 0, 1, 1]
        assert doc["transversal"] == [0, 1]
        assert doc["rows"][1] == [1, 1, 1, 1, 1, 1]

    def test_overflow(self, tmp_path, capsys):
        spec = "2\n0 0\n1 1\nsizes: 7 7\n"
        assert main(["build-inflation", write(tmp_path, "spec", spec)]) == 3

    def test_overflow_override(self, tmp_path, capsys):
        spec = "2\n0 0\n1 1\nsizes: 7 7\n"
        path = write(tmp_path, "spec", spec)
        assert main(["build-inflation", path, "--max-order", "14"]) == 0
        assert capsys.readouterr().out.startswith("14\n")

    def test_malformed(self, tmp_path):
        assert main(["build-inflation", write(tmp_path, "spec", "2\n0 0\n1 1\n")]) == 2

    def test_non_associative_base(self, tmp_path):
        spec = "2\n0 1\n0 0\nsizes: 1 1\n"
        assert main(["build-inflation", write(tmp_path, "spec", spec)]) == 2


class TestEnumerate:
    def test_order_two(self, capsys):
        assert main(["enumerate", "--order", "2"]) == 0
        captured = capsys.readouterr()
        tables = [block for block in captured.out.split("2\n") if block]
        assert len(tables) == 8
        assert captured.err == "8 tables\n"

    def test_structured(self, capsys):
        main(["enumerate", "--order", "2", "--format", "structured"])
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8
        assert all("rows" in json.loads(line) for line in lines)

    def test_up_to_iso_mode(self, capsys):
        main(["enumerate", "--order", "3", "--mode", "up-to-iso"])
        assert capsys.readouterr().err == "24 tables\n"

    def test_order_cap(self, capsys):
        assert main(["enumerate", "--order", "5"]) == 3


class TestCorpus:
    def test_summary_only(self, capsys):
        assert main(["corpus", "--order", "2"]) == 0
        out = capsys.readouterr().out
        assert "tables_seen: 8" in out
        assert "theorem_failures: 0" in out

    def test_report_to_file(self, tmp_path, capsys):
        report = tmp_path / "report.jsonl"
        assert main(["corpus", "--order", "2", "--report", str(report)]) == 0
        lines = report.read_text().splitlines()
        assert len(lines) == 8
        for line in lines:
            record = json.loads(line)
            assert record["identity_holds"] is True
            assert "table" in record

    def test_report_to_stdout(self, capsys):
        assert main(["corpus", "--order", "2", "--report", "-"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 8
        assert "tables_seen: 8" in captured.err

    def test_structured_summary(self, capsys):
        main(["corpus", "--order", "2", "--format", "structured"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["tables_seen"] == 8
        assert doc["theorem_failures"] == 0

    def test_refused_run_leaves_the_report_file_untouched(self, tmp_path, capsys):
        report = tmp_path / "report.jsonl"
        report.write_text("kept\n")
        assert main(["corpus", "--order", "5", "--report", str(report)]) == 3
        assert report.read_text() == "kept\n"
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "finsemi: enumeration order 5 exceeds the configured limit 4\n"

    def test_refused_up_to_iso_run_leaves_the_report_file_untouched(self, tmp_path, capsys):
        # the order passes --max-order but not the canonicalization cap
        report = tmp_path / "report.jsonl"
        report.write_bytes(b"kept\n")
        argv = ["corpus", "--order", "7", "--mode", "up-to-iso", "--max-order", "7"]
        assert main([*argv, "--report", str(report)]) == 3
        assert report.read_bytes() == b"kept\n"
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "finsemi: canonicalization order 7 exceeds the configured limit 6\n"

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_summary_is_byte_identical_between_runs(self, capsys, fmt):
        outs = []
        for _ in range(2):
            assert main(["corpus", "--order", "3", "--format", fmt]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "elapsed_seconds" not in outs[0]
        if fmt == "structured":
            assert set(json.loads(outs[0])) == {"tables_seen", "theorem_failures", "histogram"}
        else:
            assert outs[0].startswith("tables_seen: 113\ntheorem_failures: 0\nhistogram ")

    def test_seeded_policy(self, capsys):
        assert main(["corpus", "--order", "2", "--policy", "seeded", "--seed", "7"]) == 0


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestDeterminism:
    def run_cli(self, argv, stdin_text):
        return subprocess.run(
            [sys.executable, "-m", "finsemi", *argv],
            input=stdin_text,
            capture_output=True,
            text=True,
        )

    def test_verify_theorem_bytes_stable(self):
        runs = [
            self.run_cli(["verify-theorem", "--format", "structured"], S6_TEXT)
            for _ in range(2)
        ]
        assert runs[0].returncode == 0
        assert runs[0].stdout == runs[1].stdout
        assert json.loads(runs[0].stdout)["aut_order"] == 8

    def test_analyze_bytes_stable(self):
        runs = [self.run_cli(["analyze"], format_table(L2)) for _ in range(2)]
        assert runs[0].returncode == 0
        assert runs[0].stdout == runs[1].stdout
