"""The command-line frontend: output formats, exit codes, and error reporting."""

import json
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from textwrap import dedent

import kostka
import kostka.cli
import kostka.verify
from kostka import Report, kostka_matrix
from kostka.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_text(self, capsys):
        assert run(capsys, "compute", "--shape", "2,1", "--content", "1,1,1") == (0, "2\n", "")

    def test_skew_json(self, capsys):
        code, out, err = run(
            capsys, "compute", "--shape", "3,2", "--skew-inner", "1",
            "--content", "2,2", "--format", "json",
        )
        assert code == 0 and err == ""
        assert out == dedent(
            """\
            {
              "command": "compute",
              "shape": "3,2",
              "inner": "1",
              "content": "2,2",
              "count": "2"
            }
            """
        )

    def test_zero_count(self, capsys):
        code, out, _ = run(capsys, "compute", "--shape", "1,1", "--content", "2")
        assert (code, out) == (0, "0\n")


class TestMatrix:
    def test_text_n4(self, capsys):
        code, out, _ = run(capsys, "matrix", "--n", "4")
        assert code == 0
        assert out == (
            "         4  3,1  2,2  2,1,1  1,1,1,1\n"
            "      4  1    1    1      1        1\n"
            "    3,1  0    1    1      2        3\n"
            "    2,2  0    0    1      1        2\n"
            "  2,1,1  0    0    0      1        3\n"
            "1,1,1,1  0    0    0      0        1\n"
        )

    def test_csv_n3(self, capsys):
        code, out, _ = run(capsys, "matrix", "--n", "3", "--format", "csv")
        assert code == 0
        assert out == ',3,"2,1","1,1,1"\n3,1,1,1\n"2,1",0,1,2\n"1,1,1",0,0,1\n'

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "matrix", "--n", "5", "--format", "json")
        assert code == 0
        assert out == kostka_matrix(5).to_json() + "\n"


class TestCovers:
    def test_text(self, capsys):
        assert run(capsys, "covers", "--mu", "3,1") == (0, "(2,2)  [row-move i=1]\n", "")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "covers", "--mu", "2,1", "--format", "json")
        assert code == 0
        assert out == dedent(
            """\
            {
              "command": "covers",
              "mu": "2,1",
              "covers": [
                {
                  "target": "1,1,1",
                  "move": {
                    "kind": "column",
                    "i": 1,
                    "j": 3
                  }
                }
              ]
            }
            """
        )

    def test_minimum_has_no_covers(self, capsys):
        code, out, _ = run(capsys, "covers", "--mu", "1,1,1")
        assert (code, out) == (0, "")


class TestChain:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "chain", "--mu", "4", "--nu", "1,1,1,1")
        assert code == 0
        assert out == (
            "(4)\n"
            "(3,1)  [row-move i=1]\n"
            "(2,2)  [row-move i=1]\n"
            "(2,1,1)  [row-move i=2]\n"
            "(1,1,1,1)  [column-move i=1, j=4]\n"
        )

    def test_json(self, capsys):
        code, out, _ = run(capsys, "chain", "--mu", "3,1", "--nu", "2,2", "--format", "json")
        assert code == 0
        assert out == dedent(
            """\
            {
              "command": "chain",
              "mu": "3,1",
              "nu": "2,2",
              "chain": [
                "3,1",
                "2,2"
              ],
              "moves": [
                {
                  "kind": "row",
                  "i": 1,
                  "j": 2
                }
              ]
            }
            """
        )

    def test_trivial_chain(self, capsys):
        code, out, _ = run(capsys, "chain", "--mu", "2,1", "--nu", "2,1")
        assert (code, out) == (0, "(2,1)\n")


class TestClasses:
    def test_text_frozen(self, capsys):
        code, out, _ = run(capsys, "classes", "--shape", "3,1", "--mu", "2,1,1", "--index", "1")
        assert code == 0
        assert out == (
            "shape=3,1 inner=0 mu=2,1,1 index=1 nu=1,2,1\n"
            "class 1: paired-columns=1 row-singles=1,0 mu-count=1 nu-count=1\n"
            "  * * 3\n"
            "  *\n"
            "class 2: paired-columns=0 row-singles=3,0 mu-count=1 nu-count=1\n"
            "  * * *\n"
            "  3\n"
            "total: mu-count=2 nu-count=2\n"
        )

    def test_json_frozen(self, capsys):
        code, out, _ = run(
            capsys, "classes", "--shape", "2,1", "--mu", "2,1", "--index", "1", "--format", "json"
        )
        assert code == 0
        assert out == dedent(
            """\
            {
              "command": "classes",
              "shape": "2,1",
              "inner": "0",
              "mu": "2,1",
              "index": 1,
              "nu": "1,2",
              "classes": [
                {
                  "skeleton": [
                    "* *",
                    "*"
                  ],
                  "paired_columns": 1,
                  "row_counts": [
                    1,
                    0
                  ],
                  "mu_count": "1",
                  "nu_count": "1"
                }
              ],
              "mu_total": "1",
              "nu_total": "1"
            }
            """
        )

    def test_higher_index(self, capsys):
        code, out, _ = run(capsys, "classes", "--shape", "2,1", "--mu", "2,1", "--index", "2")
        assert code == 0
        assert out == (
            "shape=2,1 inner=0 mu=2,1 index=2 nu=2,0,1\n"
            "class 1: paired-columns=0 row-singles=0,1 mu-count=1 nu-count=1\n"
            "  1 1\n"
            "  *\n"
            "total: mu-count=1 nu-count=1\n"
        )


class TestVerify:
    def test_clean_run(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("positivity-iff-dominance: checked=15 violations=0 pass")
        assert lines[-1] == "total: suites=5 checked=109122 violations=0 pass"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "2", "--format", "json")
        assert code == 0
        expected = dedent(
            """\
            {
              "command": "verify",
              "max_n": 2,
              "reports": [
                {
                  "name": "positivity-iff-dominance",
                  "checked": 6,
                  "violations": [],
                  "elapsed": N
                },
                {
                  "name": "dominance-monotonicity",
                  "checked": 24,
                  "violations": [],
                  "elapsed": N
                },
                {
                  "name": "bounded-counts",
                  "checked": 108825,
                  "violations": [],
                  "elapsed": N
                },
                {
                  "name": "adjacent-transfer",
                  "checked": 13,
                  "violations": [],
                  "elapsed": N
                },
                {
                  "name": "covers-vs-hasse",
                  "checked": 4,
                  "violations": [],
                  "elapsed": N
                }
              ],
              "violations": 0
            }
            """
        )
        # elapsed is a wall time; every other byte is pinned
        assert re.sub(r'"elapsed": [0-9.]+', '"elapsed": N', out) == expected

    def test_parallel_matches_serial(self, capsys):
        _, serial, _ = run(capsys, "verify", "--max-n", "2", "--format", "json")
        _, parallel, _ = run(capsys, "verify", "--max-n", "2", "--parallelism", "2", "--format", "json")
        strip = lambda d: [(r["name"], r["checked"], r["violations"]) for r in d["reports"]]
        assert strip(json.loads(serial)) == strip(json.loads(parallel))

    def test_violations_exit_1(self, capsys, monkeypatch):
        # a count function that claims positivity everywhere breaks the
        # positivity-iff-dominance suite at exactly the non-dominating pairs
        monkeypatch.setattr(
            kostka.verify, "kostka_number", lambda shape, content, cache=None: 1
        )
        code, out, _ = run(capsys, "verify", "--max-n", "3")
        assert code == 1
        assert "positivity-iff-dominance: checked=15 violations=4 FAIL" in out
        assert out.splitlines()[-1] == "total: suites=5 checked=109122 violations=4 FAIL"

    def test_dead_worker_exits_2(self, capsys, monkeypatch):
        def die(*args):
            os._exit(1)

        # fork workers inherit the rebinding, and _run_suite looks suites up by name
        monkeypatch.setattr(kostka.verify, "verify_covers", die)
        code, out, err = run(capsys, "verify", "--max-n", "2", "--parallelism", "2")
        assert (code, out) == (2, "")
        assert err == "error: --parallelism: a worker process died; rerun with --parallelism 1\n"
        assert multiprocessing.active_children() == []

    def test_import_leaves_process_pool_unloaded(self):
        code = "import sys, kostka; print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
        env = dict(os.environ, PYTHONPATH=str(Path(kostka.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n"

    def test_failing_report_exit_1(self, capsys, monkeypatch):
        fake = [Report(name="demo", checked=1, violations=[{"x": 1}], elapsed=0.0)]
        monkeypatch.setattr(kostka.cli, "run_standard_suites", lambda max_n, parallelism: fake)
        code, out, _ = run(capsys, "verify")
        assert code == 1
        assert out.splitlines()[-1] == "total: suites=1 checked=1 violations=1 FAIL"


class TestMalformedInput:
    def test_bad_partition_order(self, capsys):
        code, out, err = run(capsys, "compute", "--shape", "1,2", "--content", "1,1,1")
        assert (code, out) == (2, "")
        assert err == "error: --shape: partition parts must be weakly decreasing, got 1 before 2\n"

    def test_chain_size_mismatch(self, capsys):
        code, _, err = run(capsys, "chain", "--mu", "3,1", "--nu", "2,2,1")
        assert code == 2
        assert err == "error: --nu: chain endpoints need equal totals, got 4 vs 5\n"

    def test_chain_not_comparable(self, capsys):
        code, _, err = run(capsys, "chain", "--mu", "2,2", "--nu", "3,1")
        assert code == 2
        assert err == "error: --nu: (2, 2) does not dominate (3, 1)\n"

    def test_classes_equal_parts(self, capsys):
        code, _, err = run(capsys, "classes", "--shape", "2,1", "--mu", "1,2", "--index", "1")
        assert code == 2
        assert err == "error: --index: transfer needs part 1 to exceed part 2, got 1 and 2\n"

    def test_classes_content_total(self, capsys):
        code, _, err = run(capsys, "classes", "--shape", "2,1", "--mu", "2,2", "--index", "1")
        assert code == 2
        assert err == "error: --mu: content total 4 does not fill 3 cells\n"

    def test_classes_index_zero(self, capsys):
        code, _, err = run(capsys, "classes", "--shape", "2,1", "--mu", "2,1", "--index", "0")
        assert code == 2
        assert err == "error: --index: a positive integer is required\n"

    def test_matrix_too_large_is_refused_before_computing(self, capsys):
        code, out, err = run(capsys, "matrix", "--n", "40")
        assert (code, out) == (2, "")
        assert err == "error: --n: at most 24 is supported, got 40\n"

    def test_verify_too_large_is_refused_before_running(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the suites must not run")

        monkeypatch.setattr(kostka.cli, "run_standard_suites", refuse)
        code, out, err = run(capsys, "verify", "--max-n", "9")
        assert (code, out) == (2, "")
        assert err == "error: --max-n: at most 8 is supported, got 9\n"

    def test_classes_too_many_fillings_is_refused_before_enumerating(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("no filling may be enumerated")

        monkeypatch.setattr(kostka.cli, "enumerate_ssyt", refuse)
        mu = ",".join(["2"] + ["1"] * 26)
        code, out, err = run(capsys, "classes", "--shape", "14,14", "--mu", mu, "--index", "1")
        assert (code, out) == (2, "")
        assert err == "error: --mu: at most 2000 fillings of mu and nu are supported, got 3863080\n"

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "compute", "--shape", "2,1")
        assert code == 2
        assert "--content" in err

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "nonsense")
        assert code == 2
        assert "invalid choice" in err

    def test_bad_format_choice(self, capsys):
        code, _, err = run(capsys, "matrix", "--n", "3", "--format", "yaml")
        assert code == 2
        assert "invalid choice: 'yaml'" in err


class TestHelp:
    def test_top_level_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "-h")
        assert code == 0
        assert "compute" in out and "verify" in out


def readme_transcripts() -> list[tuple[str, str]]:
    """Every `$ kostka ...` command in README.md with the output printed under it."""
    transcripts = []
    for block in re.findall(r"```text\n(.*?)```", README.read_text(), re.S):
        for chunk in re.split(r"^\$ kostka ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            transcripts.append((command, output.rstrip("\n") + "\n"))
    return transcripts


class TestReadme:
    def test_transcripts_match_byte_for_byte(self, capsys):
        transcripts = readme_transcripts()
        assert len(transcripts) == 7
        mask = lambda text: re.sub(r"\d+\.\d+s\b", "N.NNs", text)
        for command, expected in transcripts:
            code, out, err = run(capsys, *shlex.split(command))
            assert (code, err) == (0, ""), command
            assert mask(out) == mask(expected), command
