"""Command-line interface.

Claims covered:
    - `roots` emits the bit-exact text format; invalid input exits 2, as an
      invalid rank does on `certify` and `oracle`, and a root count that
      misses its closed form exits 1 with one `internal error:` line
    - `count` and `analyze` exit 1 with one `internal error:` line and
      nothing on stdout when an exact count contradicts the published bound
    - `analyze` JSON carries the fixed schema keys and the published values
      for E6 / E7 / E8, with the documented exit codes
    - forced methods that exceed limits exit 3 with a partial report
    - `count --method mitm` counts D8 (r = 56) exactly once `--max-r` allows it
    - a root system over the memory budget is refused before it is built:
      every command that builds roots exits 3 with a `resource limit:` line
    - `analyze` times the existence proof in `timings.existence_ms`
    - `analyze` calls no numpy function when it counts nothing: every rank
      the lattice workload of `perfbench/run.py` picks from, C8, D8 and E8
      (r > 48), A7, B6 and E7 (the obstruction fails) and A8 under
      `max_r=0` run with numpy replaced by a stub that raises
    - `certify` emits verified block certificates or available:false
    - the certificate writer gives, byte for byte, the text json.dumps gives
      for one {"root_index", "sign"} dict per root: on `certify` and
      `analyze --json` (timings stripped) of every catalogue id with a
      certificate and of C68 and D69, and on `table --json`; on D69 the
      tracemalloc peak of `build_report` plus the writer stays under
      1.5 MiB, where those dicts took it to 2.57 MiB
    - the JSON writer refuses a value json.dumps cannot write
    - `oracle` agrees with `analyze`'s exact count and respects --max-r
    - `--max-r` is a non-negative bound (at most 20 for `oracle`), and 0
      means no exact count is attempted
    - `table` covers the whole catalogue and encodes the existence pattern
    - JSON output is byte-identical across runs once the timings block is
      stripped; the removed `--threads` option and `ROOTSPIN_THREADS` have
      no effect
    - running out of memory under an address-space cap exits 3 with one
      `resource limit:` line on stderr, the walk's refused estimate, and
      nothing on stdout
    - fuzzed arguments (family strings with padding and control characters,
      negative, small and huge ranks) always end in exit 0, 1, 2 or 3, and
      nothing but SystemExit escapes a command
    - `--help` of the group and of every command, `--version` and a usage
      error's "Try ... --help" hint keep their text, byte for byte, now that
      the CLI builds both options with their texts given
    - the entry users and the benchmark take, `python -m rootspin.cli`:
      `--version` exits 0 from a checkout; the collector is frozen when
      the interpreter shuts down, and `main` under CliRunner freezes
      nothing; the pyproject script names the function the `__main__`
      guard calls; exit codes, stderr and stdout (timings stripped) of five
      commands are pinned and equal CliRunner's
"""

import ast
import contextlib
import json
import os
import re
import resource
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import rootspin
from rootspin import _kernels, certs, cli, rootsys, sigsum
from rootspin.cli import main
from rootspin.rootsys import CATALOGUE, FamilyRank

SCHEMA_KEYS = {
    "ambient_dim",
    "certificate",
    "count",
    "denominator",
    "exists",
    "family",
    "method",
    "obstruction",
    "r",
    "rank",
    "timings",
}


def run(*argv):
    return CliRunner().invoke(main, list(argv))


def run_json(*argv):
    result = run(*argv)
    assert result.exit_code == 0, result.output
    return json.loads(result.stdout)


def strip_timings(raw: str) -> str:
    data = json.loads(raw)
    data.pop("timings", None)
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


class TestRoots:
    def test_g2_text(self):
        result = run("roots", "G", "2")
        assert result.exit_code == 0
        assert result.stdout == "G 2 6 2 1\n1 0\n0 1\n-1 -1\n1 -1\n1 2\n2 1\n"

    def test_f4_header(self):
        result = run("roots", "F", "4")
        assert result.stdout.splitlines()[0] == "F 4 24 4 2"

    def test_root_count_mismatch_is_an_internal_error(self, monkeypatch):
        # raised a bare AssertionError, printed as a traceback
        build = rootsys._build_rows
        monkeypatch.setattr(rootsys, "_build_rows", lambda fr: (build(fr)[0][1:], build(fr)[1]))
        result = run("roots", "A", "3")
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "internal error: root count mismatch for A3\n"

    def test_lowercase_family_accepted(self):
        assert run("roots", "g", "2").stdout == run("roots", "G", "2").stdout

    def test_invalid_rank_exits_2(self):
        assert run("roots", "A", "0").exit_code == 2

    def test_unknown_family_exits_2(self):
        assert run("roots", "X", "4").exit_code == 2


class TestAnalyze:
    def test_e6_exact(self):
        report = run_json("analyze", "E", "6", "--json")
        assert set(report) == SCHEMA_KEYS
        assert report["exists"] is True
        assert report["obstruction"] == "pass"
        assert report["count"] == {"exact": 13697920}
        assert report["method"] == "meet_in_middle"

    def test_e7_zero(self):
        report = run_json("analyze", "E", "7", "--json")
        assert report["exists"] is False
        assert report["obstruction"] == "fail"
        assert report["count"] == {"zero": True}
        assert report["certificate"] == {"available": False}

    def test_e8_lower_bound(self):
        report = run_json("analyze", "E", "8", "--json")
        assert report["exists"] is True
        assert report["count"] == {"lower_bound": 369600}
        assert report["certificate"]["block_count"] == 5

    def test_text_output(self):
        result = run("analyze", "G", "2")
        assert result.exit_code == 0
        assert "count        exact 4" in result.output

    def test_forced_brute_over_limit_exits_3_with_partial_report(self):
        result = run("analyze", "E", "6", "--method", "brute", "--json")
        assert result.exit_code == 3
        report = json.loads(result.stdout)
        assert report["exists"] is True
        assert report["count"] == {"lower_bound": 13697920}

    def test_invalid_input_exits_2(self):
        assert run("analyze", "C", "2", "--json").exit_code == 2

    def test_existence_timed(self):
        timings = run_json("analyze", "E", "6", "--json")["timings"]
        assert {"count_ms", "existence_ms", "total_ms"} <= set(timings)
        assert 0 <= timings["existence_ms"] <= timings["total_ms"]

    def test_existence_path_calls_no_numpy(self, monkeypatch, lattice_ranks):
        class NoNumpy(types.ModuleType):
            """numpy, but only the two types that ``isinstance`` checks read."""

            def __getattr__(self, name):
                if name in ("integer", "ndarray"):
                    return getattr(np, name)
                if name.startswith("__"):  # repr and introspection
                    raise AttributeError(name)
                raise AssertionError(f"numpy.{name} on the existence path")

        stub = NoNumpy("numpy")
        for module in (sigsum, certs, rootsys, cli, _kernels):
            monkeypatch.setattr(module, "np", stub, raising=False)
        others = [("C", 8), ("D", 8), ("E", 8), ("A", 7), ("B", 6), ("E", 7)]
        for family, rank in lattice_ranks + others:
            fr = FamilyRank(family, rank)
            report, exit_code = cli.build_report(fr)
            assert exit_code == 0, fr
            assert report["count"] == ({"lower_bound": certs.lower_bound(fr)} if report["exists"]
                                       else {"zero": True}), fr
        report, exit_code = cli.build_report(FamilyRank("A", 8), max_r=0)
        assert (report["count"], exit_code) == ({"lower_bound": 16}, 0)


class TestCount:
    def test_g2(self):
        report = run_json("count", "G", "2", "--json")
        assert report["count"] == {"exact": 4}
        assert report["method"] == "brute_force"

    def test_forced_mitm(self):
        report = run_json("count", "F", "4", "--method", "mitm", "--json")
        assert report["count"] == {"exact": 34432}
        assert report["method"] == "meet_in_middle"

    def test_over_limit_exits_3(self):
        assert run("count", "E", "8", "--json").exit_code == 3

    @pytest.mark.parametrize("argv", [("count", "G", "2"), ("analyze", "G", "2", "--json")],
                             ids=["count", "analyze"])
    def test_count_below_the_bound_is_an_internal_error(self, monkeypatch, argv):
        # ``count`` printed 2 for G2, whose published bound is 4
        monkeypatch.setattr(sigsum, "count_bruteforce",
                            lambda *_: sigsum.CountResult(2, sigsum.METHOD_BRUTE, 0.0))
        result = run(*argv)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "internal error: G2: exact count 2 contradicts lower bound 4\n"

    def test_mitm_past_r48(self):
        # D8 (r = 56): the pruned half tables hold at most about 23 000 sums,
        # where full tables of 2^28 keys each would exceed the 8 GiB budget.
        report = run_json("count", "D", "8", "--method", "mitm", "--max-r", "56", "--json")
        assert report["count"] == {"exact": 458377052160}
        assert report["method"] == "meet_in_middle"


class TestCertify:
    def test_a4_two_blocks(self):
        cert = run_json("certify", "A", "4")
        assert cert["available"] is True
        assert cert["block_count"] == 2
        assert cert["lower_bound"] == 4
        indices = [e["root_index"] for block in cert["blocks"] for e in block]
        assert sorted(indices) == list(range(10))
        assert all(e["sign"] in (-1, 1) for block in cert["blocks"] for e in block)

    def test_b3_unavailable(self):
        assert run_json("certify", "B", "3") == {"available": False}

    def test_e8_emits_verified_assembly(self):
        cert = run_json("certify", "E", "8")
        assert cert["available"] is True and cert["block_count"] == 5


def _reference_dumps(obj) -> str:
    """The CLI's JSON with each certificate as one dict per root, the
    layout the writer must reproduce byte for byte."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _reference_certificate(fr: FamilyRank) -> dict:
    cert = certs.certificate(fr)
    return {
        "available": True,
        "block_count": len(cert.blocks),
        "lower_bound": cert.lower_bound,
        "blocks": [[{"root_index": i, "sign": s} for i, s in block] for block in cert.blocks],
    }


def _reference_report(report: dict) -> dict:
    """A report read back from stdout, without its timings and with the
    certificate rebuilt from the library's (index, sign) tuples."""
    report = {k: v for k, v in report.items() if k != "timings"}
    if report["certificate"]["available"]:
        report["certificate"] = _reference_certificate(FamilyRank(report["family"], report["rank"]))
    return report


def _without_timings(stdout: str) -> str:
    return re.sub(r',"timings":\{[^{}]*\}', "", stdout)


_CERTIFIED = [str(fr) for fr in CATALOGUE if certs.certificate(fr) is not None] + ["C68", "D69"]


class TestCertificateWriter:
    @pytest.mark.parametrize("name", _CERTIFIED)
    def test_certify_matches_the_dict_layout(self, name):
        fr = FamilyRank.parse(name)
        result = run("certify", fr.family, str(fr.rank))
        assert result.exit_code == 0
        assert result.stdout == _reference_dumps(_reference_certificate(fr))

    @pytest.mark.parametrize("name", _CERTIFIED)
    def test_analyze_matches_the_dict_layout(self, name):
        fr = FamilyRank.parse(name)
        result = run("analyze", fr.family, str(fr.rank), "--json")
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["certificate"]["available"] is True
        assert _without_timings(result.stdout) == _reference_dumps(_reference_report(report))

    def test_table_matches_the_dict_layout(self):
        result = run("table", "--json")
        assert result.exit_code == 0
        reports = json.loads(result.stdout)
        assert sum(rep["certificate"]["available"] for rep in reports) == len(_CERTIFIED) - 2
        assert _without_timings(result.stdout) == _reference_dumps(
            [_reference_report(rep) for rep in reports]
        )

    def test_d69_report_and_writer_stay_small(self):
        fr = FamilyRank("D", 69)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            cli._emit(cli.build_report(FamilyRank("D", 5))[0])  # one-time imports and caches
            tracemalloc.start()
            try:
                report, _ = cli.build_report(fr)
                cli._emit(report)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert report["certificate"]["block_count"] == 17
        assert peak < 1.5 * 2**20, peak


    def test_writer_refuses_what_json_cannot_write(self):
        with pytest.raises(TypeError, match="set is not JSON serialisable"):
            cli._emit({"blocks": {1}})


class TestOracle:
    def test_g2(self):
        assert run_json("oracle", "G", "2") == {"dimension": 4}

    def test_b2(self):
        assert run_json("oracle", "B", "2") == {"dimension": 0}

    def test_d4_matches_analyze(self):
        dim = run_json("oracle", "D", "4", "--max-r", "12")["dimension"]
        report = run_json("analyze", "D", "4", "--json")
        assert report["count"] == {"exact": dim}

    def test_over_limit_exits_3(self):
        assert run("oracle", "E", "6").exit_code == 3

    def test_max_r_capped_at_20(self):
        assert run("oracle", "G", "2", "--max-r", "21").exit_code == 2


class TestMaxR:
    def test_zero_reports_lower_bound_only(self):
        report = run_json("analyze", "A", "4", "--max-r", "0", "--json")
        assert report["count"] == {"lower_bound": 4}
        assert report["method"] == "certificate"

    def test_zero_count_exits_3(self):
        assert run("count", "A", "4", "--max-r", "0").exit_code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "A", "4"),
            ("count", "A", "4"),
            ("table",),
            ("oracle", "G", "2"),
        ],
    )
    def test_negative_exits_2(self, argv):
        assert run(*argv, "--max-r", "-1").exit_code == 2


@pytest.fixture(scope="module")
def table():
    return run_json("table", "--json")


class TestTable:
    def test_covers_catalogue(self, table):
        assert len(table) == 29
        labels = {f"{row['family']}{row['rank']}" for row in table}
        assert {"A1", "A8", "B6", "C8", "D8", "E6", "E7", "E8", "F4", "G2"} <= labels

    def test_existence_pattern(self, table):
        by_label = {f"{row['family']}{row['rank']}": row for row in table}
        assert by_label["A5"]["exists"] is False
        assert by_label["D6"]["exists"] is False
        assert by_label["C4"]["exists"] is True
        assert by_label["C4"]["count"]["exact"] >= 2
        for row in table:
            if not row["exists"]:
                assert row["obstruction"] == "fail"
                assert row["count"] == {"zero": True}
            else:
                assert row["obstruction"] == "pass"

    def test_human_readable_form(self):
        result = run("table")
        assert result.exit_code == 0
        assert "E6" in result.output and "13697920" in result.output


class TestExitCodes:
    def test_internal_invariant_violation_exits_1(self, monkeypatch):
        # Break the doubly-certified existence check: obstruction passes
        # for G2 but the patched certificate lookup denies existence.
        from rootspin import cli

        monkeypatch.setattr(cli.certs, "certificate", lambda fr: None)
        result = run("analyze", "G", "2", "--json")
        assert result.exit_code == 1

    def test_out_of_memory_exits_3(self):
        # E8's walk outgrows a 512 MiB address space within seconds: its
        # estimate passes the budget of what is left unmapped (about 390 MB)
        # and still passes one of 800 MB.  The cap is set in the child
        # alone, so the test never exhausts the host.
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        result = subprocess.run(
            [sys.executable, "-m", "rootspin.cli", "count", "E", "8",
             "--method", "mitm", "--max-r", "120"],
            env=dict(os.environ, PYTHONPATH=str(Path(rootspin.__file__).parents[1])),
            preexec_fn=cap, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 3, result.stderr
        assert result.stdout == ""
        assert result.stderr.startswith("resource limit: ")
        assert result.stderr.count("\n") == 1
        assert "signed-sum tables would need about" in result.stderr

    def test_threads_env_var_fallback(self):
        # ROOTSPIN_THREADS is no longer read: even an invalid value is ignored.
        plain = run("analyze", "G", "2", "--json")
        result = CliRunner().invoke(
            main, ["analyze", "G", "2", "--json"], env={"ROOTSPIN_THREADS": "0"}
        )
        assert result.exit_code == 0
        assert strip_timings(result.stdout) == strip_timings(plain.stdout)

    @pytest.mark.parametrize(
        "argv",
        [
            ("certify", "A", "0"),
            ("certify", "C", "2"),
            ("oracle", "X", "4"),
            ("oracle", "E", "9"),
        ],
    )
    def test_invalid_rank_exits_2(self, argv):
        result = run(*argv)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")

    def test_rejects_non_positive_threads(self):
        # The --threads option is gone; click rejects it as unknown.
        result = run("analyze", "G", "2", "--json", "--threads", "2")
        assert result.exit_code == 2
        assert "No such option" in result.output


class TestRootBudget:
    @pytest.mark.parametrize(
        "argv",
        [
            ("roots", "A", "100"),
            ("analyze", "A", "100", "--json"),
            ("count", "A", "100"),
            ("oracle", "A", "100"),
            ("certify", "A", "100"),
        ],
    )
    def test_over_budget_exits_3_before_building(self, argv, monkeypatch):
        # A100 has 5050 sparse roots with 19 900 nonzeros: about 0.6 MB by
        # the estimate.
        from rootspin import rootsys

        def refuse(_):
            raise AssertionError("roots were built before the budget check")

        monkeypatch.setattr(rootsys, "DEFAULT_MEMORY_BUDGET", 1 << 18)
        monkeypatch.setattr(rootsys, "_build_rows", refuse)
        result = run(*argv)
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr.startswith("resource limit: the roots of A100 would need")


class TestDeterminism:
    def test_repeat_runs_byte_identical(self):
        a = run("analyze", "D", "4", "--json").stdout
        b = run("analyze", "D", "4", "--json").stdout
        assert strip_timings(a) == strip_timings(b)

    def test_roots_byte_identical(self):
        assert run("roots", "E", "7").stdout == run("roots", "E", "7").stdout


_family_chars = st.sampled_from(
    list("ABCDEFGHXZabcdefgz") + [" ", "\t", "\n", "\r", "\x00", "\x07", "\x1b", "\x7f",
                                  "\u0131", "\u01c5", "\u00e9"]
)
_families = st.one_of(
    # a family letter with whitespace padding, which the CLI strips
    st.builds(lambda left, letter, right: left + letter + right,
              st.text(" \t\n", max_size=2), st.sampled_from("ABCDEFGabcdefg"),
              st.text(" \t\r\x0b\x0c", max_size=2)),
    st.text(_family_chars, max_size=5),
)
_ranks = st.one_of(st.integers(0, 12), st.integers(-12, -1), st.integers(10**6, 10**40))


@st.composite
def cli_arguments(draw):
    # --max-r stays small (at most 10 for oracle) so every command is quick.
    command = draw(st.sampled_from(["roots", "analyze", "count", "certify", "oracle", "table"]))
    options = []
    if command in ("analyze", "count", "table"):
        options += ["--max-r", str(draw(st.integers(0, 16)))]
        if draw(st.booleans()):
            options.append("--json")
    if command in ("analyze", "count") and draw(st.booleans()):
        options += ["--method", draw(st.sampled_from(["auto", "brute", "mitm"]))]
    if command == "oracle":
        options += ["--max-r", str(draw(st.integers(0, 10)))]
    if command == "table":
        return [command, *options]
    positional = [draw(_families), str(draw(_ranks))]
    # Without "--", click reads a negative rank as an unknown option.
    if draw(st.booleans()):
        positional.insert(0, "--")
    return [command, *options, *positional]


@settings(max_examples=200, deadline=None)
@given(cli_arguments())
@example(["analyze", "--max-r", "16", "--json", " a", "4"])
@example(["count", "--max-r", "16", "--method", "mitm", "--", "D", "4"])
@example(["oracle", "--max-r", "10", "b\t", "3"])
@example(["certify", "E", "8"])
@example(["roots", "--", "\x00", "-3"])
def test_fuzzed_arguments_keep_the_exit_contract(argv):
    result = CliRunner().invoke(main, argv)
    assert result.exit_code in (0, 1, 2, 3), (argv, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        argv, repr(result.exception))


_OPTION_HELP = "  --help  Show this message and exit.\n"
HELP_TEXTS = {
    (): (
        "Usage: rootspin [OPTIONS] COMMAND [ARGS]...\n\n"
        "  Exact invariant-spinor dimensions from positive root combinatorics.\n\n"
        "Options:\n"
        "  --version  Show the version and exit.\n"
        "  --help     Show this message and exit.\n\n"
        "Commands:\n"
        "  analyze  Full existence/count/certificate report for one system.\n"
        "  certify  Emit the verified block certificate, or available:false.\n"
        "  count    Exact count of zero signed sums (no existence shortcuts).\n"
        "  oracle   Invariant dimension through the exterior-algebra model.\n"
        "  roots    Print the ordered root list in the plain text interchange format.\n"
        "  table    Reports for the whole catalogue of systems.\n"
    ),
    ("analyze",): (
        "Usage: rootspin analyze [OPTIONS] FAMILY RANK\n\n"
        "  Full existence/count/certificate report for one system.\n\n"
        "Options:\n"
        "  --method [auto|brute|mitm]\n"
        "  --max-r INTEGER RANGE       Largest r to count exactly (default: 48 for auto,\n"
        "                              else the forced engine's own limit; 0 counts\n"
        "                              nothing).  [x>=0]\n"
        "  --json\n"
        "  --help                      Show this message and exit.\n"
    ),
    ("count",): (
        "Usage: rootspin count [OPTIONS] FAMILY RANK\n\n"
        "  Exact count of zero signed sums (no existence shortcuts).\n\n"
        "Options:\n"
        "  --method [auto|brute|mitm]\n"
        "  --max-r INTEGER RANGE       Largest r the engine may count (default: brute 26,\n"
        "                              mitm 48).  [x>=0]\n"
        "  --json\n"
        "  --help                      Show this message and exit.\n"
    ),
    ("certify",): (
        "Usage: rootspin certify [OPTIONS] FAMILY RANK\n\n"
        "  Emit the verified block certificate, or available:false.\n\n"
        "Options:\n" + _OPTION_HELP
    ),
    ("oracle",): (
        "Usage: rootspin oracle [OPTIONS] FAMILY RANK\n\n"
        "  Invariant dimension through the exterior-algebra model.\n\n"
        "Options:\n"
        "  --max-r INTEGER RANGE  Largest r the oracle runs on (at most 20: the work\n"
        "                         grows as r * 2^r).  [0<=x<=20]\n"
        "  --help                 Show this message and exit.\n"
    ),
    ("table",): (
        "Usage: rootspin table [OPTIONS]\n\n"
        "  Reports for the whole catalogue of systems.\n\n"
        "Options:\n"
        "  --max-r INTEGER RANGE  Largest r for which exact counting is attempted\n"
        "                         (default 48).  [x>=0]\n"
        "  --json\n"
        "  --help                 Show this message and exit.\n"
    ),
    ("roots",): (
        "Usage: rootspin roots [OPTIONS] FAMILY RANK\n\n"
        "  Print the ordered root list in the plain text interchange format.\n\n"
        "Options:\n" + _OPTION_HELP
    ),
}


def _named(*argv):
    """``main`` under CliRunner as the program ``rootspin``, 80 columns wide."""
    return CliRunner().invoke(main, list(argv), prog_name="rootspin", terminal_width=80)


class TestOwnOptions:
    @pytest.mark.parametrize("command", sorted(HELP_TEXTS), ids=lambda c: " ".join(c) or "group")
    def test_help_text(self, command):
        result = _named(*command, "--help")
        assert (result.exit_code, result.stdout, result.stderr) == (0, HELP_TEXTS[command], "")

    def test_every_command_has_its_help_text(self):
        assert set(HELP_TEXTS) == {()} | {(name,) for name in main.commands}

    def test_version_text(self):
        result = _named("--version")
        assert (result.exit_code, result.stdout, result.stderr) == (
            0, "rootspin, version 0.1.0\n", "")

    @pytest.mark.parametrize(
        "argv,usage,error",
        [
            (("analyze", "A"), "rootspin analyze [OPTIONS] FAMILY RANK",
             "Missing argument 'RANK'."),
            (("bogus",), "rootspin [OPTIONS] COMMAND [ARGS]...", "No such command 'bogus'."),
            (("--bogus",), "rootspin [OPTIONS] COMMAND [ARGS]...", "No such option '--bogus'."),
            (("table", "--max-r", "-1"), "rootspin table [OPTIONS]",
             "Invalid value for '--max-r': -1 is not in the range x>=0."),
        ],
        ids=["missing_argument", "no_command", "no_option", "bad_value"],
    )
    def test_usage_error_hint(self, argv, usage, error):
        result = _named(*argv)
        command = usage.split(" [")[0]
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == (
            f"Usage: {usage}\nTry '{command} --help' for help.\n\nError: {error}\n"
        )


SRC = str(Path(rootspin.__file__).parents[1])


def entry(*argv, path=SRC):
    """``python -m rootspin.cli`` in a fresh interpreter, the path users
    and the benchmark take, with ``path`` as its PYTHONPATH."""
    return subprocess.run(
        [sys.executable, "-m", "rootspin.cli", *argv], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )


class TestEntry:
    def test_version_from_a_checkout(self):
        # exited 1, with a traceback: "'rootspin' is not installed"
        result = entry("--version")
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.split()[-1] == rootspin.__version__ == "0.1.0"

    def test_entry_freezes_the_collector_before_shutdown(self, tmp_path):
        # An atexit handler runs after the command and before the
        # shutdown collections, which skip what is frozen.
        (tmp_path / "sitecustomize.py").write_text(
            "import atexit, gc, sys\n"
            "atexit.register(lambda: sys.stderr.write(f'frozen {gc.get_freeze_count() > 0}\\n'))\n"
        )
        result = entry("analyze", "A", "3", "--json", path=os.pathsep.join([str(tmp_path), SRC]))
        assert (result.returncode, result.stderr) == (0, "frozen True\n")
        assert json.loads(result.stdout)["count"] == {"zero": True}

    def test_main_freezes_nothing(self):
        # Importing the package and calling ``main`` leave the collector alone.
        code = (
            "import gc, rootspin.cli\n"
            "from click.testing import CliRunner\n"
            "result = CliRunner().invoke(rootspin.cli.main, ['analyze', 'A', '3', '--json'])\n"
            "print(result.exit_code, gc.get_freeze_count())\n"
        )
        result = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                                capture_output=True, text=True, timeout=120)
        assert (result.stdout, result.stderr) == ("0 0\n", "")

    def test_script_target_is_the_main_guard_call(self):
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        scripts = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]
        guards = [
            node.body for node in ast.parse(Path(cli.__file__).read_text()).body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        assert len(guards) == 1 and len(guards[0]) == 1
        call = guards[0][0].value
        assert isinstance(call, ast.Call) and not call.args and not call.keywords
        assert scripts == {"rootspin": f"rootspin.cli:{call.func.id}"}

    def test_real_entry_keeps_every_output(self):
        # Exit codes, stderr and stdout (timings stripped) of the real entry,
        # pinned, and equal to those of ``main`` under CliRunner.
        cases = [
            (("analyze", "E", "6", "--json"), 0, ""),
            (("analyze", "Z", "3"), 2, "error: unknown family 'Z'\n"),
            (("count", "A", "12", "--method", "brute"), 3,
             "resource limit: brute force needs r <= 26, got r = 78\n"),
            (("oracle", "E", "6"), 3,
             "resource limit: representation dimension 2^36 exceeds limit 2^14\n"),
            (("certify", "A", "4"), 0, ""),
        ]
        stdout = {}
        for argv, code, stderr in cases:
            result, inproc = entry(*argv), run(*argv)
            assert (result.returncode, result.stderr) == (code, stderr), argv
            assert (inproc.exit_code, inproc.stderr) == (code, stderr), argv
            assert _without_timings(result.stdout) == _without_timings(inproc.stdout), argv
            stdout[argv[0] + argv[1]] = result.stdout
        assert stdout["analyzeZ"] == stdout["countA"] == stdout["oracleE"] == ""
        e6 = json.loads(stdout["analyzeE"])
        assert (e6["count"], e6["method"], e6["certificate"]["block_count"]) == ({"exact": 13697920}, "meet_in_middle", 1)
        assert stdout["certifyA"] == (
            '{"available":true,"block_count":2,"blocks":[[{"root_index":3,"sign":-1},'
            '{"root_index":4,"sign":1},{"root_index":5,"sign":-1}],[{"root_index":6,"sign":1},'
            '{"root_index":0,"sign":-1},{"root_index":7,"sign":-1},{"root_index":1,"sign":1},'
            '{"root_index":8,"sign":1},{"root_index":2,"sign":-1},{"root_index":9,"sign":-1}]],'
            '"lower_bound":4}\n'
        )
