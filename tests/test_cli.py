"""Command-line interface.

Claims covered:
    - `roots` emits the bit-exact text format; invalid input exits 2, as an
      invalid rank does on `certify` and `oracle`
    - `analyze` JSON carries the fixed schema keys and the published values
      for E6 / E7 / E8, with the documented exit codes
    - forced methods that exceed limits exit 3 with a partial report
    - a root system over the memory budget is refused before it is built:
      every command that builds roots exits 3 with a `resource limit:` line
    - `analyze` times the existence proof in `timings.existence_ms`
    - `certify` emits verified block certificates or available:false
    - `oracle` agrees with `analyze`'s exact count and respects --max-r
    - `--max-r` is a non-negative bound (at most 20 for `oracle`), and 0
      means no exact count is attempted
    - `table` covers the whole catalogue and encodes the existence pattern
    - JSON output is byte-identical across runs once the timings block is
      stripped; the removed `--threads` option and `ROOTSPIN_THREADS` have
      no effect
"""

import json

import pytest
from click.testing import CliRunner

from rootspin.cli import main

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
        # A100 has 5050 roots of length 100: about 8 MB by the estimate.
        from rootspin import rootsys, sigsum

        def refuse(_):
            raise AssertionError("roots were built before the budget check")

        monkeypatch.setattr(sigsum, "DEFAULT_MEMORY_BUDGET", 1 << 20)
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
