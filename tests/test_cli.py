"""CLI behaviour: formats, determinism, exit codes."""

import json

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cranktab import identities, tables, verify
from cranktab.cli import _parse_k_list, main
from cranktab.identities import IdentityEntry
from cranktab.series import Series


@pytest.fixture()
def runner():
    return CliRunner()


def _assert_cannot_write(runner, argv, tmp_path):
    """``-o`` on a missing directory or on a directory: exit 2, one line."""
    for path in (tmp_path / "missing" / "out.txt", tmp_path):
        result = runner.invoke(main, [*argv, "-o", str(path)])
        assert result.exit_code == 2, (argv, path)
        assert isinstance(result.exception, SystemExit)
        (line,) = result.output.splitlines()
        assert line.startswith(f"Error: cannot write {path}: ")


def test_table_crank_csv(runner):
    result = runner.invoke(main, ["table", "--stat", "crank", "--n-max", "1"])
    assert result.exit_code == 0
    assert result.output.splitlines() == ["n,m,count", "0,0,1", "1,-1,1", "1,0,-1", "1,1,1"]


def test_table_ocrank_contains_point_value(runner):
    result = runner.invoke(
        main, ["table", "--stat", "ocrank", "--n-max", "50", "--format", "csv"]
    )
    assert result.exit_code == 0
    assert "4,0,2\n" in result.output


def test_table_kcrank_json_row_sums(runner):
    result = runner.invoke(
        main,
        ["table", "--stat", "kcrank", "--k", "3", "--n-max", "20", "--format", "json"],
    )
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["statistic"] == "kcrank(3)"
    from cranktab.series import partition_series

    expected = partition_series(20).pow(3).coeffs
    for row in obj["rows"]:
        assert sum(int(v) for v in row["counts"].values()) == expected[row["n"]]


def test_table_output_is_byte_identical(runner, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        result = runner.invoke(
            main, ["table", "--stat", "m2crank", "--n-max", "12", "-o", str(out)]
        )
        assert result.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_table_rank_defaults_to_gf(runner):
    result = runner.invoke(main, ["table", "--stat", "rank", "--n-max", "12"])
    assert result.exit_code == 0
    assert "4,3,1" in result.output
    oracle = runner.invoke(
        main, ["table", "--stat", "rank", "--n-max", "12", "--provenance", "oracle"]
    )
    assert oracle.exit_code == 0
    assert result.output == oracle.output
    # above the enumeration ceiling of 60
    result = runner.invoke(main, ["table", "--stat", "rank", "--n-max", "200"])
    assert result.exit_code == 0
    assert result.output.splitlines()[1:3] == ["0,0,1", "1,-1,0"]


def test_table_usage_errors(runner, tmp_path):
    assert runner.invoke(main, ["table", "--stat", "kcrank", "--n-max", "4"]).exit_code == 2
    assert runner.invoke(main, ["table", "--stat", "bogus"]).exit_code == 2
    assert (
        runner.invoke(
            main, ["table", "--stat", "crank", "--n-max", "9", "--order", "4"]
        ).exit_code
        == 2
    )
    result = runner.invoke(main, ["table", "--stat", "crank", "--n-max", "-1"])
    assert result.exit_code == 2 and "-1 is not in the range" in result.output
    assert runner.invoke(main, ["table", "--stat", "crank", "--order", "-1"]).exit_code == 2
    result = runner.invoke(main, ["table", "--stat", "crank", "--k", "3", "--n-max", "1"])
    assert result.exit_code == 2
    assert "--k applies only to --stat kcrank" in result.output
    result = runner.invoke(
        main,
        ["table", "--stat", "crank", "--provenance", "oracle", "--n-max", "3", "--order", "10"],
    )
    assert result.exit_code == 2
    _assert_cannot_write(runner, ["table", "--stat", "crank", "--n-max", "1"], tmp_path)


def test_unwritable_output_fails_before_any_work(runner, tmp_path, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output was opened")

    monkeypatch.setattr(tables, "build_table", no_work)
    for name in ("run_checks", "check_identity"):
        monkeypatch.setattr(verify, name, no_work)
    for argv in (
        ["table", "--stat", "crank", "--n-max", "1500"],
        ["table", "--stat", "rank", "--provenance", "oracle", "--n-max", "5"],
        ["verify", "--check", "all"],
        ["identity", "--id", "euler"],
        ["crosscheck", "--stat", "crank", "--n-max", "5"],
    ):
        _assert_cannot_write(runner, argv, tmp_path)


def test_usage_errors_leave_output_untouched(runner, tmp_path):
    out = tmp_path / "out.txt"
    for argv in (
        ["table", "--stat", "kcrank", "--k", "1"],
        ["table", "--stat", "crank", "--n-max", "9", "--order", "4"],
        ["verify", "--check", "euler,thm-9.9"],
        ["verify", "--check", "conj-1.8", "--k", "1"],
        ["crosscheck", "--stat", "ocrank", "--n-max", "99"],
    ):
        result = runner.invoke(main, [*argv, "-o", str(out)])
        assert result.exit_code == 2, argv
        assert not out.exists(), argv


def test_table_oracle_respects_enumeration_ceilings(runner):
    for args in (
        ["--stat", "ocrank", "--provenance", "oracle", "--n-max", "60"],
        ["--stat", "rank", "--provenance", "oracle", "--n-max", "200"],
    ):
        result = runner.invoke(main, ["table", *args])
        assert result.exit_code == 2
        assert "exceeds the enumeration ceiling" in result.output


def test_verify_rejects_a_flag_no_selected_check_reads(runner, tmp_path):
    out = tmp_path / "out.json"
    for argv, line in (
        (["--check", "euler", "--k", "3"], "Error: --k applies only to conj-1.8"),
        (["--check", "thm-1.4", "--k", "3"], "Error: --k applies only to conj-1.8"),
        (["--check", "euler", "--n-max", "999"], "Error: --n-max applies only to conj-1.8, "),
        (["--check", "thm-1.4,conj-1.8", "--order", "9"], "Error: --order applies only to "),
    ):
        result = runner.invoke(main, ["verify", *argv, "-o", str(out)])
        assert result.exit_code == 2, argv
        assert result.output.splitlines()[-1].startswith(line), argv
        assert not out.exists(), argv
    # a flag that one selected check reads is accepted
    result = runner.invoke(main, ["verify", "--check", "euler,conj-1.8", "--k", "2",
                                  "--n-max", "5", "--order", "5"])
    assert result.exit_code == 0, result.output


def test_verify_single_check(runner):
    result = runner.invoke(main, ["verify", "--check", "thm-1.4", "--n-max", "40"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["all_passed"] is True
    (check,) = obj["checks"]
    assert check["verdict"] == "pass"
    assert [[e["m"], e["n"]] for e in check["exceptions"]] == [[1, 1], [1, 2]]
    assert check["cells_checked"] == 40 * 41 // 2


def test_verify_check_list_and_output_file(runner, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(
        main,
        ["verify", "--check", "thm-1.4,thm-1.5", "--n-max", "30", "-o", str(out)],
    )
    assert result.exit_code == 0
    obj = json.loads(out.read_text())
    assert [c["check_id"] for c in obj["checks"]] == ["thm-1.4", "thm-1.5"]


def test_verify_conj_with_k_list(runner):
    # a repeated k runs once
    for ks in ("2,3", "3,2,3,2"):
        result = runner.invoke(
            main, ["verify", "--check", "conj-1.8", "--k", ks, "--n-max", "30"]
        )
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert [c["check_id"] for c in obj["checks"]] == [
            "conj-1.8[k=2]",
            "conj-1.8[k=3]",
        ]
    assert _parse_k_list("3,2,3,2") == (3, 2)  # first-seen order


def test_verify_all_aggregated(runner):
    result = runner.invoke(main, ["verify", "--check", "all", "--n-max", "40", "--order", "80"])
    assert result.exit_code == 0, result.output
    obj = json.loads(result.output)
    assert obj["all_passed"] is True
    ids = [c["check_id"] for c in obj["checks"]]
    assert ids == sorted(ids)
    assert "thm-1.4" in ids and "euler" in ids and "conj-1.8[k=2]" in ids


def test_verify_explicit_zero_sizes_are_honoured(runner):
    result = runner.invoke(
        main, ["verify", "--check", "thm-1.4,euler", "--n-max", "0", "--order", "0"]
    )
    assert result.exit_code == 0, result.output
    params = {c["check_id"]: c["params"] for c in json.loads(result.output)["checks"]}
    assert params == {"euler": {"order": 0}, "thm-1.4": {"n_max": 0}}


def test_verify_negative_n_max_is_usage_error(runner):
    result = runner.invoke(main, ["verify", "--check", "thm-1.4", "--n-max", "-5"])
    assert result.exit_code == 2
    assert "Error: Invalid value for '--n-max'" in result.output


def test_verify_unknown_check_is_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["verify", "--check", "thm-9.9"])
    assert result.exit_code == 2
    _assert_cannot_write(runner, ["verify", "--check", "euler", "--order", "5"], tmp_path)


def test_verify_empty_check_list_is_usage_error(runner):
    # an empty list would otherwise pass with nothing checked
    for raw in ("", ",", ",,"):
        result = runner.invoke(main, ["verify", "--check", raw])
        assert result.exit_code == 2, raw
        (error,) = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert error.startswith("Error: no check id given; available: ")
    result = runner.invoke(main, ["verify", "--check", "", "--check", "euler", "--order", "5"])
    assert result.exit_code == 0


def test_verify_bad_k_list(runner):
    result = runner.invoke(main, ["verify", "--check", "conj-1.8", "--k", "2,x"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["verify", "--check", "conj-1.8", "--k", "1"])
    assert result.exit_code == 2


def test_verify_empty_k_list_is_usage_error(runner):
    # an empty list would otherwise run the default k = 2..6
    for raw in ("", ",", " "):
        result = runner.invoke(main, ["verify", "--check", "conj-1.8", "--k", raw, "--n-max", "5"])
        assert result.exit_code == 2, raw
        (error,) = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert error == f"Error: bad k list {raw!r}; expected comma-separated integers"


def test_identity_command(runner):
    result = runner.invoke(main, ["identity", "--id", "euler", "--order", "100"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["checks"][0]["check_id"] == "euler"

    result = runner.invoke(main, ["identity", "--id", "nope"])
    assert result.exit_code == 2


def test_identity_negative_order_is_usage_error(runner, tmp_path):
    result = runner.invoke(main, ["identity", "--id", "euler", "--order", "-3"])
    assert result.exit_code == 2
    assert "Error: Invalid value for '--order'" in result.output
    _assert_cannot_write(runner, ["identity", "--id", "euler", "--order", "5"], tmp_path)


def test_failing_check_exits_one(runner, monkeypatch):
    broken = IdentityEntry(
        "broken",
        "always fails",
        lambda N: [identities.Clause("c", lambda: Series.constant(N, -1))],
    )
    monkeypatch.setitem(identities.CATALOG, "broken", broken)
    result = runner.invoke(main, ["identity", "--id", "broken", "--order", "5"])
    assert result.exit_code == 1
    obj = json.loads(result.output)
    assert obj["all_passed"] is False


def test_crosscheck_command(runner):
    for args in (
        ["crosscheck", "--stat", "ocrank", "--n-max", "12"],
        ["crosscheck", "--stat", "m2crank", "--n-max", "12"],
        ["crosscheck", "--stat", "crank", "--n-max", "15"],
        ["crosscheck", "--stat", "kcrank", "--k", "2", "--n-max", "10"],
        ["crosscheck", "--stat", "rank", "--n-max", "30"],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["all_passed"] is True


def test_crosscheck_usage_errors(runner, tmp_path):
    assert runner.invoke(main, ["crosscheck", "--stat", "kcrank"]).exit_code == 2
    assert (
        runner.invoke(main, ["crosscheck", "--stat", "ocrank", "--n-max", "99"]).exit_code
        == 2
    )
    for args in (
        ["--stat", "crank", "--n-max", "-1"],
        ["--stat", "kcrank", "--k", "1"],
        ["--stat", "crank", "--k", "9"],
    ):
        result = runner.invoke(main, ["crosscheck", *args])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
    _assert_cannot_write(runner, ["crosscheck", "--stat", "crank", "--n-max", "3"], tmp_path)


def _opt(flag, values):
    """An optional ``[flag, value]`` pair: absent, or one of ``values``."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


SIZES = st.integers(-1, 12)
STATS = st.sampled_from(tables.STATISTICS + ("bogus",))
KS = _opt("--k", st.integers(-1, 7))
CHECK_IDS = st.sampled_from(verify.available_checks() + ["all", "thm-9.9"])

ARGV = st.one_of(
    st.tuples(st.just(["table", "--stat"]), STATS.map(lambda s: [s]), KS,
              SIZES.map(lambda n: ["--n-max", str(n)]),
              _opt("--provenance", st.sampled_from(["gf", "oracle"])),
              _opt("--format", st.sampled_from(["csv", "json"]))),
    st.tuples(st.just(["verify", "--check"]), CHECK_IDS.map(lambda c: [c]), KS,
              _opt("--n-max", SIZES), _opt("--order", SIZES)),
    st.tuples(st.just(["identity", "--id"]),
              st.sampled_from(sorted(identities.CATALOG) + ["nope"]).map(lambda c: [c]),
              SIZES.map(lambda n: ["--order", str(n)])),
    st.tuples(st.just(["crosscheck", "--stat"]), STATS.map(lambda s: [s]), KS,
              SIZES.map(lambda n: ["--n-max", str(n)])),
).map(lambda parts: [arg for part in parts for arg in part])


@settings(max_examples=200, deadline=2000)
@given(ARGV)
@example(["crosscheck", "--stat", "kcrank", "--k", "1", "--n-max", "5"])
def test_any_argv_exits_cleanly(argv):
    # every outcome is an exit status (0 pass, 1 fail, 2 usage), never a traceback
    result = CliRunner().invoke(main, argv)
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        argv, result.exception,
    )
