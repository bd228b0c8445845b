"""CLI behaviour: formats, determinism, exit codes, one-line usage errors."""

import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cranktab
from cranktab import bivariate, brute, identities, verify
from cranktab.cli import main
from cranktab.identities import IdentityEntry
from cranktab.series import Series

SRC = Path(cranktab.__file__).resolve().parents[1]
# the environment of child processes; they write no __pycache__ into the
# checkout, where it would make later cold starts skip compiling
CHILD_ENV = {"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}


def _run(argv):
    """Run the CLI in this process; returns (exit status, stdout, stderr).

    ``main`` must end by ``SystemExit``: any other exception fails the test.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(args=list(argv))
    return exc.value.code, out.getvalue(), err.getvalue()


def _ok(argv):
    """Stdout of ``argv``, which must exit 0 and write nothing to stderr."""
    code, out, err = _run(argv)
    assert (code, err) == (0, ""), (argv, code, err)
    return out


def _usage_error(argv):
    """The one stderr line of ``argv``, which must exit 2 and write no stdout."""
    code, out, err = _run(argv)
    assert (code, out) == (2, ""), (argv, code, out)
    (line,) = err.splitlines()
    assert err == line + "\n" and line.startswith("Error: "), err
    return line


def _assert_cannot_write(argv, tmp_path):
    """``-o`` on a missing directory or on a directory: exit 2, one line."""
    for path in (tmp_path / "missing" / "out.txt", tmp_path):
        line = _usage_error([*argv, "-o", str(path)])
        assert line.startswith(f"Error: cannot write {path}: "), (argv, path)


def test_table_crank_csv():
    out = _ok(["table", "--stat", "crank", "--n-max", "1"])
    assert out.splitlines() == ["n,m,count", "0,0,1", "1,-1,1", "1,0,-1", "1,1,1"]


def test_table_ocrank_contains_point_value():
    out = _ok(["table", "--stat", "ocrank", "--n-max", "50", "--format", "csv"])
    assert "4,0,2\n" in out


def test_table_kcrank_json_row_sums():
    out = _ok(["table", "--stat", "kcrank", "--k", "3", "--n-max", "20", "--format", "json"])
    obj = json.loads(out)
    assert obj["statistic"] == "kcrank(3)"
    from cranktab.series import partition_series

    expected = partition_series(20).pow(3).coeffs
    for row in obj["rows"]:
        assert sum(int(v) for v in row["counts"].values()) == expected[row["n"]]


def test_table_output_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert _ok(["table", "--stat", "m2crank", "--n-max", "12", "-o", str(out)]) == ""
    assert out1.read_bytes() == out2.read_bytes()


def test_table_rank_defaults_to_gf():
    out = _ok(["table", "--stat", "rank", "--n-max", "12"])
    assert "4,3,1" in out
    assert out == _ok(["table", "--stat", "rank", "--n-max", "12", "--provenance", "oracle"])
    # above the enumeration ceiling of 60
    out = _ok(["table", "--stat", "rank", "--n-max", "200"])
    assert out.splitlines()[1:3] == ["0,0,1", "1,-1,0"]


def test_table_usage_errors(tmp_path):
    for argv, line in (
        (["--stat", "kcrank", "--n-max", "4"],
         "Error: kcrank: k=None; kcrank needs k >= 2, and no other statistic takes k"),
        (["--stat", "bogus"], "Error: argument --stat: invalid choice: 'bogus' "),
        (["--stat", "crank", "--n-max", "9", "--order", "4"],
         "Error: unrecognized arguments: --order 4"),
        (["--stat", "crank", "--n-max", "-1"],
         "Error: argument --n-max: '-1' is not an integer >= 0"),
        (["--stat", "crank", "--order", "-1"], "Error: unrecognized arguments: --order -1"),
        (["--stat", "crank", "--k", "3", "--n-max", "1"],
         "Error: crank: k=3; kcrank needs k >= 2, and no other statistic takes k"),
        (["--stat", "crank", "--provenance", "oracle", "--n-max", "3", "--order", "10"],
         "Error: unrecognized arguments: --order 10"),
    ):
        assert _usage_error(["table", *argv]).startswith(line), argv
    _assert_cannot_write(["table", "--stat", "crank", "--n-max", "1"], tmp_path)


@pytest.mark.parametrize("argv, line", [
    ([], "Error: the following arguments are required: COMMAND"),
    (["bogus"], "Error: argument COMMAND: invalid choice: 'bogus' (choose from "),
    (["table"], "Error: the following arguments are required: --stat"),
    (["table", "--stat", "crank", "--k", "x"], "Error: argument --k: invalid int value: 'x'"),
    (["table", "--stat", "crank", "--n-max", "1.5"],
     "Error: argument --n-max: '1.5' is not an integer >= 0"),
    (["identity", "--id", "euler", "--order", "q"],
     "Error: argument --order: 'q' is not an integer >= 0"),
    (["table", "--stat", "crank", "--format", "xml"],
     "Error: argument --format: invalid choice: 'xml' (choose from "),
    (["verify", "--check"], "Error: argument --check: expected one argument"),
    (["verify", "--check", "euler", "--bogus"], "Error: unrecognized arguments: --bogus"),
    # an abbreviated long option is not expanded to the one it abbreviates
    (["table", "--stat", "crank", "--n", "5"], "Error: unrecognized arguments: --n 5"),
    (["table", "--st", "crank"], "Error: the following arguments are required: --stat"),
    (["verify", "--ch", "euler"], "Error: the following arguments are required: --check"),
    (["crosscheck", "--stat", "crank", "--n-m", "5"], "Error: unrecognized arguments: --n-m 5"),
    # conj-1.8 sweeps k = 2..6 from its registered rows; verify takes no k
    (["verify", "--check", "conj-1.8", "--k", "3"], "Error: unrecognized arguments: --k 3"),
])
def test_parser_errors_are_one_line(argv, line):
    assert _usage_error(argv).startswith(line)


def test_help_goes_to_stdout_and_exits_zero():
    assert _ok(["--help"]).startswith("usage: cranktab [-h] COMMAND ...")
    for name in ("table", "verify", "identity", "crosscheck"):
        assert _ok([name, "--help"]).startswith(f"usage: cranktab {name} [-h]")


def test_unwritable_output_fails_before_any_work(tmp_path, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output was opened")

    monkeypatch.setattr(bivariate, "gf_rows", no_work)
    monkeypatch.setattr(brute, "oracle_rows", no_work)
    monkeypatch.setattr(verify, "run_checks", no_work)
    monkeypatch.setattr(identities, "check_identity", no_work)
    monkeypatch.chdir(tmp_path)
    for argv in (
        ["table", "--stat", "crank", "--n-max", "1500"],
        ["table", "--stat", "rank", "--provenance", "oracle", "--n-max", "5"],
        ["verify", "--check", "all"],
        ["identity", "--id", "euler"],
        ["crosscheck", "--stat", "crank", "--n-max", "5"],
    ):
        _assert_cannot_write(argv, tmp_path)
        # an empty -o, as an unset shell variable gives, names no file
        assert _usage_error([*argv, "-o", ""]) == "Error: the output path is empty", argv
        assert list(tmp_path.iterdir()) == [], argv


def test_a_failed_command_leaves_no_partial_output(tmp_path, monkeypatch):
    # -o is written as a temporary sibling that replaces the path on success only
    real_rows = bivariate.gf_rows

    def rows_then_fault(*args):
        rows = real_rows(*args)
        yield next(rows)
        raise RuntimeError("fault after the first row")

    monkeypatch.setattr(bivariate, "gf_rows", rows_then_fault)
    out = tmp_path / "t.csv"
    argv = ["table", "--stat", "crank", "--n-max", "9", "-o", str(out)]
    with pytest.raises(RuntimeError, match="fault after the first row"):
        main(args=argv)
    assert list(tmp_path.iterdir()) == []
    out.write_text("kept\n")
    with pytest.raises(RuntimeError, match="fault after the first row"):
        main(args=argv)
    assert out.read_text() == "kept\n" and list(tmp_path.iterdir()) == [out]

    monkeypatch.setattr(bivariate, "gf_rows", real_rows)
    assert _ok(argv) == ""
    assert out.read_text() == _ok(argv[:-2]) and list(tmp_path.iterdir()) == [out]


def test_output_keeps_symlinks_and_devices(tmp_path):
    # the file a symlink names is replaced, not the link; a path that is not
    # a regular file (a device) is opened as it is, never replaced
    argv = ["table", "--stat", "crank", "--n-max", "5", "-o"]
    target, link = tmp_path / "t.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    link.symlink_to(target)
    assert _ok([*argv, str(link)]) == ""
    assert link.is_symlink() and target.read_text() == _ok(argv[:-1])
    assert sorted(tmp_path.iterdir()) == [link, target]
    if os.path.exists(os.devnull):
        assert _ok([*argv, os.devnull]) == ""
        assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)


def test_out_of_memory_is_one_error_line(tmp_path, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError

    for module, name in ((bivariate, "gf_rows"), (brute, "oracle_rows"),
                         (bivariate, "gf_columns"), (bivariate, "crank_gf")):
        monkeypatch.setattr(module, name, no_memory)
    out = tmp_path / "out.txt"
    for argv in (
        ["table", "--stat", "crank", "--n-max", "30"],
        ["table", "--stat", "rank", "--provenance", "oracle", "--n-max", "5"],
        ["crosscheck", "--stat", "crank", "--n-max", "5"],
        ["verify", "--check", "thm-1.4"],
        ["identity", "--id", "crank-diff-tails"],
        # sizes past an int's digit limit or a list's index range raise
        # OverflowError before anything is allocated
        ["identity", "--id", "euler", "--order", "99999999999999"],
        ["verify", "--check", "euler", "--order", "99999999999999"],
        ["identity", "--id", "lemma-3.2", "--order", "99999999999999999999"],
    ):
        assert _usage_error(argv) == "Error: out of memory", argv
        assert _usage_error([*argv, "-o", str(out)]) == "Error: out of memory", argv
        assert list(tmp_path.iterdir()) == [], argv


def test_usage_errors_leave_output_untouched(tmp_path):
    out = tmp_path / "out.txt"
    for argv in (
        ["table", "--stat", "kcrank", "--k", "1"],
        ["table", "--stat", "crank", "--n-max", "9", "--order", "4"],
        ["verify", "--check", "euler,thm-9.9"],
        ["crosscheck", "--stat", "ocrank", "--n-max", "99"],
        ["crosscheck", "--stat", "kcrank", "--k", "1"],
        ["table", "--stat", "ocrank", "--provenance", "oracle", "--n-max", "26"],
        ["identity", "--id", "nope"],
        ["verify", "--check", "euler", "--n-max", "5"],
    ):
        _usage_error([*argv, "-o", str(out)])
        assert not out.exists(), argv
    # the library checks its arguments once the output is open, so a bad -o is named first
    missing = tmp_path / "missing" / "out.txt"
    for argv in (["table", "--stat", "kcrank", "--k", "1"],
                 ["crosscheck", "--stat", "ocrank", "--n-max", "99"],
                 ["identity", "--id", "nope"],
                 ["verify", "--check", "euler", "--n-max", "5"]):
        line = _usage_error([*argv, "-o", str(missing)])
        assert line.startswith(f"Error: cannot write {missing}: "), argv


def test_table_oracle_respects_enumeration_ceilings():
    for args, line in (
        (["--stat", "ocrank", "--provenance", "oracle", "--n-max", "60"],
         "Error: n_max 60 exceeds the enumeration ceiling 25 for ocrank"),
        (["--stat", "rank", "--provenance", "oracle", "--n-max", "200"],
         "Error: n_max 200 exceeds the enumeration ceiling 60 for rank"),
    ):
        assert _usage_error(["table", *args]) == line


def test_verify_rejects_a_flag_no_selected_check_reads(tmp_path):
    out = tmp_path / "out.json"
    for argv, line in (
        (["--check", "euler", "--n-max", "999"], "Error: n_max applies only to conj-1.8, "),
        (["--check", "thm-1.4,conj-1.8", "--order", "9"], "Error: order applies only to "),
    ):
        assert _usage_error(["verify", *argv, "-o", str(out)]).startswith(line), argv
        assert not out.exists(), argv
    # a flag that one selected check reads is accepted
    _ok(["verify", "--check", "euler,conj-1.8", "--n-max", "5", "--order", "5"])


def test_verify_single_check():
    obj = json.loads(_ok(["verify", "--check", "thm-1.4", "--n-max", "40"]))
    assert obj["all_passed"] is True
    (check,) = obj["checks"]
    assert check["verdict"] == "pass"
    assert [[e["m"], e["n"]] for e in check["exceptions"]] == [[1, 1], [1, 2]]
    assert check["cells_checked"] == 40 * 41 // 2


def test_verify_check_list_and_output_file(tmp_path):
    out = tmp_path / "report.json"
    assert _ok(["verify", "--check", "thm-1.4,thm-1.5", "--n-max", "30", "-o", str(out)]) == ""
    obj = json.loads(out.read_text())
    assert [c["check_id"] for c in obj["checks"]] == ["thm-1.4", "thm-1.5"]


def test_verify_conj_runs_each_registered_k():
    obj = json.loads(_ok(["verify", "--check", "conj-1.8", "--n-max", "30"]))
    assert [c["check_id"] for c in obj["checks"]] == [f"conj-1.8[k={k}]" for k in range(2, 7)]


def test_verify_all_aggregated():
    obj = json.loads(_ok(["verify", "--check", "all", "--n-max", "40", "--order", "80"]))
    assert obj["all_passed"] is True
    ids = [c["check_id"] for c in obj["checks"]]
    assert ids == sorted(ids)
    assert "thm-1.4" in ids and "euler" in ids and "conj-1.8[k=2]" in ids


def test_verify_explicit_zero_sizes_are_honoured():
    out = _ok(["verify", "--check", "thm-1.4,euler", "--n-max", "0", "--order", "0"])
    params = {c["check_id"]: c["params"] for c in json.loads(out)["checks"]}
    assert params == {"euler": {"order": 0}, "thm-1.4": {"n_max": 0}}


def test_verify_negative_n_max_is_usage_error():
    line = _usage_error(["verify", "--check", "thm-1.4", "--n-max", "-5"])
    assert line == "Error: argument --n-max: '-5' is not an integer >= 0"


def test_verify_unknown_check_is_usage_error(tmp_path):
    line = _usage_error(["verify", "--check", "thm-9.9"])
    assert line.startswith("Error: unknown check id 'thm-9.9'; available: ")
    _assert_cannot_write(["verify", "--check", "euler", "--order", "5"], tmp_path)


def test_verify_empty_check_list_is_usage_error():
    # an empty list would otherwise pass with nothing checked
    for raw in ("", ",", ",,"):
        line = _usage_error(["verify", "--check", raw])
        assert line.startswith("Error: no check id given; available: "), raw
    _ok(["verify", "--check", "", "--check", "euler", "--order", "5"])


def test_identity_command():
    obj = json.loads(_ok(["identity", "--id", "euler", "--order", "100"]))
    assert obj["checks"][0]["check_id"] == "euler"
    assert _usage_error(["identity", "--id", "nope"]).startswith(
        "Error: unknown identity 'nope'; available: "
    )


_RUNTIME = re.compile(r'"runtime_ms": [^,\n]*')


@pytest.mark.parametrize("order", [0, 5, 40])
def test_identity_and_verify_print_the_same_report(order):
    # verify --check X is the identity command for a catalog id: same bytes
    # apart from the measured runtime, and the same exit status
    for entry_id in sorted(identities.CATALOG):
        code, out, err = _run(["identity", "--id", entry_id, "--order", str(order)])
        assert (code, err) == (0, ""), (entry_id, code, err)
        v_code, v_out, v_err = _run(["verify", "--check", entry_id, "--order", str(order)])
        assert (v_code, _RUNTIME.sub("", v_out), v_err) == (code, _RUNTIME.sub("", out), err), entry_id


def test_identity_negative_order_is_usage_error(tmp_path):
    line = _usage_error(["identity", "--id", "euler", "--order", "-3"])
    assert line == "Error: argument --order: '-3' is not an integer >= 0"
    _assert_cannot_write(["identity", "--id", "euler", "--order", "5"], tmp_path)


BROKEN = IdentityEntry(
    "broken",
    "always fails",
    lambda N, run: [identities.Clause("c", lambda: Series.constant(N, -1))],
)


def test_failing_check_exits_one(monkeypatch):
    monkeypatch.setitem(identities.CATALOG, "broken", BROKEN)
    code, out, err = _run(["identity", "--id", "broken", "--order", "5"])
    assert (code, err) == (1, "")
    obj = json.loads(out)
    assert obj["all_passed"] is False


def test_main_exits_by_system_exit(monkeypatch, capsys):
    # the benchmark's tracer calls main(args=..., prog_name=...) and reads the code
    monkeypatch.setitem(identities.CATALOG, "broken", BROKEN)
    for argv, code in (
        (["identity", "--id", "euler", "--order", "5"], 0),
        (["identity", "--id", "broken", "--order", "5"], 1),
        (["identity", "--id", "nope"], 2),
        (["--help"], 0),
    ):
        with pytest.raises(SystemExit) as exc:
            main(args=argv, prog_name="cranktab")
        assert exc.value.code == code, argv
    assert "usage: cranktab [-h]" in capsys.readouterr().out


def test_crosscheck_command():
    for args in (
        ["crosscheck", "--stat", "ocrank", "--n-max", "12"],
        ["crosscheck", "--stat", "m2crank", "--n-max", "12"],
        ["crosscheck", "--stat", "crank", "--n-max", "15"],
        ["crosscheck", "--stat", "kcrank", "--k", "2", "--n-max", "10"],
        ["crosscheck", "--stat", "rank", "--n-max", "30"],
    ):
        assert json.loads(_ok(args))["all_passed"] is True


def test_crosscheck_usage_errors(tmp_path, monkeypatch):
    for args, line in (
        (["--stat", "kcrank"],
         "Error: kcrank: k=None; kcrank needs k >= 2, and no other statistic takes k"),
        (["--stat", "ocrank", "--n-max", "99"],
         "Error: n_max 99 exceeds the enumeration ceiling 25 for ocrank"),
        (["--stat", "crank", "--n-max", "-1"],
         "Error: argument --n-max: '-1' is not an integer >= 0"),
        (["--stat", "kcrank", "--k", "1"],
         "Error: kcrank: k=1; kcrank needs k >= 2, and no other statistic takes k"),
        (["--stat", "crank", "--k", "9"],
         "Error: crank: k=9; kcrank needs k >= 2, and no other statistic takes k"),
    ):
        assert _usage_error(["crosscheck", *args]) == line
    _assert_cannot_write(["crosscheck", "--stat", "crank", "--n-max", "3"], tmp_path)

    # the oracle refuses an n_max above its ceiling before the GF's base is built
    def not_built(*args):
        raise AssertionError("the GF's base was built first")

    monkeypatch.setattr(bivariate, "partition_series_pentagonal", not_built)
    assert _usage_error(["crosscheck", "--stat", "crank", "--n-max", "61"]) == (
        "Error: n_max 61 exceeds the enumeration ceiling 60 for crank")


def test_import_loads_only_the_standard_library():
    # every invocation is a fresh process, so each import is paid on every start;
    # -S keeps site hooks of the environment from loading modules of their own
    code = ("import sys, cranktab.cli; "
            "print(sorted({'click', 'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=CHILD_ENV,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


# the cranktab modules each command loads besides the package root and the cli
COMMAND_MODULES = [
    (["--help"], set()),
    (["table", "--stat", "crank"], {"bivariate", "series"}),
    (["table", "--stat", "crank", "--provenance", "oracle", "--n-max", "8"],
     {"bivariate", "series", "brute"}),
    (["identity", "--id", "euler"], {"identities", "series"}),
    (["identity", "--id", "crank-diff-heads"], {"identities", "series", "bivariate"}),
    (["verify", "--check", "euler"], {"verify", "identities", "series"}),
    (["verify", "--check", "thm-1.2"], {"verify", "identities", "bivariate", "series"}),
    (["crosscheck", "--stat", "rank"],
     {"verify", "identities", "bivariate", "series", "brute"}),
]


@pytest.mark.parametrize("argv, modules", COMMAND_MODULES,
                         ids=[" ".join(argv) for argv, _ in COMMAND_MODULES])
def test_each_command_loads_only_the_modules_it_runs(argv, modules):
    # a fresh process compiles every module it imports, so a command that
    # imports modules it never runs pays for them on each start
    code = ("import sys\n"
            "from cranktab.cli import main\n"
            "try:\n    main(sys.argv[1:])\n"
            "except SystemExit as exc:\n    assert exc.code == 0, exc.code\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('cranktab'))\n"
            "print(*loaded, 'json' in sys.modules, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code, *argv], env=CHILD_ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    *loaded, json_loaded = proc.stderr.split()
    assert loaded == sorted({"cranktab", "cranktab.cli"} | {f"cranktab.{m}" for m in modules})
    if argv == ["--help"]:
        assert json_loaded == "False"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["table", "--stat", "crank", "--n-max", "30"],
    ["verify", "--check", "euler", "--order", "20"],
    ["identity", "--id", "euler", "--order", "20"],
    ["crosscheck", "--stat", "rank", "--n-max", "10"],
    ["--help"],
    ["verify", "--help"],
], ids=lambda argv: "-".join(a.strip("-") for a in argv) if "--help" in argv else argv[0])
def test_unwritable_stdout_exits_two_with_one_line(argv, unbuffered):
    # `cranktab ... >/dev/full`: every write to stdout fails with ENOSPC
    env = dict(CHILD_ENV, **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "cranktab.cli", *argv], env=env,
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (
        2, f"Error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")


def test_closed_stdout_exits_one_without_a_traceback():
    # `cranktab table ... | head -1`: the reader goes away mid-table
    proc = subprocess.Popen(
        [sys.executable, "-m", "cranktab.cli", "table", "--stat", "crank", "--n-max", "300"],
        env=CHILD_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"n,m,count\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


LARGE_K = 10**8


@pytest.mark.parametrize("argv", [
    ["table", "--stat", "kcrank"],
    ["table", "--stat", "kcrank", "--provenance", "oracle"],
    ["table", "--stat", "kcrank", "--format", "json"],
    ["crosscheck", "--stat", "kcrank"],
])
def test_large_k_ends_within_seconds(argv):
    # the cost of a k-crank table does not grow with k; in a child process, so
    # that a hang fails the test at its timeout instead of stalling the suite
    proc = subprocess.run(
        [sys.executable, "-m", "cranktab.cli", *argv, "--k", str(LARGE_K), "--n-max", "5"],
        env=CHILD_ENV, capture_output=True, text=True, timeout=10,
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    if argv[0] == "table":
        rows = {}
        if "json" in argv:
            for row in json.loads(proc.stdout)["rows"]:
                rows[row["n"]] = {int(m): int(c) for m, c in row["counts"].items()}
        else:
            for line in proc.stdout.splitlines()[1:]:
                n, m, c = map(int, line.split(","))
                rows.setdefault(n, {})[m] = c
        # n = 1: a part 1 has k-crank 1, -1 or 0 in the first, second or any other color
        assert rows[1] == {-1: 1, 0: LARGE_K - 2, 1: 1}
        # n = 2: k colorings of (2), k of (1, 1), k(k-1)/2 of two 1s in different colors
        assert sum(rows[2].values()) == LARGE_K * (LARGE_K + 3) // 2


def test_large_k_sweep_ends_within_seconds():
    # verify sweeps the registered k only; the library sweeps any k
    code = ("from cranktab.verify import SWEEPS, run_sweep\n"
            f"r = run_sweep(SWEEPS['conj-1.8'][-1]._replace(k={LARGE_K}), 5)\n"
            "print(r.check_id, r.verdict, r.cells_checked)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=CHILD_ENV, capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert proc.stdout == f"conj-1.8[k={LARGE_K}] pass 15\n"


def _opt(flag, values):
    """An optional ``[flag, value]`` pair: absent, or one of ``values``."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


SIZES = st.integers(-1, 12)
STATS = st.sampled_from(cranktab.STATISTICS + ("bogus",))
KS = _opt("--k", st.integers(-1, 7))
CHECK_IDS = st.sampled_from(verify.available_checks() + ["all", "thm-9.9"])

ARGV = st.one_of(
    st.tuples(st.just(["table", "--stat"]), STATS.map(lambda s: [s]), KS,
              SIZES.map(lambda n: ["--n-max", str(n)]),
              _opt("--provenance", st.sampled_from(["gf", "oracle"])),
              _opt("--format", st.sampled_from(["csv", "json"]))),
    st.tuples(st.just(["verify", "--check"]), CHECK_IDS.map(lambda c: [c]),
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
    # every outcome is an exit status (0 pass, 1 fail, 2 usage), never a traceback;
    # a usage error is one "Error: ..." line on stderr and nothing on stdout
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, err)
    if code == 2:
        (line,) = err.splitlines()
        assert out == "" and err == line + "\n" and line.startswith("Error: "), (argv, err)


def test_every_writing_of_the_k_rule_accepts_the_same_pairs():
    # the k rule (k >= 2 for kcrank, no k for any other statistic) is
    # cranktab.check_k, which every source and the command line apply
    def accepts(build, stat, k):
        try:
            build(stat, 3, k)
        except ValueError:
            return False
        return True

    def cli_accepts(stat, k):
        code, _, _ = _run(["table", "--stat", stat, "--n-max", "3",
                           *([] if k is None else ["--k", str(k)])])
        assert code in (0, 2), (stat, k, code)
        return code == 0

    builds = {
        "gf_rows": lambda stat, n, k: list(bivariate.gf_rows(stat, n, k)),
        "gf_columns": lambda stat, n, k: list(bivariate.gf_columns(stat, n, k)),
        "gf_table": bivariate.gf_table,
        "oracle_rows": lambda stat, n, k: list(brute.oracle_rows(stat, n, k)),
    }
    # pairs by repr: 2.0 == 2, so a set of pairs would fold them into one
    pairs = [(stat, k) for stat in cranktab.STATISTICS for k in (None, 0, 1, 2, 3, 2.0, 2.5)]
    accepted = {name: {repr(p) for p in pairs if accepts(build, *p)}
                for name, build in builds.items()}
    accepted["cli table"] = {repr(p) for p in pairs if cli_accepts(*p)}
    rule = {repr((stat, None)) for stat in cranktab.STATISTICS if stat != "kcrank"}
    rule |= {repr(("kcrank", 2)), repr(("kcrank", 3))}
    assert accepted == dict.fromkeys(accepted, rule)
