"""Tests for table construction, difference views and export formats."""

import csv
import io
import json
import re
from collections import Counter

import pytest

from cranktab import STATISTICS, UsageError, bivariate, brute, identities, verify
from cranktab.bivariate import crank_gf, gf_columns, gf_rows, gf_table, table_label, write_rows
from cranktab.brute import oracle_rows
from cranktab.identities import CRANK_DIFF_M1_HEAD, CRANK_DIFF_M2_HEAD


def _nonzero(row):
    """Nonzero entries ``{m: count}`` of a row over its full -n..n range."""
    n = len(row) // 2
    return {m: c for m, c in zip(range(-n, n + 1), row) if c}


def _written(source, stat, n_max, k, fmt):
    buf = io.StringIO()
    write_rows(buf, fmt, table_label(stat, k), n_max, source(stat, n_max, k))
    return buf.getvalue()


# -- reference exporters --------------------------------------------------------
#
# The csv module and the whole-object JSON, from the same rows.  Every export
# of write_rows must equal them byte for byte.


def _reference_csv(rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "m", "count"])
    for n, row in enumerate(rows):
        writer.writerows([n, m, c] for m, c in zip(range(-n, n + 1), row))
    return buf.getvalue()


def _reference_json(label, rows):
    obj = {"statistic": label, "n_max": len(rows) - 1, "rows": [
        {"n": n, "counts": {str(m): str(c) for m, c in zip(range(-n, n + 1), row)}}
        for n, row in enumerate(rows)
    ]}
    return json.dumps(obj, indent=2) + "\n"


# every statistic (kcrank at k = 3) from both row sources, and wide GF rows
EXPORT_CASES = [
    (source, stat, n_max)
    for stat in STATISTICS
    for n_max in (0, 1, 12)
    for source in (gf_rows, oracle_rows)
] + [(gf_rows, "crank", 60), (gf_rows, "crank", 400), (gf_rows, "kcrank", 60),
     (gf_rows, "rank", 60), (oracle_rows, "crank", 30)]


def _export_cases():
    for source, stat, n_max in EXPORT_CASES:
        k = 3 if stat == "kcrank" else None
        yield source, stat, n_max, k, list(source(stat, n_max, k))


def test_build_crank_n1():
    rows = list(gf_rows("crank", 1))
    assert _nonzero(rows[1]) == {-1: 1, 0: -1, 1: 1}
    assert rows == [[1], [1, -1, 1]]  # no cell outside |m| <= n


def test_build_ocrank_point_values():
    row = list(gf_rows("ocrank", 4))[4]
    assert row[4 + 0] == 2
    assert row[4 + 1] == 2


def test_build_m2_n0():
    assert list(gf_rows("m2crank", 0)) == [[1]]


K_RULE = "kcrank needs k >= 2, and no other statistic takes k"
BAD_CALLS = [  # (arguments, the start of the message), for every source
    (("nope", 5), "unknown statistic 'nope'"),
    (("crank", -1), "(order|n_max) must be >= 0, got -1"),
    (("kcrank", 5), f"kcrank: k=None; {K_RULE}"),
    (("kcrank", 5, 1), f"kcrank: k=1; {K_RULE}"),
    (("kcrank", 5, -3), f"kcrank: k=-3; {K_RULE}"),
    (("crank", 5, 3), f"crank: k=3; {K_RULE}"),
]


def test_bad_arguments_raise_at_the_call_before_anything_is_built(monkeypatch):
    def not_built(*args, **kwargs):
        raise AssertionError("built before the arguments were checked")

    for module, name in ((bivariate, "partition_series_pentagonal"),
                         (bivariate, "overpartition_series_theta"),
                         (brute, "partitions"), (brute, "overpartitions")):
        monkeypatch.setattr(module, name, not_built)
    sources = {"gf_rows": gf_rows, "gf_columns": gf_columns, "gf_table": gf_table,
               "oracle_rows": oracle_rows}
    calls = [(name, args, match) for name in sources for args, match in BAD_CALLS]
    calls += [(name, ("crank", 5, None, -1), "top must be >= 0, got -1")
              for name in ("gf_columns", "gf_table")]
    calls += [("oracle_rows", (stat, ceiling + 1, 2 if stat == "kcrank" else None),
               f"n_max {ceiling + 1} exceeds the enumeration ceiling {ceiling} for {stat}$")
              for stat, ceiling in brute.ORACLE_CEILINGS.items()]
    for name, args, match in calls:
        with pytest.raises(UsageError, match=f"^{match}"):
            sources[name](*args)
    assert issubclass(UsageError, ValueError)

    # run_checks and check_identity refuse before any column pass or clause runs
    monkeypatch.setattr(bivariate, "gf_columns", not_built)
    monkeypatch.setattr(identities, "run_clause", not_built)
    available = "available: conj-1.8, thm-1.1, .*, sc-identity$"
    checks = [
        (verify.run_checks, ([],), {}, f"no check id given; {available}"),
        (verify.run_checks, (["euler", "nope"],), {}, f"unknown check id 'nope'; {available}"),
        (verify.run_checks, (["thm-1.4"],), {"n_max": -1}, "n_max must be >= 0, got -1"),
        (verify.run_checks, (["euler"],), {"order": -1}, "order must be >= 0, got -1"),
        (verify.run_checks, (["euler"],), {"n_max": 5},
         "n_max applies only to conj-1.8, thm-1.1, .*, thm-1.7$"),
        (verify.run_checks, (["thm-1.4"],), {"order": 5},
         "order applies only to andrews-merca, .*, sc-identity$"),
        (identities.check_identity, ("crank-diff-tails", -1), {}, "order must be >= 0, got -1$"),
        (identities.check_identity, ("nope",), {},
         "unknown identity 'nope'; available: andrews-merca, .*, sc-identity$"),
    ]
    for fn, args, kwargs, match in checks:
        with pytest.raises(UsageError, match=f"^{match}"):
            fn(*args, **kwargs)


@pytest.mark.parametrize(
    "call, name",
    [(lambda size: gf_rows("crank", size), "order"),
     (lambda size: verify.run_checks(["thm-1.4"], n_max=size), "n_max"),
     (lambda size: identities.check_identity("euler", size), "order"),
     (lambda size: oracle_rows("crank", size), "n_max")],
    ids=["gf_rows", "run_checks", "check_identity", "oracle_rows"],
)
def test_a_size_that_is_not_an_int_is_refused_at_the_call(call, name):
    # a float or a bool is a usage error that names the size, not a TypeError
    for size in (2.5, 2.0, True, "3"):
        with pytest.raises(UsageError, match=re.escape(f"{name} must be an int, got {size!r}")):
            call(size)


def test_diff_column_heads():
    cols = gf_table("crank", 60)
    assert (cols[0] - cols[1]).coeffs[:44] == CRANK_DIFF_M1_HEAD
    assert (cols[1] - cols[2]).coeffs[:27] == CRANK_DIFF_M2_HEAD


def test_monotone_diff_row():
    # successive-n differences count(m, n) - count(m, n - 1), from n = 1
    col = gf_table("ocrank", 40)[0].coeffs
    d0 = [b - a for a, b in zip(col, col[1:])]
    # the signed n = 1 convention forces the single dip count(0,1) < count(0,0)
    assert d0[0] == -1
    assert all(c >= 0 for c in d0[1:])

    cols = gf_table("crank", 60)
    for m in (0, 1, 2):
        col = cols[m].coeffs
        assert all(b >= a for a, b in zip(col[13:], col[14:]))


def test_rank_oracle_table_symmetric():
    rows = list(oracle_rows("rank", 12))
    for n, row in enumerate(rows):
        assert len(row) == 2 * n + 1
        assert row == row[::-1]
    assert rows[0] == [1]  # empty partition assigned rank 0


def test_csv_export():
    for source in (gf_rows, oracle_rows):
        lines = _written(source, "crank", 1, None, "csv").splitlines()
        assert lines == ["n,m,count", "0,0,1", "1,-1,1", "1,0,-1", "1,1,1"]


def test_csv_is_deterministic():
    assert _written(gf_rows, "ocrank", 12, None, "csv") == _written(
        gf_rows, "ocrank", 12, None, "csv")
    for source, stat, n_max, k, rows in _export_cases():
        assert _written(source, stat, n_max, k, "csv") == _reference_csv(rows), (
            source.__name__, stat, n_max)


def test_json_export_decimal_strings():
    for source in (gf_rows, oracle_rows):
        obj = json.loads(_written(source, "kcrank", 2, 3, "json"))
        assert obj["statistic"] == "kcrank(3)"
        assert obj["n_max"] == 2
        assert obj["rows"][1]["counts"] == {"-1": "1", "0": "1", "1": "1"}
        assert all(isinstance(v, str) for row in obj["rows"] for v in row["counts"].values())
    for source, stat, n_max, k, rows in _export_cases():
        label = table_label(stat, k)
        assert _written(source, stat, n_max, k, "json") == _reference_json(label, rows), (
            source.__name__, stat, n_max)


def test_symmetry_violation_detected(monkeypatch):
    # each enumerated row is checked for support and symmetry as it is built
    assert brute._checked_row("crank", 1, Counter({-1: 1, 0: -1, 1: 1})) == [1, -1, 1]
    assert brute._checked_row("crank", 2, Counter({0: 3, 1: 0})) == [0, 0, 3, 0, 0]
    with pytest.raises(ValueError, match="bogus: asymmetric row at n=1, m=-1"):
        brute._checked_row("bogus", 1, Counter({-1: 1, 0: 0, 1: 2}))
    with pytest.raises(ValueError, match=r"bogus: support violated at n=1, m=-2 \(count 1\)"):
        brute._checked_row("bogus", 1, Counter({-2: 1, 2: 1}))

    built = []

    def rows(n_max, objects, contributions):
        assert (objects, contributions) == (brute.partitions, brute.crank_contributions)
        for n, row in enumerate([Counter({0: 1}), Counter({-1: 1, 1: 1}),
                                 Counter({-1: 1, 2: 1}), Counter({0: 5})]):
            built.append(n)
            yield row

    monkeypatch.setattr(brute, "_weighted_rows", rows)
    with pytest.raises(ValueError, match="crank: asymmetric row at n=2, m=-1"):
        list(oracle_rows("crank", 3))
    assert built == [0, 1, 2]  # the fault is found before the next row is enumerated


def test_gf_tables_are_built_afresh():
    # a GF table is built on each call, and no builder keeps one alive after
    # its caller drops it; nothing caches the enumeration either
    cols = gf_table("crank", 9)
    assert cols is not crank_gf(9) and cols == crank_gf(9)
    a, b = oracle_rows("crank", 9), oracle_rows("crank", 9)
    assert a is not b and list(a) == list(b)


def test_render_rejects_unknown_format():
    for n_max in (1, 60):
        for fmt in ("xml", "CSV", "", "csv "):
            buf = io.StringIO()
            with pytest.raises(ValueError):
                write_rows(buf, fmt, "crank", n_max, gf_rows("crank", n_max))
            assert buf.getvalue() == "", fmt
