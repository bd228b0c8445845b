"""Tests for table construction, difference views and export formats."""

import io
import json

import pytest

from cranktab import STATISTICS, brute
from cranktab.bivariate import crank_gf, gf_table
from cranktab.brute import oracle_table
from cranktab.identities import CRANK_DIFF_M1_HEAD, CRANK_DIFF_M2_HEAD
from cranktab.series import overpartition_series, partition_series


def _row(t, n):
    """Nonzero entries of row n over the full -n..n range."""
    return {m: t.count(m, n) for m in range(-n, n + 1) if t.count(m, n)}


def _written(t, fmt):
    buf = io.StringIO()
    t.write(buf, fmt)
    return buf.getvalue()


# -- reference exporters --------------------------------------------------------
#
# The per-cell CSV loop and the whole-object JSON that the streamed
# CrankTable.write replaced.  Every export must equal them byte for byte.


def _reference_csv(t):
    lines = ["n,m,count\n"]
    for n in range(t.order + 1):
        for m in range(-n, n + 1):
            lines.append(f"{n},{m},{t.count(m, n)}\n")
    return "".join(lines)


def _reference_json(t):
    rows = []
    for n in range(t.order + 1):
        counts = {str(m): str(t.count(m, n)) for m in range(-n, n + 1)}
        rows.append({"n": n, "counts": counts})
    obj = {"statistic": t.label, "n_max": t.order, "rows": rows}
    return json.dumps(obj, indent=2) + "\n"


# every statistic (kcrank at k = 3) from both constructors, and wide GF rows
EXPORT_CASES = [
    (build, stat, n_max)
    for stat in STATISTICS
    for n_max in (0, 1, 12)
    for build in (gf_table, oracle_table)
] + [(gf_table, "crank", 60), (gf_table, "crank", 400), (gf_table, "kcrank", 60),
     (gf_table, "rank", 60)]


def _export_tables():
    for build, stat, n_max in EXPORT_CASES:
        k = 3 if stat == "kcrank" else None
        yield build(stat, n_max, k)


def test_build_crank_n1():
    t = gf_table("crank", 1)
    assert _row(t, 1) == {-1: 1, 0: -1, 1: 1}
    assert t.count(0, 1) == -1
    assert t.count(5, 1) == 0


def test_build_ocrank_point_values():
    t = gf_table("ocrank", 4)
    assert t.count(0, 4) == 2
    assert t.count(1, 4) == 2


def test_build_m2_n0():
    t = gf_table("m2crank", 0)
    assert _row(t, 0) == {0: 1}


def test_rank_gf_table_equals_oracle():
    gf, oracle = gf_table("rank", 12), oracle_table("rank", 12)
    for n in range(13):
        assert _row(gf, n) == _row(oracle, n), n
    assert gf.count(0, 0) == 1  # the empty partition


def test_invalid_inputs():
    for build in (gf_table, oracle_table):
        with pytest.raises(ValueError):
            build("nope", 5)
        with pytest.raises(ValueError):
            build("kcrank", 5)  # missing k
        with pytest.raises(ValueError):
            build("kcrank", 5, k=1)
        with pytest.raises(ValueError):
            build("crank", 5, k=3)  # k for a statistic without colors


def test_gf_equals_oracle_within_small_range():
    for stat, k in (("crank", None), ("ocrank", None), ("m2crank", None), ("kcrank", 3)):
        gf = gf_table(stat, 14, k)
        oracle = oracle_table(stat, 14, k)
        for n in range(15):
            for m in range(n + 1):
                assert gf.count(m, n) == oracle.count(m, n), (stat, m, n)


def test_row_sums_match_counting_series():
    def row_sums(t):
        return [sum(_row(t, n).values()) for n in range(t.order + 1)]

    assert row_sums(gf_table("crank", 20)) == partition_series(20).coeffs
    assert row_sums(gf_table("ocrank", 20)) == overpartition_series(20).coeffs


def test_diff_column_heads():
    t = gf_table("crank", 60)
    assert (t.column(0) - t.column(1)).coeffs[:44] == CRANK_DIFF_M1_HEAD
    assert (t.column(1) - t.column(2)).coeffs[:27] == CRANK_DIFF_M2_HEAD


def test_ocrank_diff_column_head():
    t = gf_table("ocrank", 20)
    assert (t.column(0) - t.column(1)).coeffs[:6] == [1, -1, -1, 1, 0, 1]


def test_monotone_diff_row():
    # successive-n differences count(m, n) - count(m, n - 1), from n = 1
    t = gf_table("ocrank", 40)
    col = t.column(0).coeffs
    d0 = [b - a for a, b in zip(col, col[1:])]
    # the signed n = 1 convention forces the single dip count(0,1) < count(0,0)
    assert d0[0] == -1
    assert all(c >= 0 for c in d0[1:])

    t = gf_table("crank", 60)
    for m in (0, 1, 2):
        col = t.column(m).coeffs
        assert all(b >= a for a, b in zip(col[13:], col[14:]))


def test_rank_oracle_table_symmetric():
    t = oracle_table("rank", 12)
    for n in range(13):
        row = _row(t, n)
        assert row == {-m: c for m, c in row.items()}
    assert t.count(0, 0) == 1  # empty partition assigned rank 0


def test_csv_export():
    t = gf_table("crank", 1)
    lines = _written(t, "csv").splitlines()
    assert lines == ["n,m,count", "0,0,1", "1,-1,1", "1,0,-1", "1,1,1"]


def test_csv_is_deterministic():
    t = gf_table("ocrank", 12)
    assert _written(t, "csv") == _written(gf_table("ocrank", 12), "csv")
    for t in _export_tables():
        assert _written(t, "csv") == _reference_csv(t), (t.label, t.order)


def test_json_export_decimal_strings():
    t = gf_table("kcrank", 2, 3)
    obj = json.loads(_written(t, "json"))
    assert obj["statistic"] == "kcrank(3)"
    assert obj["n_max"] == 2
    assert obj["rows"][1]["counts"] == {"-1": "1", "0": "1", "1": "1"}
    assert all(isinstance(v, str) for row in obj["rows"] for v in row["counts"].values())
    for t in _export_tables():
        assert _written(t, "json") == _reference_json(t), (t.label, t.order)


def test_symmetry_violation_detected():
    # rows become the columns m >= 0
    assert brute._columns_from_rows([{0: 1}, {-1: 1, 0: -1, 1: 1}], "crank") == [
        [1, -1],
        [0, 1],
    ]
    with pytest.raises(ValueError):
        brute._columns_from_rows([{0: 1}, {-1: 1, 0: 0, 1: 2}], "bogus")
    with pytest.raises(ValueError):
        brute._columns_from_rows([{0: 1}, {-2: 1, 2: 1}], "bogus")


def test_oracle_tables_are_cached_gf_tables_are_built_afresh():
    # the enumeration is memoized; a GF table is built on each call, and no
    # builder keeps one alive after its caller drops it
    assert oracle_table("crank", 9) is oracle_table("crank", 9)
    t = gf_table("crank", 9)
    assert t is not crank_gf(9) and t.columns == crank_gf(9).columns


def test_render_rejects_unknown_format():
    for n_max in (1, 60):
        t = gf_table("crank", n_max)
        for fmt in ("xml", "CSV", "", "csv "):
            buf = io.StringIO()
            with pytest.raises(ValueError):
                t.write(buf, fmt)
            assert buf.getvalue() == "", fmt
