"""Tests for table construction, difference views and export formats."""

import json

import pytest

from cranktab import tables
from cranktab.identities import CRANK_DIFF_M1_HEAD, CRANK_DIFF_M2_HEAD
from cranktab.series import overpartition_series, partition_series
from cranktab.tables import CrankTable, build_table, diff_column, monotone_diff_row


def test_build_crank_n1():
    t = build_table("crank", 1, "gf")
    assert t.row_dict(1) == {-1: 1, 0: -1, 1: 1}
    assert t.count(0, 1) == -1
    assert t.count(5, 1) == 0


def test_build_ocrank_point_values():
    t = build_table("ocrank", 4, "gf")
    assert t.count(0, 4) == 2
    assert t.count(1, 4) == 2


def test_build_m2_n0():
    t = build_table("m2crank", 0, "gf")
    assert t.row_dict(0) == {0: 1}


def test_rank_gf_table_equals_oracle():
    gf, oracle = build_table("rank", 12, "gf"), build_table("rank", 12, "oracle")
    for n in range(13):
        assert gf.row_dict(n) == oracle.row_dict(n), n
    assert gf.count(0, 0) == 1  # the empty partition


def test_invalid_inputs():
    with pytest.raises(ValueError):
        build_table("nope", 5)
    with pytest.raises(ValueError):
        build_table("kcrank", 5, "gf")  # missing k
    with pytest.raises(ValueError):
        build_table("crank", 10, "gf", order=5)


def test_gf_equals_oracle_within_small_range():
    for stat, k in (("crank", None), ("ocrank", None), ("m2crank", None), ("kcrank", 3)):
        gf = build_table(stat, 14, "gf", k=k)
        oracle = build_table(stat, 14, "oracle", k=k)
        for n in range(15):
            for m in range(n + 1):
                assert gf.count(m, n) == oracle.count(m, n), (stat, m, n)


def test_row_sums_match_counting_series():
    t = build_table("crank", 20, "gf")
    assert [t.row_sum(n) for n in range(21)] == partition_series(20).coeffs
    t = build_table("ocrank", 20, "gf")
    assert [t.row_sum(n) for n in range(21)] == overpartition_series(20).coeffs


def test_diff_column_heads():
    t = build_table("crank", 60, "gf")
    assert diff_column(t, 1).coeffs[:44] == CRANK_DIFF_M1_HEAD
    assert diff_column(t, 2).coeffs[:27] == CRANK_DIFF_M2_HEAD
    with pytest.raises(ValueError):
        diff_column(t, 0)


def test_ocrank_diff_column_head():
    t = build_table("ocrank", 20, "gf")
    assert diff_column(t, 1).coeffs[:6] == [1, -1, -1, 1, 0, 1]


def test_monotone_diff_row():
    t = build_table("ocrank", 40, "gf")
    d0 = monotone_diff_row(t, 0)
    assert d0[0] == 0  # series starts at n = 1
    # the signed n = 1 convention forces the single dip count(0,1) < count(0,0)
    assert d0[1] == -1
    assert all(c >= 0 for c in d0.coeffs[2:])

    t = build_table("crank", 60, "gf")
    for m in (0, 1, 2):
        d = monotone_diff_row(t, m)
        assert all(c >= 0 for c in d.coeffs[14:])


def test_rank_oracle_table_symmetric():
    t = build_table("rank", 12, "oracle")
    for n in range(13):
        row = t.row_dict(n)
        assert row == {-m: c for m, c in row.items()}
    assert t.count(0, 0) == 1  # empty partition assigned rank 0


def test_csv_export():
    t = build_table("crank", 1, "gf")
    lines = t.to_csv().splitlines()
    assert lines == ["n,m,count", "0,0,1", "1,-1,1", "1,0,-1", "1,1,1"]


def test_csv_is_deterministic():
    t = build_table("ocrank", 12, "gf")
    assert t.to_csv() == build_table("ocrank", 12, "gf").to_csv()


def test_json_export_decimal_strings():
    t = build_table("kcrank", 2, "gf", k=3)
    obj = json.loads(t.to_json())
    assert obj["statistic"] == "kcrank(3)"
    assert obj["n_max"] == 2
    assert obj["rows"][1]["counts"] == {"-1": "1", "0": "1", "1": "1"}
    assert all(isinstance(v, str) for row in obj["rows"] for v in row["counts"].values())


def test_symmetry_violation_detected():
    with pytest.raises(ValueError):
        tables._compress_full_rows([{0: 1}, {-1: 1, 0: 0, 1: 2}], "bogus")
    with pytest.raises(ValueError):
        tables._compress_full_rows([{0: 1}, {-2: 1, 2: 1}], "bogus")


def test_tables_are_cached_and_shared():
    a = build_table("crank", 9, "gf")
    b = build_table("crank", 9, "gf")
    assert a is b


def test_render_rejects_unknown_format():
    t = build_table("crank", 1, "gf")
    with pytest.raises(ValueError):
        t.render("xml")
