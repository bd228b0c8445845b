"""Tests for table construction, difference views and export formats."""

import io
import json

import pytest

from cranktab import tables
from cranktab.bivariate import crank_gf
from cranktab.identities import CRANK_DIFF_M1_HEAD, CRANK_DIFF_M2_HEAD
from cranktab.series import overpartition_series, partition_series
from cranktab.tables import build_table, diff_column, monotone_diff_row


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


# every statistic (kcrank at k = 3), both provenances
EXPORT_CASES = [
    (stat, n_max, provenance)
    for stat in tables.STATISTICS
    for n_max in (0, 1, 12)
    for provenance in ("gf", "oracle")
]


def _export_tables():
    for stat, n_max, provenance in EXPORT_CASES:
        k = 3 if stat == "kcrank" else None
        yield build_table(stat, n_max, provenance, k=k)


def test_build_crank_n1():
    t = build_table("crank", 1, "gf")
    assert _row(t, 1) == {-1: 1, 0: -1, 1: 1}
    assert t.count(0, 1) == -1
    assert t.count(5, 1) == 0


def test_build_ocrank_point_values():
    t = build_table("ocrank", 4, "gf")
    assert t.count(0, 4) == 2
    assert t.count(1, 4) == 2


def test_build_m2_n0():
    t = build_table("m2crank", 0, "gf")
    assert _row(t, 0) == {0: 1}


def test_rank_gf_table_equals_oracle():
    gf, oracle = build_table("rank", 12, "gf"), build_table("rank", 12, "oracle")
    for n in range(13):
        assert _row(gf, n) == _row(oracle, n), n
    assert gf.count(0, 0) == 1  # the empty partition


def test_invalid_inputs():
    with pytest.raises(ValueError):
        build_table("nope", 5)
    with pytest.raises(ValueError):
        build_table("kcrank", 5, "gf")  # missing k


def test_gf_equals_oracle_within_small_range():
    for stat, k in (("crank", None), ("ocrank", None), ("m2crank", None), ("kcrank", 3)):
        gf = build_table(stat, 14, "gf", k=k)
        oracle = build_table(stat, 14, "oracle", k=k)
        for n in range(15):
            for m in range(n + 1):
                assert gf.count(m, n) == oracle.count(m, n), (stat, m, n)


def test_row_sums_match_counting_series():
    def row_sums(t):
        return [sum(_row(t, n).values()) for n in range(t.order + 1)]

    assert row_sums(build_table("crank", 20, "gf")) == partition_series(20).coeffs
    assert row_sums(build_table("ocrank", 20, "gf")) == overpartition_series(20).coeffs


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
        row = _row(t, n)
        assert row == {-m: c for m, c in row.items()}
    assert t.count(0, 0) == 1  # empty partition assigned rank 0


def test_csv_export():
    t = build_table("crank", 1, "gf")
    lines = _written(t, "csv").splitlines()
    assert lines == ["n,m,count", "0,0,1", "1,-1,1", "1,0,-1", "1,1,1"]


def test_csv_is_deterministic():
    t = build_table("ocrank", 12, "gf")
    assert _written(t, "csv") == _written(build_table("ocrank", 12, "gf"), "csv")
    for t in _export_tables():
        assert _written(t, "csv") == _reference_csv(t), (t.label, t.order, t.provenance)


def test_json_export_decimal_strings():
    t = build_table("kcrank", 2, "gf", k=3)
    obj = json.loads(_written(t, "json"))
    assert obj["statistic"] == "kcrank(3)"
    assert obj["n_max"] == 2
    assert obj["rows"][1]["counts"] == {"-1": "1", "0": "1", "1": "1"}
    assert all(isinstance(v, str) for row in obj["rows"] for v in row["counts"].values())
    for t in _export_tables():
        assert _written(t, "json") == _reference_json(t), (t.label, t.order, t.provenance)


def test_symmetry_violation_detected():
    # rows become the columns m >= 0
    assert tables._compress_full_rows([{0: 1}, {-1: 1, 0: -1, 1: 1}], "crank") == [
        [1, -1],
        [0, 1],
    ]
    with pytest.raises(ValueError):
        tables._compress_full_rows([{0: 1}, {-1: 1, 0: 0, 1: 2}], "bogus")
    with pytest.raises(ValueError):
        tables._compress_full_rows([{0: 1}, {-2: 1, 2: 1}], "bogus")


def test_tables_are_cached_and_shared():
    # a GF table is the memoized builder's own object
    assert build_table("crank", 9) is crank_gf(9)
    assert build_table("crank", 9, "oracle") is build_table("crank", 9, "oracle")


def test_render_rejects_unknown_format():
    t = build_table("crank", 1, "gf")
    buf = io.StringIO()
    with pytest.raises(ValueError):
        t.write(buf, "xml")
    assert buf.getvalue() == ""
