"""Tests for the enumeration oracle: generation, statistics, weighted tables."""

import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cranktab
from cranktab import UsageError, brute
from cranktab.brute import (
    colored_partitions,
    crank,
    crank_contributions,
    first_residual_contributions,
    halved_even_subpartition,
    kcrank,
    nonoverlined_subpartition,
    oracle_rows,
    overpartitions,
    partitions,
    rank,
    second_residual_contributions,
)
from cranktab.series import overpartition_series, partition_series

CHILD_ENV = {"PYTHONPATH": str(Path(cranktab.__file__).resolve().parents[1]),
             "PYTHONDONTWRITEBYTECODE": "1"}

# the worked overpartition example: non-overlined subpartition (9,7,5,5,4,3,1,1)
EXAMPLE_OP = (
    (9, True), (9, False), (7, False), (6, True), (5, False), (5, False),
    (4, True), (4, False), (3, False), (1, True), (1, False), (1, False),
)


def test_partitions_base_cases():
    assert list(partitions(0)) == [()]
    assert len(list(partitions(4))) == 5
    assert len(list(partitions(10))) == 42


def test_partitions_complete_and_duplicate_free():
    p = partition_series(14).coeffs
    for n in range(15):
        objs = list(partitions(n))
        assert len(objs) == len(set(objs)) == p[n]
        assert all(sum(o) == n for o in objs)
        assert all(list(o) == sorted(o, reverse=True) for o in objs)
        assert objs == sorted(objs, reverse=True)  # descending lexicographic


def test_overpartitions_n2():
    assert list(overpartitions(2)) == [
        ((2, False),),
        ((2, True),),
        ((1, False), (1, False)),
        ((1, True), (1, False)),
    ]


def test_overpartitions_counts():
    assert list(overpartitions(0)) == [()]
    assert len(list(overpartitions(4))) == 14
    expected = overpartition_series(10).coeffs
    for n in range(11):
        objs = list(overpartitions(n))
        assert len(objs) == len(set(objs)) == expected[n]


def test_overpartition_canonical_form():
    for n in range(8):
        for op in overpartitions(n):
            values = [v for v, _ in op]
            assert values == sorted(values, reverse=True)
            # at most one overline per value, and it precedes equal plain copies
            for i, (v, over) in enumerate(op):
                if over:
                    assert all(u != v for u, o in op[:i])


def test_rank_examples():
    assert rank((4,)) == 3
    assert rank((2, 1)) == 0
    assert rank((1, 1, 1, 1)) == -3
    with pytest.raises(ValueError):
        rank(())


def test_crank_examples():
    assert crank((9, 7, 5, 5, 4, 3, 1, 1)) == 4
    assert crank((3,)) == 3
    assert crank((1, 1)) == -2
    assert crank((1,)) == -1
    with pytest.raises(ValueError):
        crank(())


def test_crank_contributions_conventions():
    assert crank_contributions((1,)) == ((0, -1), (-1, 1), (1, 1))
    assert crank_contributions(()) == ((0, 1),)
    assert crank_contributions((2, 1)) == ((0, 1),)


def test_first_residual_contributions():
    op = ((7, True), (5, True), (2, True), (1, False))
    assert sum(v for v, _ in op) == 15
    assert first_residual_contributions(op) == ((0, -1), (-1, 1), (1, 1))

    assert nonoverlined_subpartition(EXAMPLE_OP) == (9, 7, 5, 5, 4, 3, 1, 1)
    assert first_residual_contributions(EXAMPLE_OP) == ((4, 1),)

    assert first_residual_contributions(((2, True),)) == ((0, 1),)


def test_second_residual_contributions():
    op = (
        (10, True), (9, False), (9, False), (7, True), (7, False), (6, True),
        (5, False), (3, False), (3, False), (2, True), (2, False),
    )
    assert halved_even_subpartition(op) == (1,)
    assert second_residual_contributions(op) == ((0, -1), (-1, 1), (1, 1))

    assert halved_even_subpartition(EXAMPLE_OP) == (2,)
    assert second_residual_contributions(EXAMPLE_OP) == ((2, 1),)

    assert second_residual_contributions(((1, False), (1, False))) == ((0, 1),)


def test_kcrank():
    assert kcrank(((1,), (), ())) == 1
    assert kcrank(((), (1, 1))) == -2
    assert kcrank(((2, 1), (3,))) == 1
    with pytest.raises(ValueError):
        kcrank(((1,),))


def test_colored_partitions_counts():
    for k in (2, 3):
        expected = partition_series(8).pow(k).coeffs
        for n in range(9):
            objs = list(colored_partitions(n, k))
            assert len(objs) == len(set(objs)) == expected[n]
            assert all(sum(map(sum, o)) == n for o in objs)


def test_enumerators_check_their_arguments_once_at_the_call(monkeypatch):
    for call in (lambda: partitions(-1), lambda: partitions(2.5),
                 lambda: colored_partitions(-1, 2), lambda: colored_partitions(3, -1)):
        with pytest.raises(UsageError):
            call()  # no draw needed
    calls = []
    real = brute.check_size
    monkeypatch.setattr(brute, "check_size", lambda *args: (calls.append(args), real(*args)))
    assert sum(1 for _ in partitions(20)) == partition_series(20).coeffs[20]
    assert sum(1 for _ in colored_partitions(6, 3)) == partition_series(6).pow(3).coeffs[6]
    assert calls == [("n", 20), ("n", 6), ("k", 3)]  # not once per recursive call


def test_every_enumerator_checks_its_arguments_at_the_call():
    # overpartitions was a generator: it raised only at the first draw
    for call, message in (
        (lambda: overpartitions(-1), "^n must be >= 0, got -1$"),
        (lambda: overpartitions(2.5), "^n must be an int, got 2.5$"),
    ):
        with pytest.raises(UsageError, match=message):
            call()  # no draw needed
    assert sum(1 for _ in overpartitions(6)) == overpartition_series(6).coeffs[6]


@pytest.mark.parametrize("k", [1, 0, -3])
def test_kcrank_rows_refuse_a_k_below_two(k):
    # k - 2 < 0 made the repeated squaring spin: power >>= 1 stops at -1, not 0;
    # the child gets a timeout, so a spin fails the test instead of hanging it
    code = ("from cranktab import UsageError\n"
            "from cranktab.brute import _rows_kcrank\n"
            f"try:\n    next(_rows_kcrank(5, {k}))\n"
            "except UsageError as exc:\n    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=CHILD_ENV,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"kcrank: k={k}; kcrank needs k >= 2, and no other statistic takes k\n"


def test_oracle_rows_crank_convention():
    rows = list(oracle_rows("crank", 3))
    assert rows[0] == [1]
    assert rows[1] == [1, -1, 1]
    assert rows[3] == [1, 0, 0, 1, 0, 0, 1]


def test_oracle_rows_ocrank_n2():
    rows = list(oracle_rows("ocrank", 2))
    assert rows[2] == [1, 1, 0, 1, 1]


def test_oracle_rows_rank_n4():
    rows = list(oracle_rows("rank", 4))
    assert rows[4] == [0, 1, 0, 1, 1, 1, 0, 1, 0]


def test_oracle_rows_kcrank_matches_direct_enumeration():
    for k in (2, 3, 4):
        rows = list(oracle_rows("kcrank", 7, k=k))
        for n in range(8):
            direct = {}
            for c in colored_partitions(n, k):
                m = kcrank(c)
                direct[m] = direct.get(m, 0) + 1
            assert rows[n] == [direct.get(m, 0) for m in range(-n, n + 1)]


def test_oracle_row_sums_count_objects():
    p = partition_series(12).coeffs
    op = overpartition_series(12).coeffs
    crank_rows = list(oracle_rows("crank", 12))
    ocrank_rows = list(oracle_rows("ocrank", 12))
    m2_rows = list(oracle_rows("m2crank", 12))
    for n in range(13):
        assert sum(crank_rows[n]) == p[n]
        assert sum(ocrank_rows[n]) == op[n]
        assert sum(m2_rows[n]) == op[n]
    # k - 2 = 0..9 walks every branch of the repeated squaring of the tuple counts
    for k in range(2, 12):
        rows = oracle_rows("kcrank", 12, k=k)
        assert [sum(row) for row in rows] == partition_series(12).pow(k).coeffs, k


def test_oracle_rows_symmetric():
    for stat, k in (("crank", None), ("ocrank", None), ("m2crank", None),
                    ("rank", None), ("kcrank", 3)):
        for n, row in enumerate(oracle_rows(stat, 10, k=k)):
            assert row == row[::-1], (stat, n)
            assert len(row) == 2 * n + 1, (stat, n)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=12))
def test_contribution_weights_sum_to_one(n):
    for p in partitions(n):
        assert sum(w for _, w in crank_contributions(p)) == 1
    for op in overpartitions(n):
        assert sum(w for _, w in first_residual_contributions(op)) == 1
        assert sum(w for _, w in second_residual_contributions(op)) == 1


def test_unknown_statistic_rejected():
    with pytest.raises(ValueError):
        oracle_rows("nope", 3)
    with pytest.raises(ValueError):
        oracle_rows("kcrank", 3)  # k missing
    with pytest.raises(ValueError):
        oracle_rows("kcrank", 3, k=1)


def test_oracle_rows_take_k_for_kcrank_only():
    for stat in ("crank", "rank", "ocrank", "m2crank"):
        with pytest.raises(ValueError, match=f"{stat}: k=3; kcrank needs k >= 2"):
            oracle_rows(stat, 5, k=3)


def test_oracle_rows_enumerate_only_when_drawn(monkeypatch):
    # the rows are enumerated as they are drawn, so a consumer that times its
    # reads times the enumeration; bad arguments still raise at the call
    calls = []
    enumerate_partitions = brute.partitions

    def counted(*args):
        calls.append(args)
        return enumerate_partitions(*args)

    monkeypatch.setattr(brute, "partitions", counted)
    rows = oracle_rows("crank", 10)
    assert calls == []
    assert next(rows) == [1]
    assert calls
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        oracle_rows("crank", -1)
    assert len(calls) == 1  # row 0 only: the refused call enumerated nothing
