"""Inequality sweeps and identity checks with structured pass/fail reports.

Every theorem sweep is data: one :class:`Sweep` entry of :data:`SWEEPS`, run
by the one routine :func:`run_sweep`.  A sweep reads the count table
``count(m, n)`` that the generating function of its ``statistic`` gives and
checks one relation, set by ``stride``:

* 1 or 2 -- step in m: count(m - stride, n) >= count(m, n);
* 0      -- monotone in n: count(m, n) >= count(m, n - 1), from n = 1 on.

Row n compares the m in ``range(m_lo, n + 1 - m_cut)``.  Rows from
``scan_from`` on are counted: the verdict is "pass" exactly when the
violations found there equal ``expected``, the statement's exception set of
(k, m, n) triples (k is None except for the k-crank), intersected with the
scanned rows and the k of the run.  Statements that hold only from a
threshold on thus declare it as ``scan_from``; the violations in the rows
below it are reported in ``informational``, so known small-n irregularities
are documented rather than silently skipped.  ``exclude_diagonal`` d, when
set, leaves the cells n = m + d of the counted rows out of the verdict; their
violations follow in ``informational`` with a ``note``.  ``params`` names the
report parameters in print order, each taken from the sweep or the run
(``n_max``, ``k``, ``statistic``, ``scan_from``, ``relation``).  Every sweep
report gives ``cells_checked``, the number of cells compared in its counted
rows; every identity report gives ``coeffs_checked``.

Note on the monotonicity sweeps (`thm-1.7*`): the counts of the first
residual crank satisfy count(m, n) >= count(m, n-1) for all comparisons
among n >= 1, but the single comparison against n = 0 fails at m = 0
(count(0, 1) = 0 < 1 = count(0, 0), forced by the signed convention at
n = 1).  The sweep therefore compares successive rows from n = 2 on and
reports the n = 1 comparison informationally.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from itertools import compress, count

from cranktab import identities, tables

DEFAULT_N_MAX = {"crank": 300, "ocrank": 300, "m2crank": 300, "kcrank": 200, "rank": 40}
DEFAULT_IDENTITY_ORDER = 200
DEFAULT_K_LIST = (2, 3, 4, 5, 6)

RELATIONS = {0: "monotone", 1: "step", 2: "step-by-2"}  # by Sweep.stride
_BY_CELL = operator.itemgetter("n", "m")  # the order of report entries


@dataclass
class CheckReport:
    check_id: str
    params: dict
    passed: bool
    exceptions: list
    informational: list = field(default_factory=list)
    runtime_ms: float = 0.0
    cells_checked: int | None = None
    coeffs_checked: int | None = None

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json_obj(self) -> dict:
        def fmt(entries):
            out = []
            for e in entries:
                d = dict(e)
                for key in ("lhs", "rhs"):
                    if key in d:
                        d[key] = str(d[key])
                out.append(d)
            return out

        obj = {
            "check_id": self.check_id,
            "params": self.params,
            "verdict": self.verdict,
            "exceptions": fmt(self.exceptions),
            "runtime_ms": round(self.runtime_ms, 3),
        }
        if self.informational:
            obj["informational"] = fmt(self.informational)
        for key in ("cells_checked", "coeffs_checked"):
            if getattr(self, key) is not None:
                obj[key] = getattr(self, key)
        return obj


@dataclass(frozen=True)
class Sweep:
    """One inequality sweep over a count table; see the module docstring."""

    check_id: str
    statistic: str
    stride: int  # 1 or 2: step in m; 0: monotone in n
    m_lo: int = 0
    m_cut: int = 0
    scan_from: int = 0
    expected: frozenset = frozenset()  # (k, m, n) triples
    exclude_diagonal: int | None = None
    params: tuple = ("n_max",)


def run_sweep(sweep: Sweep, n_max: int, k: int | None = None) -> CheckReport:
    """Scan rows 0..n_max of the sweep's table (the k-colored one for kcrank).

    Column m is compared with column m - stride (or with itself one row down)
    as whole slices; only the violating cells are visited one by one.
    """
    table = tables.build_table(sweep.statistic, n_max, k=k)
    t0 = time.perf_counter()
    stride, diagonal = sweep.stride, sweep.exclude_diagonal
    dn = 0 if stride else 1  # a monotone sweep compares row n with row n - 1
    found, informational, cells = [], [], 0
    for m in range(sweep.m_lo, n_max + 1 - sweep.m_cut):
        lo = max(m + sweep.m_cut, dn)  # first row whose window holds m
        first_counted = max(lo, sweep.scan_from)
        cells += max(0, n_max + 1 - first_counted)
        if diagonal is not None and first_counted <= m + diagonal <= n_max:
            cells -= 1
        lhs_col, rhs_col = table.column(m - stride).coeffs, table.column(m).coeffs
        for n in compress(count(lo), map(operator.lt, lhs_col[lo:], rhs_col[lo - dn :])):
            entry = {"m": m, "n": n, "lhs": lhs_col[n], "rhs": rhs_col[n - dn]}
            if k is not None:
                entry["k"] = k
            if n < sweep.scan_from:
                informational.append(entry)
            elif diagonal is not None and n == m + diagonal:
                informational.append(dict(entry, note=f"excluded diagonal n=m+{diagonal}"))
            else:
                found.append(entry)
    found.sort(key=_BY_CELL)
    informational.sort(key=_BY_CELL)
    expected = {
        (kk, m, n) for kk, m, n in sweep.expected if kk == k and sweep.scan_from <= n <= n_max
    }
    values = {
        "statistic": sweep.statistic,
        "k": k,
        "n_max": n_max,
        "scan_from": sweep.scan_from,
        "relation": RELATIONS[stride],
    }
    return CheckReport(
        sweep.check_id if k is None else f"{sweep.check_id}[k={k}]",
        {name: values[name] for name in sweep.params},
        passed={(e.get("k"), e["m"], e["n"]) for e in found} == expected,
        exceptions=found,
        informational=informational,
        runtime_ms=(time.perf_counter() - t0) * 1000,
        cells_checked=cells,
    )


def check_identity(entry_id, order=DEFAULT_IDENTITY_ORDER):
    """Run one identity-catalog entry at the given truncation order."""
    entry = identities.CATALOG[entry_id]
    t0 = time.perf_counter()
    exceptions, checked = identities.run_entry(entry, order)
    return CheckReport(
        entry_id,
        {"order": order},
        passed=not exceptions,
        exceptions=exceptions,
        runtime_ms=(time.perf_counter() - t0) * 1000,
        coeffs_checked=checked,
    )


def check_table_consistency(gf_table, oracle_table):
    """Cell-by-cell equality of a GF-built and an oracle-built table."""
    if gf_table.label != oracle_table.label:
        raise ValueError("tables compare different statistics")
    t0 = time.perf_counter()
    n_max = min(gf_table.order, oracle_table.order)
    found = []
    for m in range(n_max + 1):
        a, b = gf_table.columns[m], oracle_table.columns[m]
        found.extend(
            {"m": m, "n": n, "lhs": a[n], "rhs": b[n]}
            for n in compress(count(m), map(operator.ne, a[m : n_max + 1], b[m : n_max + 1]))
        )
    found.sort(key=_BY_CELL)
    return CheckReport(
        f"crosscheck-{gf_table.label}",
        {"n_max": n_max},
        passed=not found,
        exceptions=found,
        runtime_ms=(time.perf_counter() - t0) * 1000,
        cells_checked=(n_max + 1) * (n_max + 2) // 2,
    )


# -- registered checks ---------------------------------------------------------

# Check id -> its sweeps.  A kcrank sweep runs once per k of the k list.
SWEEPS = {
    "thm-1.1": (
        Sweep("thm-1.1a", "rank", stride=2, m_lo=2, params=("n_max", "relation")),
        Sweep("thm-1.1b", "rank", stride=0, scan_from=12, exclude_diagonal=2,
              params=("n_max", "relation")),
    ),
    "thm-1.2": (
        Sweep("thm-1.2", "crank", stride=1, m_lo=1, m_cut=1, scan_from=44,
              params=("n_max", "scan_from")),
    ),
    "thm-1.3": (
        Sweep("thm-1.3", "crank", stride=0, m_cut=2, scan_from=14,
              params=("n_max", "scan_from")),
    ),
    "thm-1.4": (
        Sweep("thm-1.4", "ocrank", stride=1, m_lo=1,
              expected=frozenset({(None, 1, 1), (None, 1, 2)})),
    ),
    "thm-1.5": (Sweep("thm-1.5", "m2crank", stride=1, m_lo=1),),
    "thm-1.7": (
        Sweep("thm-1.7a", "ocrank", stride=0, scan_from=2,
              params=("statistic", "n_max", "scan_from")),
        Sweep("thm-1.7b", "m2crank", stride=0, scan_from=2,
              params=("statistic", "n_max", "scan_from")),
    ),
    "conj-1.8": (
        Sweep("conj-1.8", "kcrank", stride=1, m_lo=1, expected=frozenset({(2, 1, 1)}),
              params=("k", "n_max")),
    ),
}


def available_checks():
    return sorted(SWEEPS) + sorted(identities.CATALOG)


def expand_checks(check_ids) -> list:
    """The checks that ``check_ids`` select, each once, in first-seen order.

    ``check_ids`` may contain theorem-sweep ids, identity-catalog ids, or
    ``"all"``; an unknown id raises ``KeyError``.
    """
    ids = []
    for cid in check_ids:
        if cid == "all":
            expansion = available_checks()
        elif cid in SWEEPS or cid in identities.CATALOG:
            expansion = [cid]
        else:
            raise KeyError(f"unknown check id {cid!r}")
        ids.extend(c for c in expansion if c not in ids)
    return ids


def run_checks(check_ids, n_max=None, order=None, k_list=None):
    """Run the checks that ``check_ids`` select; returns reports sorted by check id.

    See :func:`expand_checks` for the ids.  A ``None`` setting selects the
    check's default.
    """
    reports = []
    for cid in expand_checks(check_ids):
        if cid in identities.CATALOG:
            reports.append(check_identity(cid, DEFAULT_IDENTITY_ORDER if order is None else order))
            continue
        for sweep in SWEEPS[cid]:
            size = DEFAULT_N_MAX[sweep.statistic] if n_max is None else n_max
            if sweep.statistic == "kcrank":
                ks = DEFAULT_K_LIST if k_list is None else k_list
            else:
                ks = (None,)
            reports.extend(run_sweep(sweep, size, k) for k in ks)
    reports.sort(key=lambda r: r.check_id)
    return reports


def reports_to_json_obj(reports):
    return {
        "checks": [r.to_json_obj() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }


def exit_code(reports) -> int:
    """0 when every verdict is pass, 1 otherwise."""
    return 0 if all(r.passed for r in reports) else 1
