"""Inequality sweeps and identity checks with structured pass/fail reports.

Every check declares the exception set it expects (taken from the statement
being verified, intersected with the scanned range); its verdict is "pass"
exactly when the violations found equal that set.  Statements that hold only
from a threshold on are scanned from the threshold, and the sweep reports
sub-threshold violations informationally, so known small-n irregularities
are documented rather than silently skipped.

Note on the monotonicity sweeps (`thm-1.7*`): the counts of the first
residual crank satisfy count(m, n) >= count(m, n-1) for all comparisons
among n >= 1, but the single comparison against n = 0 fails at m = 0
(count(0, 1) = 0 < 1 = count(0, 0), forced by the signed convention at
n = 1).  The sweep therefore compares successive rows from n = 2 on and
reports the n = 1 comparison informationally.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from cranktab import brute, identities, tables

DEFAULT_SWEEP_N_MAX = 300
DEFAULT_ORACLE_N_MAX = 40
DEFAULT_KCRANK_N_MAX = 200
DEFAULT_IDENTITY_ORDER = 200
DEFAULT_K_LIST = (2, 3, 4, 5, 6)


@dataclass
class CheckReport:
    check_id: str
    params: dict
    passed: bool
    exceptions: list
    informational: list = field(default_factory=list)
    runtime_ms: float = 0.0

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
        return obj


def _get(cfg, key, default):
    """``cfg[key]``, or ``default`` when the key is missing or None (0 is kept)."""
    value = cfg.get(key)
    return default if value is None else value


def _report(check_id, params, expected_keys, found, informational):
    found_keys = {(e.get("k"), e["m"], e["n"]) for e in found}
    passed = found_keys == set(expected_keys)
    return CheckReport(check_id, params, passed, found, informational)


def _scan_step(table, n_lo, n_hi, m_range, stride=1, skip=None):
    """Violations of count(m-stride, n) >= count(m, n).

    ``m_range(n)`` yields the m values scanned in row n (each compared
    against m - stride); ``skip(m, n)`` excludes individual cells.
    """
    found = []
    for n in range(n_lo, min(n_hi, table.n_max) + 1):
        for m in m_range(n):
            if skip and skip(m, n):
                continue
            lhs = table.count(m - stride, n)
            rhs = table.count(m, n)
            if lhs < rhs:
                entry = {"m": m, "n": n, "lhs": lhs, "rhs": rhs}
                if table.k is not None:
                    entry["k"] = table.k
                found.append(entry)
    return found


def _scan_monotone(table, n_lo, n_hi, m_range, skip=None):
    """Violations of count(m, n) >= count(m, n-1)."""
    found = []
    for n in range(max(n_lo, 1), min(n_hi, table.n_max) + 1):
        for m in m_range(n):
            if skip and skip(m, n):
                continue
            lhs = table.count(m, n)
            rhs = table.count(m, n - 1)
            if lhs < rhs:
                entry = {"m": m, "n": n, "lhs": lhs, "rhs": rhs}
                if table.k is not None:
                    entry["k"] = table.k
                found.append(entry)
    return found


def check_unimodal_step(
    table, n_range, m_range, expected=(), check_id="unimodal-step", params=None
):
    """Scan count(m-1, n) >= count(m, n) over the given ranges.

    ``m_range`` is either an (lo, hi) pair or a callable n -> iterable of m.
    ``expected`` lists the (m, n) pairs that are allowed (and required) to
    violate the inequality, e.g. the known exceptions of a statement.
    """
    t0 = time.perf_counter()
    m_of_n = m_range if callable(m_range) else (lambda n: range(m_range[0], m_range[1] + 1))
    found = _scan_step(table, n_range[0], n_range[1], m_of_n)
    exp = {
        (table.k, m, n)
        for m, n in expected
        if n_range[0] <= n <= min(n_range[1], table.n_max)
    }
    report = _report(check_id, params or {}, exp, found, [])
    report.runtime_ms = (time.perf_counter() - t0) * 1000
    return report


def check_monotone_n(
    table, n_range, m_range, expected=(), check_id="monotone-n", params=None
):
    """Scan count(m, n) >= count(m, n-1) over the given ranges."""
    t0 = time.perf_counter()
    m_of_n = m_range if callable(m_range) else (lambda n: range(m_range[0], m_range[1] + 1))
    found = _scan_monotone(table, n_range[0], n_range[1], m_of_n)
    exp = {
        (table.k, m, n)
        for m, n in expected
        if n_range[0] <= n <= min(n_range[1], table.n_max)
    }
    report = _report(check_id, params or {}, exp, found, [])
    report.runtime_ms = (time.perf_counter() - t0) * 1000
    return report


def check_rank_inequalities(n_max=DEFAULT_ORACLE_N_MAX):
    """Rank-count inequalities, from the enumeration oracle.

    (a) N(m, n) >= N(m+2, n) for all m, n >= 0;
    (b) N(m, n) >= N(m, n-1) for n >= 12 except on the diagonal n = m + 2.
    Violations on the excluded diagonal and below the threshold are reported
    informationally.
    """
    table = tables.build_table("rank", n_max, "oracle")
    reports = []

    t0 = time.perf_counter()
    found = _scan_step(table, 0, n_max, lambda n: range(2, n + 1), stride=2)
    r = _report("thm-1.1a", {"n_max": n_max, "relation": "step-by-2"}, set(), found, [])
    r.runtime_ms = (time.perf_counter() - t0) * 1000
    reports.append(r)

    t0 = time.perf_counter()
    skip = lambda m, n: n == m + 2
    found = _scan_monotone(table, 12, n_max, lambda n: range(0, n + 1), skip=skip)
    info = _scan_monotone(table, 1, min(11, n_max), lambda n: range(0, n + 1))
    info += [
        dict(e, note="excluded diagonal n=m+2")
        for e in _scan_monotone(
            table, 12, n_max, lambda n: range(0, n + 1), skip=lambda m, n: n != m + 2
        )
    ]
    r = _report("thm-1.1b", {"n_max": n_max, "relation": "monotone"}, set(), found, info)
    r.runtime_ms = (time.perf_counter() - t0) * 1000
    reports.append(r)
    return reports


def check_identity(entry_id, order=DEFAULT_IDENTITY_ORDER):
    """Run one identity-catalog entry at the given truncation order."""
    entry = identities.CATALOG[entry_id]
    t0 = time.perf_counter()
    exceptions = identities.run_entry(entry, order)
    return CheckReport(
        entry_id,
        {"order": order},
        passed=not exceptions,
        exceptions=exceptions,
        runtime_ms=(time.perf_counter() - t0) * 1000,
    )


def check_table_consistency(gf_table, oracle_table):
    """Cell-by-cell equality of a GF-built and an oracle-built table."""
    if (gf_table.statistic, gf_table.k) != (oracle_table.statistic, oracle_table.k):
        raise ValueError("tables compare different statistics")
    t0 = time.perf_counter()
    n_max = min(gf_table.n_max, oracle_table.n_max)
    found = []
    for n in range(n_max + 1):
        for m in range(0, n + 1):
            a = gf_table.count(m, n)
            b = oracle_table.count(m, n)
            if a != b:
                found.append({"m": m, "n": n, "lhs": a, "rhs": b})
    return CheckReport(
        f"crosscheck-{gf_table.label}",
        {"n_max": n_max},
        passed=not found,
        exceptions=found,
        runtime_ms=(time.perf_counter() - t0) * 1000,
    )


# -- registered checks ---------------------------------------------------------


def _run_thm_11(cfg):
    # rank has no GF backend; cap at the enumeration ceiling so that a large
    # --n-max meant for the GF sweeps cannot trigger an infeasible enumeration
    n_max = min(_get(cfg, "n_max", DEFAULT_ORACLE_N_MAX), brute.ORACLE_CEILINGS["rank"])
    return check_rank_inequalities(n_max)


def _run_thm_12(cfg):
    n_max = _get(cfg, "n_max", DEFAULT_SWEEP_N_MAX)
    table = tables.build_table("crank", n_max, "gf")
    report = check_unimodal_step(
        table,
        (44, n_max),
        lambda n: range(1, n),
        check_id="thm-1.2",
        params={"n_max": n_max, "scan_from": 44},
    )
    report.informational = _scan_step(table, 0, min(43, n_max), lambda n: range(1, n))
    return [report]


def _run_thm_13(cfg):
    n_max = _get(cfg, "n_max", DEFAULT_SWEEP_N_MAX)
    table = tables.build_table("crank", n_max, "gf")
    report = check_monotone_n(
        table,
        (14, n_max),
        lambda n: range(0, n - 1),
        check_id="thm-1.3",
        params={"n_max": n_max, "scan_from": 14},
    )
    report.informational = _scan_monotone(
        table, 1, min(13, n_max), lambda n: range(0, n - 1)
    )
    return [report]


def _run_thm_14(cfg):
    n_max = _get(cfg, "n_max", DEFAULT_SWEEP_N_MAX)
    table = tables.build_table("ocrank", n_max, "gf")
    return [
        check_unimodal_step(
            table,
            (0, n_max),
            lambda n: range(1, n + 1),
            expected=((1, 1), (1, 2)),
            check_id="thm-1.4",
            params={"n_max": n_max},
        )
    ]


def _run_thm_15(cfg):
    n_max = _get(cfg, "n_max", DEFAULT_SWEEP_N_MAX)
    table = tables.build_table("m2crank", n_max, "gf")
    return [
        check_unimodal_step(
            table,
            (0, n_max),
            lambda n: range(1, n + 1),
            check_id="thm-1.5",
            params={"n_max": n_max},
        )
    ]


def _run_thm_17(cfg):
    n_max = _get(cfg, "n_max", DEFAULT_SWEEP_N_MAX)
    reports = []
    for suffix, stat in (("a", "ocrank"), ("b", "m2crank")):
        table = tables.build_table(stat, n_max, "gf")
        report = check_monotone_n(
            table,
            (2, n_max),
            lambda n: range(0, n + 1),
            check_id=f"thm-1.7{suffix}",
            params={"statistic": stat, "n_max": n_max, "scan_from": 2},
        )
        report.informational = _scan_monotone(table, 1, 1, lambda n: range(0, n + 1))
        reports.append(report)
    return reports


def _run_conj_18(cfg):
    n_max = _get(cfg, "n_max", DEFAULT_KCRANK_N_MAX)
    k_list = _get(cfg, "k_list", DEFAULT_K_LIST)
    reports = []
    for k in k_list:
        table = tables.build_table("kcrank", n_max, "gf", k=k)
        expected = ((1, 1),) if k == 2 else ()
        reports.append(
            check_unimodal_step(
                table,
                (0, n_max),
                lambda n: range(1, n + 1),
                expected=expected,
                check_id=f"conj-1.8[k={k}]",
                params={"k": k, "n_max": n_max},
            )
        )
    return reports


THEOREM_CHECKS = {
    "thm-1.1": _run_thm_11,
    "thm-1.2": _run_thm_12,
    "thm-1.3": _run_thm_13,
    "thm-1.4": _run_thm_14,
    "thm-1.5": _run_thm_15,
    "thm-1.7": _run_thm_17,
    "conj-1.8": _run_conj_18,
}


def available_checks():
    return sorted(THEOREM_CHECKS) + sorted(identities.CATALOG)


def run_checks(check_ids, n_max=None, order=None, k_list=None):
    """Run the selected checks; returns reports sorted by check id.

    ``check_ids`` may contain theorem-sweep ids, identity-catalog ids, or
    ``"all"``.  A ``None`` setting selects the check's default.
    """
    ids = []
    for cid in check_ids:
        if cid == "all":
            expansion = available_checks()
        elif cid in THEOREM_CHECKS or cid in identities.CATALOG:
            expansion = [cid]
        else:
            raise KeyError(f"unknown check id {cid!r}")
        ids.extend(c for c in expansion if c not in ids)
    cfg = {"n_max": n_max, "k_list": None if k_list is None else tuple(k_list)}
    if order is None:
        order = DEFAULT_IDENTITY_ORDER

    reports = []
    for cid in ids:
        if cid in THEOREM_CHECKS:
            reports.extend(THEOREM_CHECKS[cid](cfg))
        else:
            reports.append(check_identity(cid, order))
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
