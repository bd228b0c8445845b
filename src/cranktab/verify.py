"""Inequality sweeps and identity checks with structured pass/fail reports.

Every theorem sweep is data: one :class:`Sweep` entry of :data:`SWEEPS`.  A
sweep reads the counts ``count(m, n)`` that the generating function of its
``statistic`` gives and checks one relation, set by ``stride``:

* 1 or 2 -- step in m: count(m - stride, n) >= count(m, n);
* 0      -- monotone in n: count(m, n) >= count(m, n - 1), from n = 1 on.

Row n compares the m in ``range(stride, n + 1 - m_cut)``.  Rows from
``scan_from`` on are counted: the verdict is "pass" exactly when the
violations found there equal ``expected``, the statement's exception set of
(m, n) pairs, intersected with the scanned rows.  A kcrank sweep reads the
table of its ``k`` (``conj-1.8`` holds one sweep per k, k = 2..6); the other
sweeps have k None.  Statements that hold only from a threshold on thus
declare it as ``scan_from``; the violations in the rows below it are
reported in ``informational``, so known small-n irregularities are
documented rather than silently skipped.  ``exclude_diagonal`` d, when
set, leaves the cells n = m + d of the counted rows out of the verdict; their
violations follow in ``informational`` with a ``note``.  ``params`` names the
report parameters in print order, each taken from the sweep or the run
(``n_max``, ``k``, ``statistic``, ``scan_from``, ``relation``).  Every sweep
report gives ``cells_checked``, the number of cells in its counted rows,
those decided through U below included; every identity report gives
``coeffs_checked``.

No sweep reads a whole table: each compares column m with column
m - stride, or with itself one row down.  Below the j = 2 term of its closed
form, in the rows n < d(2m + 2a - 1), column m >= 1 of a GF of form (d, a)
is one shifted series, ``q**(d(m + c)) * (1 - q**d) * base`` with c = (a -
1)/2 (:mod:`cranktab.bivariate`).  So in the rows where both of its columns
are, a sweep's cells are the coefficients of one series U: (1 - q**(stride
d)) * (1 - q**d) * base for a step and (1 - q) * (1 - q**d) * base for the
monotone sweep, whose negative coefficients, few if any, give the
violating cells (:meth:`_Scan.decide_stable`).  For the crank, U is (1 -
q)**2 / (q;q)_inf, the second differences of p(n).  :func:`run_checks`
therefore streams each GF's columns once per run
(:func:`cranktab.bivariate.gf_columns`) from the last column that still has
a row past that bound, about N / (2d), down to 0, and feeds them to every
selected sweep of that (statistic, k), which compares only the rows past
it, while it holds the last three columns only, so a run holds O(N) cells
per pass, not whole tables.  The identity catalog gets its few low columns
on its own (:class:`~cranktab.identities.Run`), from a pass that starts at
the highest column it reads.  That run is also the run's one store of GF
bases, which the passes and the catalog share.

:func:`run_checks` and :func:`cranktab.identities.check_identity` refuse bad
arguments at the call with :class:`~cranktab.UsageError`, before any column
pass or clause runs; the command line only parses, and prints that message.

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
from collections import deque, namedtuple
from itertools import compress, count

from cranktab import DEFAULT_IDENTITY_ORDER, UsageError, check_size, identities
# one report type for sweeps and identities; the identity command loads only identities.
# perfbench's tracer wraps reports_to_json_obj here: its span gives verify.checks_run
from cranktab.identities import CheckReport, reports_to_json_obj

DEFAULT_N_MAX = {"crank": 300, "ocrank": 300, "m2crank": 300, "kcrank": 200, "rank": 40}

RELATIONS = {0: "monotone", 1: "step", 2: "step-by-2"}  # by Sweep.stride
_BY_CELL = operator.itemgetter("n", "m")  # the order of report entries


class Sweep(namedtuple("Sweep", "check_id statistic stride m_cut scan_from expected "
                                "exclude_diagonal params k",
                       defaults=(0, 0, frozenset(), None, ("n_max",), None))):
    """One inequality sweep over a count table; see the module docstring.

    ``stride`` is 1 or 2 for a step in m and 0 for monotone in n;
    ``expected`` holds (m, n) pairs; ``k`` is the kcrank table's k.
    """

    __slots__ = ()


class _Scan:
    """One sweep of rows 0..n_max, fed the columns of its statistic's pass."""

    def __init__(self, sweep: Sweep, n_max: int):
        self.sweep, self.n_max = sweep, n_max
        self.ms = range(sweep.stride, n_max + 1 - sweep.m_cut)  # narrowed by decide_stable
        self.found, self.informational, self.seconds = [], [], 0.0
        self.form = None  # the GF's (d, a), set by decide_stable
        # the cells of the counted rows: row n compares the m in range(stride,
        # n + 1 - m_cut), max(0, n - span) of them
        stride, m_cut, diagonal = sweep.stride, sweep.m_cut, sweep.exclude_diagonal
        first, span = max(sweep.scan_from, 0 if stride else 1), stride + m_cut - 1
        self.cells = sum(range(max(0, first - span), n_max + 1 - span))
        if diagonal is not None and diagonal >= m_cut:  # less the cells n = m + diagonal
            self.cells -= len(range(max(first, stride + diagonal), n_max + 1))

    def decide_stable(self, d: int, a: int, v: list) -> None:
        """Decide the cells of the rows where both columns are one shifted series.

        Below the j = 2 term of its closed form, in the rows n < d(2i + 2a -
        1), column i >= 1 is ``q**(d(i + c)) * V`` with c = (a - 1)/2 and
        ``v`` the coefficients of V = (1 - q**d) * base
        (:mod:`cranktab.bivariate`).  So for column m, with i = m - stride >=
        1, each row n < R = d(2i + 2a - 1) compares V[t] with V[t - shift],
        t = n - d(i + c), and violates the relation exactly where U = (1 -
        q**shift) * V is negative at t; shift is stride * d for a step and 1
        for the monotone sweep.  U's negative coefficients, few if any, are
        mapped to their cells here.  :meth:`compare` then scans column m
        from row R (:meth:`stable_end`) on only, and ``ms`` keeps the
        columns that still have such a row.  Column 0, which holds the
        rank's empty partition, is compared in full.
        """
        t0 = time.perf_counter()
        sweep, n_max = self.sweep, self.n_max
        stride, m_cut = sweep.stride, sweep.m_cut
        c, shift = (a - 1) // 2, stride * d or 1
        self.form = d, a
        v = v[: n_max + 1]
        for t in compress(count(), map(operator.lt, v, [0] * shift + v)):  # U[t] < 0
            for m in range(stride + 1, self.ms.stop):
                n = t + d * (m - stride + c)
                if n > n_max:
                    break
                if m + m_cut <= n < self.stable_end(m):  # n >= d >= 1: past row 0
                    self.record(m, n, v[t], v[t - shift] if t >= shift else 0)
        # the last column with a row in stable_end(m)..n_max: i <= (n_max // d - 2a + 1) / 2
        last = stride + max(0, (n_max // d - 2 * a + 1) // 2)
        self.ms = range(stride, min(self.ms.stop, last + 1))
        self.seconds += time.perf_counter() - t0

    def stable_end(self, m: int) -> int:
        """R = d(2(m - stride) + 2a - 1), below which :meth:`decide_stable` decides column m."""
        d, a = self.form
        m -= self.sweep.stride
        return d * (2 * m + 2 * a - 1) if m else 0  # column 0 is compared in full

    def record(self, m: int, n: int, lhs: int, rhs: int) -> None:
        """File the violating cell (m, n) as an exception or as informational."""
        sweep = self.sweep
        k, diagonal = sweep.k, sweep.exclude_diagonal
        entry = {"m": m, "n": n, "lhs": lhs, "rhs": rhs}
        if k is not None:
            entry["k"] = k
        if n < sweep.scan_from:
            self.informational.append(entry)
        elif diagonal is not None and n == m + diagonal:
            self.informational.append(dict(entry, note=f"excluded diagonal n=m+{diagonal}"))
        else:
            self.found.append(entry)

    def compare(self, m: int, lhs_col: list, rhs_col: list) -> None:
        """Compare column m - stride (``lhs_col``) with column m (``rhs_col``).

        Only the rows from ``stable_end(m)`` on are compared; the rows below
        are decided by :meth:`decide_stable`.  The columns are compared as
        whole slices, once to learn whether any cell violates the relation
        and, only then, again to visit the violating cells one by one.  The
        first pass makes no object per cell and the second makes an int (the
        index) per cell, so on the columns without a violation, nearly all of
        them, the first pass alone is the cheaper scan.
        """
        t0 = time.perf_counter()
        sweep = self.sweep
        dn = 0 if sweep.stride else 1  # a monotone sweep compares row n with row n - 1
        lo = max(m + sweep.m_cut, dn, self.stable_end(m))  # first row past the stable ones
        lhs, rhs = lhs_col[lo : self.n_max + 1], rhs_col[lo - dn :]
        if any(map(operator.lt, lhs, rhs)):  # nearly every column has no violation
            for n in compress(count(lo), map(operator.lt, lhs, rhs)):
                self.record(m, n, lhs_col[n], rhs_col[n - dn])
        self.seconds += time.perf_counter() - t0

    def report(self) -> CheckReport:
        sweep, n_max, k = self.sweep, self.n_max, self.sweep.k
        self.found.sort(key=_BY_CELL)
        self.informational.sort(key=_BY_CELL)
        expected = {(m, n) for m, n in sweep.expected if sweep.scan_from <= n <= n_max}
        values = {
            "statistic": sweep.statistic,
            "k": k,
            "n_max": n_max,
            "scan_from": sweep.scan_from,
            "relation": RELATIONS[sweep.stride],
        }
        return CheckReport(
            sweep.check_id if k is None else f"{sweep.check_id}[k={k}]",
            {name: values[name] for name in sweep.params},
            passed={(e["m"], e["n"]) for e in self.found} == expected,
            exceptions=self.found,
            informational=self.informational,
            runtime_ms=self.seconds * 1000,
            cells_checked=self.cells,
        )


def _column_pass(statistic, k, size, scans, run) -> None:
    """Stream the columns of one GF at order ``size`` once, from the scans' top down to 0.

    The GF's base comes from ``run``, the run's store of bases
    (:meth:`cranktab.identities.Run.base`).  With (d, a) the GF's form, V =
    (1 - q**d) * base is made once, and each of the ``scans`` decides
    through it the cells of the rows where its columns are still one
    shifted series (:meth:`_Scan.decide_stable`).  The columns stream from
    the last one that some scan still compares, about size / (2d), and each
    scan compares column m with column m - stride as the latter goes by, so
    only the last three columns are held.  The pass imports
    :mod:`cranktab.bivariate` itself, so a run with no sweep loads it only
    for a catalog entry that reads a GF.
    """
    from cranktab import bivariate

    d, a = bivariate._FORMS[statistic]
    base = run.base(statistic, k, size)
    v = base.coeffs[:d] + list(map(operator.sub, base.coeffs[d:], base.coeffs))  # V
    for scan in scans:
        scan.decide_stable(d, a, v)
    top = max(scan.ms[-1] if scan.ms else 0 for scan in scans)
    window = deque(maxlen=3)  # columns j, j + 1, j + 2
    for j, column in bivariate.gf_columns(statistic, size, k, top, base):
        window.appendleft(column)
        for scan in scans:
            m = j + scan.sweep.stride
            if m in scan.ms:
                scan.compare(m, column, window[scan.sweep.stride])


def run_sweep(sweep: Sweep, n_max: int) -> CheckReport:
    """Scan rows 0..n_max of the sweep's table (the k-colored one for kcrank).

    Column m is compared with column m - stride (or with itself one row down)
    as the GF's columns stream past; see :func:`run_checks` for a run of
    several sweeps.  ``sweep._replace(k=k)`` sweeps another k of a kcrank
    sweep, with the same ``expected``: ``SWEEPS["conj-1.8"][-1]._replace(k=7)``
    checks k = 7 against the exception set of every k >= 3 (none).
    """
    scan = _Scan(sweep, n_max)
    _column_pass(sweep.statistic, sweep.k, n_max, [scan], identities.Run(n_max))
    return scan.report()


def check_table_consistency(label, gf_rows, oracle_rows):
    """Cell-by-cell equality of two row streams of the table ``label``.

    Row n of each stream lists the counts for m = -n..n.  Both are
    symmetric in m (the GF's by its form, the oracle's by its check), so
    the cells m >= 0 are compared, in (n, m) order.  Streams of different
    lengths raise ``ValueError``.
    """
    t0 = time.perf_counter()
    found, n = [], -1
    for n, (a, b) in enumerate(zip(gf_rows, oracle_rows, strict=True)):
        found.extend({"m": m, "n": n, "lhs": a[n + m], "rhs": b[n + m]}
                     for m in compress(count(), map(operator.ne, a[n:], b[n:])))
    return CheckReport(
        f"crosscheck-{label}",
        {"n_max": n},
        passed=not found,
        exceptions=found,
        runtime_ms=(time.perf_counter() - t0) * 1000,
        cells_checked=(n + 1) * (n + 2) // 2,
    )


# -- registered checks ---------------------------------------------------------

# Check id -> its sweeps.  conj-1.8 holds one sweep per k.
SWEEPS = {
    "thm-1.1": (
        Sweep("thm-1.1a", "rank", stride=2, params=("n_max", "relation")),
        Sweep("thm-1.1b", "rank", stride=0, scan_from=12, exclude_diagonal=2,
              params=("n_max", "relation")),
    ),
    "thm-1.2": (
        Sweep("thm-1.2", "crank", stride=1, m_cut=1, scan_from=44,
              params=("n_max", "scan_from")),
    ),
    "thm-1.3": (
        Sweep("thm-1.3", "crank", stride=0, m_cut=2, scan_from=14,
              params=("n_max", "scan_from")),
    ),
    "thm-1.4": (
        Sweep("thm-1.4", "ocrank", stride=1,
              expected=frozenset({(1, 1), (1, 2)})),
    ),
    "thm-1.5": (Sweep("thm-1.5", "m2crank", stride=1),),
    "thm-1.7": (
        Sweep("thm-1.7a", "ocrank", stride=0, scan_from=2,
              params=("statistic", "n_max", "scan_from")),
        Sweep("thm-1.7b", "m2crank", stride=0, scan_from=2,
              params=("statistic", "n_max", "scan_from")),
    ),
    "conj-1.8": tuple(
        Sweep("conj-1.8", "kcrank", stride=1, expected=frozenset({(1, 1)} if k == 2 else ()),
              params=("k", "n_max"), k=k)
        for k in range(2, 7)
    ),
}


def available_checks():
    return sorted(SWEEPS) + sorted(identities.CATALOG)


def expand_checks(check_ids) -> list:
    """The checks that ``check_ids`` select, each once, in first-seen order.

    ``check_ids`` may contain theorem-sweep ids, identity-catalog ids, or
    ``"all"``; an empty selection or an unknown id raises
    :class:`~cranktab.UsageError`.
    """
    known, ids = available_checks(), []
    for cid in check_ids:
        if cid != "all" and cid not in known:
            raise UsageError(f"unknown check id {cid!r}; available: {', '.join(known)}")
        ids.extend(c for c in (known if cid == "all" else [cid]) if c not in ids)
    if not ids:
        raise UsageError(f"no check id given; available: {', '.join(known)}")
    return ids


def run_checks(check_ids, n_max=None, order=None):
    """Run the checks that ``check_ids`` select; returns reports sorted by check id.

    See :func:`expand_checks` for the ids.  A ``None`` setting selects the
    check's default.  A negative size or a setting that no selected check
    reads raises :class:`~cranktab.UsageError`.

    Each GF that a sweep reads is built once, in one column pass per
    (statistic, k) at the largest n_max of its sweeps, and the pass feeds
    every sweep of that GF, so no full table is held.  The catalog entries
    share one :class:`~cranktab.identities.Run`, which builds the low
    columns they read.  The same run is the store of GF bases
    (:meth:`~cranktab.identities.Run.base`).  The passes run largest first
    and before the catalog, so a base that a smaller pass or the catalog
    reads again is a prefix of one already built, unless the order exceeds
    every n_max that reads it: at the defaults and whenever the order is at
    most n_max, each distinct base is built once.
    """
    ids = expand_checks(check_ids)
    for name, size in (("n_max", n_max), ("order", order)):
        if size is not None:
            check_size(name, size)
    for name, value, readers in (("n_max", n_max, SWEEPS), ("order", order, identities.CATALOG)):
        if value is not None and set(ids).isdisjoint(readers):
            raise UsageError(f"{name} applies only to {', '.join(sorted(readers))}")
    order = DEFAULT_IDENTITY_ORDER if order is None else order
    scans = {}  # (statistic, k) -> the scans of its pass
    for cid in ids:
        for sweep in SWEEPS.get(cid, ()):
            size = DEFAULT_N_MAX[sweep.statistic] if n_max is None else n_max
            scans.setdefault((sweep.statistic, sweep.k), []).append(_Scan(sweep, size))
    sizes = {key: max(s.n_max for s in group) for key, group in scans.items()}
    run = identities.Run(order)
    for statistic, k in sorted(sizes, key=sizes.get, reverse=True):  # largest base first
        _column_pass(statistic, k, sizes[statistic, k], scans[statistic, k], run)
    reports = [scan.report() for group in scans.values() for scan in group]
    reports.extend(identities.run_entry(identities.CATALOG[cid], run)
                   for cid in ids if cid in identities.CATALOG)
    reports.sort(key=lambda r: r.check_id)
    return reports
