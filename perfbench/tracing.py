"""Span recorder for the traced benchmark run.

Run as a script it stands in for ``python -m cranktab.cli``: it imports the
CLI, wraps the entry points of each cranktab module so that every call
records a span (name, start, end, parent), runs the command given on its
command line, and writes the spans and the ``lru_cache`` counters as JSON to
the file named by ``PERFBENCH_TRACE_OUT``::

    PERFBENCH_TRACE_OUT=spans.json PYTHONPATH=src \
        python3 perfbench/tracing.py identity --id euler --order 100

Imported, it gives the benchmark the self-time arithmetic that turns spans
into per-layer metrics.

Only layer entry points are wrapped.  Per-element helpers (the statistic of
one partition, the lookup of one table cell) are not: a span around each of
their millions of calls would cost more than the work it measures.  Time
spent in unwrapped code counts as self time of the innermost wrapped caller.
The recorder keeps a single span stack, so the traced process must run its
checks in one thread (``CRANKTAB_THREADS`` unset).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# Module -> attributes whose calls become spans; "Class.method" wraps a method
# on the class.  A name the program no longer has is skipped, so its time then
# shows as self time of its caller.  Spans are named "<layer>.<attribute>",
# the layer being the last part of the module name.
ENTRY_POINTS = {
    "cranktab.bivariate": [
        "crank_gf", "overline_crank_gf", "m2_crank_gf", "kcrank_gf",
        "check_gf_invariants", "column",
        "BivariateSeries.column", "BivariateSeries.row_sum_series",
    ],
    "cranktab.kernels": ["geom_fold", "zfree_mul", "cauchy_mul"],
    "cranktab.series": [
        "Series.__add__", "Series.__sub__", "Series.__neg__", "Series.__mul__",
        "Series.pow", "Series.times_monomial", "Series.div_one_minus",
        "Series.truncated", "Series.stretched", "Series.from_terms",
        "qpoch_inf", "qpoch_fin", "euler_product", "partition_series",
        "distinct_series", "overpartition_series", "euler_product_pentagonal",
        "partition_series_pentagonal",
    ],
    "cranktab.brute": ["oracle_rows"],
    "cranktab.tables": [
        "build_table", "_build_table_cached", "_compress_gf",
        "_compress_full_rows", "CrankTable.render", "diff_column",
        "monotone_diff_row",
    ],
    "cranktab.verify": [
        "run_checks", "check_unimodal_step", "check_monotone_n",
        "check_rank_inequalities", "check_identity", "check_table_consistency",
        "reports_to_json_obj", "_scan_step", "_scan_monotone",
    ],
    "cranktab.identities": ["run_entry", "run_clause"],
}

ROOT_SPAN = "cli.main"


def _cells_if_built(args, result, missed):
    # cells of a freshly built bivariate GF; a cache hit builds none
    return (result.order + 1) * (2 * result.bound + 1) if missed else 0


def _check_counts(args, result, missed):
    checks = result["checks"]
    return [len(checks), sum(c["verdict"] != "pass" for c in checks)]


# Span name -> function(args, result, missed) whose value is stored on the span.
NOTES = {
    "bivariate.crank_gf": _cells_if_built,
    "bivariate.overline_crank_gf": _cells_if_built,
    "bivariate.m2_crank_gf": _cells_if_built,
    "bivariate.kcrank_gf": _cells_if_built,
    "tables.CrankTable.render": lambda args, result, missed: len(result.encode()),
    "verify.reports_to_json_obj": _check_counts,
    "identities.run_entry": lambda args, result, missed: args[0].entry_id,
}


class Recorder:
    """Spans as ``[name, start, end, parent_index, note]``, in call order.

    Times come from ``time.monotonic``, which on Linux reads the system-wide
    CLOCK_MONOTONIC, so stamps taken in different processes compare.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.monotonic()
        return span

    def close(self, span):
        span[2] = time.monotonic()
        self._stack.pop()

    def wrap(self, name, fn):
        cache_info = getattr(fn, "cache_info", None)
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if note:
                missed = cache_info is not None and cache_info().misses > misses
                span[4] = note(args, result, missed)
            return result

        return wrapper


def install(recorder):
    """Wrap every entry point, at every binding in the loaded cranktab modules.

    Returns ``{span name: original}`` for the wrapped functions.  A function
    re-exported under another module (``identities.crank_gf``, the package's
    ``cranktab.crank_gf``) is replaced there too, so no call escapes its span.
    """
    wrapped = {}  # id(original) -> wrapper
    originals = {}
    for modname, attrs in ENTRY_POINTS.items():
        try:
            module = importlib.import_module(modname)
        except ModuleNotFoundError:
            continue
        layer = modname.rsplit(".", 1)[-1]
        for attr in attrs:
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(fn_name) if owner is not None else None
            if raw is None:
                continue
            name = f"{layer}.{attr}"
            if isinstance(raw, classmethod):
                wrapper = recorder.wrap(name, raw.__func__)
                setattr(owner, fn_name, classmethod(wrapper))
                originals[name] = raw.__func__
                continue
            wrapper = recorder.wrap(name, raw)
            wrapped[id(raw)] = wrapper
            originals[name] = raw
            if owner_name:
                setattr(owner, fn_name, wrapper)
    for modname, module in list(sys.modules.items()):
        if modname != "cranktab" and not modname.startswith("cranktab."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrapped.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
    return originals


def self_times(spans):
    """Self time of each span: its duration minus the union of its children."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for span, kids in zip(spans, children):
        start, end = span[1], span[2]
        covered, reach = 0.0, start
        for a, b in sorted((spans[c][1], spans[c][2]) for c in kids):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


def main(argv):
    out_path = os.environ["PERFBENCH_TRACE_OUT"]
    from cranktab import cli

    import_end = time.monotonic()
    recorder = Recorder()
    originals = install(recorder)
    root = recorder.open(ROOT_SPAN)
    code = 0
    try:
        cli.main(args=argv, prog_name="cranktab")
    except SystemExit as exc:
        code = exc.code
    finally:
        recorder.close(root)
        caches = {
            name: [fn.cache_info().hits, fn.cache_info().misses]
            for name, fn in originals.items()
            if hasattr(fn, "cache_info")
        }
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"import_end": import_end, "spans": recorder.spans, "caches": caches},
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
