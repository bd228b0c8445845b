"""End-to-end benchmark of the cranktab command line.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py                      # every workload, as a table

Run from the root of a cranktab checkout; the program is imported from its
``src/`` directory.  A workload is a fixed list of CLI invocations (``python
-m cranktab.cli ...``).  Each runs in a fresh process, one at a time, with
``CRANKTAB_THREADS`` and ``CRANKTAB_KERNELS`` unset, and is timed from spawn
to exit.  The seed only permutes the order of the invocations inside a
workload; it never changes an input size.  Passes over the workload repeat
while they fit in ``--seconds``, and every output must pass the exactness gates
(verdicts, table invariants, SHA-256 digests recorded from the seed) before it
counts as correct.  ``wall_s`` is the median pass, ``setup_s`` the median of
15 cold starts (``python -m cranktab.cli --help``) taken between the passes,
and ``peak_rss_mb`` the median over passes of the largest ``ru_maxrss`` of a
pass's processes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced pass with a pass in which every invocation runs under
``perfbench/tracing.py`` in its own process, and reports the per-layer
metrics of the traced pass whose wall time is the median.  The per-layer
self times of a pass add up to its traced wall time ``trace.wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is one
process the benchmark starts; it fails on a nonzero exit, a failed verdict or
an output that fails a gate.  The run exits 1 when any operation failed and 2
when the checkout holds no program to measure.

Deferred: table export at n = 1000 and 2000 and ``verify --n-max 1000``.  With
the O(N^3) fold one crank build at n = 1000 takes well over a minute, too long
for the number of runs a comparison needs; they wait for the column closed
forms.  An oracle cross-check workload (``crosscheck`` of four statistics at
n <= 45 and the rank table to 40) is left out as well: on a shared 2-vCPU
host its wall time spread by 27% between runs, beyond any usable bound.  The
enumeration oracle is still measured, through the rank sweep of verify-all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import namedtuple
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CLI = ("-m", "cranktab.cli")
COLD_STARTS = 15
COLD_START_GROUP = 5
OP_TIMEOUT_S = 120

CLOSED_FORMS = ("euler", "lemma-3.2", "lemma-3.3", "sc-identity", "andrews-merca")

# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "verify-all": [("verify", "--check", "all")],
    "table-export": [
        ("table", "--stat", "crank", "--n-max", "400", "--format", fmt)
        for fmt in ("csv", "json")
    ],
    "identity-closed-forms": [
        ("identity", "--id", entry, "--order", "500")
        for entry in CLOSED_FORMS
    ],
}

# Reduced sizes for the benchmark's own smoke tests (--smoke).
SMOKE_WORKLOADS = {
    "verify-all": [("verify", "--check", "all", "--n-max", "30", "--order", "40")],
    "table-export": [
        ("table", "--stat", "crank", "--n-max", "40", "--format", fmt)
        for fmt in ("csv", "json")
    ],
    "identity-closed-forms": [
        ("identity", "--id", entry, "--order", "60")
        for entry in CLOSED_FORMS
    ],
}

# Reports each report-producing command must emit.
REPORT_COUNTS = {"verify": 27, "identity": 1}

IDENTITY_ENTRIES = (
    "euler", "lemma-3.2", "lemma-3.3", "crank-diff-heads", "crank-diff-decomp",
    "crank-diff-tails", "ocrank-diff-nonneg", "sc-identity", "m2-head",
    "ocrank-monotone-factored", "andrews-merca", "kcrank-reduction",
    "ocrank-head", "m2-from-ocrank",
)

# Layer -> metric that receives the self time of the layer's spans.  The
# kernels layer is split by function in PART_SELF instead.
LAYER_SELF = {
    "cli": "cli.self_s",
    "bivariate": "bivariate.build_s",
    "series": "series.self_s",
    "brute": "brute.oracle_s",
    "tables": "tables.self_s",
    "verify": "verify.self_s",
    "identities": "identities.self_s",
}
# Span name -> breakdown metric that also receives its self time.
PART_SELF = {
    "kernels.geom_fold": "kernels.geom_fold_s",
    "kernels.zfree_mul": "kernels.zfree_mul_s",
    "kernels.cauchy_mul": "kernels.cauchy_mul_s",
    "series.Series.__mul__": "series.mul_s",
    "series.qpoch_inf": "series.qpoch_s",
    "series.qpoch_fin": "series.qpoch_s",
    "tables._compress_gf": "tables.compress_s",
    "tables._compress_full_rows": "tables.compress_s",
    "tables.CrankTable.render": "tables.render_s",
    "verify._scan_step": "verify.scan_s",
    "verify._scan_monotone": "verify.scan_s",
}
CALL_COUNTS = {
    "series.Series.__mul__": "series.mul_calls",
    "series.Series.pow": "series.pow_calls",
    "brute.oracle_rows": "brute.oracle_calls",
}
# Metrics that partition a traced pass's wall time.
SELF_METRICS = ("cli.import_s", *LAYER_SELF.values(), "kernels.geom_fold_s",
                "kernels.zfree_mul_s", "kernels.cauchy_mul_s")


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- exactness gates -----------------------------------------------------------


def partition_numbers(n_max):
    """p(0..n_max) by the pentagonal recurrence, independent of the program."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        k, total = 1, 0
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[n - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def _option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def parse_table(text, fmt):
    """Rows ``{n: {m: count}}`` of an exported table."""
    if fmt == "csv":
        lines = text.splitlines()
        if not lines or lines[0] != "n,m,count":
            raise ValueError("missing CSV header n,m,count")
        rows = {}
        for line in lines[1:]:
            n, m, c = (int(x) for x in line.split(","))
            rows.setdefault(n, {})[m] = c
        return rows
    obj = json.loads(text)
    return {r["n"]: {int(m): int(c) for m, c in r["counts"].items()} for r in obj["rows"]}


def table_problems(rows, n_max):
    problems = []
    if sorted(rows) != list(range(n_max + 1)):
        problems.append(f"rows are not n = 0..{n_max}")
        return problems
    p = partition_numbers(n_max)
    for n, row in rows.items():
        for m, c in row.items():
            if c and abs(m) > n:
                problems.append(f"support violated at n={n}, m={m}")
            if row.get(-m, 0) != c:
                problems.append(f"asymmetric at n={n}, m={m}")
        if sum(row.values()) != p[n]:
            problems.append(f"row sum at n={n} is not p(n)={p[n]}")
    return problems


def canonical_payload(argv, text):
    """Bytes the digest covers: the deterministic part of an output.

    Reports keep only what a check found, so added fields such as timings
    leave the digest alone; CSV tables are digested as printed.
    """
    if argv[0] == "table":
        if _option(argv, "--format", "csv") == "csv":
            return text.encode()
        obj = json.loads(text)
        obj = {k: obj[k] for k in ("statistic", "n_max", "rows")}
    else:
        obj = json.loads(text)
        keys = ("check_id", "params", "verdict", "exceptions", "informational")
        obj = {
            "all_passed": obj["all_passed"],
            "checks": [{k: c[k] for k in keys if k in c} for c in obj["checks"]],
        }
    return json.dumps(obj, sort_keys=True).encode()


def digest(argv, text):
    return hashlib.sha256(canonical_payload(argv, text)).hexdigest()


def structural_problems(argv, text):
    """Gate failures that need no recorded digest."""
    if argv[0] == "table":
        rows = parse_table(text, _option(argv, "--format", "csv"))
        return table_problems(rows, int(_option(argv, "--n-max", "50")))
    obj = json.loads(text)
    problems = []
    if obj.get("all_passed") is not True:
        problems.append("all_passed is not true")
    failing = [c["check_id"] for c in obj["checks"] if c["verdict"] != "pass"]
    if failing:
        problems.append(f"verdict is not pass: {', '.join(failing)}")
    want = REPORT_COUNTS[argv[0]]
    if len(obj["checks"]) != want:
        problems.append(f"{len(obj['checks'])} reports, expected {want}")
    return problems


def output_problems(argv, text, digests):
    """Every gate failure of one output; empty when the output is exact."""
    try:
        problems = structural_problems(argv, text)
        want = digests.get(" ".join(argv))
        if want is None:
            problems.append("no recorded digest")
        elif digest(argv, text) != want:
            problems.append("SHA-256 digest differs from the seed's")
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems = [f"unparseable output: {exc!r}"]
    return problems


# -- running the program -------------------------------------------------------


Outcome = namedtuple("Outcome", "code out err start end rss_mb")


def exit_problems(outcome):
    if not outcome.code:
        return []
    return [f"exit code {outcome.code}: {outcome.err.strip()[-300:]}"]


class Runner:
    """Spawns CLI processes in the checkout and times each from spawn to exit."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.env = {
            k: v for k, v in os.environ.items()
            if k not in ("CRANKTAB_THREADS", "CRANKTAB_KERNELS", "PYTHONPATH")
        }
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def spawn(self, cmd, env=None):
        """Run one process to its exit; the peak RSS is read with wait4."""
        with tempfile.TemporaryFile(dir=self.workdir) as err:
            start = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, *cmd], cwd=ROOT, env=env or self.env,
                stdout=subprocess.PIPE, stderr=err,
            )
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                end = time.monotonic()
            finally:
                timer.cancel()
                proc.stdout.close()
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            errtext = err.read().decode(errors="replace")
        return Outcome(proc.returncode, out.decode(), errtext, start, end,
                       usage.ru_maxrss / 1024)

    def op(self, argv, trace_file=None):
        if trace_file is None:
            return self.spawn((*CLI, *argv))
        trace_file.unlink(missing_ok=True)
        env = dict(self.env, PERFBENCH_TRACE_OUT=str(trace_file))
        return self.spawn((str(HERE / "tracing.py"), *argv), env)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def count(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {label}: {'; '.join(problems)[:500]}", file=sys.stderr)


def run_pass(runner, ops, digests, tally, traced):
    """Run the invocations once; returns wall, peak RSS and, if traced, per-op traces."""
    wall, peak, traces = 0.0, 0.0, []
    for argv in ops:
        trace_file = runner.workdir / "trace.json" if traced else None
        outcome = runner.op(argv, trace_file)
        wall += outcome.end - outcome.start
        peak = max(peak, outcome.rss_mb)
        problems = exit_problems(outcome) or output_problems(argv, outcome.out, digests)
        tally.count(" ".join(argv), problems)
        if traced and not outcome.code:
            traces.append((outcome.start, outcome.end, json.loads(trace_file.read_text())))
    return {"wall": wall, "peak": peak, "traces": traces}


def layer_metrics(traces, per_layer_names):
    """Per-layer metrics of one traced pass, from its invocations' spans."""
    m = dict.fromkeys(per_layer_names, 0)
    for spawned, exited, data in traces:
        spans = data["spans"]
        m["cli.import_s"] += data["import_end"] - spawned
        root = spans[0]
        # wrapping the entry points, and interpreter teardown after the CLI
        m["cli.self_s"] += (root[1] - data["import_end"]) + (exited - root[2])
        m["trace.wall_s"] += exited - spawned
        for span, self_s in zip(spans, tracing.self_times(spans)):
            name = span[0]
            layer = name.split(".", 1)[0]
            if layer in LAYER_SELF:
                m[LAYER_SELF[layer]] += self_s
            if name in PART_SELF:
                m[PART_SELF[name]] += self_s
            if name in CALL_COUNTS:
                m[CALL_COUNTS[name]] += 1
            note = span[4]
            if name == "identities.run_entry" and note in IDENTITY_ENTRIES:
                m[f"identities.{note}.s"] += span[2] - span[1]
            elif name == "verify.reports_to_json_obj":
                m["verify.checks_run"] += note[0]
                m["verify.checks_failed"] += note[1]
            elif name == "tables.CrankTable.render":
                m["tables.bytes_out"] += note
            elif name.startswith("bivariate.") and note:
                m["bivariate.cells_built"] += note
        for name, (hits, misses) in data["caches"].items():
            layer = name.split(".", 1)[0]
            if layer == "bivariate":
                m["bivariate.cache_hits"] += hits
                m["bivariate.builds"] += misses
            elif layer == "tables":
                m["tables.cache_hits"] += hits
    return m


def median_pass(passes):
    return sorted(passes, key=lambda p: p["wall"])[(len(passes) - 1) // 2]


def run_workload(runner, name, ops, seed, seconds, trace, cold_starts, digests, spec):
    """Measure one workload; returns (metrics, tally)."""
    rng = random.Random(f"{name}:{seed}")
    tally = Tally()
    setup, plain, traced = [], [], []

    def cold_starts_up_to(count):
        while len(setup) < count:
            outcome = runner.spawn((*CLI, "--help"))
            tally.count("--help", exit_problems(outcome))
            setup.append(outcome.end - outcome.start)

    # The window holds the cold starts too, in groups between the passes, so
    # that a slow spell of a shared host does not catch all of them at once.
    # A pass starts only if it is expected to end inside the window.
    began = time.monotonic()
    while True:
        cycle_began = time.monotonic()
        if not trace:
            cold_starts_up_to(min(cold_starts, len(setup) + COLD_START_GROUP))
        order = list(ops)
        rng.shuffle(order)
        plain.append(run_pass(runner, order, digests, tally, traced=False))
        if trace:
            traced.append(run_pass(runner, order, digests, tally, traced=True))
        now = time.monotonic()
        if now - began + (now - cycle_began) > seconds:
            break
    if trace:
        names = [x["name"] for x in spec["per_layer"]]
        metrics = layer_metrics(median_pass(traced)["traces"], names)
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall"] for p in traced)
            - statistics.median(p["wall"] for p in plain)
        )
    else:
        cold_starts_up_to(cold_starts)
        metrics = {
            "wall_s": statistics.median(p["wall"] for p in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p["peak"] for p in plain),
        }
    return metrics, tally


# -- provenance ----------------------------------------------------------------

PROVENANCE_PY = (
    "import json, cranktab\n"
    "backend = getattr(cranktab, 'kernel_backend', None)\n"
    "print(json.dumps({'cranktab': getattr(cranktab, '__version__', None),\n"
    "                  'backend': backend() if callable(backend) else backend,\n"
    "                  'module': cranktab.__file__}))\n"
)


def git_commit():
    """HEAD's commit, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(runner, seed):
    outcome = runner.spawn(("-c", PROVENANCE_PY))
    if outcome.code:
        raise SystemExit(f"cannot import cranktab from {ROOT / 'src'}: {outcome.err.strip()}")
    info = json.loads(outcome.out)
    if not Path(info.pop("module")).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit("cranktab was imported from outside this checkout's src/")
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        **info,
        "commit": git_commit(),
        "seed": seed,
    }


# -- entry point ---------------------------------------------------------------


def record_digests(runner):
    """Write digests.json from one run of every invocation, full and smoke size."""
    digests = {}
    for ops in (*WORKLOADS.values(), *SMOKE_WORKLOADS.values()):
        for argv in ops:
            outcome = runner.op(argv)
            problems = exit_problems(outcome) or structural_problems(argv, outcome.out)
            if problems:
                raise SystemExit(f"{' '.join(argv)}: {'; '.join(problems)}")
            digests[" ".join(argv)] = digest(argv, outcome.out)
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced input sizes and few cold starts, for tests")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from the current program")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cranktab" / "cli.py").is_file():
        print(f"no cranktab source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    workloads = SMOKE_WORKLOADS if args.smoke else WORKLOADS
    names = list(workloads) if args.workload == "all" else [args.workload]
    if any(n not in workloads for n in names):
        parser.error(f"--workload must be one of: all, {', '.join(workloads)}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    cold_starts = 3 if args.smoke else COLD_STARTS

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(workdir)
        if args.record_digests:
            record_digests(runner)
            return 0
        digests = json.loads((HERE / "digests.json").read_text())
        print("provenance", json.dumps(provenance(runner, args.seed)))
        runner.spawn((*CLI, "--help"))  # writes the bytecode caches before any timing
        results = {
            name: run_workload(runner, name, workloads[name], args.seed, seconds,
                               args.trace, cold_starts, digests, spec)
            for name in names
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    seed_run = json.loads((HERE / "baseline_seed.json").read_text())
    baseline = {w: {k: v["median"] for k, v in e2e.items()}
                for w, e2e in seed_run["end_to_end"].items()}
    for w, values in seed_run["per_layer"].items():
        baseline.setdefault(w, {}).update(values)
    metrics, attempted, failed = {}, 0, 0
    for name, (values, tally) in results.items():
        attempted += tally.attempted
        failed += tally.failed
        for metric, unit in ((x["name"], x["unit"]) for x in section):
            value = values[metric]
            seed_value = baseline.get(name, {}).get(metric)
            shown = "" if seed_value is None or args.smoke else f"  (seed {seed_value:.4g})"
            print(f"{name:22s} {metric:40s} {value:14.6g} {unit}{shown}")
            key = metric if len(names) == 1 else f"{name}/{metric}"
            metrics[key] = {"value": value, "unit": unit}
        print(f"{name:22s} {'failed_frac':40s} {tally.failed / tally.attempted:14.6g} "
              f"ratio  ({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
