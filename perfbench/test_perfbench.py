"""Tests of the benchmark itself: python3 -m pytest perfbench -q (from the repo root)."""

import json
import os
import subprocess
import sys

import pytest

import run
import tracing

SPEC = run.load_spec()
ENV = dict(os.environ, PYTHONPATH=str(run.ROOT / "src"))


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--smoke", "--seconds", "0", *args],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def _cli_output(argv):
    proc = subprocess.run(
        [sys.executable, *run.CLI, *argv], cwd=run.ROOT, env=ENV,
        capture_output=True, text=True, check=True,
    )
    return proc.stdout


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(workload, trace):
    proc, result = _bench("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        x["name"]: x["unit"] for x in section
    }
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert sum(m[k] for k in run.SELF_METRICS) == pytest.approx(m["trace.wall_s"], rel=1e-9)


def test_seed_only_permutes_invocations():
    orders = set()
    for seed in range(6):
        rng = run.random.Random(f"identity-closed-forms:{seed}")
        ops = list(run.WORKLOADS["identity-closed-forms"])
        rng.shuffle(ops)
        assert sorted(ops) == sorted(run.WORKLOADS["identity-closed-forms"])
        orders.add(tuple(ops))
    assert len(orders) > 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_flipped_digit_fails_the_gates(fmt):
    argv = ("table", "--stat", "crank", "--n-max", "40", "--format", fmt)
    digests = json.loads((run.HERE / "digests.json").read_text())
    text = _cli_output(argv)
    assert run.output_problems(argv, text, digests) == []
    # p(40) = 37338, so the count of crank 0 at n = 40 is in the last row
    anchor = "40,0," if fmt == "csv" else '"0": "'
    i = text.rindex(anchor) + len(anchor)
    flipped = text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
    problems = run.output_problems(argv, flipped, digests)
    assert "SHA-256 digest differs from the seed's" in problems
    assert any("row sum at n=40" in p for p in problems)


def test_failed_verdict_fails_the_gates():
    argv = ("identity", "--id", "euler", "--order", "60")
    text = _cli_output(argv).replace('"verdict": "pass"', '"verdict": "fail"')
    problems = run.structural_problems(argv, text)
    assert "verdict is not pass: euler" in problems


def test_self_time_on_synthetic_tree():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["tables.build_table", 1.0, 6.0, 0, None],
        ["kernels.geom_fold", 2.0, 3.0, 1, None],
        ["kernels.geom_fold", 4.0, 5.5, 1, None],
        ["series.qpoch_inf", 7.0, 9.0, 0, None],
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([3.0, 2.5, 1.0, 1.5, 2.0])
    assert sum(selfs) == pytest.approx(10.0)
    # overlapping children are covered once
    assert tracing.self_times([["a", 0, 4, -1, None], ["b", 1, 3, 0, None],
                               ["c", 2, 5, 0, None]])[0] == pytest.approx(1.0)


def test_layer_metrics_add_up_to_wall():
    spans = [
        ["cli.main", 1.0, 9.0, -1, None],
        ["bivariate.crank_gf", 2.0, 6.0, 0, 21],
        ["kernels.geom_fold", 3.0, 5.0, 1, None],
        ["identities.run_entry", 6.5, 8.0, 0, "euler"],
    ]
    data = {"import_end": 0.5, "spans": spans, "caches": {"bivariate.crank_gf": [3, 1]}}
    names = [x["name"] for x in SPEC["per_layer"]]
    m = run.layer_metrics([(0.0, 9.5, data)], names)
    assert m["cli.import_s"] == 0.5
    assert m["cli.self_s"] == pytest.approx(0.5 + 2.5 + 0.5)
    assert m["bivariate.build_s"] == 2.0 and m["kernels.geom_fold_s"] == 2.0
    assert m["identities.self_s"] == 1.5 and m["identities.euler.s"] == 1.5
    assert (m["bivariate.builds"], m["bivariate.cache_hits"], m["bivariate.cells_built"]) == (1, 3, 21)
    assert sum(m[k] for k in run.SELF_METRICS) == pytest.approx(m["trace.wall_s"]) == 9.5


def test_tracer_wraps_reimported_bindings(tmp_path):
    out = tmp_path / "spans.json"
    subprocess.run(
        [sys.executable, str(run.HERE / "tracing.py"),
         "identity", "--id", "ocrank-monotone-factored", "--order", "20"],
        cwd=run.ROOT, env=dict(ENV, PERFBENCH_TRACE_OUT=str(out)),
        capture_output=True, check=True,
    )
    spans = json.loads(out.read_text())["spans"]
    # identities calls crank_gf through its own `from cranktab.bivariate import`
    assert any(s[0] == "bivariate.crank_gf" and spans[s[3]][0] == "identities.run_clause"
               for s in spans)


def test_partition_numbers_match_the_program():
    sys.path.insert(0, str(run.ROOT / "src"))
    from cranktab.series import partition_series_pentagonal

    assert run.partition_numbers(400) == partition_series_pentagonal(400).coeffs


def test_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in run.HERE.iterdir():
        if f.is_file():
            (bench / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((run.ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
