"""The benchmark's own tests: metric coverage, failure accounting, trace
reconciliation, exact repeats at a seed, and the result contract.

Run with ``python -m pytest perfbench/tests`` from the repository root.
Every run here is a short-mode run (one set-up, a one-window pool,
fractions of a second of serving).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.core import set_default_value_dtype  # noqa: E402

from perfbench import catalog  # noqa: E402
from perfbench import workloads as W  # noqa: E402
from perfbench.tracing import Span, Tracer  # noqa: E402

END_TO_END, PER_LAYER = catalog.load()
SIM_METRICS = [name for name, clock in catalog.CLOCKS.items() if clock == "sim"]
SECONDS = 0.3


@pytest.fixture(autouse=True)
def _value_dtype_as_benchmarked():
    """Models built here store values as the benchmark's do, whatever
    REPRO_VALUE_DTYPE says (run_workload pins the same dtype itself)."""
    set_default_value_dtype(W.VALUE_DTYPE)
    yield
    set_default_value_dtype(None)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Short runs, cached per (workload, trace, seed)."""
    cache = {}

    def get(name, trace, seed=7):
        key = (name, trace, seed)
        if key not in cache:
            workdir = tmp_path_factory.mktemp("work")
            cache[key] = W.run_workload(name, seed, SECONDS, trace, "short", workdir)
        return cache[key]

    return get


@pytest.mark.parametrize("name", W.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_short_run_emits_every_metric_without_failures(runs, name, trace):
    outcome = runs(name, trace)
    wanted = PER_LAYER if trace else END_TO_END
    assert outcome.tally.failed == 0, outcome.tally.problems
    assert outcome.tally.attempted > 0
    for metric in wanted:
        value = outcome.metrics[metric["name"]]
        assert np.isfinite(value), metric["name"]
        assert catalog.CLOCKS[metric["name"]] in ("host", "sim", "none")
    if not trace:
        assert all(outcome.metrics[m["name"]] > 0 for m in END_TO_END)


@pytest.mark.parametrize("name", ["fc-poisson", "conv-poisson", "lstm-poisson"])
def test_traced_serving_reaches_the_engine_and_the_kernel(runs, name):
    # Wrappers patched where no caller looks the name up record nothing.
    metrics = runs(name, True).metrics
    assert metrics["serve.stage0.busy_ms"] > 0
    assert metrics["hw.run_fc_batch.calls"] > 0 and metrics["core.matmat.calls"] > 0
    assert metrics["serve.from_bundle_ms"] > 0 and metrics["serve.export_ms"] > 0
    # Serving only reads the PD values: no backward products.
    assert metrics["core.rmatmat.busy_ms"] == metrics["core.grad_data.busy_ms"] == 0.0


def test_traced_compress_job_reaches_every_factory_phase(runs):
    metrics = runs("compress-fc", True).metrics
    for name in ("nn.fit.busy_ms", "nn.evaluate.busy_ms", "compress.convert.busy_ms",
                 "compress.verify.busy_ms", "serve.export_ms", "core.matmat.busy_ms",
                 "core.rmatmat.busy_ms", "core.grad_data.busy_ms"):
        assert metrics[name] > 0, name


@pytest.mark.parametrize("name", ["lstm-poisson", "compress-fc"])
def test_simulated_metrics_repeat_exactly_at_a_seed(runs, name, tmp_path):
    first = runs(name, False, 11)
    again = W.run_workload(name, 11, SECONDS, False, "short", tmp_path)
    for metric in SIM_METRICS + ["finetuned_accuracy"]:
        assert again.metrics[metric] == first.metrics[metric], metric
    # A different seed draws different traffic.
    other = runs(name, False, 12)
    assert other.metrics["sim_p99_us"] != first.metrics["sim_p99_us"]


def test_injected_output_mismatch_counts_as_failed(tmp_path):
    def corrupt(report):
        report.outputs[0] = report.outputs[0] + 1e-6

    outcome = W.run_workload("lstm-poisson", 3, SECONDS, False, "short", tmp_path,
                             inject=corrupt)
    assert outcome.tally.failed >= 1
    assert any("unsharded reference" in p for p in outcome.tally.problems)


def _lstm_pool(windows: int):
    """A small served LSTM cell, its stages and a referenced window pool."""
    workload = W.SERVING["lstm-poisson"]
    model, _ = workload.build(np.random.default_rng(0), True)
    rows = workload.inputs(np.random.default_rng(1), windows * W.WINDOW, workload.width(model))
    pool = W.make_pool(rows, np.random.default_rng(2), workload.rate_rps)
    W.fill_references(pool, model, None, workload.reference)
    return W.ModelServer.from_model(model, num_shards=W.NUM_SHARDS).layers, pool


def test_shed_requests_count_as_failed():
    stages, pool = _lstm_pool(1)
    tally = W.Tally()
    W.serve_loop(stages, pool, 0.0, queue_capacity=4, tally=tally)
    assert tally.attempted == W.WINDOW
    assert tally.failed >= W.WINDOW - 4
    assert any("shed" in p for p in tally.problems)


def _traced_lstm_loop():
    stages, pool = _lstm_pool(2)  # the tracer records every other window
    tally, tracer = W.Tally(), Tracer()
    loop = W.serve_loop(stages, pool, 0.0, 40, tally, tracer)
    W.reconcile(tracer, loop, tally)
    assert tally.failed == 0, tally.problems
    return tally, tracer, loop


def test_reconcile_flags_cycles_that_do_not_add_up():
    tally, tracer, loop = _traced_lstm_loop()
    key, cycles = loop.traced[0]
    loop.traced[0] = (key, (cycles[0] + 1,))
    W.reconcile(tracer, loop, tally)
    assert tally.failed == 1
    assert "do not sum" in tally.problems[0]


def test_reconcile_flags_traced_work_outside_the_drain():
    tally, tracer, loop = _traced_lstm_loop()
    key = loop.traced[0][0]
    drain = next(s for s in tracer.spans if s.window == key and s.name == "serve.drain")
    # A kernel call of the same window, made before its drain began.
    tracer.spans.append(Span("core.matmat", drain.start_ns - 10, drain.start_ns - 5, -1, key))
    W.reconcile(tracer, loop, tally)
    assert tally.failed == 1
    assert "outside its drain" in tally.problems[0]


def test_run_prints_the_contract_and_keeps_short_results_apart(tmp_path):
    command = [sys.executable, "perfbench/run.py", "--workload", "lstm-poisson",
               "--seed", "5", "--seconds", str(SECONDS), "--trace", "0",
               "--short", "--out", str(tmp_path)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in END_TO_END]
    for metric in END_TO_END:
        name = metric["name"]
        assert result["metrics"][name]["unit"] == metric["unit"]
        row = next(line for line in lines if f" {name} " in line)
        assert row.split()[-2:] == [metric["unit"], catalog.CLOCKS[name]]
    record = json.loads(
        (tmp_path / "results" / "short" / "lstm-poisson-seed5-trace0.json").read_text()
    )
    assert record["env"]["mode"] == "short" and record["env"]["seed"] == 5
    assert {"cpu_count", "numpy", "scipy", "backend", "value_dtype",
            "git_sha"} <= set(record["env"])
    assert record["env"]["value_dtype"] == W.VALUE_DTYPE
    assert not (tmp_path / "results" / "full").exists()


@pytest.mark.parametrize("elsewhere", [False, True], ids=["absent", "importable-elsewhere"])
def test_run_fails_without_the_program(tmp_path, elsewhere):
    # A copy holding only the benchmark must not measure anything, even
    # where repro imports from another tree (e.g. an installed package).
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    if elsewhere:
        env["PYTHONPATH"] = str(ROOT / "src")
    command = [sys.executable, "perfbench/run.py", "--workload", "lstm-poisson",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    if elsewhere:
        assert "measures only its own checkout" in done.stderr
