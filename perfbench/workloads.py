"""The benchmark's workloads and the closed-loop client that drives them.

Every serving workload runs one client, closed loop on the host: it
submits a window of ``WINDOW`` requests, calls ``drain()``, and repeats.
Each request carries a seeded Poisson arrival time on the *simulated*
clock, at a fixed absolute rate about 0.8 of the stack's
``sim_capacity_rps`` when the benchmark was written.  A window spans two
full micro-batches: one micro-batch per window makes per-window host time
bimodal, which makes p50 jump between runs.

Windows come from a seeded pool that the run cycles through, one fresh
``ModelServer`` (over the same booted stages) per pass, so every pass
replays pass 0 on the simulated clock exactly.  Pass 0 feeds the
simulated metrics; later passes must reproduce it bit for bit, and any
drift is a failure.  Host metrics come from every window of every pass.

The server runs with ``max_batch_size=16``, the default 50 us flush
deadline, a Little's-law-sized ``queue_capacity`` and ``num_threads=1``
(on a shared 2-CPU host the threaded executor spreads host req/s across
runs more than any change worth measuring, so it stays unmeasured).

Models are built from ``repro.models`` / ``repro.nn``; arrivals and inputs
come from seeded numpy here, so nothing depends on the library's own
bench, traffic or batching helpers.
"""

from __future__ import annotations

import contextlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import repro.compress.pipeline as pipeline
import repro.serve as serve_package
from repro.compress import CompressionError
from repro.core import set_default_value_dtype
from repro.models import build_alexnet_fc
from repro.nn import (
    Adam,
    CrossEntropyLoss,
    Flatten,
    Linear,
    LSTMCell,
    MaxPool2D,
    PermDiagConv2D,
    PermDiagLinear,
    ReLU,
    Sequential,
    Trainer,
)
from repro.serve import ModelServer

from perfbench.tracing import Tracer, self_times_ns, subtree

NUM_SHARDS = 4
MAX_BATCH = 16
WINDOW = 2 * MAX_BATCH
NUM_THREADS = 1
# Every workload stores values in this dtype, whatever default the
# process or REPRO_VALUE_DTYPE would otherwise give the models.
VALUE_DTYPE = "float64"
# Served rows must match the model's own forward/step to this tolerance
# (the served path sums in another order than the training layers).
RTOL, ATOL = 1e-9, 1e-12
SETUPS = {"full": 3, "short": 1}
# A set-up of a small stack (or a cold start) lasts tens of milliseconds.
# Repeated back to back, every sample would land in one stretch of a
# shared host's fast or slow phase (phases last seconds), so the serving
# loop repeats them between windows instead, across the whole run,
# spending this share of it.
SAMPLE_SHARE = 0.2
# Set-ups slower than this (fc-poisson's ~9 s, nearly all of it the
# bundle export) are repeated only before the loop, as each one already
# spans several phases; between windows such a workload repeats only its
# cold start.  With them (and the reference pass), an fc-poisson run
# lasts 25-37 s longer than its --seconds.
CHEAP_SETUP_S = 1.0
_MAX_PROBLEMS = 20


class BenchmarkError(RuntimeError):
    """The run could not produce a measurement (e.g. no boot succeeded)."""


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, attempted: int, failed: int = 0, problem: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and problem and len(self.problems) < _MAX_PROBLEMS:
            self.problems.append(problem)


@dataclass
class Outcome:
    """What one run measured: metric values plus failure accounting."""

    metrics: dict[str, float]
    tally: Tally
    details: dict
    tracers: list[Tracer] = field(default_factory=list)


# ----------------------------------------------------------------------
# Workload definitions
# ----------------------------------------------------------------------


def _build_fc(rng, short: bool):
    # scale=2: 4608 -> 2048 -> 2048 -> 500 with Table II p = 10/10/4,
    # 1.62 M stored values (~13 MB), larger than a 4 MiB L2.  Paper scale
    # spends ~35 s per export and 1.8 GB RSS, which set-up cannot afford.
    model = build_alexnet_fc(scale=8 if short else 2, rng=rng)
    model.eval()
    return model, None


def _fc_inputs(rng, count: int, width: int) -> np.ndarray:
    # Alex-FC6's measured activation density is 0.358 (post-ReLU, >= 0).
    return rng.random((count, width)) * (rng.random((count, width)) < 0.358)


def _build_conv(rng, short: bool):
    # ResNet-20-style widths 16/32/64 with p=4 and stride-2 geometry on
    # 16x8x8 maps: 8x8 -> 4x4 -> 2x2, then a fused 2x2 max-pool and a PD
    # FC head.
    model = Sequential(
        PermDiagConv2D(16, 16, 3, p=4, padding=1, bias=False, rng=rng),
        ReLU(),
        PermDiagConv2D(16, 32, 3, p=4, stride=2, padding=1, bias=False, rng=rng),
        ReLU(),
        PermDiagConv2D(32, 64, 3, p=4, stride=2, padding=1, bias=False, rng=rng),
        ReLU(),
        MaxPool2D(2),
        Flatten(),
        PermDiagLinear(64, 16, p=4, bias=False, rng=rng),
    )
    model.eval()
    return model, (8, 8)


def _dense_inputs(rng, count: int, width: int) -> np.ndarray:
    return rng.standard_normal((count, width))


def _conv_forward(model, rows: np.ndarray) -> np.ndarray:
    return model.forward(rows.reshape(rows.shape[0], 16, 8, 8))


def _build_lstm(rng, short: bool):
    return LSTMCell(32, 64, p=8, rng=rng), None


def _lstm_inputs(rng, count: int, width: int) -> np.ndarray:
    # Dense [x | h | c] rows: h in tanh's range, x and c unbounded.
    return np.hstack([
        rng.standard_normal((count, 32)),
        rng.uniform(-1.0, 1.0, (count, 64)),
        rng.standard_normal((count, 64)),
    ])


def _lstm_step(cell, rows: np.ndarray) -> np.ndarray:
    h, c, _ = cell.step(rows[:, :32], rows[:, 32:96], rows[:, 96:])
    return np.hstack([h, c])


def _forward(model, rows: np.ndarray) -> np.ndarray:
    return model.forward(rows)


@dataclass(frozen=True)
class ServingWorkload:
    """A served stack, its traffic and its reference semantics.

    ``rate_rps`` is the Poisson arrival rate on the simulated clock.
    ``queue_capacity`` is the Little's-law population at that rate (rate x
    mean simulated latency, reported per run as ``littles_law_population``)
    with 25% headroom, and never below one window.
    ``pool_windows`` windows are generated per run (host cost of one pass
    must stay well under the run length).
    """

    build: Callable
    width: Callable
    inputs: Callable
    reference: Callable
    rate_rps: float
    queue_capacity: int
    pool_windows: int


SERVING = {
    "fc-poisson": ServingWorkload(
        _build_fc, lambda model: model.modules()[1].in_features, _fc_inputs, _forward,
        rate_rps=2.2e6, queue_capacity=41, pool_windows=48,
    ),
    "conv-poisson": ServingWorkload(
        _build_conv, lambda model: 16 * 8 * 8, _dense_inputs, _conv_forward,
        rate_rps=9.0e5, queue_capacity=32, pool_windows=12,
    ),
    "lstm-poisson": ServingWorkload(
        _build_lstm, lambda cell: cell.input_size + 2 * cell.hidden_size,
        _lstm_inputs, _lstm_step,
        rate_rps=5.2e7, queue_capacity=32, pool_windows=64,
    ),
}

# BENCHMARK.json lists only fc-poisson and compress-fc (see README.md);
# conv-poisson and lstm-poisson run the same way, traced or not.
WORKLOAD_NAMES = (*SERVING, "compress-fc")


# ----------------------------------------------------------------------
# Closed-loop serving
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SimWindow:
    """Everything a drain reports on the simulated clock, hashable."""

    latencies_us: tuple
    queue_us: tuple
    batch_sizes: tuple
    layer_cycles: tuple
    shard_cycles: tuple
    shard_macs: tuple

    @classmethod
    def of(cls, report) -> "SimWindow":
        return cls(
            tuple(report.latencies_us.tolist()),
            tuple(report.queue_us.tolist()),
            tuple(report.batch_sizes),
            tuple(report.layer_cycles),
            tuple(tuple(s.cycles for s in layer) for layer in report.layer_stats),
            tuple(tuple(s.macs for s in layer) for layer in report.layer_stats),
        )


@dataclass
class Pool:
    """The run's windows: rows, simulated arrivals, expected outputs."""

    windows: list[tuple[np.ndarray, np.ndarray]]
    reference: list[np.ndarray] = field(default_factory=list)
    expected: list[np.ndarray] = field(default_factory=list)


def make_pool(rows: np.ndarray, rng, rate_rps: float) -> Pool:
    """Cut ``rows`` into windows with one Poisson arrival stream."""
    arrivals = np.cumsum(rng.exponential(1e6 / rate_rps, size=rows.shape[0]))
    return Pool([
        (rows[i : i + WINDOW], arrivals[i : i + WINDOW])
        for i in range(0, rows.shape[0], WINDOW)
    ])


def fill_references(pool: Pool, model, input_hw, expected_fn) -> None:
    """Unsharded single-thread serving and the model's own math."""
    server = ModelServer.from_model(
        model, input_hw=input_hw, num_shards=1, num_threads=1, max_batch_size=MAX_BATCH
    )
    for rows, arrivals in pool.windows:
        server.submit_many(rows, arrivals)
        pool.reference.append(np.stack(server.drain().outputs))
        pool.expected.append(expected_fn(model, rows))


def new_server(stages, queue_capacity: int | None) -> ModelServer:
    return ModelServer(
        stages, max_batch_size=MAX_BATCH, num_threads=NUM_THREADS, queue_capacity=queue_capacity
    )


def check_rows(served, reference, expected, tally: Tally, where: str) -> None:
    """Count rows not bit-identical to the reference or off the model's math."""
    exact = np.all(served == reference, axis=1)
    scale = max(1.0, float(np.max(np.abs(expected))))
    near = np.all(np.isclose(served, expected, rtol=RTOL, atol=ATOL * scale), axis=1)
    bad = int(np.count_nonzero(~(exact & near)))
    tally.record(
        0, bad,
        f"{where}: {int(np.count_nonzero(~exact))} rows differ from the "
        f"unsharded reference, {int(np.count_nonzero(~near))} from forward",
    )


@dataclass
class LoopResult:
    drain_s: list[float] = field(default_factory=list)
    call_s: list[float] = field(default_factory=list)
    sizes: list[int] = field(default_factory=list)
    sims: list[SimWindow] = field(default_factory=list)
    passes: int = 0
    # Per window: whether it ran traced; per traced window, its layer_cycles.
    is_traced: list[bool] = field(default_factory=list)
    traced: list[tuple[int, tuple]] = field(default_factory=list)
    served: list[np.ndarray] = field(default_factory=list)


def serve_loop(
    stages,
    pool: Pool,
    seconds: float,
    queue_capacity: int,
    tally: Tally,
    tracer: Tracer | None = None,
    inject: Callable | None = None,
    sample: Callable | None = None,
) -> LoopResult:
    """Replay the pool, one fresh server per pass, for ``seconds``.

    Pass 0 always completes; it defines the simulated results that every
    later window must reproduce exactly.  ``sample`` (untimed work such
    as a cold start) runs between windows, ``SAMPLE_SHARE`` of the time.
    With a ``tracer``, every other window runs traced, so traced and
    untraced windows see the same host phases.
    """
    result = LoopResult()
    deadline = time.perf_counter() + seconds

    def more() -> bool:
        return time.perf_counter() < deadline or (tracer is not None and not result.traced)

    sample_due = time.perf_counter()
    while result.passes == 0 or more():
        server = new_server(stages, queue_capacity)
        for index, (rows, arrivals) in enumerate(pool.windows):
            key = len(result.sizes)
            traced = tracer is not None and key % 2 == 1
            with tracer.installed() if traced else contextlib.nullcontext():
                if traced:
                    tracer.window = key
                start = time.perf_counter()
                rids = server.submit_many(rows, arrivals)
                submitted = time.perf_counter()
                report = server.drain()
                done = time.perf_counter()
            result.is_traced.append(traced)
            if traced:
                tracer.window = None
                result.traced.append((key, tuple(report.layer_cycles)))
            result.drain_s.append(done - submitted)
            result.call_s.append(done - start)
            result.sizes.append(len(rids))
            where = f"pass {result.passes} window {index}"
            if inject is not None:
                inject(report)
            tally.record(len(rids), report.num_shed, f"{where}: {report.num_shed} shed")
            shed = set(report.shed_rids)
            admitted = [i for i, rid in enumerate(rids) if rid not in shed]
            if admitted:
                served = np.stack(report.outputs)
                check_rows(served, pool.reference[index][admitted],
                           pool.expected[index][admitted], tally, where)
                if result.passes == 0:
                    result.served.append(served)
            sim = SimWindow.of(report)
            if result.passes == 0:
                result.sims.append(sim)
            elif sim != result.sims[index]:
                tally.record(0, len(rids), f"{where}: simulated results drifted from pass 0")
            if sample is not None and time.perf_counter() >= sample_due:
                began = time.perf_counter()
                sample()
                cost = time.perf_counter() - began
                sample_due = time.perf_counter() + cost * (1 / SAMPLE_SHARE - 1)
            if result.passes > 0 and not more():
                break
        result.passes += 1
    return result


def host_metrics(loop: LoopResult, traced: bool = False) -> dict[str, float]:
    """Host metrics over the untraced (or the traced) windows."""
    keep = np.asarray(loop.is_traced) == traced
    sizes = np.asarray(loop.sizes)[keep]
    per_request_ms = np.repeat(np.asarray(loop.drain_s)[keep] * 1e3, sizes)
    return {
        "host_rps": float(sizes.sum()) / float(np.sum(np.asarray(loop.call_s)[keep])),
        "latency_p50_ms": float(np.percentile(per_request_ms, 50)),
        "latency_p90_ms": float(np.percentile(per_request_ms, 90)),
    }


def sim_metrics(sims: list[SimWindow], cycles_per_us: float) -> dict[str, float]:
    """Simulated-clock metrics over pass 0 (exact at a fixed seed)."""
    latencies = np.concatenate([np.asarray(s.latencies_us) for s in sims])
    queue = np.concatenate([np.asarray(s.queue_us) for s in sims])
    requests = latencies.size
    layer_totals = np.sum([s.layer_cycles for s in sims], axis=0)
    bottleneck = int(np.argmax(layer_totals))
    shard_totals = np.sum([s.shard_cycles[bottleneck] for s in sims], axis=0)
    bottleneck_s = sum(max(s.layer_cycles) for s in sims) / cycles_per_us * 1e-6
    return {
        "sim_capacity_rps": requests / bottleneck_s,
        "sim_p99_us": float(np.percentile(latencies, 99)),
        "serve.batch_size_mean": float(np.mean([b for s in sims for b in s.batch_sizes])),
        "serve.queue_p99_us": float(np.percentile(queue, 99)),
        "hw.sim_cycles_per_req": float(layer_totals.sum()) / requests,
        "hw.macs_per_req": sum(sum(sum(layer) for layer in s.shard_macs) for s in sims) / requests,
        "hw.shard_imbalance": float(shard_totals.max() / shard_totals.mean()),
    }


def littles_law(sims: list[SimWindow], rate_rps: float) -> float:
    """Mean in-flight population, rate x mean simulated latency."""
    latencies = np.concatenate([np.asarray(s.latencies_us) for s in sims])
    return rate_rps * float(latencies.mean()) * 1e-6


def top1_agreement(served: list[np.ndarray], expected: list[np.ndarray]) -> float:
    """Share of served rows whose argmax matches the model's own output."""
    hits = sum(int(np.sum(s.argmax(axis=1) == e[: len(s)].argmax(axis=1)))
               for s, e in zip(served, expected))
    return hits / sum(len(s) for s in served)


def cold_start(bundle: Path, row: np.ndarray, queue_capacity: int, tally: Tally):
    """Boot ``bundle`` and serve one request: ``(server, output, ms)``.

    A boot that raises is a failure, not a crash of the benchmark.
    """
    start = time.perf_counter()
    try:
        server = ModelServer.from_bundle(
            bundle, num_threads=NUM_THREADS, max_batch_size=MAX_BATCH,
            queue_capacity=queue_capacity,
        )
        server.submit(row)
        output = server.drain().outputs[0]
    except Exception as exc:  # a failed boot is counted, the run goes on
        tally.record(1, 1, f"boot of {bundle.name} failed: {exc!r}")
        return None, None, None
    elapsed_ms = (time.perf_counter() - start) * 1e3
    tally.record(1)
    return server, output, elapsed_ms


# ----------------------------------------------------------------------
# Per-layer metrics from a traced segment
# ----------------------------------------------------------------------


def _mean_ms(spans, name: str) -> float:
    durations = [s.duration_ns for s in spans if s.name == name]
    return float(np.mean(durations)) / 1e6 if durations else 0.0


def layer_metrics(tracer: Tracer, roots: list[int], units: int) -> dict[str, float]:
    """Busy and self times per unit (request or job) under ``roots``."""
    spans = tracer.spans
    own = self_times_ns(spans)
    busy: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    layer_ns = dict.fromkeys(("serve", "hw", "core", "nn", "compress"), 0)
    matmat_bytes = 0
    for index in subtree(spans, roots):
        span = spans[index]
        busy[span.name] = busy.get(span.name, 0) + span.duration_ns
        self_ns[span.name] = self_ns.get(span.name, 0) + own[index]
        calls[span.name] = calls.get(span.name, 0) + 1
        layer_ns[span.name.split(".")[0]] += own[index]
        matmat_bytes += span.note.get("bytes", 0)

    def per_unit_ms(table, name):
        return table.get(name, 0) / 1e6 / units

    metrics = {
        "serve.drain.busy_ms": per_unit_ms(busy, "serve.drain"),
        "serve.drain.self_ms": per_unit_ms(self_ns, "serve.drain"),
        "serve.from_bundle_ms": _mean_ms(spans, "serve.from_bundle"),
        "serve.export_ms": _mean_ms(spans, "serve.export"),
        "hw.run_fc_batch.calls": calls.get("hw.run_fc_batch", 0) / units,
        "hw.run_fc_batch.self_ms": per_unit_ms(self_ns, "hw.run_fc_batch"),
        "core.matmat.calls": calls.get("core.matmat", 0) / units,
        "core.matmat.busy_ms": per_unit_ms(busy, "core.matmat"),
        "core.matmat.gbps": (
            matmat_bytes / (busy["core.matmat"] / 1e9) / 1e9 if busy.get("core.matmat") else 0.0
        ),
        "core.rmatmat.busy_ms": per_unit_ms(busy, "core.rmatmat"),
        "core.grad_data.busy_ms": per_unit_ms(busy, "core.grad_data"),
        "nn.fit.busy_ms": per_unit_ms(busy, "nn.fit"),
        "nn.evaluate.busy_ms": per_unit_ms(busy, "nn.evaluate"),
        "compress.convert.busy_ms": per_unit_ms(busy, "compress.convert"),
        "compress.verify.busy_ms": per_unit_ms(busy, "compress.verify"),
        "compress.job.busy_ms": per_unit_ms(busy, "compress.job"),
    }
    for stage in range(4):
        name = f"serve.stage{stage}"
        metrics[f"{name}.busy_ms"] = per_unit_ms(busy, name)
        metrics[f"{name}.self_ms"] = per_unit_ms(self_ns, name)
    for layer, total in layer_ns.items():
        metrics[f"layer.{layer}.self_ms"] = total / 1e6 / units
    return metrics


def reconcile(tracer: Tracer, loop: LoopResult, tally: Tally) -> None:
    """Check each traced window's spans against its drain.

    Every span the window recorded must lie under the window's drain span
    (work traced outside it, e.g. in ``submit_many``, would escape both
    the latency metrics and the per-layer split of drain time), and the
    simulated cycles of its stage spans must sum to the drain's
    ``layer_cycles``.
    """
    spans = tracer.spans
    # Parents precede their children, so one pass finds every span's root.
    root_of: list[int] = []
    for index, span in enumerate(spans):
        root_of.append(index if span.parent < 0 else root_of[span.parent])
    drains, outside, stage_cycles = {}, {}, {}
    for index, span in enumerate(spans):
        if span.name == "serve.drain" and span.parent < 0:
            drains[span.window] = index
    for index, span in enumerate(spans):
        if span.window is None:
            continue
        if root_of[index] != drains.get(span.window):
            outside[span.window] = outside.get(span.window, 0) + 1
        elif span.parent == drains[span.window]:
            stage = int(span.name.removeprefix("serve.stage"))
            per_stage = stage_cycles.setdefault(span.window, {})
            per_stage[stage] = per_stage.get(stage, 0) + span.note["sim_cycles"]
    for key, layer_cycles in loop.traced:
        per_stage = stage_cycles.get(key, {})
        cycles = tuple(per_stage.get(stage, 0) for stage in range(len(layer_cycles)))
        stray = outside.get(key, 0)
        tally.record(0, 0 if stray == 0 else 1,
                     f"traced window {key}: {stray} spans outside its drain")
        tally.record(0, 0 if cycles == layer_cycles else 1,
                     f"traced window {key}: stage cycles {cycles} do not sum to "
                     f"the drain's layer_cycles {layer_cycles}")


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


def _seeds(seed: int):
    """Independent seed sequences: model (or data), inputs (or model),
    arrivals, and factory jobs."""
    return np.random.SeedSequence(seed).spawn(4)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_serving(name: str, seed: int, seconds: float, trace: bool, mode: str,
                workdir: Path, inject: Callable | None = None) -> Outcome:
    workload = SERVING[name]
    short = mode == "short"
    model_ss, input_ss, arrival_ss, _ = _seeds(seed)
    tally = Tally()
    # The reference copy of the model: pool, references and verification.
    model, input_hw = workload.build(np.random.default_rng(model_ss), short)
    rows = workload.inputs(np.random.default_rng(input_ss),
                           WINDOW * (1 if short else workload.pool_windows),
                           workload.width(model))
    pool = make_pool(rows, np.random.default_rng(arrival_ss), workload.rate_rps)
    fill_references(pool, model, input_hw, workload.reference)

    setup_s, export_s, cold_ms, bundles = [], [], [], []
    booted = None

    def boot(bundle):
        nonlocal booted
        server, output, boot_ms = cold_start(
            bundle, pool.windows[0][0][0], workload.queue_capacity, tally
        )
        if server is not None:
            booted = server
            cold_ms.append(boot_ms)
            check_rows(output[None, :], pool.reference[0][:1], pool.expected[0][:1],
                       tally, f"cold-start probe of {bundle.name}")

    def set_up():
        """Build the model, export its bundle, cold-start it."""
        start = time.perf_counter()
        built, _ = workload.build(np.random.default_rng(model_ss), short)
        bundles.append(workdir / f"bundle{len(bundles)}")
        began = time.perf_counter()
        serve_package.export_model_bundle(bundles[-1], built, NUM_SHARDS, input_hw=input_hw)
        export_s.append(time.perf_counter() - began)
        boot(bundles[-1])
        setup_s.append(time.perf_counter() - start)

    def sample():
        """Between windows: one more set-up, or only a cold start if costly."""
        if statistics.median(setup_s) < CHEAP_SETUP_S:
            set_up()
        else:
            boot(bundles[0])

    setup_tracer = Tracer() if trace else None
    with setup_tracer.installed() if trace else contextlib.nullcontext():
        for _ in range(SETUPS[mode]):
            set_up()
    if booted is None:
        raise BenchmarkError(f"{name}: no boot succeeded: {tally.problems}")
    tally.record(1)
    try:
        pipeline.verify_bundle(bundles[0], model, pool.windows[0][0][:8],
                               num_shards=NUM_SHARDS, input_hw=input_hw)
    except CompressionError as exc:
        tally.record(0, 1, f"bundle not verified: {exc}")

    # Warm caches and lazy state before timing.
    warm = new_server(booted.layers, None)
    warm.submit_many(*pool.windows[0])
    warm.drain()
    stages = booted.layers
    tracer = Tracer() if trace else None
    loop = serve_loop(stages, pool, seconds, workload.queue_capacity, tally, tracer,
                      inject, None if trace else sample)
    metrics = sim_metrics(loop.sims, booted.cycles_per_us)
    details = {"windows": len(loop.sizes), "passes": loop.passes,
               "pool_windows": len(pool.windows), "setups": len(setup_s),
               "boots": len(cold_ms), "exports": len(export_s),
               "littles_law_population": littles_law(loop.sims, workload.rate_rps)}
    if trace:
        reconcile(tracer, loop, tally)
        roots = [i for i, s in enumerate(tracer.spans) if s.name == "serve.drain"]
        traced_requests = sum(n for n, t in zip(loop.sizes, loop.is_traced) if t)
        metrics.update(layer_metrics(tracer, roots, traced_requests))
        metrics["serve.from_bundle_ms"] = _mean_ms(setup_tracer.spans, "serve.from_bundle")
        metrics["serve.export_ms"] = _mean_ms(setup_tracer.spans, "serve.export")
        metrics["trace.overhead_frac"] = (
            host_metrics(loop)["host_rps"] / host_metrics(loop, traced=True)["host_rps"] - 1.0
        )
    else:
        metrics.update(host_metrics(loop))
        metrics.update({
            "cold_start_ms": statistics.median(cold_ms),
            "compress_s": statistics.median(export_s),
            "finetuned_accuracy": top1_agreement(loop.served, pool.expected),
            "setup_s": statistics.median(setup_s),
        })
    metrics["peak_rss_mb"] = peak_rss_mb()
    return Outcome(metrics, tally, details, [setup_tracer, tracer] if trace else [])


# ----------------------------------------------------------------------
# The compression factory
# ----------------------------------------------------------------------

_MIXTURE_DIM, _CLASSES = 1152, 16


def _mixture(rng, short: bool):
    """A seeded 16-class Gaussian mixture in 1152 dimensions."""
    n_train, n_test = (256, 64) if short else (2048, 1024)
    # This separation leaves fine-tuned accuracy near 0.75: far from both
    # chance and 1.0, so a change to the factory's math shows in it.
    means = rng.standard_normal((_CLASSES, _MIXTURE_DIM)) * 0.15

    def draw(count):
        labels = rng.integers(0, _CLASSES, count)
        return means[labels] + rng.standard_normal((count, _MIXTURE_DIM)), labels

    x_train, y_train = draw(n_train)
    x_test, y_test = draw(n_test)
    return x_train, y_train, x_test, y_test


def _pretrained_mlp(model_rng, data, short: bool, trainer_seed: int):
    """AlexNet-FC's shape at 1/8 width, dense, trained on the mixture."""
    model = Sequential(
        Linear(_MIXTURE_DIM, 512, rng=model_rng), ReLU(),
        Linear(512, 512, rng=model_rng), ReLU(),
        Linear(512, _CLASSES, rng=model_rng),
    )
    Trainer(model, Adam(model.parameters(), lr=1e-3), CrossEntropyLoss(),
            batch_size=64, rng=trainer_seed).fit(data[0], data[1], epochs=1 if short else 2)
    return model


def _job(dense, data, short: bool, seed: int, bundle: Path):
    # fc_p=10 / head_p=4 are Table II's AlexNet-FC block sizes.
    return pipeline.compress_model(
        dense, data, name="alexnet-fc-1/8", fc_p=10, head_p=4, strategy="greedy",
        finetune_epochs=1 if short else 3, seed=seed, num_shards=NUM_SHARDS,
        bundle_dir=bundle,
    )


# 0.8 of the factory bundle's sim_capacity_rps (15.5 M); Little's law
# population 26.3 at that rate, with the same 25% headroom.
COMPRESS_RATE_RPS = 1.24e7
COMPRESS_QUEUE_CAPACITY = 33
MIN_JOBS = {"full": 3, "short": 1}
BOOTS_PER_JOB = 4
COMPRESS_POOL_REPEATS = 4


def run_compress(seed: int, seconds: float, trace: bool, mode: str,
                 workdir: Path, inject: Callable | None = None) -> Outcome:
    """Factory jobs on a pre-trained dense MLP for ``seconds``.

    Set-up makes the data and pre-trains the dense model.  The factory's
    unit of work is a job, so the host request metrics are per job.  Each
    job's bundle is cold-started ``BOOTS_PER_JOB`` times, and one pass of
    Poisson windows over it gives the simulated metrics and output checks.
    """
    short = mode == "short"
    data_ss, model_ss, arrival_ss, job_ss = _seeds(seed)
    trainer_seed = int(job_ss.generate_state(1)[0])
    tally = Tally()
    setup_s = []
    weights = None
    for _ in range(SETUPS[mode]):
        start = time.perf_counter()
        data = _mixture(np.random.default_rng(data_ss), short)
        dense = _pretrained_mlp(np.random.default_rng(model_ss), data, short, trainer_seed)
        setup_s.append(time.perf_counter() - start)
        snapshot = [p.value.copy() for p in dense.parameters()]
        if weights is not None and not all(map(np.array_equal, weights, snapshot)):
            tally.record(0, 1, "set-up is not deterministic: pre-trained weights differ")
        weights = snapshot

    jobs_s, accuracies = [], []
    last = None
    tracer = Tracer() if trace else None

    def one_job(traced: bool):
        nonlocal last
        bundle = workdir / f"job{len(jobs_s)}"
        start = time.perf_counter()
        if traced:
            with tracer.installed(), tracer.span("compress.job"):
                result = _job(dense, data, short, trainer_seed, bundle)
        else:
            result = _job(dense, data, short, trainer_seed, bundle)
        jobs_s.append(time.perf_counter() - start)
        last = result
        accuracies.append(result.report.finetuned_metric)
        tally.record(1, 0 if result.report.verified else 1, f"{bundle.name}: bundle not verified")
        if accuracies[-1] != accuracies[0]:
            tally.record(0, 1, f"{bundle.name}: accuracy drifted from the first job")

    bundle = pool = booted = None
    cold_ms = []

    def boot():
        server, output, boot_ms = cold_start(
            bundle, pool.windows[0][0][0], COMPRESS_QUEUE_CAPACITY, tally
        )
        if server is not None:
            cold_ms.append(boot_ms)
            check_rows(output[None, :], pool.reference[0][:1], pool.expected[0][:1],
                       tally, f"cold-start probe of {bundle.name}")
        return server

    started = time.perf_counter()
    while True:
        one_job(traced=trace and len(jobs_s) == 2)
        bundle = Path(last.bundle_dir)
        if pool is None:
            # The held-out rows, repeated under fresh arrivals: p99 needs
            # many micro-batches.
            rows = np.tile(data[2], (1 if short else COMPRESS_POOL_REPEATS, 1))
            pool = make_pool(rows[: (rows.shape[0] // WINDOW) * WINDOW],
                             np.random.default_rng(arrival_ss), COMPRESS_RATE_RPS)
            fill_references(pool, last.model, None, _forward)
        # Cold starts sampled between jobs see the whole run's host.
        for _ in range(BOOTS_PER_JOB):
            booted = boot() or booted
        if trace:
            # The first job of a process pays one-off costs: the traced
            # third job is compared with the warm untraced second one.
            if len(jobs_s) == 3:
                break
        elif (len(jobs_s) >= MIN_JOBS[mode]
              and time.perf_counter() - started + statistics.median(jobs_s) > seconds):
            break
    if booted is None:
        raise BenchmarkError(f"compress-fc: no boot succeeded: {tally.problems}")
    # One pass of the factory's bundle: simulated metrics and output checks.
    loop = serve_loop(booted.layers, pool, 0.0, COMPRESS_QUEUE_CAPACITY, tally,
                      inject=inject)
    metrics = sim_metrics(loop.sims, booted.cycles_per_us)
    details = {"jobs": len(jobs_s), "windows": len(loop.sizes), "setups": len(setup_s),
               "boots": len(cold_ms), "compression_ratio": last.report.compression_ratio,
               "littles_law_population": littles_law(loop.sims, COMPRESS_RATE_RPS)}
    if trace:
        roots = [i for i, s in enumerate(tracer.spans) if s.name == "compress.job"]
        metrics.update(layer_metrics(tracer, roots, len(roots)))
        metrics["trace.overhead_frac"] = jobs_s[2] / jobs_s[1] - 1.0
    else:
        # The factory's unit of work is a job: its host metrics are per job.
        job_ms = np.asarray(jobs_s) * 1e3
        metrics.update({
            "host_rps": len(jobs_s) / float(np.sum(jobs_s)),
            "latency_p50_ms": float(np.percentile(job_ms, 50)),
            "latency_p90_ms": float(np.percentile(job_ms, 90)),
            "cold_start_ms": statistics.median(cold_ms),
            "compress_s": statistics.median(jobs_s),
            "finetuned_accuracy": accuracies[0],
            "setup_s": statistics.median(setup_s),
        })
    metrics["peak_rss_mb"] = peak_rss_mb()
    return Outcome(metrics, tally, details, [tracer] if trace else [])


def run_workload(name: str, seed: int, seconds: float, trace: bool, mode: str,
                 workdir: Path, inject: Callable | None = None) -> Outcome:
    """Run one workload with values stored as ``VALUE_DTYPE``.

    The pin is cleared afterwards, so in a longer-lived process (the
    tests) ``REPRO_VALUE_DTYPE`` or float64 is the default again.
    """
    set_default_value_dtype(VALUE_DTYPE)
    try:
        if name == "compress-fc":
            return run_compress(seed, seconds, trace, mode, workdir, inject)
        return run_serving(name, seed, seconds, trace, mode, workdir, inject)
    finally:
        set_default_value_dtype(None)
