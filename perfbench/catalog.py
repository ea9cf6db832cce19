"""The clock of every metric, and the layer metrics expected to move it.

Names, units, directions and bounds live only in ``BENCHMARK.json`` at the
repository root; :func:`load` reads them.  What its schema has no room
for is kept here: the clock each metric is measured on (``CLOCKS``) and,
as comments, the layer metrics expected to move each end-to-end metric.

Clocks: ``host`` is wall time of this Python process; ``sim`` is the
engine model's simulated clock (cycles at the configured frequency),
which repeats exactly at a fixed seed; ``none`` marks counts and ratios
that are not times.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

CLOCKS = {
    # -- end to end -----------------------------------------------------
    # Served requests per host second of submit+drain calls (compress-fc:
    # factory jobs per host second).  Moved by core.matmat.busy_ms on
    # fc-poisson; serve.stage<i>.self_ms and hw.run_fc_batch.self_ms on
    # conv-poisson and lstm-poisson.
    "host_rps": "host",
    # Per-request latency: wall time of the drain() that served it
    # (compress-fc: wall time of a factory job).  Moved by
    # core.matmat.busy_ms on fc-poisson, serve.drain.self_ms on
    # lstm-poisson.
    "latency_p50_ms": "host",
    "latency_p90_ms": "host",
    # ModelServer.from_bundle on a bundle made in the run to the first
    # single-request drain() returning; median of the run's boots.  Moved
    # by serve.from_bundle_ms.
    "cold_start_ms": "host",
    # max_batch / full-batch bottleneck stage time.  Moved by
    # hw.sim_cycles_per_req and hw.shard_imbalance.
    "sim_capacity_rps": "sim",
    # p99 of ServeReport.latencies_us over the first pass of windows.
    # Moved by serve.batch_size_mean, serve.queue_p99_us and
    # hw.sim_cycles_per_req.
    "sim_p99_us": "sim",
    # Host seconds per factory job: compress_model on compress-fc, the
    # bundle export alone on the serving workloads.  Moved by
    # core.matmat/rmatmat/grad_data.busy_ms, nn.fit.busy_ms,
    # compress.convert/verify.busy_ms and serve.export_ms.
    "compress_s": "host",
    # Top-1 accuracy after fine-tuning on compress-fc; top-1 agreement of
    # served rows with the model's own forward on the serving workloads.
    # A host-only change must leave it bit-identical.
    "finetuned_accuracy": "none",
    # Median of the run's set-ups.  Moved by serve.export_ms and
    # serve.from_bundle_ms.
    "setup_s": "host",
    "peak_rss_mb": "host",
    # -- per layer: host ms per served request (per job on compress-fc) --
    "serve.drain.busy_ms": "host",
    "serve.drain.self_ms": "host",
    **{f"serve.stage{i}.{kind}_ms": "host" for i in range(4) for kind in ("busy", "self")},
    "serve.from_bundle_ms": "host",
    "serve.export_ms": "host",
    "serve.batch_size_mean": "sim",
    "serve.queue_p99_us": "sim",
    "hw.run_fc_batch.calls": "none",
    "hw.run_fc_batch.self_ms": "host",
    "hw.sim_cycles_per_req": "sim",
    "hw.macs_per_req": "sim",
    "hw.shard_imbalance": "sim",
    "core.matmat.calls": "none",
    "core.matmat.busy_ms": "host",
    # Bytes computed from array sizes (values, int32 CSR indices, input,
    # output) per matmat second.
    "core.matmat.gbps": "host",
    "core.rmatmat.busy_ms": "host",
    "core.grad_data.busy_ms": "host",
    "nn.fit.busy_ms": "host",
    "nn.evaluate.busy_ms": "host",
    "compress.convert.busy_ms": "host",
    "compress.verify.busy_ms": "host",
    "compress.job.busy_ms": "host",
    # Self time of every <layer>.* span; the five add up to the root span
    # (drain, or factory job).
    **{f"layer.{layer}.self_ms": "host" for layer in ("serve", "hw", "core", "nn", "compress")},
    # Untraced over traced host_rps minus 1 (compress-fc: traced over
    # untraced job time minus 1).
    "trace.overhead_frac": "host",
}


def load(spec: Path = SPEC) -> tuple[list[dict], list[dict]]:
    """``(end_to_end, per_layer)`` metric entries from ``BENCHMARK.json``."""
    data = json.loads(spec.read_text(encoding="utf-8"))
    return data["end_to_end"], data["per_layer"]
