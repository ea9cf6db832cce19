"""Batched, sharded multi-engine serving on top of engine images.

The deployment layer of the reproduction: a multi-layer PD model executes
across an array of :class:`~repro.hw.PermDNNEngine` instances, each layer
row-sharded so every engine owns a contiguous block-row slice (the cached
index plan is *sliced*, never recomputed, and shard values alias the layer
storage).  Requests flow through a micro-batching queue and micro-batches
pipeline between the per-layer shard arrays.

- :class:`ModelServer` -- submit / submit_many / drain front end with
  per-layer, per-shard and per-request statistics, plus admission
  control (bounded queue, reject-newest shedding) for graceful
  degradation past the saturation knee.
- :class:`ServedStage` -- the stage protocol, with three
  implementations: :class:`ShardedLayer` (one FC layer split across
  shard engines), :class:`LoweredConvStage` (a PD convolution lowered
  to per-offset FC batches, row-sharded over output channels), and
  :class:`RecurrentStage` (one LSTM-cell timestep, gate matrices
  row-sharded over hidden units).
- :class:`MicroBatcher` / :class:`BatchAssembler` / :class:`Request` /
  :class:`MicroBatch` -- the deterministic, order-preserving batching
  queue (offline plan and streaming forms).
- :mod:`repro.serve.traffic` -- seeded open-loop arrival processes
  (deterministic / Poisson / bursty / diurnal) for tail-latency
  benchmarking.
- :func:`export_model_bundle` / :func:`export_staged_bundle` /
  :func:`load_staged_bundle` -- one engine image per shard plus a
  manifest; cold starts never build an index plan.
- :func:`run_serving_benchmark` / :func:`run_open_loop_sweep` -- the
  closed-loop and open-loop measurements behind ``repro serve-bench``
  and ``benchmarks/bench_serving.py``, including
  :func:`max_sustainable_qps` knee finding under an SLO.
"""

from repro.serve.batching import BatchAssembler, MicroBatch, MicroBatcher, Request
from repro.serve.bench import (
    MixedClassStats,
    MixedTrafficReport,
    OpenLoopPoint,
    OpenLoopReport,
    ServingBenchReport,
    WorkloadMatrixRow,
    WorkloadSpec,
    build_alexnet_fc_stack,
    build_workload,
    format_mixed_report,
    format_open_loop_report,
    format_report,
    format_workload_matrix,
    make_requests,
    max_sustainable_qps,
    run_mixed_traffic,
    run_open_loop_point,
    run_open_loop_sweep,
    run_serving_benchmark,
    run_serving_sweep,
    run_workload_matrix,
    workload_names,
)
from repro.serve.bundle import (
    export_model_bundle,
    export_staged_bundle,
    load_staged_bundle,
)
from repro.nn.serialization import UnsupportedLayerError
from repro.serve.server import (
    EmptyServeReportError,
    LayerShardStats,
    LoweredConvStage,
    ModelServer,
    RecurrentStage,
    ServeReport,
    ServedStage,
    ShardedLayer,
    build_stages,
)
from repro.serve.traffic import (
    ArrivalProcess,
    BurstyArrivals,
    DeterministicArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    UnknownArrivalProcessError,
    arrival_process_names,
    make_arrival_process,
)

__all__ = [
    "ArrivalProcess",
    "BatchAssembler",
    "BurstyArrivals",
    "DeterministicArrivals",
    "DiurnalArrivals",
    "EmptyServeReportError",
    "LayerShardStats",
    "MixedClassStats",
    "MixedTrafficReport",
    "LoweredConvStage",
    "MicroBatch",
    "MicroBatcher",
    "ModelServer",
    "OpenLoopPoint",
    "OpenLoopReport",
    "PoissonArrivals",
    "RecurrentStage",
    "Request",
    "ServeReport",
    "ServedStage",
    "ServingBenchReport",
    "ShardedLayer",
    "UnknownArrivalProcessError",
    "UnsupportedLayerError",
    "WorkloadMatrixRow",
    "WorkloadSpec",
    "arrival_process_names",
    "build_alexnet_fc_stack",
    "build_stages",
    "build_workload",
    "export_model_bundle",
    "export_staged_bundle",
    "format_mixed_report",
    "format_open_loop_report",
    "format_report",
    "format_workload_matrix",
    "load_staged_bundle",
    "make_requests",
    "make_arrival_process",
    "max_sustainable_qps",
    "run_mixed_traffic",
    "run_open_loop_point",
    "run_open_loop_sweep",
    "run_serving_benchmark",
    "run_serving_sweep",
    "run_workload_matrix",
    "workload_names",
]
