"""Hot-path throughput of the block-PD kernel across (m, n, p, batch) grids.

Measures the three products every training step pays --

- forward: ``Y = matmat(X)``;
- backward: ``dX = rmatmat(dY)`` plus ``dQ = grad_data(X, dY)``;

-- through the cached index plan and the selected kernel backend, and
compares against a frozen **naive** baseline: a fresh structured matrix
per call (indices and support recomputed from scratch) whose input
gradient goes through a materialized ``transpose()`` object.
``bwd_speedup`` against it is the tracked regression metric for the
kernel cache.

Usage::

    python benchmarks/bench_kernel_hotpath.py                     # full grid
    python benchmarks/bench_kernel_hotpath.py --smoke             # CI canary
    python benchmarks/bench_kernel_hotpath.py --backend gather    # pin backend
    python benchmarks/bench_kernel_hotpath.py --compare-backends  # per-backend table
    python benchmarks/bench_kernel_hotpath.py --dtype float32     # reduced precision
    python benchmarks/bench_kernel_hotpath.py --dtype all         # dtype sweep table

The ``--dtype`` axis times the value-storage modes (float64 default,
float32 storage+compute, int16 fixed-point codes decoded into float64
accumulation).  The naive baseline always runs at float64 -- it
replicates pre-dtype-storage code, which *was* float64 -- so the speedup
column folds in whatever the reduced-precision storage buys.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from _common import emit, format_table
from repro.core import BlockPermutedDiagonalMatrix, available_backends

# (m, n, p, batch); the (4096, 4096, 64, 128) point is the acceptance grid.
# The weight gradient runs as a slab GEMM for p <= 12 and as a gather
# above that, so each grid holds points on both sides of the cutoff.
FULL_GRID = [
    (512, 512, 16, 32),
    (1024, 1024, 32, 64),
    (2048, 1024, 32, 128),
    (4096, 4096, 64, 128),
    (2048, 4608, 10, 64),  # AlexNet FC6 at 1/2 width, Table II's p
]
SMOKE_GRID = [
    (128, 128, 8, 16),
    (130, 96, 8, 16),  # non-multiple-of-p shapes keep the padded path honest
    (128, 128, 16, 16),
]


def _time(fn, reps: int, warmup: int = 1) -> float:
    """Best-of-``reps`` wall time of ``fn`` in seconds."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _naive_backward(matrix: BlockPermutedDiagonalMatrix, x, dy) -> None:
    """Faithful replica of the pre-plan (PR 0) backward step.

    Before the index-plan cache the backward pass (a) materialized a brand
    new ``transpose()`` matrix object whose indices were recomputed from
    scratch, (b) ran the input gradient as a batch-major gather + einsum,
    and (c) zero-padded ``x``/``dy`` unconditionally in ``grad_data`` and
    re-derived the gather columns and support mask per call.  Reproduced
    here verbatim so ``bwd_speedup`` measures the kernel-cache win.
    """
    # (a) + (b): dx = W.T @ dy through a freshly-built transpose object
    fresh = BlockPermutedDiagonalMatrix(matrix.data, matrix.ks, shape=matrix.shape)
    transposed = fresh.transpose()
    t_plan = transposed._get_plan()
    batch = dy.shape[0]
    dy_pad = np.zeros((batch, transposed.nb * transposed.p))
    dy_pad[:, : dy.shape[1]] = dy
    gathered = dy_pad[:, t_plan.cols.reshape(-1)].reshape(
        batch, transposed.mb, transposed.nb, transposed.p
    )
    np.einsum("ijc,bijc->bic", transposed.data, gathered)
    # (c): dq with unconditional pads, batch-major gather, per-call masking
    plan = fresh._get_plan()
    x_pad = np.zeros((batch, fresh.nb * fresh.p))
    x_pad[:, : x.shape[1]] = x
    dy_pad = np.zeros((batch, fresh.mb * fresh.p))
    dy_pad[:, : dy.shape[1]] = dy
    dy_blocks = dy_pad.reshape(batch, fresh.mb, fresh.p)
    gathered = x_pad[:, plan.cols.reshape(-1)].reshape(
        batch, fresh.mb, fresh.nb, fresh.p
    )
    np.einsum("bic,bijc->ijc", dy_blocks, gathered) * plan.support


def bench_point(
    m: int,
    n: int,
    p: int,
    batch: int,
    reps: int,
    backend: str | None,
    value_dtype: str = "float64",
) -> tuple:
    rng = np.random.default_rng(0)
    base = BlockPermutedDiagonalMatrix.random((m, n), p, rng=rng, backend=backend)
    matrix = (
        base if value_dtype == "float64" else base.with_value_dtype(value_dtype)
    )
    # Inputs arrive in the kernel's compute dtype (the serving path hands
    # float32 activations to a float32 layer); baselines stay float64.
    x64 = rng.normal(size=(batch, n))
    dy64 = rng.normal(size=(batch, m))
    x = x64.astype(matrix.compute_dtype)
    dy = dy64.astype(matrix.compute_dtype)

    fwd_s = _time(lambda: matrix.matmat(x), reps)
    bwd_s = _time(
        lambda: (matrix.rmatmat(dy), matrix.grad_data(x, dy)), reps
    )
    grad_s = _time(lambda: matrix.grad_data(x, dy), reps)
    naive_s = _time(lambda: _naive_backward(base, x64, dy64), reps)

    # A forward touches batch * nnz multiply-accumulates; the backward pair
    # touches twice that.  Report effective GMAC/s on the stored weights.
    macs = batch * matrix.nnz
    fwd_gmacs = macs / fwd_s / 1e9
    bwd_gmacs = 2 * macs / bwd_s / 1e9
    return (
        m,
        n,
        p,
        batch,
        matrix.resolved_backend(),
        value_dtype,
        f"{fwd_s * 1e3:.2f}",
        f"{fwd_gmacs:.2f}",
        f"{bwd_s * 1e3:.2f}",
        f"{bwd_gmacs:.2f}",
        f"{grad_s * 1e3:.2f}",
        f"{naive_s * 1e3:.2f}",
        f"{naive_s / bwd_s:.2f}x",
    )


HEADERS = [
    "m",
    "n",
    "p",
    "batch",
    "backend",
    "dtype",
    "fwd_ms",
    "fwd_GMAC/s",
    "bwd_ms",
    "bwd_GMAC/s",
    "grad_ms",
    "naive_bwd_ms",
    "bwd_speedup",
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny grid + few reps: a fast CI regression canary",
    )
    parser.add_argument(
        "--reps", type=int, default=None, help="timing repetitions per point"
    )
    parser.add_argument(
        "--backend",
        default=None,
        choices=("auto", "gather", "csr", "numba"),
        help="pin the kernel backend under test (default: auto selection)",
    )
    parser.add_argument(
        "--compare-backends",
        action="store_true",
        help="run every available backend per grid point and emit a "
        "side-by-side table (bench_kernel_backends.txt)",
    )
    parser.add_argument(
        "--dtype",
        default="float64",
        choices=("float64", "float32", "int16", "all"),
        help="value-storage dtype under test; 'all' sweeps every mode per "
        "grid point and emits bench_kernel_dtypes.txt",
    )
    args = parser.parse_args()
    grid = SMOKE_GRID if args.smoke else FULL_GRID
    reps = args.reps if args.reps is not None else (2 if args.smoke else 5)
    if reps < 1:
        parser.error("--reps must be >= 1")
    if args.compare_backends and args.dtype == "all":
        parser.error("--compare-backends sweeps backends; pick one --dtype")

    if args.compare_backends:
        rows = []
        for point in grid:
            for backend in available_backends():
                rows.append(bench_point(*point, reps, backend, args.dtype))
        emit("bench_kernel_backends", format_table(HEADERS, rows))
        return

    backend = None if args.backend in (None, "auto") else args.backend
    if backend is not None and backend not in available_backends():
        parser.error(
            f"backend {backend!r} is not available on this machine "
            f"(available: {', '.join(available_backends())})"
        )
    if args.dtype == "all":
        rows = [
            bench_point(*point, reps, backend, value_dtype)
            for point in grid
            for value_dtype in ("float64", "float32", "int16")
        ]
        emit("bench_kernel_dtypes", format_table(HEADERS, rows))
        return
    rows = [bench_point(*point, reps, backend, args.dtype) for point in grid]
    emit("bench_kernel_hotpath", format_table(HEADERS, rows))


if __name__ == "__main__":
    main()
