"""Pure-numpy gather/einsum backend (always available).

This is the scipy-free execution path: products run as fancy-indexing
gathers against the cached index plan followed by an einsum contraction.

Small problems use a single batch-major gather.  Once the gathered
temporary would exceed :data:`_CHUNK_TARGET_ELEMENTS` (or the
``repro.core.block_perm_diag._GATHER_ELEMENT_LIMIT`` cap), products switch
to a **cache-blocked transposed orientation**: operands are transposed
once so every gather reads contiguous ``(batch,)``-rows, and block rows
are processed in chunks sized to keep each gathered slab resident in
cache.  At (m=n=4096, p=64, batch=128) this runs the whole backward
roughly 4x faster than the one-shot gather it replaces.

The batched weight gradient implemented here is shared by the other CPU
backends (see :class:`~repro.core.backends.csr.CsrBackend`) and picks one
of two paths on the block size.  For ``p <= 12`` (:data:`_GEMM_GRAD_MAX_P`,
which covers Table II's FC layers and every compression-zoo entry) each
block-row slab is one dense BLAS product ``dy_t[slab rows] @ x`` followed
by a pick of every stored slot at ``(local row, plan.cols)``: ``p`` times
the multiply-adds, but at BLAS speed and with no ``nnz x B`` gathered
temporary.  For larger ``p`` the extra multiply-adds lose, and the whole
batch is contracted against cache-blocked gathers of ``x`` along the
plan's column skeleton, with the ``dy`` side expressed as a broadcast
over block columns instead of a second ``nnz x B`` gather.
"""

from __future__ import annotations

import numpy as np

from repro.core.backends.base import KernelBackend

__all__ = ["GatherBackend", "batched_grad_data"]

# Below this many gathered float64 elements a product runs as one
# batch-major gather; above it, the cache-blocked transposed path wins.
_ONESHOT_LIMIT_ELEMENTS = 1 << 20

# Target size (in gathered float64 elements, ~0.5 MB) of one slab of the
# cache-blocked path; chosen so slab + einsum output stay cache resident
# (measured fastest across 512..4096-wide layers, see docs/BENCHMARKS.md).
_CHUNK_TARGET_ELEMENTS = 1 << 16

# Largest block size whose weight gradient runs as a dense slab GEMM plus
# a slot pick rather than a gather.  The GEMM costs a dense m*n*B product
# whatever p is, while the gather shrinks as 1/p: at p <= 12 the GEMM
# measured 0.16-0.85x the gather's time, and from p = 16 up the ratio
# rose above 1 under host load (see docs/BENCHMARKS.md).
_GEMM_GRAD_MAX_P = 12


def _element_limit() -> int:
    # Read dynamically so tests can monkeypatch the module constant.
    from repro.core import block_perm_diag

    return block_perm_diag._GATHER_ELEMENT_LIMIT


def _oneshot_limit() -> int:
    return min(_ONESHOT_LIMIT_ELEMENTS, _element_limit())


def _chunk_rows(block_rows: int, per_row: int) -> int:
    """Block rows per chunk so one gathered slab stays cache resident."""
    cap = min(_CHUNK_TARGET_ELEMENTS, _element_limit())
    return max(1, min(block_rows, cap // max(per_row, 1)))


def _pad_columns_t(arr_t: np.ndarray, width: int) -> np.ndarray:
    """Transposed operand widened with zero rows (no copy when aligned).

    Allocated at the operand's own dtype: a dtype-less ``np.zeros`` here
    would silently upcast every float32 product to float64 (RPR009).
    """
    if arr_t.shape[0] == width:
        return arr_t
    pad = np.zeros((width, arr_t.shape[1]), dtype=arr_t.dtype)
    pad[: arr_t.shape[0]] = arr_t
    return pad


def _grad_gemm(matrix, plan, x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Small-``p`` weight gradient: one BLAS product per block-row slab,
    then a slot pick.

    Each slab computes the dense ``dy_t[slab rows] @ x_pad`` -- ``p`` times
    the multiply-adds of the stored slots, but at BLAS speed and with no
    ``nnz x B`` gathered temporary -- and keeps only the entry at ``(local
    row, plan.cols)`` of every stored slot.  Slabs are capped at
    :func:`_oneshot_limit` elements (at least one block row).
    """
    p = matrix.p
    width = matrix.nb * p
    if not plan.aligned_n:
        x_pad = np.zeros((x.shape[0], width), dtype=x.dtype)
        x_pad[:, : x.shape[1]] = x
        x = x_pad
    # Zero rows past ``m``: padded rows then yield exact zeros.
    dy_t = _pad_columns_t(dy.T, matrix.mb * p)
    rows = max(1, min(matrix.mb, _oneshot_limit() // (p * width)))
    # Flat offset of every slot's (local row, 0) inside one slab product.
    row_base = np.arange(0, rows * p * width, width).reshape(rows, 1, p)
    grad = np.empty(matrix.data.shape, dtype=np.result_type(x, dy))
    for start in range(0, matrix.mb, rows):
        stop = min(start + rows, matrix.mb)
        slab = dy_t[start * p : stop * p] @ x
        grad[start:stop] = np.take(
            slab, plan.cols[start:stop] + row_base[: stop - start]
        )
    return grad


def _grad_gather(matrix, plan, x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Large-``p`` weight gradient: cache-blocked gathers of ``x``.

    Transposed gathers of ``x`` against ``plan.cols`` serve the entire
    batch; the ``dy`` factor never needs gathering because in block order
    its rows are exactly ``dy.T`` reshaped to ``(mb, p, B)`` and broadcast
    over ``nb``.
    """
    batch = x.shape[0]
    # Transposed orientation: gathers read contiguous (batch,)-rows of
    # ``x.T`` instead of strided columns of ``x``.
    x_t = _pad_columns_t(np.ascontiguousarray(x.T), matrix.nb * matrix.p)
    dy_t = _pad_columns_t(np.ascontiguousarray(dy.T), matrix.mb * matrix.p)
    dy_blocks = dy_t.reshape(matrix.mb, matrix.p, batch)
    if batch * plan.cols.size <= _oneshot_limit():
        gathered = x_t[plan.flat_cols].reshape(
            matrix.mb, matrix.nb, matrix.p, batch
        )
        return np.einsum("icb,ijcb->ijc", dy_blocks, gathered)
    rows = _chunk_rows(matrix.mb, matrix.nb * matrix.p * batch)
    grad = np.empty(matrix.data.shape, dtype=np.result_type(x_t, dy_t))
    for start in range(0, matrix.mb, rows):
        stop = min(start + rows, matrix.mb)
        gathered = x_t[plan.cols[start:stop].reshape(-1)].reshape(
            stop - start, matrix.nb, matrix.p, batch
        )
        grad[start:stop] = np.einsum(
            "icb,ijcb->ijc", dy_blocks[start:stop], gathered
        )
    return grad


def batched_grad_data(matrix, x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Weight gradient for a whole batch off the shared column skeleton.

    ``dq[bi, bj, c] = sum_b dy[b, bi*p+c] * x[b, col(bi, bj, c)]`` (Eqn.
    (2)).  Up to :data:`_GEMM_GRAD_MAX_P` the dense slab product plus a
    slot pick (:func:`_grad_gemm`) beats gathering; above it the
    ``p``-fold extra multiply-adds lose to the cache-blocked gather
    (:func:`_grad_gather`).  The gradient is w.r.t. the *logical* weights,
    in the compute dtype of the operands -- never the storage dtype (which
    may be int16 codes that could not hold a gradient at all).
    """
    plan = matrix._get_plan()
    if matrix.p <= _GEMM_GRAD_MAX_P:
        grad = _grad_gemm(matrix, plan, x, dy)
    else:
        grad = _grad_gather(matrix, plan, x, dy)
    if plan.full_support:
        return grad
    return grad * plan.support


class GatherBackend(KernelBackend):
    """Fancy-indexing + einsum products with no dependency beyond numpy."""

    name = "gather"

    def matmat(self, matrix, x: np.ndarray) -> np.ndarray:
        plan = matrix._get_plan()
        batch = x.shape[0]
        data = matrix._kernel_data()
        if batch * plan.cols.size <= _oneshot_limit():
            # Small problem: one batch-major gather, no transposes.
            if plan.aligned_n:
                x_pad = x  # aligned fast path: no zero-padded copy
            else:
                x_pad = np.zeros((batch, matrix.nb * matrix.p), dtype=x.dtype)
                x_pad[:, : x.shape[1]] = x
            gathered = x_pad[:, plan.flat_cols].reshape(
                batch, matrix.mb, matrix.nb, matrix.p
            )
            y_blocks = np.einsum("ijc,bijc->bic", data, gathered)
            return y_blocks.reshape(batch, matrix.mb * matrix.p)[
                :, : matrix.shape[0]
            ]
        x_t = _pad_columns_t(np.ascontiguousarray(x.T), matrix.nb * matrix.p)
        rows = _chunk_rows(matrix.mb, matrix.nb * matrix.p * batch)
        y_t = np.empty(
            (matrix.mb, matrix.p, batch), dtype=np.result_type(data, x_t)
        )
        for start in range(0, matrix.mb, rows):
            stop = min(start + rows, matrix.mb)
            gathered = x_t[plan.cols[start:stop].reshape(-1)].reshape(
                stop - start, matrix.nb, matrix.p, batch
            )
            y_t[start:stop] = np.einsum(
                "ijc,ijcb->icb", data[start:stop], gathered
            )
        out = y_t.reshape(matrix.mb * matrix.p, batch)[: matrix.shape[0]]
        return np.ascontiguousarray(out.T)

    def rmatmat(self, matrix, y: np.ndarray) -> np.ndarray:
        plan = matrix._get_plan()
        batch = y.shape[0]
        t_src, t_cols = plan.transpose_arrays()
        data_flat = matrix._kernel_data().ravel()
        if batch * t_cols.size <= _oneshot_limit():
            if plan.aligned_m:
                y_pad = y  # aligned fast path: no zero-padded copy
            else:
                y_pad = np.zeros((batch, matrix.mb * matrix.p), dtype=y.dtype)
                y_pad[:, : y.shape[1]] = y
            data_t = data_flat[t_src]
            gathered = y_pad[:, t_cols.reshape(-1)].reshape(
                batch, matrix.nb, matrix.mb, matrix.p
            )
            x_blocks = np.einsum("jic,bjic->bjc", data_t, gathered)
            return x_blocks.reshape(batch, matrix.nb * matrix.p)[
                :, : matrix.shape[1]
            ]
        y_t = _pad_columns_t(np.ascontiguousarray(y.T), matrix.mb * matrix.p)
        rows = _chunk_rows(matrix.nb, matrix.mb * matrix.p * batch)
        x_t = np.empty(
            (matrix.nb, matrix.p, batch),
            dtype=np.result_type(data_flat, y_t),
        )
        for start in range(0, matrix.nb, rows):
            stop = min(start + rows, matrix.nb)
            gathered = y_t[t_cols[start:stop].reshape(-1)].reshape(
                stop - start, matrix.mb, matrix.p, batch
            )
            x_t[start:stop] = np.einsum(
                "jic,jicb->jcb", data_flat[t_src[start:stop]], gathered
            )
        out = x_t.reshape(matrix.nb * matrix.p, batch)[: matrix.shape[1]]
        return np.ascontiguousarray(out.T)

    def grad_data(self, matrix, x: np.ndarray, dy: np.ndarray) -> np.ndarray:
        return batched_grad_data(matrix, x, dy)
