"""scipy sparse backend: products over the stored values in place.

Each product runs as a cached ``scipy.sparse.coo_matrix`` of the padded
``(mb*p, nb*p)`` weight whose value array *is* the stored ``q`` vector
(``data.reshape(-1)``, a view) and whose int32 coordinates are pure
functions of ``(ks, p)`` from the index plan.  ``W.T`` is the same view
with the coordinates swapped.  Nothing is gathered, copied or sorted per
call -- the PermDNN engine likewise reads ``q`` in place (Sec. III,
Fig. 4) -- so in-place weight updates are always reflected; ``int16``
codes are decoded per call.  Inputs are zero-padded to the padded width in
the ``(width, B)`` operand scipy needs anyway and outputs cut to the
logical height; see
:meth:`~repro.core.block_perm_diag.BlockPermutedDiagonalMatrix._coo` for
why this is bit-identical to a CSR over the in-bounds slots.  Values live
in the matrix's compute dtype: float32 storage runs scipy's float32
product end to end (half the memory traffic), everything else the float64
reference arithmetic.  The backend keeps its historical name ``csr``.

The weight gradient is the shared
:func:`~repro.core.backends.gather.batched_grad_data`: its output is the
dense ``(mb, nb, p)`` value array, which a sparse product cannot produce
directly, so for small ``p`` it runs as dense BLAS slab products plus a
slot pick and for large ``p`` as gathers along the plan's column skeleton.
"""

from __future__ import annotations

import numpy as np

from repro.core.backends.base import KernelBackend
from repro.core.backends.gather import batched_grad_data

__all__ = ["CsrBackend"]


def _product(mat, x: np.ndarray, height: int) -> np.ndarray:
    """``(mat @ x.T)[:height].T`` for a ``(B, k)`` batch, ``x`` zero-padded
    to ``mat``'s width."""
    x_t = x.T
    width = mat.shape[1]
    if x.shape[1] != width:
        x_t = np.zeros((width, x.shape[0]), dtype=x.dtype)
        x_t[: x.shape[1]] = x.T
    return np.ascontiguousarray((mat @ x_t)[:height].T)


class CsrBackend(KernelBackend):
    """Products through ``scipy.sparse`` views of ``W`` and ``W.T``."""

    name = "csr"

    @classmethod
    def is_available(cls) -> bool:
        # Consult the module attribute (not a fresh import) so tests that
        # monkeypatch ``block_perm_diag._scipy_sparse`` see the backend
        # become unavailable.
        from repro.core import block_perm_diag

        return block_perm_diag._scipy_sparse is not None

    def matmat(self, matrix, x: np.ndarray) -> np.ndarray:
        return _product(matrix._coo(False), x, matrix.shape[0])

    def rmatmat(self, matrix, y: np.ndarray) -> np.ndarray:
        return _product(matrix._coo(True), y, matrix.shape[1])

    def grad_data(self, matrix, x: np.ndarray, dy: np.ndarray) -> np.ndarray:
        return batched_grad_data(matrix, x, dy)
