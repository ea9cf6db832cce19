"""Block-permuted diagonal matrices: the paper's weight representation.

An ``m x n`` weight matrix is tiled with ``p x p`` permuted diagonal blocks
(Eqn. (1)).  Only the ``m*n/p`` diagonal values (the ``q`` vector) and one
small integer per block (``k_l``) are stored; non-zero *positions* are
recomputed arithmetically, which is the property the PermDNN hardware
exploits to eliminate index storage.

When ``m`` or ``n`` is not a multiple of ``p`` the matrix is zero-padded
(footnote 3 of the paper); padded positions are forced to zero and excluded
from storage accounting.

Index-plan cache
----------------
Because non-zero positions are arithmetically derivable, every index
artifact -- the global row/column of each stored slot, the support mask,
the forward gather columns, the transposed gather pair, and the CSR
skeletons used by the sparse products -- is a pure function of the
*structure* ``(ks, shape, p)`` and never of the values.  Each is computed
once, lazily, in ``O(N)`` and without sorting, in an :class:`_IndexPlan`
cached on the matrix;
every product (:meth:`~BlockPermutedDiagonalMatrix.matmat`,
:meth:`~BlockPermutedDiagonalMatrix.rmatmat`,
:meth:`~BlockPermutedDiagonalMatrix.grad_data`, ...) reads the plan instead
of rebuilding indices, and the backward path is transpose-free: no
intermediate :meth:`~BlockPermutedDiagonalMatrix.transpose` object is
materialized per call.

Structure is immutable through attribute access (``ks`` is exposed
read-only and ``shape`` is a plain property).  The sanctioned mutation API
is :meth:`~BlockPermutedDiagonalMatrix.set_structure`, which re-validates,
re-masks the stored values, and invalidates the cached plan.  Matrices
sharing one structure (e.g. the per-offset channel matrices of a lowered
convolution) can share a single plan via
:meth:`~BlockPermutedDiagonalMatrix.like`.

Value storage
-------------
Orthogonally to the index structure, the stored values live in one of
three ``value_dtype`` modes (see :mod:`repro.core.value_types`):
``"float64"`` (default, the conformance reference), ``"float32"`` (half
the hot-path memory traffic; products run end to end in float32), and
``"int16"`` (fixed-point codes in a
:class:`~repro.nn.quantization.FixedPointFormat`).  Kernels read values
through :meth:`~BlockPermutedDiagonalMatrix._kernel_data`, which hands
them the storage array for the float modes and the codes dequantized to
float64 for ``int16`` -- the power-of-two scale makes dequantize-then-
accumulate bitwise equal to accumulate-then-scale, so backends carry no
scaling logic.  Accumulation policy: float64 and int16 products
accumulate in float64 (int16 is the software analogue of the paper's
16-bit weights feeding wide accumulators); float32 accumulates in
float32, which is where its speedup comes from.
:meth:`~BlockPermutedDiagonalMatrix.with_value_dtype` converts between
modes while sharing the cached index plan.

Aliasing contract
-----------------
Assigning ``data`` (including at construction) **aliases** the supplied
array -- no copy -- whenever it is already in the storage dtype with a
zeroed padding region, which is always true for shapes divisible by
``p``.  A masked copy is made only when padding actually zeroes
something (and a cast copy when the dtype differs).  Consumers rely on
the alias:
:class:`~repro.nn.layers.perm_diag_linear.PermDiagLinear` points its
trainable parameter at the same buffer, so in-place optimizer updates are
visible to the matrix with zero copies.  In-place writes to ``data`` are
fine for *values*; writing non-zeros into the padding region of an aliased
buffer is unsupported (products ignore those slots, but storage accounting
and ``to_q`` round-trips assume they stay zero).

Backend dispatch
----------------
The products themselves execute through a pluggable
:mod:`repro.core.backends` implementation: ``csr`` (scipy, int32-indexed
CSR skeletons -- the default when scipy imports), ``gather`` (pure numpy)
or ``numba`` (optional JIT).  Selection order per call: the matrix's own
``backend=`` argument / :meth:`~BlockPermutedDiagonalMatrix.set_backend`,
then :func:`repro.core.backends.set_default_backend`, then the
``REPRO_BACKEND`` environment variable, then auto-detection.

Plan serialization
------------------
The forward serving plan -- structure and forward CSR skeleton --
round-trips through :meth:`~BlockPermutedDiagonalMatrix.plan_bytes` /
:meth:`~BlockPermutedDiagonalMatrix.from_plan`, so engine images (and the
serving bundles built from them) reload matrices without building a plan
or sorting anything.  The other members are left out on purpose: the
support mask and ``nnz`` are re-derived from the structure at load, and
every index array is an ``O(N)`` function of the structure derived on
first use, while persisting them would multiply the artifact size several
times over the values.  Deserialized skeletons are range-checked before
any kernel sees them.
"""

from __future__ import annotations

import contextlib
import io

import numpy as np

try:  # scipy is an install requirement but stay importable without it
    from scipy import sparse as _scipy_sparse
except ImportError:  # pragma: no cover - exercised via monkeypatch in tests
    _scipy_sparse = None

from repro.core import backends as _backends
from repro.core import value_types as _value_types
from repro.core.permutation import PermutationSpec

__all__ = ["BlockPermutedDiagonalMatrix", "row_shard_bounds"]

# Hard cap on gathered elements per slab in the gather backend; together
# with the (much smaller) cache-blocking target in
# :mod:`repro.core.backends.gather` it bounds temporary memory and forces
# the chunked transposed path for large products.
_GATHER_ELEMENT_LIMIT = 50_000_000

# Version tag of the _IndexPlan.to_bytes() wire format (2 added the
# optional value-dtype tag, ``vd``/``fp`` keys).  Only this version loads.
_PLAN_FORMAT_VERSION = 2


def _resolve_value_dtype(value_dtype, fixed_point):
    """Canonical ``(name, format)`` for a constructor's value-dtype args.

    ``None`` follows the process default
    (:func:`repro.core.value_types.default_value_dtype`).  ``int16``
    requires an explicit format here -- only
    :meth:`BlockPermutedDiagonalMatrix.with_value_dtype` derives one,
    because deriving needs the values.
    """
    if value_dtype is None:
        name = _value_types.default_value_dtype()
    else:
        name = _value_types.validate_value_dtype(value_dtype)
    if name == "int16":
        if fixed_point is None:
            raise ValueError(
                "int16 value storage needs an explicit FixedPointFormat "
                "(fixed_point=...); use with_value_dtype() to derive one "
                "from existing values"
            )
        if fixed_point.total_bits > 16:
            raise ValueError(
                f"int16 storage holds at most 16-bit codes, got "
                f"total_bits={fixed_point.total_bits}"
            )
    elif fixed_point is not None:
        raise ValueError(
            f"fixed_point only applies to int16 value storage, not {name!r}"
        )
    return name, fixed_point


@contextlib.contextmanager
def _ensure_writable(arr: np.ndarray):
    """Temporarily lift a read-only flag, restoring it on *every* exit.

    The sanitizer (:mod:`repro.debug.sanitizer`) freezes shared buffers by
    clearing ``flags.writeable``; sanctioned in-place mutation paths wrap
    their writes in this context so the freeze survives them -- including
    when the write itself raises.  Arrays that are genuinely immutable
    (views whose base this process may not write) make ``setflags`` raise
    ``ValueError``; callers catch that and fall back to a copy.
    """
    original = bool(arr.flags.writeable)
    if not original:
        arr.setflags(write=True)
    try:
        yield arr
    finally:
        if not original:
            arr.setflags(write=False)


def row_shard_bounds(num_block_rows: int, num_shards: int) -> list[tuple[int, int]]:
    """Contiguous, balanced partition of ``num_block_rows`` into shards.

    Returns ``(start_block, stop_block)`` per shard; the first
    ``num_block_rows % num_shards`` shards carry one extra block row.  Row
    sharding happens at block-row granularity so every shard stays a valid
    block-PD matrix (used by :meth:`BlockPermutedDiagonalMatrix.row_shards`
    and the serving runtime in :mod:`repro.serve`).
    """
    if num_shards <= 0:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    if num_shards > num_block_rows:
        raise ValueError(
            f"cannot cut {num_block_rows} block row(s) into {num_shards} "
            f"shards (each shard needs at least one block row)"
        )
    base, extra = divmod(num_block_rows, num_shards)
    bounds = []
    start = 0
    for idx in range(num_shards):
        stop = start + base + (1 if idx < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _support_mask(
    ks: np.ndarray, shape: tuple[int, int], p: int
) -> tuple[np.ndarray, int]:
    """Read-only ``(mb, nb, p)`` support mask and ``nnz`` of a structure.

    Only the last block row (rows past ``m``) and the last block column
    (columns past ``n``) can hold padding, so the full column map is never
    materialized.
    """
    mb, nb = ks.shape
    m, n = shape
    support = np.ones((mb, nb, p), dtype=bool)
    if m < mb * p:
        support[-1, :, m - (mb - 1) * p:] = False
    if n < nb * p:
        support[:, -1, :] &= (
            (np.arange(p) + ks[:, -1:]) % p < n - (nb - 1) * p
        )
    support.setflags(write=False)
    return support, int(np.count_nonzero(support))


class _IndexPlan:
    """Cached index arithmetic for one ``(ks, shape, p)`` structure.

    Built lazily, once, and shared by every matrix that uses the structure
    (see :meth:`BlockPermutedDiagonalMatrix.like`).  Only the structure,
    the support mask and ``nnz`` are eager; every index array -- the
    per-slot rows/columns, the transpose pair, the support coordinates and
    both CSR skeletons -- is derived from them on first use, in ``O(N)``
    with no sort, so forward-only consumers never pay for the rest.  All
    exposed arrays are read-only.

    Attributes:
        rows / cols: global ``(row, col)`` of every stored slot, ``(mb, nb, p)``.
        support: boolean ``(mb, nb, p)`` mask of slots inside the logical shape.
        flat_cols: ``cols`` flattened for one-shot gathers.
        nnz: number of in-bounds stored slots.
        aligned_m / aligned_n / full_support: padding-free flags per axis.
    """

    def __init__(self, ks: np.ndarray, shape: tuple[int, int], p: int) -> None:
        self._set_structure(ks, shape, p)
        self.support, self.nnz = _support_mask(ks, shape, p)

    def _set_structure(
        self, ks: np.ndarray, shape: tuple[int, int], p: int
    ) -> None:
        """Structure fields, with every derived member left unbuilt."""
        self.p = p
        self.mb, self.nb = ks.shape
        self.shape = shape
        self.ks = ks
        self.aligned_m = shape[0] == self.mb * p
        self.aligned_n = shape[1] == self.nb * p
        self.full_support = self.aligned_m and self.aligned_n
        self._rows: np.ndarray | None = None
        self._cols: np.ndarray | None = None
        self._t_arrays: tuple[np.ndarray, np.ndarray] | None = None
        self._support_coords: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._csr_structs: dict[bool, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        # Serialization metadata only (plans are value-free and shared
        # across dtype siblings): the value dtype of the matrix whose
        # plan_bytes() produced a deserialized plan, used by from_plan()
        # to restore a matrix at its persisted precision.
        self.value_dtype_hint: str | None = None
        self.fixed_point_hint: tuple[int, int] | None = None

    @property
    def rows(self) -> np.ndarray:
        if self._rows is None:
            p = self.p
            rows = np.arange(self.mb * p, dtype=np.int64).reshape(self.mb, 1, p)
            rows = np.ascontiguousarray(
                np.broadcast_to(rows, (self.mb, self.nb, p))
            )
            rows.setflags(write=False)
            self._rows = rows
        return self._rows

    @property
    def cols(self) -> np.ndarray:
        if self._cols is None:
            p = self.p
            cols = (
                np.arange(self.nb, dtype=np.int64)[None, :, None] * p
                + (np.arange(p, dtype=np.int64) + self.ks[:, :, None]) % p
            )
            cols.setflags(write=False)
            self._cols = cols
        return self._cols

    @property
    def flat_cols(self) -> np.ndarray:
        return self.cols.reshape(-1)  # a view of the read-only cols

    def support_coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(flat, rows, cols)`` of every in-bounds slot, each 1-D.

        ``flat`` indexes ``data.ravel()``; ``rows``/``cols`` are the global
        dense coordinates (always inside the logical shape).
        """
        if self._support_coords is None:
            if self.full_support:
                flat = np.arange(self.rows.size, dtype=np.int64)
                rows, cols = self.rows.reshape(-1), self.flat_cols
            else:
                flat = np.flatnonzero(self.support)
                rows = self.rows.reshape(-1)[flat]
                cols = self.flat_cols[flat]
            for arr in (flat, rows, cols):
                arr.setflags(write=False)
            self._support_coords = (flat, rows, cols)
        return self._support_coords

    def transpose_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(t_src, t_cols)``, each ``(nb, mb, p)``, for the transposed view.

        For transposed slot ``(bj, bi, d)`` -- row ``bj*p + d`` of ``W.T`` --
        ``t_src`` is the flat index into ``data`` of the value it carries and
        ``t_cols`` the original global row (= the ``W.T`` input column)
        feeding it.  This is what lets ``rmatmat`` run without materializing
        a transposed matrix object.
        """
        if self._t_arrays is None:
            p, mb, nb = self.p, self.mb, self.nb
            d = np.arange(p, dtype=np.int64)
            # Transposed row d of block (bi, bj) carries the original entry
            # whose column offset was d, i.e. original row (d - k) mod p.
            src_c = (d[None, None, :] - self.ks[:, :, None]) % p  # (mb, nb, p)
            bi = np.arange(mb, dtype=np.int64)[:, None, None]
            bj = np.arange(nb, dtype=np.int64)[None, :, None]
            t_src = np.ascontiguousarray(((bi * nb + bj) * p + src_c).transpose(1, 0, 2))
            t_cols = np.ascontiguousarray((bi * p + src_c).transpose(1, 0, 2))
            t_src.setflags(write=False)
            t_cols.setflags(write=False)
            self._t_arrays = (t_src, t_cols)
        return self._t_arrays

    def csr_struct(
        self, transposed: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR skeleton ``(indptr, indices, perm)`` of ``W`` (or ``W.T``).

        ``indptr``/``indices`` are int32 whenever the matrix dimensions
        permit (scipy's native index type -- spmm then moves half the index
        bytes of an int64 skeleton); ``perm`` stays at the platform index
        type because it is consumed by numpy fancy indexing, which would
        otherwise re-cast it on every value refresh.  ``perm`` gathers
        ``data.ravel()`` into CSR order, so refreshing a cached sparse
        matrix after an in-place weight update is a single ``nnz``-sized
        gather.
        """
        key = bool(transposed)
        if key not in self._csr_structs:
            # Row r of one block row meets exactly one slot per block
            # column, at a column that grows with the block column (and
            # likewise for W.T), so walking the slots in (block row, row
            # offset, block column) order *is* CSR order: no sort needed.
            if transposed:
                t_src, t_cols = self.transpose_arrays()
                perm, cols = t_src.transpose(0, 2, 1), t_cols.transpose(0, 2, 1)
                height = self.shape[1]
            else:
                perm = np.arange(self.support.size, dtype=np.int64)
                perm = perm.reshape(self.support.shape).transpose(0, 2, 1)
                cols = self.cols.transpose(0, 2, 1)
                height = self.shape[0]
            keep = self.support.reshape(-1)[perm]
            idx_dtype = (
                np.int32
                if max(self.shape[0], self.shape[1], self.nnz) < 2**31
                else np.int64
            )
            indptr = np.zeros(height + 1, dtype=idx_dtype)
            np.cumsum(keep.sum(axis=2).reshape(-1)[:height], out=indptr[1:])
            indices = cols[keep].astype(idx_dtype, copy=False)
            perm = perm[keep]
            for arr in (indptr, indices, perm):
                arr.setflags(write=False)
            self._csr_structs[key] = (indptr, indices, perm)
        return self._csr_structs[key]

    def transposed(self) -> "_IndexPlan":
        """Plan of ``W.T`` (``k_t = (-k) mod p`` per block), built from
        this one: a transposed slot is in bounds iff its source slot is."""
        t_src, _ = self.transpose_arrays()
        ks_t = (-self.ks.T) % self.p
        support = self.support.reshape(-1)[t_src]
        for arr in (ks_t, support):
            arr.setflags(write=False)
        plan = _IndexPlan.__new__(_IndexPlan)
        plan._set_structure(ks_t, self.shape[::-1], self.p)
        plan.support = support
        plan.nnz = self.nnz
        return plan

    # ------------------------------------------------------------------
    # Row sharding
    # ------------------------------------------------------------------

    def row_block_slice(self, start: int, stop: int) -> "_IndexPlan":
        """Derived plan covering block rows ``[start, stop)`` only.

        ``ks``, ``support`` and ``cols`` are shared views of this plan's
        arrays and the transposed pair (when already built here) a re-based
        copy, which is what lets the serving runtime shard a layer across
        engines without paying the structure computation per shard.  Other
        members this plan has not built stay lazy on the shard too.
        """
        if not (0 <= start < stop <= self.mb):
            raise ValueError(
                f"invalid block-row slice [{start}, {stop}) for {self.mb} "
                f"block rows"
            )
        p = self.p
        shard = _IndexPlan.__new__(_IndexPlan)
        # The last shard of a row-padded matrix keeps the padding.
        shard._set_structure(
            self.ks[start:stop],
            (min((stop - start) * p, self.shape[0] - start * p), self.shape[1]),
            p,
        )
        shard.support = self.support[start:stop]
        shard.nnz = int(shard.support.sum())
        shard._cols = self.cols[start:stop]
        if self._t_arrays is not None:
            t_src, t_cols = self._t_arrays
            # Re-base: shard slot (bj, bi', d) reads data[start + bi'] of
            # the parent, i.e. parent flat index minus the sliced-off rows.
            t_src_s = np.ascontiguousarray(
                t_src[:, start:stop] - start * self.nb * p
            )
            t_cols_s = np.ascontiguousarray(t_cols[:, start:stop] - start * p)
            t_src_s.setflags(write=False)
            t_cols_s.setflags(write=False)
            shard._t_arrays = (t_src_s, t_cols_s)
        return shard

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def warm(self) -> "_IndexPlan":
        """Force-build every lazy member (rows/columns, transpose pair,
        support coordinates, both CSR skeletons).  Returns ``self``."""
        self.support_coords()
        self.transpose_arrays()
        self.csr_struct(False)
        self.csr_struct(True)
        return self

    def to_bytes(self, value_dtype: str | None = None, fixed_point=None) -> bytes:
        """Serialize the forward serving plan (an ``.npz`` payload).

        The payload holds the structure ``(ks, shape, p)`` and the
        forward CSR skeleton (built here if needed) -- all a restored plan
        needs to serve ``matmat`` on the ``csr`` backend without sorting
        or building anything.  The support mask and ``nnz`` are pure
        functions of the structure, re-derived at load; every other
        member is derived in ``O(N)`` on first use by the restored plan,
        so persisting it would only grow the artifact (it is several
        times the size of the values).

        ``value_dtype``/``fixed_point`` (normally supplied by
        :meth:`BlockPermutedDiagonalMatrix.plan_bytes`) tag the payload
        with the owning matrix's value-storage mode so
        :meth:`BlockPermutedDiagonalMatrix.from_plan` can restore it at
        the persisted precision.
        """
        payload: dict[str, np.ndarray] = {
            "version": np.int64(_PLAN_FORMAT_VERSION),
            "p": np.int64(self.p),
            "shape": np.asarray(self.shape, dtype=np.int64),
            "ks": self.ks,
        }
        if value_dtype is not None:
            payload["vd"] = np.asarray(
                _value_types.validate_value_dtype(value_dtype)
            )
            if fixed_point is not None:
                payload["fp"] = np.asarray(
                    [fixed_point.total_bits, fixed_point.frac_bits],
                    dtype=np.int64,
                )
        for pos, arr in enumerate(self.csr_struct(False)):
            payload[f"csr0_{pos}"] = arr
        buffer = io.BytesIO()
        np.savez(buffer, **payload)
        return buffer.getvalue()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "_IndexPlan":
        """Rebuild a plan from :meth:`to_bytes` without building one.

        Reads the structure and the forward CSR skeleton (re-frozen
        read-only), validates them (:meth:`_check`) and derives the
        support mask and ``nnz`` from the structure.  Any other member a
        payload carries -- older writers persisted the support mask, or
        every lazy member -- is ignored; a missing member raises
        ``ValueError``.
        """
        with np.load(io.BytesIO(blob)) as archive:
            try:
                version = int(archive["version"])
                if version != _PLAN_FORMAT_VERSION:
                    raise ValueError(
                        f"unsupported index-plan format version {version} "
                        f"(expected {_PLAN_FORMAT_VERSION})"
                    )
                ks = archive["ks"]
                shape = tuple(int(v) for v in archive["shape"])
                p = int(archive["p"])
                struct = tuple(archive[f"csr0_{pos}"] for pos in range(3))
            except KeyError as exc:
                raise ValueError(f"index plan lacks member {exc}") from None
            plan = cls.__new__(cls)
            plan._set_structure(ks, shape, p)
            if "vd" in archive.files:
                plan.value_dtype_hint = str(archive["vd"])
            if "fp" in archive.files:
                plan.fixed_point_hint = tuple(int(v) for v in archive["fp"])
        for arr in (ks, *struct):
            arr.setflags(write=False)
        plan._csr_structs[False] = struct
        plan._check()
        return plan

    def _check(self) -> None:
        """Vectorised ``O(nnz)`` structural checks of a deserialized plan,
        deriving its support mask and ``nnz`` once the structure passes.

        The forward skeleton feeds scipy's unchecked C kernels, so an
        out-of-range entry in a corrupted artifact would crash the process
        on the first product; reject it here with a ``ValueError``.
        """
        mb, nb, p = self.mb, self.nb, self.p
        m, n = self.shape
        if (
            self.ks.dtype.kind not in "iu"
            or p <= 0
            or not (mb * p - p < m <= mb * p and nb * p - p < n <= nb * p)
            or (self.ks.size and (self.ks.min() < 0 or self.ks.max() >= p))
        ):
            raise ValueError(
                f"plan structure (shape={self.shape}, p={p}, "
                f"ks {self.ks.dtype} {self.ks.shape}) is inconsistent"
            )
        self.support, self.nnz = _support_mask(self.ks, self.shape, p)
        indptr, indices, perm = self._csr_structs[False]
        if any(
            arr.ndim != 1 or arr.dtype.kind not in "iu"
            for arr in (indptr, indices, perm)
        ):
            raise ValueError("forward CSR skeleton must be 1-D integer arrays")
        if (
            indptr.size != m + 1
            or indptr[0] != 0
            or indptr[-1] != self.nnz
            or np.any(indptr[1:] < indptr[:-1])
        ):
            raise ValueError(
                f"forward CSR indptr must rise monotonically over {m + 1} "
                f"entries from 0 to nnz={self.nnz}"
            )
        if indices.size != self.nnz or perm.size != self.nnz:
            raise ValueError(
                f"forward CSR holds {indices.size} indices and {perm.size} "
                f"value positions, expected nnz={self.nnz}"
            )
        if self.nnz and (indices.min() < 0 or indices.max() >= n):
            raise ValueError(f"forward CSR indices fall outside [0, {n})")
        if self.nnz and (perm.min() < 0 or perm.max() >= mb * nb * p):
            raise ValueError(
                f"forward CSR value positions fall outside [0, {mb * nb * p})"
            )


class BlockPermutedDiagonalMatrix:
    """An ``m x n`` matrix made of ``p x p`` permuted diagonal blocks.

    Storage layout: ``data[bi, bj, c]`` is the non-zero of block
    ``(bi, bj)`` in its row ``c``, located at global position
    ``(bi*p + c, bj*p + (c + ks[bi, bj]) % p)``.

    The structure ``(ks, shape, p)`` is fixed at construction -- ``ks`` is
    exposed read-only and ``shape`` is a property -- and all index
    arithmetic derived from it is cached (see the module docstring).  Use
    :meth:`set_structure` to mutate it and :meth:`like` to create siblings
    that share the cached plan.

    Args:
        data: array of shape ``(mb, nb, p)`` with the non-zero values.
            Aliased, not copied, when already in the storage dtype with a
            zeroed padding region (the aliasing contract -- see the module
            docstring).  For ``int16`` storage this must hold integer
            fixed-point *codes*, not float values.
        ks: integer array of shape ``(mb, nb)`` with per-block permutation
            parameters (reduced modulo ``p``).
        shape: logical ``(m, n)``; defaults to the padded ``(mb*p, nb*p)``.
        backend: pin this matrix to a named kernel backend (``"gather"``,
            ``"csr"``, ``"numba"``); ``None`` follows the process default
            (see :mod:`repro.core.backends`).
        value_dtype: value-storage mode (``"float64"``, ``"float32"``,
            ``"int16"``); ``None`` follows the process default (see
            :mod:`repro.core.value_types`).
        fixed_point: the :class:`~repro.nn.quantization.FixedPointFormat`
            the stored codes are in; required for (and exclusive to)
            ``int16`` storage.
    """

    def __init__(
        self,
        data: np.ndarray,
        ks: np.ndarray,
        shape: tuple[int, int] | None = None,
        backend: str | None = None,
        value_dtype: str | None = None,
        fixed_point=None,
    ) -> None:
        self._value_dtype, self._fixed_point = _resolve_value_dtype(
            value_dtype, fixed_point
        )
        data = self._coerce_values(data)
        ks = np.asarray(ks, dtype=np.int64)
        if data.ndim != 3:
            raise ValueError(f"data must have shape (mb, nb, p), got {data.shape}")
        mb, nb, p = data.shape
        if ks.shape != (mb, nb):
            raise ValueError(
                f"ks shape {ks.shape} does not match data blocks ({mb}, {nb})"
            )
        if p <= 0:
            raise ValueError("block size p must be positive")
        self.p = p
        ks = ks % p
        ks.setflags(write=False)
        self._ks = ks
        if shape is None:
            shape = (mb * p, nb * p)
        m, n = shape
        if not (mb * p - p < m <= mb * p and nb * p - p < n <= nb * p):
            raise ValueError(
                f"logical shape {shape} inconsistent with {mb}x{nb} blocks of p={p}"
            )
        self._shape = (int(m), int(n))
        self._plan: _IndexPlan | None = None
        self._csr_cache: dict[bool, tuple] = {}
        self._backend = self._normalize_backend(backend)
        self.data = data  # through the property: masks padding only if needed

    # ------------------------------------------------------------------
    # Structure access and the sanctioned mutation API
    # ------------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        """Logical ``(m, n)``.  Mutate via :meth:`set_structure` only."""
        return self._shape

    @property
    def ks(self) -> np.ndarray:
        """Per-block permutation parameters (read-only array)."""
        return self._ks

    @property
    def data(self) -> np.ndarray:
        """Stored values, shape ``(mb, nb, p)``.

        Assignment validates the shape and enforces the padding rule under
        the aliasing contract: the array is aliased when its padding region
        is already zero, and replaced by a masked copy only otherwise.
        """
        return self._data

    def _coerce_values(self, value: np.ndarray) -> np.ndarray:
        """``value`` in the storage dtype, aliasing whenever possible.

        The float modes cast (``np.asarray`` aliases when the dtype
        already matches).  ``int16`` storage holds fixed-point *codes*:
        float input is rejected rather than silently quantized -- encode
        through :meth:`with_value_dtype` -- and wider integer input is
        range-checked before narrowing.
        """
        if self._value_dtype == "int16":
            value = np.asarray(value)
            if value.dtype == np.int16:
                return value
            if value.dtype.kind not in "iu":
                raise TypeError(
                    f"int16 value storage holds fixed-point codes; got "
                    f"{value.dtype} values (encode via with_value_dtype)"
                )
            info = np.iinfo(np.int16)
            if value.size and (
                value.min() < info.min or value.max() > info.max
            ):
                raise ValueError(
                    f"integer codes outside the int16 range "
                    f"[{info.min}, {info.max}]"
                )
            return value.astype(np.int16)
        return np.asarray(
            value, dtype=_value_types.storage_dtype(self._value_dtype)
        )

    @data.setter
    def data(self, value: np.ndarray) -> None:
        value = self._coerce_values(value)
        mb, nb = self._ks.shape
        if value.shape != (mb, nb, self.p):
            raise ValueError(
                f"data must have shape ({mb}, {nb}, {self.p}), got {value.shape}"
            )
        if self._shape != (mb * self.p, nb * self.p):
            support = self._get_plan().support
            if np.any(value[~support]):
                value = value * support  # force padding region to zero
        self._data = value

    # ------------------------------------------------------------------
    # Value storage
    # ------------------------------------------------------------------

    @property
    def value_dtype(self) -> str:
        """Value-storage mode: ``"float64"``, ``"float32"`` or ``"int16"``."""
        return self._value_dtype

    @property
    def fixed_point(self):
        """The codes' :class:`~repro.nn.quantization.FixedPointFormat`
        (``int16`` storage only; ``None`` for the float modes)."""
        return self._fixed_point

    @property
    def compute_dtype(self) -> np.dtype:
        """The dtype products cast inputs to and accumulate in.

        ``float32`` storage computes in float32 (the speedup); everything
        else -- including ``int16``, whose codes are dequantized -- runs
        the float64 reference arithmetic.
        """
        if self._value_dtype == "float32":
            return np.dtype(np.float32)
        return np.dtype(np.float64)

    def _kernel_data(self) -> np.ndarray:
        """Values as kernel backends consume them.

        The storage array itself for the float modes (zero-copy); for
        ``int16``, the codes dequantized to float64 in one fused multiply
        (exact: the scale is a power of two).  Backends must read values
        through this, never :attr:`data`, so they stay dtype-agnostic.
        """
        if self._value_dtype == "int16":
            from repro.nn.quantization import decode_fixed_point

            return decode_fixed_point(self._data, self._fixed_point)
        return self._data

    def with_value_dtype(
        self, value_dtype: str, fixed_point=None
    ) -> "BlockPermutedDiagonalMatrix":
        """Sibling holding the same logical weights at another value dtype.

        Shares this matrix's cached index plan (like :meth:`like`).
        Converting *to* ``int16`` encodes the logical (dequantized, for an
        int16 source) float64 values into fixed-point codes, deriving a
        covering :class:`~repro.nn.quantization.FixedPointFormat` when
        ``fixed_point`` is omitted; converting to a float mode decodes.
        A no-op conversion (same dtype, no new format) aliases storage.
        """
        name = _value_types.validate_value_dtype(value_dtype)
        logical = np.asarray(self._kernel_data(), dtype=np.float64)
        if name == "int16":
            from repro.nn.quantization import (
                choose_fixed_point_format,
                encode_fixed_point,
            )

            fmt = fixed_point or choose_fixed_point_format(logical)
            data = encode_fixed_point(logical, fmt)
        else:
            if fixed_point is not None:
                raise ValueError(
                    f"fixed_point only applies to int16 value storage, "
                    f"not {name!r}"
                )
            fmt = None
            data = logical.astype(
                _value_types.storage_dtype(name), copy=False
            )
        out = self.__class__.__new__(self.__class__)
        out.p = self.p
        out._ks = self._ks
        out._shape = self._shape
        out._plan = self._get_plan()
        out._csr_cache = {}
        out._backend = self._backend
        out._value_dtype = name
        out._fixed_point = fmt
        out.data = data
        return out

    # ------------------------------------------------------------------
    # Backend selection
    # ------------------------------------------------------------------

    @staticmethod
    def _normalize_backend(backend: str | None) -> str | None:
        if backend is None:
            return None
        name = _backends.validate_backend_name(backend)
        return None if name == _backends.AUTO else name

    @property
    def backend(self) -> str | None:
        """Pinned backend name, or ``None`` when following the default."""
        return self._backend

    def set_backend(self, backend: str | None) -> "BlockPermutedDiagonalMatrix":
        """Pin (or, with ``None``/``"auto"``, unpin) this matrix's backend.

        Only the dispatch target changes -- the cached index plan and CSR
        value buffers survive, so switching is free.

        Returns:
            ``self``, for chaining.
        """
        self._backend = self._normalize_backend(backend)
        return self

    def resolved_backend(self) -> str:
        """The backend name a product call would execute on right now."""
        return self._resolve_backend().name

    def _resolve_backend(self) -> _backends.KernelBackend:
        name = self._backend or _backends.default_backend()
        if name == _backends.AUTO:
            name = "csr" if _scipy_sparse is not None else "gather"
        return _backends.get_backend(name)

    def set_structure(
        self,
        ks: np.ndarray | None = None,
        shape: tuple[int, int] | None = None,
    ) -> "BlockPermutedDiagonalMatrix":
        """Sanctioned structure mutation: swap ``ks`` and/or the logical shape.

        Validates exactly like ``__init__``, re-applies the padding mask to
        the stored values under the new structure, and invalidates the
        cached index plan (plus any CSR skeletons derived from it).  The
        re-mask happens **in place** whenever the buffer is writable, so
        the data-aliasing contract (e.g. a ``Parameter`` sharing storage)
        survives the mutation.

        Returns:
            ``self``, for chaining.
        """
        mb, nb, p = self._data.shape
        if ks is not None:
            ks = np.asarray(ks, dtype=np.int64)
            if ks.shape != (mb, nb):
                raise ValueError(
                    f"ks shape {ks.shape} does not match data blocks ({mb}, {nb})"
                )
            ks = ks % p
            ks.setflags(write=False)
            self._ks = ks
        if shape is not None:
            m, n = shape
            if not (mb * p - p < m <= mb * p and nb * p - p < n <= nb * p):
                raise ValueError(
                    f"logical shape {shape} inconsistent with {mb}x{nb} blocks of p={p}"
                )
            self._shape = (int(m), int(n))
        self._plan = None
        self._csr_cache = {}
        # Re-mask under the new structure, in place when possible so any
        # consumer aliasing the buffer keeps seeing this matrix's values.
        if self._shape != (mb * p, nb * p):
            support = self._get_plan().support
            if np.any(self._data[~support]):
                try:
                    with _ensure_writable(self._data):
                        self._data[~support] = 0.0
                except ValueError:
                    # Genuinely immutable buffer (read-only base we do not
                    # own): aliasing cannot survive, mask into a copy.
                    self._data = self._data * support
        return self

    def like(self, data: np.ndarray) -> "BlockPermutedDiagonalMatrix":
        """New matrix with this structure, **sharing** the cached index plan.

        Use when many value sets ride one structure (per-offset channel
        matrices of a lowered convolution, weight-shared codebook copies):
        the index arithmetic is computed once for the whole family.
        ``data`` follows the aliasing contract.
        """
        out = self.__class__.__new__(self.__class__)
        out.p = self.p
        out._ks = self._ks
        out._shape = self._shape
        out._plan = self._get_plan()
        out._csr_cache = {}
        out._backend = self._backend
        out._value_dtype = self._value_dtype
        out._fixed_point = self._fixed_point
        out.data = data
        return out

    def row_shard(
        self, start_block: int, stop_block: int
    ) -> "BlockPermutedDiagonalMatrix":
        """Shard covering block rows ``[start_block, stop_block)``.

        The shard **aliases** this matrix's value storage (its ``data`` is
        a view of the corresponding block-row slice, so in-place weight
        updates stay visible) and its index plan is derived from this
        matrix's cached plan by slicing
        (:meth:`_IndexPlan.row_block_slice`) -- no plan is built per
        shard.  Row shards partition the output dimension:
        stacking every shard's product output reproduces the full product
        bit for bit, which is the contract the sharded serving runtime
        (:mod:`repro.serve`) is built on.
        """
        plan = self._get_plan().row_block_slice(start_block, stop_block)
        out = self.__class__.__new__(self.__class__)
        out.p = self.p
        out._ks = plan.ks
        out._shape = plan.shape
        out._plan = plan
        out._csr_cache = {}
        out._backend = self._backend
        out._value_dtype = self._value_dtype
        out._fixed_point = self._fixed_point
        out.data = self._data[start_block:stop_block]
        return out

    def row_shards(self, num_shards: int) -> list["BlockPermutedDiagonalMatrix"]:
        """Partition into ``num_shards`` contiguous row shards.

        Block rows are split as evenly as possible
        (:func:`row_shard_bounds`); see :meth:`row_shard` for the aliasing
        and plan-sharing guarantees.
        """
        return [
            self.row_shard(start, stop)
            for start, stop in row_shard_bounds(self.mb, num_shards)
        ]

    def _get_plan(self) -> _IndexPlan:
        plan = self._plan
        if plan is None:
            plan = self._plan = _IndexPlan(self._ks, self._shape, self.p)
        return plan

    # ------------------------------------------------------------------
    # Plan serialization
    # ------------------------------------------------------------------

    def plan_bytes(self) -> bytes:
        """Serialized forward serving plan (see :meth:`_IndexPlan.to_bytes`).

        Persist this next to the packed values and rebuild with
        :meth:`from_plan` to skip the plan build and the CSR skeleton at
        load time.  The blob is tagged with this matrix's value dtype (and
        fixed-point format, if any) so :meth:`from_plan` restores the
        persisted precision by default.
        """
        return self._get_plan().to_bytes(
            value_dtype=self._value_dtype,
            fixed_point=self._fixed_point,
        )

    @classmethod
    def from_plan(
        cls,
        plan: "_IndexPlan | bytes",
        data: np.ndarray,
        backend: str | None = None,
        value_dtype: str | None = None,
        fixed_point=None,
    ) -> "BlockPermutedDiagonalMatrix":
        """Matrix around a precomputed plan: **no plan is built**.

        The inverse of (:meth:`plan_bytes`, :meth:`to_q`): deployment
        surfaces persist both and reconstruct here, paying only the
        deserialization; a ``csr`` forward product then reads persisted
        arrays only, and any other member the plan lacks is derived in
        ``O(N)`` on first use.  ``data`` follows the aliasing contract.

        The value dtype is resolved in order: the explicit arguments, the
        dtype tag the plan blob carries (what
        :meth:`plan_bytes` recorded), then the dtype of ``data`` itself.
        Untagged ``int16`` data is ambiguous -- codes are meaningless
        without their format -- and is rejected rather than guessed.
        """
        if isinstance(plan, (bytes, bytearray, memoryview)):
            plan = _IndexPlan.from_bytes(plan)
        if value_dtype is None:
            value_dtype = plan.value_dtype_hint
            if fixed_point is None and plan.fixed_point_hint is not None:
                from repro.nn.quantization import FixedPointFormat

                fixed_point = FixedPointFormat(*plan.fixed_point_hint)
        if value_dtype is None:
            kind = np.asarray(data).dtype
            if kind == np.float32:
                value_dtype = "float32"
            elif kind == np.int16:
                raise ValueError(
                    "int16 data needs its FixedPointFormat: pass "
                    "value_dtype='int16' and fixed_point=..., or use a "
                    "dtype-tagged plan blob"
                )
            else:
                value_dtype = "float64"
        out = cls.__new__(cls)
        out._value_dtype, out._fixed_point = _resolve_value_dtype(
            value_dtype, fixed_point
        )
        out.p = plan.p
        out._ks = plan.ks
        out._shape = plan.shape
        out._plan = plan
        out._csr_cache = {}
        out._backend = cls._normalize_backend(backend)
        out.data = data
        return out

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def zeros(
        cls,
        shape: tuple[int, int],
        p: int,
        spec: PermutationSpec | None = None,
        ks: np.ndarray | None = None,
        backend: str | None = None,
        value_dtype: str | None = None,
        fixed_point=None,
    ) -> "BlockPermutedDiagonalMatrix":
        """All-zero matrix of logical ``shape`` with block size ``p``."""
        m, n = shape
        mb, nb = -(-m // p), -(-n // p)
        if ks is None:
            spec = spec or PermutationSpec()
            ks = spec.generate(mb * nb, p).reshape(mb, nb)
        name, fmt = _resolve_value_dtype(value_dtype, fixed_point)
        return cls(
            np.zeros((mb, nb, p), dtype=_value_types.storage_dtype(name)),
            ks,
            shape=shape,
            backend=backend,
            value_dtype=name,
            fixed_point=fmt,
        )

    @classmethod
    def random(
        cls,
        shape: tuple[int, int],
        p: int,
        spec: PermutationSpec | None = None,
        scale: float | None = None,
        rng: np.random.Generator | int | None = None,
        backend: str | None = None,
        value_dtype: str | None = None,
        fixed_point=None,
    ) -> "BlockPermutedDiagonalMatrix":
        """Gaussian-initialized PD matrix.

        ``scale`` defaults to ``sqrt(p / n)``: each output unit receives
        ``n / p`` non-zero inputs, so this matches He/Glorot-style fan-in
        scaling on the *effective* (sparse) fan-in.

        For ``value_dtype="int16"`` the samples are drawn at float64 and
        then encoded (deriving a covering format when ``fixed_point`` is
        omitted), so the same seed yields the same underlying weights at
        every precision.
        """
        requested = (
            _value_types.validate_value_dtype(value_dtype)
            if value_dtype is not None
            else _value_types.default_value_dtype()
        )
        out = cls.zeros(
            shape,
            p,
            spec=spec,
            backend=backend,
            value_dtype="float64" if requested == "int16" else requested,
        )
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        if scale is None:
            scale = float(np.sqrt(p / max(shape[1], 1)))
        out.data = rng.normal(0.0, scale, size=out.data.shape)
        if requested == "int16":
            return out.with_value_dtype("int16", fixed_point=fixed_point)
        if fixed_point is not None:
            raise ValueError(
                f"fixed_point only applies to int16 value storage, "
                f"not {requested!r}"
            )
        return out

    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        p: int,
        ks: np.ndarray | None = None,
        spec: PermutationSpec | None = None,
        backend: str | None = None,
        value_dtype: str | None = None,
        fixed_point=None,
    ) -> "BlockPermutedDiagonalMatrix":
        """Project a dense matrix onto the PD support (keep on-diagonal entries).

        For fixed ``ks`` this is the optimal approximation in the L2 sense
        (Sec. III-F): the kept entries are untouched and everything off the
        support contributes its full energy to the error no matter what.
        The projection runs at float64; a reduced-precision ``value_dtype``
        is applied to the result (via :meth:`with_value_dtype`).
        """
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError(f"expected 2-D matrix, got shape {dense.shape}")
        requested = (
            _value_types.validate_value_dtype(value_dtype)
            if value_dtype is not None
            else _value_types.default_value_dtype()
        )
        out = cls.zeros(
            dense.shape, p, spec=spec, ks=ks, backend=backend,
            value_dtype="float64",
        )
        flat, rows, cols = out._get_plan().support_coords()
        data = np.zeros(out.data.shape)
        data.reshape(-1)[flat] = dense[rows, cols]
        out.data = data
        if requested != "float64" or fixed_point is not None:
            return out.with_value_dtype(requested, fixed_point=fixed_point)
        return out

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    @property
    def mb(self) -> int:
        """Number of block rows."""
        return self._data.shape[0]

    @property
    def nb(self) -> int:
        """Number of block columns."""
        return self._data.shape[1]

    @property
    def num_blocks(self) -> int:
        return self.mb * self.nb

    @property
    def nnz(self) -> int:
        """Number of stored (non-padding) entries: ``~ m*n/p``."""
        return self._get_plan().nnz

    @property
    def compression_ratio(self) -> float:
        """Dense element count over stored element count (== ``p`` unpadded)."""
        return self.shape[0] * self.shape[1] / self.nnz

    def support_mask(self) -> np.ndarray:
        """Boolean ``(mb, nb, p)`` mask of entries inside the logical shape.

        Read-only view of the cached index plan; copy before mutating.
        """
        return self._get_plan().support

    def _global_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Global ``(row, col)`` of every stored slot, each ``(mb, nb, p)``.

        Read-only views of the cached index plan.
        """
        plan = self._get_plan()
        return plan.rows, plan.cols

    def support_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)`` 1-D global coordinates of every in-bounds slot.

        The cheap way to enumerate the support (e.g. for connectivity
        analysis) without materializing ``dense_mask``.
        """
        _, rows, cols = self._get_plan().support_coords()
        return rows, cols

    def dense_mask(self) -> np.ndarray:
        """Boolean ``(m, n)`` mask of the PD support in dense coordinates."""
        mask = np.zeros(self.shape, dtype=bool)
        _, rows, cols = self._get_plan().support_coords()
        mask[rows, cols] = True
        return mask

    def to_dense(self) -> np.ndarray:
        """Materialize the full ``m x n`` dense array.

        Always float64, holding the *logical* weights (fixed-point codes
        come out dequantized) -- the reference the conformance tolerances
        are stated against.
        """
        dense = np.zeros(self.shape)
        flat, rows, cols = self._get_plan().support_coords()
        dense[rows, cols] = self._kernel_data().reshape(-1)[flat]
        return dense

    def to_q(self) -> np.ndarray:
        """Packed non-zero vector ``q`` (block-major, length ``mb*nb*p``).

        ``q[l*p + c]`` is the row-``c`` non-zero of block ``l = bi*nb + bj``,
        matching the paper's storage of "only the mn/p-length vector q".
        Returned in the storage dtype (fixed-point codes for ``int16``),
        so persisting ``q`` keeps the compressed footprint.
        """
        return self._data.reshape(-1).copy()

    @classmethod
    def from_q(
        cls,
        q: np.ndarray,
        shape: tuple[int, int],
        p: int,
        ks: np.ndarray,
        backend: str | None = None,
        value_dtype: str | None = None,
        fixed_point=None,
    ) -> "BlockPermutedDiagonalMatrix":
        """Rebuild from a packed ``q`` vector (inverse of :meth:`to_q`)."""
        m, n = shape
        mb, nb = -(-m // p), -(-n // p)
        q = np.asarray(q)
        if q.size != mb * nb * p:
            raise ValueError(
                f"q has {q.size} entries, expected {mb * nb * p} for "
                f"shape {shape} with p={p}"
            )
        return cls(
            q.reshape(mb, nb, p),
            np.asarray(ks).reshape(mb, nb),
            shape=shape,
            backend=backend,
            value_dtype=value_dtype,
            fixed_point=fixed_point,
        )

    def transpose(self) -> "BlockPermutedDiagonalMatrix":
        """Transpose; also block-PD, with ``k_t = (p - k) mod p`` per block.

        The backward pass no longer calls this -- :meth:`rmatmat` and
        :meth:`rmatvec` run transpose-free off the cached plan -- but the
        structured transpose remains part of the public API.
        """
        plan = self._get_plan()
        t_src, _ = plan.transpose_arrays()
        return BlockPermutedDiagonalMatrix.from_plan(
            plan.transposed(),
            self._data.ravel()[t_src],
            value_dtype=self._value_dtype,
            fixed_point=self._fixed_point,
        )

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def _gather_columns(self) -> np.ndarray:
        """Global input column index feeding each stored slot, ``(mb, nb, p)``."""
        return self._get_plan().cols

    def _csr_values(self, perm: np.ndarray) -> np.ndarray:
        """CSR value buffer in the compute dtype: an ``nnz``-sized gather,
        fused with the dequantizing multiply for ``int16`` codes."""
        gathered = self._data.ravel()[perm]
        if self._value_dtype == "int16":
            from repro.nn.quantization import decode_fixed_point

            return decode_fixed_point(gathered, self._fixed_point)
        return gathered

    def _csr(self, transposed: bool):
        """Cached ``scipy.sparse.csr_matrix`` view of ``W`` (or ``W.T``).

        The skeleton comes from the index plan; only ``nnz`` values are
        re-gathered per call, so in-place weight updates are always
        reflected.  The value buffer is in the compute dtype (float32 for
        float32 storage -- scipy's spmm then moves and multiplies half the
        bytes -- float64 otherwise).
        """
        key = bool(transposed)
        plan = self._get_plan()
        entry = self._csr_cache.get(key)
        if entry is None or entry[0] is not plan:
            indptr, indices, perm = plan.csr_struct(key)
            shape = (self.shape[1], self.shape[0]) if transposed else self.shape
            mat = _scipy_sparse.csr_matrix(
                (self._csr_values(perm), indices, indptr), shape=shape
            )
            self._csr_cache[key] = (plan, mat, perm)
        else:
            _, mat, perm = entry
            mat.data[:] = self._csr_values(perm)
        return self._csr_cache[key][1]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``y = W @ x`` touching only the ``m*n/p`` stored weights."""
        x = np.asarray(x, dtype=self.compute_dtype)
        if x.shape != (self.shape[1],):
            raise ValueError(f"expected x of shape ({self.shape[1]},), got {x.shape}")
        return self._resolve_backend().matvec(self, x)

    def matmat(self, x: np.ndarray) -> np.ndarray:
        """Batched forward product ``Y[b] = W @ X[b]`` for ``X`` of shape ``(B, n)``.

        In dense terms ``Y = X @ W.T`` (row-major batch against the logical
        ``(m, n)`` weight): the forward pass of an FC layer (``a = W x`` per
        sample, Sec. III-B) vectorized over the batch.  Returns ``(B, m)``,
        in :attr:`compute_dtype`.
        """
        x = np.asarray(x, dtype=self.compute_dtype)
        if x.ndim != 2 or x.shape[1] != self.shape[1]:
            raise ValueError(
                f"expected X of shape (B, {self.shape[1]}), got {x.shape}"
            )
        return self._resolve_backend().matmat(self, x)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``W.T @ y`` (gradient propagation, Eqn. (3)), transpose-free."""
        y = np.asarray(y, dtype=self.compute_dtype)
        if y.shape != (self.shape[0],):
            raise ValueError(f"expected y of shape ({self.shape[0]},), got {y.shape}")
        return self._resolve_backend().rmatvec(self, y)

    def rmatmat(self, y: np.ndarray) -> np.ndarray:
        """Batched ``W.T`` product for ``Y`` of shape ``(B, m)`` -> ``(B, n)``.

        The backward input gradient ``dx = W.T @ dy`` (Eqn. (3)).  Runs
        directly off the cached plan's transposed skeleton -- no
        ``transpose()`` matrix object is constructed.
        """
        y = np.asarray(y, dtype=self.compute_dtype)
        if y.ndim != 2 or y.shape[1] != self.shape[0]:
            raise ValueError(
                f"expected Y of shape (B, {self.shape[0]}), got {y.shape}"
            )
        return self._resolve_backend().rmatmat(self, y)

    def grad_data(self, x: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """Gradient of a batch loss w.r.t. :attr:`data` (Eqn. (2)).

        ``dq[bi, bj, c] = sum_b dy[b, bi*p+c] * x[b, col(bi, bj, c)]`` --
        only the stored (non-zero) weights receive gradient, which is what
        keeps the trained network block-permuted diagonal.  Backends batch
        this against the shared column skeleton (see
        :func:`repro.core.backends.gather.batched_grad_data`).

        Args:
            x: layer input, shape ``(B, n)``.
            dy: upstream gradient, shape ``(B, m)``.

        The result is the gradient w.r.t. the *logical* weights, in
        :attr:`compute_dtype` -- it never depends on the stored values, so
        for ``int16`` storage it carries no code scale.
        """
        x = np.asarray(x, dtype=self.compute_dtype)
        dy = np.asarray(dy, dtype=self.compute_dtype)
        if x.ndim != 2 or x.shape[1] != self.shape[1]:
            raise ValueError(
                f"expected x of shape (B, {self.shape[1]}), got {x.shape}"
            )
        batch = x.shape[0]
        if dy.shape != (batch, self.shape[0]):
            raise ValueError(
                f"dy shape {dy.shape} does not match (B={batch}, m={self.shape[0]})"
            )
        return self._resolve_backend().grad_data(self, x, dy)

    def frobenius_error(self, dense: np.ndarray) -> float:
        """Frobenius-norm distance ``||dense - W||_F`` (approximation error)."""
        return float(np.linalg.norm(np.asarray(dense) - self.to_dense()))

    def __matmul__(self, x):
        if isinstance(x, np.ndarray):
            if x.ndim == 1:
                return self.matvec(x)
            if x.ndim == 2:
                return self.matmat(x.T).T
        return NotImplemented

    def __repr__(self) -> str:
        dtype = (
            "" if self._value_dtype == "float64"
            else f", value_dtype={self._value_dtype}"
        )
        return (
            f"BlockPermutedDiagonalMatrix(shape={self.shape}, p={self.p}, "
            f"blocks={self.mb}x{self.nb}, nnz={self.nnz}{dtype})"
        )
