"""The ``csr`` backend serves products straight off the stored values.

Its sparse view of ``W`` (and ``W.T``) is a COO matrix whose value array
is the stored ``q`` vector itself: these tests pin the aliasing (no
per-call regather, in-place updates seen, reassignment and dtype
conversion followed), bit-identity to column-ordered dense products on
aligned and padded shapes, and that a steady-state product allocates no
``nnz``-sized value buffer.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import BlockPermutedDiagonalMatrix

SHAPES = [
    ((1, 5), 2),
    ((30, 45), 4),
    ((64, 63), 8),
    ((64, 64), 8),
    ((2048, 4608), 10),
]


def _matrix(shape, p, value_dtype="float64", seed=0):
    return BlockPermutedDiagonalMatrix.random(
        shape, p, rng=seed, backend="csr", value_dtype=value_dtype
    )


def _sequential(dense: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``x @ dense.T`` in ``x``'s dtype, each output summed strictly left
    to right in column order onto ``+0.0`` (a running ``cumsum``)."""
    dense = dense.astype(x.dtype)
    out = np.empty((x.shape[0], dense.shape[0]), dtype=x.dtype)
    for b, row in enumerate(x):
        terms = np.empty((dense.shape[0], dense.shape[1] + 1), dtype=x.dtype)
        terms[:, 0] = 0.0
        np.multiply(dense, row, out=terms[:, 1:])
        out[b] = np.cumsum(terms, axis=1, out=terms)[:, -1]
    return out


def _bits_equal(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint8), b.view(np.uint8))


class TestBitIdentity:
    @pytest.mark.parametrize("value_dtype", ["float64", "float32", "int16"])
    @pytest.mark.parametrize("shape, p", SHAPES)
    def test_products_match_column_ordered_dense(self, shape, p, value_dtype):
        matrix = _matrix(shape, p, value_dtype)
        dense = matrix.to_dense()
        rng = np.random.default_rng(1)
        dtype = matrix.compute_dtype
        x = rng.normal(size=(2, shape[1])).astype(dtype)
        y = rng.normal(size=(2, shape[0])).astype(dtype)
        _bits_equal(matrix.matmat(x), _sequential(dense, x))
        _bits_equal(matrix.rmatmat(y), _sequential(dense.T, y))
        _bits_equal(matrix.matvec(x[0]), _sequential(dense, x[:1])[0])
        _bits_equal(matrix.rmatvec(y[1]), _sequential(dense.T, y[1:])[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_padding_values_are_masked(self, bad):
        """The sparse view reads padded slots, so assigning ``data`` must
        zero NaN/inf there too, not multiply them by the mask."""
        matrix = _matrix((30, 45), 4)
        values = matrix.data.copy()
        values[~matrix.support_mask()] = bad
        matrix.data = values
        assert not np.any(matrix.data[~matrix.support_mask()])
        x = np.ones((1, 45))
        assert np.all(np.isfinite(matrix.matmat(x)))
        assert np.all(np.isfinite(matrix.rmatmat(np.ones((1, 30)))))

    def test_non_finite_inputs_stay_in_their_rows(self):
        """Padded slots multiply only zero padding into kept rows, so an
        inf in a real input column poisons exactly the rows it feeds."""
        matrix = _matrix((30, 45), 4)
        x = np.ones((1, 45))
        x[0, 44] = np.inf
        out = matrix.matmat(x)[0]
        fed = matrix.to_dense()[:, 44] != 0
        assert np.all(np.isinf(out[fed]))
        assert np.all(np.isfinite(out[~fed]))


class TestAliasing:
    @pytest.mark.parametrize("value_dtype", ["float64", "float32"])
    def test_views_share_the_stored_values(self, value_dtype):
        parent = _matrix((64, 63), 8, value_dtype)
        for shard in [parent, *parent.row_shards(3)]:
            shard.matmat(np.ones((1, 63), dtype=shard.compute_dtype))
            shard.rmatmat(np.ones((1, shard.shape[0]), dtype=shard.compute_dtype))
            for transposed in (False, True):
                mat = shard._coo(transposed)
                assert np.shares_memory(mat.data, shard._data)
                assert np.shares_memory(mat.data, parent._data)

    @pytest.mark.parametrize("value_dtype", ["float64", "float32"])
    def test_in_place_parent_update_reaches_served_shards(self, value_dtype):
        parent = _matrix((64, 63), 8, value_dtype)
        shards = parent.row_shards(2)
        x = np.random.default_rng(2).normal(size=(3, 63)).astype(
            parent.compute_dtype
        )
        for shard in shards:
            shard.matmat(x)  # build and cache the views
        parent.data *= 2
        served = np.concatenate([shard.matmat(x) for shard in shards], axis=1)
        _bits_equal(served, _sequential(parent.to_dense(), x))

    def test_data_reassignment_is_followed(self):
        matrix = _matrix((30, 45), 4)
        x = np.random.default_rng(3).normal(size=(2, 45))
        y = np.random.default_rng(4).normal(size=(2, 30))
        matrix.matmat(x)
        matrix.rmatmat(y)
        matrix.data = np.random.default_rng(5).normal(size=matrix.data.shape)
        dense = matrix.to_dense()
        _bits_equal(matrix.matmat(x), _sequential(dense, x))
        _bits_equal(matrix.rmatmat(y), _sequential(dense.T, y))
        for transposed in (False, True):
            assert np.shares_memory(matrix._coo(transposed).data, matrix._data)

    @pytest.mark.parametrize("value_dtype", ["float32", "int16", "float64"])
    def test_dtype_conversion_gets_its_own_view(self, value_dtype):
        source = _matrix((30, 45), 4)
        x = np.random.default_rng(6).normal(size=(2, 45))
        source.matmat(x)
        converted = source.with_value_dtype(value_dtype)
        assert converted._get_plan() is source._get_plan()
        x = x.astype(converted.compute_dtype)
        _bits_equal(converted.matmat(x), _sequential(converted.to_dense(), x))
        assert converted._coo(False).dtype == converted.compute_dtype
        if value_dtype != "int16":
            assert np.shares_memory(converted._coo(False).data, converted._data)
        if value_dtype != "float64":  # a same-dtype conversion aliases
            assert not np.shares_memory(converted._coo(False).data, source._data)


class TestSteadyStateAllocation:
    @pytest.mark.parametrize("value_dtype", ["float64", "float32"])
    def test_no_nnz_sized_buffer_per_product(self, value_dtype):
        matrix = _matrix((2048, 4608), 10, value_dtype)
        itemsize = np.dtype(value_dtype).itemsize
        x = np.ones((1, 4608), dtype=matrix.compute_dtype)
        y = np.ones((1, 2048), dtype=matrix.compute_dtype)
        matrix.matmat(x)
        matrix.rmatmat(y)  # first calls build the cached views
        tracemalloc.start()
        try:
            matrix.matmat(x)
            matrix.rmatmat(y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < matrix.nnz * itemsize // 8, (peak, matrix.nnz)
