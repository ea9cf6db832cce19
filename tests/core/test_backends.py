"""Backend dispatch: registry, selection precedence, cross-backend
equivalence, cache-blocked paths, int32 COO coordinates, and plan
serialization round trips."""

import numpy as np
import pytest

import repro.core.backends as backends
import repro.core.backends.gather as gather_mod
import repro.core.block_perm_diag as mod
from repro.core import (
    BackendUnavailableError,
    BlockPermutedDiagonalMatrix,
    PermutationSpec,
    UnknownBackendError,
    available_backends,
    default_backend,
    get_backend,
    set_default_backend,
)

# Shapes covering aligned, row-padded and fully padded structures.
SHAPES = [((16, 16), 4), ((13, 10), 4), ((7, 9), 3)]


def _random_bpd(shape, p, seed=0, scheme="random", backend=None):
    return BlockPermutedDiagonalMatrix.random(
        shape,
        p,
        spec=PermutationSpec(scheme=scheme, seed=seed),
        rng=seed,
        backend=backend,
    )


@pytest.fixture(autouse=True)
def _restore_default_backend():
    yield
    set_default_backend(None)


class TestRegistry:
    def test_gather_and_csr_always_registered(self):
        assert {"gather", "csr"} <= set(backends.backend_names())
        assert "gather" in available_backends()

    def test_unknown_backend_rejected(self):
        with pytest.raises(UnknownBackendError):
            get_backend("bogus")
        with pytest.raises(UnknownBackendError):
            BlockPermutedDiagonalMatrix.random((8, 8), 4, backend="bogus")

    def test_get_backend_is_singleton(self):
        assert get_backend("gather") is get_backend("gather")

    def test_unavailable_backend_raises(self, monkeypatch):
        monkeypatch.setattr(mod, "_scipy_sparse", None)
        assert "csr" not in available_backends()
        with pytest.raises(BackendUnavailableError):
            get_backend("csr")

    def test_numba_backend_gated_on_import(self):
        from repro.core.backends.numba_backend import NumbaBackend, _numba

        assert NumbaBackend.is_available() == (_numba is not None)
        if _numba is None:
            with pytest.raises(BackendUnavailableError):
                get_backend("numba")


class TestSelection:
    def test_auto_prefers_csr_then_gather(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        bpd = _random_bpd((8, 8), 4)
        assert bpd.backend is None
        assert bpd.resolved_backend() == "csr"
        monkeypatch.setattr(mod, "_scipy_sparse", None)
        assert bpd.resolved_backend() == "gather"

    def test_pinned_backend_wins_over_default(self):
        set_default_backend("gather")
        bpd = _random_bpd((8, 8), 4, backend="csr")
        assert bpd.resolved_backend() == "csr"

    def test_set_default_backend_applies_and_validates(self):
        set_default_backend("gather")
        assert default_backend() == "gather"
        assert _random_bpd((8, 8), 4).resolved_backend() == "gather"
        with pytest.raises(UnknownBackendError):
            set_default_backend("bogus")

    def test_env_var_consulted_until_default_pinned(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "gather")
        assert default_backend() == "gather"
        assert _random_bpd((8, 8), 4).resolved_backend() == "gather"
        set_default_backend("csr")
        assert default_backend() == "csr"

    def test_bad_env_var_fails_with_clear_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with pytest.raises(UnknownBackendError, match="REPRO_BACKEND|bogus"):
            _random_bpd((8, 8), 4).matvec(np.zeros(8))

    def test_set_backend_switch_and_unpin(self):
        bpd = _random_bpd((8, 8), 4, backend="gather")
        assert bpd.backend == "gather"
        bpd.set_backend("csr")
        assert bpd.backend == "csr"
        bpd.set_backend("auto")
        assert bpd.backend is None
        with pytest.raises(UnknownBackendError):
            bpd.set_backend("bogus")

    def test_like_inherits_pinned_backend(self):
        base = _random_bpd((8, 8), 4, backend="gather")
        sibling = base.like(np.zeros(base.data.shape))
        assert sibling.backend == "gather"

    def test_pinned_unavailable_backend_fails_at_use(self, monkeypatch):
        bpd = _random_bpd((8, 8), 4, backend="csr")
        monkeypatch.setattr(mod, "_scipy_sparse", None)
        with pytest.raises(BackendUnavailableError):
            bpd.matvec(np.zeros(8))


class TestCrossBackendEquivalence:
    """Same matrix, every available backend: products agree to 1e-10."""

    @pytest.mark.parametrize("shape,p", SHAPES)
    def test_products_match_dense_on_every_backend(self, shape, p):
        bpd = _random_bpd(shape, p, seed=3)
        dense = bpd.to_dense()
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, shape[1]))
        y = rng.normal(size=(5, shape[0]))
        for name in available_backends():
            bpd.set_backend(name)
            np.testing.assert_allclose(
                bpd.matmat(x), x @ dense.T, atol=1e-10, err_msg=name
            )
            np.testing.assert_allclose(
                bpd.rmatmat(y), y @ dense, atol=1e-10, err_msg=name
            )
            np.testing.assert_allclose(
                bpd.matvec(x[0]), dense @ x[0], atol=1e-10, err_msg=name
            )
            np.testing.assert_allclose(
                bpd.rmatvec(y[0]), dense.T @ y[0], atol=1e-10, err_msg=name
            )

    @pytest.mark.parametrize("shape,p", SHAPES)
    def test_grad_data_agrees_across_backends(self, shape, p):
        bpd = _random_bpd(shape, p, seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, shape[1]))
        dy = rng.normal(size=(4, shape[0]))
        reference = BlockPermutedDiagonalMatrix.from_dense(
            (dy.T @ x) * bpd.dense_mask(), p, ks=bpd.ks
        ).data
        for name in available_backends():
            bpd.set_backend(name)
            np.testing.assert_allclose(
                bpd.grad_data(x, dy), reference, atol=1e-10, err_msg=name
            )

    @pytest.mark.parametrize("shape,p", SHAPES)
    def test_chunked_transposed_paths_match_dense(
        self, shape, p, monkeypatch
    ):
        """Force the cache-blocked path (one block row per slab) for every
        product and re-check against the dense reference.  The gradient
        cutoff is pinned to 0 so the chunked *gather* gradient runs, not
        the small-``p`` GEMM."""
        monkeypatch.setattr(gather_mod, "_ONESHOT_LIMIT_ELEMENTS", 0)
        monkeypatch.setattr(gather_mod, "_GEMM_GRAD_MAX_P", 0)
        monkeypatch.setattr(gather_mod, "_CHUNK_TARGET_ELEMENTS", 1)
        bpd = _random_bpd(shape, p, seed=7, backend="gather")
        dense = bpd.to_dense()
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, shape[1]))
        dy = rng.normal(size=(3, shape[0]))
        np.testing.assert_allclose(bpd.matmat(x), x @ dense.T, atol=1e-10)
        np.testing.assert_allclose(bpd.rmatmat(dy), dy @ dense, atol=1e-10)
        reference = BlockPermutedDiagonalMatrix.from_dense(
            (dy.T @ x) * bpd.dense_mask(), p, ks=bpd.ks
        ).data
        np.testing.assert_allclose(bpd.grad_data(x, dy), reference, atol=1e-10)

    def test_backend_switch_keeps_plan_and_values(self):
        bpd = _random_bpd((12, 8), 4, seed=9)
        plan = bpd._get_plan()
        x = np.random.default_rng(10).normal(size=(2, 8))
        before = bpd.set_backend("csr").matmat(x)
        after = bpd.set_backend("gather").matmat(x)
        np.testing.assert_allclose(after, before, atol=1e-12)
        assert bpd._get_plan() is plan


def _masked_dense_grad(bpd, x, dy):
    """Reference ``dq``: the dense ``dy.T @ x`` read at the stored slots."""
    return BlockPermutedDiagonalMatrix.from_dense(
        (dy.T @ x) * bpd.dense_mask(), bpd.p, ks=bpd.ks
    ).data


class TestGradPaths:
    """Both weight-gradient paths -- the small-``p`` slab GEMM plus slot
    pick and the gather contraction -- each forced through the ``p``
    cutoff, against the dense masked reference."""

    PATHS = {"gemm": 1 << 30, "gather": 0}
    GRAD_SHAPES = SHAPES + [((40, 36), 16), ((33, 50), 12)]

    @pytest.fixture(params=sorted(PATHS))
    def path(self, request, monkeypatch):
        monkeypatch.setattr(
            gather_mod, "_GEMM_GRAD_MAX_P", self.PATHS[request.param]
        )
        return request.param

    @pytest.mark.parametrize("shape,p", GRAD_SHAPES)
    @pytest.mark.parametrize("slabs", ["one", "per_block_row"])
    def test_matches_dense_reference(self, path, shape, p, slabs, monkeypatch):
        if slabs == "per_block_row":
            monkeypatch.setattr(gather_mod, "_ONESHOT_LIMIT_ELEMENTS", 0)
        bpd = _random_bpd(shape, p, seed=21)
        rng = np.random.default_rng(22)
        x = rng.normal(size=(6, shape[1]))
        dy = rng.normal(size=(6, shape[0]))
        for name in available_backends():
            bpd.set_backend(name)
            np.testing.assert_allclose(
                bpd.grad_data(x, dy), _masked_dense_grad(bpd, x, dy),
                atol=1e-10, err_msg=f"{path}/{name}",
            )

    @pytest.mark.parametrize("shape,p", GRAD_SHAPES)
    def test_row_shards_match_dense_reference(self, path, shape, p):
        bpd = _random_bpd(shape, p, seed=23)
        rng = np.random.default_rng(24)
        x = rng.normal(size=(5, shape[1]))
        dy = rng.normal(size=(5, shape[0]))
        full = _masked_dense_grad(bpd, x, dy)
        row = 0
        for shard in bpd.row_shards(min(3, bpd.mb)):
            rows = slice(row, row + shard.shape[0])
            np.testing.assert_allclose(
                shard.grad_data(x, dy[:, rows]),
                full[row // p : row // p + shard.mb],
                atol=1e-10,
            )
            row += shard.shape[0]

    @pytest.mark.parametrize("value_dtype,expected", [
        ("float64", np.float64),
        ("float32", np.float32),
        ("int16", np.float64),
    ])
    def test_output_dtype(self, path, value_dtype, expected):
        bpd = _random_bpd((13, 10), 4, seed=25).with_value_dtype(value_dtype)
        rng = np.random.default_rng(26)
        x = rng.normal(size=(3, 10)).astype(np.float32)
        dy = rng.normal(size=(3, 13)).astype(np.float32)
        grad = bpd.grad_data(x, dy)
        assert grad.dtype == expected
        assert grad.shape == bpd.data.shape
        np.testing.assert_allclose(
            grad, _masked_dense_grad(bpd, x.astype(np.float64),
                                     dy.astype(np.float64)),
            rtol=1e-5, atol=1e-5,
        )


class TestInt32Coordinates:
    def test_coo_coordinates_are_int32_for_small_matrices(self):
        bpd = _random_bpd((10, 14), 4)
        for transposed in (False, True):
            mat = bpd._coo(transposed)
            assert mat.row.dtype == np.int32
            assert mat.col.dtype == np.int32

    def test_coo_coordinates_read_only(self):
        bpd = _random_bpd((10, 14), 4)
        for arr in bpd._get_plan().coo_coords():
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_int32_spmm_matches_dense(self):
        bpd = _random_bpd((66, 34), 8, seed=11)
        dense = bpd.to_dense()
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 34))
        np.testing.assert_allclose(bpd.matmat(x), x @ dense.T, atol=1e-10)


class TestPlanSerialization:
    def test_round_trip_restores_every_array(self):
        bpd = _random_bpd((13, 10), 4, seed=13)
        plan = bpd._get_plan().warm()
        clone = mod._IndexPlan.from_bytes(plan.to_bytes())
        assert clone.shape == plan.shape
        assert clone.p == plan.p and clone.nnz == plan.nnz
        assert (clone.mb, clone.nb) == (plan.mb, plan.nb)
        assert clone.full_support == plan.full_support
        np.testing.assert_array_equal(clone.ks, plan.ks)
        np.testing.assert_array_equal(clone.rows, plan.rows)
        np.testing.assert_array_equal(clone.cols, plan.cols)
        np.testing.assert_array_equal(clone.support, plan.support)
        for a, b in zip(clone.transpose_arrays(), plan.transpose_arrays()):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(clone.support_coords(), plan.support_coords()):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(clone.coo_coords(), plan.coo_coords()):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype

    def test_restored_arrays_are_read_only(self):
        bpd = _random_bpd((13, 10), 4, seed=14)
        clone = mod._IndexPlan.from_bytes(bpd.plan_bytes())
        for arr in (clone.rows, clone.cols, clone.support, clone.ks):
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_cold_plan_serializes_without_lazy_members(self):
        """Only the structure is persisted, however warm the source plan
        is; every index array stays lazy on the clone."""
        bpd = _random_bpd((13, 10), 4, seed=15)
        cold = bpd.plan_bytes()
        blob = (bpd._get_plan().warm(), bpd.plan_bytes())[1]
        assert len(blob) == len(cold)
        clone = mod._IndexPlan.from_bytes(blob)
        assert clone._t_arrays is None and clone._support_coords is None
        assert clone._rows is None and clone._cols is None
        assert clone._coo_coords is None

    def test_from_plan_runs_products_without_rebuild(self, monkeypatch):
        bpd = _random_bpd((13, 10), 4, seed=16)
        dense = bpd.to_dense()
        blob = bpd.plan_bytes()
        values = bpd.data.copy()

        def boom(*args, **kwargs):
            raise AssertionError("index plan was rebuilt")

        monkeypatch.setattr(mod._IndexPlan, "__init__", boom)
        clone = BlockPermutedDiagonalMatrix.from_plan(blob, values)
        rng = np.random.default_rng(17)
        x = rng.normal(size=(3, 10))
        y = rng.normal(size=(3, 13))
        np.testing.assert_allclose(clone.matmat(x), x @ dense.T, atol=1e-10)
        np.testing.assert_allclose(clone.rmatmat(y), y @ dense, atol=1e-10)
        np.testing.assert_allclose(
            clone.grad_data(x, y),
            bpd.grad_data(x, y),
            atol=1e-10,
        )

    @pytest.mark.parametrize("version", [999, 1])
    def test_from_bytes_rejects_unknown_version(self, version):
        bpd = _random_bpd((8, 8), 4, seed=22)
        blob = bpd.plan_bytes()
        import io

        with np.load(io.BytesIO(blob)) as archive:
            payload = {key: archive[key] for key in archive.files}
        payload["version"] = np.int64(version)
        buffer = io.BytesIO()
        np.savez(buffer, **payload)
        with pytest.raises(ValueError, match="version"):
            mod._IndexPlan.from_bytes(buffer.getvalue())

    @pytest.mark.parametrize("dropped", ["ks", "shape", "p"])
    def test_plan_without_structure_member_rejected(self, dropped):
        import io

        bpd = _random_bpd((13, 10), 4, seed=24)
        with np.load(io.BytesIO(bpd.plan_bytes())) as archive:
            payload = {
                key: archive[key] for key in archive.files if key != dropped
            }
        buffer = io.BytesIO()
        np.savez(buffer, **payload)
        with pytest.raises(ValueError, match=f"lacks member '{dropped} "):
            mod._IndexPlan.from_bytes(buffer.getvalue())
