"""Index-plan cache: laziness, sharing, invalidation, aliasing, and the
transpose-free backward path."""

import numpy as np
import pytest

import repro.core.block_perm_diag as mod
from repro.core import BlockPermutedDiagonalMatrix, PermutationSpec


def _random_bpd(shape, p, seed=0, scheme="natural"):
    return BlockPermutedDiagonalMatrix.random(
        shape, p, spec=PermutationSpec(scheme=scheme, seed=seed), rng=seed
    )


class TestPlanCache:
    def test_plan_computed_once_and_reused(self):
        bpd = _random_bpd((10, 14), 4)
        assert bpd._get_plan() is bpd._get_plan()
        assert bpd.support_mask() is bpd.support_mask()
        rows1, cols1 = bpd._global_indices()
        rows2, cols2 = bpd._global_indices()
        assert rows1 is rows2 and cols1 is cols2

    def test_plan_built_lazily_for_aligned_shapes(self):
        bpd = BlockPermutedDiagonalMatrix(np.ones((2, 3, 4)), np.zeros((2, 3)))
        assert bpd._plan is None  # aligned construction needs no indices
        bpd.matvec(np.zeros(12))
        assert bpd._plan is not None

    def test_plan_arrays_are_read_only(self):
        bpd = _random_bpd((10, 14), 4)
        rows, cols = bpd._global_indices()
        for arr in (rows, cols, bpd.support_mask()):
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_like_shares_plan_and_matches_products(self):
        base = _random_bpd((10, 14), 4, seed=3)
        rng = np.random.default_rng(0)
        sibling = base.like(rng.normal(size=base.data.shape) * base.support_mask())
        assert sibling._get_plan() is base._get_plan()
        x = rng.normal(size=(3, 14))
        np.testing.assert_allclose(
            sibling.matmat(x), x @ sibling.to_dense().T, atol=1e-12
        )

    def test_like_rejects_wrong_shape(self):
        base = _random_bpd((8, 8), 4)
        with pytest.raises(ValueError):
            base.like(np.zeros((2, 2, 3)))

    @pytest.mark.parametrize("shape", [(8, 12), (7, 10)])  # aligned + padded
    def test_support_coordinates_are_read_only(self, shape):
        bpd = _random_bpd(shape, 4)
        for arr in bpd.support_coordinates():
            with pytest.raises(ValueError):
                arr[...] = 0
        with pytest.raises(ValueError):
            bpd._get_plan().flat_cols[...] = 0

    @pytest.mark.parametrize(
        "shape,p", [((8, 12), 4), ((7, 10), 4), ((30, 45), 4), ((11, 7), 3)]
    )
    def test_support_mask_is_the_in_bounds_slots(self, shape, p):
        """The mask derived from the structure marks exactly the slots
        whose global (row, col) lies inside the logical shape."""
        plan = _random_bpd(shape, p, seed=6, scheme="random")._get_plan()
        inside = (plan.rows < shape[0]) & (plan.cols < shape[1])
        np.testing.assert_array_equal(plan.support, inside)
        assert plan.nnz == int(inside.sum())

    def test_support_coordinates_match_dense_mask(self):
        bpd = _random_bpd((11, 7), 3, seed=5, scheme="random")
        rows, cols = bpd.support_coordinates()
        mask = np.zeros(bpd.shape, dtype=bool)
        mask[rows, cols] = True
        np.testing.assert_array_equal(mask, bpd.dense_mask())


class TestStructureMutation:
    def test_ks_is_read_only(self):
        bpd = _random_bpd((8, 8), 4)
        with pytest.raises(ValueError):
            bpd.ks[...] = 0

    def test_shape_not_assignable(self):
        bpd = _random_bpd((8, 8), 4)
        with pytest.raises(AttributeError):
            bpd.shape = (7, 8)

    def test_set_structure_invalidates_plan(self):
        bpd = _random_bpd((8, 12), 4, seed=1)
        old_plan = bpd._get_plan()
        new_ks = (bpd.ks + 1) % bpd.p
        bpd.set_structure(ks=new_ks)
        assert bpd._get_plan() is not old_plan
        np.testing.assert_array_equal(bpd.ks, new_ks)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 12))
        y = rng.normal(size=(3, 8))
        np.testing.assert_allclose(bpd.matmat(x), x @ bpd.to_dense().T, atol=1e-12)
        np.testing.assert_allclose(bpd.rmatmat(y), y @ bpd.to_dense(), atol=1e-12)

    def test_set_structure_shrinking_shape_remasks_data(self):
        bpd = BlockPermutedDiagonalMatrix(np.ones((2, 2, 4)), np.zeros((2, 2)))
        bpd.set_structure(shape=(7, 6))
        assert np.all(bpd.data[~bpd.support_mask()] == 0)
        assert bpd.nnz == int(bpd.dense_mask().sum())

    def test_set_structure_validates_ks_shape(self):
        bpd = _random_bpd((8, 8), 4)
        with pytest.raises(ValueError):
            bpd.set_structure(ks=np.zeros((3, 3), dtype=int))

    def test_set_structure_validates_logical_shape(self):
        bpd = _random_bpd((8, 8), 4)
        with pytest.raises(ValueError):
            bpd.set_structure(shape=(3, 8))

    def test_set_structure_preserves_buffer_aliasing(self):
        """A shrinking shape re-masks in place: consumers aliasing the data
        buffer (e.g. a Parameter) must keep seeing the matrix's values."""
        bpd = BlockPermutedDiagonalMatrix(np.ones((2, 2, 4)), np.zeros((2, 2)))
        buffer = bpd.data
        bpd.set_structure(shape=(7, 6))
        assert bpd.data is buffer
        assert np.all(buffer[~bpd.support_mask()] == 0)

    def test_set_structure_noop_keeps_working(self):
        bpd = _random_bpd((9, 6), 3, seed=4)
        dense = bpd.to_dense()
        bpd.set_structure()
        np.testing.assert_allclose(bpd.to_dense(), dense)


class TestAliasingContract:
    def test_aligned_data_is_aliased_not_copied(self):
        arr = np.random.default_rng(0).normal(size=(2, 3, 4))
        bpd = BlockPermutedDiagonalMatrix(arr, np.zeros((2, 3)))
        assert bpd.data is arr

    def test_padded_but_already_masked_data_is_aliased(self):
        probe = BlockPermutedDiagonalMatrix.zeros((7, 10), 4)
        arr = np.random.default_rng(1).normal(size=probe.data.shape)
        arr *= probe.support_mask()
        bpd = BlockPermutedDiagonalMatrix(arr, probe.ks, shape=(7, 10))
        assert bpd.data is arr

    def test_padding_violation_triggers_masked_copy(self):
        arr = np.ones((2, 3, 4))
        bpd = BlockPermutedDiagonalMatrix(arr, np.zeros((2, 3)), shape=(7, 10))
        assert bpd.data is not arr
        assert np.all(arr == 1.0)  # caller's array untouched
        assert np.all(bpd.data[~bpd.support_mask()] == 0)

    def test_inplace_updates_visible_through_products(self):
        bpd = _random_bpd((8, 8), 4, seed=2)
        buffer = bpd.data
        x = np.random.default_rng(3).normal(size=(2, 8))
        before = bpd.matmat(x)
        buffer *= 2.0
        np.testing.assert_allclose(bpd.matmat(x), 2.0 * before, atol=1e-12)
        np.testing.assert_allclose(
            bpd.rmatmat(before), before @ bpd.to_dense(), atol=1e-12
        )


class TestTransposeFreeBackward:
    def test_rmatmat_does_not_construct_a_matrix(self, monkeypatch):
        bpd = _random_bpd((10, 14), 4, seed=6)
        bpd._get_plan().transpose_arrays()  # pre-warm so laziness is no excuse

        def boom(*args, **kwargs):
            raise AssertionError("backward must not build matrix objects")

        monkeypatch.setattr(BlockPermutedDiagonalMatrix, "__init__", boom)
        monkeypatch.setattr(BlockPermutedDiagonalMatrix, "transpose", boom)
        rng = np.random.default_rng(7)
        y = rng.normal(size=(3, 10))
        np.testing.assert_allclose(bpd.rmatmat(y), y @ bpd.to_dense(), atol=1e-12)
        np.testing.assert_allclose(
            bpd.rmatvec(y[0]), bpd.to_dense().T @ y[0], atol=1e-12
        )

    def test_rmatmat_consistent_over_forward_backward_cycles(self):
        """Plan-cache correctness under training-style reuse: repeated
        forward/backward with in-place weight updates, random spec and a
        non-multiple-of-p shape."""
        bpd = _random_bpd((13, 10), 4, seed=8, scheme="random")
        rng = np.random.default_rng(9)
        for _ in range(4):
            x = rng.normal(size=(5, 10))
            dy = rng.normal(size=(5, 13))
            dense = bpd.to_dense()
            np.testing.assert_allclose(bpd.matmat(x), x @ dense.T, atol=1e-12)
            np.testing.assert_allclose(bpd.rmatmat(dy), dy @ dense, atol=1e-12)
            grad = bpd.grad_data(x, dy)
            ref = BlockPermutedDiagonalMatrix.from_dense(
                (dy.T @ x) * bpd.dense_mask(), bpd.p, ks=bpd.ks
            )
            np.testing.assert_allclose(grad, ref.data, atol=1e-10)
            bpd.data -= 0.1 * grad  # in-place update, like an optimizer

    def test_grad_data_validates_x_width(self):
        bpd = _random_bpd((8, 8), 4)
        with pytest.raises(ValueError):
            bpd.grad_data(np.zeros((2, 7)), np.zeros((2, 8)))


class TestScipyFallback:
    @pytest.fixture()
    def no_scipy(self, monkeypatch):
        monkeypatch.setattr(mod, "_scipy_sparse", None)

    def test_products_match_dense_without_scipy(self, no_scipy):
        bpd = _random_bpd((11, 14), 4, seed=10, scheme="random")
        dense = bpd.to_dense()
        rng = np.random.default_rng(11)
        x = rng.normal(size=(3, 14))
        y = rng.normal(size=(3, 11))
        np.testing.assert_allclose(bpd.matmat(x), x @ dense.T, atol=1e-12)
        np.testing.assert_allclose(bpd.rmatmat(y), y @ dense, atol=1e-12)
        np.testing.assert_allclose(bpd.matvec(x[0]), dense @ x[0], atol=1e-12)
        np.testing.assert_allclose(bpd.rmatvec(y[0]), dense.T @ y[0], atol=1e-12)

    def test_block_loop_paths_match_dense(self, no_scipy, monkeypatch):
        monkeypatch.setattr(mod, "_GATHER_ELEMENT_LIMIT", 0)
        bpd = _random_bpd((11, 14), 4, seed=12)
        dense = bpd.to_dense()
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 14))
        y = rng.normal(size=(3, 11))
        np.testing.assert_allclose(bpd.matmat(x), x @ dense.T, atol=1e-12)
        np.testing.assert_allclose(bpd.rmatmat(y), y @ dense, atol=1e-12)
        grad = bpd.grad_data(x, y)
        ref = BlockPermutedDiagonalMatrix.from_dense(
            (y.T @ x) * bpd.dense_mask(), 4, ks=bpd.ks
        )
        np.testing.assert_allclose(grad, ref.data, atol=1e-10)

    def test_scipy_and_fallback_agree(self, monkeypatch):
        bpd = _random_bpd((9, 12), 4, seed=14)
        rng = np.random.default_rng(15)
        x = rng.normal(size=(2, 12))
        y = rng.normal(size=(2, 9))
        with_scipy = (bpd.matmat(x), bpd.rmatmat(y))
        monkeypatch.setattr(mod, "_scipy_sparse", None)
        np.testing.assert_allclose(bpd.matmat(x), with_scipy[0], atol=1e-12)
        np.testing.assert_allclose(bpd.rmatmat(y), with_scipy[1], atol=1e-12)
