"""Engine images: persisted plans reload without index recomputation."""

import numpy as np
import pytest

import repro.core.block_perm_diag as mod
from repro.core import BlockPermutedDiagonalMatrix
from repro.hw import (
    EngineImageBackendError,
    PermDNNEngine,
    export_engine_image,
    load_engine_image,
)


def _layers(rng):
    m1 = BlockPermutedDiagonalMatrix.random((64, 48), 4, rng=rng)
    m2 = BlockPermutedDiagonalMatrix.random((30, 64), 8, rng=rng)  # padded m
    return [(m1, "relu"), (m2, None)]


class TestEngineImage:
    def test_round_trip_matches_original_network(self, tmp_path):
        rng = np.random.default_rng(0)
        layers = _layers(rng)
        x = rng.normal(size=48)
        engine = PermDNNEngine()
        reference, _ = engine.run_network(layers, x)

        path = str(tmp_path / "image.npz")
        export_engine_image(path, layers)
        loaded = load_engine_image(path)
        assert len(loaded) == 2
        assert [activation for _, activation in loaded] == ["relu", None]
        output, results = engine.run_network(loaded, x)
        np.testing.assert_allclose(output, reference, atol=1e-12)
        assert len(results) == 2

    def test_loaded_image_never_rebuilds_plans(self, tmp_path, monkeypatch):
        """The acceptance property: a serialized plan reloads and executes
        in the engine without any index arithmetic being recomputed."""
        rng = np.random.default_rng(1)
        layers = _layers(rng)
        x = rng.normal(size=48)
        path = str(tmp_path / "image.npz")
        export_engine_image(path, layers)

        def boom(*args, **kwargs):
            raise AssertionError("engine image load rebuilt an index plan")

        monkeypatch.setattr(mod._IndexPlan, "__init__", boom)
        loaded = load_engine_image(path)
        engine = PermDNNEngine()
        output, _ = engine.run_network(loaded, x)
        # bit-accurate mode exercises like(), which must also reuse the plan
        engine.run_fc_layer(loaded[0][0], x, bit_accurate=True)
        assert output.shape == (30,)

    def test_loaded_matrices_preserve_structure(self, tmp_path):
        rng = np.random.default_rng(2)
        layers = _layers(rng)
        path = str(tmp_path / "image.npz")
        export_engine_image(path, layers)
        for (orig, _), (loaded, _) in zip(layers, load_engine_image(path)):
            assert loaded.shape == orig.shape and loaded.p == orig.p
            np.testing.assert_array_equal(loaded.ks, orig.ks)
            np.testing.assert_allclose(loaded.to_dense(), orig.to_dense())

    def test_metadata_plan_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(4)
        path = str(tmp_path / "image.npz")
        export_engine_image(path, _layers(rng))
        with np.load(path) as archive:
            payload = {key: archive[key] for key in archive.files}
        payload["layer0_shape"] = np.asarray([63, 48], dtype=np.int64)
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError, match="does not match"):
            load_engine_image(path)

    @pytest.mark.parametrize("version", [999, 1])
    def test_version_mismatch_rejected(self, tmp_path, version):
        rng = np.random.default_rng(3)
        path = str(tmp_path / "image.npz")
        export_engine_image(path, _layers(rng))
        with np.load(path) as archive:
            payload = {key: archive[key] for key in archive.files}
        payload["image_version"] = np.int64(version)
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError, match="version"):
            load_engine_image(path)


class TestImageBackendMetadata:
    def _pinned_image(self, tmp_path, backend):
        rng = np.random.default_rng(5)
        layers = _layers(rng)
        layers[0][0].set_backend(backend)
        path = str(tmp_path / "image.npz")
        export_engine_image(path, layers)
        return path

    def test_pinned_backend_round_trips(self, tmp_path):
        path = self._pinned_image(tmp_path, "gather")
        loaded = load_engine_image(path)
        assert loaded[0][0].backend == "gather"
        assert loaded[1][0].backend is None

    def test_unavailable_backend_raises_typed_error(self, tmp_path, monkeypatch):
        path = self._pinned_image(tmp_path, "csr")
        monkeypatch.setattr(mod, "_scipy_sparse", None)  # csr now unavailable
        with pytest.raises(EngineImageBackendError, match="csr"):
            load_engine_image(path)

    def test_unknown_backend_raises_typed_error(self, tmp_path):
        path = self._pinned_image(tmp_path, "gather")
        with np.load(path) as archive:
            payload = {key: archive[key] for key in archive.files}
        payload["layer0_backend"] = np.str_("bogus")
        np.savez_compressed(path, **payload)
        with pytest.raises(EngineImageBackendError, match="bogus"):
            load_engine_image(path)

    def test_fallback_warns_and_uses_default_backend(
        self, tmp_path, monkeypatch
    ):
        path = self._pinned_image(tmp_path, "csr")
        monkeypatch.setattr(mod, "_scipy_sparse", None)
        with pytest.warns(RuntimeWarning, match="falling back"):
            loaded = load_engine_image(path, missing_backend="fallback")
        assert loaded[0][0].backend is None
        # the fallback image still executes (on the default backend)
        rng = np.random.default_rng(6)
        PermDNNEngine().run_network(loaded, rng.normal(size=48))

    def test_invalid_missing_backend_value_rejected(self, tmp_path):
        path = self._pinned_image(tmp_path, "gather")
        with pytest.raises(ValueError, match="missing_backend"):
            load_engine_image(path, missing_backend="ignore")

    def test_images_without_backend_key_still_load(self, tmp_path):
        """Backward compatibility: images written before the backend key
        existed (same format version) load with no pinned backend."""
        rng = np.random.default_rng(7)
        path = str(tmp_path / "image.npz")
        export_engine_image(path, _layers(rng))
        with np.load(path) as archive:
            payload = {
                key: archive[key]
                for key in archive.files
                if not key.endswith("_backend")
            }
        np.savez_compressed(path, **payload)
        loaded = load_engine_image(path)
        assert all(matrix.backend is None for matrix, _ in loaded)
