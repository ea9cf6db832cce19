"""Sharded image bundles: round trips, plan reuse, manifest validation."""

import json

import numpy as np
import pytest

import repro.core.block_perm_diag as mod
from repro.core import BlockPermutedDiagonalMatrix, PermutationSpec
from repro.serve import (
    ModelServer,
    ShardedLayer,
    export_model_bundle,
    export_staged_bundle,
    load_staged_bundle,
)


def _stack(seed=0):
    rng = np.random.default_rng(seed)
    spec = PermutationSpec(scheme="random", seed=seed)
    l1 = BlockPermutedDiagonalMatrix.random((64, 48), 4, spec=spec, rng=rng)
    l2 = BlockPermutedDiagonalMatrix.random((30, 64), 8, spec=spec, rng=rng)
    return [(l1, "relu"), (l2, None)]


def _export(directory, layers, num_shards=2):
    export_staged_bundle(
        directory,
        [ShardedLayer(matrix, act, num_shards) for matrix, act in layers],
    )


class TestBundleRoundTrip:
    def test_loaded_bundle_serves_identically(self, tmp_path):
        layers = _stack()
        xs = np.random.default_rng(1).normal(size=(5, 48))
        ref = ModelServer(layers, num_shards=2, max_batch_size=4)
        ref.submit_many(xs)
        reference = ref.drain()

        _export(tmp_path, layers)
        server = ModelServer.from_bundle(tmp_path, max_batch_size=4)
        assert server.num_shards == 2
        server.submit_many(xs)
        report = server.drain()
        np.testing.assert_array_equal(
            np.stack(report.outputs), np.stack(reference.outputs)
        )
        assert report.batch_sizes == reference.batch_sizes

    def test_bundle_load_never_rebuilds_plans(self, tmp_path, monkeypatch):
        """The cold-start property: booting a sharded server from a bundle
        performs no index arithmetic at all."""
        layers = _stack()
        _export(tmp_path, layers)

        def boom(*args, **kwargs):
            raise AssertionError("bundle load rebuilt an index plan")

        monkeypatch.setattr(mod._IndexPlan, "__init__", boom)
        server = ModelServer.from_bundle(tmp_path)
        server.submit_many(np.random.default_rng(2).normal(size=(3, 48)))
        assert server.drain().num_requests == 3

    def test_manifest_describes_the_model(self, tmp_path):
        _export(tmp_path, _stack())
        stages, manifest = load_staged_bundle(tmp_path)
        assert manifest["num_shards"] == 2 and manifest["num_layers"] == 2
        assert [spec["shape"] for spec in manifest["layers"]] == [
            [64, 48], [30, 64],
        ]
        layer1, layer2 = stages
        assert layer1.activation == "relu" and layer2.activation is None
        assert sum(s.shape[0] for s in layer1.shards) == 64
        assert sum(s.shape[0] for s in layer2.shards) == 30

    def test_export_model_bundle(self, tmp_path):
        from repro.models import build_alexnet_fc

        model = build_alexnet_fc(scale=64, dropout=0.0, rng=0)
        export_model_bundle(tmp_path, model, num_shards=2)
        server = ModelServer.from_bundle(tmp_path)
        xs = np.random.default_rng(3).normal(size=(3, server.in_features))
        server.submit_many(xs)
        model.eval()
        np.testing.assert_allclose(
            np.stack(server.drain().outputs), model.forward(xs), atol=1e-10
        )


class TestBundleValidation:
    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            load_staged_bundle(tmp_path)

    @pytest.mark.parametrize("version", [999, 1, 2])
    def test_version_mismatch_rejected(self, tmp_path, version):
        _export(tmp_path, _stack())
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["bundle_version"] = version
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="version"):
            load_staged_bundle(tmp_path)

    def test_shape_tampering_rejected(self, tmp_path):
        _export(tmp_path, _stack())
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["layers"][0]["shape"] = [63, 48]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="does not match"):
            load_staged_bundle(tmp_path)

    @pytest.mark.parametrize("field", ["value_dtype", "stage_kind", "slots"])
    def test_missing_field_rejected_naming_the_manifest(self, tmp_path, field):
        """Older manifests' defaults are gone: every layer field is
        required."""
        _export(tmp_path, _stack())
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["layers"][1][field]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=rf"manifest\.json.*{field}"):
            load_staged_bundle(tmp_path)

    @pytest.mark.parametrize("absolute", [True, False])
    def test_shard_file_outside_the_bundle_rejected(self, tmp_path, absolute):
        """A manifest may not point the loader at another bundle's
        images, even when they exist and match."""
        other, bundle = tmp_path / "other", tmp_path / "bundle"
        _export(other, _stack())
        _export(bundle, _stack())
        (bundle / "shard0.npz").unlink()
        manifest_path = bundle / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["shard_files"][0] = (
            str(other / "shard0.npz") if absolute else "../other/shard0.npz"
        )
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=r"manifest\.json.*shard files"):
            load_staged_bundle(bundle)

    def test_empty_stack_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            export_staged_bundle(tmp_path, [])

    def test_unservable_model_rejected(self, tmp_path):
        from repro.models import build_alexnet_fc

        dense = build_alexnet_fc(None, scale=64, dropout=0.0, rng=0)
        with pytest.raises(ValueError, match="not servable"):
            export_model_bundle(tmp_path, dense, num_shards=2)


class TestBundleSanitizer:
    def test_bundle_boot_and_serve_zero_plan_builds(self, tmp_path):
        """Sanitizer-counted cold-start property: loading a sharded bundle
        and serving from it performs no index arithmetic at all -- every
        plan arrives deserialized."""
        from repro.debug import sanitize

        layers = _stack()
        _export(tmp_path, layers)
        xs = np.random.default_rng(2).normal(size=(4, 48))
        with sanitize() as s:
            server = ModelServer.from_bundle(tmp_path, max_batch_size=4)
            server.submit_many(xs)
            server.drain()
            assert s.stats.plan_builds == 0
            assert s.stats.plan_rebuilds == 0
            s.assert_no_plan_rebuild()
