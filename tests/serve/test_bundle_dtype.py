"""Sharded bundles carry and cross-check value dtypes in the manifest."""

import json

import numpy as np
import pytest

from repro.core import BlockPermutedDiagonalMatrix
from repro.nn.quantization import FixedPointFormat
from repro.serve.bundle import export_staged_bundle, load_staged_bundle
from repro.serve.server import ModelServer, ShardedLayer


def _layers():
    return [
        (
            BlockPermutedDiagonalMatrix.random(
                (64, 48), 8, rng=1, value_dtype="float32"
            ),
            "relu",
        ),
        (
            BlockPermutedDiagonalMatrix.random(
                (32, 64),
                8,
                rng=2,
                value_dtype="int16",
                fixed_point=FixedPointFormat(16, 13),
            ),
            None,
        ),
    ]


def _export(directory, layers, num_shards):
    export_staged_bundle(
        directory,
        [ShardedLayer(matrix, act, num_shards) for matrix, act in layers],
    )


def test_bundle_round_trip_preserves_value_dtypes(tmp_path):
    _export(tmp_path, _layers(), num_shards=4)
    stages, manifest = load_staged_bundle(tmp_path)
    assert manifest["layers"][0]["value_dtype"] == "float32"
    assert manifest["layers"][0]["fixed_point"] is None
    assert manifest["layers"][1]["value_dtype"] == "int16"
    assert manifest["layers"][1]["fixed_point"] == [16, 13]
    for stage, (orig, _) in zip(stages, _layers()):
        for shard in stage.shards:
            assert shard.value_dtype == orig.value_dtype
            assert shard.fixed_point == orig.fixed_point
            assert shard.data.dtype == orig.data.dtype


def test_bundle_server_matches_direct_chain(tmp_path):
    layers = _layers()
    _export(tmp_path, layers, num_shards=4)
    server = ModelServer.from_bundle(tmp_path, enforce_capacity=False)
    x = np.random.default_rng(0).normal(size=(5, 48))
    server.submit_many(x)
    report = server.drain()
    hidden = np.maximum(layers[0][0].matmat(x), 0.0)
    expected = layers[1][0].matmat(hidden)
    np.testing.assert_array_equal(np.stack(report.outputs), expected)


def test_manifest_dtype_mismatch_fails_loudly(tmp_path):
    _export(tmp_path, _layers(), num_shards=2)
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["layers"][0]["value_dtype"] = "int16"
    manifest["layers"][0]["fixed_point"] = [16, 12]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="does not match"):
        load_staged_bundle(tmp_path)
