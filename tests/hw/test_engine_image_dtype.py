"""Engine images (format v2, the only one loaded) persist per-layer value
dtypes."""

import numpy as np
import pytest

from repro.core import BlockPermutedDiagonalMatrix
from repro.hw.engine import export_engine_image, load_engine_image
from repro.nn.quantization import FixedPointFormat


def _stack():
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
        (BlockPermutedDiagonalMatrix.random((16, 32), 8, rng=3), "tanh"),
    ]


def test_image_round_trip_preserves_value_dtypes(tmp_path):
    path = tmp_path / "image.npz"
    layers = _stack()
    export_engine_image(path, layers)
    loaded = load_engine_image(path)
    assert len(loaded) == len(layers)
    for (orig, orig_act), (mat, act) in zip(layers, loaded):
        assert act == orig_act
        assert mat.value_dtype == orig.value_dtype
        assert mat.fixed_point == orig.fixed_point
        assert mat.data.dtype == orig.data.dtype
        np.testing.assert_array_equal(mat.data, orig.data)


def test_image_round_trip_products_bit_match(tmp_path):
    path = tmp_path / "image.npz"
    layers = _stack()
    export_engine_image(path, layers)
    loaded = load_engine_image(path)
    x = np.random.default_rng(0).normal(size=(5, 48))
    for (orig, _), (mat, _) in zip(layers, loaded):
        if orig.shape[1] != 48:
            x = np.random.default_rng(0).normal(size=(5, orig.shape[1]))
        np.testing.assert_array_equal(mat.matmat(x), orig.matmat(x))


def test_future_image_version_rejected(tmp_path):
    path = tmp_path / "future.npz"
    np.savez_compressed(
        path, image_version=np.int64(99), num_layers=np.int64(0)
    )
    with pytest.raises(ValueError, match="version 99"):
        load_engine_image(path)


@pytest.mark.parametrize(
    "member", ["layer0_value_dtype", "layer1_plan", "layer2_q"]
)
def test_missing_member_names_the_file(tmp_path, member):
    path = tmp_path / "image.npz"
    export_engine_image(path, _stack())
    with np.load(path) as archive:
        payload = {
            key: archive[key] for key in archive.files if key != member
        }
    np.savez(path, **payload)
    with pytest.raises(ValueError, match=rf"image\.npz.*{member}"):
        load_engine_image(path)
