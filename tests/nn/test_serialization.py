"""Tests for model checkpointing."""

import numpy as np
import pytest

from repro.nn import Linear, PermDiagLinear, ReLU, Sequential
from repro.nn.serialization import load_model, save_model


class TestCheckpointing:
    def _model(self, seed=0):
        return Sequential(
            PermDiagLinear(16, 32, p=4, rng=seed),
            ReLU(),
            Linear(32, 4, rng=seed + 1),
        )

    def test_round_trip_preserves_outputs(self, tmp_path):
        model = self._model(seed=0)
        path = str(tmp_path / "ckpt.npz")
        save_model(path, model)
        clone = self._model(seed=99)  # different init
        load_model(path, clone)
        x = np.random.default_rng(3).normal(size=(4, 16))
        clone.eval()
        model.eval()
        np.testing.assert_allclose(clone.forward(x), model.forward(x))

    def test_pd_checkpoint_is_compact(self, tmp_path):
        import os

        pd_path = str(tmp_path / "pd.npz")
        dense_path = str(tmp_path / "dense.npz")
        rng = np.random.default_rng(0)
        pd = Sequential(PermDiagLinear(256, 256, p=8, bias=False, rng=rng))
        # defeat compression with incompressible random values
        dense = Sequential(Linear(256, 256, bias=False, rng=rng))
        save_model(pd_path, pd)
        save_model(dense_path, dense)
        assert os.path.getsize(pd_path) < os.path.getsize(dense_path) / 4

    def test_shape_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_model(path, self._model())
        wrong = Sequential(PermDiagLinear(16, 32, p=2, rng=0))
        with pytest.raises(ValueError):
            load_model(path, wrong)

    def test_structure_survives_checkpoint(self, tmp_path):
        model = self._model(seed=1)
        path = str(tmp_path / "ckpt.npz")
        save_model(path, model)
        clone = self._model(seed=2)
        load_model(path, clone)
        pd = clone[0]
        dense = pd.to_dense_weight()
        assert np.all(dense[~pd.matrix.dense_mask()] == 0)


class TestUnsupportedLayerError:
    def test_dense_layer_message_pins_class_and_index(self):
        from repro.nn.serialization import (
            UnsupportedLayerError,
            model_stage_specs,
        )

        model = Sequential(
            PermDiagLinear(16, 32, p=4, bias=False, rng=0),
            ReLU(),
            Linear(32, 4, rng=1),  # module index 3 (root Sequential is 0)
        )
        with pytest.raises(
            UnsupportedLayerError,
            match=r"^module 3 \(Linear\) is not servable \(expected "
            r"PermDiagLinear, PermDiagConv2D \+ ReLU/Tanh/MaxPool2D, or PD "
            r"LSTM stacks\)$",
        ) as excinfo:
            model_stage_specs(model)
        assert excinfo.value.index == 3
        assert excinfo.value.layer_type == "Linear"

    def test_is_a_value_error(self):
        """Existing ``except ValueError`` call sites keep catching it."""
        from repro.nn.serialization import UnsupportedLayerError

        assert issubclass(UnsupportedLayerError, ValueError)

    def test_pooling_layer_rejected_not_skipped(self):
        from repro.nn import MaxPool2D
        from repro.nn.serialization import (
            UnsupportedLayerError,
            model_stage_specs,
        )

        model = Sequential(
            PermDiagLinear(16, 16, p=4, bias=False, rng=0),
            MaxPool2D(2),
        )
        with pytest.raises(
            UnsupportedLayerError, match=r"module 2 \(MaxPool2D\)"
        ):
            model_stage_specs(model)

    def test_nonzero_bias_rejected_with_index(self):
        from repro.nn.serialization import (
            UnsupportedLayerError,
            model_stage_specs,
        )

        model = Sequential(PermDiagLinear(16, 16, p=4, bias=True, rng=0))
        model[0].bias.value[:] = 1.0
        with pytest.raises(
            UnsupportedLayerError,
            match=r"module 1 \(PermDiagLinear\) carries a non-zero bias",
        ):
            model_stage_specs(model)

    def test_orphan_activation_rejected_with_index(self):
        from repro.nn import Tanh
        from repro.nn.serialization import (
            UnsupportedLayerError,
            model_stage_specs,
        )

        model = Sequential(Tanh())
        with pytest.raises(
            UnsupportedLayerError,
            match=r"module 1 \(Tanh\) is an activation that does not "
            r"follow a PD FC or conv layer",
        ):
            model_stage_specs(model)
