"""Tests for losses, optimizers, and the trainer loop."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    CrossEntropyLoss,
    Dropout,
    Linear,
    MSELoss,
    PermDiagLinear,
    ReLU,
    SGD,
    Sequential,
    Trainer,
    evaluate_classifier,
)
from repro.nn.losses import cross_entropy_with_onehot
from repro.nn.optim import clip_grad_norm
from repro.nn.parameter import Parameter

rng = np.random.default_rng(5)


class TestCrossEntropy:
    def test_matches_onehot_formulation(self):
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        loss = CrossEntropyLoss()
        assert loss.forward(logits, labels) == pytest.approx(
            cross_entropy_with_onehot(logits, labels), rel=1e-9
        )

    def test_perfect_prediction_low_loss(self):
        logits = np.full((2, 3), -50.0)
        logits[0, 1] = logits[1, 2] = 50.0
        loss = CrossEntropyLoss().forward(logits, np.array([1, 2]))
        assert loss < 1e-6

    def test_gradient_matches_numeric(self):
        logits = rng.normal(size=(4, 5))
        labels = np.array([0, 2, 4, 1])
        loss = CrossEntropyLoss()
        loss.forward(logits, labels)
        grad = loss.backward()
        eps = 1e-6
        numeric = np.zeros_like(logits)
        for idx in np.ndindex(*logits.shape):
            orig = logits[idx]
            logits[idx] = orig + eps
            plus = CrossEntropyLoss().forward(logits, labels)
            logits[idx] = orig - eps
            minus = CrossEntropyLoss().forward(logits, labels)
            logits[idx] = orig
            numeric[idx] = (plus - minus) / (2 * eps)
        np.testing.assert_allclose(grad, numeric, atol=1e-7)

    def test_ignore_index_masks_positions(self):
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, -1, 2, -1])
        loss = CrossEntropyLoss(ignore_index=-1)
        value = loss.forward(logits, labels)
        grad = loss.backward()
        assert np.all(grad[1] == 0) and np.all(grad[3] == 0)
        # equals mean over the two valid rows
        ref = CrossEntropyLoss().forward(logits[[0, 2]], labels[[0, 2]])
        assert value == pytest.approx(ref)

    def test_all_ignored_raises(self):
        loss = CrossEntropyLoss(ignore_index=0)
        with pytest.raises(ValueError):
            loss.forward(rng.normal(size=(2, 3)), np.zeros(2, dtype=int))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CrossEntropyLoss().forward(rng.normal(size=(2, 3)), np.zeros(3, dtype=int))

    def test_numerical_stability_large_logits(self):
        logits = np.array([[1e4, -1e4]])
        loss = CrossEntropyLoss().forward(logits, np.array([0]))
        assert np.isfinite(loss) and loss < 1e-6


class TestMSE:
    def test_value(self):
        loss = MSELoss()
        assert loss.forward(np.array([1.0, 3.0]), np.array([0.0, 1.0])) == pytest.approx(2.5)

    def test_gradient(self):
        loss = MSELoss()
        pred = np.array([2.0, -1.0])
        loss.forward(pred, np.zeros(2))
        np.testing.assert_allclose(loss.backward(), [2.0, -1.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            MSELoss().forward(np.zeros(2), np.zeros(3))


class TestOptimizers:
    def test_sgd_basic_step(self):
        param = Parameter(np.array([1.0, 2.0]))
        param.grad[...] = [0.5, -0.5]
        SGD([param], lr=0.1).step()
        np.testing.assert_allclose(param.value, [0.95, 2.05])

    def test_sgd_momentum_accumulates(self):
        param = Parameter(np.array([0.0]))
        opt = SGD([param], lr=1.0, momentum=0.5)
        param.grad[...] = [1.0]
        opt.step()  # v=1, x=-1
        param.grad[...] = [1.0]
        opt.step()  # v=1.5, x=-2.5
        np.testing.assert_allclose(param.value, [-2.5])

    def test_sgd_weight_decay(self):
        param = Parameter(np.array([2.0]))
        opt = SGD([param], lr=0.1, weight_decay=0.5)
        param.grad[...] = [0.0]
        opt.step()
        np.testing.assert_allclose(param.value, [2.0 - 0.1 * 0.5 * 2.0])

    def test_adam_moves_toward_minimum(self):
        param = Parameter(np.array([5.0]))
        opt = Adam([param], lr=0.1)
        for _ in range(300):
            param.zero_grad()
            param.grad[...] = 2 * param.value  # d/dx x^2
            opt.step()
        assert abs(param.value[0]) < 0.05

    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.0)
        with pytest.raises(ValueError):
            Adam([], lr=-1.0)

    def test_clip_grad_norm(self):
        params = [Parameter(np.zeros(3)), Parameter(np.zeros(4))]
        params[0].grad[...] = [3.0, 0.0, 0.0]
        params[1].grad[...] = [0.0, 4.0, 0.0, 0.0]
        pre = clip_grad_norm(params, max_norm=1.0)
        assert pre == pytest.approx(5.0)
        total = np.sqrt(sum((p.grad**2).sum() for p in params))
        assert total == pytest.approx(1.0)


class TestTrainer:
    def _toy_data(self, count=300):
        gen = np.random.default_rng(0)
        x = gen.normal(size=(count, 8))
        y = (x[:, 0] + x[:, 1] > 0).astype(int)
        return x, y

    def test_dense_model_learns(self):
        x, y = self._toy_data()
        model = Sequential(Linear(8, 16, rng=0), ReLU(), Linear(16, 2, rng=1))
        trainer = Trainer(
            model, Adam(model.parameters(), lr=0.01), CrossEntropyLoss(), rng=0
        )
        history = trainer.fit(x, y, x, y, epochs=10)
        assert history.final_test_accuracy > 0.9

    def test_pd_model_learns_same_task(self):
        """The compressed model should track the dense model's accuracy
        (the paper's central accuracy claim, at toy scale)."""
        x, y = self._toy_data()
        model = Sequential(
            PermDiagLinear(8, 16, p=2, rng=2), ReLU(), PermDiagLinear(16, 2, p=2, rng=3)
        )
        trainer = Trainer(
            model, Adam(model.parameters(), lr=0.01), CrossEntropyLoss(), rng=0
        )
        history = trainer.fit(x, y, x, y, epochs=10)
        assert history.final_test_accuracy > 0.9

    def test_loss_decreases(self):
        x, y = self._toy_data()
        model = Sequential(Linear(8, 8, rng=4), ReLU(), Linear(8, 2, rng=5))
        trainer = Trainer(
            model, SGD(model.parameters(), lr=0.05), CrossEntropyLoss(), rng=0
        )
        history = trainer.fit(x, y, epochs=8)
        assert history.losses[-1] < history.losses[0]

    def test_history_records_all_epochs(self):
        x, y = self._toy_data(64)
        model = Sequential(Linear(8, 2, rng=6))
        trainer = Trainer(
            model, SGD(model.parameters(), lr=0.01), CrossEntropyLoss(), rng=0
        )
        history = trainer.fit(x, y, x, y, epochs=3)
        assert len(history.losses) == 3
        assert len(history.test_accuracy) == 3

    def _pd_model(self):
        return Sequential(
            PermDiagLinear(8, 16, p=2, rng=7), ReLU(), Linear(16, 2, rng=8)
        )

    def _trainer(self, model, loss=None):
        return Trainer(
            model, Adam(model.parameters(), lr=0.01),
            loss or CrossEntropyLoss(), batch_size=32, rng=9,
        )

    def test_fit_runs_one_forward_per_minibatch(self):
        x, y = self._toy_data(100)
        model = self._pd_model()
        calls = []
        forward = model.forward
        model.forward = lambda xb: calls.append(len(xb)) or forward(xb)
        self._trainer(model).fit(x, y, epochs=3)
        assert len(calls) == 3 * int(np.ceil(100 / 32))
        assert sum(calls) == 3 * 100

    def test_train_accuracy_is_running_minibatch_accuracy(self):
        x, y = self._toy_data(100)
        seen = []

        class RecordingLoss(CrossEntropyLoss):
            def forward(self, logits, labels):
                seen.append(int((logits.argmax(axis=1) == labels).sum()))
                return super().forward(logits, labels)

        history = self._trainer(self._pd_model(), RecordingLoss()).fit(
            x, y, epochs=3
        )
        per_epoch = int(np.ceil(100 / 32))
        assert history.train_accuracy == [
            sum(seen[e * per_epoch : (e + 1) * per_epoch]) / 100
            for e in range(3)
        ]

    def test_fit_matches_manual_train_epoch_loop(self):
        x, y = self._toy_data(100)
        fitted, manual = self._pd_model(), self._pd_model()
        history = self._trainer(fitted).fit(x, y, x, y, epochs=3)
        trainer = self._trainer(manual)
        losses = [trainer.train_epoch(x, y) for _ in range(3)]
        assert history.losses == losses
        for a, b in zip(fitted.parameters(), manual.parameters()):
            np.testing.assert_array_equal(a.value, b.value)

    def test_evaluate_classifier_keeps_caller_mode(self):
        x, y = self._toy_data(50)
        model = Sequential(Linear(8, 16, rng=10), Dropout(0.5, rng=11),
                           Linear(16, 2, rng=12)).eval()
        before = model.forward(x)
        evaluate_classifier(model, x, y)
        assert not any(module.training for module in model.modules())
        np.testing.assert_array_equal(model.forward(x), before)
        # Mixed modes come back exactly as they were.
        model.train()
        model.layers[1].training = False
        evaluate_classifier(model, x, y)
        assert [module.training for module in model.modules()] == [
            True, True, False, True
        ]
