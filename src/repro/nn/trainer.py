"""Training loop helpers for classifier models."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.module import Module

__all__ = ["Trainer", "TrainHistory", "evaluate_classifier", "iterate_minibatches"]


def iterate_minibatches(
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int,
    rng: np.random.Generator | None = None,
):
    """Yield shuffled ``(x_batch, y_batch)`` pairs covering the dataset."""
    count = x.shape[0]
    order = np.arange(count)
    if rng is not None:
        rng.shuffle(order)
    for start in range(0, count, batch_size):
        idx = order[start : start + batch_size]
        yield x[idx], y[idx]


def evaluate_classifier(model: Module, x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> float:
    """Top-1 accuracy of ``model`` on ``(x, y)``, run in eval mode.

    Every submodule's train/eval mode is restored afterwards, so the
    caller's model leaves exactly as it came in.
    """
    modes = [(module, module.training) for module in model.modules()]
    model.eval()
    try:
        correct = 0
        for start in range(0, x.shape[0], batch_size):
            logits = model.forward(x[start : start + batch_size])
            correct += int((logits.argmax(axis=1) == y[start : start + batch_size]).sum())
    finally:
        for module, training in modes:
            module.training = training
    return correct / x.shape[0]


@dataclass
class TrainHistory:
    """Per-epoch training record.

    ``train_accuracy`` is each epoch's *running* top-1 accuracy: the
    fraction of training samples classified correctly by the minibatch
    logits the epoch already computed, i.e. in train mode and before that
    minibatch's update -- not a second pass over the training set.
    ``test_accuracy`` is a separate eval-mode pass after the epoch.
    """

    losses: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    test_accuracy: list[float] = field(default_factory=list)

    @property
    def final_test_accuracy(self) -> float:
        return self.test_accuracy[-1] if self.test_accuracy else float("nan")


class Trainer:
    """Minimal epoch-driven trainer for classification models.

    Each epoch runs exactly one forward/backward per minibatch; the
    training accuracy in :class:`TrainHistory` comes from those logits.

    Args:
        model: the network (forward/backward Module).
        optimizer: an optimizer bound to ``model.parameters()``.
        loss: a loss object with ``forward(logits, labels)`` / ``backward()``.
        batch_size: minibatch size.
        rng: shuffling generator or seed.
    """

    def __init__(
        self,
        model: Module,
        optimizer,
        loss,
        batch_size: int = 64,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.loss = loss
        self.batch_size = batch_size
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        self.rng = rng

    def train_epoch(self, x: np.ndarray, y: np.ndarray) -> float:
        """One pass over the data; returns the mean minibatch loss."""
        return self._run_epoch(x, y)[0]

    def _run_epoch(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
        """One pass over the data: mean minibatch loss and running top-1
        accuracy of the minibatch logits."""
        self.model.train()
        losses = []
        correct = 0
        for xb, yb in iterate_minibatches(x, y, self.batch_size, self.rng):
            logits = self.model.forward(xb)
            correct += int((logits.argmax(axis=1) == yb).sum())
            losses.append(self.loss.forward(logits, yb))
            self.optimizer.zero_grad()
            self.model.backward(self.loss.backward())
            self.optimizer.step()
        return float(np.mean(losses)), correct / x.shape[0]

    def fit(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_test: np.ndarray | None = None,
        y_test: np.ndarray | None = None,
        epochs: int = 10,
        verbose: bool = False,
    ) -> TrainHistory:
        """Train for ``epochs`` passes, tracking accuracies."""
        history = TrainHistory()
        for epoch in range(epochs):
            loss, train_acc = self._run_epoch(x_train, y_train)
            history.losses.append(loss)
            history.train_accuracy.append(train_acc)
            if x_test is not None:
                history.test_accuracy.append(
                    evaluate_classifier(self.model, x_test, y_test)
                )
            if verbose:
                test_acc = history.test_accuracy[-1] if x_test is not None else None
                print(
                    f"epoch {epoch + 1}/{epochs}: loss={loss:.4f} "
                    f"train_acc={history.train_accuracy[-1]:.4f}"
                    + (f" test_acc={test_acc:.4f}" if test_acc is not None else "")
                )
        return history
