"""Whole-model checkpointing to ``.npz``.

Checkpoints hold the flat parameter state dict; with ``include_plans=True``
they additionally embed the serialized index plan of every PD layer
(:meth:`~repro.core.BlockPermutedDiagonalMatrix.plan_bytes`), so
:func:`load_model` reattaches the forward serving plan instead of
building it layer by layer on the first product call.

:func:`model_engine_layers` flattens a trained FC model into the
``(matrix, activation)`` pairs the hardware surfaces consume
(:meth:`~repro.hw.PermDNNEngine.run_network`, engine images, and the
sharded serving bundles of :mod:`repro.serve.bundle`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import BlockPermDiagTensor4D, BlockPermutedDiagonalMatrix
from repro.nn.layers.activations import ReLU, Tanh
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.flatten import Flatten
from repro.nn.layers.perm_diag_conv2d import PermDiagConv2D
from repro.nn.layers.perm_diag_linear import PermDiagLinear
from repro.nn.layers.pooling import MaxPool2D
from repro.nn.layers.recurrent import LSTM, LSTMCell
from repro.nn.module import Module
from repro.nn.sequential import Sequential

__all__ = [
    "ConvStageSpec",
    "FCStageSpec",
    "RecurrentStageSpec",
    "UnsupportedLayerError",
    "load_model",
    "model_engine_layers",
    "model_stage_specs",
    "save_model",
]


class UnsupportedLayerError(ValueError):
    """A model contains a layer the requested serving surface cannot run.

    Raised (instead of an opaque ``AttributeError`` or a silent skip) when
    flattening a model for the engine or the serving runtime meets a
    module type it does not understand.  The message always names the
    offending layer's class and its position in ``model.modules()``
    order, so the failure points at the layer, not at the walker.

    Subclasses ``ValueError`` so existing ``except ValueError`` callers
    keep working.
    """

    def __init__(self, index: int, module, detail: str) -> None:
        self.index = index
        self.layer_type = type(module).__name__
        super().__init__(
            f"module {index} ({self.layer_type}) {detail}"
        )

# Checkpoint keys carrying serialized index plans (one per PD matrix, in
# module-discovery order); everything else is parameter state.
_PLAN_KEY_PREFIX = "pd_plan_"


def _pd_matrices(model: Module) -> list[BlockPermutedDiagonalMatrix]:
    """Structured matrices of the model's PD layers, in discovery order.

    Covers both FC layers (their `_matrix`) and PD convolutions (the
    channel-plane matrix of their `_tensor`).  Discovery order is
    deterministic for a fixed architecture, which is what lets plan keys
    pair back up with their layers at load time (the same state-dict
    discipline the parameters follow).
    """
    matrices = []
    for module in model.modules():
        matrix = getattr(module, "_matrix", None)
        if isinstance(matrix, BlockPermutedDiagonalMatrix):
            matrices.append(matrix)
        tensor = getattr(module, "_tensor", None)
        if isinstance(tensor, BlockPermDiagTensor4D):
            matrices.append(tensor.plane)
    return matrices


def model_engine_layers(
    model: Module,
    value_dtype: str | None = None,
    fixed_point=None,
) -> list[tuple[BlockPermutedDiagonalMatrix, str | None]]:
    """Flatten an FC model into engine-servable ``(matrix, activation)`` pairs.

    Walks the model in module order: every :class:`PermDiagLinear`
    contributes its structured matrix; a following ``ReLU``/``Tanh``
    becomes that layer's ActU mode; ``Dropout``/``Flatten`` (inference
    no-ops) and containers are skipped.  Anything else -- dense layers,
    convolutions, activations the ActU does not implement, or a PD layer
    carrying a non-zero bias (the engine computes ``W x`` only) -- raises
    :class:`UnsupportedLayerError` (a ``ValueError`` subclass naming the
    offending module's class and index) rather than silently serving the
    wrong function.

    With ``value_dtype=None`` (default) the returned matrices are the
    layers' **live** structured matrices (aliased storage, cached plans),
    so exporting or serving them reflects in-place weight updates with
    zero copies.  Passing ``value_dtype`` (``"float32"`` / ``"int16"``,
    optionally with a ``fixed_point`` format) instead converts each layer
    through
    :meth:`~repro.core.BlockPermutedDiagonalMatrix.with_value_dtype` --
    quantize-at-export: the serving copies hold reduced-precision storage
    (still sharing the training matrices' index plans) while training
    itself stays float64.
    """
    layers: list[tuple[BlockPermutedDiagonalMatrix, str | None]] = []
    pending_activation = False  # True after a PD layer, before an activation
    for index, module in enumerate(model.modules()):
        if isinstance(module, Sequential):
            continue
        if isinstance(module, PermDiagLinear):
            if module.bias is not None and np.any(module.bias.value):
                raise UnsupportedLayerError(
                    index, module,
                    "carries a non-zero bias; the engine's FC datapath "
                    "computes W x only",
                )
            layers.append((module.matrix, None))
            pending_activation = True
        elif isinstance(module, (ReLU, Tanh)):
            if not pending_activation:
                raise UnsupportedLayerError(
                    index, module,
                    "is an activation that does not follow a PD FC layer",
                )
            matrix, _ = layers[-1]
            layers[-1] = (matrix, "relu" if isinstance(module, ReLU) else "tanh")
            pending_activation = False
        elif isinstance(module, (Dropout, Flatten)):
            continue  # inference no-ops
        else:
            raise UnsupportedLayerError(
                index, module,
                "is not servable on the PD FC engine (expected "
                "PermDiagLinear + ReLU/Tanh stacks)",
            )
    if not layers:
        raise ValueError("model contains no PermDiagLinear layers")
    if value_dtype is not None:
        layers = [
            (matrix.with_value_dtype(value_dtype, fixed_point=fixed_point), act)
            for matrix, act in layers
        ]
    elif fixed_point is not None:
        raise ValueError(
            "fixed_point requires value_dtype='int16' (got value_dtype=None)"
        )
    return layers


@dataclass
class FCStageSpec:
    """One FC serving stage: a PD matrix plus its ActU mode."""

    matrix: BlockPermutedDiagonalMatrix
    activation: str | None = None


@dataclass
class ConvStageSpec:
    """One lowered-conv serving stage.

    ``tensor`` is the layer's *current* PD weight tensor
    (:meth:`~repro.nn.PermDiagConv2D.to_tensor`, repacked from the dense
    trainable weight); ``pool`` is an optional non-overlapping square
    max-pool factor fused after the activation.  The input spatial size is
    supplied at server/bundle construction, not here -- the same conv
    stack serves any spatial resolution.
    """

    tensor: BlockPermDiagTensor4D
    activation: str | None = None
    stride: int = 1
    padding: int = 0
    pool: int | None = None


@dataclass
class RecurrentStageSpec:
    """One per-timestep LSTM-cell serving stage (the cell's live weights)."""

    cell: LSTMCell


def model_stage_specs(model: Module) -> list:
    """Flatten a model into serving-stage specs: FC, conv, and recurrent.

    The staged superset of :func:`model_engine_layers`: the same walk
    rules for PD FC layers, activations, ``Dropout``/``Flatten``, plus

    - :class:`~repro.nn.PermDiagConv2D` (zero bias) becomes a
      :class:`ConvStageSpec`; a following ``ReLU``/``Tanh`` attaches as
      its activation and a following non-overlapping square
      :class:`~repro.nn.MaxPool2D` fuses as its ``pool`` factor;
    - :class:`~repro.nn.LSTM` / :class:`~repro.nn.LSTMCell` (PD weight
      ops) becomes a :class:`RecurrentStageSpec` serving one timestep:
      request layout ``[x | h_prev | c_prev] -> [h | c]``.

    Anything else raises :class:`UnsupportedLayerError` naming the
    offending module and its position in ``model.modules()`` order --
    never a silent skip.  Returned specs reference the model's **live**
    weights (FC matrices and cell gate matrices alias parameter storage;
    conv tensors are repacked from the current dense weight).
    """
    specs: list = []
    pending = None  # spec still accepting an activation
    last_conv = None  # spec still accepting a fused pool
    skip_ids: set[int] = set()
    for index, module in enumerate(model.modules()):
        if id(module) in skip_ids:
            continue
        if isinstance(module, Sequential):
            continue
        if isinstance(module, PermDiagLinear):
            if module.bias is not None and np.any(module.bias.value):
                raise UnsupportedLayerError(
                    index, module,
                    "carries a non-zero bias; the engine's FC datapath "
                    "computes W x only",
                )
            specs.append(FCStageSpec(module.matrix))
            pending, last_conv = specs[-1], None
        elif isinstance(module, PermDiagConv2D):
            if module.bias is not None and np.any(module.bias.value):
                raise UnsupportedLayerError(
                    index, module,
                    "carries a non-zero bias; the lowered conv stage "
                    "accumulates W * x only",
                )
            specs.append(ConvStageSpec(
                module.to_tensor(),
                stride=module.stride,
                padding=module.padding,
            ))
            pending = last_conv = specs[-1]
        elif isinstance(module, (ReLU, Tanh)):
            if pending is None:
                raise UnsupportedLayerError(
                    index, module,
                    "is an activation that does not follow a PD FC or "
                    "conv layer",
                )
            pending.activation = "relu" if isinstance(module, ReLU) else "tanh"
            pending = None
        elif isinstance(module, MaxPool2D):
            kh, kw = module.kernel_size
            if (
                last_conv is None
                or last_conv.pool is not None
                or kh != kw
                or module.stride != kh
            ):
                raise UnsupportedLayerError(
                    index, module,
                    "must directly follow a conv stage as a "
                    "non-overlapping square pool (stride == kernel)",
                )
            last_conv.pool = kh
            pending = last_conv = None
        elif isinstance(module, (Dropout, Flatten)):
            continue  # inference no-ops (conv stages emit channel-major flat)
        elif isinstance(module, (LSTM, LSTMCell)):
            cell = module.cell if isinstance(module, LSTM) else module
            if any(
                not isinstance(
                    getattr(op, "matrix", None), BlockPermutedDiagonalMatrix
                )
                for op in cell.weight_matrices
            ):
                raise UnsupportedLayerError(
                    index, module,
                    "uses dense weight ops; the recurrent stage serves "
                    "PD gate matrices only (construct with p set)",
                )
            # Consume the whole recurrent subtree as one stage.
            skip_ids.update(id(sub) for sub in module.modules())
            specs.append(RecurrentStageSpec(cell))
            pending = last_conv = None
        else:
            raise UnsupportedLayerError(
                index, module,
                "is not servable (expected PermDiagLinear, PermDiagConv2D "
                "+ ReLU/Tanh/MaxPool2D, or PD LSTM stacks)",
            )
    if not specs:
        raise ValueError("model contains no servable PD stages")
    return specs


def save_model(path: str, model: Module, include_plans: bool = False) -> None:
    """Write a model's parameters to an ``.npz`` checkpoint.

    Layer structure is not serialized -- loading requires rebuilding the
    same architecture first (the usual state-dict discipline).  PD layers
    save their packed value arrays, so checkpoints of compressed models
    are proportionally small.

    Args:
        path: target checkpoint path.
        model: the model to snapshot.
        include_plans: also embed each PD layer's forward serving plan,
            so :func:`load_model` restores it without a plan build
            (bigger file, faster first step after load).
    """
    state = model.state_dict()
    if include_plans:
        for idx, matrix in enumerate(_pd_matrices(model)):
            state[f"{_PLAN_KEY_PREFIX}{idx}"] = np.frombuffer(
                matrix.plan_bytes(), dtype=np.uint8
            )
    np.savez_compressed(path, **state)


def load_model(path: str, model: Module) -> Module:
    """Load an ``.npz`` checkpoint into an already-constructed model.

    Embedded index plans (see :func:`save_model`) are reattached to the
    matching PD layers via
    :meth:`~repro.core.BlockPermutedDiagonalMatrix.adopt_plan`, which
    validates the structure and raises ``ValueError`` on mismatch.

    Args:
        path: checkpoint produced by :func:`save_model`.
        model: a model with the exact same parameter shapes.

    Returns:
        The same model instance, for chaining.
    """
    with np.load(path) as archive:
        params = {
            key: archive[key]
            for key in archive.files
            if not key.startswith(_PLAN_KEY_PREFIX)
        }
        plans = {
            key: archive[key].tobytes()
            for key in archive.files
            if key.startswith(_PLAN_KEY_PREFIX)
        }
    model.load_state_dict(params)
    if plans:
        for idx, matrix in enumerate(_pd_matrices(model)):
            blob = plans.get(f"{_PLAN_KEY_PREFIX}{idx}")
            if blob is not None:
                matrix.adopt_plan(blob)
    return model
