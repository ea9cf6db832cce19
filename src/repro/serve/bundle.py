"""Staged engine-image bundles: the one deployable artifact.

A bundle is a directory holding ``shard<K>.npz`` engine images (the exact
:func:`~repro.hw.export_engine_image` format -- each contains shard ``K``'s
row slice of **every** served stage, serialized index plans included) plus
a ``manifest.json`` describing the pipeline.  Each manifest layer entry
carries a ``stage_kind`` tag (``"fc"`` / ``"conv"`` / ``"recurrent"``) and
a ``slots`` count -- the number of consecutive image entries the stage
occupies per shard (1 for FC, ``kh*kw`` offset matrices for a lowered
conv, 8 gate matrices for an LSTM cell step).

Stages that need non-matrix state (the recurrent stage's gate biases)
store it in per-stage ``stage<L>_aux.npz`` sidecars referenced from the
manifest.  Every file name is fixed by its index; a manifest listing any
other name (an absolute path, ``../``) is rejected, so a bundle never
reads outside its directory.

Loading a bundle cold-starts a whole sharded server without building an
index plan or sorting anything: every shard matrix is rebuilt through
:meth:`~repro.core.BlockPermutedDiagonalMatrix.from_plan` around its
persisted structure ``(ks, shape, p)``, which is checked at load.  Images
are stored, not deflated, and hold no index array -- the support mask is
derived from the structure and the rest on first use -- so a bundle is
little bigger than its values.  Bundles from older writers (a forward CSR
skeleton, or every plan member, persisted) load through the same reader,
which ignores the extra members.  Only the current format versions load.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core import BlockPermutedDiagonalMatrix
from repro.hw.engine import export_engine_image, load_engine_image

__all__ = [
    "export_model_bundle",
    "export_staged_bundle",
    "load_staged_bundle",
]

# v2 added per-layer ``value_dtype`` / ``fixed_point`` manifest entries
# (cross-checked against the shard images at load); v3 added the
# ``stage_kind`` / ``slots`` tags plus conv and recurrent stages.  Only
# this version loads.
_BUNDLE_FORMAT_VERSION = 3
_MANIFEST_NAME = "manifest.json"


def _shard_file(shard_idx: int) -> str:
    return f"shard{shard_idx}.npz"


def _aux_file(stage_idx: int) -> str:
    return f"stage{stage_idx}_aux.npz"


def export_staged_bundle(directory, stages: list) -> None:
    """Persist a served pipeline as ``num_shards`` engine images.

    Args:
        directory: bundle directory (created if missing).
        stages: :class:`~repro.serve.server.ServedStage` objects, input to
            output, all sharded to the same shard count.  Each stage
            contributes its :meth:`manifest_entry` to the manifest, its
            :meth:`image_slots` to every shard image, and (optionally) an
            :meth:`aux_payload` sidecar.
    """
    if not stages:
        raise ValueError("cannot export an empty stage stack")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    num_shards = stages[0].num_shards
    if any(stage.num_shards != num_shards for stage in stages):
        raise ValueError(
            "all stages of one bundle must share a shard count, got "
            f"{[stage.num_shards for stage in stages]}"
        )
    for shard_idx in range(num_shards):
        slots = []
        for stage in stages:
            slots.extend(stage.image_slots(shard_idx))
        export_engine_image(directory / _shard_file(shard_idx), slots)
    entries = []
    for stage_idx, stage in enumerate(stages):
        entry = stage.manifest_entry()
        payload = stage.aux_payload()
        if payload is not None:
            entry["aux_file"] = _aux_file(stage_idx)
            np.savez(directory / entry["aux_file"], **payload)
        entries.append(entry)
    manifest = {
        "bundle_version": _BUNDLE_FORMAT_VERSION,
        "num_shards": num_shards,
        "num_layers": len(stages),
        "layers": entries,
        "shard_files": [_shard_file(idx) for idx in range(num_shards)],
    }
    with open(directory / _MANIFEST_NAME, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")


def export_model_bundle(
    directory,
    model,
    num_shards: int,
    value_dtype: str | None = None,
    fixed_point=None,
    input_hw: tuple[int, int] | None = None,
) -> None:
    """Export a trained model as a sharded image bundle.

    The model is walked by
    :func:`repro.nn.serialization.model_stage_specs` (which rejects
    anything the engine cannot serve) and the resulting stages -- FC,
    lowered-conv, recurrent -- are handed to :func:`export_staged_bundle`.
    ``value_dtype`` / ``fixed_point`` quantize at export (float32 or int16
    fixed-point serving copies; the training weights stay float64);
    ``input_hw`` is the first conv stage's input spatial size (required
    iff the model has conv layers).
    """
    from repro.nn.serialization import model_stage_specs
    from repro.serve.server import build_stages

    export_staged_bundle(
        directory,
        build_stages(
            model_stage_specs(model),
            num_shards,
            input_hw=input_hw,
            value_dtype=value_dtype,
            fixed_point=fixed_point,
        ),
    )


def _check_slot(
    stage_idx: int,
    shard_idx: int,
    matrix: BlockPermutedDiagonalMatrix,
    slot_activation: str | None,
    expected_shape: tuple[int, int],
    expected_activation: str | None,
    p: int,
    value_dtype: str,
    fixed_point,
) -> None:
    shard_fmt = (
        (matrix.fixed_point.total_bits, matrix.fixed_point.frac_bits)
        if matrix.fixed_point is not None
        else None
    )
    if (
        matrix.p != p
        or matrix.shape != expected_shape
        or slot_activation != expected_activation
        or matrix.value_dtype != value_dtype
        or shard_fmt != fixed_point
    ):
        raise ValueError(
            f"layer {stage_idx} shard {shard_idx}: image "
            f"(shape={matrix.shape}, p={matrix.p}, "
            f"activation={slot_activation!r}, "
            f"value_dtype={matrix.value_dtype!r}) does not match "
            f"the manifest"
        )


def load_staged_bundle(
    directory,
    missing_backend: str = "error",
) -> tuple[list, dict]:
    """Reload a bundle as ready-to-serve stage objects.

    Every shard matrix carries its deserialized forward serving plan --
    no plan is built and nothing is sorted; other plan members are derived
    on first use -- and shard shapes, dtypes, and stage layouts are
    cross-checked against the manifest so a truncated or mixed-up bundle
    fails loudly.  A plan whose structure fails its checks raises
    ``ValueError`` naming the shard file and slot, before any kernel can
    read it.  A manifest of another version, one lacking
    a field, or one naming files other than the exporter's fixed
    ``shard<K>.npz`` / ``stage<L>_aux.npz`` raises ``ValueError`` naming
    the manifest.

    Args:
        directory: bundle directory written by :func:`export_staged_bundle`
            (or :func:`export_model_bundle`).
        missing_backend: forwarded to
            :func:`~repro.hw.load_engine_image` (``"error"`` or
            ``"fallback"``) for layers pinned to an unavailable backend.

    Returns:
        ``(stages, manifest)`` where ``stages`` are
        :class:`~repro.serve.server.ServedStage` objects ready to hand to
        :class:`~repro.serve.server.ModelServer`.
    """
    directory = Path(directory)
    manifest_path = directory / _MANIFEST_NAME
    if not manifest_path.is_file():
        raise FileNotFoundError(
            f"no {_MANIFEST_NAME} in {directory} -- not a sharded bundle"
        )
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    try:
        stages = _load_stages(manifest_path, manifest, missing_backend)
    except KeyError as exc:
        raise ValueError(
            f"bundle manifest {manifest_path} lacks field {exc}"
        ) from None
    return stages, manifest


def _load_stages(
    manifest_path: Path, manifest: dict, missing_backend: str
) -> list:
    """The stages of a parsed manifest (missing fields raise ``KeyError``)."""
    from repro.serve.server import (
        LoweredConvStage,
        RecurrentStage,
        ShardedLayer,
        _GATES,
    )

    directory = manifest_path.parent
    version = int(manifest["bundle_version"])
    if version != _BUNDLE_FORMAT_VERSION:
        raise ValueError(
            f"bundle manifest {manifest_path}: unsupported bundle version "
            f"{version} (supported: {_BUNDLE_FORMAT_VERSION})"
        )
    num_shards = int(manifest["num_shards"])
    num_layers = int(manifest["num_layers"])
    specs = manifest["layers"]
    if len(specs) != num_layers:
        raise ValueError(
            f"manifest lists {len(specs)} layers, says {num_layers}"
        )
    shard_files = [_shard_file(idx) for idx in range(num_shards)]
    if manifest["shard_files"] != shard_files:
        raise ValueError(
            f"bundle manifest {manifest_path} lists shard files "
            f"{manifest['shard_files']!r}, expected {shard_files!r}"
        )
    shard_images = [
        load_engine_image(
            directory / shard_file, missing_backend=missing_backend
        )
        for shard_file in shard_files
    ]
    slots_per_stage = [int(spec["slots"]) for spec in specs]
    total_slots = sum(slots_per_stage)
    if any(len(image) != total_slots for image in shard_images):
        raise ValueError(
            f"bundle {directory} does not match its manifest "
            f"({num_shards} shards x {total_slots} image slots)"
        )
    stages = []
    cursor = 0
    for stage_idx, spec in enumerate(specs):
        kind = spec["stage_kind"]
        aux_file = _aux_file(stage_idx) if kind == "recurrent" else None
        if spec.get("aux_file") != aux_file:
            raise ValueError(
                f"bundle manifest {manifest_path}: layer {stage_idx} "
                f"names aux file {spec.get('aux_file')!r}, expected "
                f"{aux_file!r}"
            )
        slots = slots_per_stage[stage_idx]
        activation = spec["activation"]
        p = int(spec["p"])
        m, n = (int(v) for v in spec["shape"])
        value_dtype = spec["value_dtype"]
        fixed_point = (
            tuple(int(v) for v in spec["fixed_point"])
            if spec["fixed_point"] is not None
            else None
        )
        bounds = spec["shard_block_bounds"]
        # Flat-slot layout: shard K's entries ``cursor..cursor+slots`` all
        # belong to this stage and share its row bounds.
        shard_slots: list[list[BlockPermutedDiagonalMatrix]] = []
        covered = 0
        for shard_idx in range(num_shards):
            start, stop = bounds[shard_idx]
            expected_m = min((stop - start) * p, m - start * p)
            matrices = []
            for slot in range(slots):
                matrix, slot_activation = shard_images[shard_idx][
                    cursor + slot
                ]
                if kind == "recurrent":
                    expected_n = n if slot < len(_GATES) else m
                else:
                    expected_n = n
                _check_slot(
                    stage_idx,
                    shard_idx,
                    matrix,
                    slot_activation,
                    (expected_m, expected_n),
                    activation if kind == "fc" else None,
                    p,
                    value_dtype,
                    fixed_point,
                )
                matrices.append(matrix)
            covered += matrices[0].shape[0]
            shard_slots.append(matrices)
        if covered != m:
            raise ValueError(
                f"layer {stage_idx}: shards cover {covered} rows, "
                f"manifest says {m}"
            )
        cursor += slots
        if kind == "fc":
            if slots != 1:
                raise ValueError(
                    f"layer {stage_idx}: FC stages hold 1 slot, got {slots}"
                )
            stages.append(
                ShardedLayer.from_shards(
                    [matrices[0] for matrices in shard_slots], activation
                )
            )
        elif kind == "conv":
            stages.append(
                LoweredConvStage.from_shard_slots(
                    shard_slots,
                    activation,
                    channels=(m, n),
                    kernel_size=tuple(
                        int(v) for v in spec["kernel_size"]
                    ),
                    input_hw=tuple(int(v) for v in spec["input_hw"]),
                    stride=int(spec["stride"]),
                    padding=int(spec["padding"]),
                    pool=(
                        int(spec["pool"])
                        if spec["pool"] is not None
                        else None
                    ),
                )
            )
        elif kind == "recurrent":
            aux_path = directory / aux_file
            with np.load(aux_path) as aux:
                if not {f"bias_{gate}" for gate in _GATES} <= set(aux.files):
                    raise ValueError(
                        f"bundle aux file {aux_path} lacks gate biases"
                    )
                biases = {gate: aux[f"bias_{gate}"] for gate in _GATES}
            stages.append(
                RecurrentStage.from_shard_slots(
                    shard_slots,
                    biases,
                    input_size=int(spec["input_size"]),
                    hidden_size=int(spec["hidden_size"]),
                )
            )
        else:
            raise ValueError(
                f"layer {stage_idx}: unknown stage_kind {kind!r}"
            )
    return stages
