"""Cycle-level simulator of the PermDNN computing engine (Sec. IV).

Faithfully models the paper's execution scheme:

- **column-wise processing with zero skipping** (Fig. 5): only non-zero
  input activations are broadcast; each broadcast makes every PE process
  the matching weight-matrix column slice it owns;
- **structural load balance**: a PD block column holds exactly one non-zero
  per block, so all PEs retire the same work per column -- no straggler PE;
- **Case 1/2/3 scheduling** (Sec. IV-D) via :mod:`repro.hw.scheduler`;
- **group-written activation SRAM** (Fig. 6): outputs drain at
  ``N_ACTMB * W_ACTM / q`` values per cycle;
- optional **bit-accurate mode**: 16-bit fixed-point activations, 4-bit
  weight-shared weights decoded through a LUT, 24-bit accumulators with
  saturation counting -- mirroring the RTL datapath the simulator was the
  golden reference for.

The functional result is always returned so tests can bit-compare it with
the numpy golden model (:mod:`repro.hw.verify`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.core import BlockPermutedDiagonalMatrix
from repro.core.backends import (
    BackendUnavailableError,
    UnknownBackendError,
    get_backend,
    validate_backend_name,
)
from repro.hw.config import EngineConfig
from repro.hw.energy import AreaPowerModel
from repro.hw.perf import PerformanceReport, equivalent_dense_ops
from repro.hw.scheduler import cycles_per_column
from repro.hw.sram import SRAMBank
from repro.nn.quantization import (
    FixedPointFormat,
    WeightSharingCodebook,
    quantize_fixed_point,
)

__all__ = [
    "EngineImageBackendError",
    "PermDNNEngine",
    "SimulationResult",
    "export_engine_image",
    "load_engine_image",
]

# v2 added per-layer value-dtype tags (``layer{i}_value_dtype`` /
# ``layer{i}_fixed_point``).  Only this version loads.
_IMAGE_FORMAT_VERSION = 2


class EngineImageBackendError(BackendUnavailableError):
    """An engine image pins a kernel backend this process cannot provide.

    Raised by :func:`load_engine_image` when a layer's stored backend name
    is unknown to (or unavailable in) the current process -- a typed error
    instead of the ``KeyError``/``ImportError`` a raw lookup would produce.
    Pass ``missing_backend="fallback"`` to load anyway on the default
    backend (with a warning).
    """


def export_engine_image(
    path,
    layers: list[tuple[BlockPermutedDiagonalMatrix, str | None]],
) -> None:
    """Persist a network image the engine can boot without building a plan.

    For every layer the image stores the packed ``q`` vector (in the
    layer's storage dtype: float32 values or int16 fixed-point codes ride
    through untouched), its value-dtype tag, the structure
    ``(ks, shape, p)``, the ActU mode, and the serialized **index plan**
    (:meth:`~repro.core.BlockPermutedDiagonalMatrix.plan_bytes`: the
    structure and dtype tags, no index array).  :func:`load_engine_image` then
    rebuilds the matrices via
    :meth:`~repro.core.BlockPermutedDiagonalMatrix.from_plan` -- the
    deployment path pays deserialization only, never a plan build or a
    sort, which is what makes cold-starting a many-layer engine cheap.

    Members are stored, not deflated: the values barely compress, and
    everything that would (the index arrays) is derived at load instead
    of persisted, so export and load cost about as much as writing and
    reading the weights.

    Args:
        path: target ``.npz`` file (or open binary file object).
        layers: ``(matrix, activation)`` pairs as accepted by
            :meth:`PermDNNEngine.run_network`.
    """
    payload: dict[str, np.ndarray] = {
        "image_version": np.int64(_IMAGE_FORMAT_VERSION),
        "num_layers": np.int64(len(layers)),
    }
    for idx, (matrix, activation) in enumerate(layers):
        payload[f"layer{idx}_q"] = matrix.to_q()
        payload[f"layer{idx}_ks"] = np.asarray(matrix.ks)
        payload[f"layer{idx}_p"] = np.int64(matrix.p)
        payload[f"layer{idx}_shape"] = np.asarray(matrix.shape, dtype=np.int64)
        payload[f"layer{idx}_activation"] = np.str_(activation or "")
        payload[f"layer{idx}_backend"] = np.str_(matrix.backend or "")
        payload[f"layer{idx}_value_dtype"] = np.str_(matrix.value_dtype)
        fmt = matrix.fixed_point
        payload[f"layer{idx}_fixed_point"] = np.asarray(
            [fmt.total_bits, fmt.frac_bits] if fmt is not None else [],
            dtype=np.int64,
        )
        payload[f"layer{idx}_plan"] = np.frombuffer(
            matrix.plan_bytes(), dtype=np.uint8
        )
    np.savez(path, **payload)


def load_engine_image(
    path,
    missing_backend: str = "error",
) -> list[tuple[BlockPermutedDiagonalMatrix, str | None]]:
    """Reload an :func:`export_engine_image` artifact, plans included.

    Layers exported from a matrix pinned to a kernel backend record that
    backend's name; loading re-pins it.  When the stored backend is not
    available in this process (e.g. an image built where numba was
    installed, loaded where it is not) the behaviour follows
    ``missing_backend``:

    - ``"error"`` (default): raise :class:`EngineImageBackendError`;
    - ``"fallback"``: warn and leave the layer on the process default
      backend.

    Returns:
        ``(matrix, activation)`` pairs ready for
        :meth:`PermDNNEngine.run_network`; every matrix carries its
        deserialized index plan, so no plan is built, and its exported
        value dtype.

    Raises:
        ValueError: the image is not of the current version, lacks a
            member, or a layer's plan fails its structural checks (e.g. an
            out-of-range ``ks`` in a corrupted file); the message names
            the file (and the slot, for a plan).
    """
    if missing_backend not in ("error", "fallback"):
        raise ValueError(
            f"missing_backend must be 'error' or 'fallback', "
            f"got {missing_backend!r}"
        )
    with np.load(path) as archive:
        try:
            return _read_image(archive, path, missing_backend)
        except KeyError as exc:
            raise ValueError(
                f"engine image {path} lacks member {exc}"
            ) from None


def _read_image(
    archive, path, missing_backend: str
) -> list[tuple[BlockPermutedDiagonalMatrix, str | None]]:
    """The layers of an open :func:`export_engine_image` archive."""
    version = int(archive["image_version"])
    if version != _IMAGE_FORMAT_VERSION:
        raise ValueError(
            f"engine image {path}: unsupported version {version} "
            f"(supported: {_IMAGE_FORMAT_VERSION})"
        )
    layers: list[tuple[BlockPermutedDiagonalMatrix, str | None]] = []
    for idx in range(int(archive["num_layers"])):
        ks = archive[f"layer{idx}_ks"]
        p = int(archive[f"layer{idx}_p"])
        mb, nb = ks.shape
        fmt_bits = archive[f"layer{idx}_fixed_point"]
        try:
            matrix = BlockPermutedDiagonalMatrix.from_plan(
                archive[f"layer{idx}_plan"].tobytes(),
                archive[f"layer{idx}_q"].reshape(mb, nb, p),
                value_dtype=str(archive[f"layer{idx}_value_dtype"]),
                fixed_point=(
                    FixedPointFormat(*(int(v) for v in fmt_bits))
                    if fmt_bits.size
                    else None
                ),
            )
        except ValueError as exc:
            raise ValueError(f"engine image {path}, slot {idx}: {exc}") from exc
        # Cross-check the plan against the image's own metadata so a
        # corrupted or hand-edited archive fails loudly here.
        shape = tuple(int(v) for v in archive[f"layer{idx}_shape"])
        if (
            matrix.shape != shape
            or matrix.p != p
            or not np.array_equal(matrix.ks, ks)
        ):
            raise ValueError(
                f"layer {idx}: image metadata (shape={shape}, p={p}) "
                f"does not match its serialized plan "
                f"(shape={matrix.shape}, p={matrix.p})"
            )
        backend_key = f"layer{idx}_backend"
        stored = str(archive[backend_key]) if backend_key in archive.files else ""
        if stored:
            try:
                get_backend(validate_backend_name(stored))
            except (UnknownBackendError, BackendUnavailableError) as exc:
                if missing_backend == "fallback":
                    warnings.warn(
                        f"layer {idx}: stored kernel backend {stored!r} "
                        f"is unavailable in this process; falling back "
                        f"to the default backend ({exc})",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                else:
                    raise EngineImageBackendError(
                        f"layer {idx} of engine image pins kernel "
                        f"backend {stored!r}, which is unavailable here; "
                        f"pass missing_backend='fallback' to load on "
                        f"the default backend instead"
                    ) from exc
            else:
                matrix.set_backend(stored)
        activation = str(archive[f"layer{idx}_activation"]) or None
        layers.append((matrix, activation))
    return layers


@dataclass
class SimulationResult:
    """Everything one layer execution produced.

    Attributes:
        output: the computed output vector ``a = W x`` (post-activation if
            an activation was requested).
        cycles: total simulated cycles (pipeline fill + compute + drain).
        compute_cycles: cycles spent on column processing only.
        writeback_cycles: cycles draining outputs to activation SRAM.
        macs: multiply-accumulates actually performed.
        nonzero_columns: input activations processed after zero-skipping.
        skipped_columns: input activations skipped as zeros.
        utilization: MACs / (compute_cycles x peak MACs per cycle).
        case: scheduler case (1/2/3).
        saturations: accumulator saturation events (bit-accurate mode only).
        sram_stats: access counters per SRAM.
    """

    output: np.ndarray
    cycles: int
    compute_cycles: int
    writeback_cycles: int
    macs: int
    nonzero_columns: int
    skipped_columns: int
    utilization: float
    case: int
    saturations: int = 0
    sram_stats: dict = field(default_factory=dict)


class PermDNNEngine:
    """The 32-PE (configurable) PermDNN FC-layer computing engine.

    Args:
        config: hardware configuration (defaults to the paper's Table VIII).
        area_power: area/power model (defaults to the Table IX calibration).
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        area_power: AreaPowerModel | None = None,
    ) -> None:
        self.config = config or EngineConfig()
        self.area_power = area_power or AreaPowerModel()
        pe = self.config.pe
        self.weight_sram = SRAMBank(
            "weight", pe.weight_sram_banks, pe.weight_sram_width, pe.weight_sram_depth
        )
        self.perm_sram = SRAMBank(
            "permutation", 1, pe.perm_sram_width, pe.perm_sram_depth
        )
        self.act_sram = SRAMBank(
            "activation",
            self.config.act_sram_banks,
            self.config.act_sram_width,
            self.config.act_sram_depth,
        )

    # ------------------------------------------------------------------

    @property
    def power_w(self) -> float:
        return self.area_power.engine_power_w(self.config)

    @property
    def area_mm2(self) -> float:
        return self.area_power.engine_area_mm2(self.config)

    def rows_per_pe(self, m: int) -> int:
        """``N_ROWPE``: weight-matrix rows owned by each PE."""
        return math.ceil(m / self.config.n_pe)

    def check_capacity(self, matrix: BlockPermutedDiagonalMatrix) -> None:
        """Verify the compressed layer fits the per-PE weight SRAM.

        With 4-bit weight sharing a 32-PE engine stores an 8M-parameter
        layer (the paper's over-design headroom claim).
        """
        weights_per_pe = math.ceil(matrix.nnz / self.config.n_pe)
        self.weight_sram.check_fits(weights_per_pe, self.config.weight_sharing_bits)
        # input + output activations must fit the activation SRAM
        self.act_sram.check_fits(
            matrix.shape[0] + matrix.shape[1], self.config.quant_bits
        )

    # ------------------------------------------------------------------

    def run_fc_layer(
        self,
        matrix: BlockPermutedDiagonalMatrix,
        x: np.ndarray,
        activation: str | None = None,
        bit_accurate: bool = False,
        zero_skip: bool = True,
        enforce_capacity: bool = True,
    ) -> SimulationResult:
        """Execute ``a = act(W x)`` and report cycle-level behaviour.

        Args:
            matrix: the PD-compressed FC weight matrix.
            x: input activation vector of length ``n``.
            activation: ``None``, ``"relu"`` or ``"tanh"`` (the ActU modes).
            bit_accurate: run the quantized datapath (16-bit activations,
                4-bit weight-shared weights, 24-bit saturating accumulators).
            zero_skip: disable to measure what zero-skipping buys (ablation).
            enforce_capacity: reject layers that overflow the per-PE weight
                SRAM.  Disable only for compute-scaling studies (Fig. 13),
                where small PE counts would otherwise need more SRAM banks.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (matrix.shape[1],):
            raise ValueError(
                f"expected input of shape ({matrix.shape[1]},), got {x.shape}"
            )
        if enforce_capacity:
            self.check_capacity(matrix)
        config = self.config
        pe = config.pe

        saturations = 0
        if bit_accurate:
            output, saturations = self._bit_accurate_forward(matrix, x)
        else:
            output = matrix.matvec(x)
        if activation == "relu":
            output = np.maximum(output, 0.0)
        elif activation == "tanh":
            output = np.tanh(output)
        elif activation is not None:
            raise ValueError(f"unsupported activation {activation!r} (ActU has relu/tanh)")

        nnz_x = int(np.count_nonzero(x)) if zero_skip else x.size
        skipped = x.size - nnz_x
        n_rowpe = self.rows_per_pe(matrix.shape[0])
        schedule = cycles_per_column(n_rowpe, matrix.p, pe.n_mul, pe.n_acc)
        if schedule.case == 3:
            compute_cycles = math.ceil(nnz_x / schedule.columns_per_cycle)
        else:
            compute_cycles = int(schedule.cycles_per_column) * nnz_x
        writeback_cycles = math.ceil(
            matrix.shape[0] / config.activations_written_per_cycle
        )
        total_cycles = config.pipeline_stages + compute_cycles + writeback_cycles

        # average non-zeros per matrix column; exact when p divides (m, n)
        macs = int(round(nnz_x * matrix.nnz / matrix.shape[1]))
        # SRAM traffic: one weight row + one perm row per PE per compute
        # cycle; one activation read per processed column; grouped writes.
        self.weight_sram.read(compute_cycles)
        self.perm_sram.read(compute_cycles)
        self.act_sram.read(nnz_x)
        self.act_sram.write(writeback_cycles)

        peak = compute_cycles * config.n_pe * pe.n_mul
        utilization = macs / peak if peak else 0.0
        return SimulationResult(
            output=output,
            cycles=total_cycles,
            compute_cycles=compute_cycles,
            writeback_cycles=writeback_cycles,
            macs=macs,
            nonzero_columns=nnz_x,
            skipped_columns=skipped,
            utilization=min(utilization, 1.0),
            case=schedule.case,
            saturations=saturations,
            sram_stats={
                "weight": self.weight_sram.stats,
                "permutation": self.perm_sram.stats,
                "activation": self.act_sram.stats,
            },
        )

    def _bit_accurate_forward(
        self, matrix: BlockPermutedDiagonalMatrix, x: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Quantized datapath: LUT-decoded weights, fixed-point activations,
        saturating 24-bit accumulation."""
        config = self.config
        codebook = WeightSharingCodebook(bits=config.weight_sharing_bits, rng=0)
        codebook.fit(matrix.data)
        # like() shares the caller's cached index plan instead of rebuilding
        # the structure for the weight-shared copy.
        shared = matrix.like(codebook.apply(matrix.data))
        act_fmt = FixedPointFormat(config.quant_bits, config.quant_bits - 4)
        x_q = quantize_fixed_point(x, act_fmt)
        y = shared.matvec(x_q)
        acc_fmt = FixedPointFormat(config.pe.acc_width, config.quant_bits - 4)
        clipped = np.clip(y, acc_fmt.min_value, acc_fmt.max_value)
        saturations = int((clipped != y).sum())
        return clipped, saturations

    def run_fc_batch(
        self,
        matrix: BlockPermutedDiagonalMatrix,
        x_batch: np.ndarray,
        activation: str | None = None,
        zero_skip: bool = True,
        enforce_capacity: bool = True,
    ) -> tuple[np.ndarray, int]:
        """Execute one FC layer over a batch of inputs.

        Inputs stream through back-to-back, so the pipeline fill is paid
        once; each sample contributes its own compute + writeback cycles
        (zero-skipping makes these input dependent).

        Args:
            matrix: the PD weight matrix.
            x_batch: inputs of shape ``(B, n)``.
            activation: optional ActU mode applied to every output.
            zero_skip: process only non-zero input entries.
            enforce_capacity: reject layers overflowing the per-PE SRAM.

        Returns:
            ``(outputs, total_cycles)`` with outputs of shape ``(B, m)``.
        """
        outputs, cycles, _ = self.run_fc_batch_detailed(
            matrix,
            x_batch,
            activation=activation,
            zero_skip=zero_skip,
            enforce_capacity=enforce_capacity,
        )
        return outputs, cycles

    def run_fc_batch_detailed(
        self,
        matrix: BlockPermutedDiagonalMatrix,
        x_batch: np.ndarray,
        activation: str | None = None,
        zero_skip: bool = True,
        enforce_capacity: bool = True,
    ) -> tuple[np.ndarray, int, int]:
        """:meth:`run_fc_batch` plus the MAC count.

        This is the single home of the batch accounting (pipeline fill
        paid once, per-sample compute + writeback): the sharded serving
        runtime (:mod:`repro.serve`) runs its shards through here, which
        is what keeps sharded cycle/bit behaviour in lockstep with the
        unsharded baseline by construction.

        The functional result is one batched product
        (:meth:`~repro.core.BlockPermutedDiagonalMatrix.matmat`) instead
        of ``B`` python-level mat-vecs -- numerically identical to the
        per-sample :meth:`run_fc_layer` path (same backend, same
        accumulation order per output row) but it releases the GIL inside
        a single kernel call, which is what makes the serving runtime's
        shard threads (:mod:`repro.serve.server`) actually overlap.  The
        cycle accounting below is the per-sample model evaluated for the
        whole batch at once; every counter matches the sample-by-sample
        loop it replaced exactly.

        Returns:
            ``(outputs, total_cycles, macs)``; ``outputs`` is in the
            matrix's compute dtype (float32 storage serves float32).
        """
        x_batch = np.asarray(x_batch, dtype=np.float64)
        if x_batch.ndim != 2 or x_batch.shape[1] != matrix.shape[1]:
            raise ValueError(
                f"expected batch of shape (B, {matrix.shape[1]}), got "
                f"{x_batch.shape}"
            )
        if activation not in (None, "relu", "tanh"):
            raise ValueError(
                f"unsupported activation {activation!r} (ActU has relu/tanh)"
            )
        if enforce_capacity:
            self.check_capacity(matrix)
        config = self.config
        pe = config.pe

        outputs = matrix.matmat(x_batch)
        if activation == "relu":
            outputs = np.maximum(outputs, 0.0)
        elif activation == "tanh":
            outputs = np.tanh(outputs)

        batch = x_batch.shape[0]
        if zero_skip:
            nnz_per = np.count_nonzero(x_batch, axis=1)
        else:
            nnz_per = np.full(batch, x_batch.shape[1], dtype=np.int64)
        n_rowpe = self.rows_per_pe(matrix.shape[0])
        schedule = cycles_per_column(n_rowpe, matrix.p, pe.n_mul, pe.n_acc)
        if schedule.case == 3:
            compute_per = np.ceil(
                nnz_per / schedule.columns_per_cycle
            ).astype(np.int64)
        else:
            compute_per = int(schedule.cycles_per_column) * nnz_per
        compute_total = int(compute_per.sum())
        writeback = math.ceil(
            matrix.shape[0] / config.activations_written_per_cycle
        )
        total = config.pipeline_stages + compute_total + batch * writeback
        # Same rounding as run_fc_layer, sample by sample (round-half-even
        # on the per-sample expression, then summed).
        macs = int(np.rint(nnz_per * matrix.nnz / matrix.shape[1]).sum())

        # SRAM counters are additive, so the batch sum lands the same
        # totals as B per-sample calls.
        self.weight_sram.read(compute_total)
        self.perm_sram.read(compute_total)
        self.act_sram.read(int(nnz_per.sum()))
        self.act_sram.write(batch * writeback)
        return outputs, total, macs

    def run_network(
        self,
        layers: list[tuple[BlockPermutedDiagonalMatrix, str | None]],
        x: np.ndarray,
        bit_accurate: bool = False,
    ) -> tuple[np.ndarray, list[SimulationResult]]:
        """Execute a stack of FC layers end to end.

        Between layers, outputs are written to the activation SRAM and read
        back as the next layer's input (exactly the Fig. 6 loop); the
        dynamic sparsity each activation function produces is therefore
        skipped automatically in the next layer.

        Args:
            layers: ``(matrix, activation)`` pairs, input to output.
            x: network input vector.
            bit_accurate: run every layer on the quantized datapath.

        Returns:
            ``(final_output, per_layer_results)``.
        """
        results = []
        current = np.asarray(x, dtype=np.float64)
        for matrix, activation in layers:
            result = self.run_fc_layer(
                matrix, current, activation=activation, bit_accurate=bit_accurate
            )
            results.append(result)
            current = result.output
        return current, results

    # ------------------------------------------------------------------

    def performance(
        self, result: SimulationResult, workload_shape: tuple[int, int], name: str = "PermDNN"
    ) -> PerformanceReport:
        """Wrap a simulation into the headline-metric report."""
        m, n = workload_shape
        return PerformanceReport(
            name=name,
            cycles=result.cycles,
            clock_ghz=self.config.clock_ghz,
            compressed_ops=2 * result.macs,
            dense_ops=equivalent_dense_ops(m, n),
            power_w=self.power_w,
            area_mm2=self.area_mm2,
        )
