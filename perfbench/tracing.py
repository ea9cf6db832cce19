"""Span tracing installed from outside ``src/``.

The benchmark records one span per call into each layer's public entry
points by replacing those attributes, for the duration of a traced
segment, with timing wrappers.  Each name is patched where its caller
looks it up: class attributes for methods (every instance and every
subclass lookup sees the wrapper), and module globals for functions,
in every module whose code calls them by that global name
(``compress_model`` reaches ``convert_model``, ``verify_bundle`` and its
own import of ``evaluate_classifier`` through ``repro.compress.pipeline``;
``Trainer.fit`` reaches ``evaluate_classifier`` through
``repro.nn.trainer``; ``export_model_bundle`` is imported from
``repro.serve`` at call time).

Spans are kept in memory (name, start, end, parent span, window id and
an optional annotation) and written out when the run ends.  The tracer
keeps one open-span stack, so it is only correct while every traced call
runs on one thread; the benchmark serves with ``num_threads=1``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field

import numpy as np

import repro.compress.pipeline as pipeline
import repro.nn.trainer as trainer_module
import repro.serve as serve_package
from repro.core import BlockPermutedDiagonalMatrix
from repro.hw.engine import PermDNNEngine
from repro.nn import Trainer
from repro.serve import LoweredConvStage, ModelServer, RecurrentStage, ShardedLayer

# CSR skeletons are int32 for every matrix the workloads serve (the csr
# backend widens only past 2**31 rows, columns or stored values).
_CSR_INDEX_BYTES = 4


@dataclass
class Span:
    """One timed call: ``parent`` is the enclosing span's index or -1."""

    name: str
    start_ns: int
    end_ns: int
    parent: int
    window: int | None
    note: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.window: int | None = None
        self._stack: list[int] = []
        self._stage_index: dict[int, int] = {}

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.window))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end_ns = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around benchmark-side work (e.g. one factory job)."""
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _wrap(self, fn, name_of, annotate=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if annotate is not None:
                tracer.spans[index].note = annotate(args, result)
            return result

        return traced

    # -- patching ------------------------------------------------------

    def _drain_name(self, args) -> str:
        # Stage indices are per server: remember the draining server's
        # stage order so run_batch spans can name their stage.
        self._stage_index = {id(stage): i for i, stage in enumerate(args[0].layers)}
        return "serve.drain"

    def _stage_name(self, args) -> str:
        return f"serve.stage{self._stage_index.get(id(args[0]), '?')}"

    @staticmethod
    def _stage_note(args, result) -> dict:
        return {"sim_cycles": int(max(result[1]))}

    @staticmethod
    def _matmat_note(args, result) -> dict:
        matrix, x = args[0], args[1]
        csr = matrix.nnz * _CSR_INDEX_BYTES + (matrix.shape[0] + 1) * _CSR_INDEX_BYTES
        values = matrix.nnz * np.dtype(matrix.value_dtype).itemsize
        return {"bytes": int(values + csr + np.asarray(x).nbytes + result.nbytes)}

    def _patches(self):
        """``(owner, attribute, name_of, annotate)`` for every traced call."""
        def named(name):
            return lambda args: name

        patches = [
            (ModelServer, "drain", self._drain_name, None),
            (ModelServer, "from_bundle", named("serve.from_bundle"), None),
            (PermDNNEngine, "run_fc_batch_detailed", named("hw.run_fc_batch"), None),
            (BlockPermutedDiagonalMatrix, "matmat", named("core.matmat"), self._matmat_note),
            (BlockPermutedDiagonalMatrix, "rmatmat", named("core.rmatmat"), None),
            (BlockPermutedDiagonalMatrix, "grad_data", named("core.grad_data"), None),
            (Trainer, "fit", named("nn.fit"), None),
            (trainer_module, "evaluate_classifier", named("nn.evaluate"), None),
            (pipeline, "evaluate_classifier", named("nn.evaluate"), None),
            (pipeline, "convert_model", named("compress.convert"), None),
            (pipeline, "verify_bundle", named("compress.verify"), None),
            (serve_package, "export_model_bundle", named("serve.export"), None),
        ]
        for stage_cls in (ShardedLayer, LoweredConvStage, RecurrentStage):
            patches.append((stage_cls, "run_batch", self._stage_name, self._stage_note))
        return patches

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced call for the duration of the block."""
        saved = []
        try:
            for owner, attr, name_of, annotate in self._patches():
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(original.__func__, name_of, annotate))
                else:
                    wrapped = self._wrap(original, name_of, annotate)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span.name,
                    "start_ns": span.start_ns,
                    "end_ns": span.end_ns,
                    "parent": span.parent,
                    "window": span.window,
                }
                record.update(span.note)
                handle.write(json.dumps(record) + "\n")


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [span.duration_ns for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration_ns
    return own


def subtree(spans: list[Span], roots: list[int]) -> list[int]:
    """Indices of ``roots`` and all their descendants, in span order."""
    keep = set(roots)
    for index, span in enumerate(spans):
        if span.parent in keep:
            keep.add(index)
    return sorted(keep)
