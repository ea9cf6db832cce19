"""Index-light bundles: stored members, forward-only plans, checked loads.

Shard images persist the values, the structure and the forward CSR
skeleton -- nothing else.  These tests pin that layout, the derivation of
the support mask and every other plan member on a loaded matrix (without
building a plan), the structural checks that keep a corrupted skeleton
from reaching scipy's unchecked kernels, and that bundles written by the
older, fully warmed, deflated writer still boot and serve unchanged.
"""

import io
import os
import shutil
import subprocess
import sys
import textwrap
import zipfile
from pathlib import Path

import numpy as np
import pytest

import repro.core.block_perm_diag as mod
from repro.core import BlockPermutedDiagonalMatrix, PermutationSpec
from repro.debug import sanitize
from repro.serve import ModelServer, ShardedLayer
from repro.serve.bundle import export_staged_bundle, load_staged_bundle

REPO = Path(__file__).resolve().parents[2]
ZOO_BUNDLES = sorted((REPO / "benchmarks/results/compress_zoo").glob("*/bundle"))


def _layers(seed=0):
    """One aligned and one row/column-padded layer."""
    rng = np.random.default_rng(seed)
    spec = PermutationSpec(scheme="random", seed=seed)
    l1 = BlockPermutedDiagonalMatrix.random((64, 48), 4, spec=spec, rng=rng)
    l2 = BlockPermutedDiagonalMatrix.random((30, 62), 8, spec=spec, rng=rng)
    return [(l1, "relu"), (l2, None)]


def _export(directory, layers, num_shards=2):
    export_staged_bundle(
        directory,
        [ShardedLayer(matrix, act, num_shards) for matrix, act in layers],
    )


def _plan_members(blob: bytes) -> set[str]:
    with np.load(io.BytesIO(blob)) as archive:
        return set(archive.files)


def _read_npz(path) -> dict:
    with np.load(path) as archive:
        return {key: archive[key] for key in archive.files}


def _probe(server: ModelServer) -> np.ndarray:
    xs = np.random.default_rng(0).normal(size=(4, server.in_features))
    server.submit_many(xs)
    return np.stack(server.drain().outputs)


class TestLeanImages:
    def test_shard_images_are_stored_with_forward_only_plans(self, tmp_path):
        _export(tmp_path, _layers())
        for shard in sorted(tmp_path.glob("shard*.npz")):
            with zipfile.ZipFile(shard) as archive:
                assert {info.compress_type for info in archive.infolist()} == {
                    zipfile.ZIP_STORED
                }
            payload = _read_npz(shard)
            for idx in range(int(payload["num_layers"])):
                members = _plan_members(payload[f"layer{idx}_plan"].tobytes())
                assert {"csr0_0", "csr0_1", "csr0_2", "ks"} <= members
                leaked = {
                    key for key in members
                    if key.startswith(("t", "sc", "csr1_"))
                    or key in ("rows", "cols", "support", "nnz")
                }
                assert not leaked, leaked

    def test_lazy_members_match_the_exporter_without_a_plan_build(
        self, tmp_path, monkeypatch
    ):
        layers = _layers(1)
        _export(tmp_path, layers)
        stages, _ = load_staged_bundle(tmp_path)

        def boom(*args, **kwargs):
            raise AssertionError("a loaded matrix built an index plan")

        monkeypatch.setattr(mod._IndexPlan, "__init__", boom)
        rng = np.random.default_rng(2)
        for (matrix, _), stage in zip(layers, stages):
            for source, loaded in zip(matrix.row_shards(2), stage.shards):
                x = rng.normal(size=(3, source.shape[1]))
                dy = rng.normal(size=(3, source.shape[0]))
                np.testing.assert_array_equal(
                    loaded.rmatmat(dy), source.rmatmat(dy)
                )
                np.testing.assert_array_equal(
                    loaded.grad_data(x, dy), source.grad_data(x, dy)
                )
                np.testing.assert_array_equal(loaded.to_dense(), source.to_dense())
                loaded_t, source_t = loaded.transpose(), source.transpose()
                np.testing.assert_array_equal(loaded_t.ks, source_t.ks)
                np.testing.assert_array_equal(
                    loaded_t.to_dense(), source_t.to_dense()
                )
                np.testing.assert_array_equal(
                    loaded_t.matmat(dy), source_t.matmat(dy)
                )
                source.set_backend("gather")
                loaded.set_backend("gather")
                np.testing.assert_array_equal(loaded.matmat(x), source.matmat(x))


@pytest.mark.parametrize(
    "bundle", ZOO_BUNDLES, ids=[path.parent.name for path in ZOO_BUNDLES]
)
class TestCommittedArtifacts:
    """Bundles written by the deflating, fully warmed writer still load."""

    def test_old_bundle_boots_without_plan_builds(self, bundle):
        with sanitize() as guard:
            _probe(ModelServer.from_bundle(bundle, num_threads=1))
            assert guard.stats.plan_builds == 0
            assert guard.stats.plan_rebuilds == 0

    def test_reexported_bundle_serves_bit_identically(self, bundle, tmp_path):
        expected = _probe(ModelServer.from_bundle(bundle, num_threads=1))
        stages, _ = load_staged_bundle(bundle)
        export_staged_bundle(tmp_path, stages)
        with sanitize() as guard:
            served = _probe(ModelServer.from_bundle(tmp_path, num_threads=1))
            assert guard.stats.plan_builds == 0
        np.testing.assert_array_equal(served, expected)


def _tamper(blob: bytes, key: str, mutate) -> bytes:
    """``blob`` with member ``key`` mutated in place, or replaced by what
    ``mutate`` returns."""
    payload = _read_npz(io.BytesIO(blob))
    arr = payload[key].copy()
    out = mutate(arr)
    payload[key] = arr if out is None else out
    buffer = io.BytesIO()
    np.savez(buffer, **payload)
    return buffer.getvalue()


class TestCorruptPlans:
    @pytest.mark.parametrize(
        "key, mutate, match",
        [
            ("csr0_1", lambda a: a.__setitem__(0, 10**6), "indices"),
            ("csr0_1", lambda a: a.__setitem__(-1, -1), "indices"),
            ("csr0_0", lambda a: a.__setitem__(1, a[2] + 1), "indptr"),
            ("csr0_0", lambda a: a.__setitem__(-1, a[-1] + 1), "indptr"),
            ("csr0_2", lambda a: a.__setitem__(0, a.max() + 10**6), "value positions"),
            ("csr0_0", lambda a: a[:-1], "indptr"),
            ("ks", lambda a: a.__setitem__((0, 0), 10**6), "structure"),
        ],
    )
    def test_tampered_skeleton_rejected(self, key, mutate, match):
        matrix = _layers()[1][0]
        blob = _tamper(matrix.plan_bytes(), key, mutate)
        with pytest.raises(ValueError, match=match):
            mod._IndexPlan.from_bytes(blob)

    def test_persisted_support_mask_is_ignored(self):
        """Older writers persisted the support mask.  Swapping one padded
        and one in-bounds slot in that copy used to zero a real weight
        with no error; the loader now derives the mask from the
        structure, without building a plan."""
        matrix = BlockPermutedDiagonalMatrix.random((30, 45), 4, rng=0)
        support = matrix.support_mask()
        tampered = support.copy()
        tampered[tuple(np.argwhere(~support)[0])] = True
        tampered[tuple(np.argwhere(support)[0])] = False
        payload = _read_npz(io.BytesIO(matrix.plan_bytes()))
        payload["support"] = tampered
        payload["nnz"] = np.int64(matrix.nnz)
        buffer = io.BytesIO()
        np.savez(buffer, **payload)
        x = np.random.default_rng(0).normal(size=(3, 45))
        expected = matrix.matmat(x)
        with sanitize() as guard:
            loaded = BlockPermutedDiagonalMatrix.from_plan(
                buffer.getvalue(), matrix.data.copy()
            )
            served = loaded.matmat(x)
            assert guard.stats.plan_builds == 0
        np.testing.assert_array_equal(loaded.support_mask(), support)
        np.testing.assert_array_equal(served, expected)

    def test_corrupted_bundle_raises_instead_of_crashing(self, tmp_path):
        """An out-of-range forward CSR index used to boot fine and then
        segfault scipy on the first drain; now the boot raises a typed
        error naming the shard file and slot, in a child process so a
        regression cannot take the test runner down with it."""
        source = REPO / "benchmarks/results/compress_zoo/nmt/bundle"
        bundle = tmp_path / "bundle"
        shutil.copytree(source, bundle)
        shard = bundle / "shard0.npz"
        payload = _read_npz(shard)
        payload["layer0_plan"] = np.frombuffer(
            _tamper(
                payload["layer0_plan"].tobytes(),
                "csr0_1",
                lambda a: a.fill(10**6),
            ),
            dtype=np.uint8,
        )
        np.savez(shard, **payload)
        script = textwrap.dedent(
            f"""
            import sys
            import numpy as np
            from repro.serve import ModelServer
            try:
                server = ModelServer.from_bundle({str(bundle)!r})
                server.submit_many(np.zeros((2, server.in_features)))
                server.drain()
            except ValueError as exc:
                print(exc)
                sys.exit(3)
            """
        )
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 3, (result.returncode, result.stderr)
        assert "shard0.npz" in result.stdout
        assert "slot 0" in result.stdout
        assert "indices" in result.stdout
