"""Training loop determinism, optimizer behavior, checkpoint round trips."""

import errno
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from wlann.dataio import AudioClip
from wlann.errors import CheckpointError, NumericError, StorageError
from wlann.model import WlannParams, prepare_input
from wlann.model.config import OptimizerConfig
from wlann.ndiff import Tensor
from wlann.train import (
    Adam,
    PreparedExample,
    TrainState,
    fit,
    load_archive,
    load_checkpoint,
    load_train_state,
    save_archive,
    save_checkpoint,
    train_step,
)
from wlann.train import checkpoint
from wlann.train.checkpoint import restore_parameters

from conftest import small_train_config


def synthetic_batch(cfg, rng, n=4):
    """Prepared examples of random clips, labels cycling through the classes."""
    batch = []
    for i in range(n):
        clip = AudioClip(rng.uniform(-0.5, 0.5, 12000), 16000)
        waveform, spec = prepare_input(clip, cfg)
        batch.append(PreparedExample(f"clip{i}", waveform, spec, i % cfg.num_classes))
    return batch


class TestAdam:
    def test_zero_learning_rate_keeps_parameters(self, rng):
        p = Tensor(rng.standard_normal(5).astype(np.float32), name="p")
        opt = Adam([p], learning_rate=0.0)
        before = p.data.copy()
        p.zero_grad()
        p.add_grad(np.ones(5, dtype=np.float32))
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_step_moves_against_gradient(self, rng):
        p = Tensor(np.zeros(3, dtype=np.float64), name="p")
        opt = Adam([p], learning_rate=0.1, clip_norm=0.0)
        p.zero_grad()
        p.add_grad(np.array([1.0, -1.0, 0.0]))
        opt.step()
        assert p.data[0] < 0 < p.data[1]
        assert p.data[2] == 0

    def test_clipping_bounds_update_norm(self):
        p = Tensor(np.zeros(4), name="p")
        opt = Adam([p], learning_rate=1.0, clip_norm=1.0)
        p.zero_grad()
        p.add_grad(np.full(4, 100.0))
        assert opt.global_grad_norm() == pytest.approx(200.0)
        opt.step()  # must not blow up; clipped direction only
        assert np.all(np.isfinite(p.data))

    def test_non_finite_gradient_rejected(self):
        p = Tensor(np.zeros(2), name="p")
        opt = Adam([p], learning_rate=0.1)
        p.zero_grad()
        p.add_grad(np.array([np.nan, 0.0]))
        with pytest.raises(NumericError):
            opt.step()


class TestTrainStep:
    def test_identical_seeds_identical_trajectories(self, rng):
        cfg = small_train_config(seed=11)
        batch = synthetic_batch(cfg, np.random.default_rng(0))
        losses = []
        for _ in range(2):
            state = TrainState.create(cfg)
            run = [train_step(batch, state)[0] for _ in range(3)]
            losses.append(run)
        assert losses[0] == losses[1]

    def test_loss_decreases_on_fixed_batch(self):
        cfg = small_train_config(seed=2)
        batch = synthetic_batch(cfg, np.random.default_rng(1))
        state = TrainState.create(cfg)
        first, _ = train_step(batch, state)
        for _ in range(19):
            last, _ = train_step(batch, state)
        assert last < first

    def test_non_finite_loss_names_example_and_step(self):
        cfg = small_train_config()
        state = TrainState.create(cfg)
        state.params.out_w.data[:] = np.nan
        batch = synthetic_batch(cfg, np.random.default_rng(2), n=2)
        with pytest.raises(NumericError, match=r"step 0 on example 'clip0'"):
            train_step(batch, state)

    def test_empty_batch_rejected(self):
        cfg = small_train_config()
        state = TrainState.create(cfg)
        with pytest.raises(Exception, match="empty"):
            train_step([], state)


class TestCheckpointArchive:
    def test_save_load_bitwise(self, tmp_path, rng):
        tensors = {
            "a.w": rng.standard_normal((3, 4)).astype(np.float32),
            "b.w": rng.standard_normal(7).astype(np.float32),
        }
        path = tmp_path / "t.wlann"
        save_archive(path, "checkpoint", {"x": 1}, tensors, {"step": 3})
        archive = load_archive(path)
        assert archive.kind == "checkpoint"
        assert archive.config == {"x": 1}
        assert archive.metadata == {"step": 3}
        for name, value in tensors.items():
            np.testing.assert_array_equal(archive.tensors[name], value)

    def test_bad_magic_code(self, tmp_path):
        path = tmp_path / "bad.wlann"
        path.write_bytes(b"NOTWLANN" + b"\x00" * 32)
        with pytest.raises(CheckpointError) as err:
            load_archive(path)
        assert err.value.code == "bad_magic"

    def test_truncated_payload_code(self, tmp_path, rng):
        path = tmp_path / "t.wlann"
        save_archive(path, "checkpoint", {}, {"w": rng.standard_normal(64).astype(np.float32)})
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(CheckpointError) as err:
            load_archive(path)
        assert err.value.code == "truncated_payload"

    def test_trailing_bytes_code(self, tmp_path, rng):
        path = tmp_path / "t.wlann"
        save_archive(path, "checkpoint", {}, {"w": rng.standard_normal(64).astype(np.float32)})
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(CheckpointError) as err:
            load_archive(path)
        assert err.value.code == "trailing_bytes"

    def test_failed_write_keeps_previous_archive(self, tmp_path, rng, monkeypatch):
        path = tmp_path / "t.wlann"
        good = {"w": rng.standard_normal(64).astype(np.float32)}
        save_archive(path, "checkpoint", {"x": 1}, good)
        before = path.read_bytes()

        def disk_full(*_):
            raise OSError(errno.ENOSPC, "No space left on device")

        # The magic goes out, then the disk fills before the header length.
        monkeypatch.setattr(checkpoint, "struct", SimpleNamespace(pack=disk_full))
        with pytest.raises(StorageError):
            save_archive(path, "checkpoint", {"x": 2}, {"w": np.zeros(64, np.float32)})
        monkeypatch.undo()

        assert path.read_bytes() == before
        assert [entry.name for entry in tmp_path.iterdir()] == ["t.wlann"]
        np.testing.assert_array_equal(load_archive(path).tensors["w"], good["w"])

    def test_shape_mismatch_code(self, tmp_path, rng):
        cfg = small_train_config()
        params = WlannParams.create(cfg)
        tensors = {t.name: t.data for t in params.tensors()}
        tensors["head.w"] = np.zeros((3, 3), dtype=np.float32)
        path = tmp_path / "t.wlann"
        save_archive(path, "checkpoint", cfg.to_dict(), tensors)
        with pytest.raises(CheckpointError) as err:
            restore_parameters(load_archive(path), params.named())
        assert err.value.code == "shape_mismatch"

    def test_missing_tensor_code(self, tmp_path):
        cfg = small_train_config()
        params = WlannParams.create(cfg)
        tensors = {t.name: t.data for t in params.tensors()}
        tensors.pop("head.w")
        path = tmp_path / "t.wlann"
        save_archive(path, "checkpoint", cfg.to_dict(), tensors)
        with pytest.raises(CheckpointError) as err:
            restore_parameters(load_archive(path), params.named())
        assert err.value.code == "missing_tensor"

    def test_unknown_extra_tensor_warns_but_loads(self, tmp_path):
        cfg = small_train_config()
        params = WlannParams.create(cfg)
        tensors = {t.name: t.data for t in params.tensors()}
        tensors["future.feature"] = np.ones(3, dtype=np.float32)
        path = tmp_path / "t.wlann"
        save_archive(path, "checkpoint", cfg.to_dict(), tensors)
        with pytest.warns(UserWarning, match="future.feature"):
            restore_parameters(load_archive(path), params.named())


class TestStateRoundTrip:
    def test_checkpoint_restores_all_parameters_bitwise(self, tmp_path):
        cfg = small_train_config(seed=4)
        state = TrainState.create(cfg)
        batch = synthetic_batch(cfg, np.random.default_rng(3))
        for _ in range(2):
            train_step(batch, state)
        path = tmp_path / "model.wlann"
        save_checkpoint(path, state)
        cfg2, params2, _ = load_checkpoint(path)
        assert cfg2 == cfg
        for own, loaded in zip(state.params.tensors(), params2.tensors()):
            np.testing.assert_array_equal(own.data, loaded.data)

    def test_resume_reproduces_next_step_loss(self, tmp_path):
        cfg = small_train_config(seed=5)
        batch = synthetic_batch(cfg, np.random.default_rng(4))
        state = TrainState.create(cfg)
        for _ in range(3):
            train_step(batch, state)
        path = tmp_path / "resume.wlann"
        save_checkpoint(path, state)

        continued_loss, _ = train_step(batch, state)
        resumed = load_train_state(path)
        assert resumed.step == 3
        resumed_loss, _ = train_step(batch, resumed)
        assert resumed_loss == continued_loss

    def test_fit_epochs_zero_writes_initial_params(self, tmp_path, tiny_corpus):
        corpus, train_split, _, _ = tiny_corpus
        cfg = small_train_config(seed=6)
        path = tmp_path / "init.wlann"
        state = fit(train_split, corpus, cfg, epochs=0, out_path=path)
        _, params, archive = load_checkpoint(path)
        fresh = WlannParams.create(cfg)
        for a, b in zip(params.tensors(), fresh.tensors()):
            np.testing.assert_array_equal(a.data, b.data)
        assert archive.metadata["step"] == 0
        assert state.step == 0
