"""Training loop determinism, optimizer behavior, checkpoint round trips."""

import errno
import json
import struct
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from wlann.dataio import AudioClip
from wlann.errors import CheckpointError, NumericError, StorageError
from wlann.model import WlannParams, backward, forward, prepare_input
from wlann.model.config import AstBranchConfig, CnnBranchConfig, OptimizerConfig, WlannConfig
from wlann.ndiff import ParamGroup, Tensor
from wlann.train import (
    Adam,
    PreparedExample,
    TrainState,
    fit,
    focal_loss,
    focal_loss_vjp,
    load_archive,
    load_checkpoint,
    load_train_state,
    one_hot,
    save_archive,
    save_checkpoint,
    train_step,
)
from wlann.train import checkpoint
from wlann.train.checkpoint import restore_parameters

from conftest import float_arrays, small_train_config


def synthetic_batch(cfg, rng, n=4):
    """Prepared examples of random clips, labels cycling through the classes."""
    batch = []
    for i in range(n):
        clip = AudioClip(rng.uniform(-0.5, 0.5, 12000), 16000)
        waveform, spec = prepare_input(clip, cfg)
        batch.append(PreparedExample(f"clip{i}", waveform, spec, i % cfg.num_classes))
    return batch


def traced_peak(call) -> int:
    """Bytes `call()` allocates at its peak, above what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestAdam:
    def test_zero_learning_rate_keeps_parameters(self, rng):
        p = Tensor(rng.standard_normal(5).astype(np.float32), name="p")
        opt = Adam([p], OptimizerConfig(learning_rate=0.0))
        before = p.data.copy()
        p.zero_grad()
        p.add_grad(np.ones(5, dtype=np.float32))
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_step_moves_against_gradient(self, rng):
        p = Tensor(np.zeros(3, dtype=np.float64), name="p")
        opt = Adam([p], OptimizerConfig(learning_rate=0.1, clip_norm=0.0))
        p.zero_grad()
        p.add_grad(np.array([1.0, -1.0, 0.0]))
        opt.step()
        assert p.data[0] < 0 < p.data[1]
        assert p.data[2] == 0

    def test_clipping_bounds_update_norm(self):
        p = Tensor(np.zeros(4), name="p")
        opt = Adam([p], OptimizerConfig(learning_rate=1.0, clip_norm=1.0))
        p.zero_grad()
        p.add_grad(np.full(4, 100.0))
        assert opt.global_grad_norm() == pytest.approx(200.0)
        opt.step()  # must not blow up; clipped direction only
        assert np.all(np.isfinite(p.data))

    def test_non_finite_gradient_rejected(self):
        p = Tensor(np.zeros(2), name="p")
        opt = Adam([p], OptimizerConfig(learning_rate=0.1))
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

    def test_peak_memory_does_not_grow_with_batch_size(self, rng):
        """Each example's caches are freed before the next example's forward runs."""
        cfg = small_train_config()
        batch = synthetic_batch(cfg, rng, n=2)

        def step_peak(examples):
            state = TrainState.create(cfg)
            train_step(examples, state)  # first-call imports and caches
            return traced_peak(lambda: train_step(examples, state))

        single, pair = step_peak(batch[:1]), step_peak(batch)
        assert pair <= single * 1.02, (single, pair)

    def test_empty_batch_rejected(self):
        cfg = small_train_config()
        state = TrainState.create(cfg)
        with pytest.raises(Exception, match="empty"):
            train_step([], state)


class TestConfigDtype:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_forward_backward_and_step_compute_in_config_dtype(self, dtype, grad_dtypes):
        cfg = small_train_config(dtype=dtype)
        example = synthetic_batch(cfg, np.random.default_rng(3), n=1)[0]
        state = TrainState.create(cfg)
        want = np.dtype(dtype)

        scores, cache = forward(example.waveform, example.base_spec, state.params, cfg)
        target = one_hot(example.label_index, cfg.num_classes, dtype=cfg.numpy_dtype)
        _, loss_cache = focal_loss(scores, target, cfg.focal_gamma)
        state.optimizer.zero_grads()
        backward(focal_loss_vjp(1.0, loss_cache), cache)
        state.optimizer.step()

        assert {a.dtype for a in float_arrays(cache)} == {want}
        assert scores.dtype == want
        assert set(grad_dtypes) == {want}
        assert {t.grad.dtype for t in state.params.tensors()} == {want}
        assert {a.dtype for a in state.optimizer.m + state.optimizer.v} == {want}
        assert {t.dtype for t in state.params.tensors()} == {want}


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

    @staticmethod
    def load_with_header(path, header):
        """Load a 16-byte payload behind a hand-written JSON header."""
        raw = json.dumps(header).encode()
        path.write_bytes(checkpoint.MAGIC + struct.pack("<I", len(raw)) + raw + b"\x00" * 16)
        return load_archive(path)

    @pytest.mark.parametrize("shape, offset", [([4], -4), ([4], -1), ([-1], 0), ([-2, -2], 0)])
    def test_negative_table_entry_code(self, tmp_path, shape, offset):
        with pytest.raises(CheckpointError) as err:
            self.load_with_header(tmp_path / "t.wlann",
                                  {"tensors": [{"name": "w", "shape": shape, "offset": offset}]})
        assert err.value.code == "bad_magic"

    @pytest.mark.parametrize("header", [
        {"tensors": [{"name": "w", "shape": [4]}]},
        {"tensors": [{"name": "w", "shape": ["a"], "offset": 0}]},
        {"tensors": [{"name": "w", "shape": [1.5], "offset": 0}]},
        {"tensors": [{"name": "w", "shape": [4], "offset": "x"}]},
        {"tensors": [5]},
        [{"name": "w", "shape": [4], "offset": 0}],
    ], ids=["no_offset", "str_dim", "float_dim", "str_offset", "int_entry", "list_header"])
    def test_malformed_table_entry_code(self, tmp_path, header):
        with pytest.raises(CheckpointError) as err:
            self.load_with_header(tmp_path / "t.wlann", header)
        assert err.value.code == "bad_magic"

    @pytest.mark.parametrize("field, value", [
        ("config", 5), ("config", [1]), ("metadata", [1]), ("kind", 5),
    ], ids=["int_config", "list_config", "list_metadata", "int_kind"])
    def test_malformed_header_field_code(self, tmp_path, field, value):
        path = tmp_path / "t.wlann"
        with pytest.raises(CheckpointError) as err:
            self.load_with_header(
                path, {"tensors": [{"name": "w", "shape": [4], "offset": 0}], field: value})
        assert err.value.code == "bad_magic"
        for load in (load_checkpoint, load_train_state):
            with pytest.raises(CheckpointError) as err:
                load(path)
            assert err.value.code == "bad_magic"

    @pytest.mark.parametrize("key, value", [
        ("step", "x"), ("epoch", 1.5), ("optimizer_steps", "3"), ("step", None),
        ("step", -1), ("epoch", -1), ("optimizer_steps", -1),
    ])
    def test_non_integer_counter_code(self, tmp_path, key, value):
        path = tmp_path / "t.wlann"
        save_checkpoint(path, TrainState.create(small_train_config()))
        archive = load_archive(path)
        save_archive(path, archive.kind, archive.config, archive.tensors,
                     {**archive.metadata, key: value})
        with pytest.raises(CheckpointError) as err:
            load_train_state(path)
        assert err.value.code == "bad_magic"

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

    @staticmethod
    def few_mb_table(rng) -> dict[str, np.ndarray]:
        """Four float32 tensors, 4 MiB of payload."""
        return {f"t{i}": rng.standard_normal((512, 512)).astype(np.float32) for i in range(4)}

    def test_archive_tensors_are_read_only_views(self, tmp_path, rng):
        path = tmp_path / "t.wlann"
        save_archive(path, "checkpoint", {}, self.few_mb_table(rng))
        for value in load_archive(path).tensors.values():
            assert not value.flags.writeable
            assert not value.flags.owndata

    def test_restore_copies_into_the_arrays_the_state_owns(self, tmp_path):
        path = tmp_path / "t.wlann"
        save_checkpoint(path, TrainState.create(small_train_config(seed=3)))
        archive = load_archive(path)
        state = TrainState.create(small_train_config(seed=4))
        named = {**state.params.named(), **state.optimizer.moments()}
        owned = {name: tensor.data for name, tensor in named.items()}
        restore_parameters(archive, named)
        for name, tensor in named.items():
            assert tensor.data is owned[name]
            assert tensor.data.flags.writeable
            assert not np.shares_memory(tensor.data, archive.tensors[name])
            np.testing.assert_array_equal(tensor.data, archive.tensors[name])

    def test_save_archive_streams_tensors_to_the_file(self, tmp_path, rng):
        tensors = self.few_mb_table(rng)
        payload = sum(value.nbytes for value in tensors.values())
        peak = traced_peak(lambda: save_archive(tmp_path / "t.wlann", "checkpoint", {}, tensors))
        assert peak < 0.1 * payload, (peak, payload)

    def test_load_archive_peaks_at_the_file_size(self, tmp_path, rng):
        path = tmp_path / "t.wlann"
        save_archive(path, "checkpoint", {}, self.few_mb_table(rng))
        peak = traced_peak(lambda: load_archive(path))
        assert peak <= path.stat().st_size + 64 * 1024, (peak, path.stat().st_size)

    def test_float64_state_writes_its_float32_cast(self, tmp_path):
        cfg = small_train_config(dtype="float64")
        state = TrainState.create(cfg)
        train_step(synthetic_batch(cfg, np.random.default_rng(2), n=2), state)
        save_checkpoint(tmp_path / "wide.wlann", state)
        for tensor in [*state.params.tensors(), *state.optimizer.m, *state.optimizer.v]:
            tensor.data = tensor.data.astype(np.float32)
        save_checkpoint(tmp_path / "narrow.wlann", state)
        assert (tmp_path / "wide.wlann").read_bytes() == (tmp_path / "narrow.wlann").read_bytes()


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

    def trained_checkpoint(self, tmp_path):
        cfg = small_train_config(seed=5)
        state = TrainState.create(cfg)
        train_step(synthetic_batch(cfg, np.random.default_rng(4)), state)
        path = tmp_path / "state.wlann"
        save_checkpoint(path, state)
        return path

    @staticmethod
    def rewrite(path, edit):
        archive = load_archive(path)
        edit(archive.tensors)
        save_archive(path, archive.kind, archive.config, archive.tensors, archive.metadata)

    def test_resume_without_a_moment_is_missing_tensor(self, tmp_path):
        path = self.trained_checkpoint(tmp_path)
        self.rewrite(path, lambda tensors: tensors.pop("adam.v.head.w"))
        with pytest.raises(CheckpointError, match="adam.v.head.w") as err:
            load_train_state(path)
        assert err.value.code == "missing_tensor"

    def test_resume_with_misshaped_moment_is_shape_mismatch(self, tmp_path):
        path = self.trained_checkpoint(tmp_path)
        wrong = {"adam.m.cnn.0.w": np.zeros(3, np.float32)}
        self.rewrite(path, lambda tensors: tensors.update(wrong))
        with pytest.raises(CheckpointError, match="adam.m.cnn.0.w") as err:
            load_train_state(path)
        assert err.value.code == "shape_mismatch"

    def test_archive_tensor_table_at_default_config(self, tmp_path):
        """The 73 parameters in Adam's order, then each parameter's m and v."""
        names = [f"cnn.{i}.{n}" for i in range(4) for n in ("w", "b", "ln.gain", "ln.shift")]
        names += ["ast.embed.w", "ast.embed.b", "ast.pos"]
        for i in range(2):
            block = f"ast.block.{i}"
            names += [f"{block}.ln1.gain", f"{block}.ln1.shift"]
            names += [f"{block}.attn.{p}.{k}" for p in ("q", "k", "v", "out") for k in ("w", "b")]
            names += [f"{block}.ln2.gain", f"{block}.ln2.shift"]
            names += [f"{block}.{ff}.{k}" for ff in ("ff1", "ff2") for k in ("w", "b")]
        names += ["ast.final_ln.gain", "ast.final_ln.shift"]
        names += [f"gru.{d}.{m}{gate}" for d in ("fwd", "bwd") for gate in "zrh" for m in "wub"]
        names += ["head.w", "head.b"]
        expected = names + [f"adam.{k}.{name}" for name in names for k in ("m", "v")]
        assert (len(names), len(expected)) == (73, 219)

        path = tmp_path / "default.wlann"
        save_checkpoint(path, TrainState.create(WlannConfig()))
        with path.open("rb") as handle:
            assert handle.read(6) == b"WLANN1"
            (header_len,) = struct.unpack("<I", handle.read(4))
            header = json.loads(handle.read(header_len))
        assert [entry["name"] for entry in header["tensors"]] == expected

    def test_load_checkpoint_returns_header_without_tensors(self, tmp_path):
        cfg = small_train_config(init_std=0.05)
        path = tmp_path / "ckpt.wlann"
        save_checkpoint(path, TrainState.create(cfg))
        _, _, header = load_checkpoint(path)
        full = load_archive(path)
        assert header.tensors == {}
        assert (header.kind, header.config, header.metadata) == (full.kind, full.config, full.metadata)
        assert header.metadata["initializer"].startswith("truncated-normal(0.05) linear")

    def test_loads_draw_nothing_and_restore_every_tensor(self, tmp_path, monkeypatch):
        path = self.trained_checkpoint(tmp_path)
        saved = {name: value.copy() for name, value in load_archive(path).tensors.items()}

        def no_draw(self, rng, std):
            raise AssertionError("a load drew initial values")

        monkeypatch.setattr(ParamGroup, "initialize", no_draw)
        _, params, _ = load_checkpoint(path)
        resumed = load_train_state(path)
        restored = [params.named(), {**resumed.params.named(), **resumed.optimizer.moments()}]
        assert list(restored[1]) == list(saved)
        for named in restored:
            for name, tensor in named.items():
                assert tensor.data.dtype == np.float32
                assert tensor.data.tobytes() == saved[name].tobytes(), name

    def test_load_checkpoint_peaks_at_file_plus_parameters(self, tmp_path):
        """At the 1 s separation geometry: the bytes read plus the parameters they fill."""
        cfg = WlannConfig(
            fixed_input_seconds=1.0,
            cnn=CnnBranchConfig(kernel=80, initial_stride=5, block_strides=(4, 4, 4),
                                channel_widths=(16, 32, 90, 90)),
            ast=AstBranchConfig(embed_dim=32, depth=2, heads=4),
            gru_hidden=128,
        )
        state = TrainState.create(cfg)
        param_bytes = sum(tensor.data.nbytes for tensor in state.params.tensors())
        path = tmp_path / "separation.wlann"
        save_checkpoint(path, state)
        del state
        peak = traced_peak(lambda: load_checkpoint(path))
        bound = path.stat().st_size + param_bytes + 2**20
        assert peak <= bound, (peak, bound)

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
