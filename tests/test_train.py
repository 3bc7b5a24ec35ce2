"""Training loop determinism, optimizer behavior, checkpoint round trips."""

import errno
import gc
import json
import os
import struct
import subprocess
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import wlann
from wlann import scoring
from wlann.dataio import AudioClip
from wlann.dsp import spec_augment
from wlann.errors import CheckpointError, NumericError, ShapeError, StorageError
from wlann.model import (WlannParams, backward, forward, network, predict_scores,
                         prepare_input)
from wlann.model.config import (AstBranchConfig, AugmentConfig, CnnBranchConfig, OptimizerConfig,
                                WlannConfig)
from wlann.ndiff import ParamGroup, Tensor
from wlann.ndiff import functional as F
from wlann.train import (
    Adam,
    ArchiveReader,
    PreparedExample,
    TrainState,
    augment_seed_for,
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
import wlann.train.adam as adam_module

from conftest import (fft_layer_config, float_arrays, separation_config, small_train_config,
                      spectrum_builds, traced_peak, two_fft_layer_config)


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
        assert np.linalg.norm(p.grad) == pytest.approx(200.0)
        opt.step()  # must not blow up; clipped direction only
        assert np.all(np.isfinite(p.data))

    def test_non_finite_gradient_rejected(self):
        p = Tensor(np.zeros(2), name="p")
        opt = Adam([p], OptimizerConfig(learning_rate=0.1))
        p.zero_grad()
        p.add_grad(np.array([np.nan, 0.0]))
        with pytest.raises(NumericError):
            opt.step()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_step_bitwise_equal_to_out_of_place_reference(self, dtype):
        """Clipping active, weight decay on, one parameter without a gradient; 3 steps."""
        got_params, want_params = adam_tree(dtype), adam_tree(dtype)
        got, want = Adam(got_params, ADAM_CFG), Adam(want_params, ADAM_CFG)
        arrays = [t.data for t in [*got_params, *got.m, *got.v]]
        before = set(threading.enumerate())
        for step in range(3):
            give_grads(got_params, step)
            give_grads(want_params, step)
            norm = np.sqrt(sum(np.sum(np.square(p.grad, dtype=np.float64))
                               for p in got_params if p.grad is not None))
            assert norm > ADAM_CFG.clip_norm
            got.step()
            reference_adam_step(want)
            assert not set(threading.enumerate()) - before
        assert all(t.data is a for t, a in zip([*got_params, *got.m, *got.v], arrays))
        for g, w in zip([*got_params, *got.m, *got.v], [*want_params, *want.m, *want.v]):
            assert g.data.dtype == w.data.dtype == dtype
            assert np.array_equal(g.data, w.data), g.name

    def test_non_finite_norm_leaves_every_tensor_untouched(self):
        params = adam_tree(np.float32)
        opt = Adam(params, ADAM_CFG)
        give_grads(params, 0)
        opt.step()
        give_grads(params, 1)
        params[3].grad[1, 2] = np.inf
        tensors = [*params, *opt.m, *opt.v]
        snapshot = [t.data.copy() for t in tensors]
        with pytest.raises(NumericError, match="step 2"):
            opt.step()
        assert opt.step_count == 1
        for t, kept in zip(tensors, snapshot):
            assert np.array_equal(t.data, kept), t.name

    @pytest.mark.parametrize("sizes", [[1200, 7, 200, 15, 64, 144], [4_600_000, 3_400_000],
                                       [1], [3, 1], [5, 5]])
    def test_update_splits_by_flat_element_range(self, sizes):
        """Two ranges, in element order, that cover each element once and differ by at most one."""
        first, second = adam_module._flat_halves(sizes)
        merged = []
        for i, a, e in first + second:
            if merged and merged[-1][0] == i and merged[-1][2] == a:
                merged[-1] = (i, merged[-1][1], e)
            else:
                merged.append((i, a, e))
        assert merged == [(i, 0, size) for i, size in enumerate(sizes)]
        loads = [sum(e - a for _, a, e in lane) for lane in (first, second)]
        assert sum(loads) == sum(sizes) and abs(loads[0] - loads[1]) <= 1

    def test_helper_error_propagates(self, monkeypatch):
        params = adam_tree(np.float32)
        opt = Adam(params, ADAM_CFG)
        give_grads(params, 0)
        before = set(threading.enumerate())
        sum_of_squares = adam_module._sum_of_squares

        def broken(grad):
            if threading.current_thread() is not threading.main_thread():
                raise ShapeError("helper failed")
            return sum_of_squares(grad)

        monkeypatch.setattr(adam_module, "_sum_of_squares", broken)
        with pytest.raises(ShapeError, match="helper failed"):
            opt.step()
        assert opt.step_count == 0
        assert not set(threading.enumerate()) - before

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocked_sum_of_squares_bitwise_equal_to_direct(self, dtype):
        """Every parameter shape of the default and separation configs, and flat sizes around
        the block edge. The blocked sum follows NumPy's pairwise order, so a NumPy that sums
        differently fails here rather than moving the norm's bits silently."""
        block = adam_module.BLOCK
        shapes = {t.shape for make_config in (WlannConfig, separation_config)
                  for t in WlannParams.allocate(make_config()).tensors()}
        shapes |= {(n,) for n in (block - 1, block, block + 1, 2 * block + 8)}
        rng = np.random.default_rng(17)
        for shape in sorted(shapes):
            grad = (3.0 * rng.standard_normal(shape)).astype(dtype)
            direct = np.square(grad.astype(np.float64)).sum()
            assert adam_module._sum_of_squares(grad) == direct, shape

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_small_blocks_bitwise_equal_to_out_of_place_reference(self, monkeypatch, dtype):
        """With 128-element blocks the three largest tensors span several blocks of the norm's
        tree and of the update: 3 steps still equal the reference's bits."""
        monkeypatch.setattr(adam_module, "BLOCK", 128)
        got_params, want_params = adam_tree(dtype), adam_tree(dtype)
        got, want = Adam(got_params, ADAM_CFG), Adam(want_params, ADAM_CFG)
        for step in range(3):
            give_grads(got_params, step)
            give_grads(want_params, step)
            got.step()
            reference_adam_step(want)
        for g, w in zip([*got_params, *got.m, *got.v], [*want_params, *want.m, *want.v]):
            assert g.data.tobytes() == w.data.tobytes(), g.name

    def test_default_8s_step_peak_is_a_few_blocks(self):
        """The step allocates no parameter-sized temporary: per lane one float64 block of
        squares, then two blocks of update scratch. A float64 copy of each gradient and two
        range-sized scratch buffers took the step's peak to ~54 MiB."""
        cfg = WlannConfig()
        params = list(WlannParams.create(cfg).tensors())
        rng = np.random.default_rng(4)
        for p in params:
            p.zero_grad()
            p.add_grad(rng.standard_normal(p.shape).astype(p.dtype))
        opt = Adam(params, cfg.optimizer)
        opt.step()
        peak = traced_peak(opt.step)
        assert peak <= 4 * adam_module.BLOCK * 8 + 2**18, peak


ADAM_CFG = OptimizerConfig(learning_rate=1e-2, clip_norm=1.0, weight_decay=0.01)


def adam_tree(dtype) -> list[Tensor]:
    """Parameters of several sizes, so both of the step's threads get tensors."""
    rng = np.random.default_rng(21)
    shapes = [(40, 30), (7,), (200,), (3, 5), (64,), (12, 12)]
    return [Tensor(rng.standard_normal(shape).astype(dtype), name=f"p{i}")
            for i, shape in enumerate(shapes)]


def give_grads(params, seed: int) -> None:
    """Fresh gradients for every parameter but `p1`, which has none."""
    rng = np.random.default_rng(seed)
    for p in params:
        p.zero_grad()
        p.add_grad((3.0 * rng.standard_normal(p.shape)).astype(p.dtype))
    params[1].grad = None


def reference_adam_step(opt: Adam) -> None:
    """The out-of-place Adam step, one temporary per operation, that the in-place step replaced."""
    cfg = opt.cfg
    total = 0.0
    for p in opt.params:
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    assert np.isfinite(norm)
    scale = 1.0
    if cfg.clip_norm > 0 and norm > cfg.clip_norm:
        scale = cfg.clip_norm / norm
    opt.step_count += 1
    correction1 = 1.0 - cfg.beta1**opt.step_count
    correction2 = 1.0 - cfg.beta2**opt.step_count
    for p, m_tensor, v_tensor in zip(opt.params, opt.m, opt.v):
        m, v = m_tensor.data, v_tensor.data
        grad = (p.grad if p.grad is not None else np.zeros_like(p.data)) * scale
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * grad
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * grad * grad
        m_hat = m / correction1
        v_hat = v / correction2
        update = cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
        if cfg.weight_decay > 0.0:
            update = update + (cfg.learning_rate * cfg.weight_decay) * p.data
        p.data = p.data - update


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


def serial_train_step(batch, state) -> float:
    """`train_step` in one thread: `forward` and `backward` without an executor."""
    cfg = state.cfg
    state.optimizer.zero_grads()
    total_loss = 0.0
    scale = 1.0 / len(batch)
    for index, example in enumerate(batch):
        spec = spec_augment(example.base_spec, cfg.augment,
                            augment_seed_for(cfg.seed, state.step, index))
        scores, cache = forward(example.waveform, spec, state.params, cfg)
        target = one_hot(example.label_index, cfg.num_classes, dtype=scores.dtype)
        loss, loss_cache = focal_loss(scores, target, cfg.focal_gamma)
        total_loss += loss
        backward(focal_loss_vjp(scale, loss_cache), cache)
    state.optimizer.step()
    state.step += 1
    return total_loss * scale


def record_conv_calls(monkeypatch) -> list[tuple]:
    """In call order: ("conv1d", kernel name) per `F.conv1d` call, ("conv1d_vjp", kernel name,
    executor given) per `F.conv1d_vjp` call, and ("kernel_grad", kernel shape, run off the main
    thread) per kernel-gradient pass, on either conv path."""
    calls = []
    conv1d, conv1d_vjp = F.conv1d, F.conv1d_vjp

    def recording_conv1d(x, w, b, stride):
        calls.append(("conv1d", w.name))
        return conv1d(x, w, b, stride)

    def recording_vjp(dy, cache, **kwargs):
        calls.append(("conv1d_vjp", cache[2].name, kwargs.get("executor") is not None))
        return conv1d_vjp(dy, cache, **kwargs)

    def recording_pass(kernel_grad):
        def run(dy, saved, shape, *args):
            on_helper = threading.current_thread() is not threading.main_thread()
            calls.append(("kernel_grad", shape, on_helper))
            return kernel_grad(dy, saved, shape, *args)
        return run

    monkeypatch.setattr(F, "conv1d", recording_conv1d)
    monkeypatch.setattr(F, "conv1d_vjp", recording_vjp)
    for name in ("_im2col_kernel_grad", "_fft_kernel_grad"):
        monkeypatch.setattr(F, name, recording_pass(getattr(F, name)))
    return calls


class TestTwoThreadStep:
    @pytest.mark.parametrize("dtype, make_config", [
        pytest.param(dtype, make_config, id=dtype + suffix)
        for make_config, suffix in [(small_train_config, ""), (fft_layer_config, "-fft_layer")]
        for dtype in ("float32", "float64")
    ])
    def test_bitwise_equal_to_one_thread(self, dtype, make_config):
        """Batch 2, so gradients accumulate across examples; time warp and frequency masks on."""
        cfg = make_config(dtype=dtype, augment=AugmentConfig(time_warp_frames=2), seed=8)
        batch = synthetic_batch(cfg, np.random.default_rng(6), n=2)
        threaded, serial = TrainState.create(cfg), TrainState.create(cfg)
        for _ in range(3):
            assert train_step(batch, threaded)[0] == serial_train_step(batch, serial)
        pairs = zip([*threaded.params.tensors(), *threaded.optimizer.m, *threaded.optimizer.v],
                    [*serial.params.tensors(), *serial.optimizer.m, *serial.optimizer.v])
        for got, want in pairs:
            assert got.data.dtype == want.data.dtype == np.dtype(dtype)
            assert got.data.tobytes() == want.data.tobytes(), got.name

    @pytest.mark.parametrize("target", ["ast_branch", "ast_branch_vjp"])
    def test_helper_error_keeps_its_type_and_ends_the_thread(self, monkeypatch, target):
        cfg = small_train_config()
        batch = synthetic_batch(cfg, np.random.default_rng(7), n=2)
        state = TrainState.create(cfg)
        before = set(threading.enumerate())

        def broken(*args):
            assert threading.current_thread() is not threading.main_thread()
            raise ShapeError(f"{target} failed")

        monkeypatch.setattr(network, target, broken)
        with pytest.raises(ShapeError, match=f"{target} failed"):
            train_step(batch, state)
        assert not set(threading.enumerate()) - before

    @pytest.mark.parametrize("target, make_config", [
        ("_im2col_kernel_grad", small_train_config),
        ("_fft_kernel_grad", fft_layer_config),
    ], ids=["im2col", "fft"])
    def test_kernel_grad_error_on_the_helper_keeps_its_type(self, monkeypatch, target,
                                                           make_config):
        cfg = make_config()
        state = TrainState.create(cfg)
        batch = synthetic_batch(cfg, np.random.default_rng(7), n=1)
        before = set(threading.enumerate())
        kernel_grad = getattr(F, target)

        def broken(*args):
            if threading.current_thread() is not threading.main_thread():
                raise NumericError("kernel gradient failed")
            return kernel_grad(*args)

        monkeypatch.setattr(F, target, broken)
        with pytest.raises(NumericError, match="kernel gradient failed"):
            train_step(batch, state)
        assert not set(threading.enumerate()) - before

    @pytest.mark.parametrize("threads", [1, 2])
    def test_spectrogram_activations_freed_before_the_widest_layer(self, monkeypatch, threads):
        cfg = small_train_config()
        example = synthetic_batch(cfg, np.random.default_rng(9), n=1)[0]
        params = WlannParams.create(cfg)
        owned = {id(t.data) for t in params.tensors()}
        widest = network.lane_plan(cfg).split
        seen = []
        conv1d_vjp = F.conv1d_vjp

        def recording(dy, cache, **kwargs):
            if cache[2] is params.conv_layers[widest].w:
                seen.append(sum(ref() is not None for ref in refs))
            return conv1d_vjp(dy, cache, **kwargs)

        monkeypatch.setattr(F, "conv1d_vjp", recording)
        with ThreadPoolExecutor(max_workers=1) as pool:
            helper = pool if threads == 2 else None
            scores, cache = forward(example.waveform, example.base_spec, params, cfg, helper)
            refs = [weakref.ref(a) for a in float_arrays(cache[1])
                    if isinstance(a, np.ndarray) and id(a) not in owned]
            _, loss_cache = focal_loss(scores, one_hot(0, cfg.num_classes, scores.dtype), 2.0)
            params.zero_grads()
            backward(focal_loss_vjp(1.0, loss_cache), cache, helper)
        assert refs and seen == [0]

    @pytest.mark.parametrize("threads, make_config", [
        pytest.param(threads, make_config, id=f"{threads}{suffix}")
        for make_config, suffix in [(small_train_config, ""), (fft_layer_config, "-fft_layer")]
        for threads in (1, 2)
    ])
    def test_one_conv1d_vjp_per_layer_per_example(self, monkeypatch, threads, make_config):
        """The lane plan's lanes: in the two-thread step the split layer's and the deferred
        top layer's VJPs get the executor and their kernel-gradient passes run on the helper,
        each after its VJP started and before its join point; every other pass runs on the
        caller, in the caller's order."""
        cfg = make_config()
        plan = network.lane_plan(cfg)
        calls = record_conv_calls(monkeypatch)
        step = train_step if threads == 2 else serial_train_step
        step(synthetic_batch(cfg, np.random.default_rng(5), n=2), TrainState.create(cfg))
        layers = list(range(len(cfg.cnn.channel_widths)))
        widths = (1, *cfg.cnn.channel_widths)
        shapes = [(widths[i + 1], widths[i], cfg.cnn.kernel) for i in layers]
        on_helper = {plan.split, plan.deferred} if threads == 2 else set()
        example = [("conv1d", f"cnn.{i}.w") for i in layers]
        for i in reversed(layers):
            example.append(("conv1d_vjp", f"cnn.{i}.w", i in on_helper))
            if i not in on_helper:
                example.append(("kernel_grad", shapes[i], False))
        helper = [(k, call) for k, call in enumerate(calls) if call[0] == "kernel_grad" and call[2]]
        assert [call for call in calls if call[0] != "kernel_grad" or not call[2]] == example * 2
        if threads == 1:
            assert not helper
            return
        # Each helper pass lies between its VJP's call and the caller's next call after its
        # join: the split layer's VJP for the deferred layer, the layer below for the split.
        assert [call for _, call in helper] == [("kernel_grad", shapes[i], True)
                                                for i in (plan.deferred, plan.split)] * 2
        vjps = [k for k, call in enumerate(calls) if call[0] == "conv1d_vjp"]
        for n, (k, _) in enumerate(helper):
            example_vjps = vjps[len(layers) * (n // 2):][:len(layers)]
            started = example_vjps[layers[-1] - (plan.deferred, plan.split)[n % 2]]
            joined = example_vjps[layers[-1] - plan.split + n % 2]
            assert started < k < joined, (calls, k)

    def test_predict_scores_passes_no_executor(self, monkeypatch):
        cfg = small_train_config()
        example = synthetic_batch(cfg, np.random.default_rng(4), n=1)[0]
        calls = record_conv_calls(monkeypatch)
        predict_scores(example.waveform, example.base_spec, WlannParams.create(cfg), cfg)
        layers = range(len(cfg.cnn.channel_widths))
        assert calls == [("conv1d", f"cnn.{i}.w") for i in layers]

    def test_no_thread_outlives_a_step(self):
        cfg = small_train_config()
        before = set(threading.enumerate())
        train_step(synthetic_batch(cfg, np.random.default_rng(8), n=1), TrainState.create(cfg))
        assert not set(threading.enumerate()) - before


class TestLanePlan:
    @pytest.mark.parametrize("make_config, plan", [
        (WlannConfig, (1, (2,), 3)),
        (separation_config, (1, (), 3)),
        (small_train_config, (1, (), 3)),
        (fft_layer_config, (1, (), 3)),
        (two_fft_layer_config, (1, (2,), 3)),
    ], ids=["default_8s", "separation_1s", "small", "small_6s", "small_8s"])
    def test_plan_per_geometry(self, make_config, plan):
        """Split at the widest im2col layer, spectra of the FFT layers above it, the top
        layer's kernel gradient deferred."""
        assert network.lane_plan(make_config()) == network.LanePlan(*plan)

    def test_plan_without_a_layer_above_the_split(self):
        """A stack whose widest layer is the top one has nothing to defer or prebuild."""
        cfg = small_train_config(cnn=CnnBranchConfig(kernel=80, initial_stride=5,
                                                     block_strides=(4,), channel_widths=(8, 60)))
        assert network.lane_plan(cfg) == network.LanePlan(1, (), None)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_spectra_on_the_helper_bitwise_equal_to_one_thread(self, dtype):
        """At the two-FFT-layer geometry, where the helper builds `cnn.2`'s spectrum."""
        cfg = two_fft_layer_config(dtype=dtype, augment=AugmentConfig(time_warp_frames=2), seed=8)
        batch = synthetic_batch(cfg, np.random.default_rng(6), n=2)
        threaded, serial = TrainState.create(cfg), TrainState.create(cfg)
        for _ in range(2):
            assert train_step(batch, threaded)[0] == serial_train_step(batch, serial)
        pairs = zip([*threaded.params.tensors(), *threaded.optimizer.m, *threaded.optimizer.v],
                    [*serial.params.tensors(), *serial.optimizer.m, *serial.optimizer.v])
        for got, want in pairs:
            assert got.data.tobytes() == want.data.tobytes(), got.name

    def test_each_step_builds_each_spectrum_once_on_its_lane(self, monkeypatch):
        """Batch 2, three steps: per step `cnn.1`'s spectrum is built on the caller and
        `cnn.2`'s on the helper, once each."""
        cfg = two_fft_layer_config()
        plan = network.lane_plan(cfg)
        state = TrainState.create(cfg)
        batch = synthetic_batch(cfg, np.random.default_rng(3), n=2)
        builds, build = [], F._kernel_spectrum

        def recording(w, stride):
            builds.append((w.shape, threading.current_thread() is not threading.main_thread()))
            return build(w, stride)

        monkeypatch.setattr(F, "_kernel_spectrum", recording)
        shape = lambda i: state.params.conv_layers[i].w.shape  # noqa: E731
        for _ in range(3):
            builds.clear()
            train_step(batch, state)
            assert sorted(builds) == sorted([(shape(plan.split), False),
                                             *[(shape(i), True) for i in plan.spectra]])

    def test_inference_queues_no_spectrum_job(self, monkeypatch):
        """`predict_scores` on a one-worker pool builds every spectrum on the caller."""
        cfg = two_fft_layer_config()
        example = synthetic_batch(cfg, np.random.default_rng(4), n=1)[0]
        builds, build = [], F._kernel_spectrum

        def recording(w, stride):
            builds.append(threading.current_thread() is threading.main_thread())
            return build(w, stride)

        monkeypatch.setattr(F, "_kernel_spectrum", recording)
        with ThreadPoolExecutor(max_workers=1) as pool:
            predict_scores(example.waveform, example.base_spec, WlannParams.create(cfg), cfg, pool)
        assert builds == [True, True]

    def test_two_thread_step_peak_is_fixed(self):
        """Ten fresh states, one traced step each (after four to warm the interpreter): the
        peaks agree to 16 KiB, well under the 70 KiB of the smallest buffer a helper job
        writes into here (`cnn.3`'s kernel gradient). Python's own objects (the step's and
        Adam's pool threads and work items, tables resized before tracing began) move the
        peak by up to ~2.3 KiB, so the test does not ask for equal bytes."""
        cfg = small_train_config()
        batch = synthetic_batch(cfg, np.random.default_rng(1234), n=2)
        peaks = []
        for _ in range(14):
            state = TrainState.create(cfg)
            train_step(batch, state)  # first-call imports, caches and lane buffers
            gc.collect()
            peaks.append(traced_peak(lambda: train_step(batch, state)))
        assert max(peaks[4:]) - min(peaks[4:]) <= 16 << 10, peaks

    def test_default_8s_step_peak_is_bounded(self):
        """Two warm two-thread steps at the shipped 8 s config, traced from each step's entry,
        each peak under 192 MiB. They read ~168.6 MiB, ~52 MiB of it the FFT kernel spectra
        the step rebuilds after Adam, which tracing counts as new. The bound leaves ~23 MiB
        of slack and is ~42 MiB under the 234.4 MiB a step read while the attention cache
        held every head's (N, N) weights."""
        cfg = WlannConfig()
        rng = np.random.default_rng(7)
        clip = AudioClip(rng.uniform(-0.5, 0.5, cfg.fixed_samples), cfg.sample_rate_hz)
        batch = [PreparedExample("clip0", *prepare_input(clip, cfg), 1)]
        state = TrainState.create(cfg)
        train_step(batch, state)  # first-call imports, caches and lane buffers
        peaks = []
        for _ in range(2):
            gc.collect()
            peaks.append(traced_peak(lambda: train_step(batch, state)))
        assert max(peaks) <= 192 << 20, peaks


class TestKernelSpectrumMemo:
    """Each FFT layer's spectrum is built once per weight value and follows Adam's updates."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_steps_equal_steps_with_fresh_spectra(self, monkeypatch, dtype):
        """3 steps equal 3 steps whose weights drop their spectra before every step; each
        step builds the FFT layer's spectrum once for both examples' forwards and VJPs."""
        cfg = fft_layer_config(dtype=dtype, augment=AugmentConfig(time_warp_frames=2), seed=8)
        batch = synthetic_batch(cfg, np.random.default_rng(6), n=2)
        memo, fresh = TrainState.create(cfg), TrainState.create(cfg)
        builds = spectrum_builds(monkeypatch)
        fft_layer = (memo.params.conv_layers[1].w.shape, cfg.cnn.strides[1])
        for _ in range(3):
            for tensor in fresh.params.tensors():
                tensor.spectrum = None
            built = len(builds)
            loss = train_step(batch, memo)[0]
            assert builds[built:] == [fft_layer]
            assert loss == train_step(batch, fresh)[0]
        pairs = zip([*memo.params.tensors(), *memo.optimizer.m, *memo.optimizer.v],
                    [*fresh.params.tensors(), *fresh.optimizer.m, *fresh.optimizer.v])
        for got, want in pairs:
            assert got.data.tobytes() == want.data.tobytes(), got.name

    def test_evaluate_builds_each_spectrum_once(self, monkeypatch, tiny_corpus):
        """Two workers share the weights: one build per FFT layer, none on a second call."""
        corpus, _, intra, _ = tiny_corpus
        cfg = fft_layer_config()
        params = WlannParams.create(cfg)
        builds = spectrum_builds(monkeypatch)
        first = scoring.render_report(*scoring.evaluate(params, cfg, intra, corpus, jobs=2))
        assert builds == [(params.conv_layers[1].w.shape, cfg.cnn.strides[1])]
        assert scoring.render_report(*scoring.evaluate(params, cfg, intra, corpus, jobs=2)) == first
        assert len(builds) == 1


class TestBlasPin:
    """`import wlann` pins BLAS to one thread unless the variable is set (subprocess runs)."""

    SCRIPT = """
import hashlib, os
import wlann  # before NumPy, as the `wlann` command imports it
import numpy as np
from wlann.dataio import AudioClip
from wlann.model import prepare_input
from wlann.model.config import AstBranchConfig, CnnBranchConfig, WlannConfig
from wlann.train import PreparedExample, TrainState, train_step
cfg = WlannConfig(fixed_input_seconds=1.0, gru_hidden=4,
                  ast=AstBranchConfig(embed_dim=8, depth=1, heads=2),
                  cnn=CnnBranchConfig(kernel=80, initial_stride=5, block_strides=(4, 4, 4),
                                      channel_widths=(8, 8, 15, 15)))
clip = AudioClip(np.random.default_rng(3).uniform(-0.5, 0.5, 16000), 16000)
state = TrainState.create(cfg)
train_step([PreparedExample("a", *prepare_input(clip, cfg), 2)], state)
digest = hashlib.sha256(b"".join(t.data.tobytes() for t in state.params.tensors()))
print(os.environ["OPENBLAS_NUM_THREADS"], digest.hexdigest())
"""

    @classmethod
    def run(cls, **variables) -> list[str]:
        env = {k: v for k, v in os.environ.items() if k not in wlann.BLAS_THREAD_VARIABLES}
        env["PYTHONPATH"] = str(Path(wlann.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-c", cls.SCRIPT], env={**env, **variables},
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    def test_unset_thread_count_trains_as_one_thread(self):
        unset, one = self.run(), self.run(OPENBLAS_NUM_THREADS="1")
        assert unset == one
        assert unset[0] == "1"

    def test_a_set_thread_count_wins(self):
        assert self.run(OPENBLAS_NUM_THREADS="2")[0] == "2"

    ORDER_SCRIPT = """
import sys, warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    for name in sys.argv[1:]:
        __import__(name)
print(*[type(w.message).__name__ for w in caught] or ["none"])
"""

    @classmethod
    def import_warnings(cls, *order, **variables) -> list[str]:
        env = {k: v for k, v in os.environ.items() if k not in wlann.BLAS_THREAD_VARIABLES}
        env["PYTHONPATH"] = str(Path(wlann.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-c", cls.ORDER_SCRIPT, *order],
                              env={**env, **variables}, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    def test_numpy_first_with_no_thread_variable_warns(self):
        assert self.import_warnings("numpy", "wlann") == ["BlasThreadsWarning"]
        assert issubclass(wlann.BlasThreadsWarning, UserWarning)
        assert not issubclass(wlann.BlasThreadsWarning, RuntimeWarning)

    @pytest.mark.parametrize("order, variables", [
        (("wlann", "numpy"), {}),
        (("numpy", "wlann"), {"OPENBLAS_NUM_THREADS": "2"}),
        (("numpy", "wlann"), {"OMP_NUM_THREADS": "1"}),
    ], ids=["wlann_first", "numpy_first_openblas_set", "numpy_first_omp_set"])
    def test_pinned_or_chosen_thread_count_is_silent(self, order, variables):
        assert self.import_warnings(*order, **variables) == ["none"]


class TestConfigDtype:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_forward_backward_and_step_compute_in_config_dtype(self, dtype, grad_dtypes):
        cfg = small_train_config(dtype=dtype)
        example = synthetic_batch(cfg, np.random.default_rng(3), n=1)[0]
        state = TrainState.create(cfg)
        want = np.dtype(dtype)

        scores, cache = forward(example.waveform, example.base_spec, state.params, cfg)
        cached = {a.dtype for a in float_arrays(cache)}  # read now: `backward` empties the cache
        target = one_hot(example.label_index, cfg.num_classes, dtype=cfg.numpy_dtype)
        _, loss_cache = focal_loss(scores, target, cfg.focal_gamma)
        state.optimizer.zero_grads()
        backward(focal_loss_vjp(1.0, loss_cache), cache)
        state.optimizer.step()

        assert cached == {want}
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

    @pytest.mark.parametrize("removed", [("step", "optimizer_steps"), ("step",), ("epoch",),
                                         ("optimizer_steps",)])
    def test_missing_counter_code(self, tmp_path, removed):
        cfg = small_train_config()
        state = TrainState.create(cfg)
        for _ in range(3):
            train_step(synthetic_batch(cfg, np.random.default_rng(2), n=1), state)
        path = tmp_path / "t.wlann"
        save_checkpoint(path, state)
        archive = load_archive(path)
        metadata = {k: v for k, v in archive.metadata.items() if k not in removed}
        save_archive(path, archive.kind, archive.config, archive.tensors, metadata)
        with pytest.raises(CheckpointError, match=removed[0]) as err:
            load_train_state(path)
        assert err.value.code == "bad_magic"

    @pytest.mark.parametrize("table", [
        [("w", [2], 0), ("w", [2], 2)],
        [("w", [2], 0), ("v", [1], 3)],
        [("w", [4], 0), ("v", [2], 2)],
        [("w", [2], 2), ("v", [2], 0)],
    ], ids=["repeated_name", "gap", "overlap", "out_of_order"])
    def test_table_must_tile_the_payload(self, tmp_path, table):
        """Each table spans exactly the 16-byte payload, so only the tiling is wrong."""
        entries = [{"name": name, "shape": shape, "offset": offset}
                   for name, shape, offset in table]
        with pytest.raises(CheckpointError, match="corrupt header") as err:
            self.load_with_header(tmp_path / "t.wlann", {"tensors": entries})
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
        with pytest.raises(CheckpointError) as err, ArchiveReader(path) as reader:
            reader.restore(params.named())
        assert err.value.code == "shape_mismatch"

    def test_missing_tensor_code(self, tmp_path):
        cfg = small_train_config()
        params = WlannParams.create(cfg)
        tensors = {t.name: t.data for t in params.tensors()}
        tensors.pop("head.w")
        path = tmp_path / "t.wlann"
        save_archive(path, "checkpoint", cfg.to_dict(), tensors)
        with pytest.raises(CheckpointError) as err, ArchiveReader(path) as reader:
            reader.restore(params.named())
        assert err.value.code == "missing_tensor"

    def test_unknown_extra_tensor_warns_but_loads(self, tmp_path):
        cfg = small_train_config()
        params = WlannParams.create(cfg)
        tensors = {t.name: t.data for t in params.tensors()}
        tensors["future.feature"] = np.ones(3, dtype=np.float32)
        path = tmp_path / "t.wlann"
        save_archive(path, "checkpoint", cfg.to_dict(), tensors)
        with pytest.warns(UserWarning, match="future.feature"), ArchiveReader(path) as reader:
            reader.restore(params.named())

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
        with ArchiveReader(path) as reader:
            reader.restore(named)
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
        """The 71 parameters in Adam's order, then each parameter's m and v."""
        names = [f"cnn.{i}.{n}" for i in range(4) for n in ("w", "b", "ln.gain", "ln.shift")]
        names += ["ast.embed.w", "ast.embed.b", "ast.pos"]
        for i in range(2):
            block = f"ast.block.{i}"
            names += [f"{block}.ln1.gain", f"{block}.ln1.shift"]
            names += [f"{block}.attn.{p}" for p in ("q.w", "q.b", "k.w", "v.w", "v.b", "out.w", "out.b")]
            names += [f"{block}.ln2.gain", f"{block}.ln2.shift"]
            names += [f"{block}.{ff}.{k}" for ff in ("ff1", "ff2") for k in ("w", "b")]
        names += ["ast.final_ln.gain", "ast.final_ln.shift"]
        names += [f"gru.{d}.{m}{gate}" for d in ("fwd", "bwd") for gate in "zrh" for m in "wub"]
        names += ["head.w", "head.b"]
        expected = names + [f"adam.{k}.{name}" for name in names for k in ("m", "v")]
        assert (len(names), len(expected)) == (71, 213)

        path = tmp_path / "default.wlann"
        save_checkpoint(path, TrainState.create(WlannConfig()))
        with path.open("rb") as handle:
            assert handle.read(6) == b"WLANN1"
            (header_len,) = struct.unpack("<I", handle.read(4))
            header = json.loads(handle.read(header_len))
        assert [entry["name"] for entry in header["tensors"]] == expected

    def test_checkpoint_with_attention_key_biases_loads_with_one_warning(self, tmp_path):
        """The older layout held a key bias `attn.k.b` per block, after `attn.k.w`, and its
        two moments. Both loads warn once, naming only the biases, and give the scores and
        state of the same archive without those six tensors."""
        cfg = small_train_config(ast=AstBranchConfig(embed_dim=8, depth=2, heads=2))
        state = TrainState.create(cfg)
        batch = synthetic_batch(cfg, np.random.default_rng(6), n=2)
        train_step(batch, state)
        stripped = tmp_path / "stripped.wlann"
        save_checkpoint(stripped, state)
        archive = load_archive(stripped)
        biases = [f"ast.block.{i}.attn.k.b" for i in range(cfg.ast.depth)]
        names = []
        for name in archive.tensors:
            if not name.startswith("adam."):
                names += [name, name[:-1] + "b"] if name.endswith("attn.k.w") else [name]
        older_names = names + [f"adam.{k}.{name}" for name in names for k in ("m", "v")]
        rng = np.random.default_rng(8)
        extra = {name: (rng.standard_normal(cfg.ast.embed_dim) * 1e-8).astype(np.float32)
                 for name in older_names if name not in archive.tensors}
        assert sorted(extra) == sorted(f"{p}{b}" for b in biases for p in ("", "adam.m.", "adam.v."))
        values = {**archive.tensors, **extra}
        older = tmp_path / "older.wlann"
        save_archive(older, archive.kind, archive.config,
                     {name: values[name] for name in older_names}, archive.metadata)

        def load(loader, path):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                loaded = loader(path)
            return loaded, [(w.category, str(w.message)) for w in caught]

        (_, old_params, _), caught = load(load_checkpoint, older)
        assert caught == [(UserWarning, f"checkpoint has unknown extra tensors: {biases}")]
        (_, new_params, _), caught = load(load_checkpoint, stripped)
        assert caught == []
        old_state, caught = load(load_train_state, older)
        assert caught == [(UserWarning, f"checkpoint has unknown extra tensors: {biases}")]
        new_state, caught = load(load_train_state, stripped)
        assert caught == []

        def scores(params):
            return [predict_scores(e.waveform, e.base_spec, params, cfg).tobytes() for e in batch]

        assert scores(old_params) == scores(new_params) == scores(old_state.params)
        old_named = {**old_state.params.named(), **old_state.optimizer.moments()}
        new_named = {**new_state.params.named(), **new_state.optimizer.moments()}
        assert list(old_named) == list(new_named) == list(archive.tensors)
        for name, tensor in new_named.items():
            assert old_named[name].data.tobytes() == tensor.data.tobytes(), name

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
        state = TrainState.create(separation_config())
        param_bytes = sum(tensor.data.nbytes for tensor in state.params.tensors())
        path = tmp_path / "separation.wlann"
        save_checkpoint(path, state)
        del state
        peak = traced_peak(lambda: load_checkpoint(path))
        bound = path.stat().st_size + param_bytes + 2**20
        assert peak <= bound, (peak, bound)

    def test_load_checkpoint_reads_only_the_parameters(self, tmp_path):
        """An inference load peaks at the parameters plus the header: the moments stay on disk."""
        state = TrainState.create(separation_config())
        param_bytes = sum(tensor.data.nbytes for tensor in state.params.tensors())
        path = tmp_path / "separation.wlann"
        save_checkpoint(path, state)
        del state
        with path.open("rb") as handle:
            handle.read(len(checkpoint.MAGIC))
            (header_len,) = struct.unpack("<I", handle.read(4))
        load_checkpoint(path)  # first-call imports
        peak = traced_peak(lambda: load_checkpoint(path))
        bound = param_bytes + header_len + 2**18
        assert peak <= bound, (peak, bound)

    @pytest.mark.parametrize("load", [load_checkpoint, load_train_state])
    def test_partial_loads_check_the_whole_file(self, tmp_path, load):
        """Truncation and trailing bytes are found from the file size, moments unread or not."""
        path = self.trained_checkpoint(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(CheckpointError, match=r"'adam\.v\.head\.b' \(need \d+ bytes") as err:
            load(path)
        assert err.value.code == "truncated_payload"
        path.write_bytes(raw + b"\x00" * 12)
        with pytest.raises(CheckpointError, match="12 bytes after the last tensor") as err:
            load(path)
        assert err.value.code == "trailing_bytes"

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
