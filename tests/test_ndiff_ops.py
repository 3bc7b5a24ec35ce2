"""Forward semantics of the numeric primitives against loop oracles."""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st

from wlann.errors import ShapeError, ValidationError
from wlann.model.config import WlannConfig
from wlann.model.network import lane_plan
from wlann.ndiff import (
    AttentionParams,
    GruCellParams,
    ParamGroup,
    Tensor,
    TransformerBlockParams,
    bigru,
    bigru_vjp,
    gru_sequence,
    multi_head_self_attention,
    transformer_block,
)
from wlann.ndiff import functional as F
from wlann.ndiff.attention import _merge_heads, _split_heads, multi_head_self_attention_vjp

from conftest import (fft_layer_config, separation_config, small_train_config, spectrum_builds,
                      traced_peak)


def tensor(values, name="t"):
    return Tensor(np.asarray(values, dtype=np.float64), name=name)


def widest_geometry(cfg):
    """(C_in, C_out, input length, kernel, stride) of the config's widest conv layer."""
    i = lane_plan(cfg).split
    widths = (1, *cfg.cnn.channel_widths)
    return widths[i], widths[i + 1], cfg.conv_lengths()[i], cfg.cnn.kernel, cfg.cnn.strides[i]


class TestTensor:
    def test_add_grad_rejects_another_dtype(self):
        p = Tensor(np.zeros(3, dtype=np.float32), name="p")
        p.add_grad(np.ones(3, dtype=np.float32))
        with pytest.raises(ShapeError, match="dtype float64"):
            p.add_grad(np.ones(3, dtype=np.float64))
        np.testing.assert_array_equal(p.grad, np.ones(3, dtype=np.float32))

    def test_zero_grad_reuses_a_fitting_buffer(self):
        p = Tensor(np.zeros((2, 3), dtype=np.float32), name="p")
        p.zero_grad()
        buffer = p.grad
        p.add_grad(np.ones((2, 3), dtype=np.float32))
        p.zero_grad()
        assert p.grad is buffer
        np.testing.assert_array_equal(buffer, np.zeros((2, 3), dtype=np.float32))
        p.data = np.zeros(4, dtype=np.float64)  # another shape and dtype: a new buffer
        p.zero_grad()
        assert p.grad is not buffer
        assert p.grad.shape == (4,) and p.grad.dtype == np.float64 and not p.grad.any()


@dataclass
class _Leaf(ParamGroup):
    a: Tensor
    width: int


@dataclass
class _Tree(ParamGroup):
    first: Tensor
    leaves: list
    nested: _Leaf
    last: Tensor


class TestParamGroup:
    def tree(self, last="last"):
        return _Tree(tensor([1.0], "first"), [_Leaf(tensor([2.0], "l0"), 3), tensor([3.0], "l1")],
                     _Leaf(tensor([4.0], "nested"), 5), tensor([5.0], last))

    def test_walks_fields_in_declaration_order(self):
        tree = self.tree()
        assert [t.name for t in tree.tensors()] == ["first", "l0", "l1", "nested", "last"]
        assert list(tree.named()) == ["first", "l0", "l1", "nested", "last"]
        tree.zero_grads()
        assert all(t.grad is not None and not t.grad.any() for t in tree.tensors())

    def test_duplicate_name_rejected(self):
        with pytest.raises(ShapeError, match="duplicate parameter name 'first'"):
            self.tree(last="first").named()


# (C_in, C_out, L, K, stride): K % s != 0, s = 1, s > K, K = L, and inputs
# whose trailing samples no window reads.
CONV_GEOMETRIES = [
    (2, 3, 11, 4, 2),
    (3, 2, 23, 7, 3),
    (2, 2, 9, 3, 1),
    (2, 3, 20, 3, 5),
    (1, 2, 12, 12, 4),
    (2, 2, 90, 20, 4),
]


class TestJob:
    def test_other_threads_wait_for_the_executor(self):
        """A thread outside the pool waits, even behind a busy worker: the job runs there."""
        release, threads = threading.Event(), []
        with ThreadPoolExecutor(max_workers=1) as pool:
            blocker = pool.submit(release.wait, 30)
            job = F.Job(pool, lambda value: threads.append(threading.current_thread()) or value, 7)
            job.start()
            timer = threading.Timer(0.05, release.set)
            timer.start()
            assert job.wait() == 7
            assert blocker.result(timeout=30)
            timer.join(30)
            assert not timer.is_alive()
        assert len(threads) == 1 and threads[0] is not threading.current_thread()

    def test_job_on_its_callers_one_worker_pool_runs_in_the_waiting_worker(self):
        """The only worker is blocked waiting on a job it queued: it runs the job itself."""
        pool = ThreadPoolExecutor(max_workers=1)

        def outer():
            job = F.Job(pool, threading.current_thread)
            job.start()
            return threading.current_thread(), job.wait()

        try:
            caller, ran_on = pool.submit(outer).result(timeout=30)
        finally:
            pool.shutdown(cancel_futures=True)  # on a deadlock, frees the worker to end
        assert ran_on is caller

    def test_started_job_is_awaited_not_run_again(self):
        """A worker waiting on a job the pool's other worker is running waits for it."""
        started, release, calls = threading.Event(), threading.Event(), []

        def work():
            calls.append(threading.current_thread())
            started.set()
            release.wait(30)
            return "done"

        with ThreadPoolExecutor(max_workers=2) as pool:
            def outer():
                job = F.Job(pool, work)
                job.start()
                assert started.wait(30)
                timer = threading.Timer(0.05, release.set)
                timer.start()
                result = job.wait()  # the job is running: cancelling it fails
                timer.join(30)
                return threading.current_thread(), result, timer.is_alive()

            caller, result, timer_alive = pool.submit(outer).result(timeout=60)
        assert result == "done" and not timer_alive
        assert len(calls) == 1 and calls[0] is not caller


def im2col_conv1d_reference(x, w, b, stride, dy):
    """conv1d and its VJP with the whole im2col matrix and a per-tap scatter."""
    c_out, c_in, kernel = w.shape
    windows = sliding_window_view(x, kernel, axis=1)[:, ::stride, :]
    l_out = windows.shape[1]
    cols = windows.transpose(0, 2, 1).reshape(c_in * kernel, l_out)
    y = w.data.reshape(c_out, c_in * kernel) @ cols + b.data[:, None]
    w.add_grad((dy @ cols.T).reshape(w.shape))
    b.add_grad(dy.sum(axis=1))
    dwindows = (w.data.reshape(c_out, c_in * kernel).T @ dy).reshape(c_in, kernel, l_out)
    dx = np.zeros(x.shape, dtype=dy.dtype)
    for k in range(kernel):
        dx[:, k : k + stride * l_out : stride] += dwindows[:, k, :]
    return y, dx


class TestConv1d:
    def test_output_length_16000_80_5(self):
        """floor((16000 - 80) / 5) + 1 = 3185."""
        x = np.zeros((1, 16000))
        w = tensor(np.zeros((2, 1, 80)))
        b = tensor(np.zeros(2))
        y, _ = F.conv1d(x, w, b, stride=5)
        assert y.shape == (2, 3185)

    @settings(max_examples=50, deadline=None)
    @given(
        length=st.integers(8, 400),
        kernel=st.integers(1, 8),
        stride=st.integers(1, 5),
    )
    def test_output_length_law(self, length, kernel, stride):
        y, _ = F.conv1d(np.zeros((1, length)), tensor(np.zeros((1, 1, kernel))), tensor(np.zeros(1)), stride)
        assert y.shape[1] == (length - kernel) // stride + 1

    def test_unit_kernel_identity(self, rng):
        x = rng.standard_normal((1, 20))
        w = tensor(np.ones((1, 1, 1)))
        b = tensor(np.zeros(1))
        y, _ = F.conv1d(x, w, b, stride=1)
        np.testing.assert_allclose(y, x, atol=0)

    def test_matches_triple_loop_oracle(self, rng):
        c_in, c_out, length, kernel, stride = 2, 3, 11, 4, 2
        x = rng.standard_normal((c_in, length))
        w = rng.standard_normal((c_out, c_in, kernel))
        b = rng.standard_normal(c_out)
        y, _ = F.conv1d(x, tensor(w), tensor(b), stride)

        l_out = (length - kernel) // stride + 1
        expected = np.zeros((c_out, l_out))
        for o in range(c_out):
            for l in range(l_out):
                acc = b[o]
                for i in range(c_in):
                    for k in range(kernel):
                        acc += w[o, i, k] * x[i, l * stride + k]
                expected[o, l] = acc
        np.testing.assert_allclose(y, expected, atol=1e-12)

    @pytest.mark.parametrize("c_in,c_out,length,kernel,stride", CONV_GEOMETRIES)
    def test_vjp_matches_loop_oracle(self, rng, c_in, c_out, length, kernel, stride):
        x = rng.standard_normal((c_in, length))
        w, b = tensor(rng.standard_normal((c_out, c_in, kernel))), tensor(rng.standard_normal(c_out))
        y, cache = F.conv1d(x, w, b, stride)
        dy = rng.standard_normal(y.shape)
        dx = F.conv1d_vjp(dy, cache)

        l_out = (length - kernel) // stride + 1
        expected_y = np.zeros((c_out, l_out))
        expected_dx = np.zeros_like(x)
        expected_dw = np.zeros_like(w.data)
        for o in range(c_out):
            for l in range(l_out):
                expected_y[o, l] = b.data[o]
                for i in range(c_in):
                    for k in range(kernel):
                        expected_y[o, l] += w.data[o, i, k] * x[i, l * stride + k]
                        expected_dx[i, l * stride + k] += w.data[o, i, k] * dy[o, l]
                        expected_dw[o, i, k] += dy[o, l] * x[i, l * stride + k]
        np.testing.assert_allclose(y, expected_y, atol=1e-12)
        np.testing.assert_allclose(dx, expected_dx, atol=1e-12)
        np.testing.assert_allclose(w.grad, expected_dw, atol=1e-12)
        np.testing.assert_allclose(b.grad, dy.sum(axis=1), atol=1e-12)
        unread = (l_out - 1) * stride + kernel
        assert np.all(dx[:, unread:] == 0.0)

    @pytest.mark.parametrize("c_in,c_out,length,kernel,stride", CONV_GEOMETRIES)
    def test_cache_holds_no_more_than_input_plus_one_stride(self, c_in, c_out, length, kernel,
                                                           stride):
        """The im2col columns (C_in*K*L_out values) must not outlive the forward."""
        _, cache = F.conv1d(np.zeros((c_in, length)), tensor(np.zeros((c_out, c_in, kernel))),
                            tensor(np.zeros(c_out)), stride)
        activations = [a for a in cache if isinstance(a, np.ndarray)]
        assert activations
        for array in activations:
            assert array.size <= c_in * (length + stride - 1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c_in,c_out,length,kernel,stride",
                             CONV_GEOMETRIES + [(1, 8, 16000, 80, 5), (16, 8, 2000, 80, 4),
                                                (1, 16, 5595 * 5 + 80, 80, 5)])
    def test_bitwise_equal_to_full_im2col(self, rng, dtype, c_in, c_out, length, kernel, stride):
        """Same columns, same GEMMs, same per-sample sum order as the im2col reference.

        With one input channel the reference's columns are a strided view,
        which numpy's matmul hands to BLAS only for large enough outputs;
        (1, 8, 16000, ...) is the small model's first layer, above that size,
        and (1, 16, 27975 + 80, ...) has 5596 output columns in one GEMM.
        """
        assert not F.uses_fft(c_in, kernel, stride, (length - kernel) // stride + 1)
        x = rng.standard_normal((length, c_in)).astype(dtype).T  # a transposed view, as in the model
        w_data = rng.standard_normal((c_out, c_in, kernel)).astype(dtype)
        b_data = rng.standard_normal(c_out).astype(dtype)
        w, b = Tensor(w_data.copy(), name="w"), Tensor(b_data.copy(), name="b")
        y, cache = F.conv1d(x, w, b, stride)
        dy = rng.standard_normal(y.shape).astype(dtype)
        dx = F.conv1d_vjp(dy, cache)

        ref_w, ref_b = Tensor(w_data.copy(), name="w"), Tensor(b_data.copy(), name="b")
        ref_y, ref_dx = im2col_conv1d_reference(x, ref_w, ref_b, stride, dy)
        for got, want in ((y, ref_y), (dx, ref_dx), (w.grad, ref_w.grad), (b.grad, ref_b.grad)):
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("geometry,transposed_dy", [
        pytest.param(geometry, transposed, id=name + ("_dy_view" if transposed else ""))
        for name, geometry in [
            ("default_8s", widest_geometry(WlannConfig())),  # FFT
            ("separation_1s", widest_geometry(separation_config())),
            ("small", widest_geometry(small_train_config())),
            ("l_out_5596", (1, 16, 5595 * 5 + 80, 80, 5)),
            ("l_out_8193", (8, 8, 8192 * 4 + 80, 80, 4)),  # FFT
        ]
        for transposed in (False, True)
    ])
    def test_split_vjp_bitwise_equal_to_one_thread(self, rng, dtype, geometry, transposed_dy):
        """With an executor, the kernel gradient computed on its thread keeps the bits,
        for a C-contiguous `dy` and for the transposed view the network passes."""
        c_in, c_out, length, kernel, stride = geometry
        x = rng.standard_normal((c_in, length)).astype(dtype)
        w_data = rng.standard_normal((c_out, c_in, kernel)).astype(dtype)
        b_data = rng.standard_normal(c_out).astype(dtype)
        results = []
        with ThreadPoolExecutor(max_workers=1) as pool:
            for executor in (None, pool):
                w, b = Tensor(w_data.copy(), name="w"), Tensor(b_data.copy(), name="b")
                y, cache = F.conv1d(x, w, b, stride)
                draw = np.random.default_rng(3).standard_normal
                dy = draw(y.shape[::-1]).astype(dtype).T if transposed_dy else draw(y.shape).astype(dtype)
                dx = F.conv1d_vjp(dy, cache, executor=executor)
                results.append([y, dx, w.grad, b.grad])
                del y, cache, dy, dx
        for got, want in zip(*results):
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("geometry", [
        pytest.param((8, 15, 800, 80, 4), id="im2col"),
        pytest.param((8, 8, 8192 * 4 + 80, 80, 4), id="fft"),
    ])
    def test_deferred_join_and_reused_buffers_keep_the_bits(self, rng, geometry):
        """With `joins`, the kernel gradient reaches `w.grad` only when the join runs; with
        `buffers`, two calls write into the same buffers. The bits equal one thread's."""
        c_in, c_out, length, kernel, stride = geometry
        x = rng.standard_normal((c_in, length)).astype(np.float32)
        w_data = rng.standard_normal((c_out, c_in, kernel)).astype(np.float32)
        results = []
        with ThreadPoolExecutor(max_workers=1) as pool:
            for executor in (None, pool):
                w, b = Tensor(w_data.copy(), name="w"), Tensor(np.zeros(c_out, np.float32), name="b")
                buffers, grads = {}, []
                for seed in (1, 2):
                    y, cache = F.conv1d(x, w, b, stride)
                    dy = np.random.default_rng(seed).standard_normal(y.shape).astype(np.float32)
                    joins = [] if executor is not None else None
                    before = None if w.grad is None else w.grad.copy()
                    dx = F.conv1d_vjp(dy, cache, executor=executor, buffers=buffers, joins=joins)
                    if joins is not None:
                        assert len(joins) == 1
                        assert (w.grad is None) == (before is None)
                        assert before is None or w.grad.tobytes() == before.tobytes()
                        joins.pop()()
                        if seed == 1:
                            first = dict(buffers)
                    grads.append((dx, w.grad.copy()))
                if executor is not None:
                    assert len(first) == 2 and all(buffers[k] is v for k, v in first.items())
                assert (executor is None) == (not buffers)
                results.append(grads)
        for (dx, grad), (want_dx, want_grad) in zip(*results):
            assert dx.tobytes() == want_dx.tobytes() and grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("config, fft_layers", [
        (WlannConfig(), [1, 2]),
        (separation_config(), []),
        (small_train_config(), []),
        (fft_layer_config(), [1]),
    ], ids=["default_8s", "separation_1s", "small", "small_6s"])
    def test_fft_path_is_chosen_per_layer(self, config, fft_layers):
        """The rule's choice per layer at the shipped and the tests' configs: 8 s `cnn.1` (142
        blocks) and `cnn.2` (35), not `cnn.3` (9), nor 6 s `cnn.2` (27) or any 1 s layer."""
        widths = (1, *config.cnn.channel_widths)
        lengths = config.conv_lengths()
        chosen = [i for i, stride in enumerate(config.cnn.strides)
                  if F.uses_fft(widths[i], config.cnn.kernel, stride, lengths[i + 1])]
        assert chosen == fft_layers

    @pytest.mark.parametrize("dtype, tolerance", [(np.float32, 1e-6), (np.float64, 1e-12)])
    @pytest.mark.parametrize("geometry, direct", [
        (widest_geometry(WlannConfig()), False),
        ((8, 8, 8192 * 4 + 80, 80, 4), False),
        ((128, 240, 6377, 80, 4), False),  # 8 s `cnn.2`
        ((2, 3, 266, 7, 2), True),  # the gradient suite's FFT entry
        *[(geometry, True) for geometry in CONV_GEOMETRIES],
    ], ids=["default_8s", "l_out_8193", "default_8s_cnn2", "gradcheck", "k4_s2", "k7_s3", "k3_s1",
            "s5_k3", "k_eq_l", "k20_s4"])
    def test_fft_path_within_declared_bound_of_im2col(self, rng, dtype, tolerance, geometry,
                                                      direct):
        """Forward, input, kernel and bias gradients, in relative max-norm, where the rule
        picks the FFT path and where it is called directly."""
        c_in, c_out, length, kernel, stride = geometry
        assert F.uses_fft(c_in, kernel, stride, (length - kernel) // stride + 1) != direct
        x = rng.standard_normal((length, c_in)).astype(dtype).T
        w_data = rng.standard_normal((c_out, c_in, kernel)).astype(dtype)
        b_data = rng.standard_normal(c_out).astype(dtype)
        w, b = Tensor(w_data.copy(), name="w"), Tensor(b_data.copy(), name="b")
        y, cache = (F.conv1d_fft if direct else F.conv1d)(x, w, b, stride)
        dy = rng.standard_normal(y.shape).astype(dtype)
        dx = F.conv1d_vjp(dy, cache)
        ref_w, ref_b = Tensor(w_data.copy(), name="w"), Tensor(b_data.copy(), name="b")
        ref_y, ref_dx = im2col_conv1d_reference(x, ref_w, ref_b, stride, dy)
        for got, want in ((y, ref_y), (dx, ref_dx), (w.grad, ref_w.grad), (b.grad, ref_b.grad)):
            assert got.dtype == want.dtype == dtype
            assert np.max(np.abs(got - want)) <= tolerance * np.max(np.abs(want))
        unread = (y.shape[1] - 1) * stride + kernel
        assert not dx[:, unread:].any()

    def test_fft_forward_keeps_spectra_not_columns(self, rng):
        """At the 8 s widest layer the FFT forward peaks well under its 80 MiB of im2col columns."""
        c_in, c_out, length, kernel, stride = widest_geometry(WlannConfig())
        x = rng.standard_normal((c_in, length)).astype(np.float32)
        w = Tensor(rng.standard_normal((c_out, c_in, kernel)).astype(np.float32), name="w")
        b = Tensor(np.zeros(c_out, np.float32), name="b")
        F.conv1d(x, w, b, stride)  # first-call imports
        peak = traced_peak(lambda: F.conv1d(x, w, b, stride))
        _, (_, x_spec, *_) = F.conv1d(x, w, b, stride)
        # The padded input, the cached spectra, the kernel's and the product's
        # spectra, its inverse, and the output with its block copy.
        y_bytes = c_out * (length - kernel) // stride * 4
        bound = x.nbytes + x_spec.nbytes + 2 * c_out * c_in * stride * 33 * 8 + 4 * y_bytes
        assert peak <= bound < c_in * kernel * 4096 * 4, (peak, bound)

    def test_fft_kernel_grad_holds_one_block_of_products(self, rng):
        """At 8 s `cnn.2` the kernel gradient holds a few GRAD_BLOCK_BYTES blocks besides its
        output, not the whole layer's per-bin products, their copy and their 64-lag inverse."""
        c_in, c_out, length, kernel, stride = 128, 240, 6377, 80, 4
        x = rng.standard_normal((c_in, length)).astype(np.float32)
        w = Tensor(rng.standard_normal((c_out, c_in, kernel)).astype(np.float32), name="w")
        y, (_, x_spec, *_) = F.conv1d_fft(x, w, Tensor(np.zeros(c_out, np.float32), name="b"),
                                          stride)
        dy_spec = F._block_spectra(rng.standard_normal(y.shape).astype(np.float32),
                                   *F._fft_blocks(kernel, stride, y.shape[1])[1:])
        grad = F._fft_kernel_grad(dy_spec, x_spec, w.shape, stride)  # first-call imports
        peak = traced_peak(lambda: F._fft_kernel_grad(dy_spec, x_spec, w.shape, stride))
        whole = c_out * x_spec.shape[0] * x_spec.shape[1] * x_spec.itemsize
        assert peak <= grad.nbytes + 5 * F.GRAD_BLOCK_BYTES < whole, (peak, whole)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("geometry, block_bytes", [
        ((64, 128, 25585, 80, 4), None),  # 8 s `cnn.1`: 3 blocks in float32
        ((128, 240, 6377, 80, 4), None),  # 8 s `cnn.2`: 8 blocks in float32
        ((3, 17, 500, 20, 4), 1),  # as many blocks as fit two rows: 2 + ... + 3
        ((5, 33, 700, 9, 3), 3000),
        ((4, 3, 300, 7, 3), 1),  # one block of three rows
        ((4, 1, 300, 7, 3), 1),  # one row
    ], ids=["default_8s", "default_8s_cnn2", "rows_17", "rows_33", "rows_3", "rows_1"])
    def test_fft_kernel_grad_blocks_bitwise_equal_to_whole_layer(self, monkeypatch, rng, dtype,
                                                                geometry, block_bytes):
        """Blocks of output channels give the bits of the whole layer's per-bin GEMM and
        64-lag inverse transform."""
        from scipy.fft import irfft

        if block_bytes is not None:
            monkeypatch.setattr(F, "GRAD_BLOCK_BYTES", block_bytes)
        c_in, c_out, length, kernel, stride = geometry
        x = rng.standard_normal((c_in, length)).astype(dtype)
        w = Tensor(rng.standard_normal((c_out, c_in, kernel)).astype(dtype), name="w")
        y, (_, x_spec, *_) = F.conv1d_fft(x, w, Tensor(np.zeros(c_out, dtype), name="b"), stride)
        dy_spec = F._block_spectra(rng.standard_normal(y.shape).astype(dtype),
                                   *F._fft_blocks(kernel, stride, y.shape[1])[1:])
        products = np.matmul(dy_spec, x_spec.transpose(0, 2, 1))
        lags = irfft(np.ascontiguousarray(products.transpose(1, 2, 0)), F.FFT_SIZE)
        taps = lags[..., : -(-kernel // stride)].reshape(c_out, c_in, stride, -1)
        want = taps.transpose(0, 1, 3, 2).reshape(c_out, c_in, -1)[..., :kernel]
        got = F._fft_kernel_grad(dy_spec, x_spec, w.shape, stride)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_kernel_longer_than_input_rejected(self):
        with pytest.raises(ShapeError):
            F.conv1d(np.zeros((1, 3)), tensor(np.zeros((1, 1, 4))), tensor(np.zeros(1)), 1)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            F.conv1d(np.zeros((2, 10)), tensor(np.zeros((1, 3, 4))), tensor(np.zeros(1)), 1)


class TestKernelSpectrumMemo:
    """`conv1d_fft` builds a weight's spectrum once per weight value, held on the `Tensor`."""

    @staticmethod
    def layer(rng, dtype=np.float32):
        c_in, c_out, length, kernel, stride = 4, 6, 700, 9, 3
        x = rng.standard_normal((c_in, length)).astype(dtype)
        w = Tensor(rng.standard_normal((c_out, c_in, kernel)).astype(dtype), name="w")
        b = Tensor(rng.standard_normal(c_out).astype(dtype), name="b")
        return x, w, b, stride

    @staticmethod
    def cold(x, w, b, stride, dy=None):
        """Output (and input gradient, given `dy`) through a copy of `w` with no spectrum."""
        fresh = Tensor(w.data.copy(), name="w")
        y, cache = F.conv1d_fft(x, fresh, b, stride)
        return y if dy is None else (y, F.conv1d_vjp(dy, cache))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_hit_gives_the_bits_of_a_cold_build(self, monkeypatch, rng, dtype):
        x, w, b, stride = self.layer(rng, dtype)
        builds = spectrum_builds(monkeypatch)
        F.conv1d_fft(x, w, b, stride)
        y, cache = F.conv1d_fft(x, w, b, stride)
        dy = rng.standard_normal(y.shape).astype(dtype)
        dx = F.conv1d_vjp(dy, cache)  # the input gradient reads the same spectrum
        assert builds == [(w.shape, stride)]
        want_y, want_dx = self.cold(x, w, b, stride, dy)
        assert y.tobytes() == want_y.tobytes() and dx.tobytes() == want_dx.tobytes()

    @pytest.mark.parametrize("write", ["probe", "negative_zero", "copyto", "new_data", "stride"])
    def test_any_write_rebuilds(self, monkeypatch, rng, write):
        """A one-element probe as gradcheck makes, -0.0 over 0.0 (equal values, other bytes),
        a restore into the array, a replaced `.data`, and another stride."""
        x, w, b, stride = self.layer(rng)
        w.data[0, 0, 0] = 0.0
        F.conv1d_fft(x, w, b, stride)
        builds = spectrum_builds(monkeypatch)
        if write == "probe":
            w.data.reshape(-1)[5] += np.float32(1e-3)
        elif write == "negative_zero":
            w.data[0, 0, 0] = -0.0
        elif write == "copyto":
            np.copyto(w.data, rng.standard_normal(w.shape))
        elif write == "new_data":
            w.data = w.data * np.float32(0.5)
        else:
            stride += 1
        y, _ = F.conv1d_fft(x, w, b, stride)
        F.conv1d_fft(x, w, b, stride)
        assert builds == [(w.shape, stride)]
        assert y.tobytes() == self.cold(x, w, b, stride).tobytes()

    def test_threads_sharing_a_weight_build_it_once(self, monkeypatch, rng):
        """More threads than cores, a short switch interval and a slow build: one build."""
        x, w, b, stride = self.layer(rng)
        builds = spectrum_builds(monkeypatch, delay=0.05)
        start = threading.Barrier(4)

        def call(_):
            start.wait(timeout=30)
            return F.conv1d_fft(x, w, b, stride)[0]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                outputs = list(pool.map(call, range(4), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert builds == [(w.shape, stride)]
        want = self.cold(x, w, b, stride).tobytes()
        assert all(y.tobytes() == want for y in outputs)

    def test_memo_hit_does_not_wait_for_another_weights_build(self, monkeypatch, rng):
        """While one weight's spectrum is being built, a hit on another weight's memo returns."""
        x, w, b, stride = self.layer(rng)
        other = Tensor(rng.standard_normal(w.shape).astype(np.float32), name="other")
        want = F.weight_spectrum(w, stride)
        building, release = threading.Event(), threading.Event()
        build = F._kernel_spectrum

        def slow(data, step):
            building.set()
            release.wait(30)
            return build(data, step)

        monkeypatch.setattr(F, "_kernel_spectrum", slow)
        with ThreadPoolExecutor(max_workers=1) as pool:
            pending = pool.submit(F.weight_spectrum, other, stride)
            try:
                assert building.wait(30)
                got = F.weight_spectrum(w, stride)
                assert not release.is_set() and got is want
            finally:
                release.set()
            pending.result(timeout=60)


class TestLinear:
    def test_identity_weight(self, rng):
        x = rng.standard_normal((6, 4))
        y, _ = F.linear(x, tensor(np.eye(4)), tensor(np.zeros(4)))
        np.testing.assert_allclose(y, x, atol=0)

    def test_scalar_case(self):
        y, _ = F.linear(np.array([5.0]), tensor([[2.0]]), tensor([3.0]))
        assert y[0] == 13.0

    def test_matches_loop_oracle(self, rng):
        x = rng.standard_normal((4, 3))
        w = rng.standard_normal((5, 3))
        b = rng.standard_normal(5)
        y, _ = F.linear(x, tensor(w), tensor(b))
        expected = np.array([[np.dot(w[o], x[n]) + b[o] for o in range(5)] for n in range(4)])
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            F.linear(np.zeros((2, 3)), tensor(np.zeros((4, 5))), tensor(np.zeros(4)))


class TestActivations:
    def test_sigmoid_at_zero(self):
        y, _ = F.sigmoid(np.zeros(3))
        np.testing.assert_allclose(y, 0.5)

    def test_softmax_of_constants_is_uniform(self):
        y, _ = F.softmax(np.full((2, 5), 3.7), axis=-1)
        np.testing.assert_allclose(y, 0.2, atol=1e-15)

    def test_softmax_rows_sum_to_one(self, rng):
        y, _ = F.softmax(rng.standard_normal((7, 9)) * 20, axis=-1)
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(y >= 0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("axis", [-1, 0])
    def test_softmax_bitwise_equal_to_three_buffer_form(self, rng, dtype, axis):
        x = (rng.standard_normal((3, 40, 40)) * 8).astype(dtype)
        y, _ = F.softmax(x, axis=axis)
        exp = np.exp(x - x.max(axis=axis, keepdims=True))
        expected = exp / exp.sum(axis=axis, keepdims=True)
        assert y.dtype == dtype
        assert np.array_equal(y, expected)

    def test_softmax_leaves_input_unmodified(self, rng):
        x = rng.standard_normal((4, 6))
        before = x.copy()
        y, _ = F.softmax(x, axis=-1)
        np.testing.assert_array_equal(x, before)
        assert not np.shares_memory(x, y)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_into_its_input_buffer(self, rng, dtype):
        x = (rng.standard_normal((3, 40, 40)) * 8).astype(dtype)
        expected, _ = F.softmax(x, axis=-1)
        y, (cached, _) = F.softmax(x, axis=-1, out=x)
        assert y is x and cached is x
        assert np.array_equal(y, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_vjp_bitwise_equal_to_closed_form(self, rng, dtype):
        y, cache = F.softmax((rng.standard_normal((3, 40, 40)) * 8).astype(dtype), axis=-1)
        dy = rng.standard_normal(y.shape).astype(dtype)
        before = dy.copy()
        dx = F.softmax_vjp(dy, cache)
        assert dx.dtype == dtype
        assert np.array_equal(dx, y * (dy - (dy * y).sum(axis=-1, keepdims=True)))
        assert np.array_equal(dy, before)

    def test_gelu_fixed_points(self):
        y, _ = F.gelu(np.array([0.0, 100.0, -100.0]))
        np.testing.assert_allclose(y, [0.0, 100.0, 0.0], atol=1e-12)

    def test_gelu_matches_gaussian_cdf_oracle(self, rng):
        from math import erf, sqrt

        x = rng.standard_normal(50)
        y, _ = F.gelu(x)
        expected = np.array([v * 0.5 * (1 + erf(v / sqrt(2))) for v in x])
        np.testing.assert_allclose(y, expected, atol=1e-14)

    def test_layer_norm_statistics(self, rng):
        """Normalized output (unit gain, zero shift) has mean 0, variance 1."""
        x = rng.standard_normal((20, 33))
        y, _ = F.layer_norm(x, tensor(np.ones(33)), tensor(np.zeros(33)))
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-6)


class TestPooling:
    def test_mean_pool_constant(self):
        y, _ = F.mean_pool(np.full((3, 4), 2.5), axis=0)
        np.testing.assert_allclose(y, np.full(4, 2.5))

    def test_mean_pool_simple(self):
        y, _ = F.mean_pool(np.array([1.0, 2.0, 3.0]), axis=0)
        assert y == 2.0

    def test_mean_pool_axis_out_of_range(self):
        with pytest.raises(ShapeError):
            F.mean_pool(np.zeros((2, 3)), axis=2)

    def test_adaptive_pool_identity(self, rng):
        x = rng.standard_normal((7, 3))
        y, _ = F.adaptive_mean_pool(x, 7)
        np.testing.assert_allclose(y, x)

    def test_adaptive_pool_windows(self):
        x = np.arange(6.0)[:, None]
        y, _ = F.adaptive_mean_pool(x, 3)
        np.testing.assert_allclose(y[:, 0], [0.5, 2.5, 4.5])

    def test_adaptive_pool_full_collapse(self, rng):
        x = rng.standard_normal((10, 4))
        y, _ = F.adaptive_mean_pool(x, 1)
        np.testing.assert_allclose(y[0], x.mean(axis=0))


def all_heads_attention_reference(x, params):
    """The attention forward over all heads at once, with batched matmuls."""
    q, c_q = F.linear(x, params.wq, params.bq)
    k, c_k = F.linear(x, params.wk, None)
    v, c_v = F.linear(x, params.wv, params.bv)
    qh, kh, vh = (_split_heads(t, params.heads) for t in (q, k, v))
    scale = 1.0 / math.sqrt(x.shape[1] // params.heads)
    scores = qh @ kh.transpose(0, 2, 1)
    scores *= scale
    attn, c_soft = F.softmax(scores, axis=-1, out=scores)
    y, c_o = F.linear(_merge_heads(attn @ vh), params.wo, params.bo)
    return y, (c_q, c_k, c_v, c_o, c_soft, qh, kh, vh, attn, scale, params.heads)


def all_heads_attention_vjp_reference(dy, cache):
    c_q, c_k, c_v, c_o, c_soft, qh, kh, vh, attn, scale, heads = cache
    dcontext = _split_heads(F.linear_vjp(dy, c_o), heads)
    dattn = dcontext @ vh.transpose(0, 2, 1)
    dvh = attn.transpose(0, 2, 1) @ dcontext
    dscores = F.softmax_vjp(dattn, c_soft)
    dscores *= scale
    dx = F.linear_vjp(_merge_heads(dscores @ kh), c_q)
    dx += F.linear_vjp(_merge_heads(dscores.transpose(0, 2, 1) @ qh), c_k)
    dx += F.linear_vjp(_merge_heads(dvh), c_v)
    return dx


class TestAttention:
    def test_single_token_attention_weight_is_one(self, rng):
        params = AttentionParams.allocate(6, 2).initialize(rng, 0.02)
        x = rng.standard_normal((1, 6))
        y, cache = multi_head_self_attention(x, params)
        # softmax over a single key must be exactly 1
        attn = cache[8]
        np.testing.assert_allclose(attn, 1.0)
        # output equals the value/output projection chain of the token
        v = x @ params.wv.data.T + params.bv.data
        expected = v @ params.wo.data.T + params.bo.data
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        params = AttentionParams.allocate(8, 4).initialize(rng, 0.02)
        _, cache = multi_head_self_attention(rng.standard_normal((5, 8)), params)
        attn = cache[8]
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(attn >= 0)

    def test_one_score_sized_buffer_forward_two_backward(self, rng):
        """The weights overwrite the scores; the backward scales its score gradient in place."""
        heads, n, dim = 2, 300, 8
        params = AttentionParams.allocate(dim, heads).initialize(rng, 0.02)
        x, dy = rng.standard_normal((n, dim)), rng.standard_normal((n, dim))
        _, cache = multi_head_self_attention(x, params)
        multi_head_self_attention_vjp(dy, cache)  # first-call gradient buffers
        scores_bytes = heads * n * n * 8
        forward_peak = traced_peak(lambda: multi_head_self_attention(x, params))
        backward_peak = traced_peak(lambda: multi_head_self_attention_vjp(dy, cache))
        assert forward_peak <= scores_bytes + 2**18, (forward_peak, scores_bytes)
        assert backward_peak <= 2 * scores_bytes + 2**18, (backward_peak, scores_bytes)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n, dim, heads", [(1470, 64, 4), (9, 12, 3)], ids=["default_8s", "small"])
    def test_per_head_bitwise_equal_to_all_heads(self, n, dim, heads, dtype):
        """Forward (with and without a cache), weights, input and parameter gradients."""
        rng = np.random.default_rng(11)
        x = rng.standard_normal((n, dim)).astype(dtype)
        dy = rng.standard_normal((n, dim)).astype(dtype)
        got, want = (AttentionParams.allocate(dim, heads, dtype=dtype)
                     .initialize(np.random.default_rng(3), 0.1) for _ in range(2))
        y, cache = multi_head_self_attention(x, got)
        y_ref, cache_ref = all_heads_attention_reference(x, want)
        assert y.dtype == dtype and y.tobytes() == y_ref.tobytes()
        assert cache[8].tobytes() == cache_ref[8].tobytes()
        y_free, no_cache = multi_head_self_attention(x, got, keep_cache=False)
        assert no_cache is None and y_free.tobytes() == y_ref.tobytes()
        dx = multi_head_self_attention_vjp(dy, cache)
        assert dx.tobytes() == all_heads_attention_vjp_reference(dy, cache_ref).tobytes()
        for g, w in zip(got.tensors(), want.tensors()):
            assert g.grad.tobytes() == w.grad.tobytes(), g.name

    def test_cache_free_forward_holds_one_head_of_scores(self, rng):
        heads, n, dim = 4, 300, 8
        params = AttentionParams.allocate(dim, heads).initialize(rng, 0.02)
        x = rng.standard_normal((n, dim))
        multi_head_self_attention(x, params, keep_cache=False)
        head_bytes = n * n * 8
        peak = traced_peak(lambda: multi_head_self_attention(x, params, keep_cache=False))
        assert peak <= head_bytes + 2**18, (peak, head_bytes)

    def test_backward_holds_two_heads_of_score_gradients(self, rng):
        heads, n, dim = 4, 300, 8
        params = AttentionParams.allocate(dim, heads).initialize(rng, 0.02)
        x, dy = rng.standard_normal((n, dim)), rng.standard_normal((n, dim))
        _, cache = multi_head_self_attention(x, params)
        multi_head_self_attention_vjp(dy, cache)  # first-call gradient buffers
        head_bytes = n * n * 8
        peak = traced_peak(lambda: multi_head_self_attention_vjp(dy, cache))
        assert peak <= 2 * head_bytes + 2**18, (peak, head_bytes)

    def test_single_head_matches_explicit_formula(self, rng):
        """N=3, D=4, one head: independent composition of the textbook formula.

        The formula's key bias is random: it adds q_i·b to every score in row i,
        which softmax ignores, so the model, which has none, matches any."""
        params = AttentionParams.allocate(4, 1).initialize(rng, 0.02)
        x = rng.standard_normal((3, 4))
        y, _ = multi_head_self_attention(x, params)

        q = x @ params.wq.data.T + params.bq.data
        k = x @ params.wk.data.T + rng.standard_normal(4)
        v = x @ params.wv.data.T + params.bv.data
        scores = q @ k.T / np.sqrt(4)
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        expected = (weights @ v) @ params.wo.data.T + params.bo.data
        np.testing.assert_allclose(y, expected, atol=1e-10)

    def test_indivisible_heads_rejected(self, rng):
        with pytest.raises(Exception):
            AttentionParams.allocate(6, 4)


class TestTransformerBlock:
    def test_zero_everything_maps_zero_to_zero(self, rng):
        params = TransformerBlockParams.allocate(4, 2).initialize(rng, 0.02)
        for t in params.tensors():
            t.data = np.zeros_like(t.data)
        y, _ = transformer_block(np.zeros((3, 4)), params)
        np.testing.assert_allclose(y, 0.0)

    def test_shape_preserved(self, rng):
        for n, d in ((1, 4), (7, 8), (12, 16)):
            params = TransformerBlockParams.allocate(d, 2).initialize(rng, 0.02)
            y, _ = transformer_block(rng.standard_normal((n, d)), params)
            assert y.shape == (n, d)


def gru_step(x, h, p):
    """Loop oracle: one GRU step written from the gate equations in gru.py."""
    z = 1.0 / (1.0 + np.exp(-(p.wz.data @ x + p.uz.data @ h + p.bz.data)))
    r = 1.0 / (1.0 + np.exp(-(p.wr.data @ x + p.ur.data @ h + p.br.data)))
    c = np.tanh(p.wh.data @ x + p.uh.data @ (r * h) + p.bh.data)
    return (1.0 - z) * h + z * c


def order_permuted_gru_reference(xs, p, reverse, dout):
    """A directional scan and its VJP that visit steps through a permutation, in
    place of reversing the sequence; both return (out, dxs) and accumulate into p."""
    from scipy.special import expit

    steps, hidden = xs.shape[0], p.hidden_size
    order = np.arange(steps)[::-1] if reverse else np.arange(steps)
    xz = xs @ p.wz.data.T + p.bz.data
    xr = xs @ p.wr.data.T + p.br.data
    xh = xs @ p.wh.data.T + p.bh.data
    h = np.zeros(hidden, dtype=xs.dtype)
    h_prev_all, z_all, r_all, rh_all, c_all, out = (
        np.zeros((steps, hidden), dtype=xs.dtype) for _ in range(6)
    )
    for i, t in enumerate(order):
        z = expit(xz[t] + p.uz.data @ h)
        r = expit(xr[t] + p.ur.data @ h)
        rh = r * h
        c = np.tanh(xh[t] + p.uh.data @ rh)
        h_prev_all[i], z_all[i], r_all[i], rh_all[i], c_all[i] = h, z, r, rh, c
        h = (1.0 - z) * h + z * c
        out[t] = h

    da_z, da_r, da_c = np.zeros_like(z_all), np.zeros_like(r_all), np.zeros_like(c_all)
    carry = np.zeros(hidden, dtype=xs.dtype)
    for i in range(steps - 1, -1, -1):
        t = order[i]
        dh = dout[t] + carry
        z, r, c, h_prev = z_all[i], r_all[i], c_all[i], h_prev_all[i]
        dc = dh * z
        dh_prev = dh * (1.0 - z)
        da_c[i] = dc * (1.0 - c * c)
        drh = p.uh.data.T @ da_c[i]
        dh_prev = dh_prev + drh * r
        da_z[i] = dh * (c - h_prev) * z * (1.0 - z)
        dh_prev = dh_prev + p.uz.data.T @ da_z[i]
        da_r[i] = drh * h_prev * r * (1.0 - r)
        dh_prev = dh_prev + p.ur.data.T @ da_r[i]
        carry = dh_prev
    xs_ordered = xs[order]
    p.wz.add_grad(da_z.T @ xs_ordered)
    p.wr.add_grad(da_r.T @ xs_ordered)
    p.wh.add_grad(da_c.T @ xs_ordered)
    p.uz.add_grad(da_z.T @ h_prev_all)
    p.ur.add_grad(da_r.T @ h_prev_all)
    p.uh.add_grad(da_c.T @ rh_all)
    p.bz.add_grad(da_z.sum(axis=0))
    p.br.add_grad(da_r.sum(axis=0))
    p.bh.add_grad(da_c.sum(axis=0))
    dxs = np.zeros_like(xs)
    dxs[order] = da_z @ p.wz.data + da_r @ p.wr.data + da_c @ p.wh.data
    return out, dxs


class TestGru:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("steps,width,hidden", [(1, 3, 4), (7, 3, 5), (98, 80, 64)])
    def test_bigru_bitwise_equal_to_order_permuted_scan(self, rng, dtype, steps, width, hidden):
        """Reversing the sequence runs the same multiplies and sums, in the same
        order, as scanning it through a reversed step permutation."""
        cells = [GruCellParams.allocate(width, hidden, prefix=tag).initialize(rng, 0.02)
                 for tag in ("f", "b")]
        for t in (t for cell in cells for t in cell.tensors()):
            t.data = (rng.standard_normal(t.shape) * 0.5).astype(dtype)
        refs = [GruCellParams(*(Tensor(t.data.copy(), name=t.name) for t in cell.tensors()))
                for cell in cells]
        xs = rng.standard_normal((steps, width)).astype(dtype)
        dout = rng.standard_normal((steps, 2 * hidden)).astype(dtype)

        out, cache = bigru(xs, *cells)
        dxs = bigru_vjp(dout, cache)
        out_f, dxs_f = order_permuted_gru_reference(xs, refs[0], False, dout[:, :hidden].copy())
        out_b, dxs_b = order_permuted_gru_reference(xs, refs[1], True, dout[:, hidden:].copy())
        dxs_f += dxs_b

        pairs = [(out, np.concatenate([out_f, out_b], axis=1)), (dxs, dxs_f)]
        for cell, ref in zip(cells, refs):
            pairs += [(t.grad, r.grad) for t, r in zip(cell.tensors(), ref.tensors())]
        assert len(pairs) == 2 + 18
        for got, want in pairs:
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got, want)

    def test_update_gate_forced_closed_carries_state(self, rng):
        """Large negative update-gate bias carries the zero initial state through."""
        params = GruCellParams.allocate(3, 4).initialize(rng, 0.02)
        params.bz.data = np.full(4, -50.0)
        out, _ = gru_sequence(rng.standard_normal((5, 3)), params)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_hidden_state_stays_in_unit_box(self, seed):
        local = np.random.default_rng(seed)
        params = GruCellParams.allocate(3, 5).initialize(local, 0.02)
        out, _ = gru_sequence(local.standard_normal((20, 3)) * 3, params)
        assert np.all(np.abs(out) <= 1.0)

    def test_sequence_matches_cell_scan(self, rng):
        params = GruCellParams.allocate(3, 4).initialize(rng, 0.02)
        xs = rng.standard_normal((6, 3))
        out, _ = gru_sequence(xs, params)
        h = np.zeros(4)
        for t in range(6):
            h = gru_step(xs[t], h, params)
            np.testing.assert_allclose(out[t], h, atol=1e-12)

    def test_bigru_shape(self, rng):
        fwd = GruCellParams.allocate(3, 5).initialize(rng, 0.02)
        bwd = GruCellParams.allocate(3, 5).initialize(rng, 0.02)
        out, _ = bigru(rng.standard_normal((9, 3)), fwd, bwd)
        assert out.shape == (9, 10)

    def test_bigru_single_step_equals_both_cells(self, rng):
        fwd = GruCellParams.allocate(3, 4).initialize(rng, 0.02)
        bwd = GruCellParams.allocate(3, 4).initialize(rng, 0.02)
        x = rng.standard_normal((1, 3))
        out, _ = bigru(x, fwd, bwd)
        hf = gru_step(x[0], np.zeros(4), fwd)
        hb = gru_step(x[0], np.zeros(4), bwd)
        np.testing.assert_allclose(out[0], np.concatenate([hf, hb]), atol=1e-12)

    def test_bigru_reversal_swaps_directions(self, rng):
        """bigru(reverse(x); A, B) = time-reversed bigru(x; B, A) with halves swapped."""
        a = GruCellParams.allocate(3, 4).initialize(rng, 0.02)
        b = GruCellParams.allocate(3, 4).initialize(rng, 0.02)
        xs = rng.standard_normal((7, 3))
        fwd_run, _ = bigru(xs[::-1].copy(), a, b)
        swapped, _ = bigru(xs, b, a)
        expected = np.concatenate([swapped[::-1, 4:], swapped[::-1, :4]], axis=1)
        np.testing.assert_allclose(fwd_run, expected, atol=1e-12)

    def test_empty_sequence_rejected(self, rng):
        fwd = GruCellParams.allocate(3, 4).initialize(rng, 0.02)
        bwd = GruCellParams.allocate(3, 4).initialize(rng, 0.02)
        with pytest.raises(ValidationError):
            bigru(np.zeros((0, 3)), fwd, bwd)

    def test_shape_mismatch_rejected(self, rng):
        params = GruCellParams.allocate(3, 4).initialize(rng, 0.02)
        with pytest.raises(ShapeError):
            gru_sequence(np.zeros((6, 5)), params)
        with pytest.raises(ShapeError):
            bigru(np.zeros((6, 5)), params, params)
