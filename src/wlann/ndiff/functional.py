"""Forward/backward pairs for the network's primitive operations.

Convention: `op(...)` returns `(output, cache)`; `op_vjp(dout, cache)`
returns the gradient with respect to the activation input and
accumulates parameter gradients into the `Tensor.grad` buffers via
side effect. All derivatives are hand-derived closed forms; the
gradcheck module verifies every one of them against central finite
differences.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import Executor
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ShapeError
from .tensor import Tensor

LAYER_NORM_EPS = 1e-8
# Python floats, not numpy scalars: under NEP 50 a np.float64 operand
# would promote float32 activations to float64.
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def conv1d_output_length(length: int, kernel: int, stride: int) -> int:
    if length < kernel:
        raise ShapeError(f"input length {length} shorter than kernel {kernel}")
    return (length - kernel) // stride + 1


# ---------------------------------------------------------------------------
# Jobs


def _call_once(call: list):
    fn, *args = call
    call.clear()
    return fn(*args)


class Job:
    """`fn(*args)`, queued on the executor at `start`; `wait` returns its result.

    When the waiting thread is one of the executor's own workers and no
    worker has started the job, it runs the job itself, once. So a job may
    go to the pool its own caller runs on, even a one-thread pool, without
    deadlock. Any other thread waits for the executor, so a dedicated
    helper's schedule does not depend on when its thread wakes. Without an
    executor the job runs at `wait`. Either way `fn` computes the same values.

    The job lets go of its arguments as it starts, so what only it holds
    is freed when it ends, not when the `Job` is dropped, nor after `wait`
    returns: a pool thread holds its work item a moment after the result.
    """

    def __init__(self, executor: Executor | None, fn, *args):
        self._executor = executor
        self._call = [fn, *args]
        self._future = None

    def start(self) -> None:
        if self._executor is not None:
            self._future = self._executor.submit(_call_once, self._call)

    def wait(self):
        if self._future is None or (self._on_own_worker() and self._future.cancel()):
            return _call_once(self._call)
        return self._future.result()

    def _on_own_worker(self) -> bool:
        # `ThreadPoolExecutor` keeps its worker threads in `_threads`; another executor never lends.
        return threading.current_thread() in getattr(self._executor, "_threads", ())


def run_lanes(executor: Executor | None, fn, lanes: list[tuple]) -> None:
    """`fn(*lanes[0])` in the caller's thread while `fn(*lanes[1])` runs as a `Job`."""
    helper = Job(executor, fn, *lanes[1])
    helper.start()
    fn(*lanes[0])
    helper.wait()


# ---------------------------------------------------------------------------
# Convolution: im2col GEMMs, or overlap-save FFT blocks where `uses_fft` holds

FFT_SIZE = 64
GRAD_BLOCK_BYTES = 4 << 20  # per-bin products held at once by the FFT kernel gradient
SPECTRUM_BLOCK_BYTES = 1 << 20  # output rows of a kernel spectrum transformed at once


def _tap_blocks(kernel: int, stride: int):
    """Split taps 0..K-1 into blocks j of `stride` taps: (j, first tap, width)."""
    return [(j, j * stride, min(stride, kernel - j * stride)) for j in range(-(-kernel // stride))]


def _fft_blocks(kernel: int, stride: int, l_out: int) -> tuple[int, int, int]:
    """(taps per polyphase channel, outputs per FFT block, blocks) of the FFT path."""
    taps = -(-kernel // stride)
    step = FFT_SIZE - taps + 1
    return taps, step, -(-l_out // step)


def uses_fft(c_in: int, kernel: int, stride: int, l_out: int) -> bool:
    """Whether `conv1d` takes the FFT path. Its per-bin GEMMs need many polyphase channels
    (C_in*s) and blocks. With the kernel spectrum built once, in float32, forward plus VJP
    took 0.31 of im2col's time at 256 channels and 142 blocks and 0.44 at 512 and 35, but
    2.4 times it at 5 channels and 1.15 at 960 channels and 9 blocks. Below 30 blocks the
    layers (at 1 s: 18 blocks or fewer, under 2 ms to save each) keep im2col's bits."""
    taps, step, blocks = _fft_blocks(kernel, stride, l_out)
    return c_in * stride >= 32 and blocks >= 30 and taps - 1 <= step


def conv1d(x: np.ndarray, w: Tensor, b: Tensor, stride: int):
    """Valid cross-correlation: x (C_in, L) * w (C_out, C_in, K) -> (C_out, L_out)."""
    if x.shape[0] != w.shape[1]:
        raise ShapeError(f"input has {x.shape[0]} channels but weight expects {w.shape[1]}")
    l_out = conv1d_output_length(x.shape[1], w.shape[2], stride)
    path = conv1d_fft if uses_fft(x.shape[0], w.shape[2], stride, l_out) else _conv1d_im2col
    return path(x, w, b, stride)


def conv1d_vjp(dy: np.ndarray, cache, need_dx: bool = True, executor: Executor | None = None,
               buffers: dict | None = None, joins: list | None = None):
    """Accumulate the kernel and bias gradients; return the input gradient (None without `need_dx`).

    With an executor, the kernel gradient runs on its thread while the caller computes the
    input gradient; without one, after it. The bits are the same either way. That thread writes
    into buffers the caller holds, so the peak does not depend on timing: the ones `buffers`
    keeps per weight for every later call, else new ones. Given `joins`, the kernel gradient's
    join (await it, add it to `w.grad`) is appended there for the caller to run, not run.
    """
    length, saved, w, b, stride = cache
    _, c_in, kernel = w.shape
    held = {} if buffers is None else buffers

    def lend(role, shape, dtype):  # None without an executor: the pass allocates its own
        if executor is not None and (w, role) not in held:
            held[w, role] = np.empty(shape, dtype)
        return held.get((w, role))

    w_grad = lend("grad", w.shape, np.result_type(dy, w.data))
    if np.iscomplexobj(saved):  # the FFT path's input spectra
        spec = _block_spectra(dy, *_fft_blocks(kernel, stride, dy.shape[1])[1:])
        rows = max(hi - lo for lo, hi in _row_blocks(w.shape[0], saved))
        scratch = lend("products", (spec.shape[0], rows, saved.shape[1]), spec.dtype)
        weight = Job(executor, _fft_kernel_grad, spec, saved, w.shape, stride, w_grad, scratch)
        input_grad = partial(_fft_input_grad, spec, w, length, stride, dy.shape[1])
    else:
        scratch = lend("columns", (c_in * kernel, dy.shape[1]), saved.dtype)
        weight = Job(executor, _im2col_kernel_grad, dy, saved, w.shape, stride, w_grad, scratch)
        input_grad = partial(_im2col_input_grad, dy, saved, w, length, stride)
    weight.start()
    dx = input_grad() if need_dx else None
    b.add_grad(dy.sum(axis=1))
    if joins is None:
        w.add_grad(weight.wait())
    else:
        joins.append(lambda: w.add_grad(weight.wait()))
    return dx


def _im2col(phases: np.ndarray, kernel: int, stride: int, l_out: int, out=None) -> np.ndarray:
    """(C_in, s, n) phase layout -> (C_in*K, L_out) columns, one block copy per tap block.

    Tap k = j*s + r of output l reads sample (l + j)*s + r = phases[:, r, l + j].
    The columns are written into `out` if given, else into a new array.
    """
    c_in = phases.shape[0]
    if out is None:
        out = np.empty((c_in * kernel, l_out), dtype=phases.dtype)
    cols = out.reshape(c_in, kernel, l_out)
    for j, k0, width in _tap_blocks(kernel, stride):
        cols[:, k0 : k0 + width] = phases[:, :width, j : j + l_out]
    return out


def _conv1d_im2col(x: np.ndarray, w: Tensor, b: Tensor, stride: int):
    """`W @ columns`. The cache keeps the input in phase layout (C_in, s, n), sample m*s + r
    at [:, r, m], zero-padded to n = L_out + ceil(K/s) - 1; the backward rebuilds the columns."""
    c_in, length = x.shape
    c_out, _, kernel = w.shape
    l_out = conv1d_output_length(length, kernel, stride)
    n = l_out + -(-kernel // stride) - 1
    take = min(length, n * stride)
    phases = np.pad(x[:, :take], ((0, 0), (0, n * stride - take)))
    phases = phases.reshape(c_in, n, stride).transpose(0, 2, 1).copy()
    y = w.data.reshape(c_out, c_in * kernel) @ _im2col(phases, kernel, stride, l_out)
    y += b.data[:, None]
    return y, (length, phases, w, b, stride)


def _im2col_kernel_grad(dy, phases, shape, stride, out=None, cols=None) -> np.ndarray:
    """`dy @ columns.T` into `out`, the columns rebuilt into `cols` (each new if None)."""
    c_out, c_in, kernel = shape
    cols = _im2col(phases, kernel, stride, dy.shape[1], out=cols)
    out = np.empty(shape, np.result_type(dy, cols)) if out is None else out
    np.matmul(dy, cols.T, out=out.reshape(c_out, c_in * kernel))
    return out


def _im2col_input_grad(dy, phases, w, length, stride) -> np.ndarray:
    """`W.T @ dy` scattered back to the input."""
    c_out, c_in, kernel = w.shape
    l_out = dy.shape[1]
    dcols = (w.data.reshape(c_out, c_in * kernel).T @ dy).reshape(c_in, kernel, l_out)
    # Scatter back block by block: each sample m*s + r gets its taps j*s + r
    # in ascending j, i.e. ascending k, the order a per-tap loop would use.
    dphases = np.zeros(phases.shape, dtype=dy.dtype)
    for j, k0, width in _tap_blocks(kernel, stride):
        dphases[:, :width, j : j + l_out] += dcols[:, k0 : k0 + width]
    del dcols
    dx = np.zeros((c_in, length), dtype=dy.dtype)
    take = min(length, dphases.shape[2] * stride)
    dx[:, :take] = dphases.transpose(0, 2, 1).reshape(c_in, -1)[:, :take]
    return dx


def conv1d_fft(x: np.ndarray, w: Tensor, b: Tensor, stride: int):
    """`conv1d` on the FFT path, at any geometry whose taps fit one block: a stride-1 layer over
    C_in*s polyphase channels (c = i*s + r holds samples m*s + r of channel i) with ceil(K/s)
    taps, one GEMM per frequency bin over all FFT_SIZE-phase blocks. `scipy.fft` keeps the
    input's precision and one worker, so bits repeat. The cache keeps the input's spectra.
    """
    from scipy.fft import irfft, rfft

    c_in, length = x.shape
    c_out, _, kernel = w.shape
    l_out = conv1d_output_length(length, kernel, stride)
    taps, step, blocks = _fft_blocks(kernel, stride, l_out)
    if taps - 1 > step:
        raise ShapeError(f"{taps} taps per phase do not fit {FFT_SIZE}-point blocks")
    read = (l_out - 1) * stride + kernel
    padded = np.pad(x[:, :read], ((0, 0), (0, ((blocks - 1) * step + FFT_SIZE) * stride - read)))
    # frames[i, t, r, k] = padded[i, (t*step + k)*s + r]: phase k of block t.
    frames = sliding_window_view(padded.reshape(c_in, -1, stride), FFT_SIZE, axis=1)[:, ::step]
    x_spec = rfft(frames.transpose(3, 0, 2, 1), axis=0).reshape(-1, c_in * stride, blocks)
    del frames, padded
    # Correlation multiplies by the conjugated kernel spectrum; the first
    # `step` samples of each block are free of wrap-around.
    frames = irfft(np.matmul(weight_spectrum(w, stride), x_spec), FFT_SIZE, axis=0)[:step]
    y = frames.transpose(1, 2, 0).reshape(c_out, blocks * step)[:, :l_out] + b.data[:, None]
    return y, (length, x_spec, w, b, stride)


def weight_spectrum(w: Tensor, stride: int) -> np.ndarray:
    """`_kernel_spectrum(w.data, stride)`, memoized in `w.spectrum`.

    The memo is reused only while the stride and the weight's shape, dtype and
    bytes equal its snapshot (bytes, not values: -0.0 == 0.0), so an in-place
    update, a restore or a new `data` rebuilds it. The rebuild holds the weight's
    lock: threads sharing a weight build its spectrum once, and no other weight waits.
    """
    with w.lock:
        memo, data, bits = w.spectrum, w.data, f"u{w.data.dtype.itemsize}"
        if (memo is None or memo[0] != stride or memo[1].dtype != data.dtype
                or not np.array_equal(memo[1].view(bits), data.view(bits))):
            memo = w.spectrum = None  # the stale spectrum is freed before the new one is built
            snapshot = data.copy()
            w.spectrum = (stride, snapshot, _kernel_spectrum(snapshot, stride))
        return w.spectrum[2]


def _kernel_spectrum(w: np.ndarray, stride: int) -> np.ndarray:
    """Conjugated spectra (bins, C_out, C_in*s) of the polyphase taps w[o, i, j*s + r] over j.

    Output channels are transformed `SPECTRUM_BLOCK_BYTES` of spectra at a time, straight into
    the result, so the build holds one spectrum and small blocks, not the padded taps and two
    whole spectra. Each tap sequence has its own transform, so the bits do not depend on the
    block.
    """
    from scipy.fft import rfft

    c_out, c_in, kernel = w.shape
    taps = -(-kernel // stride)
    w_spec = np.empty((FFT_SIZE // 2 + 1, c_out, c_in * stride), np.result_type(w, np.complex64))
    rows = max(1, SPECTRUM_BLOCK_BYTES // (w_spec.nbytes // c_out))
    for lo in range(0, c_out, rows):
        block = w[lo : lo + rows]
        w_taps = np.pad(block, ((0, 0), (0, 0), (0, taps * stride - kernel)))
        spec = rfft(w_taps.reshape(len(block), c_in, taps, stride).transpose(0, 1, 3, 2), FFT_SIZE)
        np.conjugate(spec.reshape(len(block), c_in * stride, -1).transpose(2, 0, 1),
                     out=w_spec[:, lo : lo + rows])
    return w_spec


def _block_spectra(dy: np.ndarray, step: int, blocks: int) -> np.ndarray:
    """Conjugated spectra (bins, C_out, blocks) of `dy` in `step`-sample blocks, zero-padded."""
    from scipy.fft import rfft

    c_out, l_out = dy.shape
    padded = np.pad(dy, ((0, 0), (0, blocks * step - l_out)))
    frames = np.zeros((FFT_SIZE, c_out, blocks), dtype=dy.dtype)
    frames[:step] = padded.reshape(c_out, blocks, step).transpose(2, 0, 1)
    spec = rfft(frames, axis=0)
    return np.conjugate(spec, out=spec)


def _row_blocks(c_out: int, x_spec: np.ndarray) -> list[tuple[int, int]]:
    """Even blocks of output channels whose per-bin products against `x_spec` take at most
    GRAD_BLOCK_BYTES where two rows fit. Numpy's product of two or more rows keeps the bits
    of the whole GEMM; one row does not."""
    row_bytes = x_spec.nbytes // x_spec.shape[2]
    parts = max(1, min(c_out // 2, -(-c_out * row_bytes // GRAD_BLOCK_BYTES)))
    edges = [c_out * k // parts for k in range(parts + 1)]
    return list(zip(edges, edges[1:]))


def _fft_kernel_grad(dy_spec, x_spec, shape, stride, out=None, products=None) -> np.ndarray:
    """The first ceil(K/s) lags of Σ over blocks of conj(DY)·X are the kernel gradient, into
    `out`. Built per block of output channels, whose per-bin products go into `products`
    (each new if None), so no full-size spectrum or 64-lag transform is held at once."""
    from scipy.fft import irfft

    c_out, c_in, kernel = shape
    taps = -(-kernel // stride)
    out = np.empty(shape, x_spec.real.dtype) if out is None else out
    for lo, hi in _row_blocks(c_out, x_spec):
        part = np.matmul(dy_spec[:, lo:hi], x_spec.transpose(0, 2, 1),
                         out=None if products is None else products[:, : hi - lo])
        # lags[o, i*s + r, j] is the gradient of w[lo + o, i, j*s + r].
        lags = irfft(np.ascontiguousarray(part.transpose(1, 2, 0)), FFT_SIZE)[..., :taps]
        lags = lags.reshape(hi - lo, c_in, stride, taps).transpose(0, 1, 3, 2)
        out[lo:hi] = lags.reshape(hi - lo, c_in, -1)[..., :kernel]
    return out


def _fft_input_grad(dy_spec, w: Tensor, length, stride, l_out) -> np.ndarray:
    """Each block's full convolution of `dy` with the kernel, overlap-added."""
    from scipy.fft import irfft

    _, c_in, kernel = w.shape
    taps, step, blocks = _fft_blocks(kernel, stride, l_out)
    # kernelᵀ · conj(DY) per bin is the conjugate of the wanted spectrum.
    spec = np.matmul(weight_spectrum(w, stride).transpose(0, 2, 1), dy_spec)
    np.conjugate(spec, out=spec)
    frames = irfft(spec, FFT_SIZE, axis=0).reshape(FFT_SIZE, c_in, stride, blocks)
    del spec
    # samples[i, t, q, r] is input sample (t*step + q)*s + r.
    samples = np.zeros((c_in, blocks + 1, step, stride), dtype=frames.dtype)
    samples[:, :blocks] = frames[:step].transpose(1, 3, 0, 2)
    samples[:, 1:, : taps - 1] += frames[step:].transpose(1, 3, 0, 2)
    del frames
    dx = np.zeros((c_in, length), dtype=samples.dtype)
    read = min(length, (l_out - 1) * stride + kernel)
    dx[:, :read] = samples.reshape(c_in, -1)[:, :read]
    return dx


# ---------------------------------------------------------------------------
# Affine


def linear(x: np.ndarray, w: Tensor, b: Tensor | None):
    """Affine map on the trailing axis: (..., D_in) -> (..., D_out); a None `b` adds no bias."""
    if x.shape[-1] != w.shape[1]:
        raise ShapeError(f"trailing dimension {x.shape[-1]} != weight input size {w.shape[1]}")
    y = x @ w.data.T
    if b is not None:
        y += b.data
    return y, (x, w, b)


def linear_vjp(dy: np.ndarray, cache):
    x, w, b = cache
    flat_x = x.reshape(-1, x.shape[-1])
    flat_dy = dy.reshape(-1, dy.shape[-1])
    w.add_grad(flat_dy.T @ flat_x)
    if b is not None:
        b.add_grad(flat_dy.sum(axis=0))
    return (flat_dy @ w.data).reshape(x.shape)


# ---------------------------------------------------------------------------
# Elementwise activations


def gelu(x: np.ndarray):
    """Gaussian-CDF form: x * Phi(x), with the exact erf evaluation."""
    from scipy.special import erf

    cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    return x * cdf, (x, cdf)


def gelu_vjp(dy: np.ndarray, cache):
    x, cdf = cache
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return dy * (cdf + x * pdf)


def sigmoid(x: np.ndarray):
    from scipy.special import expit

    y = expit(x)
    return y, y


def sigmoid_vjp(dy: np.ndarray, cache):
    y = cache
    return dy * y * (1.0 - y)


# ---------------------------------------------------------------------------
# Axiswise operations


def softmax(x: np.ndarray, axis: int = -1, out: np.ndarray | None = None):
    """Shift, exponentiate and normalize in one buffer: `out` if given (it may be `x`), else new."""
    y = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    return y, (y, axis)


def softmax_vjp(dy: np.ndarray, cache, out: np.ndarray | None = None):
    """y * (dy - sum(dy * y)), computed in one buffer: `out` if given (not `dy`), else new."""
    y, axis = cache
    dx = np.multiply(dy, y, out=out)
    rows = dx.sum(axis=axis, keepdims=True)
    np.subtract(dy, rows, out=dx)
    dx *= y
    return dx


def layer_norm(x: np.ndarray, gain: Tensor, shift: Tensor):
    """Normalize the trailing axis to zero mean / unit variance, then scale and shift."""
    if x.shape[-1] != gain.shape[0]:
        raise ShapeError(f"trailing dimension {x.shape[-1]} != layer-norm size {gain.shape[0]}")
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    normalized = centered * inv_std
    y = normalized * gain.data + shift.data
    return y, (normalized, inv_std, gain, shift)


def layer_norm_vjp(dy: np.ndarray, cache):
    normalized, inv_std, gain, shift = cache
    flat_dy = dy.reshape(-1, dy.shape[-1])
    flat_norm = normalized.reshape(-1, dy.shape[-1])
    gain.add_grad((flat_dy * flat_norm).sum(axis=0))
    shift.add_grad(flat_dy.sum(axis=0))
    dnorm = dy * gain.data
    mean_dnorm = dnorm.mean(axis=-1, keepdims=True)
    mean_dnorm_norm = (dnorm * normalized).mean(axis=-1, keepdims=True)
    return inv_std * (dnorm - mean_dnorm - normalized * mean_dnorm_norm)


def mean_pool(x: np.ndarray, axis: int):
    """Arithmetic mean over one axis; the axis is removed."""
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"axis {axis} out of range for shape {x.shape}")
    axis = axis % x.ndim
    return x.mean(axis=axis), (x.shape, axis)


def mean_pool_vjp(dy: np.ndarray, cache):
    shape, axis = cache
    n = shape[axis]
    return np.broadcast_to(np.expand_dims(dy / n, axis), shape).copy()


def adaptive_mean_pool(x: np.ndarray, out_len: int):
    """Adaptive average pooling along axis 0 of a (T_in, C) array.

    Output step t averages rows [floor(t*T_in/out), ceil((t+1)*T_in/out));
    windows tile the input and may share a boundary row.
    """
    t_in = x.shape[0]
    if out_len < 1:
        raise ShapeError(f"pooled length must be >= 1, got {out_len}")
    # Python ints, so the backward division keeps the gradient's dtype.
    starts = ((np.arange(out_len) * t_in) // out_len).tolist()
    ends = (-(-(np.arange(1, out_len + 1) * t_in) // out_len)).tolist()  # ceil division
    y = np.stack([x[s:e].mean(axis=0) for s, e in zip(starts, ends)])
    return y, (x.shape, starts, ends)


def adaptive_mean_pool_vjp(dy: np.ndarray, cache):
    x_shape, starts, ends = cache
    dx = np.zeros(x_shape, dtype=dy.dtype)
    for t, (s, e) in enumerate(zip(starts, ends)):
        dx[s:e] += dy[t] / (e - s)
    return dx
