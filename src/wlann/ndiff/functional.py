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
from concurrent.futures import Executor

import numpy as np

from ..errors import ShapeError
from .tensor import Tensor

LAYER_NORM_EPS = 1e-8
# Output columns per forward im2col GEMM. BLAS keeps each column's bits at
# these widths; at a few hundred columns or fewer it takes other kernels.
FORWARD_CHUNK = 4096
MIN_TAIL = 1024
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
    """`fn(*args)`, run on the executor's thread from `start`, else in the caller's at `wait`.

    The job lets go of its arguments as it starts, so what only it holds
    (the spectrogram cache in `backward`) is freed when it ends, not when
    the `Job` is dropped, and not after `wait` has returned: a pool
    thread still holds its work item for a moment after setting its result.
    """

    def __init__(self, executor: Executor | None, fn, *args):
        self._executor = executor
        self._call = [fn, *args]
        self._future = None

    def start(self) -> None:
        if self._executor is not None:
            self._future = self._executor.submit(_call_once, self._call)

    def wait(self):
        return _call_once(self._call) if self._future is None else self._future.result()


def run_lanes(executor: Executor | None, fn, lanes: list[tuple]) -> None:
    """`fn(*lanes[0])` in the caller's thread while `fn(*lanes[1])`, if any, runs as a `Job`."""
    helper = Job(executor, fn, *lanes[1]) if len(lanes) > 1 else None
    if helper is not None:
        helper.start()
    fn(*lanes[0])
    if helper is not None:
        helper.wait()


# ---------------------------------------------------------------------------
# Convolution


def _tap_blocks(kernel: int, stride: int):
    """Split taps 0..K-1 into blocks j of `stride` taps: (j, first tap, width)."""
    return [(j, j * stride, min(stride, kernel - j * stride)) for j in range(-(-kernel // stride))]


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


def _column_chunks(l_out: int):
    """[start, end) column ranges of the forward GEMM: FORWARD_CHUNK wide, the last to the end.

    Starts sit on multiples of FORWARD_CHUNK and a tail under MIN_TAIL
    columns joins the chunk before it, so every column comes out of a
    GEMM tile laid out as in the whole-width product, bit for bit.
    """
    starts = list(range(0, l_out, FORWARD_CHUNK))
    if len(starts) > 1 and l_out - starts[-1] < MIN_TAIL:
        starts.pop()
    return list(zip(starts, starts[1:] + [l_out]))


def _split_chunks(chunks: list, executor: Executor | None) -> list[list]:
    """The caller's chunks, then the executor thread's: the even ones, then the odd ones.

    Without an executor, or with one chunk, the caller takes them all.
    """
    return [chunks] if executor is None or len(chunks) < 2 else [chunks[::2], chunks[1::2]]


def conv1d(x: np.ndarray, w: Tensor, b: Tensor, stride: int, executor: Executor | None = None):
    """Valid cross-correlation: x (C_in, L) * w (C_out, C_in, K) -> (C_out, L_out).

    The cache keeps the input in phase layout (C_in, s, n), sample m*s + r
    at [:, r, m], zero-padded to n = L_out + ceil(K/s) - 1 phases: the size
    of the input plus under one stride. The backward rebuilds the im2col
    columns from it instead of keeping them alive. With an executor and
    two or more column chunks, its thread builds and multiplies the odd
    chunks while the caller does the even ones, each in a column buffer
    the caller allocates.
    """
    c_in, length = x.shape
    c_out, c_in_w, kernel = w.shape
    if c_in != c_in_w:
        raise ShapeError(f"input has {c_in} channels but weight expects {c_in_w}")
    l_out = conv1d_output_length(length, kernel, stride)
    n = l_out + -(-kernel // stride) - 1
    take = min(length, n * stride)
    padded = np.zeros((c_in, n * stride), dtype=x.dtype)
    padded[:, :take] = x[:, :take]
    phases = padded.reshape(c_in, n, stride).transpose(0, 2, 1).copy()
    del padded
    rows = c_in * kernel
    w2 = w.data.reshape(c_out, rows)
    y = np.empty((c_out, l_out), dtype=np.result_type(w.data, phases, b.data))

    def multiply(chunks, buffer):
        for a, e in chunks:
            cols = _im2col(phases[:, :, a : e + n - l_out], kernel, stride, e - a,
                           out=buffer[: rows * (e - a)].reshape(rows, e - a))
            np.matmul(w2, cols, out=y[:, a:e])
            y[:, a:e] += b.data[:, None]

    lanes = _split_chunks(_column_chunks(l_out), executor)
    # The caller allocates the helper's buffer too, so the peak does not
    # depend on when the two threads run.
    buffers = [np.empty(rows * max(e - a for a, e in chunks), phases.dtype) for chunks in lanes]
    run_lanes(executor, multiply, list(zip(lanes, buffers)))
    cache = (length, phases, w, b, stride)
    return y, cache


def conv1d_vjp(dy: np.ndarray, cache, need_dx: bool = True, executor: Executor | None = None):
    """Accumulate the kernel and bias gradients; return the input gradient (None without `need_dx`).

    The input half runs first, so its `W.T @ dy` columns are freed before
    the im2col columns are rebuilt. With an executor, its thread takes the
    odd forward column chunks of `W.T @ dy`, then rebuilds and multiplies
    the first half of the input channels' rows for the kernel gradient,
    while the caller does the rest; each thread writes its part into a
    buffer the caller allocated. The parts side by side equal the whole
    product where BLAS gives each part the whole product's bits: at every
    layer of the shipped geometries, not at every small shape.
    """
    _, phases, w, b, stride = cache
    dx = _conv1d_input_grad(dy, cache, executor) if need_dx else None
    c_out, c_in, kernel = w.shape
    cols = np.empty((c_in * kernel, dy.shape[1]), dtype=phases.dtype)
    kernel_grad = np.empty((c_out, c_in * kernel), dtype=np.result_type(dy, phases))

    def multiply(c0, c1):
        k0, k1 = c0 * kernel, c1 * kernel
        block = _im2col(phases[c0:c1], kernel, stride, dy.shape[1], out=cols[k0:k1])
        np.matmul(dy, block.T, out=kernel_grad[:, k0:k1])

    half = c_in // 2
    run_lanes(executor, multiply, [(0, c_in)] if executor is None else [(half, c_in), (0, half)])
    w.add_grad(kernel_grad.reshape(w.shape))
    b.add_grad(dy.sum(axis=1))
    return dx


def _conv1d_input_grad(dy: np.ndarray, cache, executor: Executor | None) -> np.ndarray:
    """The gradient with respect to `x`: `W.T @ dy` scattered back to the input.

    The product runs over the forward's column chunks, split between the
    two threads as the forward splits them when there is an executor.
    """
    length, phases, w, _, stride = cache
    c_out, c_in, kernel = w.shape
    l_out = dy.shape[1]
    w_t = w.data.reshape(c_out, c_in * kernel).T
    dcols = np.empty((c_in * kernel, l_out), dtype=np.result_type(w.data, dy))

    def multiply(chunks):
        for a, e in chunks:
            np.matmul(w_t, dy[:, a:e], out=dcols[:, a:e])

    lanes = _split_chunks(_column_chunks(l_out), executor)
    run_lanes(executor, multiply, [(chunks,) for chunks in lanes])
    dcols = dcols.reshape(c_in, kernel, l_out)
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


# ---------------------------------------------------------------------------
# Affine


def linear(x: np.ndarray, w: Tensor, b: Tensor):
    """Affine map on the trailing axis: (..., D_in) -> (..., D_out)."""
    if x.shape[-1] != w.shape[1]:
        raise ShapeError(f"trailing dimension {x.shape[-1]} != weight input size {w.shape[1]}")
    y = x @ w.data.T + b.data
    return y, (x, w, b)


def linear_vjp(dy: np.ndarray, cache):
    x, w, b = cache
    flat_x = x.reshape(-1, x.shape[-1])
    flat_dy = dy.reshape(-1, dy.shape[-1])
    w.add_grad(flat_dy.T @ flat_x)
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


def softmax_vjp(dy: np.ndarray, cache):
    """y * (dy - sum(dy * y)), computed in one new buffer."""
    y, axis = cache
    dx = dy * y
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
