"""Forward/backward pairs for the network's primitive operations.

Convention: `op(...)` returns `(output, cache)`; `op_vjp(dout, cache)`
returns the gradient with respect to the activation input and
accumulates parameter gradients into the `Tensor.grad` buffers via
side effect. All derivatives are hand-derived closed forms; the
gradcheck module verifies every one of them against central finite
differences.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ShapeError
from .tensor import Tensor

LAYER_NORM_EPS = 1e-8
_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def conv1d_output_length(length: int, kernel: int, stride: int) -> int:
    if length < kernel:
        raise ShapeError(f"input length {length} shorter than kernel {kernel}")
    return (length - kernel) // stride + 1


# ---------------------------------------------------------------------------
# Convolution


def conv1d(x: np.ndarray, w: Tensor, b: Tensor, stride: int):
    """Valid cross-correlation: x (C_in, L) * w (C_out, C_in, K) -> (C_out, L_out)."""
    c_in, length = x.shape
    c_out, c_in_w, kernel = w.shape
    if c_in != c_in_w:
        raise ShapeError(f"input has {c_in} channels but weight expects {c_in_w}")
    l_out = conv1d_output_length(length, kernel, stride)
    windows = sliding_window_view(x, kernel, axis=1)[:, ::stride, :]  # (C_in, L_out, K)
    cols = windows.transpose(0, 2, 1).reshape(c_in * kernel, l_out)
    y = w.data.reshape(c_out, c_in * kernel) @ cols + b.data[:, None]
    cache = (x.shape, cols, w, b, stride)
    return y, cache


def conv1d_vjp(dy: np.ndarray, cache, need_dx: bool = True):
    x_shape, cols, w, b, stride = cache
    c_out, c_in, kernel = w.shape
    l_out = dy.shape[1]
    w.add_grad((dy @ cols.T).reshape(w.shape))
    b.add_grad(dy.sum(axis=1))
    if not need_dx:
        return None
    dcols = w.data.reshape(c_out, c_in * kernel).T @ dy  # (C_in*K, L_out)
    dwindows = dcols.reshape(c_in, kernel, l_out)
    dx = np.zeros(x_shape, dtype=dy.dtype)
    for k in range(kernel):
        dx[:, k : k + stride * l_out : stride] += dwindows[:, k, :]
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


def softmax(x: np.ndarray, axis: int = -1):
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    y = exp / exp.sum(axis=axis, keepdims=True)
    return y, (y, axis)


def softmax_vjp(dy: np.ndarray, cache):
    y, axis = cache
    return y * (dy - (dy * y).sum(axis=axis, keepdims=True))


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
    starts = (np.arange(out_len) * t_in) // out_len
    ends = -(-(np.arange(1, out_len + 1) * t_in) // out_len)  # ceil division
    y = np.stack([x[s:e].mean(axis=0) for s, e in zip(starts, ends)])
    return y, (x.shape, starts, ends)


def adaptive_mean_pool_vjp(dy: np.ndarray, cache):
    x_shape, starts, ends = cache
    dx = np.zeros(x_shape, dtype=dy.dtype)
    for t, (s, e) in enumerate(zip(starts, ends)):
        dx[s:e] += dy[t] / (e - s)
    return dx
