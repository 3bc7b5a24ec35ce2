"""Gated recurrent units: a forward scan and the bidirectional stack over it.

Gate equations, with W* acting on the input and U* on the hidden state:

    z = sigmoid(Wz x + Uz h + bz)
    r = sigmoid(Wr x + Ur h + br)
    c = tanh(Wh x + Uh (r * h) + bh)
    h' = (1 - z) * h + z * c

The candidate is a convex mix against the carried state, so hidden
values stay in [-1, 1] whenever the initial state does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError, ValidationError
from . import functional as F
from .tensor import ParamGroup, Tensor, fan_in_normal, init


@dataclass
class GruCellParams(ParamGroup):
    """Six weight matrices and three bias vectors of one GRU cell."""

    wz: Tensor = init(fan_in_normal)
    uz: Tensor = init(fan_in_normal)
    bz: Tensor = init(0.0)
    wr: Tensor = init(fan_in_normal)
    ur: Tensor = init(fan_in_normal)
    br: Tensor = init(0.0)
    wh: Tensor = init(fan_in_normal)
    uh: Tensor = init(fan_in_normal)
    bh: Tensor = init(0.0)

    @classmethod
    def allocate(cls, input_size: int, hidden_size: int, prefix: str = "gru", dtype=np.float64):
        def empty(shape, tag):
            return Tensor(np.empty(shape, dtype), name=f"{prefix}.{tag}")

        w, u = (hidden_size, input_size), (hidden_size, hidden_size)
        return cls(
            wz=empty(w, "wz"), uz=empty(u, "uz"), bz=empty(hidden_size, "bz"),
            wr=empty(w, "wr"), ur=empty(u, "ur"), br=empty(hidden_size, "br"),
            wh=empty(w, "wh"), uh=empty(u, "uh"), bh=empty(hidden_size, "bh"),
        )

    @property
    def hidden_size(self) -> int:
        return self.wz.shape[0]

    @property
    def input_size(self) -> int:
        return self.wz.shape[1]


def gru_sequence(xs: np.ndarray, params: GruCellParams):
    """Scan a (T, D_in) sequence forward from a zero initial state; returns (T, H).

    Input projections are batched outside the recurrence; only the
    hidden-to-hidden work runs step by step. The output is a view of the
    cached states, so callers must not write to it.
    """
    from scipy.special import expit

    if xs.ndim != 2:
        raise ShapeError(f"gru sequence expects (T, D_in), got {xs.shape}")
    if xs.shape[1] != params.input_size:
        raise ShapeError(f"gru sequence expects input width {params.input_size}, got {xs.shape[1]}")
    steps, hidden = xs.shape[0], params.hidden_size

    xz, c_z = F.linear(xs, params.wz, params.bz)
    xr, c_r = F.linear(xs, params.wr, params.br)
    xh, c_h = F.linear(xs, params.wh, params.bh)

    # Row 0 is the zero initial state; row t + 1 is the output of step t.
    states = np.zeros((steps + 1, hidden), dtype=xs.dtype)
    z_all, r_all, c_all = np.zeros((3, steps, hidden), dtype=xs.dtype)

    for t in range(steps):
        h = states[t]
        z = expit(xz[t] + params.uz.data @ h)
        r = expit(xr[t] + params.ur.data @ h)
        c = np.tanh(xh[t] + params.uh.data @ (r * h))
        z_all[t], r_all[t], c_all[t] = z, r, c
        states[t + 1] = (1.0 - z) * h + z * c

    return states[1:], (c_z, c_r, c_h, states, z_all, r_all, c_all, params)


def gru_sequence_vjp(dout: np.ndarray, cache):
    c_z, c_r, c_h, states, z_all, r_all, c_all, p = cache
    h_prev_all = states[:-1]
    da_z, da_r, da_c = np.zeros((3, *z_all.shape), dtype=z_all.dtype)

    carry = np.zeros(p.hidden_size, dtype=states.dtype)
    for t in range(len(z_all) - 1, -1, -1):
        dh = dout[t] + carry
        z, r, c, h_prev = z_all[t], r_all[t], c_all[t], h_prev_all[t]

        dc = dh * z
        dh_prev = dh * (1.0 - z)
        da_c[t] = dc * (1.0 - c * c)
        drh = p.uh.data.T @ da_c[t]
        dh_prev = dh_prev + drh * r
        da_z[t] = dh * (c - h_prev) * z * (1.0 - z)
        dh_prev = dh_prev + p.uz.data.T @ da_z[t]
        da_r[t] = drh * h_prev * r * (1.0 - r)
        dh_prev = dh_prev + p.ur.data.T @ da_r[t]
        carry = dh_prev

    p.uz.add_grad(da_z.T @ h_prev_all)
    p.ur.add_grad(da_r.T @ h_prev_all)
    p.uh.add_grad(da_c.T @ (r_all * h_prev_all))

    dxs = F.linear_vjp(da_z, c_z)
    dxs += F.linear_vjp(da_r, c_r)
    dxs += F.linear_vjp(da_c, c_h)
    return dxs


def bigru(xs: np.ndarray, forward: GruCellParams, backward: GruCellParams):
    """Bidirectional scan: row t is [forward_h ; backward_h] of step t. The backward
    cell scans the reversed sequence, and its output is flipped back."""
    if xs.ndim != 2 or xs.shape[0] < 1:
        raise ValidationError(f"bigru needs a nonempty (T, D_in) sequence, got shape {xs.shape}")
    out_f, cache_f = gru_sequence(xs, forward)
    out_b, cache_b = gru_sequence(xs[::-1].copy(), backward)
    return np.concatenate([out_f, out_b[::-1]], axis=1), (cache_f, cache_b, forward.hidden_size)


def bigru_vjp(dout: np.ndarray, cache):
    cache_f, cache_b, hidden = cache
    dxs = gru_sequence_vjp(dout[:, :hidden].copy(), cache_f)
    dxs += gru_sequence_vjp(dout[::-1, hidden:].copy(), cache_b)[::-1]
    return dxs
