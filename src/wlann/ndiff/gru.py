"""Gated recurrent units: a directional scan and the bidirectional stack over it.

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
from typing import Iterator

import numpy as np

from ..errors import ShapeError, ValidationError
from .tensor import Tensor, scaled_normal


@dataclass
class GruCellParams:
    """Six weight matrices and three bias vectors of one GRU cell."""

    wz: Tensor
    uz: Tensor
    bz: Tensor
    wr: Tensor
    ur: Tensor
    br: Tensor
    wh: Tensor
    uh: Tensor
    bh: Tensor

    @classmethod
    def create(cls, input_size: int, hidden_size: int, rng: np.random.Generator, prefix: str = "gru"):
        def in_weight(tag):
            return Tensor(scaled_normal(rng, (hidden_size, input_size), input_size), name=f"{prefix}.w{tag}")

        def hid_weight(tag):
            return Tensor(scaled_normal(rng, (hidden_size, hidden_size), hidden_size), name=f"{prefix}.u{tag}")

        def bias(tag):
            return Tensor(np.zeros(hidden_size), name=f"{prefix}.b{tag}")

        return cls(
            wz=in_weight("z"), uz=hid_weight("z"), bz=bias("z"),
            wr=in_weight("r"), ur=hid_weight("r"), br=bias("r"),
            wh=in_weight("h"), uh=hid_weight("h"), bh=bias("h"),
        )

    @property
    def hidden_size(self) -> int:
        return self.wz.shape[0]

    @property
    def input_size(self) -> int:
        return self.wz.shape[1]

    def tensors(self) -> Iterator[Tensor]:
        yield from (self.wz, self.uz, self.bz, self.wr, self.ur, self.br, self.wh, self.uh, self.bh)


def gru_sequence(xs: np.ndarray, params: GruCellParams, reverse: bool = False):
    """Scan a (T, D_in) sequence from a zero initial state; returns (T, H).

    Input projections are batched outside the recurrence; only the
    hidden-to-hidden work runs step by step.
    """
    from scipy.special import expit

    if xs.ndim != 2:
        raise ShapeError(f"gru sequence expects (T, D_in), got {xs.shape}")
    if xs.shape[1] != params.input_size:
        raise ShapeError(f"gru sequence expects input width {params.input_size}, got {xs.shape[1]}")
    steps = xs.shape[0]
    hidden = params.hidden_size
    order = np.arange(steps)[::-1] if reverse else np.arange(steps)

    xz = xs @ params.wz.data.T + params.bz.data
    xr = xs @ params.wr.data.T + params.br.data
    xh = xs @ params.wh.data.T + params.bh.data

    h = np.zeros(hidden, dtype=xs.dtype)
    h_prev_all = np.zeros((steps, hidden), dtype=xs.dtype)
    z_all = np.zeros((steps, hidden), dtype=xs.dtype)
    r_all = np.zeros((steps, hidden), dtype=xs.dtype)
    rh_all = np.zeros((steps, hidden), dtype=xs.dtype)
    c_all = np.zeros((steps, hidden), dtype=xs.dtype)
    out = np.zeros((steps, hidden), dtype=xs.dtype)

    for i, t in enumerate(order):
        z = expit(xz[t] + params.uz.data @ h)
        r = expit(xr[t] + params.ur.data @ h)
        rh = r * h
        c = np.tanh(xh[t] + params.uh.data @ rh)
        h_prev_all[i], z_all[i], r_all[i], rh_all[i], c_all[i] = h, z, r, rh, c
        h = (1.0 - z) * h + z * c
        out[t] = h

    cache = (xs, order, h_prev_all, z_all, r_all, rh_all, c_all, params)
    return out, cache


def gru_sequence_vjp(dout: np.ndarray, cache):
    xs, order, h_prev_all, z_all, r_all, rh_all, c_all, p = cache
    steps = xs.shape[0]
    da_z = np.zeros_like(z_all)
    da_r = np.zeros_like(r_all)
    da_c = np.zeros_like(c_all)

    carry = np.zeros(p.hidden_size, dtype=xs.dtype)
    for i in range(steps - 1, -1, -1):
        t = order[i]
        dh = dout[t] + carry
        z, r, rh, c, h_prev = z_all[i], r_all[i], rh_all[i], c_all[i], h_prev_all[i]

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
    return dxs


def bigru(xs: np.ndarray, forward: GruCellParams, backward: GruCellParams):
    """Bidirectional scan: per step, concatenate [forward_h ; backward_h]."""
    if xs.ndim != 2 or xs.shape[0] < 1:
        raise ValidationError(f"bigru needs a nonempty (T, D_in) sequence, got shape {xs.shape}")
    out_f, cache_f = gru_sequence(xs, forward, reverse=False)
    out_b, cache_b = gru_sequence(xs, backward, reverse=True)
    return np.concatenate([out_f, out_b], axis=1), (cache_f, cache_b, forward.hidden_size)


def bigru_vjp(dout: np.ndarray, cache):
    cache_f, cache_b, hidden = cache
    dxs = gru_sequence_vjp(dout[:, :hidden].copy(), cache_f)
    dxs += gru_sequence_vjp(dout[:, hidden:].copy(), cache_b)
    return dxs
