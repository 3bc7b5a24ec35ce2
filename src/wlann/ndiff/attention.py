"""Multi-head self-attention and the pre-norm transformer block."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, ShapeError
from . import functional as F
from .tensor import ParamGroup, Tensor, init, truncated_normal

FF_EXPANSION = 4
SOFTMAX_VJP_ROW_BYTES = 96 << 10  # the attention VJP's row scratch


@dataclass
class AttentionParams(ParamGroup):
    """Query/key/value/output projections for one attention layer. The key projection has
    no bias: it would add q_i·b to every score in row i, a constant softmax cancels."""

    wq: Tensor = init(truncated_normal)
    bq: Tensor = init(0.0)
    wk: Tensor = init(truncated_normal)
    wv: Tensor = init(truncated_normal)
    bv: Tensor = init(0.0)
    wo: Tensor = init(truncated_normal)
    bo: Tensor = init(0.0)
    heads: int

    @classmethod
    def allocate(cls, dim: int, heads: int, prefix: str = "attn", dtype=np.float64):
        if dim % heads != 0:
            raise ConfigError(f"embedding dim {dim} not divisible by {heads} heads")

        def empty(shape, tag):
            return Tensor(np.empty(shape, dtype), name=f"{prefix}.{tag}")

        return cls(
            wq=empty((dim, dim), "q.w"), bq=empty(dim, "q.b"),
            wk=empty((dim, dim), "k.w"),
            wv=empty((dim, dim), "v.w"), bv=empty(dim, "v.b"),
            wo=empty((dim, dim), "out.w"), bo=empty(dim, "out.b"),
            heads=heads,
        )


def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    n, dim = x.shape
    return x.reshape(n, heads, dim // heads).transpose(1, 0, 2)  # (h, N, d_h)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    heads, n, d_h = x.shape
    return x.transpose(1, 0, 2).reshape(n, heads * d_h)


def _head_weights(q: np.ndarray, k: np.ndarray, scale: float, out: np.ndarray) -> np.ndarray:
    """One head's (N, N) softmax weights of its (N, d_h) queries and keys, built in `out`.

    The forward and the VJP both call this, so the VJP's rebuilt weights
    are the forward's bits.
    """
    np.matmul(q, k.T, out=out)
    out *= scale
    F.softmax(out, axis=-1, out=out)
    return out


def multi_head_self_attention(x: np.ndarray, params: AttentionParams, keep_cache: bool = True):
    """Scaled dot-product attention over a (N, D) token sequence, one head at a time.

    Every head builds its weights in one (N, N) buffer the heads share, in
    both modes. The cache holds the per-head queries, keys and values, not
    the weights: the VJP rebuilds them. Without `keep_cache` it is None.
    Per head these are the GEMMs and row reductions a batched matmul over
    the heads makes, so the bits are the same.
    """
    n, dim = x.shape
    heads = params.heads
    if dim % heads != 0:
        raise ConfigError(f"embedding dim {dim} not divisible by {heads} heads")
    q, c_q = F.linear(x, params.wq, params.bq)
    k, c_k = F.linear(x, params.wk, None)
    v, c_v = F.linear(x, params.wv, params.bv)
    qh, kh, vh = (_split_heads(t, heads) for t in (q, k, v))
    scale = 1.0 / math.sqrt(dim // heads)
    weights = np.empty((n, n), q.dtype)
    context = np.empty(qh.shape, q.dtype)  # (h, N, d_h)
    for i in range(heads):
        np.matmul(_head_weights(qh[i], kh[i], scale, weights), vh[i], out=context[i])
    y, c_o = F.linear(_merge_heads(context), params.wo, params.bo)
    return y, (c_q, c_k, c_v, c_o, qh, kh, vh, scale, heads) if keep_cache else None


def multi_head_self_attention_vjp(dy: np.ndarray, cache):
    """One head at a time, in two (N, N) buffers all heads reuse: the head's weights,
    rebuilt by `_head_weights`, and its score gradient.

    The softmax VJP runs `SOFTMAX_VJP_ROW_BYTES` of rows at a time into one
    row scratch and is scaled back into the score gradient, so nothing of
    size (N, N) is allocated per head.
    """
    c_q, c_k, c_v, c_o, qh, kh, vh, scale, heads = cache
    dmerged = F.linear_vjp(dy, c_o)
    dcontext = _split_heads(dmerged, heads)
    dqh, dkh, dvh = (np.empty(dcontext.shape, dcontext.dtype) for _ in range(3))
    n = qh.shape[1]
    weights, dscores = (np.empty((n, n), qh.dtype) for _ in range(2))
    rows = max(1, SOFTMAX_VJP_ROW_BYTES // dscores[0].nbytes)
    scratch = np.empty((min(rows, n), n), qh.dtype)
    for i in range(heads):
        _head_weights(qh[i], kh[i], scale, weights)
        np.matmul(weights.T, dcontext[i], out=dvh[i])
        np.matmul(dcontext[i], vh[i].T, out=dscores)  # the weights' gradient, overwritten below
        for a in range(0, n, rows):
            b = min(a + rows, n)
            dsoft = F.softmax_vjp(dscores[a:b], (weights[a:b], -1), out=scratch[: b - a])
            np.multiply(dsoft, scale, out=dscores[a:b])
        np.matmul(dscores, kh[i], out=dqh[i])
        np.matmul(dscores.T, qh[i], out=dkh[i])
    dx = F.linear_vjp(_merge_heads(dqh), c_q)
    dx += F.linear_vjp(_merge_heads(dkh), c_k)
    dx += F.linear_vjp(_merge_heads(dvh), c_v)
    return dx


@dataclass
class TransformerBlockParams(ParamGroup):
    """Pre-norm block: LN -> attention -> residual, LN -> MLP -> residual."""

    ln1_gain: Tensor = init(1.0)
    ln1_shift: Tensor = init(0.0)
    attn: AttentionParams
    ln2_gain: Tensor = init(1.0)
    ln2_shift: Tensor = init(0.0)
    ff1_w: Tensor = init(truncated_normal)
    ff1_b: Tensor = init(0.0)
    ff2_w: Tensor = init(truncated_normal)
    ff2_b: Tensor = init(0.0)

    @classmethod
    def allocate(cls, dim: int, heads: int, prefix: str = "block", dtype=np.float64):
        hidden = FF_EXPANSION * dim

        def empty(shape, tag):
            return Tensor(np.empty(shape, dtype), name=f"{prefix}.{tag}")

        return cls(
            ln1_gain=empty(dim, "ln1.gain"), ln1_shift=empty(dim, "ln1.shift"),
            attn=AttentionParams.allocate(dim, heads, f"{prefix}.attn", dtype),
            ln2_gain=empty(dim, "ln2.gain"), ln2_shift=empty(dim, "ln2.shift"),
            ff1_w=empty((hidden, dim), "ff1.w"), ff1_b=empty(hidden, "ff1.b"),
            ff2_w=empty((dim, hidden), "ff2.w"), ff2_b=empty(dim, "ff2.b"),
        )


def transformer_block(x: np.ndarray, params: TransformerBlockParams, keep_cache: bool = True):
    """One encoder block over a (N, D) sequence; output shape equals input shape.
    The cache is None without `keep_cache`."""
    if x.ndim != 2:
        raise ShapeError(f"transformer block expects a (N, D) sequence, got {x.shape}")
    h1, c_ln1 = F.layer_norm(x, params.ln1_gain, params.ln1_shift)
    attn_out, c_attn = multi_head_self_attention(h1, params.attn, keep_cache)
    x_mid = x + attn_out
    h2, c_ln2 = F.layer_norm(x_mid, params.ln2_gain, params.ln2_shift)
    f1, c_f1 = F.linear(h2, params.ff1_w, params.ff1_b)
    g1, c_g = F.gelu(f1)
    f2, c_f2 = F.linear(g1, params.ff2_w, params.ff2_b)
    y = x_mid + f2
    return y, (c_ln1, c_attn, c_ln2, c_f1, c_g, c_f2) if keep_cache else None


def transformer_block_vjp(dy: np.ndarray, cache):
    c_ln1, c_attn, c_ln2, c_f1, c_g, c_f2 = cache
    dg1 = F.linear_vjp(dy, c_f2)
    df1 = F.gelu_vjp(dg1, c_g)
    dx_mid = dy + F.layer_norm_vjp(F.linear_vjp(df1, c_f1), c_ln2)
    dh1 = multi_head_self_attention_vjp(dx_mid, c_attn)
    return dx_mid + F.layer_norm_vjp(dh1, c_ln1)
