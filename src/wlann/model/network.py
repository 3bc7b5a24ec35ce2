"""The dual-branch network: waveform CNN + spectrogram patch transformer,
channel fusion, Bi-GRU context modeling, and the sigmoid classifier head.

Forward functions return `(output, cache)` and each has a matching
`*_vjp` that routes gradients back through the same fixed graph; the
composition is written out explicitly (no tape). Shapes follow the
config's derived geometry:

    waveform (1, L) -> CNN -> (T_raw, C_w) -> pool -> grid (F, T, C_w/F)
    log-mel (128, frames) -> patches -> tokens -> blocks -> grid (F, T, D)
    fuse -> (F, T, D + C_w/F) -> mean over F -> Bi-GRU -> mean over T
    -> linear -> sigmoid scores per class
"""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..dsp.mel import LogMelSpectrogram
from ..errors import ShapeError
from ..ndiff import functional as F
from ..ndiff.attention import TransformerBlockParams, transformer_block, transformer_block_vjp
from ..ndiff.gru import GruCellParams, bigru, bigru_vjp
from ..ndiff.tensor import ParamGroup, Tensor, init, truncated_normal
from .config import WlannConfig


@dataclass
class ConvLayerParams(ParamGroup):
    """One convolution layer with its channel layer-norm."""

    w: Tensor = init(truncated_normal)
    b: Tensor = init(0.0)
    ln_gain: Tensor = init(1.0)
    ln_shift: Tensor = init(0.0)

    @classmethod
    def allocate(cls, c_in: int, c_out: int, kernel: int, prefix: str, dtype):
        def empty(shape, tag):
            return Tensor(np.empty(shape, dtype), name=f"{prefix}.{tag}")

        return cls(w=empty((c_out, c_in, kernel), "w"), b=empty(c_out, "b"),
                   ln_gain=empty(c_out, "ln.gain"), ln_shift=empty(c_out, "ln.shift"))


@dataclass
class WlannParams(ParamGroup):
    """Every trainable tensor of the model, with stable unique names."""

    conv_layers: list[ConvLayerParams]
    patch_w: Tensor = init(truncated_normal)
    patch_b: Tensor = init(0.0)
    pos_embed: Tensor = init(truncated_normal)
    blocks: list[TransformerBlockParams]
    final_ln_gain: Tensor = init(1.0)
    final_ln_shift: Tensor = init(0.0)
    gru_fwd: GruCellParams
    gru_bwd: GruCellParams
    out_w: Tensor = init(truncated_normal)
    out_b: Tensor = init(0.0)

    @classmethod
    def allocate(cls, cfg: WlannConfig) -> "WlannParams":
        """The tree in the config dtype, uninitialized: `create` draws into it, a load restores it."""
        dtype, dim, hidden = cfg.numpy_dtype, cfg.ast.embed_dim, cfg.gru_hidden
        widths = (1, *cfg.cnn.channel_widths)

        def empty(shape, name):
            return Tensor(np.empty(shape, dtype), name=name)

        return cls(
            conv_layers=[ConvLayerParams.allocate(c_in, c_out, cfg.cnn.kernel, f"cnn.{i}", dtype)
                         for i, (c_in, c_out) in enumerate(zip(widths, widths[1:]))],
            patch_w=empty((dim, cfg.ast.patch_size**2), "ast.embed.w"),
            patch_b=empty(dim, "ast.embed.b"),
            pos_embed=empty((cfg.num_patches, dim), "ast.pos"),
            blocks=[TransformerBlockParams.allocate(dim, cfg.ast.heads, f"ast.block.{i}", dtype)
                    for i in range(cfg.ast.depth)],
            final_ln_gain=empty(dim, "ast.final_ln.gain"),
            final_ln_shift=empty(dim, "ast.final_ln.shift"),
            gru_fwd=GruCellParams.allocate(cfg.fused_channels, hidden, "gru.fwd", dtype),
            gru_bwd=GruCellParams.allocate(cfg.fused_channels, hidden, "gru.bwd", dtype),
            out_w=empty((cfg.num_classes, 2 * hidden), "head.w"),
            out_b=empty(cfg.num_classes, "head.b"),
        )

    @classmethod
    def create(cls, cfg: WlannConfig, rng: np.random.Generator | None = None) -> "WlannParams":
        if rng is None:
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x1A17]))
        return cls.allocate(cfg).initialize(rng, cfg.init_std)


# ---------------------------------------------------------------------------
# Waveform branch


def widest_layer(cfg: WlannConfig) -> int:
    """Index of the conv layer with the largest im2col buffer, C_in * K rows by L_out columns."""
    widths = (1, *cfg.cnn.channel_widths)
    lengths = cfg.conv_lengths()[1:]
    return max(range(len(lengths)), key=lambda i: widths[i] * lengths[i])


def waveform_branch(waveform: np.ndarray, params: WlannParams, cfg: WlannConfig,
                    after_widest: Callable[[], None] | None = None, keep_cache: bool = True):
    """(1, L) -> (F, T_common, C_w / F) time-frequency grid; `after_widest()`, if given,
    runs once the widest layer's convolution has returned. The cache is None without
    `keep_cache`, and each layer's activations are freed as the next layer starts."""
    if waveform.shape != (1, cfg.fixed_samples):
        raise ShapeError(f"waveform must be (1, {cfg.fixed_samples}), got {waveform.shape}")
    widest = widest_layer(cfg)
    x = waveform
    layer_caches = []
    for i, (layer, stride) in enumerate(zip(params.conv_layers, cfg.cnn.strides)):
        y, c_conv = F.conv1d(x, layer.w, layer.b, stride)
        if i == widest and after_widest is not None:
            after_widest()
        normed, c_ln = F.layer_norm(y.T, layer.ln_gain, layer.ln_shift)
        activated, c_act = F.gelu(normed)
        x = activated.T
        if keep_cache:
            layer_caches.append((c_conv, c_ln, c_act))
        del y, c_conv, normed, c_ln, activated, c_act

    co = x.T  # (T_raw, C_w)
    pooled, c_pool = F.adaptive_mean_pool(co, cfg.time_patches)
    grid = pooled.reshape(cfg.time_patches, cfg.channel_groups, cfg.freq_patches)
    wo = np.ascontiguousarray(grid.transpose(2, 0, 1))  # (F, T, groups)
    return wo, (layer_caches, c_pool, cfg) if keep_cache else None


def waveform_branch_vjp(dwo: np.ndarray, cache, executor: Executor | None = None,
                        before_widest: Callable[[], None] | None = None):
    """Walk the conv stack from the top, one `conv1d_vjp` per layer.

    The widest layer's kernel gradient runs on the executor's thread, if
    one is given. `before_widest`, if given, is called before that
    layer's VJP. Each layer's cache is dropped from `cache` as the walk
    passes it.
    """
    layer_caches, c_pool, cfg = cache
    widest = widest_layer(cfg)
    dpooled = dwo.transpose(1, 2, 0).reshape(cfg.time_patches, cfg.cnn.output_channels)
    dx = F.adaptive_mean_pool_vjp(dpooled, c_pool).T
    while layer_caches:
        i = len(layer_caches) - 1
        c_conv, c_ln, c_act = layer_caches.pop()
        dy = F.layer_norm_vjp(F.gelu_vjp(dx.T, c_act), c_ln).T
        if i == widest and before_widest is not None:
            before_widest()
        dx = F.conv1d_vjp(dy, c_conv, need_dx=i > 0, executor=executor if i == widest else None)


# ---------------------------------------------------------------------------
# Spectrogram branch


def extract_patches(values: np.ndarray, patch: int, stride: int):
    """(mel, T) -> flattened square patches (F_p * T_p, patch*patch) plus the grid shape."""
    if values.shape[1] < patch:
        raise ShapeError(f"need at least {patch} frames to form patches, got {values.shape[1]}")
    windows = sliding_window_view(values, (patch, patch))[::stride, ::stride]
    f_p, t_p = windows.shape[:2]
    return windows.reshape(f_p * t_p, patch * patch), (f_p, t_p)


def ast_branch(spec: LogMelSpectrogram, params: WlannParams, cfg: WlannConfig,
               keep_cache: bool = True):
    """(128, frames) -> (F, T_common, D) token grid; the cache is None without `keep_cache`.

    The block stack is pre-norm, so a final layer norm brings every token
    onto a common scale before fusion (the residual stream otherwise
    carries the raw log-energy offset of the input patches).
    """
    values = spec.values.astype(cfg.numpy_dtype)
    if values.shape[0] != cfg.ast.mel_bins:
        raise ShapeError(f"expected {cfg.ast.mel_bins} mel bins, got {values.shape[0]}")
    flat, (f_p, t_p) = extract_patches(values, cfg.ast.patch_size, cfg.ast.patch_stride)
    if (f_p, t_p) != (cfg.freq_patches, cfg.time_patches):
        raise ShapeError(
            f"patch grid {(f_p, t_p)} does not match config "
            f"{(cfg.freq_patches, cfg.time_patches)}"
        )
    embedded, c_embed = F.linear(flat, params.patch_w, params.patch_b)
    tokens = embedded + params.pos_embed.data
    block_caches = []
    for block in params.blocks:
        tokens, c_block = transformer_block(tokens, block, keep_cache)
        if keep_cache:
            block_caches.append(c_block)
        del c_block
    tokens, c_final = F.layer_norm(tokens, params.final_ln_gain, params.final_ln_shift)
    ao = tokens.reshape(f_p, t_p, cfg.ast.embed_dim)
    cache = (c_embed, block_caches, c_final, params.pos_embed, (f_p, t_p))
    return ao, cache if keep_cache else None


def ast_branch_vjp(dao: np.ndarray, cache):
    c_embed, block_caches, c_final, pos_embed, (f_p, t_p) = cache
    dtokens = dao.reshape(f_p * t_p, -1)
    dtokens = F.layer_norm_vjp(dtokens, c_final)
    while block_caches:  # each block's activations are freed once its gradients are done
        dtokens = transformer_block_vjp(dtokens, block_caches.pop())
    pos_embed.add_grad(dtokens)
    F.linear_vjp(dtokens, c_embed)  # input patches are data; their grad is unused
    return None


# ---------------------------------------------------------------------------
# Fusion and head


def fuse(wo: np.ndarray, ao: np.ndarray):
    """Concatenate along channels, spectrogram tokens first."""
    if wo.shape[:2] != ao.shape[:2]:
        raise ShapeError(
            f"branch grids disagree: waveform {wo.shape} vs spectrogram {ao.shape}"
        )
    fused = np.concatenate([ao, wo], axis=2)
    return fused, ao.shape[2]


def fuse_vjp(dfused: np.ndarray, ast_channels: int):
    dao = dfused[:, :, :ast_channels]
    dwo = dfused[:, :, ast_channels:]
    return dwo, dao


def classify_head(fused: np.ndarray, params: WlannParams, cfg: WlannConfig):
    """(F, T, C') -> (class scores, per-frame features)."""
    freq_pooled, c_freq = F.mean_pool(fused, axis=0)  # (T, C')
    frames, c_gru = bigru(freq_pooled, params.gru_fwd, params.gru_bwd)  # (T, 2H)
    time_pooled, c_time = F.mean_pool(frames, axis=0)  # (2H,)
    logits, c_lin = F.linear(time_pooled, params.out_w, params.out_b)
    scores, c_sig = F.sigmoid(logits)
    return (scores, frames), (c_freq, c_gru, c_time, c_lin, c_sig)


def classify_head_vjp(dscores: np.ndarray, cache):
    c_freq, c_gru, c_time, c_lin, c_sig = cache
    dlogits = F.sigmoid_vjp(dscores, c_sig)
    dtime_pooled = F.linear_vjp(dlogits, c_lin)
    dframes = F.mean_pool_vjp(dtime_pooled, c_time)
    dfreq_pooled = bigru_vjp(dframes, c_gru)
    return F.mean_pool_vjp(dfreq_pooled, c_freq)


# ---------------------------------------------------------------------------
# Whole model


# The helper thread's lane (`F.Job`). The widest conv layer's work runs only while the
# helper is idle or holds memory the caller allocated, whatever the threads' timing.


def forward(waveform: np.ndarray, spec: LogMelSpectrogram, params: WlannParams, cfg: WlannConfig,
            executor: Executor | None = None, keep_cache: bool = True):
    """Full forward pass; returns (scores, cache). Deterministic and pure.

    With an executor, the spectrogram branch is queued on it once the
    widest conv layer has returned, and the caller runs the waveform
    branch above that layer. A caller that is one of the executor's own
    threads runs the branch itself if no thread has picked it up by the
    time it needs it (`F.Job`), so the executor may be the pool the caller
    runs on; any other caller waits for the executor. The branches
    share no parameters, so every value is the same as without.
    Without `keep_cache` the cache is None and no backward cache is held,
    so the peak is one layer's working set, or two when the branches run
    at once; the scores are the same.
    """
    ast = F.Job(executor, ast_branch, spec, params, cfg, keep_cache)
    wo, c_wave = waveform_branch(waveform, params, cfg, ast.start, keep_cache)
    ao, c_ast = ast.wait()
    fused, ast_channels = fuse(wo, ao)
    (scores, _), c_head = classify_head(fused, params, cfg)
    return scores, [c_wave, c_ast, ast_channels, c_head] if keep_cache else None


def backward(dscores: np.ndarray, cache: list, executor: Executor | None = None) -> None:
    """Accumulate parameter gradients for one example; empties `cache`.

    With an executor, its thread runs the spectrogram branch's backward
    while the caller walks the conv layers above the widest, and then
    the widest layer's kernel gradient while the caller computes that
    layer's input gradient. Each branch's activations are freed as that
    branch finishes, and every job has ended when this returns.
    """
    c_wave, c_ast, ast_channels, c_head = cache
    cache.clear()
    dfused = classify_head_vjp(dscores, c_head)
    del c_head
    dwo, dao = fuse_vjp(dfused, ast_channels)
    ast = F.Job(executor, ast_branch_vjp, dao, c_ast)
    ast.start()
    del c_ast
    waveform_branch_vjp(dwo, c_wave, executor, before_widest=ast.wait)


def predict_scores(
    waveform: np.ndarray, spec: LogMelSpectrogram, params: WlannParams, cfg: WlannConfig,
    executor: Executor | None = None,
) -> np.ndarray:
    """Class scores from one forward that keeps no backward cache. An idle thread of
    `executor`, if given, may run the spectrogram branch (see `forward`); the scores
    are the same with or without it."""
    return forward(waveform, spec, params, cfg, executor, keep_cache=False)[0]
