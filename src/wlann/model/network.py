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

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..dsp.mel import LogMelSpectrogram
from ..errors import ShapeError
from ..ndiff import functional as F
from ..ndiff.attention import TransformerBlockParams, transformer_block, transformer_block_vjp
from ..ndiff.gru import GruCellParams, bigru, bigru_vjp
from ..ndiff.tensor import ParamGroup, Tensor, truncated_normal
from .config import WlannConfig


@dataclass
class ConvLayerParams(ParamGroup):
    """One convolution layer with its channel layer-norm."""

    w: Tensor
    b: Tensor
    ln_gain: Tensor
    ln_shift: Tensor

    @classmethod
    def create(cls, c_in: int, c_out: int, kernel: int, std: float, rng, prefix: str):
        return cls(
            w=Tensor(truncated_normal(rng, (c_out, c_in, kernel), std), name=f"{prefix}.w"),
            b=Tensor(np.zeros(c_out), name=f"{prefix}.b"),
            ln_gain=Tensor(np.ones(c_out), name=f"{prefix}.ln.gain"),
            ln_shift=Tensor(np.zeros(c_out), name=f"{prefix}.ln.shift"),
        )


@dataclass
class WlannParams(ParamGroup):
    """Every trainable tensor of the model, with stable unique names."""

    conv_layers: list[ConvLayerParams]
    patch_w: Tensor
    patch_b: Tensor
    pos_embed: Tensor
    blocks: list[TransformerBlockParams]
    final_ln_gain: Tensor
    final_ln_shift: Tensor
    gru_fwd: GruCellParams
    gru_bwd: GruCellParams
    out_w: Tensor
    out_b: Tensor

    @classmethod
    def create(cls, cfg: WlannConfig, rng: np.random.Generator | None = None) -> "WlannParams":
        if rng is None:
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x1A17]))
        std = cfg.init_std
        layers = []
        c_in = 1
        for i, c_out in enumerate(cfg.cnn.channel_widths):
            layers.append(
                ConvLayerParams.create(c_in, c_out, cfg.cnn.kernel, std, rng, prefix=f"cnn.{i}")
            )
            c_in = c_out
        patch_dim = cfg.ast.patch_size * cfg.ast.patch_size
        params = cls(
            conv_layers=layers,
            patch_w=Tensor(truncated_normal(rng, (cfg.ast.embed_dim, patch_dim), std), name="ast.embed.w"),
            patch_b=Tensor(np.zeros(cfg.ast.embed_dim), name="ast.embed.b"),
            pos_embed=Tensor(
                truncated_normal(rng, (cfg.num_patches, cfg.ast.embed_dim), std), name="ast.pos"
            ),
            blocks=[
                TransformerBlockParams.create(cfg.ast.embed_dim, cfg.ast.heads, std, rng, f"ast.block.{i}")
                for i in range(cfg.ast.depth)
            ],
            final_ln_gain=Tensor(np.ones(cfg.ast.embed_dim), name="ast.final_ln.gain"),
            final_ln_shift=Tensor(np.zeros(cfg.ast.embed_dim), name="ast.final_ln.shift"),
            gru_fwd=GruCellParams.create(cfg.fused_channels, cfg.gru_hidden, rng, prefix="gru.fwd"),
            gru_bwd=GruCellParams.create(cfg.fused_channels, cfg.gru_hidden, rng, prefix="gru.bwd"),
            out_w=Tensor(truncated_normal(rng, (cfg.num_classes, 2 * cfg.gru_hidden), std), name="head.w"),
            out_b=Tensor(np.zeros(cfg.num_classes), name="head.b"),
        )
        for tensor in params.tensors():
            tensor.data = tensor.data.astype(cfg.numpy_dtype)
        return params


# ---------------------------------------------------------------------------
# Waveform branch


def waveform_branch(waveform: np.ndarray, params: WlannParams, cfg: WlannConfig):
    """(1, L) -> (F, T_common, C_w / F) time-frequency grid."""
    if waveform.shape != (1, cfg.fixed_samples):
        raise ShapeError(f"waveform must be (1, {cfg.fixed_samples}), got {waveform.shape}")
    x = waveform
    layer_caches = []
    for layer, stride in zip(params.conv_layers, cfg.cnn.strides):
        y, c_conv = F.conv1d(x, layer.w, layer.b, stride)
        normed, c_ln = F.layer_norm(y.T, layer.ln_gain, layer.ln_shift)
        activated, c_act = F.gelu(normed)
        x = activated.T
        layer_caches.append((c_conv, c_ln, c_act))

    co = x.T  # (T_raw, C_w)
    pooled, c_pool = F.adaptive_mean_pool(co, cfg.time_patches)
    grid = pooled.reshape(cfg.time_patches, cfg.channel_groups, cfg.freq_patches)
    wo = np.ascontiguousarray(grid.transpose(2, 0, 1))  # (F, T, groups)
    return wo, (layer_caches, c_pool, cfg)


def waveform_branch_vjp(dwo: np.ndarray, cache):
    layer_caches, c_pool, cfg = cache
    dpooled = dwo.transpose(1, 2, 0).reshape(cfg.time_patches, cfg.cnn.output_channels)
    dco = F.adaptive_mean_pool_vjp(dpooled, c_pool)
    dx = dco.T
    for i, (c_conv, c_ln, c_act) in enumerate(reversed(layer_caches)):
        dactivated = dx.T
        dnormed = F.gelu_vjp(dactivated, c_act)
        dy = F.layer_norm_vjp(dnormed, c_ln).T
        last = i == len(layer_caches) - 1
        dx = F.conv1d_vjp(dy, c_conv, need_dx=not last)
    return dx


# ---------------------------------------------------------------------------
# Spectrogram branch


def extract_patches(values: np.ndarray, patch: int, stride: int):
    """(mel, T) -> flattened square patches (F_p * T_p, patch*patch) plus the grid shape."""
    if values.shape[1] < patch:
        raise ShapeError(f"need at least {patch} frames to form patches, got {values.shape[1]}")
    windows = sliding_window_view(values, (patch, patch))[::stride, ::stride]
    f_p, t_p = windows.shape[:2]
    return windows.reshape(f_p * t_p, patch * patch), (f_p, t_p)


def ast_branch(spec: LogMelSpectrogram, params: WlannParams, cfg: WlannConfig):
    """(128, frames) -> (F, T_common, D) token grid.

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
        tokens, c_block = transformer_block(tokens, block)
        block_caches.append(c_block)
    tokens, c_final = F.layer_norm(tokens, params.final_ln_gain, params.final_ln_shift)
    ao = tokens.reshape(f_p, t_p, cfg.ast.embed_dim)
    return ao, (c_embed, block_caches, c_final, params.pos_embed, (f_p, t_p))


def ast_branch_vjp(dao: np.ndarray, cache):
    c_embed, block_caches, c_final, pos_embed, (f_p, t_p) = cache
    dtokens = dao.reshape(f_p * t_p, -1)
    dtokens = F.layer_norm_vjp(dtokens, c_final)
    for c_block in reversed(block_caches):
        dtokens = transformer_block_vjp(dtokens, c_block)
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


def forward(waveform: np.ndarray, spec: LogMelSpectrogram, params: WlannParams, cfg: WlannConfig):
    """Full forward pass; returns (scores, cache). Deterministic and pure."""
    wo, c_wave = waveform_branch(waveform, params, cfg)
    ao, c_ast = ast_branch(spec, params, cfg)
    fused, ast_channels = fuse(wo, ao)
    (scores, _), c_head = classify_head(fused, params, cfg)
    return scores, (c_wave, c_ast, ast_channels, c_head)


def backward(dscores: np.ndarray, cache) -> None:
    """Accumulate parameter gradients for one example."""
    c_wave, c_ast, ast_channels, c_head = cache
    dfused = classify_head_vjp(dscores, c_head)
    dwo, dao = fuse_vjp(dfused, ast_channels)
    ast_branch_vjp(dao, c_ast)
    waveform_branch_vjp(dwo, c_wave)


def predict_scores(
    waveform: np.ndarray, spec: LogMelSpectrogram, params: WlannParams, cfg: WlannConfig
) -> np.ndarray:
    scores, _ = forward(waveform, spec, params, cfg)
    return scores
