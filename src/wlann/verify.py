"""Finite-difference verification suite covering every differentiable op.

`run_gradient_suite` is one table with an entry per op. Each entry builds
a tiny double-precision instance through `_op_check`, projects the output
onto a fixed random direction to get a scalar, runs the hand-derived
backward pass, and compares every entry of the input and the parameters
against central differences. The end-to-end check runs the whole model
plus the focal loss on a micro configuration with a sampled subset of
entries per tensor.

All entries draw from one generator in table order. Within an entry the
draws are: parameter groups (built as the entry's arguments), the input,
the named weights, then the projection. Reordering entries or draws
changes every later instance, so the table keeps this order.
"""

from __future__ import annotations

import numpy as np

from .dsp.mel import LogMelSpectrogram
from .model.config import (
    AstBranchConfig,
    AugmentConfig,
    CnnBranchConfig,
    OptimizerConfig,
    WlannConfig,
)
from .model.network import WlannParams, backward, forward
from .ndiff import functional as F
from .ndiff.attention import AttentionParams, TransformerBlockParams
from .ndiff.attention import multi_head_self_attention as mhsa
from .ndiff.attention import multi_head_self_attention_vjp as mhsa_vjp
from .ndiff.attention import transformer_block, transformer_block_vjp
from .ndiff.gradcheck import GradCheckReport, grad_check
from .ndiff.gru import GruCellParams, bigru, bigru_vjp, gru_sequence, gru_sequence_vjp
from .ndiff.tensor import Tensor
from .train.focal import focal_loss, focal_loss_vjp

def micro_config(num_classes: int = 2, seed: int = 0) -> WlannConfig:
    """A double-precision configuration small enough for exhaustive checks.

    Channel widths stay >= 6 and the init scale is raised so the channel
    layer-norms are well conditioned; otherwise finite differences at
    step 1e-5 sit in the truncation-error regime of the first layer.
    """
    return WlannConfig(
        fixed_input_seconds=0.35,
        cnn=CnnBranchConfig(kernel=16, initial_stride=5, block_strides=(4, 4, 4),
                            channel_widths=(6, 8, 15, 15)),
        ast=AstBranchConfig(embed_dim=8, depth=1, heads=2),
        gru_hidden=3,
        num_classes=num_classes,
        augment=AugmentConfig(time_warp_frames=0, freq_mask_width=0, freq_mask_count=0),
        optimizer=OptimizerConfig(batch_size=2),
        init_std=0.25,
        dtype="float64",
        seed=seed,
    )


def _op_check(
    rng, prefix, op, op_vjp, x_shape, weights=None, groups=(), args=(), scale=0.5
) -> GradCheckReport:
    """Probe `op`/`op_vjp` on one random instance through `proj · y`.

    Draws `{prefix}.x`, then each named weight `{prefix}.{name}`, both
    scaled by `scale`, then a projection shaped like the output. `groups`
    hold parameter objects the caller built, so their draws come first.
    """
    x = Tensor(rng.standard_normal(x_shape) * scale, name=f"{prefix}.x")
    ws = [Tensor(rng.standard_normal(shape) * scale, name=f"{prefix}.{name}")
          for name, shape in (weights or {}).items()]
    operands = (*ws, *groups, *args)
    proj = rng.standard_normal(op(x.data, *operands)[0].shape)
    tensors = [x, *ws, *(t for group in groups for t in group.tensors())]

    def f():
        for p in tensors:
            p.zero_grad()
        y, cache = op(x.data, *operands)
        x.add_grad(op_vjp(proj, cache))
        return float(np.sum(proj * y))

    return grad_check(f, tensors)


def _check_focal_loss(rng) -> GradCheckReport:
    pred = Tensor(rng.uniform(0.05, 0.95, 5), name="focal.pred")
    target = np.zeros(5)
    target[1] = 0.7
    target[3] = 0.3

    def f():
        pred.zero_grad()
        loss, cache = focal_loss(pred.data, target, gamma=2.0)
        pred.add_grad(focal_loss_vjp(1.0, cache))
        return loss

    return grad_check(f, [pred], tol=1e-6)


def _check_end_to_end(rng, samples_per_tensor: int = 6) -> GradCheckReport:
    cfg = micro_config()
    params = WlannParams.create(cfg, rng=np.random.default_rng(np.random.SeedSequence([7, 0xE2E])))
    waveform = rng.uniform(-0.5, 0.5, (1, cfg.fixed_samples))
    spec_values = rng.standard_normal((cfg.ast.mel_bins, cfg.spec_frames))
    spec = LogMelSpectrogram(values=spec_values)
    target = np.zeros(cfg.num_classes)
    target[1] = 1.0

    def f():
        params.zero_grads()
        scores, cache = forward(waveform, spec, params, cfg)
        loss, loss_cache = focal_loss(scores, target, cfg.focal_gamma)
        backward(focal_loss_vjp(1.0, loss_cache), cache)
        return loss

    return grad_check(
        f, list(params.tensors()), samples_per_tensor=samples_per_tensor, seed=11
    )


def run_gradient_suite(seed: int = 0, e2e_samples: int = 6) -> list[tuple[str, GradCheckReport]]:
    """All per-operation checks plus the end-to-end model check."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6AD]))
    return [
        ("conv1d", _op_check(rng, "conv", F.conv1d, F.conv1d_vjp, (2, 11),
                             {"w": (3, 2, 4), "b": (3,)}, args=(2,))),
        ("linear", _op_check(rng, "linear", F.linear, F.linear_vjp, (5, 3), {"w": (4, 3), "b": (4,)})),
        ("gelu", _op_check(rng, "gelu", F.gelu, F.gelu_vjp, (4, 5), scale=1.0)),
        ("sigmoid", _op_check(rng, "sigmoid", F.sigmoid, F.sigmoid_vjp, (4, 5), scale=1.0)),
        ("softmax", _op_check(rng, "softmax", F.softmax, F.softmax_vjp, (4, 6))),
        ("layer_norm", _op_check(rng, "ln", F.layer_norm, F.layer_norm_vjp, (6, 5),
                                 {"gain": (5,), "shift": (5,)})),
        ("mean_pool", _op_check(rng, "meanpool", F.mean_pool, F.mean_pool_vjp, (3, 4, 5), args=(1,))),
        ("adaptive_mean_pool", _op_check(rng, "adapool", F.adaptive_mean_pool,
                                         F.adaptive_mean_pool_vjp, (7, 3), args=(3,))),
        ("multi_head_self_attention", _op_check(
            rng, "mhsa", mhsa, mhsa_vjp, (3, 4),
            groups=[AttentionParams.allocate(4, 2, prefix="mhsa").initialize(rng, 0.02)])),
        ("transformer_block", _op_check(
            rng, "block", transformer_block, transformer_block_vjp, (3, 4),
            groups=[TransformerBlockParams.allocate(4, 2, prefix="block").initialize(rng, 0.02)])),
        # Four steps, so the gradient carried back through the hidden state is probed.
        ("gru_sequence", _op_check(
            rng, "gruseq", gru_sequence, gru_sequence_vjp, (4, 3),
            groups=[GruCellParams.allocate(3, 3, prefix="gruseq").initialize(rng, 0.02)])),
        ("bigru", _op_check(
            rng, "bigru", bigru, bigru_vjp, (5, 3),
            groups=[GruCellParams.allocate(3, 2, prefix="bigru.fwd").initialize(rng, 0.02),
                    GruCellParams.allocate(3, 2, prefix="bigru.bwd").initialize(rng, 0.02)])),
        ("focal_loss", _check_focal_loss(rng)),
        ("end_to_end_micro_model", _check_end_to_end(rng, samples_per_tensor=e2e_samples)),
        # Last, keeping the draws above; three 61-output blocks. No micro model layer takes it.
        ("conv1d_fft", _op_check(rng, "fftconv", F.conv1d_fft, F.conv1d_vjp, (2, 266),
                                 {"w": (3, 2, 7), "b": (3,)}, args=(2,))),
    ]


def suite_passed(results: list[tuple[str, GradCheckReport]]) -> bool:
    return all(report.passed for _, report in results)


def format_suite(results: list[tuple[str, GradCheckReport]]) -> str:
    lines = [f"{'operation':30s} {'max rel err':>12s} {'tol':>8s}  status"]
    for name, report in results:
        status = "ok" if report.passed else "FAIL"
        lines.append(f"{name:30s} {report.max_rel_err:12.3e} {report.tol:8.0e}  {status}")
    verdict = "PASS" if suite_passed(results) else "FAIL"
    lines.append(f"gradient suite: {verdict}")
    return "\n".join(lines)
