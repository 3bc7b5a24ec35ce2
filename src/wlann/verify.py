"""Finite-difference verification suite covering every differentiable op.

Each check builds a tiny double-precision instance, projects the output
onto a fixed random direction to get a scalar, runs the hand-derived
backward pass, and compares every parameter entry against central
differences. The end-to-end check runs the whole model plus the focal
loss on a micro configuration with a sampled subset of entries per
tensor.
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

DEFAULT_TOL = 1e-4
DEFAULT_STEP = 1e-5


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


def _param(rng, shape, name, scale=0.5):
    return Tensor(rng.standard_normal(shape) * scale, name=name)


def _projected(rng, shape):
    return rng.standard_normal(shape)


def _check_conv1d(rng) -> GradCheckReport:
    x = _param(rng, (2, 11), "conv.x")
    w = _param(rng, (3, 2, 4), "conv.w")
    b = _param(rng, (3,), "conv.b")
    proj = _projected(rng, (3, 4))

    def f():
        for p in (x, w, b):
            p.zero_grad()
        y, cache = F.conv1d(x.data, w, b, stride=2)
        x.add_grad(F.conv1d_vjp(proj, cache))
        return float(np.sum(proj * y))

    return grad_check(f, [x, w, b])


def _check_linear(rng) -> GradCheckReport:
    x = _param(rng, (5, 3), "linear.x")
    w = _param(rng, (4, 3), "linear.w")
    b = _param(rng, (4,), "linear.b")
    proj = _projected(rng, (5, 4))

    def f():
        for p in (x, w, b):
            p.zero_grad()
        y, cache = F.linear(x.data, w, b)
        x.add_grad(F.linear_vjp(proj, cache))
        return float(np.sum(proj * y))

    return grad_check(f, [x, w, b])


def _elementwise_check(rng, name, op, op_vjp) -> GradCheckReport:
    x = Tensor(rng.standard_normal((4, 5)), name=f"{name}.x")
    proj = _projected(rng, (4, 5))

    def f():
        x.zero_grad()
        y, cache = op(x.data)
        x.add_grad(op_vjp(proj, cache))
        return float(np.sum(proj * y))

    return grad_check(f, [x])


def _check_softmax(rng) -> GradCheckReport:
    x = _param(rng, (4, 6), "softmax.x")
    proj = _projected(rng, (4, 6))

    def f():
        x.zero_grad()
        y, cache = F.softmax(x.data, axis=-1)
        x.add_grad(F.softmax_vjp(proj, cache))
        return float(np.sum(proj * y))

    return grad_check(f, [x])


def _check_layer_norm(rng) -> GradCheckReport:
    x = _param(rng, (6, 5), "ln.x")
    gain = _param(rng, (5,), "ln.gain")
    shift = _param(rng, (5,), "ln.shift")
    proj = _projected(rng, (6, 5))

    def f():
        for p in (x, gain, shift):
            p.zero_grad()
        y, cache = F.layer_norm(x.data, gain, shift)
        x.add_grad(F.layer_norm_vjp(proj, cache))
        return float(np.sum(proj * y))

    return grad_check(f, [x, gain, shift])


def _check_mean_pool(rng) -> GradCheckReport:
    x = _param(rng, (3, 4, 5), "meanpool.x")
    proj = _projected(rng, (3, 5))

    def f():
        x.zero_grad()
        y, cache = F.mean_pool(x.data, axis=1)
        x.add_grad(F.mean_pool_vjp(proj, cache))
        return float(np.sum(proj * y))

    return grad_check(f, [x])


def _check_adaptive_pool(rng) -> GradCheckReport:
    x = _param(rng, (7, 3), "adapool.x")
    proj = _projected(rng, (3, 3))

    def f():
        x.zero_grad()
        y, cache = F.adaptive_mean_pool(x.data, 3)
        x.add_grad(F.adaptive_mean_pool_vjp(proj, cache))
        return float(np.sum(proj * y))

    return grad_check(f, [x])


def _check_attention(rng) -> GradCheckReport:
    params = AttentionParams.create(4, 2, rng, prefix="mhsa")
    x = _param(rng, (3, 4), "mhsa.x")
    proj = _projected(rng, (3, 4))
    tensors = [x, *params.tensors()]

    def f():
        for p in tensors:
            p.zero_grad()
        y, cache = mhsa(x.data, params)
        x.add_grad(mhsa_vjp(proj, cache))
        return float(np.sum(proj * y))

    return grad_check(f, tensors)


def _check_transformer_block(rng) -> GradCheckReport:
    params = TransformerBlockParams.create(4, 2, rng, prefix="block")
    x = _param(rng, (3, 4), "block.x")
    proj = _projected(rng, (3, 4))
    tensors = [x, *params.tensors()]

    def f():
        for p in tensors:
            p.zero_grad()
        y, cache = transformer_block(x.data, params)
        x.add_grad(transformer_block_vjp(proj, cache))
        return float(np.sum(proj * y))

    return grad_check(f, tensors)


def _check_gru_sequence(rng) -> GradCheckReport:
    """Four steps, so the gradient carried back through the hidden state is probed."""
    params = GruCellParams.create(3, 3, rng, prefix="gruseq")
    x = _param(rng, (4, 3), "gruseq.x")
    proj = _projected(rng, (4, 3))
    tensors = [x, *params.tensors()]

    def f():
        for p in tensors:
            p.zero_grad()
        y, cache = gru_sequence(x.data, params)
        x.add_grad(gru_sequence_vjp(proj, cache))
        return float(np.sum(proj * y))

    return grad_check(f, tensors)


def _check_bigru(rng) -> GradCheckReport:
    fwd = GruCellParams.create(3, 2, rng, prefix="bigru.fwd")
    bwd = GruCellParams.create(3, 2, rng, prefix="bigru.bwd")
    x = _param(rng, (5, 3), "bigru.x")
    proj = _projected(rng, (5, 4))
    tensors = [x, *fwd.tensors(), *bwd.tensors()]

    def f():
        for p in tensors:
            p.zero_grad()
        y, cache = bigru(x.data, fwd, bwd)
        x.add_grad(bigru_vjp(proj, cache))
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
        ("conv1d", _check_conv1d(rng)),
        ("linear", _check_linear(rng)),
        ("gelu", _elementwise_check(rng, "gelu", F.gelu, F.gelu_vjp)),
        ("sigmoid", _elementwise_check(rng, "sigmoid", F.sigmoid, F.sigmoid_vjp)),
        ("softmax", _check_softmax(rng)),
        ("layer_norm", _check_layer_norm(rng)),
        ("mean_pool", _check_mean_pool(rng)),
        ("adaptive_mean_pool", _check_adaptive_pool(rng)),
        ("multi_head_self_attention", _check_attention(rng)),
        ("transformer_block", _check_transformer_block(rng)),
        ("gru_sequence", _check_gru_sequence(rng)),
        ("bigru", _check_bigru(rng)),
        ("focal_loss", _check_focal_loss(rng)),
        ("end_to_end_micro_model", _check_end_to_end(rng, samples_per_tensor=e2e_samples)),
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
