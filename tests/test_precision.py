"""Float32 against float64 end to end: scores, loss, every gradient, and a short trajectory.

Each op's float32 path has its own test; this one bounds what they add up
to in the composed model. Both dtypes start from one float64
initialization rounded to float32. So every difference comes from float32
arithmetic and the float32 cast of the waveform. The config is
`fft_layer_config`, whose widest layer (`cnn.1`) takes the FFT path.

A difference is a relative max-norm, max|a32 - a64| / max|a64|. Each bound
is 10x the value measured on x86-64 with OpenBLAS at one thread, rounded
up to one digit; the measured value is noted beside it.
"""

import numpy as np

from wlann.dataio import AudioClip
from wlann.model import prepare_input
from wlann.model.network import backward, forward
from wlann.train import PreparedExample, TrainState, focal_loss, one_hot, train_step
from wlann.train.focal import focal_loss_vjp

from conftest import fft_layer_config

SCORES_BOUND = 2e-6  # measured 1.0e-7
LOSS_BOUND = 4e-6  # measured 3.1e-7
GRAD_BOUND = 4e-5  # measured median 8.2e-7, worst 3.4e-6 (cnn.0.ln.shift)
TRAJECTORY_LOSS_BOUND = 2e-6  # measured 1.0e-7 at 3 steps of batch 2


def relative_max_norm(value32, value64) -> float:
    value32, value64 = np.asarray(value32, np.float64), np.asarray(value64, np.float64)
    return float(np.max(np.abs(value32 - value64)) / np.max(np.abs(value64)))


def rounded_states() -> dict[str, TrainState]:
    """A float32 and a float64 state holding the float64 initialization rounded to float32."""
    states = {dtype: TrainState.create(fft_layer_config(dtype=dtype)) for dtype in ("float32", "float64")}
    for name, tensor in states["float64"].params.named().items():
        rounded = tensor.data.astype(np.float32)
        for state in states.values():
            np.copyto(state.params.named()[name].data, rounded)
    return states


def noise_examples(cfg, count: int) -> list[PreparedExample]:
    rng = np.random.default_rng(5)
    examples = []
    for index in range(count):
        samples = rng.uniform(-0.5, 0.5, cfg.fixed_samples)
        waveform, spec = prepare_input(AudioClip(samples, cfg.sample_rate_hz), cfg)
        examples.append(PreparedExample(f"clip{index}", waveform, spec,
                                        int(rng.integers(cfg.num_classes))))
    return examples


class TestFloat32AgainstFloat64:
    def test_forward_and_backward_agree(self):
        runs = {}
        for dtype, state in rounded_states().items():
            cfg = state.cfg
            (example,) = noise_examples(cfg, 1)
            state.params.zero_grads()
            scores, cache = forward(example.waveform, example.base_spec, state.params, cfg)
            target = one_hot(example.label_index, cfg.num_classes, dtype=scores.dtype)
            loss, loss_cache = focal_loss(scores, target, cfg.focal_gamma)
            backward(focal_loss_vjp(1.0, loss_cache), cache)
            grads = {name: tensor.grad for name, tensor in state.params.named().items()}
            assert {scores.dtype, *(g.dtype for g in grads.values())} == {np.dtype(dtype)}
            runs[dtype] = scores, loss, grads

        (scores32, loss32, grads32), (scores64, loss64, grads64) = runs["float32"], runs["float64"]
        assert relative_max_norm(scores32, scores64) <= SCORES_BOUND
        assert relative_max_norm(loss32, loss64) <= LOSS_BOUND
        diffs = {name: relative_max_norm(grads32[name], grads64[name]) for name in grads64}
        assert {name: d for name, d in diffs.items() if not d <= GRAD_BOUND} == {}

    def test_three_step_trajectory_losses_agree(self):
        losses = {}
        for dtype, state in rounded_states().items():
            batch = noise_examples(state.cfg, 2)
            losses[dtype] = [train_step(batch, state)[0] for _ in range(3)]
        for loss32, loss64 in zip(losses["float32"], losses["float64"]):
            assert relative_max_norm(loss32, loss64) <= TRAJECTORY_LOSS_BOUND, losses
