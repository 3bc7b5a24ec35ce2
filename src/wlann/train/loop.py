"""Focal-loss training loop with deterministic batching and checkpoints.

Everything downstream of the corpus is a pure function of (seed, data,
config): shuffling, per-example augmentation seeds, and the optimizer
all derive from the config seed, so identical runs produce bitwise
identical checkpoints.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..dataio.audio import AudioClip
from ..dataio.events import LABELS, RespiratoryEvent
from ..dataio.splits import DatasetSplit
from ..dsp.augment import spec_augment
from ..dsp.mel import LogMelSpectrogram
from ..errors import CHECKPOINT_BAD_MAGIC, CheckpointError, NumericError, ValidationError
from ..model.config import WlannConfig
from ..model.network import WlannParams, backward, forward
from ..model.pipeline import prepare_input
from ..ndiff.tensor import Tensor
from .adam import Adam
from .checkpoint import Archive, ArchiveReader, save_archive
from .focal import focal_loss, focal_loss_vjp, one_hot

logger = logging.getLogger(__name__)


@dataclass
class PreparedExample:
    """Deterministic per-event features, cached across epochs."""

    example_id: str
    waveform: np.ndarray
    base_spec: LogMelSpectrogram
    label_index: int


@dataclass
class TrainState:
    cfg: WlannConfig
    params: WlannParams
    optimizer: Adam
    step: int = 0
    epoch: int = 0
    loss_history: list[float] = field(default_factory=list)
    # The helper's kernel-gradient buffers (`backward`), allocated once, reused every step.
    lane_buffers: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def create(cls, cfg: WlannConfig) -> "TrainState":
        params = WlannParams.create(cfg)
        return cls(cfg=cfg, params=params, optimizer=Adam(list(params.tensors()), cfg.optimizer))


def augment_seed_for(base_seed: int, step: int, index: int) -> int:
    """Stable per-example augmentation seed."""
    return int(np.random.SeedSequence([base_seed, step, index]).generate_state(1)[0])


def prepare_example(clip: AudioClip, event: RespiratoryEvent, cfg: WlannConfig) -> PreparedExample:
    waveform, spec = prepare_input(clip, cfg)
    return PreparedExample(
        example_id=f"{event.recording_id}@{event.onset_ms}",
        waveform=waveform,
        base_spec=spec,
        label_index=event.label.index,
    )


def prepare_split(split: DatasetSplit, corpus, cfg: WlannConfig) -> list[PreparedExample]:
    examples = []
    for event in split.events:
        examples.append(prepare_example(corpus.event_clip(event), event, cfg))
    return examples


def train_step(batch: list[PreparedExample], state: TrainState) -> tuple[float, int]:
    """One optimizer update on a batch of prepared examples; returns (mean loss, correct count).

    Each example's cached spectrogram is augmented by `spec_augment` with
    the config's `augment` strengths and a seed derived from (config
    seed, step, batch index); all-zero strengths leave it unchanged.
    One helper thread, alive for this call only, runs the jobs of the lane
    plan (`network.lane_plan`) next to the waveform branch, its kernel
    gradients into `state.lane_buffers`. Each job joins at a fixed point of
    its own example and adds to gradients no other lane touches, so the
    result is bitwise that of one thread. `Adam.step` splits its update
    over a helper thread of its own.
    """
    if not batch:
        raise ValidationError("training batch is empty")
    cfg = state.cfg
    state.optimizer.zero_grads()
    total_loss = 0.0
    correct = 0
    scale = 1.0 / len(batch)
    helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="wlann-train-step")
    try:
        for index, example in enumerate(batch):
            seed = augment_seed_for(cfg.seed, state.step, index)
            spec = spec_augment(example.base_spec, cfg.augment, seed)
            scores, cache = forward(example.waveform, spec, state.params, cfg, helper)
            target = one_hot(example.label_index, cfg.num_classes, dtype=scores.dtype)
            loss, loss_cache = focal_loss(scores, target, cfg.focal_gamma)
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at step {state.step} on example {example.example_id!r}"
                )
            total_loss += loss
            if int(np.argmax(scores)) == example.label_index:
                correct += 1
            backward(focal_loss_vjp(scale, loss_cache), cache, helper, state.lane_buffers)
            del cache, loss_cache  # free this example's activations before the next forward
    finally:
        helper.shutdown(cancel_futures=True)
    state.optimizer.step()
    state.step += 1
    mean_loss = total_loss * scale
    state.loss_history.append(mean_loss)
    return mean_loss, correct


def fit(
    split: DatasetSplit,
    corpus,
    cfg: WlannConfig,
    epochs: int,
    out_path: str | Path,
    state: TrainState | None = None,
) -> TrainState:
    """Epoch loop with seeded shuffling; writes a checkpoint after each epoch."""
    if epochs < 0:
        raise ValidationError(f"epochs must be >= 0, got {epochs}")
    if state is None:
        state = TrainState.create(cfg)
    examples = prepare_split(split, corpus, cfg)
    if not examples and epochs > 0:
        raise ValidationError(f"split {split.name!r} has no events to train on")
    batch_size = cfg.optimizer.batch_size

    save_checkpoint(out_path, state)
    for _ in range(epochs):
        order = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, state.epoch, 0x5F0FF1E])
        ).permutation(len(examples))
        epoch_loss = 0.0
        epoch_correct = 0
        batches = 0
        for start in range(0, len(examples), batch_size):
            batch = [examples[i] for i in order[start : start + batch_size]]
            loss, correct = train_step(batch, state)
            epoch_loss += loss
            epoch_correct += correct
            batches += 1
        state.epoch += 1
        mean_loss = epoch_loss / max(1, batches)
        accuracy = epoch_correct / len(examples)
        logger.info(
            "epoch %d: mean focal loss %.6f, train accuracy %.3f (%d steps)",
            state.epoch, mean_loss, accuracy, state.step,
        )
        save_checkpoint(out_path, state)
    return state


# ---------------------------------------------------------------------------
# Checkpoint round trips


def _state_tensors(state: TrainState) -> dict[str, Tensor]:
    """Every tensor a checkpoint holds: the parameters, then Adam's moments."""
    return {**state.params.named(), **state.optimizer.moments()}


def save_checkpoint(path: str | Path, state: TrainState) -> None:
    tensors = {name: tensor.data for name, tensor in _state_tensors(state).items()}
    metadata = {
        "step": state.step,
        "epoch": state.epoch,
        "optimizer_steps": state.optimizer.step_count,
        "loss_history_tail": [float(x) for x in state.loss_history[-20:]],
        "label_order": [label.value for label in LABELS],
        "initializer": f"truncated-normal({state.cfg.init_std}) linear / scaled-normal gru / zero bias",
        "fusion_order": "spectrogram channels first, waveform groups second",
    }
    save_archive(path, kind="checkpoint", config=state.cfg.to_dict(), tensors=tensors, metadata=metadata)


def load_checkpoint(path: str | Path) -> tuple[WlannConfig, WlannParams, Archive]:
    """Load a checkpoint for inference: config, restored parameters and the tensor-free header.

    Only the parameters' payloads are read; the Adam moments stay on disk.
    """
    with ArchiveReader(path) as reader:
        cfg = WlannConfig.from_dict(reader.header.config)
        params = WlannParams.allocate(cfg)
        reader.restore(params.named())
    return cfg, params, reader.header


def load_train_state(path: str | Path) -> TrainState:
    """Rebuild a full training state (parameters + optimizer moments).

    A missing step, epoch or optimizer-step counter is as corrupt as a
    malformed one: resuming at 0 with later moments would restart Adam's
    bias correction and repeat the augmentation seeds.
    """
    with ArchiveReader(path) as reader:
        metadata = reader.header.metadata
        counters = {key: metadata.get(key) for key in ("step", "epoch", "optimizer_steps")}
        for key, value in counters.items():
            if type(value) is not int or value < 0:
                raise CheckpointError(
                    CHECKPOINT_BAD_MAGIC,
                    f"{path}: metadata {key!r} must be a non-negative integer, got {value!r}",
                )
        cfg = WlannConfig.from_dict(reader.header.config)
        params = WlannParams.allocate(cfg)
        optimizer = Adam(list(params.tensors()), cfg.optimizer)
        state = TrainState(cfg, params, optimizer, step=counters["step"], epoch=counters["epoch"])
        reader.restore(_state_tensors(state))
    optimizer.step_count = counters["optimizer_steps"]
    return state
