"""Focal-loss training loop with deterministic batching and checkpoints.

Everything downstream of the corpus is a pure function of (seed, data,
config): shuffling, per-example augmentation seeds, and the optimizer
all derive from the config seed, so identical runs produce bitwise
identical checkpoints.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..dataio.audio import AudioClip
from ..dataio.events import LABELS, RespiratoryEvent
from ..dataio.splits import DatasetSplit
from ..dsp.mel import LogMelSpectrogram
from ..errors import NumericError, ValidationError
from ..model.config import WlannConfig
from ..model.network import WlannParams, backward, forward
from ..model.pipeline import augment_spectrogram, prepare_input
from .adam import Adam
from .checkpoint import Archive, load_archive, restore_parameters, save_archive
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

    @classmethod
    def create(cls, cfg: WlannConfig) -> "TrainState":
        params = WlannParams.create(cfg)
        opt = cfg.optimizer
        optimizer = Adam(
            list(params.tensors()),
            learning_rate=opt.learning_rate,
            beta1=opt.beta1,
            beta2=opt.beta2,
            eps=opt.eps,
            clip_norm=opt.clip_norm,
            weight_decay=opt.weight_decay,
        )
        return cls(cfg=cfg, params=params, optimizer=optimizer)


def augment_seed_for(base_seed: int, step: int, index: int) -> int:
    """Stable per-example augmentation seed."""
    return int(np.random.SeedSequence([base_seed, step, index]).generate_state(1)[0])


def prepare_example(
    clip: AudioClip, event: RespiratoryEvent, cfg: WlannConfig, example_id: str | None = None
) -> PreparedExample:
    waveform, spec = prepare_input(clip, cfg, train_mode=False)
    return PreparedExample(
        example_id=example_id or f"{event.recording_id}@{event.onset_ms}",
        waveform=waveform,
        base_spec=spec,
        label_index=event.label.index,
    )


def prepare_split(split: DatasetSplit, corpus, cfg: WlannConfig) -> list[PreparedExample]:
    examples = []
    for event in split.events:
        examples.append(prepare_example(corpus.event_clip(event), event, cfg))
    return examples


def train_step(
    batch: list[PreparedExample],
    state: TrainState,
    train_mode: bool = True,
) -> tuple[float, int]:
    """One optimizer update on a batch of prepared examples; returns (mean loss, correct count).

    In train mode each example's cached spectrogram is augmented with a
    seed derived from (config seed, step, batch index).
    """
    if not batch:
        raise ValidationError("training batch is empty")
    cfg = state.cfg
    state.optimizer.zero_grads()
    total_loss = 0.0
    correct = 0
    scale = 1.0 / len(batch)
    for index, example in enumerate(batch):
        spec = example.base_spec
        if train_mode:
            spec = augment_spectrogram(spec, cfg, augment_seed_for(cfg.seed, state.step, index))
        scores, cache = forward(example.waveform, spec, state.params, cfg)
        target = one_hot(example.label_index, cfg.num_classes, dtype=scores.dtype)
        loss, loss_cache = focal_loss(scores, target, cfg.focal_gamma)
        if not np.isfinite(loss):
            raise NumericError(
                f"non-finite loss at step {state.step} on example {example.example_id!r}"
            )
        total_loss += loss
        if int(np.argmax(scores)) == example.label_index:
            correct += 1
        backward(focal_loss_vjp(scale, loss_cache), cache)
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
    batch_size = max(1, cfg.optimizer.batch_size)

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


def save_checkpoint(path: str | Path, state: TrainState) -> None:
    tensors: dict[str, np.ndarray] = {}
    for tensor in state.params.tensors():
        tensors[tensor.name] = tensor.data
    for tensor, m, v in zip(state.optimizer.params, state.optimizer.m, state.optimizer.v):
        tensors[f"adam.m.{tensor.name}"] = m
        tensors[f"adam.v.{tensor.name}"] = v
    metadata = {
        "step": state.step,
        "epoch": state.epoch,
        "optimizer_steps": state.optimizer.step_count,
        "loss_history_tail": [float(x) for x in state.loss_history[-20:]],
        "label_order": [label.value for label in LABELS],
        "initializer": "truncated-normal(0.02) linear / scaled-normal gru / zero bias",
        "fusion_order": "spectrogram channels first, waveform groups second",
    }
    save_archive(path, kind="checkpoint", config=state.cfg.to_dict(), tensors=tensors, metadata=metadata)


def load_checkpoint(path: str | Path) -> tuple[WlannConfig, WlannParams, Archive]:
    """Load a checkpoint for inference: config plus restored parameters."""
    archive = load_archive(path)
    cfg = WlannConfig.from_dict(archive.config)
    params = WlannParams.create(cfg)
    restore_parameters(archive, params.named())
    return cfg, params, archive


def load_train_state(path: str | Path) -> TrainState:
    """Rebuild a full training state (parameters + optimizer moments)."""
    archive = load_archive(path)
    cfg = WlannConfig.from_dict(archive.config)
    state = TrainState.create(cfg)
    restore_parameters(archive, state.params.named())
    for tensor, m, v in zip(state.optimizer.params, state.optimizer.m, state.optimizer.v):
        for label, buffer in (("m", m), ("v", v)):
            key = f"adam.{label}.{tensor.name}"
            if key in archive.tensors:
                stored = archive.tensors[key]
                if stored.shape != buffer.shape:
                    raise ValidationError(f"optimizer moment {key} has shape {stored.shape}")
                buffer[...] = stored.astype(buffer.dtype)
    state.step = int(archive.metadata.get("step", 0))
    state.epoch = int(archive.metadata.get("epoch", 0))
    state.optimizer.step_count = int(archive.metadata.get("optimizer_steps", 0))
    return state
