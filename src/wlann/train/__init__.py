"""Training: focal loss, Adam, the epoch loop, and the archive format."""

from .adam import Adam
from .checkpoint import (
    MAGIC,
    Archive,
    ArchiveReader,
    load_archive,
    save_archive,
)
from .focal import PRED_CLAMP_EPS, focal_loss, focal_loss_vjp, one_hot, validate_target
from .loop import (
    PreparedExample,
    TrainState,
    augment_seed_for,
    fit,
    load_checkpoint,
    load_train_state,
    prepare_example,
    prepare_split,
    save_checkpoint,
    train_step,
)

__all__ = [
    "Adam",
    "Archive",
    "ArchiveReader",
    "MAGIC",
    "PRED_CLAMP_EPS",
    "PreparedExample",
    "TrainState",
    "augment_seed_for",
    "fit",
    "focal_loss",
    "focal_loss_vjp",
    "load_archive",
    "load_checkpoint",
    "load_train_state",
    "one_hot",
    "prepare_example",
    "prepare_split",
    "save_archive",
    "save_checkpoint",
    "train_step",
    "validate_target",
]
