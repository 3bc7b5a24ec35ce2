"""Train / intra-patient / inter-patient split handling.

Splits are driven by an explicit manifest file (recording id -> split
name) rather than inferred, so any official split can be reproduced by
shipping its manifest.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import FormatError, StorageError, ValidationError
from .events import Label, RespiratoryEvent

SPLIT_NAMES = ("train", "test_intra", "test_inter")

_SPLIT_ALIASES = {
    "train": "train",
    "test_intra": "test_intra",
    "intra": "test_intra",
    "testing-1": "test_intra",
    "test_inter": "test_inter",
    "inter": "test_inter",
    "testing-2": "test_inter",
}


def normalize_split_name(name: str) -> str:
    key = name.strip().lower()
    if key not in _SPLIT_ALIASES:
        raise ValidationError(f"unknown split name {name!r}; expected one of {sorted(_SPLIT_ALIASES)}")
    return _SPLIT_ALIASES[key]


@dataclass
class DatasetSplit:
    """A named collection of events forming one evaluation split."""

    name: str
    events: list[RespiratoryEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.name not in SPLIT_NAMES:
            raise ValidationError(f"split name must be one of {SPLIT_NAMES}, got {self.name!r}")

    def __len__(self) -> int:
        return len(self.events)

    def patient_ids(self) -> set[str]:
        return {e.patient_id for e in self.events}

    def class_counts(self) -> dict[Label, int]:
        counts = Counter(e.label for e in self.events)
        return {label: counts.get(label, 0) for label in Label}


def load_manifest(path: str | Path) -> dict[str, str]:
    """Read a two-column manifest: recording id, split name."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise StorageError(f"cannot read manifest {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: manifest is not UTF-8 text ({exc})") from exc
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise FormatError(f"{path}:{lineno}: expected 'recording_id split', got {line!r}")
        recording_id, split = parts
        if recording_id in mapping:
            raise ValidationError(f"{path}:{lineno}: recording {recording_id!r} assigned twice")
        mapping[recording_id] = normalize_split_name(split)
    return mapping


def write_manifest(path: str | Path, assignment: dict[str, str]) -> None:
    lines = [f"{rec}\t{normalize_split_name(split)}" for rec, split in sorted(assignment.items())]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def make_splits(
    events: list[RespiratoryEvent], manifest: dict[str, str]
) -> tuple[DatasetSplit, DatasetSplit, DatasetSplit]:
    """Partition events by the manifest and validate split invariants.

    Every event's recording must be assigned exactly once; inter-patient
    test patients must be disjoint from training patients, and
    intra-patient test patients must all appear in training.
    """
    splits = {name: DatasetSplit(name) for name in SPLIT_NAMES}
    for event in events:
        if event.recording_id not in manifest:
            raise ValidationError(f"recording {event.recording_id!r} is not assigned by the manifest")
        splits[manifest[event.recording_id]].events.append(event)

    train_patients = splits["train"].patient_ids()
    leaked = splits["test_inter"].patient_ids() & train_patients
    if leaked:
        raise ValidationError(
            f"inter-patient test split shares patients with training: {sorted(leaked)}"
        )
    if splits["train"].events:
        outside = splits["test_intra"].patient_ids() - train_patients
        if outside:
            raise ValidationError(
                f"intra-patient test split has patients absent from training: {sorted(outside)}"
            )
    return splits["train"], splits["test_intra"], splits["test_inter"]


def format_split_summary(*splits: DatasetSplit) -> str:
    """Human-readable per-class count table for one or more splits."""
    lines = []
    header = "class".ljust(18) + "".join(s.name.rjust(12) for s in splits)
    lines.append(header)
    for label in Label:
        row = label.value.ljust(18)
        row += "".join(str(s.class_counts()[label]).rjust(12) for s in splits)
        lines.append(row)
    lines.append("total".ljust(18) + "".join(str(len(s)).rjust(12) for s in splits))
    return "\n".join(lines)
