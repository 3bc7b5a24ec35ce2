"""Respiratory event labels, annotation documents, and event slicing.

Annotation files are JSON documents, one per recording, holding an
``event_annotation`` list of ``{start, end, type}`` entries with
millisecond timestamps. Label strings are mapped through an alias table
so the vocabulary variants seen in public corpora all land on the same
seven classes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from ..errors import FormatError, StorageError, ValidationError
from .audio import AudioClip


class Label(Enum):
    """The seven event classes, in canonical (model output) order."""

    NORMAL = "Normal"
    RHONCHI = "Rhonchi"
    WHEEZE = "Wheeze"
    STRIDOR = "Stridor"
    COARSE_CRACKLE = "CoarseCrackle"
    FINE_CRACKLE = "FineCrackle"
    WHEEZE_AND_CRACKLE = "WheezeAndCrackle"

    @property
    def index(self) -> int:
        return list(Label).index(self)

    @property
    def is_abnormal(self) -> bool:
        return self is not Label.NORMAL


LABELS = list(Label)
NUM_CLASSES = len(LABELS)

# Vocabulary variants observed in annotation files and tables.
LABEL_ALIASES: dict[str, Label] = {
    "normal": Label.NORMAL,
    "n": Label.NORMAL,
    "rhonchi": Label.RHONCHI,
    "rho": Label.RHONCHI,
    "wheeze": Label.WHEEZE,
    "w": Label.WHEEZE,
    "stridor": Label.STRIDOR,
    "str": Label.STRIDOR,
    "coarse crackle": Label.COARSE_CRACKLE,
    "coarsecrackle": Label.COARSE_CRACKLE,
    "coarse_crackle": Label.COARSE_CRACKLE,
    "cc": Label.COARSE_CRACKLE,
    "fine crackle": Label.FINE_CRACKLE,
    "finecrackle": Label.FINE_CRACKLE,
    "fine_crackle": Label.FINE_CRACKLE,
    "fc": Label.FINE_CRACKLE,
    "wheeze+crackle": Label.WHEEZE_AND_CRACKLE,
    "wheeze&crackle": Label.WHEEZE_AND_CRACKLE,
    "wheeze & crackle": Label.WHEEZE_AND_CRACKLE,
    "wheeze and crackle": Label.WHEEZE_AND_CRACKLE,
    "wheezeandcrackle": Label.WHEEZE_AND_CRACKLE,
    "both": Label.WHEEZE_AND_CRACKLE,
}


def parse_label(text: str) -> Label:
    """Map a label string (any known alias) onto the 7-class enum."""
    key = str(text).strip().lower()
    try:
        return LABEL_ALIASES[key]
    except KeyError:
        known = ", ".join(sorted({alias for alias in LABEL_ALIASES}))
        raise ValidationError(f"unknown event label {text!r}; known labels: {known}") from None


@dataclass(frozen=True)
class RespiratoryEvent:
    """One annotated event: a labeled [onset, offset) interval of a recording."""

    recording_id: str
    onset_ms: int
    offset_ms: int
    label: Label
    patient_id: str

    def __post_init__(self) -> None:
        if self.onset_ms < 0:
            raise ValidationError(f"{self.recording_id}: onset {self.onset_ms} ms is negative")
        if self.offset_ms <= self.onset_ms:
            raise ValidationError(
                f"{self.recording_id}: offset {self.offset_ms} ms must exceed onset {self.onset_ms} ms"
            )

    @property
    def duration_ms(self) -> int:
        return self.offset_ms - self.onset_ms


def patient_id_from_recording(recording_id: str) -> str:
    """First underscore-separated token of the recording id (corpus convention)."""
    return recording_id.split("_")[0]


def _coerce_ms(value, field: str, where: str) -> int:
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if isinstance(value, bool) or not math.isfinite(number):
        raise FormatError(f"{where}: {field} value {value!r} is not a finite number")
    if number != int(number):
        raise FormatError(f"{where}: {field} value {value!r} is not an integer millisecond count")
    return int(number)


def load_annotations(path: str | Path) -> list[RespiratoryEvent]:
    """Load one recording's annotation document.

    The recording id is the file stem; the patient id is its first
    underscore-separated token.
    """
    path = Path(path)
    recording_id = path.stem
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise StorageError(f"cannot read annotation file {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: not valid UTF-8 JSON ({exc})") from exc
    if not isinstance(document, dict) or "event_annotation" not in document:
        raise FormatError(f"{path}: missing 'event_annotation' list")
    entries = document["event_annotation"]
    if not isinstance(entries, list):
        raise FormatError(f"{path}: 'event_annotation' must be a list")

    patient = patient_id_from_recording(recording_id)
    events = []
    for i, entry in enumerate(entries):
        where = f"{path} event {i}"
        if not isinstance(entry, dict):
            raise FormatError(f"{where}: entry must be an object")
        missing = [key for key in ("start", "end", "type") if key not in entry]
        if missing:
            raise FormatError(f"{where}: missing keys {missing}")
        events.append(
            RespiratoryEvent(
                recording_id=recording_id,
                onset_ms=_coerce_ms(entry["start"], "start", where),
                offset_ms=_coerce_ms(entry["end"], "end", where),
                label=parse_label(entry["type"]),
                patient_id=patient,
            )
        )
    return events


def write_annotations(path: str | Path, events: list[RespiratoryEvent]) -> None:
    """Write events of one recording in the same JSON schema the loader reads."""
    document = {
        "event_annotation": [
            {"start": e.onset_ms, "end": e.offset_ms, "type": e.label.value} for e in events
        ]
    }
    Path(path).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")


def slice_event(clip: AudioClip, event: RespiratoryEvent) -> AudioClip:
    """Extract the event's [onset, offset) sample range at the clip's rate."""
    rate = clip.sample_rate_hz
    start = event.onset_ms * rate // 1000
    stop = event.offset_ms * rate // 1000
    if stop > len(clip):
        raise ValidationError(
            f"{event.recording_id}: event [{event.onset_ms}, {event.offset_ms}) ms exceeds "
            f"clip duration {clip.duration_ms:.1f} ms"
        )
    return AudioClip(
        samples=clip.samples[start:stop].copy(),
        sample_rate_hz=rate,
        source=f"{clip.source}[{event.onset_ms}:{event.offset_ms}]",
    )
