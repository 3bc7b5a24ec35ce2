"""Challenge scoring: sensitivity, specificity, and their derived scores.

Counting rules over (true, predicted) label pairs:

    TAS = events whose true label is abnormal (anything but Normal)
    CAS = abnormal events whose predicted label matches the true label
    TNS = events whose true label is Normal
    CNS = normal events predicted Normal

    SN = CAS / TAS          SP = CNS / TNS
    AS = (SN + SP) / 2      HS = 2 SN SP / (SN + SP)    TS = (AS + HS) / 2

CAS demands the exact abnormal class. The looser abnormal-vs-normal
match is reported separately as `sn_detection`. Ratios with an empty
denominator are flagged as undefined, never coerced to a number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataio.events import LABELS, NUM_CLASSES, Label
from .dataio.splits import DatasetSplit
from .errors import ValidationError

UNDEFINED = "undefined"


@dataclass
class ConfusionMatrix:
    """Integer counts with rows = true class, columns = predicted class."""

    counts: np.ndarray = field(default_factory=lambda: np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64))

    def add(self, true_label: Label, predicted: Label) -> None:
        self.counts[true_label.index, predicted.index] += 1

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def row_sums(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def per_class_recall(self) -> dict[str, float | None]:
        recalls: dict[str, float | None] = {}
        for label in LABELS:
            row = self.counts[label.index]
            total = int(row.sum())
            recalls[label.value] = (int(row[label.index]) / total) if total > 0 else None
        return recalls

    def to_rows(self) -> list[list[int]]:
        return [[int(v) for v in row] for row in self.counts]


@dataclass
class ScoreReport:
    """All challenge figures for one evaluated split."""

    split_name: str
    cas: int
    tas: int
    cns: int
    tns: int
    sn: float | None
    sp: float | None
    average_score: float | None
    harmonic_score: float | None
    total_score: float | None
    sn_detection: float | None
    per_class_recall: dict[str, float | None]
    undefined_ratios: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        def show(value):
            return UNDEFINED if value is None else value

        return {
            "split": self.split_name,
            "counts": {"CAS": self.cas, "TAS": self.tas, "CNS": self.cns, "TNS": self.tns},
            "sensitivity": show(self.sn),
            "specificity": show(self.sp),
            "average_score": show(self.average_score),
            "harmonic_score": show(self.harmonic_score),
            "total_score": show(self.total_score),
            "sensitivity_detection_only": show(self.sn_detection),
            "per_class_recall": {k: show(v) for k, v in self.per_class_recall.items()},
            "undefined_ratios": list(self.undefined_ratios),
        }


def consistency_check(sn: float, sp: float) -> tuple[float, float, float]:
    """Derive (average, harmonic, total) scores from sensitivity/specificity."""
    if not (0.0 <= sn <= 1.0 and 0.0 <= sp <= 1.0):
        raise ValidationError(f"SN and SP must lie in [0, 1], got ({sn}, {sp})")
    average = (sn + sp) / 2.0
    harmonic = (2.0 * sn * sp / (sn + sp)) if (sn + sp) > 0 else 0.0
    total = (average + harmonic) / 2.0
    return average, harmonic, total


def score(
    pairs: list[tuple[Label, Label]], split_name: str = "unnamed"
) -> tuple[ScoreReport, ConfusionMatrix]:
    """Score a list of (true, predicted) label pairs."""
    if not pairs:
        raise ValidationError("cannot score an empty list of events")
    matrix = ConfusionMatrix()
    cas = tas = cns = tns = detected = 0
    for true_label, predicted in pairs:
        matrix.add(true_label, predicted)
        if true_label.is_abnormal:
            tas += 1
            if predicted == true_label:
                cas += 1
            if predicted.is_abnormal:
                detected += 1
        else:
            tns += 1
            if predicted == Label.NORMAL:
                cns += 1

    undefined = []
    sn = sp = sn_detection = None
    if tas > 0:
        sn = cas / tas
        sn_detection = detected / tas
    else:
        undefined.append("SN")
    if tns > 0:
        sp = cns / tns
    else:
        undefined.append("SP")

    average = harmonic = total = None
    if sn is not None and sp is not None:
        average, harmonic, total = consistency_check(sn, sp)
    report = ScoreReport(
        split_name=split_name,
        cas=cas, tas=tas, cns=cns, tns=tns,
        sn=sn, sp=sp,
        average_score=average, harmonic_score=harmonic, total_score=total,
        sn_detection=sn_detection,
        per_class_recall=matrix.per_class_recall(),
        undefined_ratios=undefined,
    )
    return report, matrix


def evaluate(
    params, cfg, split: DatasetSplit, corpus, jobs: int = 1
) -> tuple[ScoreReport, ConfusionMatrix]:
    """Run deterministic inference over a split and score the predictions.

    Per-event inference is pure, so `jobs > 1` fans it out over threads;
    the result is identical regardless of worker count.
    """
    from .model.network import predict_scores
    from .model.pipeline import prepare_input

    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    if not split.events:
        raise ValidationError(f"split {split.name!r} is empty")

    def predict_one(event) -> Label:
        waveform, spec = prepare_input(corpus.event_clip(event), cfg, train_mode=False)
        scores = predict_scores(waveform, spec, params, cfg)
        return LABELS[int(np.argmax(scores))]

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            predictions = list(pool.map(predict_one, split.events))
    else:
        predictions = [predict_one(event) for event in split.events]
    pairs = [(event.label, predicted) for event, predicted in zip(split.events, predictions)]
    return score(pairs, split_name=split.name)


def render_report(
    report: ScoreReport, matrix: ConfusionMatrix, config: dict | None = None
) -> str:
    """Stable textual serialization (JSON, sorted keys, fixed float repr)."""
    document = {
        "report": report.to_dict(),
        "confusion_matrix": {
            "labels": [label.value for label in LABELS],
            "rows_true_cols_predicted": matrix.to_rows(),
        },
    }
    if config is not None:
        document["config"] = config
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def write_report(
    path: str | Path,
    report: ScoreReport,
    matrix: ConfusionMatrix,
    config: dict | None = None,
) -> None:
    Path(path).write_text(render_report(report, matrix, config), encoding="utf-8")
