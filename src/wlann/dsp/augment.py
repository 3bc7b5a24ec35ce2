"""Training-time spectrogram augmentation: time warping plus frequency masking.

`AugmentConfig` is the one declaration of the augmentation strengths;
`spec_augment(spec, aug, seed)` applies them. The warp is the
two-segment piecewise-linear variant: one interior pivot frame is
displaced along the time axis and the two halves of the spectrogram are
linearly re-timed around it, endpoints fixed. Frequency masks overwrite
whole mel rows with the spectrogram's mean value rather than a floor
constant, so masked features stay inside the normal value range.
Everything is driven by the explicit seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..errors import ConfigError, ValidationError
from .mel import LogMelSpectrogram


@dataclass(frozen=True)
class AugmentConfig:
    """Training-time spectrogram augmentation strengths (0 disables)."""

    time_warp_frames: int = 5
    freq_mask_width: int = 24
    freq_mask_count: int = 2

    def __post_init__(self) -> None:
        for value in asdict(self).values():
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ConfigError(f"augmentation strengths must be integers >= 0, got {self}")


def _warp_positions(num_frames: int, pivot: int, shift: int) -> np.ndarray:
    """Source frame position for each output frame under the piecewise map.

    The displaced pivot is clamped into [1, frames - 2] so both
    segments keep a nonzero length.
    """
    positions = np.empty(num_frames)
    new_pivot = min(max(pivot + shift, 1), num_frames - 2)
    head = np.arange(new_pivot + 1)
    positions[: new_pivot + 1] = head * (pivot / new_pivot)
    tail = np.arange(new_pivot + 1, num_frames)
    span_out = (num_frames - 1) - new_pivot
    span_in = (num_frames - 1) - pivot
    positions[new_pivot + 1 :] = pivot + (tail - new_pivot) * (span_in / span_out)
    return positions


def _linear_resample_columns(values: np.ndarray, positions: np.ndarray) -> np.ndarray:
    lower = np.floor(positions).astype(np.int64)
    upper = np.minimum(lower + 1, values.shape[1] - 1)
    frac = (positions - lower).astype(values.dtype, copy=False)
    return values[:, lower] * (1.0 - frac) + values[:, upper] * frac


def spec_augment(spec: LogMelSpectrogram, aug: AugmentConfig, seed: int) -> LogMelSpectrogram:
    """Apply time warping then frequency masking; deterministic given the seed.

    All-zero strengths return an unchanged copy.
    """
    if aug.freq_mask_width >= spec.mel_bins:
        raise ValidationError(
            f"frequency mask width {aug.freq_mask_width} must be < {spec.mel_bins} mel bins"
        )
    num_frames = spec.num_frames
    warp = aug.time_warp_frames
    if warp > 0 and 2 * warp >= num_frames:
        raise ValidationError(
            f"time warp of {warp} frames is degenerate for a {num_frames}-frame spectrogram"
        )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    values = spec.values.copy()

    if warp > 0:
        pivot = int(rng.integers(warp, num_frames - warp))
        shift = int(rng.integers(-warp, warp + 1))
        if shift != 0:
            values = _linear_resample_columns(values, _warp_positions(num_frames, pivot, shift))

    if aug.freq_mask_count > 0 and aug.freq_mask_width > 0:
        fill = float(values.mean())
        for _ in range(aug.freq_mask_count):
            width = int(rng.integers(0, aug.freq_mask_width + 1))
            start = int(rng.integers(0, spec.mel_bins - width + 1))
            values[start : start + width, :] = fill

    return LogMelSpectrogram(values)
