"""Training-time spectrogram augmentation: time warping plus frequency masking.

The warp is the two-segment piecewise-linear variant: one interior pivot
frame is displaced along the time axis and the two halves of the
spectrogram are linearly re-timed around it, endpoints fixed. Frequency
masks overwrite whole mel rows with the spectrogram's mean value rather
than a floor constant, so masked features stay inside the normal value
range. Everything is driven by an explicit seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from .mel import LogMelSpectrogram


@dataclass(frozen=True)
class AugmentParams:
    """Knobs for spec_augment; zeros everywhere make it the identity."""

    time_warp_frames: int = 5
    freq_mask_width: int = 24
    freq_mask_count: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.time_warp_frames < 0 or self.freq_mask_width < 0 or self.freq_mask_count < 0:
            raise ValidationError("augmentation parameters must be non-negative")

    def validate_for(self, mel_bins: int) -> None:
        if self.freq_mask_width >= mel_bins:
            raise ValidationError(
                f"frequency mask width {self.freq_mask_width} must be < {mel_bins} mel bins"
            )


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
    frac = positions - lower
    return values[:, lower] * (1.0 - frac) + values[:, upper] * frac


def spec_augment(spec: LogMelSpectrogram, params: AugmentParams) -> LogMelSpectrogram:
    """Apply time warping then frequency masking; deterministic given the seed."""
    params.validate_for(spec.mel_bins)
    num_frames = spec.num_frames
    warp = params.time_warp_frames
    if warp > 0 and 2 * warp >= num_frames:
        raise ValidationError(
            f"time warp of {warp} frames is degenerate for a {num_frames}-frame spectrogram"
        )
    rng = np.random.default_rng(np.random.SeedSequence(params.seed))
    values = spec.values.copy()

    if warp > 0:
        pivot = int(rng.integers(warp, num_frames - warp))
        shift = int(rng.integers(-warp, warp + 1))
        if shift != 0:
            values = _linear_resample_columns(values, _warp_positions(num_frames, pivot, shift))

    if params.freq_mask_count > 0 and params.freq_mask_width > 0:
        fill = float(values.mean())
        for _ in range(params.freq_mask_count):
            width = int(rng.integers(0, params.freq_mask_width + 1))
            start = int(rng.integers(0, spec.mel_bins - width + 1))
            values[start : start + width, :] = fill

    return LogMelSpectrogram(
        values=values,
        mel_bins=spec.mel_bins,
        window_ms=spec.window_ms,
        hop_ms=spec.hop_ms,
        sample_rate_hz=spec.sample_rate_hz,
        filter_centers_hz=spec.filter_centers_hz,
    )
