"""Clip-to-tensor preprocessing: resample, band-pass, pad/crop, log-mel."""

from __future__ import annotations

import numpy as np

from ..dataio.audio import AudioClip
from ..dsp import AugmentParams, LogMelSpectrogram, apply_filter, log_mel, resample, spec_augment
from ..dsp.butterworth import design_butterworth_bandpass
from .config import WlannConfig


def pad_or_crop_center(samples: np.ndarray, length: int) -> np.ndarray:
    """Zero-pad symmetrically, or crop the centered window, to `length`."""
    n = samples.size
    if n == length:
        return samples.copy()
    if n < length:
        out = np.zeros(length, dtype=samples.dtype)
        left = (length - n) // 2
        out[left : left + n] = samples
        return out
    start = (n - length) // 2
    return samples[start : start + length].copy()


def prepare_input(
    clip: AudioClip,
    cfg: WlannConfig,
    train_mode: bool = False,
    augment_seed: int = 0,
) -> tuple[np.ndarray, LogMelSpectrogram]:
    """Produce the (1, L) waveform tensor and its log-mel spectrogram.

    The chain is: resample to the model rate, Butterworth band-pass,
    center pad-or-crop to the fixed duration. The spectrogram is computed
    from the same padded waveform; in training mode it is augmented with
    the given per-example seed.
    """
    padded = _preprocess(clip, cfg)
    waveform = padded[None, :].astype(cfg.numpy_dtype)
    spec = log_mel(AudioClip(padded, cfg.sample_rate_hz, source=clip.source))
    if train_mode:
        spec = augment_spectrogram(spec, cfg, augment_seed)
    return waveform, spec


def augment_spectrogram(
    spec: LogMelSpectrogram, cfg: WlannConfig, augment_seed: int
) -> LogMelSpectrogram:
    """Apply the config's augmentation strengths; identity when all are zero."""
    aug = cfg.augment
    if aug.time_warp_frames == 0 and (aug.freq_mask_count == 0 or aug.freq_mask_width == 0):
        return spec
    params = AugmentParams(
        time_warp_frames=aug.time_warp_frames,
        freq_mask_width=aug.freq_mask_width,
        freq_mask_count=aug.freq_mask_count,
        seed=augment_seed,
    )
    return spec_augment(spec, params)


def _preprocess(clip: AudioClip, cfg: WlannConfig) -> np.ndarray:
    resampled = resample(clip, cfg.sample_rate_hz)
    bandpass = design_butterworth_bandpass(
        cfg.bandpass.order, cfg.bandpass.low_hz, cfg.bandpass.high_hz, cfg.sample_rate_hz
    )
    filtered = apply_filter(bandpass, resampled)
    return pad_or_crop_center(filtered.samples, cfg.fixed_samples)
