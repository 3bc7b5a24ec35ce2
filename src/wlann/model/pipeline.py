"""Clip-to-tensor preprocessing: resample, band-pass, pad/crop, log-mel."""

from __future__ import annotations

import numpy as np

from ..dataio.audio import AudioClip
from ..dsp import LogMelSpectrogram, apply_filter, log_mel, resample
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


def prepare_input(clip: AudioClip, cfg: WlannConfig) -> tuple[np.ndarray, LogMelSpectrogram]:
    """Produce the (1, L) waveform tensor and its log-mel spectrogram.

    The chain is: resample to the model rate, Butterworth band-pass,
    center pad-or-crop to the fixed duration. The spectrogram is computed
    from the same padded waveform and is never augmented here: training
    applies `spec_augment` to it per step.

    This is where the config's dtype reaches the front end: the resampler's
    GEMM and the whole log-mel run in it, and both outputs come back in it.
    The band-pass always runs in float64: in float32 its rounding moves the
    stop-band mel bins by up to ~4 log units.
    """
    dtype = cfg.numpy_dtype
    padded = _preprocess(clip, cfg, dtype)
    waveform = padded[None, :].astype(dtype, copy=False)
    spec = log_mel(AudioClip(padded, cfg.sample_rate_hz, source=clip.source), dtype)
    return waveform, spec


def _preprocess(clip: AudioClip, cfg: WlannConfig, dtype) -> np.ndarray:
    """The float64 band-passed clip at the model rate and length; `dtype` is the resampler's."""
    resampled = resample(clip, cfg.sample_rate_hz, dtype)
    bandpass = design_butterworth_bandpass(
        cfg.bandpass.order, cfg.bandpass.low_hz, cfg.bandpass.high_hz, cfg.sample_rate_hz
    )
    filtered = apply_filter(bandpass, resampled).samples
    if filtered.size == cfg.fixed_samples:  # already a fresh array
        return filtered
    return pad_or_crop_center(filtered, cfg.fixed_samples)
