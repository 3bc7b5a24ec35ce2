"""Deterministic signal preprocessing: resampling, band-pass filtering,
log-mel extraction, and spectrogram augmentation."""

from .augment import AugmentConfig, spec_augment
from .butterworth import BandpassFilter, apply_filter, design_butterworth_bandpass
from .mel import (
    ENERGY_FLOOR,
    FFT_SIZE,
    HOP_SAMPLES,
    MEL_BINS,
    SAMPLE_RATE_HZ,
    WINDOW_SAMPLES,
    LogMelSpectrogram,
    frame_count,
    hz_to_mel,
    log_mel,
    mel_filterbank,
    mel_to_hz,
)
from .resample import resample

__all__ = [
    "AugmentConfig",
    "BandpassFilter",
    "ENERGY_FLOOR",
    "FFT_SIZE",
    "HOP_SAMPLES",
    "LogMelSpectrogram",
    "MEL_BINS",
    "SAMPLE_RATE_HZ",
    "WINDOW_SAMPLES",
    "apply_filter",
    "design_butterworth_bandpass",
    "frame_count",
    "hz_to_mel",
    "log_mel",
    "mel_filterbank",
    "mel_to_hz",
    "resample",
    "spec_augment",
]
