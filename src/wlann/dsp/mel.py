"""128-bin log-mel filterbank features (25 ms Hamming window, 10 ms hop).

Frames of 400 samples are taken every 160 samples at 16 kHz, Hamming
windowed, zero-padded to a 512-point real FFT, and the power spectrum is
mapped through 128 triangular HTK-mel filters spanning 0-8000 Hz. Filter
peaks are normalized to exactly 1; energies are floored at 1e-10 before
the natural log.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..dataio.audio import AudioClip
from ..errors import ValidationError

MEL_BINS = 128
WINDOW_MS = 25
HOP_MS = 10
SAMPLE_RATE_HZ = 16000
FFT_SIZE = 512
ENERGY_FLOOR = 1e-10

WINDOW_SAMPLES = SAMPLE_RATE_HZ * WINDOW_MS // 1000  # 400
HOP_SAMPLES = SAMPLE_RATE_HZ * HOP_MS // 1000  # 160

_FRAMES_PER_BLOCK = 64  # frames per window/FFT/magnitude block: ~0.5 MB of scratch


def hz_to_mel(freq_hz):
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def frame_count(num_samples: int) -> int:
    """Number of full analysis frames for a signal of `num_samples`."""
    if num_samples < WINDOW_SAMPLES:
        raise ValidationError(
            f"need at least {WINDOW_SAMPLES} samples for one frame, got {num_samples}"
        )
    return (num_samples - WINDOW_SAMPLES) // HOP_SAMPLES + 1


def mel_filterbank(
    num_filters: int = MEL_BINS,
    fft_size: int = FFT_SIZE,
    sample_rate_hz: int = SAMPLE_RATE_HZ,
) -> tuple[np.ndarray, np.ndarray]:
    """Triangular mel filters sampled on FFT bins, peak-normalized to 1.

    Returns (weights, center_frequencies) with weights shaped
    (num_filters, fft_size // 2 + 1). With 128 filters the lowest
    triangles are narrower than one FFT bin; any filter whose triangle
    misses every bin degenerates to a unit spike on the bin nearest its
    center so the peak-of-1 guarantee holds for all filters.
    """
    num_bins = fft_size // 2 + 1
    bin_freqs = np.arange(num_bins) * sample_rate_hz / fft_size
    mel_points = np.linspace(0.0, hz_to_mel(sample_rate_hz / 2.0), num_filters + 2)
    hz_points = mel_to_hz(mel_points)

    weights = np.zeros((num_filters, num_bins))
    for i in range(num_filters):
        low, center, high = hz_points[i], hz_points[i + 1], hz_points[i + 2]
        rising = (bin_freqs - low) / (center - low)
        falling = (high - bin_freqs) / (high - center)
        triangle = np.maximum(0.0, np.minimum(rising, falling))
        peak = triangle.max()
        if peak > 0.0:
            weights[i] = triangle / peak
        else:
            weights[i, int(np.argmin(np.abs(bin_freqs - center)))] = 1.0
    return weights, hz_points[1:-1]


@dataclass
class LogMelSpectrogram:
    """Log filterbank energies, shaped (mel bins, frames): float32 or float64 values are kept as
    given, anything else becomes float64."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values)
        if self.values.dtype not in (np.float32, np.float64):
            self.values = self.values.astype(np.float64)
        if self.values.ndim != 2 or self.values.shape[0] != MEL_BINS:
            raise ValidationError(
                f"log-mel values must be ({MEL_BINS}, frames), got {self.values.shape}"
            )

    @property
    def mel_bins(self) -> int:
        return self.values.shape[0]

    @property
    def num_frames(self) -> int:
        return self.values.shape[1]


@lru_cache(maxsize=2)
def _cached_filterbank(dtype=np.float64) -> np.ndarray:
    weights = mel_filterbank()[0].astype(dtype, copy=False)
    weights.flags.writeable = False
    return weights


@lru_cache(maxsize=2)
def _cached_window(dtype=np.float64) -> np.ndarray:
    window = np.hamming(WINDOW_SAMPLES).astype(dtype, copy=False)
    window.flags.writeable = False
    return window


def log_mel(clip: AudioClip, dtype=np.float64) -> LogMelSpectrogram:
    """Compute the (128, frames) log-mel spectrogram of a 16 kHz clip, in `dtype` from the window
    on (float32 or float64)."""
    from scipy.fft import rfft  # keeps float32, which np.fft.rfft does not

    if clip.sample_rate_hz != SAMPLE_RATE_HZ:
        raise ValidationError(
            f"log-mel extraction expects {SAMPLE_RATE_HZ} Hz input, got {clip.sample_rate_hz} Hz"
        )
    frame_count(len(clip))  # rejects clips shorter than one window
    weights, window = _cached_filterbank(dtype), _cached_window(dtype)

    frames = sliding_window_view(clip.samples, WINDOW_SAMPLES)[::HOP_SAMPLES]
    # Window, FFT and magnitude run per block of frames through cache-sized scratch; each
    # frame's bits do not depend on the block it is in.
    block = min(_FRAMES_PER_BLOCK, frames.shape[0])
    windowed = np.empty((block, WINDOW_SAMPLES), dtype=dtype)
    power = np.empty((frames.shape[0], FFT_SIZE // 2 + 1), dtype=dtype)
    for start in range(0, frames.shape[0], block):
        count = min(block, frames.shape[0] - start)
        np.multiply(frames[start:start + count], window, out=windowed[:count], dtype=dtype)
        np.abs(rfft(windowed[:count], n=FFT_SIZE, axis=1), out=power[start:start + count])
    np.square(power, out=power)

    # One GEMM over all frames: a block of one frame would go to gemv, which sums in another order.
    energies = power @ weights.T  # (frames, mel)
    np.maximum(energies, ENERGY_FLOOR, out=energies)
    return LogMelSpectrogram(np.log(energies, out=energies).T)
