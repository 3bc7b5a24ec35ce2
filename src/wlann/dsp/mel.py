"""128-bin log-mel filterbank features (25 ms Hamming window, 10 ms hop).

Frames of 400 samples are taken every 160 samples at 16 kHz, Hamming
windowed, zero-padded to a 512-point real FFT, and the power spectrum is
mapped through 128 triangular HTK-mel filters spanning 0-8000 Hz. Filter
peaks are normalized to exactly 1; energies are floored at 1e-10 before
the natural log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

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
    """Log filterbank energies, shaped (mel bins, frames)."""

    values: np.ndarray
    mel_bins: int = MEL_BINS
    window_ms: int = WINDOW_MS
    hop_ms: int = HOP_MS
    sample_rate_hz: int = SAMPLE_RATE_HZ
    filter_centers_hz: np.ndarray = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[0] != self.mel_bins:
            raise ValidationError(
                f"log-mel values must be ({self.mel_bins}, frames), got {self.values.shape}"
            )

    @property
    def num_frames(self) -> int:
        return self.values.shape[1]


@lru_cache(maxsize=1)
def _cached_filterbank() -> tuple[np.ndarray, np.ndarray]:
    return mel_filterbank()


def log_mel(clip: AudioClip) -> LogMelSpectrogram:
    """Compute the (128, frames) log-mel spectrogram of a 16 kHz clip."""
    if clip.sample_rate_hz != SAMPLE_RATE_HZ:
        raise ValidationError(
            f"log-mel extraction expects {SAMPLE_RATE_HZ} Hz input, got {clip.sample_rate_hz} Hz"
        )
    num_frames = frame_count(len(clip))
    weights, centers = _cached_filterbank()

    window = np.hamming(WINDOW_SAMPLES)
    starts = np.arange(num_frames) * HOP_SAMPLES
    frames = clip.samples[starts[:, None] + np.arange(WINDOW_SAMPLES)[None, :]]
    spectrum = np.fft.rfft(frames * window, n=FFT_SIZE, axis=1)
    power = np.abs(spectrum) ** 2

    energies = power @ weights.T  # (frames, mel)
    values = np.log(np.maximum(energies, ENERGY_FLOOR)).T
    return LogMelSpectrogram(values=values, filter_centers_hz=centers)
