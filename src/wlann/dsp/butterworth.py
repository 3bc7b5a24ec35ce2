"""Digital Butterworth band-pass: designed by `scipy.signal.butter` with the
band edges prewarped to land at -3 dB, kept and run as second-order sections.

An order-4 prototype yields 8 poles in 4 sections. Sections stay accurate at
orders where the expanded b(z)/a(z) polynomials lose their poles to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..dataio.audio import AudioClip
from ..errors import ValidationError


@dataclass(frozen=True)
class BandpassFilter:
    """Second-order sections, rows [b0 b1 b2 a0 a1 a2], plus the design."""

    sos: np.ndarray
    order: int
    low_hz: float
    high_hz: float
    sample_rate_hz: int

    def gain_db(self, freqs_hz: np.ndarray | float) -> np.ndarray:
        from scipy.signal import sosfreqz

        freqs = np.atleast_1d(np.asarray(freqs_hz, dtype=np.float64))
        _, response = sosfreqz(self.sos, worN=freqs, fs=self.sample_rate_hz)
        return 20.0 * np.log10(np.maximum(np.abs(response), 1e-300))

    def poles(self) -> np.ndarray:
        # Denominators only: sos2zpk also factors the numerators, and warns
        # they are badly conditioned for narrow low bands such as 1-2 Hz.
        return np.concatenate([np.roots(a) for a in self.sos[:, 3:]])


@lru_cache(maxsize=8)
def design_butterworth_bandpass(
    order: int, low_hz: float, high_hz: float, fs_hz: int
) -> BandpassFilter:
    """Design a band-pass filter from an order-`order` Butterworth prototype.

    Cached, because callers design the same filter once per clip; every
    caller shares the returned filter.
    """
    from scipy.signal import butter

    nyquist = fs_hz / 2.0
    if not (0.0 < low_hz < high_hz < nyquist):
        raise ValidationError(
            f"band edges must satisfy 0 < {low_hz} < {high_hz} < Nyquist ({nyquist})"
        )
    if order < 1:
        raise ValidationError(f"filter order must be >= 1, got {order}")

    sos = butter(order, (low_hz, high_hz), btype="bandpass", fs=fs_hz, output="sos")
    designed = BandpassFilter(
        sos=sos, order=order, low_hz=float(low_hz), high_hz=float(high_hz), sample_rate_hz=fs_hz
    )
    if not np.all(np.abs(designed.poles()) < 1.0):
        raise ValidationError(
            f"designed filter is unstable for edges ({low_hz}, {high_hz}) at {fs_hz} Hz"
        )
    return designed


def apply_filter(bandpass: BandpassFilter, clip: AudioClip) -> AudioClip:
    """Run the cascaded sections over the clip with zero initial state."""
    from scipy.signal import sosfilt

    if clip.sample_rate_hz != bandpass.sample_rate_hz:
        raise ValidationError(
            f"filter designed for {bandpass.sample_rate_hz} Hz cannot run on a "
            f"{clip.sample_rate_hz} Hz clip"
        )
    filtered = sosfilt(bandpass.sos, clip.samples)
    return AudioClip(np.clip(filtered, -1.0, 1.0), clip.sample_rate_hz, source=clip.source)
