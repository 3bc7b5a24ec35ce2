"""Band-limited sample-rate conversion by a polyphase Kaiser-windowed sinc
(J. O. Smith, "Digital Audio Resampling", https://ccrma.stanford.edu/~jos/resample/)."""

from __future__ import annotations

from math import gcd

import numpy as np

from ..dataio.audio import AudioClip
from ..errors import ValidationError

# 16 sinc zero-crossings per side and beta=8.6 give ~90 dB stopband,
# far below the 1% amplitude tolerance the pipeline needs.
_ZERO_CROSSINGS = 16
_KAISER_BETA = 8.6


def resample(clip: AudioClip, target_hz: int) -> AudioClip:
    """Resample to `target_hz`; output length is round(n * target / source).

    The interpolation kernel is a sinc low-passed at the smaller of the
    two Nyquist frequencies, so both up- and down-sampling are alias-free.
    It is sampled once on the upsampled grid of the gcd-reduced rate ratio
    and applied one polyphase branch per output sample.
    """
    from scipy.signal import resample_poly

    if target_hz <= 0:
        raise ValidationError(f"target sample rate must be positive, got {target_hz}")
    source_hz = clip.sample_rate_hz
    if target_hz == source_hz:
        return AudioClip(clip.samples.copy(), source_hz, source=clip.source)

    n_in = clip.samples.size
    n_out = int(round(n_in * target_hz / source_hz))
    if n_out < 1:
        raise ValidationError(
            f"resampling {n_in} samples from {source_hz} to {target_hz} Hz leaves no samples"
        )

    common = gcd(source_hz, target_hz)
    up, down = target_hz // common, source_hz // common
    # Cutoff relative to the input Nyquist; <1 only when downsampling.
    cutoff = min(1.0, target_hz / source_hz)
    half_width = int(np.ceil(_ZERO_CROSSINGS / cutoff))

    # Kernel at input-time offsets t = i/up, |t| <= half_width; the 1/up
    # undoes the gain resample_poly applies for the stuffed zeros.
    t = np.arange(-half_width * up, half_width * up + 1) / up
    kernel = cutoff * np.sinc(cutoff * t) * np.kaiser(t.size, _KAISER_BETA) / up
    # resample_poly convolves, so coefficient t weighs the input sample t
    # before the output; taps span (-half_width, half_width] after it.
    kernel[-1] = 0.0

    out = resample_poly(clip.samples, up, down, window=kernel)[:n_out]
    return AudioClip(np.clip(out, -1.0, 1.0), target_hz, source=clip.source)
