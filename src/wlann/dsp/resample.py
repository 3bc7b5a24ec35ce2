"""Band-limited sample-rate conversion by a polyphase Kaiser-windowed sinc
(J. O. Smith, "Digital Audio Resampling", https://ccrma.stanford.edu/~jos/resample/;
R. E. Crochiere and L. R. Rabiner, "Multirate Digital Signal Processing", 1983)."""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..dataio.audio import AudioClip
from ..errors import ValidationError

# 16 sinc zero-crossings per side and beta=8.6 give ~90 dB stopband,
# far below the 1% amplitude tolerance the pipeline needs.
_ZERO_CROSSINGS = 16
_KAISER_BETA = 8.6

PERIOD_MATRIX_BYTES = 4 << 20  # a rate pair whose period matrix is larger keeps resample_poly
_MIN_PERIOD = 128  # outputs per period, rounded up to a multiple of `up`
# Output columns per GEMM, so each reads only its band of the window. Of 8 to 48, 16 was
# fastest over 8, 44.1, 48 and 96 kHz inputs (one BLAS thread).
_PHASES_PER_GEMM = 16


@lru_cache(maxsize=8)
def _polyphase_kernel(source_hz: int, target_hz: int) -> tuple[np.ndarray, int, int]:
    """The read-only Kaiser-sinc kernel and (up, down) factors for one rate pair."""
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
    kernel.flags.writeable = False
    return kernel, up, down


def _period_shape(source_hz: int, target_hz: int) -> tuple[int, int, int, int]:
    """(window inputs, outputs, input step, half width) of one period of the GEMM path.

    A period is R = up * ceil(128 / up) consecutive outputs, so it starts
    a whole R * down / up inputs after the previous one, and its window
    reaches from half_width inputs before its first output to half_width
    after its last.
    """
    kernel, up, down = _polyphase_kernel(source_hz, target_hz)
    half_width = (kernel.size - 1) // (2 * up)
    outputs = up * -(-_MIN_PERIOD // up)
    rows = (outputs - 1) * down // up + 2 * half_width + 1
    return rows, outputs, outputs // up * down, half_width


def uses_gemm(source_hz: int, target_hz: int) -> bool:
    """Whether `resample` takes the GEMM path: its float64 period matrix fits the cache
    budget. Every standard rate from 4 to 96 kHz to 16 kHz needs at most 2.3 MiB; a
    pathological ratio such as 44101 -> 16000 Hz (R = 16000 outputs) would need 5.6 GB."""
    rows, outputs, _, _ = _period_shape(source_hz, target_hz)
    return rows * outputs * 8 <= PERIOD_MATRIX_BYTES


@lru_cache(maxsize=8)
def _period_matrix(source_hz: int, target_hz: int) -> np.ndarray:
    """The read-only (window inputs, R) matrix taking one period's window to its outputs.

    resample_poly scales the kernel by `up` and weighs input i of output m by
    h[m * down + half_len - i * up] (half_len = up * half_width). In window
    coordinates, output r of a period reads rows r * down // up + 1 to
    r * down // up + 2 * half_width, and row j gets h[r * down + 2 * half_len - j * up].
    """
    kernel, up, down = _polyphase_kernel(source_hz, target_hz)
    rows, outputs, _, half_width = _period_shape(source_hz, target_hz)
    phase = np.arange(outputs)
    band = (phase * down // up)[:, None] + np.arange(1, 2 * half_width + 1)
    taps = (phase * down)[:, None] + (kernel.size - 1) - band * up
    matrix = np.zeros((rows, outputs))
    matrix[band, phase[:, None]] = (kernel * up)[taps]
    matrix.flags.writeable = False
    return matrix


def _padded_windows(x: np.ndarray, first: int, count: int, step: int, rows: int,
                    half_width: int) -> np.ndarray:
    """The windows of periods first .. first + count - 1, over a zeroed copy of just their span."""
    start = first * step - half_width
    span = np.zeros((count - 1) * step + rows)
    lo, hi = max(start, 0), min(start + span.size, x.size)
    span[lo - start:hi - start] = x[lo:hi]
    return as_strided(span, (count, rows), (step * span.itemsize, span.itemsize), writeable=False)


def _resample_gemm(x: np.ndarray, source_hz: int, target_hz: int, n_out: int) -> np.ndarray:
    """resample_poly's first n_out outputs, as period windows @ the period matrix.

    Period p's window is x[p * step - half_width:][:rows], read as zero outside x. Only the
    head periods, whose windows start before x, and the tail periods, whose windows end after
    it, go through small zeroed buffers; the interior windows are views of x itself. NumPy hands
    a one-row matmul to gemv, which sums in another order, so each block keeps at least 2 rows,
    and a clip too short for three such blocks takes one zeroed buffer.
    """
    _, up, down = _polyphase_kernel(source_hz, target_hz)
    matrix = _period_matrix(source_hz, target_hz)
    rows, outputs, step, half_width = _period_shape(source_hz, target_hz)
    x = np.ascontiguousarray(x)

    periods = -(-n_out // outputs)
    # x fits: the windows reach half_width >= 16 * down / up inputs past output n_out - 1.
    head = max(2, -(-half_width // step))
    tail = min(periods - 2, (x.size + half_width - rows) // step + 1)
    if tail - head >= 2:
        interior = as_strided(x[head * step - half_width:], (tail - head, rows),
                              (step * x.itemsize, x.itemsize), writeable=False)
        blocks = [(0, _padded_windows(x, 0, head, step, rows, half_width)),
                  (head, interior),
                  (tail, _padded_windows(x, tail, periods - tail, step, rows, half_width))]
    else:
        blocks = [(0, _padded_windows(x, 0, periods, step, rows, half_width))]

    out = np.empty((periods, outputs))
    for first_period, windows in blocks:
        block_out = out[first_period:first_period + windows.shape[0]]
        for first in range(0, outputs, _PHASES_PER_GEMM):
            last = min(outputs, first + _PHASES_PER_GEMM) - 1
            # Only the rows of these columns' sinc band.
            lo, hi = first * down // up + 1, last * down // up + 2 * half_width + 1
            np.matmul(windows[:, lo:hi], matrix[lo:hi, first:last + 1],
                      out=block_out[:, first:last + 1])
    return out.reshape(-1)[:n_out]


def resample(clip: AudioClip, target_hz: int) -> AudioClip:
    """Resample to `target_hz`; output length is round(n * target / source).

    The interpolation kernel is a sinc low-passed at the smaller of the
    two Nyquist frequencies, so both up- and down-sampling are alias-free.
    It is sampled once per rate pair, on the upsampled grid of the
    gcd-reduced rate ratio. Where `uses_gemm` holds, the clip is cut into
    periods of R outputs, which all apply the same taps to their windows,
    so the conversion is a few GEMMs with one cached period matrix; other
    pairs call scipy's `resample_poly` itself. The GEMM sums each output in
    another order, so on samples in [-1, 1] it is within 1e-15 of
    `resample_poly` with the same kernel for every rate from 4 to 96 kHz
    to 16 kHz and for 16 to 8 kHz. Longer kernels drift further (1.7e-15
    at 192 to 16 kHz, 384 taps per output).
    """
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

    if uses_gemm(source_hz, target_hz):
        out = _resample_gemm(clip.samples, source_hz, target_hz, n_out)
    else:
        from scipy.signal import resample_poly

        kernel, up, down = _polyphase_kernel(source_hz, target_hz)
        out = resample_poly(clip.samples, up, down, window=kernel)[:n_out]
    return AudioClip(np.clip(out, -1.0, 1.0, out=out), target_hz, source=clip.source)
