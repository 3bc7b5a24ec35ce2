"""Sample-rate conversion: length law, identity, tone fidelity, and the GEMM path's bound."""

import importlib

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided
from scipy.signal import resample_poly

from wlann.dataio import AudioClip
from wlann.dsp import resample
from wlann.dsp.resample import (
    PERIOD_MATRIX_BYTES,
    _period_matrix,
    _resample_gemm,
    _period_shape,
    _polyphase_kernel,
    uses_gemm,
)
from wlann.errors import ValidationError

resample_module = importlib.import_module("wlann.dsp.resample")  # `wlann.dsp.resample` is the function

# Every standard rate the corpora and generic WAVs bring, to the model's 16 kHz; and one downsampler.
GEMM_PAIRS = [(4000, 16000), (8000, 16000), (11025, 16000), (22050, 16000), (32000, 16000),
              (44100, 16000), (48000, 16000), (96000, 16000), (16000, 8000)]
GEMM_BOUND = 1e-15  # declared: max |GEMM path - resample_poly| on samples in [-1, 1]


def tone(freq_hz, rate_hz, n, amplitude=0.5):
    t = np.arange(n) / rate_hz
    return AudioClip(amplitude * np.sin(2 * np.pi * freq_hz * t), rate_hz)


def quadrature_amplitude(samples, freq_hz, rate_hz):
    """Projection onto the sine/cosine pair at freq_hz (independent oracle)."""
    t = np.arange(samples.size) / rate_hz
    c = 2.0 * np.mean(samples * np.cos(2 * np.pi * freq_hz * t))
    s = 2.0 * np.mean(samples * np.sin(2 * np.pi * freq_hz * t))
    return float(np.hypot(c, s))


def poly_reference(x, source_hz, target_hz):
    """scipy's `resample_poly` with the module's kernel, cut and clipped as `resample` does."""
    kernel, up, down = _polyphase_kernel(source_hz, target_hz)
    out = resample_poly(x, up, down, window=kernel)[:round(x.size * target_hz / source_hz)]
    return np.clip(out, -1.0, 1.0)


def direct_sum(x, source_hz, target_hz):
    """out[m] = sum_k x[k] h(k - m * source / target), tap by tap (test-local oracle).

    h is the 16-zero-crossing, beta=8.6 Kaiser-windowed sinc at the lower
    Nyquist; the taps k - position run over (-half_width, half_width].
    """
    cutoff = min(1.0, target_hz / source_hz)
    half_width = int(np.ceil(16 / cutoff))
    positions = np.arange(round(x.size * target_hz / source_hz)) * (source_hz / target_hz)
    taps = np.floor(positions).astype(np.int64)[:, None] + np.arange(1 - half_width, half_width + 1)
    t = taps - positions[:, None]
    window = np.i0(8.6 * np.sqrt(np.clip(1.0 - (t / half_width) ** 2, 0.0, None))) / np.i0(8.6)
    inside = (taps >= 0) & (taps < x.size)
    gathered = np.where(inside, x[np.clip(taps, 0, x.size - 1)], 0.0)
    return np.clip(np.sum(gathered * cutoff * np.sinc(cutoff * t) * window, axis=1), -1.0, 1.0)


class TestResample:
    @pytest.mark.parametrize(
        "source_hz, target_hz, n",
        [(8000, 16000, 4001), (44100, 16000, 4413), (16000, 8000, 4001), (22050, 16000, 2207)],
    )
    def test_matches_direct_sum(self, rng, source_hz, target_hz, n):
        x = rng.uniform(-0.5, 0.5, n)
        out = resample(AudioClip(x, source_hz), target_hz)
        assert len(out) == round(n * target_hz / source_hz)
        np.testing.assert_allclose(out.samples, direct_sum(x, source_hz, target_hz), rtol=0, atol=1e-10)

    def test_kernel_cached_per_rate_pair_and_read_only(self):
        kernel, up, down = _polyphase_kernel(44100, 16000)
        assert (up, down) == (160, 441)
        assert _polyphase_kernel(44100, 16000)[0] is kernel
        assert not kernel.flags.writeable
        with pytest.raises(ValueError):
            kernel[0] = 1.0

    def test_doubling_length(self):
        clip = AudioClip(np.random.default_rng(0).uniform(-0.5, 0.5, 8000), 8000)
        out = resample(clip, 16000)
        assert len(out) == 16000
        assert out.sample_rate_hz == 16000

    def test_identity_when_rates_match(self, rng):
        clip = AudioClip(rng.uniform(-0.5, 0.5, 1000), 16000)
        out = resample(clip, 16000)
        np.testing.assert_array_equal(out.samples, clip.samples)

    def test_arbitrary_ratio_length(self, rng):
        clip = AudioClip(rng.uniform(-0.5, 0.5, 44100), 44100)
        out = resample(clip, 16000)
        assert len(out) == round(44100 * 16000 / 44100)

    def test_tone_survives_upsampling(self):
        """A 1 kHz tone at 8 kHz keeps frequency and amplitude (within 1%)."""
        clip = tone(1000.0, 8000, 8000)
        out = resample(clip, 16000)
        # dominant DFT bin
        magnitude = np.abs(np.fft.rfft(out.samples * np.hanning(len(out))))
        freqs = np.fft.rfftfreq(len(out), 1 / 16000)
        assert abs(freqs[int(np.argmax(magnitude))] - 1000.0) < 2.0
        # steady-state amplitude away from edges
        interior = out.samples[1600:-1600]
        amp = quadrature_amplitude(interior, 1000.0, 16000)
        assert abs(amp - 0.5) < 0.005

    def test_tone_survives_downsampling(self):
        clip = tone(1000.0, 16000, 16000)
        out = resample(clip, 8000)
        interior = out.samples[800:-800]
        amp = quadrature_amplitude(interior, 1000.0, 8000)
        assert abs(amp - 0.5) < 0.005

    def test_downsampling_removes_out_of_band_content(self):
        """A 7 kHz tone cannot survive resampling to 8 kHz (Nyquist 4 kHz)."""
        clip = tone(7000.0, 16000, 16000)
        out = resample(clip, 8000)
        assert np.max(np.abs(out.samples[400:-400])) < 0.01

    def test_zero_target_rejected(self):
        clip = tone(100.0, 8000, 800)
        with pytest.raises(ValidationError):
            resample(clip, 0)


def gemm_lengths(source_hz, target_hz):
    """Input lengths at 8 s, under one period, one sample short of a period, one past it, and
    under the kernel half-width."""
    _, _, step, half_width = _period_shape(source_hz, target_hz)
    return [8 * source_hz, step // 2, step - 1, step + 1, half_width - 1]


class TestGemmPath:
    @pytest.mark.parametrize("source_hz, target_hz", GEMM_PAIRS)
    def test_within_declared_bound_of_resample_poly(self, source_hz, target_hz):
        assert uses_gemm(source_hz, target_hz)
        rng = np.random.default_rng(source_hz)
        for n in gemm_lengths(source_hz, target_hz):
            x = rng.uniform(-1.0, 1.0, n)
            out = resample(AudioClip(x, source_hz), target_hz).samples
            want = poly_reference(x, source_hz, target_hz)
            assert out.shape == want.shape == (round(n * target_hz / source_hz),)
            assert np.max(np.abs(out - want)) <= GEMM_BOUND, n

    @pytest.mark.parametrize("source_hz, target_hz, gemm", [
        *[(source_hz, target_hz, True) for source_hz, target_hz in GEMM_PAIRS],
        (12000, 16000, True), (24000, 16000, True), (16000, 44100, True),
        (44101, 16000, False), (16000, 44101, False), (48000, 44101, False),
    ])
    def test_gemm_path_is_chosen_per_rate_pair(self, source_hz, target_hz, gemm):
        """Standard rates fit the budget; a pair whose reduced ratio has a large `up` (one
        period is R >= 16000 outputs) keeps resample_poly."""
        assert uses_gemm(source_hz, target_hz) == gemm

    def test_large_period_falls_back_to_resample_poly(self, monkeypatch):
        rows, outputs, _, _ = _period_shape(44101, 16000)
        assert rows * outputs * 8 > PERIOD_MATRIX_BYTES

        def refuse(*pair):
            raise AssertionError(f"period matrix built for {pair}")

        monkeypatch.setattr(resample_module, "_period_matrix", refuse)
        x = np.random.default_rng(0).uniform(-1.0, 1.0, 44101)
        out = resample(AudioClip(x, 44101), 16000).samples
        np.testing.assert_array_equal(out, poly_reference(x, 44101, 16000))

    @pytest.mark.parametrize("source_hz, target_hz", GEMM_PAIRS)
    def test_period_matrix_cached_read_only_within_budget(self, source_hz, target_hz):
        matrix = _period_matrix(source_hz, target_hz)
        assert _period_matrix(source_hz, target_hz) is matrix
        assert matrix.shape == _period_shape(source_hz, target_hz)[:2]
        assert matrix.nbytes <= PERIOD_MATRIX_BYTES
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0

    def test_period_matrix_columns_hold_the_scaled_kernel(self):
        """At 44.1 kHz a period is R = up outputs, one per polyphase branch, so its columns hold
        every nonzero tap of the up-scaled kernel exactly once, at most 2 * half_width each."""
        kernel, up, _ = _polyphase_kernel(44100, 16000)
        matrix = _period_matrix(44100, 16000)
        half_width = _period_shape(44100, 16000)[3]
        assert np.count_nonzero(matrix, axis=0).max() <= 2 * half_width
        np.testing.assert_array_equal(np.sort(matrix.ravel()[matrix.ravel() != 0]),
                                      np.sort((kernel * up)[kernel != 0]))


def padded_gemm_reference(x, source_hz, target_hz, n_out):
    """The GEMM path over one zero-padded copy of the whole clip, the form the views replace."""
    _, up, down = _polyphase_kernel(source_hz, target_hz)
    matrix = _period_matrix(source_hz, target_hz)
    rows, outputs, step, half_width = _period_shape(source_hz, target_hz)
    periods = -(-n_out // outputs)
    padded = np.zeros((periods - 1) * step + rows)
    padded[half_width:half_width + x.size] = x
    windows = as_strided(padded, (periods, rows), (step * 8, 8), writeable=False)
    out = np.empty((periods, outputs))
    for first in range(0, outputs, resample_module._PHASES_PER_GEMM):
        last = min(outputs, first + resample_module._PHASES_PER_GEMM) - 1
        lo, hi = first * down // up + 1, last * down // up + 2 * half_width + 1
        np.matmul(windows[:, lo:hi], matrix[lo:hi, first:last + 1], out=out[:, first:last + 1])
    return out.reshape(-1)[:n_out]


def guard_lengths(source_hz, target_hz):
    """Input lengths one sample either side of where a period's window starts, where it ends,
    and where its outputs end, for the first nine periods (so at, above and below the length
    that first takes the head/interior/tail blocks), and at 8 s."""
    rows, outputs, step, half_width = _period_shape(source_hz, target_hz)
    edges = set()
    for k in range(1, 10):
        last_input = -(-k * outputs * source_hz // target_hz)
        for edge in (k * step, k * step + rows - half_width, last_input):
            edges.update((edge - 1, edge, edge + 1))
    edges.add(8 * source_hz)
    return sorted(n for n in edges if round(n * target_hz / source_hz) >= 1)


class TestWindowsOverTheClip:
    @pytest.mark.parametrize("source_hz, target_hz", GEMM_PAIRS)
    def test_bitwise_equal_to_one_padded_copy(self, monkeypatch, source_hz, target_hz):
        """Interior windows read the clip itself and only the head and tail periods are copied;
        the outputs keep every bit of the padded form, on both the three-block path and the
        one-buffer path that clips too short for three blocks of 2 or more periods take."""
        spans = []
        padded_windows = resample_module._padded_windows

        def recording(x, first, count, *shape):
            spans.append((first, count))
            return padded_windows(x, first, count, *shape)

        monkeypatch.setattr(resample_module, "_padded_windows", recording)
        outputs = _period_shape(source_hz, target_hz)[1]
        rng = np.random.default_rng(source_hz + target_hz)
        paths = set()
        for n in guard_lengths(source_hz, target_hz):
            x = rng.uniform(-1.0, 1.0, n)
            n_out = round(n * target_hz / source_hz)
            spans.clear()
            got = _resample_gemm(x, source_hz, target_hz, n_out)
            want = padded_gemm_reference(x, source_hz, target_hz, n_out)
            assert got.tobytes() == want.tobytes(), n
            periods = -(-n_out // outputs)
            one_buffer = spans == [(0, periods)]
            assert one_buffer or (len(spans) == 2 and min(count for _, count in spans) >= 2), spans
            paths.add(one_buffer)
        assert paths == {True, False}
