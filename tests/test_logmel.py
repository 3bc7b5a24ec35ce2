"""Log-mel extraction: framing law, filterbank geometry, FFT fidelity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import rfft

from wlann.dataio import AudioClip
from wlann.dsp import (
    ENERGY_FLOOR,
    FFT_SIZE,
    HOP_SAMPLES,
    MEL_BINS,
    WINDOW_SAMPLES,
    LogMelSpectrogram,
    frame_count,
    hz_to_mel,
    log_mel,
    mel_filterbank,
    mel_to_hz,
)
from wlann.errors import ValidationError


def naive_dft(x):
    """O(N^2) reference DFT, the oracle for the FFT used in extraction."""
    n = x.size
    k = np.arange(n // 2 + 1)
    angles = -2j * np.pi * np.outer(k, np.arange(n)) / n
    return np.exp(angles) @ x


def whole_array_log_mel(samples):
    """log_mel with every frame windowed, transformed and squared in one array (the reference),
    with a Hamming window built per call."""
    from numpy.lib.stride_tricks import sliding_window_view

    from wlann.dsp.mel import mel_energies

    frames = sliding_window_view(samples, WINDOW_SAMPLES)[::HOP_SAMPLES]
    power = np.abs(np.fft.rfft(frames * np.hamming(WINDOW_SAMPLES), n=FFT_SIZE, axis=1)) ** 2
    return np.log(np.maximum(mel_energies(power), ENERGY_FLOOR)).T


class TestFftOracle:
    def test_rfft_matches_naive_dft(self, rng):
        """scipy.fft.rfft (the transform inside log_mel) vs the direct sum."""
        for _ in range(5):
            x = rng.standard_normal(FFT_SIZE)
            fast = rfft(x)
            slow = naive_dft(x)
            rel = np.abs(fast - slow) / max(1.0, float(np.max(np.abs(slow))))
            assert np.max(rel) < 1e-9


class TestFraming:
    def test_one_second_gives_98_frames(self, rng):
        clip = AudioClip(rng.uniform(-0.5, 0.5, 16000), 16000)
        spec = log_mel(clip)
        assert spec.values.shape == (128, 98)

    def test_exact_window_gives_one_frame(self, rng):
        clip = AudioClip(rng.uniform(-0.5, 0.5, WINDOW_SAMPLES), 16000)
        assert log_mel(clip).num_frames == 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=WINDOW_SAMPLES, max_value=200_000))
    def test_frame_count_law(self, n):
        assert frame_count(n) == (n - WINDOW_SAMPLES) // HOP_SAMPLES + 1

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=WINDOW_SAMPLES, max_value=8000))
    def test_law_matches_actual_output(self, n):
        clip = AudioClip(np.zeros(n), 16000)
        assert log_mel(clip).num_frames == (n - WINDOW_SAMPLES) // HOP_SAMPLES + 1

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError, match="at least"):
            log_mel(AudioClip(np.zeros(399), 16000))

    def test_wrong_rate_rejected(self):
        with pytest.raises(ValidationError, match="16000"):
            log_mel(AudioClip(np.zeros(16000), 8000))


class TestValues:
    def test_silence_hits_energy_floor(self):
        spec = log_mel(AudioClip(np.zeros(16000), 16000))
        assert np.all(spec.values == np.log(ENERGY_FLOOR))

    def test_values_never_below_floor(self, rng):
        spec = log_mel(AudioClip(rng.uniform(-1, 1, 8000), 16000))
        assert np.all(spec.values >= np.log(ENERGY_FLOOR))

    def test_tone_at_filter_center_wins_its_bin(self):
        """A tone at filter k's center frequency makes bin k the argmax.

        Exact for k >= 48 where adjacent filters are separated by more
        than one FFT bin. Below that, several narrow filters sample the
        same FFT bin and tie exactly, so the test only requires the
        winning filter's center to sit within 1.5 FFT bins of the tone.
        """
        _, centers = mel_filterbank()
        bin_width = 16000.0 / FFT_SIZE
        t = np.arange(16000) / 16000.0
        for k in range(4, MEL_BINS, 6):
            clip = AudioClip(0.5 * np.sin(2 * np.pi * centers[k] * t), 16000)
            energy = log_mel(clip).values.mean(axis=1)
            winner = int(np.argmax(energy))
            if k >= 48:
                assert winner == k, f"bin {k} (center {centers[k]:.1f} Hz) lost to {winner}"
            else:
                assert abs(centers[winner] - centers[k]) <= 1.5 * bin_width


class TestFilterbank:
    def test_shared_weights_are_read_only(self):
        """Every `log_mel` call shares the cached weights, so none may write to them."""
        from wlann.dsp.mel import _cached_filterbank

        weights = _cached_filterbank()
        assert _cached_filterbank() is weights
        np.testing.assert_array_equal(weights, mel_filterbank()[0])
        with pytest.raises(ValueError, match="read-only"):
            weights[0, 0] = 0.0

    def test_shared_window_is_read_only_and_keeps_the_bits(self, rng):
        """The cached Hamming window is `np.hamming(400)`, and the spectrogram is bitwise the one
        a window built per call gives."""
        from wlann.dsp.mel import _cached_window

        window = _cached_window()
        assert _cached_window() is window
        assert window.tobytes() == np.hamming(WINDOW_SAMPLES).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            window[0] = 0.0

        samples = rng.uniform(-1.0, 1.0, 16000)
        want = whole_array_log_mel(samples)
        assert log_mel(AudioClip(samples, 16000)).values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("frames", [1, 2, 63, 64, 65, 98, 798, 1498])
    def test_blocked_frames_keep_the_bits_of_the_whole_array_form(self, rng, frames):
        """Window, FFT and magnitude run on blocks of frames; every bit equals the form that
        transforms all frames at once, on both sides of each block edge."""
        samples = rng.uniform(-1.0, 1.0, WINDOW_SAMPLES + (frames - 1) * HOP_SAMPLES + 37)
        got = log_mel(AudioClip(samples, 16000)).values
        assert got.shape == (MEL_BINS, frames)
        assert got.tobytes() == whole_array_log_mel(samples).tobytes()

    # Declared bounds on the banded product's relative difference from the dense one, ~10x the
    # values measured on x86-64 with OpenBLAS at one thread.
    BANDED_BOUND = {"float32": 3e-6, "float64": 6e-15}  # measured 3.2e-7 and 5.7e-16 (20 seeds)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("frames", [1, 2, 98, 798])
    def test_banded_energies_within_declared_bound_of_the_dense_product(self, rng, dtype,
                                                                        frames):
        from wlann.dsp.mel import _cached_filterbank, mel_energies

        power = (rng.standard_normal((frames, FFT_SIZE // 2 + 1)) ** 2).astype(dtype)
        dense = power @ _cached_filterbank(np.dtype(dtype).type).T
        banded = mel_energies(power)
        assert banded.dtype == np.dtype(dtype) and banded.shape == (frames, MEL_BINS)
        assert np.max(np.abs(banded - dense) / dense) <= self.BANDED_BOUND[dtype]

    def test_float32_caches_round_the_float64_ones(self):
        """The float32 window and filterbank are cached apart from the float64 ones, read-only,
        and are those arrays rounded once."""
        from wlann.dsp.mel import _cached_filterbank, _cached_window

        for cached in (_cached_filterbank, _cached_window):
            single = cached(np.float32)
            assert cached(np.float32) is single and single.dtype == np.float32
            assert single.tobytes() == cached(np.float64).astype(np.float32).tobytes()
            assert not single.flags.writeable

    def test_shape(self):
        weights, centers = mel_filterbank()
        assert weights.shape == (MEL_BINS, FFT_SIZE // 2 + 1)
        assert centers.shape == (MEL_BINS,)

    def test_nonnegative_peak_one(self):
        weights, _ = mel_filterbank()
        assert np.all(weights >= 0.0)
        np.testing.assert_array_equal(weights.max(axis=1), np.ones(MEL_BINS))

    def test_unimodal(self):
        weights, _ = mel_filterbank()
        for row in weights:
            peak = int(np.argmax(row))
            assert np.all(np.diff(row[: peak + 1]) >= 0)
            assert np.all(np.diff(row[peak:]) <= 0)

    def test_centers_strictly_increasing(self):
        _, centers = mel_filterbank()
        assert np.all(np.diff(centers) > 0)

    def test_mel_scale_round_trip(self):
        freqs = np.array([0.0, 40.0, 700.0, 4000.0, 8000.0])
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(freqs)), freqs, atol=1e-9)

    def test_htk_mel_formula(self):
        # mel(700) = 2595 log10(2) by the HTK formula
        assert abs(float(hz_to_mel(700.0)) - 2595.0 * np.log10(2.0)) < 1e-12
        assert abs(float(hz_to_mel(700.0)) - 781.1728387480312) < 1e-9


class TestDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float_values_are_kept_as_given(self, dtype):
        values = np.zeros((MEL_BINS, 3), dtype)
        assert LogMelSpectrogram(values).values is values

    @pytest.mark.parametrize("values", [np.zeros((MEL_BINS, 3), np.float16),
                                        np.zeros((MEL_BINS, 3), np.int64),
                                        [[0.0] * 3] * MEL_BINS])
    def test_other_values_become_float64(self, values):
        assert LogMelSpectrogram(values).values.dtype == np.float64

    def test_log_mel_computes_in_the_requested_dtype(self, rng):
        """float32 comes back float32; float64 is the default, bit for bit."""
        clip = AudioClip(rng.uniform(-1.0, 1.0, 16000), 16000)
        single, double = log_mel(clip, np.float32).values, log_mel(clip, np.float64).values
        assert single.dtype == np.float32 and double.dtype == np.float64
        assert double.tobytes() == log_mel(clip).values.tobytes()
        np.testing.assert_allclose(single, double, rtol=0, atol=1e-3)
