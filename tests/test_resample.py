"""Sample-rate conversion: length law, identity, and tone fidelity."""

import numpy as np
import pytest

from wlann.dataio import AudioClip
from wlann.dsp import resample
from wlann.errors import ValidationError


def tone(freq_hz, rate_hz, n, amplitude=0.5):
    t = np.arange(n) / rate_hz
    return AudioClip(amplitude * np.sin(2 * np.pi * freq_hz * t), rate_hz)


def quadrature_amplitude(samples, freq_hz, rate_hz):
    """Projection onto the sine/cosine pair at freq_hz (independent oracle)."""
    t = np.arange(samples.size) / rate_hz
    c = 2.0 * np.mean(samples * np.cos(2 * np.pi * freq_hz * t))
    s = 2.0 * np.mean(samples * np.sin(2 * np.pi * freq_hz * t))
    return float(np.hypot(c, s))


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
