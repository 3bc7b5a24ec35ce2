"""Front-end memory: each ingest stage allocates about its output, and none writes to or returns
its input's samples."""

import numpy as np
import pytest

from wlann.dataio import AudioClip, load_wav, write_wav
from wlann.dsp import apply_filter, design_butterworth_bandpass, resample
from wlann.model import prepare_input
from wlann.model.config import WlannConfig
from wlann.model.pipeline import _preprocess

from conftest import traced_peak

MIB = 1 << 20


@pytest.fixture(scope="module")
def wav_44k(tmp_path_factory):
    """An 8 s 44.1 kHz PCM16 WAV: a tone in noise, as the `ingest_44k` benchmark writes."""
    rng = np.random.default_rng(44100)
    t = np.arange(8 * 44100) / 44100
    samples = np.clip(0.3 * np.sin(2 * np.pi * 300.0 * t) + 0.1 * rng.standard_normal(t.size),
                      -1.0, 1.0)
    path = tmp_path_factory.mktemp("frontend") / "clip.wav"
    write_wav(path, AudioClip(samples, 44100))
    return path


class TestPeakMemory:
    """Bounds are ~1.5x the tracemalloc peaks measured on NumPy 2.4 (load_wav 3.70 MiB, resample
    1.10, prepare_input 4.26). Full-size temporaries gave 6.06, 3.67 and 8.50."""

    def test_load_wav(self, wav_44k):
        load_wav(wav_44k)
        assert traced_peak(lambda: load_wav(wav_44k)) < 5.5 * MIB

    def test_resample(self, wav_44k):
        clip = load_wav(wav_44k)
        resample(clip, 16000)  # builds the cached kernel and period matrix outside the trace
        assert traced_peak(lambda: resample(clip, 16000)) < 1.65 * MIB

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_prepare_input(self, wav_44k, dtype):
        clip, cfg = load_wav(wav_44k), WlannConfig(dtype=dtype)
        prepare_input(clip, cfg)
        assert traced_peak(lambda: prepare_input(clip, cfg)) < 6.4 * MIB


class TestInputsUntouched:
    def test_apply_filter(self, rng):
        clip = AudioClip(rng.uniform(-1.0, 1.0, 16000), 16000)
        before = clip.samples.copy()
        bandpass = design_butterworth_bandpass(4, 20.0, 850.0, 16000)
        out = apply_filter(bandpass, clip).samples
        assert clip.samples.tobytes() == before.tobytes()
        assert not np.shares_memory(out, clip.samples)

    @pytest.mark.parametrize("rate_hz, seconds", [(16000, 8.0), (16000, 6.5), (16000, 9.5),
                                                  (44100, 8.0)])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_preprocess_and_prepare_input(self, rng, rate_hz, seconds, dtype):
        """At the model rate and length every stage may hand its array on uncopied; the result
        still owns its samples."""
        cfg = WlannConfig(dtype=dtype)
        clip = AudioClip(rng.uniform(-1.0, 1.0, int(rate_hz * seconds)), rate_hz)
        before = clip.samples.copy()
        padded = _preprocess(clip, cfg)
        waveform, spec = prepare_input(clip, cfg)
        assert clip.samples.tobytes() == before.tobytes()
        assert padded.shape == (cfg.fixed_samples,)
        for out in (padded, waveform, spec.values):
            assert not np.shares_memory(out, clip.samples)
        assert waveform[0].tobytes() == padded.astype(cfg.numpy_dtype).tobytes()
