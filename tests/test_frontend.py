"""Front end: each ingest stage allocates about its output, none writes to or returns its input's
samples, and the float32 front end stays within its declared bound of the float64 one."""

import numpy as np
import pytest

from wlann.dataio import AudioClip, load_wav, write_wav
from wlann.dsp import apply_filter, design_butterworth_bandpass, resample
from wlann.model import pipeline, prepare_input
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
    1.10, prepare_input 2.74 in float32). Full-size temporaries gave 6.06, 3.67 and 8.50. The
    float64 `prepare_input` bound is the one set when it peaked at 4.26 (3.52 now). The band-pass
    of an 8 s 16 kHz clip peaks at 1.35."""

    def test_load_wav(self, wav_44k):
        load_wav(wav_44k)
        assert traced_peak(lambda: load_wav(wav_44k)) < 5.5 * MIB

    def test_resample(self, wav_44k):
        clip = load_wav(wav_44k)
        resample(clip, 16000)  # builds the cached period bands outside the trace
        assert traced_peak(lambda: resample(clip, 16000)) < 1.65 * MIB

    def test_apply_filter(self):
        """8 s at 16 kHz: the 1.0 MiB output plus the blocks' end states and one chunk of the
        state term."""
        clip = AudioClip(np.random.default_rng(16000).uniform(-1.0, 1.0, 8 * 16000), 16000)
        bandpass = design_butterworth_bandpass(4, 40.0, 850.0, 16000)
        apply_filter(bandpass, clip)
        assert traced_peak(lambda: apply_filter(bandpass, clip)) < 2.0 * MIB

    PREPARE_INPUT_BOUND_MIB = {"float32": 4.2, "float64": 6.4}

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_prepare_input(self, wav_44k, dtype):
        clip, cfg = load_wav(wav_44k), WlannConfig(dtype=dtype)
        prepare_input(clip, cfg)
        peak = traced_peak(lambda: prepare_input(clip, cfg))
        assert peak < self.PREPARE_INPUT_BOUND_MIB[dtype] * MIB


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
        padded = _preprocess(clip, cfg, cfg.numpy_dtype)
        waveform, spec = prepare_input(clip, cfg)
        assert clip.samples.tobytes() == before.tobytes()
        assert padded.shape == (cfg.fixed_samples,)
        for out in (padded, waveform, spec.values):
            assert not np.shares_memory(out, clip.samples)
        assert waveform[0].tobytes() == padded.astype(cfg.numpy_dtype).tobytes()


def bound_signals(rate_hz):
    """8 s at `rate_hz`: tones at 150, 400 and 700 Hz (inside the 40-850 Hz band-pass) plus
    Gaussian noise, and uniform noise."""
    rng = np.random.default_rng(rate_hz)
    t = np.arange(8 * rate_hz) / rate_hz
    tones = sum(np.sin(2 * np.pi * freq * t + rng.uniform(0.0, 2 * np.pi))
                for freq in (150.0, 400.0, 700.0))
    return {"tones": np.clip(tones / 6 + 0.05 * rng.standard_normal(t.size), -1.0, 1.0),
            "noise": rng.uniform(-0.5, 0.5, t.size)}


class TestFloat32AgainstFloat64:
    """Declared bounds of the float32 front end (resample GEMM and log-mel in float32, band-pass in
    float64) against the float64 one, ~10x the values measured on x86-64 with OpenBLAS at one
    thread. The log-mel bound has two parts: near the 1e-10 energy floor (the stop bands, such as
    mel bin 0) float32 rounding of the spectrum is a large share of a bin's energy, so bins whose
    float64 energy is at least 1e-6 of their frame's peak get a bound 10x tighter than the rest."""

    WAVEFORM_BOUND = 1e-6  # measured 7.0e-8
    LOG_MEL_BOUND = 1e-2  # measured 8.0e-4; medians 4.1e-7 to 2.3e-6
    LIVE_LOG_MEL_BOUND = 1e-3  # measured 8.9e-5

    @pytest.mark.parametrize("rate_hz", [8000, 11025, 16000, 44100, 44101])
    def test_within_declared_bound(self, rate_hz):
        cfgs = {dtype: WlannConfig(dtype=dtype) for dtype in ("float32", "float64")}
        for name, samples in bound_signals(rate_hz).items():
            clip = AudioClip(samples, rate_hz)
            (wave32, spec32), (wave64, spec64) = (prepare_input(clip, cfgs[d]) for d in cfgs)
            assert wave32.dtype == spec32.values.dtype == np.float32
            assert np.max(np.abs(wave32 - wave64)) <= self.WAVEFORM_BOUND, name
            diff = np.abs(spec32.values - spec64.values)
            live = spec64.values >= spec64.values.max(axis=0) + np.log(1e-6)
            assert diff.max() <= self.LOG_MEL_BOUND, name
            assert diff[live].max() <= self.LIVE_LOG_MEL_BOUND, name

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_prepare_input_hands_the_config_dtype_to_resample_and_log_mel(self, monkeypatch,
                                                                         dtype):
        seen = []
        for name in ("resample", "log_mel"):
            stage = getattr(pipeline, name)
            monkeypatch.setattr(pipeline, name,
                                lambda *args, stage=stage: seen.append(args[-1]) or stage(*args))
        prepare_input(AudioClip(np.zeros(8000), 8000), WlannConfig(dtype=dtype))
        assert seen == [np.dtype(dtype)] * 2
