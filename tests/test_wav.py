"""WAV codec behavior: scaling, round trips, malformed input."""

import struct

import numpy as np
import pytest

from wlann.dataio import AudioClip, load_wav, write_wav
from wlann.errors import FormatError, ValidationError

from conftest import raw_wav_bytes

PCM16_LSB = 1.0 / 32768.0


class TestLoadWav:
    def test_pcm16_scaling_rule(self, tmp_path):
        """PCM value 16384 maps to exactly 16384/32768 = 0.5."""
        path = tmp_path / "half.wav"
        path.write_bytes(raw_wav_bytes(struct.pack("<4h", 16384, -16384, 32767, -32768)))
        clip = load_wav(path)
        assert clip.samples[0] == 0.5
        assert clip.samples[1] == -0.5
        assert clip.samples[2] == 32767 / 32768
        assert clip.samples[3] == -1.0

    def test_rate_and_length_from_header(self, tmp_path):
        path = tmp_path / "eight_k.wav"
        path.write_bytes(raw_wav_bytes(b"\x00\x00" * 8000, rate=8000))
        clip = load_wav(path)
        assert clip.sample_rate_hz == 8000
        assert len(clip) == 8000

    def test_all_zero_pcm(self, tmp_path):
        path = tmp_path / "zeros.wav"
        path.write_bytes(raw_wav_bytes(b"\x00\x00" * 64))
        assert np.all(load_wav(path).samples == 0.0)

    def test_float32_payload(self, tmp_path):
        values = np.array([0.25, -0.75, 0.0], dtype="<f4")
        path = tmp_path / "float.wav"
        path.write_bytes(raw_wav_bytes(values.tobytes(), bits=32, audio_format=3))
        clip = load_wav(path)
        np.testing.assert_allclose(clip.samples, [0.25, -0.75, 0.0])

    def test_multichannel_keeps_channel_zero_with_warning(self, tmp_path):
        # interleaved stereo: L=1000, R=-1000 repeating
        frames = struct.pack("<4h", 1000, -1000, 2000, -2000)
        path = tmp_path / "stereo.wav"
        path.write_bytes(raw_wav_bytes(frames, channels=2))
        with pytest.warns(UserWarning, match="channel 0"):
            clip = load_wav(path)
        np.testing.assert_allclose(clip.samples, [1000 / 32768, 2000 / 32768])

    def test_zero_length_audio_rejected(self, tmp_path):
        path = tmp_path / "empty.wav"
        path.write_bytes(raw_wav_bytes(b""))
        with pytest.raises(ValidationError, match="zero-length"):
            load_wav(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"RIFX" + b"\x00" * 40)
        with pytest.raises(FormatError):
            load_wav(path)

    def test_truncated_data_chunk_rejected(self, tmp_path):
        good = raw_wav_bytes(b"\x00\x00" * 16)
        path = tmp_path / "trunc.wav"
        path.write_bytes(good[:-8])
        with pytest.raises(FormatError):
            load_wav(path)

    @pytest.mark.parametrize("payload, bits, audio_format", [
        (b"\x00" * 7, 16, 1), (b"\x00" * 10, 32, 3),
    ], ids=["pcm16_odd_bytes", "float32_partial_sample"])
    def test_partial_sample_rejected(self, tmp_path, payload, bits, audio_format):
        path = tmp_path / "partial.wav"
        path.write_bytes(raw_wav_bytes(payload, bits=bits, audio_format=audio_format))
        with pytest.raises(FormatError, match=f"partial.wav.*{len(payload)} bytes"):
            load_wav(path)

    def test_unsupported_bit_depth_rejected(self, tmp_path):
        path = tmp_path / "odd.wav"
        path.write_bytes(raw_wav_bytes(b"\x00" * 24, bits=24))
        with pytest.raises(FormatError, match="unsupported"):
            load_wav(path)


class TestRoundTrip:
    def test_pcm16_round_trip_within_one_lsb(self, tmp_path, rng):
        original = AudioClip(rng.uniform(-0.99, 0.99, 500), 8000)
        path = tmp_path / "rt.wav"
        write_wav(path, original)
        loaded = load_wav(path)
        assert loaded.sample_rate_hz == 8000
        assert np.max(np.abs(loaded.samples - original.samples)) <= PCM16_LSB

    def test_pcm16_double_round_trip_is_exact(self, tmp_path, rng):
        """Once quantized, further write/load cycles change nothing."""
        path = tmp_path / "a.wav"
        write_wav(path, AudioClip(rng.uniform(-1, 1, 100), 16000))
        first = load_wav(path)
        path2 = tmp_path / "b.wav"
        write_wav(path2, first)
        second = load_wav(path2)
        np.testing.assert_array_equal(first.samples, second.samples)

    def test_float32_round_trip(self, tmp_path, rng):
        original = AudioClip(rng.uniform(-1, 1, 257).astype(np.float32).astype(np.float64), 16000)
        path = tmp_path / "f.wav"
        write_wav(path, original, encoding="float32")
        loaded = load_wav(path)
        np.testing.assert_array_equal(loaded.samples, original.samples)


class TestAudioClip:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            AudioClip(np.array([]), 8000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValidationError):
            AudioClip(np.zeros(10), 0)

    def test_duration(self):
        clip = AudioClip(np.zeros(4000), 8000)
        assert clip.duration_seconds == 0.5
        assert clip.duration_ms == 500.0
