"""Mono audio clips and a minimal RIFF/WAVE codec.

Supports the two encodings stethoscope corpora actually use: 16-bit PCM
(little-endian) and 32-bit IEEE float. Multi-channel files are reduced to
channel 0 with a warning; silent mixing would hide acquisition mistakes.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import FormatError, StorageError, ValidationError

PCM16_SCALE = 32768.0

_WAVE_FORMAT_PCM = 1
_WAVE_FORMAT_IEEE_FLOAT = 3


@dataclass
class AudioClip:
    """A mono sample sequence with its sample rate.

    Samples are float64 in [-1, 1]; rate is any positive integer (8 kHz
    and 16 kHz are the rates seen in practice).
    """

    samples: np.ndarray
    sample_rate_hz: int
    source: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValidationError(f"clip samples must be 1-D, got shape {self.samples.shape}")
        if self.samples.size == 0:
            raise ValidationError("clip has no samples")
        if not np.all(np.isfinite(self.samples)):
            raise ValidationError("clip contains non-finite samples")
        if int(self.sample_rate_hz) <= 0:
            raise ValidationError(f"sample rate must be positive, got {self.sample_rate_hz}")
        self.sample_rate_hz = int(self.sample_rate_hz)

    def __len__(self) -> int:
        return int(self.samples.size)

    @property
    def duration_seconds(self) -> float:
        return self.samples.size / self.sample_rate_hz

    @property
    def duration_ms(self) -> float:
        return 1000.0 * self.samples.size / self.sample_rate_hz


def _read_exact(handle, n: int, what: str) -> bytes:
    data = handle.read(n)
    if len(data) != n:
        raise FormatError(f"truncated WAV file: expected {n} bytes for {what}, got {len(data)}")
    return data


def load_wav(path: str | Path) -> AudioClip:
    """Read a PCM16 or float32 WAV file as a normalized mono clip.

    16-bit samples are divided by 32768 so the result lies in [-1, 1);
    float samples are clipped to [-1, 1] with a warning if any exceed it.
    Multi-channel input keeps channel 0 (with a warning).
    """
    path = Path(path)
    try:
        handle = path.open("rb")
    except OSError as exc:
        raise StorageError(f"cannot open WAV file {path}: {exc}") from exc
    with handle:
        riff = handle.read(12)
        if len(riff) < 12 or riff[:4] != b"RIFF" or riff[8:12] != b"WAVE":
            raise FormatError(f"{path}: not a RIFF/WAVE file")
        fmt = None
        data = None
        while True:
            header = handle.read(8)
            if len(header) == 0:
                break
            if len(header) < 8:
                raise FormatError(f"{path}: truncated chunk header")
            chunk_id, size = struct.unpack("<4sI", header)
            if chunk_id == b"fmt ":
                fmt = _read_exact(handle, size, "fmt chunk")
            elif chunk_id == b"data":
                data = _read_exact(handle, size, "data chunk")
            else:
                handle.seek(size + (size & 1), 1)
                continue
            if size & 1:
                handle.seek(1, 1)
        if fmt is None or len(fmt) < 16:
            raise FormatError(f"{path}: missing or short fmt chunk")
        if data is None:
            raise FormatError(f"{path}: missing data chunk")

    audio_format, channels, rate, _, _, bits = struct.unpack("<HHIIHH", fmt[:16])
    if channels < 1:
        raise FormatError(f"{path}: channel count {channels} is invalid")
    if audio_format == _WAVE_FORMAT_PCM and bits == 16:
        sample_type, scale = "<i2", PCM16_SCALE
    elif audio_format == _WAVE_FORMAT_IEEE_FLOAT and bits == 32:
        sample_type, scale = "<f4", 1.0
    else:
        raise FormatError(
            f"{path}: unsupported encoding (format tag {audio_format}, {bits}-bit); "
            "expected 16-bit PCM or 32-bit float"
        )
    if len(data) % (channels * bits // 8):
        raise FormatError(
            f"{path}: data chunk of {len(data)} bytes is not a whole number of "
            f"{channels}-channel {bits}-bit frames"
        )
    encoded = np.frombuffer(data, dtype=sample_type)
    if encoded.size == 0:
        raise ValidationError(f"{path}: zero-length audio")
    if channels > 1:
        warnings.warn(f"{path}: {channels}-channel WAV, keeping channel 0", stacklevel=2)
        encoded = encoded[::channels]
    # One pass; dividing by 2^15 (or 1) is exact, so this equals a cast followed by the division.
    values = np.divide(encoded, scale, dtype=np.float64)
    if audio_format == _WAVE_FORMAT_IEEE_FLOAT:  # |int16 / 32768| <= 1 always holds
        peak = np.max(np.abs(values))
        if peak > 1.0:
            warnings.warn(f"{path}: samples exceed full scale (peak {peak:.4f}), clipping",
                          stacklevel=2)
            np.clip(values, -1.0, 1.0, out=values)
    return AudioClip(samples=values, sample_rate_hz=int(rate), source=str(path))


def write_wav(path: str | Path, clip: AudioClip, encoding: str = "pcm16") -> None:
    """Write a clip as mono WAV. `encoding` is 'pcm16' or 'float32'."""
    path = Path(path)
    if encoding == "pcm16":
        scaled = np.round(clip.samples * PCM16_SCALE)
        payload = np.clip(scaled, -32768, 32767).astype("<i2").tobytes()
        audio_format, bits = _WAVE_FORMAT_PCM, 16
    elif encoding == "float32":
        payload = clip.samples.astype("<f4").tobytes()
        audio_format, bits = _WAVE_FORMAT_IEEE_FLOAT, 32
    else:
        raise ValidationError(f"unknown WAV encoding {encoding!r}")
    block_align = bits // 8
    byte_rate = clip.sample_rate_hz * block_align
    fmt = struct.pack("<HHIIHH", audio_format, 1, clip.sample_rate_hz, byte_rate, block_align, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    try:
        with path.open("wb") as handle:
            handle.write(b"RIFF" + struct.pack("<I", len(body)) + body)
    except OSError as exc:
        raise StorageError(f"cannot write WAV file {path}: {exc}") from exc
