"""Training parity digests: SHA-256 of the state after 3 `train_step`s (not collected by pytest).

Run from the repository root:

    PYTHONPATH=src python tests/parity_digest.py

Each line is `<variant> <dtype> <sha256>`. The digest covers the losses,
the correct counts, and every parameter's and Adam moment's name, dtype
and bytes. The inputs are seeded uniform-noise clips, so two checkouts
whose digests agree trained bitwise alike:

- `separation_1s_b4`: the 1 s separation geometry, batch 4, 16 kHz clips.
- `default_8s_b1`: the shipped 8 s config, batch 1, 16 kHz clips.
- `separation_1s_b4_8khz`: as the first, from 8 kHz clips, so the
  resampler's bits reach the digest.

16 kHz clips take the resampler's identity path.

Six more lines digest `prepare_input`'s waveform and log-mel (dtype,
shape and bytes) at the shipped 8 s config, in float32 and float64:

- `frontend_8s_44khz_wav`: a seeded 8 s 44.1 kHz PCM16 WAV read through
  `load_wav`; the resampler reads its interior windows from the clip.
- `frontend_0.2s_11khz`: a 0.2 s 11.025 kHz clip, too short for the
  resampler's head/interior/tail blocks, so it takes the one-buffer path.
- `frontend_8s_8khz`: an 8 s 8 kHz clip, the corpus rate that `evaluate`
  and `prepare_split` prepare.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import wlann  # noqa: F401  (first, so BLAS is pinned to one thread)

import numpy as np

from wlann.dataio import AudioClip, load_wav, write_wav
from wlann.model import prepare_input
from wlann.model.config import WlannConfig
from wlann.train import PreparedExample, TrainState, train_step

sys.path.insert(0, str(Path(__file__).resolve().parent))
from conftest import separation_config  # noqa: E402

STEPS = 3
VARIANTS = [
    ("separation_1s_b4", separation_config, 4, 16000),
    ("default_8s_b1", WlannConfig, 1, 16000),
    ("separation_1s_b4_8khz", separation_config, 4, 8000),
]


def digest(make_config, batch_size: int, source_hz: int, dtype: str) -> str:
    cfg = make_config(dtype=dtype)
    rng = np.random.default_rng(7)
    batch = []
    for index in range(batch_size):
        samples = rng.uniform(-0.5, 0.5, int(cfg.fixed_input_seconds * source_hz))
        waveform, spec = prepare_input(AudioClip(samples, source_hz), cfg)
        batch.append(PreparedExample(f"clip{index}", waveform, spec,
                                     int(rng.integers(cfg.num_classes))))
    state = TrainState.create(cfg)
    sha = hashlib.sha256()
    for _ in range(STEPS):
        loss, correct = train_step(batch, state)
        sha.update(np.float64(loss).tobytes() + np.int64(correct).tobytes())
    for name, tensor in {**state.params.named(), **state.optimizer.moments()}.items():
        sha.update(name.encode() + str(tensor.data.dtype).encode() + tensor.data.tobytes())
    return sha.hexdigest()


def frontend_digest(clip: AudioClip, dtype: str) -> str:
    waveform, spec = prepare_input(clip, WlannConfig(dtype=dtype))
    sha = hashlib.sha256()
    for array in (waveform, spec.values):
        sha.update(str(array.dtype).encode() + str(array.shape).encode() + array.tobytes())
    return sha.hexdigest()


def frontend_clips(directory: Path) -> dict[str, AudioClip]:
    rng = np.random.default_rng(11)
    t = np.arange(8 * 44100) / 44100
    tone = 0.3 * np.sin(2 * np.pi * 300.0 * t) + 0.1 * rng.standard_normal(t.size)
    path = directory / "clip_44khz.wav"
    write_wav(path, AudioClip(np.clip(tone, -1.0, 1.0), 44100))
    return {"frontend_8s_44khz_wav": load_wav(path),
            "frontend_0.2s_11khz": AudioClip(rng.uniform(-0.5, 0.5, 2205), 11025),
            "frontend_8s_8khz": AudioClip(rng.uniform(-0.5, 0.5, 8 * 8000), 8000)}


if __name__ == "__main__":
    for name, make_config, batch_size, source_hz in VARIANTS:
        for dtype in ("float32", "float64"):
            print(name, dtype, digest(make_config, batch_size, source_hz, dtype), flush=True)
    with tempfile.TemporaryDirectory() as directory:
        for name, clip in frontend_clips(Path(directory)).items():
            for dtype in ("float32", "float64"):
                print(name, dtype, frontend_digest(clip, dtype), flush=True)
