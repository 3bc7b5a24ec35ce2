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
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import wlann  # noqa: F401  (first, so BLAS is pinned to one thread)

import numpy as np

from wlann.dataio import AudioClip
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


if __name__ == "__main__":
    for name, make_config, batch_size, source_hz in VARIANTS:
        for dtype in ("float32", "float64"):
            print(name, dtype, digest(make_config, batch_size, source_hz, dtype), flush=True)
