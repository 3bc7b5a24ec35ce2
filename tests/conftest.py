"""Shared fixtures: a tiny synthetic corpus and small model configs."""

from __future__ import annotations

import struct
import time
import tracemalloc

import wlann  # noqa: F401  (first: it pins BLAS to one thread only if NumPy is not loaded yet)

import numpy as np
import pytest

from wlann.dataio import generate_synthetic_corpus, load_corpus_splits
from wlann.model.config import (
    AstBranchConfig,
    AugmentConfig,
    CnnBranchConfig,
    OptimizerConfig,
    WlannConfig,
)
from wlann.ndiff import Tensor


@pytest.fixture(scope="session")
def tiny_corpus_dir(tmp_path_factory):
    """A 6-events-per-class synthetic corpus, generated once per session."""
    root = tmp_path_factory.mktemp("tiny_corpus")
    generate_synthetic_corpus(6, seed=5, out_dir=root)
    return root


@pytest.fixture(scope="session")
def tiny_corpus(tiny_corpus_dir):
    corpus, train, intra, inter = load_corpus_splits(tiny_corpus_dir)
    return corpus, train, intra, inter


def small_train_config(**overrides) -> WlannConfig:
    """A 1-second float32 config that trains in seconds on a laptop core."""
    defaults = dict(
        fixed_input_seconds=1.0,
        cnn=CnnBranchConfig(kernel=80, initial_stride=5, block_strides=(4, 4, 4),
                            channel_widths=(8, 8, 15, 15)),
        ast=AstBranchConfig(embed_dim=8, depth=1, heads=2),
        gru_hidden=4,
        num_classes=7,
        augment=AugmentConfig(time_warp_frames=0, freq_mask_width=0, freq_mask_count=0),
        optimizer=OptimizerConfig(learning_rate=1e-2, batch_size=8),
        dtype="float32",
        seed=0,
    )
    defaults.update(overrides)
    return WlannConfig(**defaults)


def fft_layer_config(**overrides) -> WlannConfig:
    """`small_train_config` at 6 s: its widest layer (`cnn.1`, 4777 outputs) takes the FFT path."""
    return small_train_config(fixed_input_seconds=6.0, **overrides)


def two_fft_layer_config(**overrides) -> WlannConfig:
    """`small_train_config` at 8 s: `cnn.1` and `cnn.2` take the FFT path, and the lane plan
    builds `cnn.2`'s kernel spectrum on the helper."""
    return small_train_config(fixed_input_seconds=8.0, **overrides)


def separation_config(**overrides) -> WlannConfig:
    """The 1 s separation geometry (acceptance criterion 7), about 1.09M parameters."""
    defaults = dict(
        fixed_input_seconds=1.0,
        cnn=CnnBranchConfig(kernel=80, initial_stride=5, block_strides=(4, 4, 4),
                            channel_widths=(16, 32, 90, 90)),
        ast=AstBranchConfig(embed_dim=32, depth=2, heads=4),
        gru_hidden=128,
    )
    defaults.update(overrides)
    return WlannConfig(**defaults)


def traced_peak(call) -> int:
    """Bytes `call()` allocates at its peak, above what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def spectrum_builds(monkeypatch, delay: float = 0.0) -> list[tuple]:
    """(weight shape, stride) of every FFT kernel-spectrum build, in order; each build
    first sleeps `delay` seconds."""
    from wlann.ndiff import functional as F

    builds = []
    build = F._kernel_spectrum

    def counting(w, stride):
        builds.append((w.shape, stride))
        time.sleep(delay)
        return build(w, stride)

    monkeypatch.setattr(F, "_kernel_spectrum", counting)
    return builds


def raw_wav_bytes(payload: bytes, channels=1, rate=8000, bits=16, audio_format=1) -> bytes:
    """Independent minimal WAV writer so loader tests don't trust write_wav."""
    block_align = channels * bits // 8
    fmt = struct.pack("<HHIIHH", audio_format, channels, rate, rate * block_align,
                      block_align, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


@pytest.fixture
def small_config() -> WlannConfig:
    return small_train_config()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def float_arrays(obj):
    """Every floating-point array or numpy scalar in a nested cache, parameters included."""
    if isinstance(obj, Tensor):
        obj = obj.data
    if isinstance(obj, (np.ndarray, np.generic)):
        if np.issubdtype(obj.dtype, np.inexact):
            yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from float_arrays(item)


@pytest.fixture
def grad_dtypes(monkeypatch) -> list[np.dtype]:
    """The dtype of every gradient added to a `Tensor`, in call order.

    `Tensor.grad` accumulates in place, so its own dtype is the
    parameter's whatever was added; this records what the op produced.
    """
    seen = []
    add_grad = Tensor.add_grad

    def recording(self, delta):
        seen.append(delta.dtype)
        add_grad(self, delta)

    monkeypatch.setattr(Tensor, "add_grad", recording)
    return seen
