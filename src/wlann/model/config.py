"""One configuration object governing every architectural hyperparameter.

The same structure is serialized into checkpoints and reports, so any
artifact is self-describing. Numeric fields declare their bounds beside
their defaults (`ranged`); derived geometry (frame counts, patch grids,
fused channel width) is exposed as properties. Both are checked at construction.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from ..dataio.events import NUM_CLASSES
from ..dsp import mel as meldsp
from ..dsp.augment import AugmentConfig
from ..errors import ConfigError, ShapeError
from ..ndiff.functional import conv1d_output_length


_SYMBOLS = {"ge": ">=", "gt": ">", "le": "<=", "lt": "<"}


def ranged(default, **bounds):
    """Declare a numeric field's default and its bounds, e.g. `ranged(0.9, ge=0, lt=1)`."""
    return field(default=default, metadata={"bounds": bounds})


@dataclass(frozen=True)
class CnnBranchConfig:
    """Raw-waveform convolution stack: one entry stride per layer."""

    kernel: int = ranged(80, ge=1)
    initial_stride: int = ranged(5, ge=1)
    block_strides: tuple[int, ...] = ranged((4, 4, 4), ge=1)
    channel_widths: tuple[int, ...] = ranged((64, 128, 240, 240), ge=1)

    @property
    def strides(self) -> tuple[int, ...]:
        return (self.initial_stride, *self.block_strides)

    @property
    def output_channels(self) -> int:
        return self.channel_widths[-1]


@dataclass(frozen=True)
class AstBranchConfig:
    """Spectrogram patch-transformer branch."""

    mel_bins: int = 128
    patch_size: int = ranged(16, ge=1)
    patch_stride: int = ranged(8, ge=1)
    embed_dim: int = ranged(64, ge=1)
    depth: int = ranged(2, ge=0)
    heads: int = ranged(4, ge=1)


@dataclass(frozen=True)
class BandpassConfig:
    order: int = ranged(4, ge=1)
    low_hz: float = 40.0
    high_hz: float = 850.0


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = ranged(1e-4, ge=0)
    beta1: float = ranged(0.9, ge=0, lt=1)
    beta2: float = ranged(0.999, ge=0, lt=1)
    eps: float = ranged(1e-8, gt=0)
    clip_norm: float = ranged(1.0, ge=0)
    weight_decay: float = ranged(0.0, ge=0)
    batch_size: int = ranged(8, ge=1)


@dataclass(frozen=True)
class WlannConfig:
    # Attention weights grow with the square of the clip, so it is capped at
    # 30 s: there the default transformer's N = 5595 tokens take one (N, N)
    # buffer in the forward and two in the VJP, each 125 MB in float32.
    fixed_input_seconds: float = ranged(8.0, gt=0, le=30)
    sample_rate_hz: int = 16000
    cnn: CnnBranchConfig = field(default_factory=CnnBranchConfig)
    ast: AstBranchConfig = field(default_factory=AstBranchConfig)
    gru_hidden: int = ranged(64, ge=1)
    num_classes: int = ranged(7, ge=2, le=NUM_CLASSES)
    focal_gamma: float = ranged(2.0, ge=0)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    bandpass: BandpassConfig = field(default_factory=BandpassConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    init_std: float = ranged(0.02, gt=0)
    dtype: str = "float32"
    seed: int = ranged(0, ge=0)

    def __post_init__(self) -> None:
        self.validate()

    # -- derived geometry ---------------------------------------------------

    @property
    def fixed_samples(self) -> int:
        return int(round(self.fixed_input_seconds * self.sample_rate_hz))

    @property
    def spec_frames(self) -> int:
        return (self.fixed_samples - meldsp.WINDOW_SAMPLES) // meldsp.HOP_SAMPLES + 1

    @property
    def freq_patches(self) -> int:
        return (self.ast.mel_bins - self.ast.patch_size) // self.ast.patch_stride + 1

    @property
    def time_patches(self) -> int:
        return (self.spec_frames - self.ast.patch_size) // self.ast.patch_stride + 1

    @property
    def num_patches(self) -> int:
        return self.freq_patches * self.time_patches

    @property
    def channel_groups(self) -> int:
        return self.cnn.output_channels // self.freq_patches

    @property
    def fused_channels(self) -> int:
        return self.ast.embed_dim + self.channel_groups

    def conv_lengths(self) -> list[int]:
        """Per-layer output lengths of the waveform stack, input first."""
        lengths = [self.fixed_samples]
        for stride in self.cnn.strides:
            lengths.append(conv1d_output_length(lengths[-1], self.cnn.kernel, stride))
        return lengths

    @property
    def numpy_dtype(self):
        return {"float32": np.float32, "float64": np.float64}[self.dtype]

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        _check_numbers(self)
        ast, cnn = self.ast, self.cnn
        if self.sample_rate_hz != meldsp.SAMPLE_RATE_HZ:
            raise ConfigError(
                f"sample_rate_hz must be {meldsp.SAMPLE_RATE_HZ}, got {self.sample_rate_hz}"
            )
        if ast.mel_bins != meldsp.MEL_BINS:
            raise ConfigError(f"ast.mel_bins must be {meldsp.MEL_BINS}, got {ast.mel_bins}")
        if len(cnn.channel_widths) != len(cnn.strides):
            raise ConfigError(
                f"{len(cnn.channel_widths)} channel widths for {len(cnn.strides)} strides"
            )
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if ast.embed_dim % ast.heads != 0:
            raise ConfigError(f"embed dim {ast.embed_dim} not divisible by {ast.heads} heads")
        if ast.patch_size > ast.mel_bins or (ast.mel_bins - ast.patch_size) % ast.patch_stride:
            raise ConfigError(
                f"patches of {ast.patch_size} bins at stride {ast.patch_stride} must tile "
                f"the {ast.mel_bins} mel bins exactly"
            )
        if cnn.output_channels % self.freq_patches != 0:
            raise ConfigError(
                f"cnn width {cnn.output_channels} not divisible by {self.freq_patches} patch rows"
            )
        if self.spec_frames < ast.patch_size:
            raise ConfigError(
                f"fixed input yields {self.spec_frames} frames; patches need >= {ast.patch_size}"
            )
        if self.augment.freq_mask_width >= ast.mel_bins:
            raise ConfigError("frequency mask width must be < mel_bins")
        warp = self.augment.time_warp_frames
        if warp > 0 and 2 * warp >= self.spec_frames:
            raise ConfigError(
                f"time warp of {warp} needs > {2 * warp} spectrogram frames, got {self.spec_frames}"
            )
        try:
            self.conv_lengths()
        except ShapeError as exc:
            raise ConfigError(f"waveform stack does not fit the fixed input: {exc}") from exc
        nyquist = self.sample_rate_hz / 2
        if not (0 < self.bandpass.low_hz < self.bandpass.high_hz < nyquist):
            raise ConfigError(
                f"band edges ({self.bandpass.low_hz}, {self.bandpass.high_hz}) must be "
                f"increasing and below Nyquist ({nyquist})"
            )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        data = asdict(self)
        # Recorded for reproducibility; fixed by the feature extractor.
        data["features"] = {
            "window_ms": meldsp.WINDOW_MS,
            "hop_ms": meldsp.HOP_MS,
            "fft_size": meldsp.FFT_SIZE,
            "log_floor": meldsp.ENERGY_FLOOR,
        }
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "WlannConfig":
        if isinstance(data, dict):
            data = {key: value for key, value in data.items() if key != "features"}
        return _from_dict(cls, data, "config")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "WlannConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}: not a UTF-8 JSON document ({exc})") from exc
        return cls.from_dict(data)


def _from_dict(cls, data, where: str):
    """Build dataclass `cls` from a JSON object, following its field declarations.

    A field whose default factory is a dataclass is a section and is
    built recursively; a JSON list becomes a tuple.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object, got {type(data).__name__}")
    declared_fields = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in declared_fields:
            raise ConfigError(f"unknown config key {key!r} in {where}")
        declared = declared_fields[key]
        if is_dataclass(declared.default_factory):
            value = _from_dict(declared.default_factory, value, f"{where}.{key}")
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


def _check_numbers(obj, prefix: str = "") -> None:
    """Check each number in a config tree against its field's kind and `ranged` bounds.

    A field's default fixes its kind: an int (or a tuple of ints) takes
    integers but not bools; a float takes finite ints or floats.
    """
    for f in fields(obj):
        name, value, default = f"{prefix}{f.name}", getattr(obj, f.name), f.default
        bounds = f.metadata.get("bounds", {})
        if is_dataclass(value):
            _check_numbers(value, f"{name}.")
        elif isinstance(default, tuple):
            if not isinstance(value, tuple):
                raise ConfigError(f"{name} must be a tuple, got {value!r}")
            for i, item in enumerate(value):
                _check_number(f"{name}[{i}]", item, type(default[0]), bounds)
        elif type(default) in (int, float):
            _check_number(name, value, type(default), bounds)


def _check_number(name: str, value, kind: type, bounds) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {expected}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    if not all(getattr(operator, op)(value, bound) for op, bound in bounds.items()):
        limits = " and ".join(f"{_SYMBOLS[op]} {bound}" for op, bound in bounds.items())
        raise ConfigError(f"{name} must be {limits}, got {value}")
