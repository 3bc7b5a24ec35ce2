"""One configuration object governing every architectural hyperparameter.

The same structure is serialized into checkpoints and reports, so any
artifact is self-describing. Geometry that follows from the settings
(frame counts, patch grids, fused channel width) is exposed as derived
properties and validated once at construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from ..dataio.events import NUM_CLASSES
from ..dsp import mel as meldsp
from ..dsp.augment import AugmentConfig
from ..errors import ConfigError
from ..ndiff.functional import conv1d_output_length


@dataclass(frozen=True)
class CnnBranchConfig:
    """Raw-waveform convolution stack: one entry stride per layer."""

    kernel: int = 80
    initial_stride: int = 5
    block_strides: tuple[int, ...] = (4, 4, 4)
    channel_widths: tuple[int, ...] = (64, 128, 240, 240)

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
    patch_size: int = 16
    patch_stride: int = 8
    embed_dim: int = 64
    depth: int = 2
    heads: int = 4


@dataclass(frozen=True)
class BandpassConfig:
    order: int = 4
    low_hz: float = 40.0
    high_hz: float = 850.0


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 1.0
    weight_decay: float = 0.0
    batch_size: int = 8


@dataclass(frozen=True)
class WlannConfig:
    fixed_input_seconds: float = 8.0
    sample_rate_hz: int = 16000
    cnn: CnnBranchConfig = field(default_factory=CnnBranchConfig)
    ast: AstBranchConfig = field(default_factory=AstBranchConfig)
    gru_hidden: int = 64
    num_classes: int = 7
    focal_gamma: float = 2.0
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    bandpass: BandpassConfig = field(default_factory=BandpassConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    init_std: float = 0.02
    dtype: str = "float32"
    seed: int = 0

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
    def time_common(self) -> int:
        """Shared frame count of the fused grid (the patch-grid time axis)."""
        return self.time_patches

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
    def t_raw(self) -> int:
        return self.conv_lengths()[-1]

    @property
    def numpy_dtype(self):
        return {"float32": np.float32, "float64": np.float64}[self.dtype]

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        if self.sample_rate_hz != meldsp.SAMPLE_RATE_HZ:
            raise ConfigError(
                f"model sample rate must be {meldsp.SAMPLE_RATE_HZ} Hz, got {self.sample_rate_hz}"
            )
        if not (math.isfinite(self.fixed_input_seconds) and self.fixed_input_seconds > 0):
            raise ConfigError(
                f"fixed_input_seconds must be positive and finite, got {self.fixed_input_seconds}"
            )
        for name, value in _float_fields(self):
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.ast.mel_bins != meldsp.MEL_BINS:
            raise ConfigError(f"mel_bins must be {meldsp.MEL_BINS}, got {self.ast.mel_bins}")
        if len(self.cnn.channel_widths) != len(self.cnn.strides):
            raise ConfigError(
                f"{len(self.cnn.channel_widths)} channel widths for {len(self.cnn.strides)} strides"
            )
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, got {self.dtype!r}")
        if not 2 <= self.num_classes <= NUM_CLASSES:
            raise ConfigError(f"num_classes must be in [2, {NUM_CLASSES}], got {self.num_classes}")
        if self.focal_gamma < 0:
            raise ConfigError("focal gamma must be >= 0")
        if self.init_std <= 0:
            raise ConfigError(f"init_std must be > 0, got {self.init_std}")
        if self.ast.embed_dim % self.ast.heads != 0:
            raise ConfigError(
                f"embed dim {self.ast.embed_dim} not divisible by {self.ast.heads} heads"
            )
        if (self.ast.mel_bins - self.ast.patch_size) % self.ast.patch_stride != 0:
            raise ConfigError(
                "patch geometry must tile the mel axis exactly: "
                f"({self.ast.mel_bins} - {self.ast.patch_size}) % {self.ast.patch_stride} != 0"
            )
        if self.cnn.output_channels % self.freq_patches != 0:
            raise ConfigError(
                f"waveform-branch channels {self.cnn.output_channels} must be divisible by "
                f"the {self.freq_patches}-row patch grid"
            )
        if self.fixed_samples < meldsp.WINDOW_SAMPLES:
            raise ConfigError("fixed input shorter than one analysis window")
        if self.spec_frames < self.ast.patch_size:
            raise ConfigError(
                f"fixed input yields {self.spec_frames} frames; patches need >= {self.ast.patch_size}"
            )
        if self.augment.freq_mask_width >= self.ast.mel_bins:
            raise ConfigError("frequency mask width must be < mel_bins")
        warp = self.augment.time_warp_frames
        if warp > 0 and 2 * warp >= self.spec_frames:
            raise ConfigError(
                f"time warp of {warp} frames needs more than {2 * warp} spectrogram frames, "
                f"got {self.spec_frames}"
            )
        try:
            lengths = self.conv_lengths()
        except Exception as exc:
            raise ConfigError(f"waveform stack does not fit the fixed input: {exc}") from exc
        if lengths[-1] < 1:
            raise ConfigError("waveform stack produces no frames")
        nyquist = self.sample_rate_hz / 2
        if not (0 < self.bandpass.low_hz < self.bandpass.high_hz < nyquist):
            raise ConfigError(
                f"band edges ({self.bandpass.low_hz}, {self.bandpass.high_hz}) must be "
                f"increasing and below Nyquist ({nyquist})"
            )
        if self.bandpass.order < 1:
            raise ConfigError(f"band-pass order must be >= 1, got {self.bandpass.order}")
        opt = self.optimizer
        if opt.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {opt.batch_size}")
        if not (0 <= opt.beta1 < 1 and 0 <= opt.beta2 < 1):
            raise ConfigError(f"Adam betas must lie in [0, 1), got ({opt.beta1}, {opt.beta2})")
        if opt.eps <= 0:
            raise ConfigError(f"Adam eps must be > 0, got {opt.eps}")
        for name in ("learning_rate", "clip_norm", "weight_decay"):
            if getattr(opt, name) < 0:
                raise ConfigError(f"optimizer {name} must be >= 0, got {getattr(opt, name)}")

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
        try:
            return _from_dict(cls, data, "config")
        except TypeError as exc:
            raise ConfigError(f"config value of the wrong type: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "WlannConfig":
        with Path(path).open("r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def _from_dict(cls, data, where: str):
    """Build dataclass `cls` from a JSON object, following its field declarations.

    A field whose default factory is a dataclass is a section and is
    built recursively; a field with a tuple default takes `tuple(value)`.
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
        elif isinstance(declared.default, tuple):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


def _float_fields(obj, prefix: str = ""):
    """(dotted name, value) of every float in a config tree, sections walked."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _float_fields(value, f"{prefix}{f.name}.")
        elif isinstance(value, float):
            yield f"{prefix}{f.name}", value
