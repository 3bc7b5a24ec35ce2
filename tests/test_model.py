"""Network geometry, preprocessing pipeline, and structural identities."""

import dataclasses
import hashlib
import json
import re
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from wlann.dataio import NUM_CLASSES, AudioClip
from wlann.dsp import LogMelSpectrogram, spec_augment
from wlann.errors import ConfigError, ShapeError
from wlann.model import (
    WlannConfig,
    WlannParams,
    ast_branch,
    classify_head,
    forward,
    fuse,
    pad_or_crop_center,
    predict_scores,
    prepare_input,
    waveform_branch,
)
from wlann.model.config import (
    AstBranchConfig,
    AugmentConfig,
    BandpassConfig,
    CnnBranchConfig,
    OptimizerConfig,
)
from wlann.model import network as network_module
from wlann.model.network import lane_plan
from wlann.verify import micro_config

from conftest import float_arrays, separation_config, small_train_config, traced_peak


class TestDefaultGeometry:
    """The 8-second shipped configuration, end to end."""

    def test_derived_quantities(self):
        cfg = WlannConfig()
        assert cfg.fixed_samples == 128000
        assert cfg.spec_frames == 798
        assert cfg.freq_patches == 15
        assert cfg.time_patches == 98
        assert cfg.conv_lengths() == [128000, 25585, 6377, 1575, 374]
        assert cfg.conv_lengths()[-1] == 374
        assert cfg.channel_groups == 16
        assert cfg.fused_channels == 80

    def test_branch_output_shapes(self, rng):
        cfg = WlannConfig()
        params = WlannParams.create(cfg)
        waveform = rng.uniform(-0.5, 0.5, (1, cfg.fixed_samples)).astype(np.float32)
        spec = LogMelSpectrogram(values=rng.standard_normal((128, cfg.spec_frames)))
        wo, _ = waveform_branch(waveform, params, cfg)
        ao, _ = ast_branch(spec, params, cfg)
        assert wo.shape == (15, 98, 16)
        assert ao.shape == (15, 98, 64)
        fused, _ = fuse(wo, ao)
        assert fused.shape == (15, 98, 80)
        (scores, frames), _ = classify_head(fused, params, cfg)
        assert scores.shape == (7,)
        assert frames.shape == (98, 2 * cfg.gru_hidden)
        assert np.all((scores > 0) & (scores < 1))

    def test_init_std_reaches_transformer_weights(self):
        """Attention and feed-forward weights draw at the config's `init_std`, as the
        other truncated-normal weights do (clipping at 2 std leaves about 0.96 std)."""
        cfg = WlannConfig(init_std=0.25)
        named = WlannParams.create(cfg).named()
        block_weights = [n for n in named if n.startswith("ast.block.") and n.endswith(".w")]
        assert len(block_weights) == 6 * cfg.ast.depth
        for name in [*block_weights, "cnn.0.w", "ast.embed.w", "head.w"]:
            data = named[name].data
            assert 0.2 < data.std() < 0.25, name
            assert np.abs(data).max() <= 2 * 0.25 * (1 + 1e-6), name


class TestInitialization:
    @pytest.mark.parametrize("dtype, digest", [
        ("float32", "2eb8af429eb8bb20580a910e9a3675ce4ec2d421eaec69ba91c620fb819a3e44"),
        ("float64", "19a61afb8af6c8684166bf91d7967e121eb1faf2d763e2db2a655af52e38e722"),
    ], ids=["float32", "float64"])
    def test_random_init_is_pinned(self, dtype, digest):
        """SHA-256 over each parameter's name and bytes. The draws follow field
        declaration order, so reordering one field would re-seed every model."""
        sha = hashlib.sha256()
        for tensor in WlannParams.create(small_train_config(dtype=dtype)).tensors():
            assert tensor.dtype == np.dtype(dtype)
            sha.update(tensor.name.encode())
            sha.update(tensor.data.tobytes())
        assert sha.hexdigest() == digest


class TestConfigValidation:
    def test_channel_width_divisibility_enforced(self):
        with pytest.raises(ConfigError, match="divisible"):
            WlannConfig(cnn=CnnBranchConfig(channel_widths=(64, 128, 240, 241)))

    def test_bandpass_order_enforced(self):
        with pytest.raises(ConfigError, match=r"bandpass\.order must be >= 1"):
            WlannConfig(bandpass=BandpassConfig(order=0))

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_enforced(self, batch_size):
        with pytest.raises(ConfigError, match=r"optimizer\.batch_size must be >= 1"):
            WlannConfig(optimizer=OptimizerConfig(batch_size=batch_size))

    @pytest.mark.parametrize("strengths", [(-1, 24, 2), (5, -1, 2), (5, 24, -1), (0, -3, 0)])
    def test_negative_augment_strength_rejected(self, strengths):
        with pytest.raises(ConfigError, match="augmentation strengths"):
            WlannConfig(augment=AugmentConfig(*strengths))

    def test_time_warp_must_fit_spectrogram(self):
        assert WlannConfig().spec_frames == 798
        WlannConfig(augment=AugmentConfig(time_warp_frames=398))
        with pytest.raises(ConfigError, match="time warp"):
            WlannConfig(augment=AugmentConfig(time_warp_frames=399))

    def test_num_classes_bounded_by_label_set(self):
        WlannConfig(num_classes=NUM_CLASSES)
        with pytest.raises(ConfigError, match="num_classes"):
            WlannConfig(num_classes=NUM_CLASSES + 1)

    def test_heads_divisibility_enforced(self):
        with pytest.raises(ConfigError, match="heads"):
            WlannConfig(ast=AstBranchConfig(embed_dim=62, heads=4))

    def test_too_short_input_rejected(self):
        with pytest.raises(ConfigError):
            WlannConfig(fixed_input_seconds=0.05)

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_input_length_rejected(self, seconds):
        with pytest.raises(ConfigError, match="fixed_input_seconds must be finite"):
            WlannConfig(fixed_input_seconds=seconds)

    @pytest.mark.parametrize("seconds", [30.5, 1e6, 1e305])
    def test_input_length_above_30_s_rejected(self, seconds):
        with pytest.raises(ConfigError, match=r"^fixed_input_seconds must be > 0 and <= 30, got"):
            WlannConfig(fixed_input_seconds=seconds)

    def test_input_length_of_30_s_accepted(self):
        assert WlannConfig(fixed_input_seconds=30).fixed_samples == 480_000

    @pytest.mark.parametrize("field", [
        "focal_gamma", "init_std", "optimizer.learning_rate", "optimizer.beta1",
        "optimizer.beta2", "optimizer.eps", "optimizer.clip_norm", "optimizer.weight_decay",
        "bandpass.low_hz",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_float_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            WlannConfig.from_dict(_set_field(WlannConfig().to_dict(), field, value))

    @pytest.mark.parametrize("field, value, message", [
        ("optimizer.learning_rate", -1e-3, "learning_rate must be >= 0"),
        ("optimizer.clip_norm", -1.0, "clip_norm must be >= 0"),
        ("optimizer.weight_decay", -1.0, "weight_decay must be >= 0"),
        ("optimizer.beta1", 1.5, "beta1 must be >= 0 and < 1"),
        ("optimizer.beta1", 1.0, "beta1 must be >= 0 and < 1"),
        ("optimizer.beta2", -0.1, "beta2 must be >= 0 and < 1"),
        ("optimizer.eps", 0.0, "eps must be > 0"),
        ("init_std", -1.0, "init_std must be > 0"),
        ("init_std", 0.0, "init_std must be > 0"),
    ])
    def test_out_of_range_training_setting_rejected(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            WlannConfig.from_dict(_set_field(WlannConfig().to_dict(), field, value))

    @pytest.mark.parametrize("field, value", [
        ("ast.heads", 0),
        ("ast.patch_stride", 0),
        ("cnn.kernel", 0),
        ("cnn.channel_widths", (64, 0, 240, 240)),
        ("ast.depth", -1),
        ("gru_hidden", 0),
        ("seed", -1),
        ("seed", 1.5),
        ("optimizer.batch_size", 2.5),
        ("bandpass.order", True),
        ("focal_gamma", True),
    ])
    def test_bad_number_rejected_by_its_dotted_name(self, field, value):
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}(\[\d+\])? must be"):
            WlannConfig.from_dict(_set_field(WlannConfig().to_dict(), field, value))

    def test_depth_zero_and_micro_config_stay_valid(self):
        assert WlannConfig(ast=AstBranchConfig(depth=0)).ast.depth == 0
        micro_config().validate()

    @pytest.mark.parametrize("field", ["time_warp_frames", "freq_mask_width", "freq_mask_count"])
    @pytest.mark.parametrize("value", [1.5, True, "2"])
    def test_non_integer_augment_strength_rejected(self, field, value):
        with pytest.raises(ConfigError, match="augmentation strengths must be integers"):
            AugmentConfig(**{field: value})

    def test_training_setting_boundaries_accepted(self):
        WlannConfig(optimizer=OptimizerConfig(
            learning_rate=0.0, beta1=0.0, beta2=0.0, clip_norm=0.0, weight_decay=0.0
        ))

    def test_json_round_trip(self):
        cfg = small_train_config()
        clone = WlannConfig.from_dict(cfg.to_dict())
        assert clone == cfg

    def test_every_field_survives_json_round_trip(self):
        cfg = WlannConfig(
            fixed_input_seconds=2.0,
            cnn=CnnBranchConfig(kernel=40, initial_stride=4, block_strides=(3, 3),
                                channel_widths=(8, 16, 62)),
            ast=AstBranchConfig(patch_size=8, patch_stride=4, embed_dim=16, depth=1, heads=2),
            gru_hidden=8,
            num_classes=5,
            focal_gamma=1.5,
            augment=AugmentConfig(time_warp_frames=3, freq_mask_width=10, freq_mask_count=1),
            bandpass=BandpassConfig(order=6, low_hz=50.0, high_hz=900.0),
            optimizer=OptimizerConfig(learning_rate=3e-4, beta1=0.8, beta2=0.99, eps=1e-6,
                                      clip_norm=2.0, weight_decay=0.01, batch_size=4),
            init_std=0.05,
            dtype="float64",
            seed=3,
        )
        # The feature extractor fixes these two; every other field is off its default.
        unchanged = {name for (name, a), (_, b) in zip(_leaves(cfg), _leaves(WlannConfig()))
                     if a == b}
        assert unchanged == {"sample_rate_hz", "ast.mel_bins"}
        clone = WlannConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert clone == cfg
        assert type(clone.cnn.block_strides) is type(clone.cnn.channel_widths) is tuple

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            WlannConfig.from_dict({"not_a_field": 1})

    @pytest.mark.parametrize("payload", [
        5,
        [{"seed": 1}],
        {"fixed_input_seconds": "1"},
        {"augment": {"time_warp_frames": "5"}},
        {"cnn": {"channel_widths": 5}},
    ], ids=["int_payload", "list_payload", "str_seconds", "str_warp", "int_widths"])
    def test_wrongly_typed_payload_rejected(self, payload):
        with pytest.raises(ConfigError):
            WlannConfig.from_dict(payload)


# Numeric fields without declared bounds: the feature extractor fixes the first two,
# the band edges are checked against each other and Nyquist, and AugmentConfig (built
# outside WlannConfig) checks its own strengths.
UNBOUNDED_FIELDS = {
    "sample_rate_hz", "ast.mel_bins", "bandpass.low_hz", "bandpass.high_hz",
    "augment.time_warp_frames", "augment.freq_mask_width", "augment.freq_mask_count",
}


def _numeric_fields(cls, prefix=""):
    """(dotted name, field) of every int, float or tuple-of-ints field in a config tree."""
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.default_factory):
            yield from _numeric_fields(f.default_factory, f"{prefix}{f.name}.")
        elif isinstance(f.default, (int, float, tuple)):
            yield f"{prefix}{f.name}", f


BOUNDED_FIELDS = [(n, f) for n, f in _numeric_fields(WlannConfig) if n not in UNBOUNDED_FIELDS]


class TestConfigBoundsCoverage:
    """Every number in the config tree either declares its bounds or is named above."""

    def test_every_numeric_field_declares_bounds(self):
        unbounded = {n for n, f in _numeric_fields(WlannConfig) if "bounds" not in f.metadata}
        assert unbounded == UNBOUNDED_FIELDS
        assert len(BOUNDED_FIELDS) == 23

    @pytest.mark.parametrize("name, f", BOUNDED_FIELDS, ids=[n for n, _ in BOUNDED_FIELDS])
    def test_each_declared_bound_is_enforced(self, name, f):
        assert f.metadata["bounds"]
        for op, bound in f.metadata["bounds"].items():
            outside = {"ge": bound - 1, "gt": bound, "le": bound + 1, "lt": bound}[op]
            if isinstance(f.default, tuple):
                outside = (outside, *f.default[1:])
            with pytest.raises(ConfigError, match=rf"^{re.escape(name)}(\[0\])? must be"):
                WlannConfig.from_dict(_set_field(WlannConfig().to_dict(), name, outside))


def _set_field(data: dict, dotted: str, value) -> dict:
    *sections, key = dotted.split(".")
    target = data
    for section in sections:
        target = target[section]
    target[key] = value
    return data


def _leaves(obj, prefix=""):
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", value


class TestPrepareInput:
    def test_short_event_zero_padded_to_center(self):
        cfg = small_train_config()  # 1 s fixed window
        t = np.arange(8000) / 16000.0  # 0.5 s at the model rate
        clip = AudioClip(0.4 * np.sin(2 * np.pi * 300.0 * t), 16000)
        waveform, spec = prepare_input(clip, cfg)
        assert waveform.shape == (1, 16000)
        assert spec.values.shape == (128, 98)
        # padding regions are exactly zero: filtering happens before padding
        assert np.all(waveform[0, :3900] == 0.0)
        assert np.all(waveform[0, -3900:] == 0.0)
        assert np.any(waveform[0, 4100:11900] != 0.0)

    def test_long_event_center_cropped(self):
        cfg = small_train_config()
        clip = AudioClip(np.random.default_rng(0).uniform(-0.3, 0.3, 32000), 16000)
        waveform, _ = prepare_input(clip, cfg)
        assert waveform.shape == (1, 16000)

    def test_deterministic_without_augmentation(self):
        cfg = small_train_config()
        clip = AudioClip(np.random.default_rng(1).uniform(-0.3, 0.3, 9000), 16000)
        w1, s1 = prepare_input(clip, cfg)
        w2, s2 = prepare_input(clip, cfg)
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(s1.values, s2.values)

    def test_augment_seed_controls_spectrogram(self):
        cfg = small_train_config(augment=AugmentConfig(5, 24, 2))
        clip = AudioClip(np.random.default_rng(2).uniform(-0.3, 0.3, 16000), 16000)
        _, spec = prepare_input(clip, cfg)
        s1 = spec_augment(spec, cfg.augment, 1)
        s2 = spec_augment(spec, cfg.augment, 1)
        s3 = spec_augment(spec, cfg.augment, 2)
        np.testing.assert_array_equal(s1.values, s2.values)
        assert not np.array_equal(s1.values, s3.values)

    @pytest.mark.parametrize("order, low_hz, high_hz", [(6, 20.0, 850.0), (8, 40.0, 850.0)])
    def test_high_order_bandpass_runs(self, order, low_hz, high_hz):
        cfg = small_train_config(bandpass=BandpassConfig(order, low_hz, high_hz))
        clip = AudioClip(np.random.default_rng(3).uniform(-0.3, 0.3, 8000), 8000)
        waveform, spec = prepare_input(clip, cfg)
        assert waveform.shape == (1, 16000)
        assert np.all(np.isfinite(waveform)) and np.all(np.isfinite(spec.values))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_both_views_reach_the_model_in_the_config_dtype(self, monkeypatch, dtype):
        """`prepare_input` returns both views in the config's dtype, and `ast_branch` patches a
        spectrogram of that dtype without copying it; any other dtype is cast."""
        cfg = small_train_config(dtype=dtype)
        clip = AudioClip(np.random.default_rng(4).uniform(-0.3, 0.3, 8000), 8000)
        waveform, spec = prepare_input(clip, cfg)
        assert waveform.dtype == spec.values.dtype == np.dtype(dtype)

        seen = []
        patches = network_module.extract_patches
        monkeypatch.setattr(network_module, "extract_patches",
                            lambda values, *args: seen.append(values) or patches(values, *args))
        params = WlannParams.create(cfg)
        other = LogMelSpectrogram(spec.values.astype(np.float64 if dtype == "float32" else np.float32))
        for given in (spec, other):
            tokens, _ = network_module.ast_branch(given, params, cfg, keep_cache=False)
            assert tokens.dtype == np.dtype(dtype)
        assert np.shares_memory(seen[0], spec.values)
        assert seen[1].dtype == np.dtype(dtype)

    def test_pad_or_crop_identity(self, rng):
        x = rng.standard_normal(100)
        np.testing.assert_array_equal(pad_or_crop_center(x, 100), x)


class TestStructuralIdentities:
    def test_zero_waveform_zero_biases_gives_zero_grid(self):
        cfg = micro_config()
        params = WlannParams.create(cfg)
        wo, _ = waveform_branch(np.zeros((1, cfg.fixed_samples)), params, cfg)
        np.testing.assert_allclose(wo, 0.0, atol=1e-12)

    def test_fuse_keeps_zero_slice(self, rng):
        cfg = micro_config()
        params = WlannParams.create(cfg)
        spec = LogMelSpectrogram(values=rng.standard_normal((128, cfg.spec_frames)))
        ao, _ = ast_branch(spec, params, cfg)
        wo = np.zeros((cfg.freq_patches, cfg.time_patches, cfg.channel_groups))
        fused, ast_channels = fuse(wo, ao)
        assert ast_channels == cfg.ast.embed_dim
        np.testing.assert_array_equal(fused[:, :, ast_channels:], 0.0)
        np.testing.assert_array_equal(fused[:, :, :ast_channels], ao)

    def test_fuse_shape_mismatch_message_has_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(3, 4, 2\)"):
            fuse(np.zeros((3, 4, 2)), np.zeros((3, 5, 6)))

    def test_head_invariant_to_frequency_permutation(self, rng):
        """Mean pooling over the grid's frequency axis erases row order."""
        cfg = micro_config()
        params = WlannParams.create(cfg)
        fused = rng.standard_normal((cfg.freq_patches, cfg.time_patches, cfg.fused_channels))
        (scores, _), _ = classify_head(fused, params, cfg)
        permuted = fused[rng.permutation(cfg.freq_patches)]
        (scores_p, _), _ = classify_head(permuted, params, cfg)
        np.testing.assert_allclose(scores, scores_p, atol=1e-12)

    def test_permuting_output_rows_permutes_scores(self, rng):
        cfg = micro_config(num_classes=4)
        params = WlannParams.create(cfg)
        waveform = rng.uniform(-0.5, 0.5, (1, cfg.fixed_samples))
        spec = LogMelSpectrogram(values=rng.standard_normal((128, cfg.spec_frames)))
        scores, _ = forward(waveform, spec, params, cfg)
        perm = rng.permutation(4)
        params.out_w.data = params.out_w.data[perm]
        params.out_b.data = params.out_b.data[perm]
        scores_p, _ = forward(waveform, spec, params, cfg)
        np.testing.assert_allclose(scores_p, scores[perm], atol=1e-12)

    def test_forward_is_deterministic(self, rng):
        cfg = micro_config()
        params = WlannParams.create(cfg)
        waveform = rng.uniform(-0.5, 0.5, (1, cfg.fixed_samples))
        spec = LogMelSpectrogram(values=rng.standard_normal((128, cfg.spec_frames)))
        first, _ = forward(waveform, spec, params, cfg)
        second, _ = forward(waveform, spec, params, cfg)
        np.testing.assert_array_equal(first, second)

    def test_forward_cache_holds_no_bigru_output(self, rng):
        """`backward` never reads the Bi-GRU output, so the forward cache does not keep it."""
        cfg = micro_config()
        params = WlannParams.create(cfg)
        waveform = rng.uniform(-0.5, 0.5, (1, cfg.fixed_samples))
        spec = LogMelSpectrogram(values=rng.standard_normal((128, cfg.spec_frames)))
        _, cache = forward(waveform, spec, params, cfg)
        fused, _ = fuse(waveform_branch(waveform, params, cfg)[0], ast_branch(spec, params, cfg)[0])
        (_, frames), _ = classify_head(fused, params, cfg)
        cached = list(float_arrays(cache))
        assert cached
        assert not any(a.shape == frames.shape and np.array_equal(a, frames) for a in cached)

    def test_predict_peak_is_set_by_the_widest_layers_columns(self, rng):
        """At the 1 s separation geometry: the widest layer's im2col columns plus under 2 MiB."""
        cfg = separation_config()
        params = WlannParams.create(cfg)
        waveform = rng.uniform(-0.5, 0.5, (1, cfg.fixed_samples)).astype(np.float32)
        spec = LogMelSpectrogram(values=rng.standard_normal((128, cfg.spec_frames)))
        predict_scores(waveform, spec, params, cfg)  # first-call imports
        peak = traced_peak(lambda: predict_scores(waveform, spec, params, cfg))
        widest = lane_plan(cfg).split
        rows = (1, *cfg.cnn.channel_widths)[widest] * cfg.cnn.kernel
        columns = rows * cfg.conv_lengths()[widest + 1] * 4
        assert peak <= columns + 2 * 2**20, (peak, columns)

    def test_predict_keeps_no_backward_cache_at_8s(self, rng):
        """At the default 8 s config the forward without caches gives the same scores, and
        `predict_scores` peaks under 64 MiB (the forward that keeps them: ~134 MiB)."""
        cfg = WlannConfig()
        params = WlannParams.create(cfg)
        waveform = rng.uniform(-0.5, 0.5, (1, cfg.fixed_samples)).astype(np.float32)
        spec = LogMelSpectrogram(values=rng.standard_normal((128, cfg.spec_frames)))
        scores = predict_scores(waveform, spec, params, cfg)  # first-call imports and spectra
        kept, cache = forward(waveform, spec, params, cfg)
        assert cache is not None and scores.tobytes() == kept.tobytes()
        del cache
        assert forward(waveform, spec, params, cfg, keep_cache=False)[1] is None
        peak = traced_peak(lambda: predict_scores(waveform, spec, params, cfg))
        assert peak <= 64 * 2**20, peak

    def test_predict_on_a_one_worker_executor_at_8s(self, rng):
        """The idle worker runs the spectrogram branch: same scores, still under 64 MiB."""
        cfg = WlannConfig()
        params = WlannParams.create(cfg)
        waveform = rng.uniform(-0.5, 0.5, (1, cfg.fixed_samples)).astype(np.float32)
        spec = LogMelSpectrogram(values=rng.standard_normal((128, cfg.spec_frames)))
        want = predict_scores(waveform, spec, params, cfg)
        before = set(threading.enumerate())
        with ThreadPoolExecutor(max_workers=1) as pool:
            got = predict_scores(waveform, spec, params, cfg, pool)
            peak = traced_peak(lambda: predict_scores(waveform, spec, params, cfg, pool))
        assert not set(threading.enumerate()) - before
        assert got.tobytes() == want.tobytes()
        assert peak <= 64 * 2**20, peak

    def test_single_patch_column(self, rng):
        """Inputs with exactly 16 frames produce a 15 x 1 token grid."""
        cfg = WlannConfig(
            fixed_input_seconds=0.175,
            cnn=CnnBranchConfig(kernel=16, initial_stride=5, block_strides=(4, 4, 4),
                                channel_widths=(6, 8, 15, 15)),
            ast=AstBranchConfig(embed_dim=8, depth=1, heads=2),
            gru_hidden=3,
            dtype="float64",
        )
        assert cfg.spec_frames == 16
        assert cfg.time_patches == 1
        params = WlannParams.create(cfg)
        spec = LogMelSpectrogram(values=rng.standard_normal((128, 16)))
        ao, _ = ast_branch(spec, params, cfg)
        assert ao.shape == (15, 1, 8)


class TestShapeLaws:
    @pytest.mark.parametrize("seconds,widths,embed", [
        (0.35, (6, 8, 15, 15), 8),
        (0.6, (4, 6, 30, 30), 16),
    ])
    def test_randomized_small_configs(self, seconds, widths, embed, rng):
        cfg = WlannConfig(
            fixed_input_seconds=seconds,
            cnn=CnnBranchConfig(kernel=16, initial_stride=5, block_strides=(4, 4, 4),
                                channel_widths=widths),
            ast=AstBranchConfig(embed_dim=embed, depth=1, heads=2),
            gru_hidden=4,
            dtype="float64",
        )
        params = WlannParams.create(cfg)
        waveform = rng.uniform(-0.5, 0.5, (1, cfg.fixed_samples))
        spec = LogMelSpectrogram(values=rng.standard_normal((128, cfg.spec_frames)))
        scores, _ = forward(waveform, spec, params, cfg)
        assert scores.shape == (cfg.num_classes,)
        fused, _ = fuse(waveform_branch(waveform, params, cfg)[0], ast_branch(spec, params, cfg)[0])
        (_, frames), _ = classify_head(fused, params, cfg)
        assert frames.shape == (cfg.time_patches, 2 * cfg.gru_hidden)
        assert cfg.time_patches == (cfg.spec_frames - 16) // 8 + 1
        assert cfg.channel_groups == widths[-1] // 15
