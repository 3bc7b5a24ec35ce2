"""Network geometry, preprocessing pipeline, and structural identities."""

import numpy as np
import pytest

from wlann.dataio import AudioClip
from wlann.dsp.mel import LogMelSpectrogram
from wlann.errors import ConfigError, ShapeError
from wlann.model import (
    WlannConfig,
    WlannParams,
    ast_branch,
    classify_head,
    forward,
    fuse,
    pad_or_crop_center,
    prepare_input,
    waveform_branch,
)
from wlann.model.config import AstBranchConfig, AugmentConfig, BandpassConfig, CnnBranchConfig
from wlann.verify import micro_config

from conftest import small_train_config


class TestDefaultGeometry:
    """The 8-second shipped configuration, end to end."""

    def test_derived_quantities(self):
        cfg = WlannConfig()
        assert cfg.fixed_samples == 128000
        assert cfg.spec_frames == 798
        assert cfg.freq_patches == 15
        assert cfg.time_patches == 98
        assert cfg.conv_lengths() == [128000, 25585, 6377, 1575, 374]
        assert cfg.t_raw == 374
        assert cfg.time_common == 98
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


class TestConfigValidation:
    def test_channel_width_divisibility_enforced(self):
        with pytest.raises(ConfigError, match="divisible"):
            WlannConfig(cnn=CnnBranchConfig(channel_widths=(64, 128, 240, 241)))

    def test_bandpass_order_enforced(self):
        with pytest.raises(ConfigError, match="band-pass order"):
            WlannConfig(bandpass=BandpassConfig(order=0))

    def test_heads_divisibility_enforced(self):
        with pytest.raises(ConfigError, match="heads"):
            WlannConfig(ast=AstBranchConfig(embed_dim=62, heads=4))

    def test_too_short_input_rejected(self):
        with pytest.raises(ConfigError):
            WlannConfig(fixed_input_seconds=0.05)

    def test_json_round_trip(self):
        cfg = small_train_config()
        clone = WlannConfig.from_dict(cfg.to_dict())
        assert clone == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            WlannConfig.from_dict({"not_a_field": 1})


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
        _, s1 = prepare_input(clip, cfg, train_mode=True, augment_seed=1)
        _, s2 = prepare_input(clip, cfg, train_mode=True, augment_seed=1)
        _, s3 = prepare_input(clip, cfg, train_mode=True, augment_seed=2)
        np.testing.assert_array_equal(s1.values, s2.values)
        assert not np.array_equal(s1.values, s3.values)

    @pytest.mark.parametrize("order, low_hz, high_hz", [(6, 20.0, 850.0), (8, 40.0, 850.0)])
    def test_high_order_bandpass_runs(self, order, low_hz, high_hz):
        cfg = small_train_config(bandpass=BandpassConfig(order, low_hz, high_hz))
        clip = AudioClip(np.random.default_rng(3).uniform(-0.3, 0.3, 8000), 8000)
        waveform, spec = prepare_input(clip, cfg)
        assert waveform.shape == (1, 16000)
        assert np.all(np.isfinite(waveform)) and np.all(np.isfinite(spec.values))

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
        wo = np.zeros((cfg.freq_patches, cfg.time_common, cfg.channel_groups))
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
        fused = rng.standard_normal((cfg.freq_patches, cfg.time_common, cfg.fused_channels))
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
        scores, cache = forward(waveform, spec, params, cfg)
        assert scores.shape == (cfg.num_classes,)
        frames = cache[-1]
        assert frames.shape == (cfg.time_common, 2 * cfg.gru_hidden)
        assert cfg.time_patches == (cfg.spec_frames - 16) // 8 + 1
        assert cfg.channel_groups == widths[-1] // 15
