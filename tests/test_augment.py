"""Spectrogram augmentation: identity cases, determinism, value bounds."""

import numpy as np
import pytest

from wlann.dsp import AugmentConfig, LogMelSpectrogram, spec_augment
from wlann.errors import ValidationError
from wlann.train import augment_seed_for


def random_spec(rng, frames=60):
    values = rng.uniform(-23.0, 0.0, (128, frames))
    return LogMelSpectrogram(values=values)


class TestIdentityCases:
    def test_all_zero_params_is_identity(self, rng):
        spec = random_spec(rng)
        out = spec_augment(spec, AugmentConfig(0, 0, 0), 123)
        np.testing.assert_array_equal(out.values, spec.values)

    def test_zero_width_masks_change_nothing(self, rng):
        spec = random_spec(rng)
        out = spec_augment(spec, AugmentConfig(0, 0, 5), 9)
        np.testing.assert_array_equal(out.values, spec.values)

    def test_width_drawn_zero_changes_nothing(self, rng):
        """With max width > 0, some seeds draw width 0 and leave the input alone."""
        spec = random_spec(rng)
        identity_seeds = 0
        for seed in range(200):
            out = spec_augment(spec, AugmentConfig(0, 24, 1), seed)
            if np.array_equal(out.values, spec.values):
                identity_seeds += 1
        assert identity_seeds > 0

    def test_zero_shift_warp_is_identity(self, rng):
        """Warp shifts are drawn from [-W, W]; shift 0 must leave frames alone."""
        spec = random_spec(rng)
        hits = 0
        for seed in range(100):
            out = spec_augment(spec, AugmentConfig(4, 0, 0), seed)
            if np.array_equal(out.values, spec.values):
                hits += 1
        assert hits > 0


class TestDeterminism:
    def test_same_seed_same_output(self, rng):
        spec = random_spec(rng)
        aug = AugmentConfig(5, 24, 2)
        first = spec_augment(spec, aug, 77)
        second = spec_augment(spec, aug, 77)
        np.testing.assert_array_equal(first.values, second.values)

    def test_different_seeds_differ(self, rng):
        spec = random_spec(rng)
        a = spec_augment(spec, AugmentConfig(5, 24, 2), 1)
        b = spec_augment(spec, AugmentConfig(5, 24, 2), 2)
        assert not np.array_equal(a.values, b.values)


class TestDtype:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_keeps_the_spectrogram_dtype(self, rng, dtype):
        """Warped columns and mean-filled masks stay in the input's dtype."""
        spec = LogMelSpectrogram(rng.uniform(-23.0, 0.0, (128, 60)).astype(dtype))
        outs = [spec_augment(spec, AugmentConfig(5, 24, 2), seed).values for seed in range(4)]
        assert [out.dtype for out in outs] == [np.dtype(dtype)] * 4
        warped = spec_augment(spec, AugmentConfig(5, 0, 0), 0).values
        assert warped.dtype == dtype and not np.array_equal(warped, spec.values)


class TestStructure:
    def test_shape_never_changes(self, rng):
        for frames in (20, 61, 98):
            spec = random_spec(rng, frames)
            out = spec_augment(spec, AugmentConfig(5, 24, 2), 3)
            assert out.values.shape == spec.values.shape

    def test_warp_keeps_endpoint_frames(self, rng):
        spec = random_spec(rng)
        cases = [(spec, AugmentConfig(6, 0, 0), seed) for seed in range(30)]
        # This seed displaces the pivot onto the last of 98 frames.
        edge_seed = augment_seed_for(2, 0, 4)
        cases.append((random_spec(rng, frames=98), AugmentConfig(5, 0, 0), edge_seed))
        for spec, aug, seed in cases:
            out = spec_augment(spec, aug, seed)
            np.testing.assert_allclose(out.values[:, 0], spec.values[:, 0], atol=1e-12)
            np.testing.assert_allclose(out.values[:, -1], spec.values[:, -1], atol=1e-12)

    def test_warp_moves_interior_for_some_seed(self, rng):
        spec = random_spec(rng)
        assert any(
            not np.array_equal(spec_augment(spec, AugmentConfig(6, 0, 0), s).values, spec.values)
            for s in range(50)
        )

    def test_values_stay_within_input_range(self, rng):
        """Interpolation and mean-fill cannot create values outside [min, max]."""
        spec = random_spec(rng)
        for seed in range(20):
            out = spec_augment(spec, AugmentConfig(5, 24, 2), seed)
            assert out.values.min() >= spec.values.min() - 1e-9
            assert out.values.max() <= spec.values.max() + 1e-9

    def test_mask_rows_are_mean_filled(self, rng):
        spec = random_spec(rng)
        # find a seed that masks at least one full row
        for seed in range(100):
            out = spec_augment(spec, AugmentConfig(0, 24, 1), seed)
            changed = np.where(np.any(out.values != spec.values, axis=1))[0]
            if changed.size:
                fill = out.values[changed[0], 0]
                assert np.allclose(out.values[changed], fill)
                assert np.isclose(fill, spec.values.mean())
                break
        else:
            pytest.fail("no seed produced a visible mask")

    def test_degenerate_warp_rejected(self, rng):
        spec = random_spec(rng, frames=10)
        with pytest.raises(ValidationError, match="degenerate"):
            spec_augment(spec, AugmentConfig(5, 0, 0), 0)

    def test_mask_width_bound_enforced(self):
        with pytest.raises(ValidationError, match="mask width"):
            spec_augment(
                LogMelSpectrogram(values=np.zeros((128, 30))),
                AugmentConfig(0, 128, 1),
                0,
            )

    def test_negative_params_rejected(self):
        with pytest.raises(ValidationError):
            AugmentConfig(-1, 0, 0)
