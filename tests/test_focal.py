"""Focal loss values, limits, and its cross-entropy reduction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlann.errors import ValidationError
from wlann.train import focal_loss, focal_loss_vjp, one_hot

# Frozen expected values, by direct substitution into the loss formula
# with p = one-hot class 1 and y = (0.2, 0.7, 0.1):
#   gamma=0: -ln(0.7)              = 0.35667494393873245
#   gamma=2: (1-0.7)^2 * -ln(0.7)  = 0.03210074495448592
CE_07 = 0.35667494393873245
FOCAL2_07 = 0.03210074495448592

PRED = np.array([0.2, 0.7, 0.1])
TARGET = one_hot(1, 3)


class TestValues:
    def test_gamma_zero_is_cross_entropy(self):
        loss, _ = focal_loss(PRED, TARGET, gamma=0.0)
        assert abs(loss - CE_07) < 1e-12

    def test_gamma_two_down_weights(self):
        loss, _ = focal_loss(PRED, TARGET, gamma=2.0)
        assert abs(loss - FOCAL2_07) < 1e-12

    def test_confident_correct_prediction_has_tiny_loss(self):
        pred = np.array([1e-9, 1.0 - 1e-9, 1e-9])
        loss, _ = focal_loss(pred, TARGET, gamma=2.0)
        assert loss < 1e-12

    def test_soft_targets_accepted(self):
        loss, _ = focal_loss(PRED, np.array([0.25, 0.5, 0.25]), gamma=1.0)
        assert loss > 0

    @pytest.mark.parametrize("y", [0.5, 0.7, 0.9])
    def test_gamma2_ratio_is_one_minus_y_squared(self, y):
        """focal(gamma=2) / focal(gamma=0) = (1-y)^2 exactly."""
        pred = np.array([1 - y, y, 0.0 + 1e-6])
        plain, _ = focal_loss(pred, TARGET, gamma=0.0)
        focused, _ = focal_loss(pred, TARGET, gamma=2.0)
        assert abs(focused / plain - (1.0 - y) ** 2) < 1e-12


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        y=st.floats(1e-6, 1 - 1e-6),
        gamma=st.floats(0.0, 4.0),
    )
    def test_nonnegative(self, y, gamma):
        pred = np.array([1 - y, y])
        loss, _ = focal_loss(pred, one_hot(1, 2), gamma)
        assert loss >= 0.0

    def test_strictly_decreasing_in_true_class_score(self):
        grid = np.linspace(0.05, 0.95, 50)
        losses = [focal_loss(np.array([0.3, y]), one_hot(1, 2), 2.0)[0] for y in grid]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    @pytest.mark.parametrize("y", [0.5, 0.6, 0.8, 0.95])
    def test_gamma2_never_exceeds_cross_entropy_above_half(self, y):
        pred = np.array([1 - y, y])
        assert focal_loss(pred, one_hot(1, 2), 2.0)[0] <= focal_loss(pred, one_hot(1, 2), 0.0)[0]

    def test_untargeted_scores_do_not_contribute(self):
        """One-hot target zeroes every non-target term."""
        base, _ = focal_loss(np.array([0.2, 0.7, 0.1]), TARGET, gamma=2.0)
        moved, _ = focal_loss(np.array([0.9, 0.7, 0.6]), TARGET, gamma=2.0)
        assert abs(base - moved) < 1e-15


class TestGradient:
    def test_matches_finite_differences(self, rng):
        pred = rng.uniform(0.05, 0.95, 7)
        target = one_hot(3, 7)
        for gamma in (0.0, 1.0, 2.0):
            _, cache = focal_loss(pred, target, gamma)
            grad = focal_loss_vjp(1.0, cache)
            h = 1e-7
            for i in range(7):
                up = focal_loss(pred + h * np.eye(7)[i], target, gamma)[0]
                down = focal_loss(pred - h * np.eye(7)[i], target, gamma)[0]
                numeric = (up - down) / (2 * h)
                assert abs(grad[i] - numeric) <= 1e-6 * max(1.0, abs(numeric))

    def test_gradient_zero_for_non_target_classes(self):
        _, cache = focal_loss(PRED, TARGET, gamma=2.0)
        grad = focal_loss_vjp(1.0, cache)
        assert grad[0] == 0.0 and grad[2] == 0.0
        assert grad[1] < 0.0  # pushing the target score up reduces the loss


class TestValidation:
    def test_negative_target_rejected(self):
        with pytest.raises(ValidationError):
            focal_loss(PRED, np.array([-0.1, 1.1, 0.0]), gamma=1.0)

    @pytest.mark.parametrize("target", [[np.nan, 1.0, 0.0], [0.0, np.inf, 0.0]], ids=["nan", "inf"])
    def test_non_finite_target_rejected(self, target):
        with pytest.raises(ValidationError, match="non-finite"):
            focal_loss(PRED, np.array(target), gamma=1.0)

    def test_unnormalized_target_rejected(self):
        with pytest.raises(ValidationError):
            focal_loss(PRED, np.array([0.5, 0.2, 0.1]), gamma=1.0)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValidationError):
            focal_loss(PRED, TARGET, gamma=-1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(Exception):
            focal_loss(np.zeros(3), np.zeros(4), gamma=1.0)

    def test_out_of_range_class_index_rejected(self):
        with pytest.raises(ValidationError):
            one_hot(7, 7)
