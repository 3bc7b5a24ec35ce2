"""Multi-class focal loss over per-class sigmoid scores.

    loss = - sum_i (1 - y_i)^gamma * p_i * log(y_i)

with y the predicted scores (clamped away from 0 and 1 before the log)
and p the target distribution. gamma = 0 recovers categorical
cross-entropy; larger gamma down-weights classes that are already
predicted confidently.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError, ValidationError

PRED_CLAMP_EPS = 1e-7


def validate_target(target: np.ndarray) -> None:
    if not np.all(np.isfinite(target)):
        raise ValidationError("target distribution has non-finite entries")
    if np.any(target < 0):
        raise ValidationError("target distribution has negative entries")
    total = float(target.sum())
    if abs(total - 1.0) > 1e-6:
        raise ValidationError(f"target distribution sums to {total}, expected 1")


def one_hot(index: int, num_classes: int, dtype=np.float64) -> np.ndarray:
    if not 0 <= index < num_classes:
        raise ValidationError(f"class index {index} out of range for {num_classes} classes")
    target = np.zeros(num_classes, dtype=dtype)
    target[index] = 1.0
    return target


def focal_loss(pred: np.ndarray, target: np.ndarray, gamma: float):
    """Scalar loss plus the cache for its gradient."""
    if pred.shape != target.shape:
        raise ShapeError(f"prediction shape {pred.shape} != target shape {target.shape}")
    if gamma < 0:
        raise ValidationError(f"gamma must be >= 0, got {gamma}")
    validate_target(target)
    clamped = np.clip(pred, PRED_CLAMP_EPS, 1.0 - PRED_CLAMP_EPS)
    log_y = np.log(clamped)
    weight = (1.0 - clamped) ** gamma
    loss = -float(np.sum(weight * target * log_y))
    inside = (pred > PRED_CLAMP_EPS) & (pred < 1.0 - PRED_CLAMP_EPS)
    return loss, (clamped, log_y, weight, target, gamma, inside)


def focal_loss_vjp(dloss: float, cache) -> np.ndarray:
    """Gradient with respect to the predictions (zero where the clamp is active)."""
    clamped, log_y, weight, target, gamma, inside = cache
    if gamma == 0.0:
        grad = -target / clamped
    else:
        grad = target * (gamma * (1.0 - clamped) ** (gamma - 1.0) * log_y - weight / clamped)
    return dloss * grad * inside
