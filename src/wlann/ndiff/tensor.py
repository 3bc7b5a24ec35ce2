"""Parameter tensors with explicit gradient buffers.

Activations flow through the network as plain numpy arrays; `Tensor`
exists for the values that training mutates (weights, biases,
embeddings). Each operation's backward pass accumulates parameter
gradients into `Tensor.grad` and returns input gradients directly, so
there is no graph or tape: the composition order is written out by hand
wherever operations are chained.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError


class Tensor:
    """An n-dimensional parameter array plus its gradient accumulator."""

    __slots__ = ("name", "data", "grad")

    def __init__(self, data, name: str = ""):
        self.data = np.asarray(data)
        self.name = name
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def add_grad(self, delta: np.ndarray) -> None:
        if delta.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {delta.shape} does not match parameter "
                f"{self.name or '<unnamed>'} shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += delta

    def __repr__(self) -> str:
        return f"Tensor(name={self.name!r}, shape={self.data.shape}, dtype={self.data.dtype})"


def truncated_normal(
    rng: np.random.Generator, shape: tuple[int, ...], std: float = 0.02
) -> np.ndarray:
    """Normal draws clipped at two standard deviations."""
    return np.clip(rng.standard_normal(shape) * std, -2.0 * std, 2.0 * std)


def scaled_normal(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """Plain normal draws scaled by 1/sqrt(fan_in)."""
    return rng.standard_normal(shape) / np.sqrt(max(1, fan_in))
