"""Parameter tensors with explicit gradient buffers.

Activations flow through the network as plain numpy arrays; `Tensor`
exists for the values that training mutates (weights, biases,
embeddings). Each operation's backward pass accumulates parameter
gradients into `Tensor.grad` and returns input gradients directly, so
there is no graph or tape: the composition order is written out by hand
wherever operations are chained. A dataclass of parameters inherits
`ParamGroup`, which walks its fields in declaration order; each `Tensor`
field declares its initializer with `init(rule)`.
"""

from __future__ import annotations

from dataclasses import field, fields
from typing import Callable, Iterator

import numpy as np

from ..errors import ShapeError


class Tensor:
    """An n-dimensional parameter array plus its gradient accumulator.

    `spectrum` is the FFT convolution path's memo of this weight's kernel
    spectrum: (stride, a copy of `data`, spectrum), or None. It is reused
    only while `data` holds the copied bytes, so writes need not reset it.
    """

    __slots__ = ("name", "data", "grad", "spectrum")

    def __init__(self, data, name: str = ""):
        self.data = np.asarray(data)
        self.name = name
        self.grad: np.ndarray | None = None
        self.spectrum: tuple | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        """Zero the gradient buffer in place if it fits the data, else allocate one."""
        grad = self.grad
        if grad is not None and grad.shape == self.data.shape and grad.dtype == self.data.dtype:
            grad.fill(0)
        else:
            self.grad = np.zeros_like(self.data)

    def add_grad(self, delta: np.ndarray) -> None:
        if delta.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {delta.shape} does not match parameter "
                f"{self.name or '<unnamed>'} shape {self.data.shape}"
            )
        if delta.dtype != self.data.dtype:
            raise ShapeError(
                f"gradient dtype {delta.dtype} does not match parameter "
                f"{self.name or '<unnamed>'} dtype {self.data.dtype}"
            )
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += delta

    def __repr__(self) -> str:
        return f"Tensor(name={self.name!r}, shape={self.data.shape}, dtype={self.data.dtype})"


class ParamGroup:
    """Mixin for a dataclass of parameters, walked in field-declaration order.

    A `Tensor` field is yielded, a nested group is walked, a list is walked
    item by item, and any other field (a head count) is skipped. That order
    is Adam's update order, the checkpoint's tensor order and the order of
    the random draws in `initialize`.
    """

    def tensors(self) -> Iterator[Tensor]:
        return (tensor for tensor, _ in self._leaves())

    def initialize(self, rng: np.random.Generator, std: float):
        """Fill every tensor from its field's rule, drawing in float64 and
        casting once to the tensor's dtype; returns the group."""
        for tensor, rule in self._leaves():
            np.copyto(tensor.data, rule(rng, tensor.shape, std) if callable(rule) else rule)
        return self

    def named(self) -> dict[str, Tensor]:
        table = {}
        for tensor in self.tensors():
            if tensor.name in table:
                raise ShapeError(f"duplicate parameter name {tensor.name!r}")
            table[tensor.name] = tensor
        return table

    def zero_grads(self) -> None:
        for tensor in self.tensors():
            tensor.zero_grad()

    def _leaves(self) -> Iterator[tuple[Tensor, float | Callable]]:
        for f in fields(self):
            value = getattr(self, f.name)
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, Tensor):
                    yield item, f.metadata.get("init")
                elif isinstance(item, ParamGroup):
                    yield from item._leaves()


def truncated_normal(rng: np.random.Generator, shape: tuple[int, ...], std: float) -> np.ndarray:
    """Normal draws at `std`, clipped at two standard deviations."""
    return np.clip(rng.standard_normal(shape) * std, -2.0 * std, 2.0 * std)


def fan_in_normal(rng: np.random.Generator, shape: tuple[int, ...], std: float) -> np.ndarray:
    """Plain normal draws scaled by 1/sqrt(fan_in), with fan-in `shape[1]`."""
    return rng.standard_normal(shape) / np.sqrt(max(1, shape[1]))


def init(rule: float | Callable):
    """Declare a `Tensor` field's initializer: a constant, or `rule(rng, shape, std)`."""
    return field(metadata={"init": rule})
