"""Adam with global-norm gradient clipping, in a fixed parameter order."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..errors import NumericError
from ..model.config import OptimizerConfig
from ..ndiff.functional import run_lanes
from ..ndiff.tensor import Tensor

BLOCK = 1 << 16  # elements per block of the gradient norm and of the update


class Adam:
    """Standard bias-corrected Adam; moments live alongside each parameter.

    Every hyperparameter (learning rate, betas, eps, clip norm, weight
    decay) is read from the `OptimizerConfig` it is given. The moments of
    parameter `<name>` are the tensors `adam.m.<name>` and `adam.v.<name>`.
    """

    def __init__(self, params: list[Tensor], cfg: OptimizerConfig):
        self.params = list(params)
        self.cfg = cfg
        self.step_count = 0
        self.m = [Tensor(np.zeros_like(p.data), name=f"adam.m.{p.name}") for p in self.params]
        self.v = [Tensor(np.zeros_like(p.data), name=f"adam.v.{p.name}") for p in self.params]

    def moments(self) -> dict[str, Tensor]:
        """Name -> moment tensor, m then v for each parameter in order."""
        return {t.name: t for pair in zip(self.m, self.v) for t in pair}

    def step(self) -> None:
        """Update every parameter, its moments and its array in place.

        One helper thread, alive for this call only, sums the squared
        gradients of half the tensors (by element count, one sum each),
        then updates the second half of all elements, while the caller does
        the rest. The update is elementwise and the sums are added in
        parameter order, so the bits are those of one thread. Both passes
        walk their tensors `BLOCK` elements at a time, so each lane holds
        at most two blocks of scratch and no temporary the size of a
        parameter. A non-finite norm raises before any tensor changes.
        """
        cfg = self.cfg
        sizes = [p.data.size for p in self.params]
        sums = [0.0] * len(self.params)

        def add_squares(lane):
            for i in lane:
                sums[i] = _sum_of_squares(self.params[i].grad)

        with ThreadPoolExecutor(max_workers=1, thread_name_prefix="wlann-adam") as helper:
            run_lanes(helper, add_squares, [(lane,) for lane in _balanced_halves(sizes)])
            norm = _norm(sums)
            if not np.isfinite(norm):
                raise NumericError(
                    f"non-finite gradient norm at optimizer step {self.step_count + 1}")
            scale = 1.0
            if cfg.clip_norm > 0 and norm > cfg.clip_norm:
                scale = cfg.clip_norm / norm
            self.step_count += 1
            correction1 = 1.0 - cfg.beta1**self.step_count
            correction2 = 1.0 - cfg.beta2**self.step_count

            def update(lane):
                for i, a, e in lane:
                    _update(self.params[i], self.m[i].data, self.v[i].data, slice(a, e), cfg,
                            scale, correction1, correction2)

            run_lanes(helper, update, [(lane,) for lane in _flat_halves(sizes)])

    def zero_grads(self) -> None:
        for p in self.params:
            p.zero_grad()


def _balanced_halves(sizes: list[int]) -> tuple[list[int], list[int]]:
    """Two index lists of near-equal total size, in index order; largest first, to the lighter."""
    lanes, loads = ([], []), [0, 0]
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        k = 0 if loads[0] <= loads[1] else 1
        lanes[k].append(i)
        loads[k] += sizes[i]
    return sorted(lanes[0]), sorted(lanes[1])


def _flat_halves(sizes: list[int]) -> tuple[list, list]:
    """(index, start, end) element ranges, counted across the tensors in order:
    the first half of all elements, then the rest."""
    starts = np.cumsum([0, *sizes[:-1]]).tolist()
    cuts = [min(max(sum(sizes) // 2 - start, 0), size) for start, size in zip(starts, sizes)]
    return ([(i, 0, cut) for i, cut in enumerate(cuts) if cut > 0],
            [(i, cut, size) for i, (cut, size) in enumerate(zip(cuts, sizes)) if cut < size])


def _sum_of_squares(grad: np.ndarray | None) -> float:
    """The float64 sum of a gradient's squares (0.0 without one), one `BLOCK` at a time.

    NumPy sums a contiguous array pairwise: above 128 elements it splits
    n at n // 2 rounded down to a multiple of 8 and adds the two halves'
    sums. This walks that tree and hands each subtree of at most `BLOCK`
    elements to `np.add.reduce` on its float64 squares, so the bits are
    those of `np.square(grad.astype(np.float64)).sum()` without the
    gradient-sized float64 copy.
    """
    if grad is None:
        return 0.0
    flat = grad.ravel(order="K")
    return _pairwise_squares(flat, np.empty(min(BLOCK, flat.size), np.float64))


def _pairwise_squares(flat: np.ndarray, squares: np.ndarray) -> float:
    """The sum of `flat`'s float64 squares along NumPy's pairwise tree, each subtree of at most
    `BLOCK` elements squared into `squares` and reduced there."""
    n = flat.size
    if n <= BLOCK:
        leaf = squares[:n]
        np.square(flat, out=leaf, dtype=np.float64)
        return float(np.add.reduce(leaf))
    half = n // 2 - n // 2 % 8
    return _pairwise_squares(flat[:half], squares) + _pairwise_squares(flat[half:], squares)


def _norm(sums: list[float]) -> float:
    total = 0.0
    for value in sums:  # in parameter order, so the norm's bits do not depend on the split
        total += value
    return float(np.sqrt(total))


def _update(param: Tensor, m: np.ndarray, v: np.ndarray, span: slice, cfg: OptimizerConfig,
            scale: float, correction1: float, correction2: float) -> None:
    """Adam on one flat range of a parameter and its moments in place, `BLOCK` elements at a
    time in two scratch buffers of at most `BLOCK` elements.

    Each operation and its operand grouping is that of the textbook form
    `p - lr * (m / c1) / (sqrt(v / c2) + eps)`, with `(1 - beta2) * g * g`
    multiplied left to right. Every operation is elementwise, so the bits
    do not depend on the block size.
    """
    p, g, m, v = (None if a is None else a.reshape(-1, copy=False)[span]
                  for a in (param.data, param.grad, m, v))
    grad_scratch, update_scratch = (np.empty(min(BLOCK, p.size), p.dtype) for _ in range(2))
    for start in range(0, p.size, BLOCK):
        block = slice(start, start + BLOCK)
        p_block, m_block, v_block = p[block], m[block], v[block]
        grad, update = grad_scratch[:p_block.size], update_scratch[:p_block.size]
        if g is None:
            grad.fill(0.0)
        else:
            np.multiply(g[block], scale, out=grad)
        m_block *= cfg.beta1
        np.multiply(grad, 1.0 - cfg.beta1, out=update)
        m_block += update
        v_block *= cfg.beta2
        np.multiply(grad, 1.0 - cfg.beta2, out=update)
        update *= grad
        v_block += update
        np.divide(m_block, correction1, out=grad)
        grad *= cfg.learning_rate
        np.divide(v_block, correction2, out=update)
        np.sqrt(update, out=update)
        update += cfg.eps
        np.divide(grad, update, out=update)
        if cfg.weight_decay > 0.0:
            np.multiply(p_block, cfg.learning_rate * cfg.weight_decay, out=grad)
            update += grad
        p_block -= update
