"""Adam with global-norm gradient clipping, in a fixed parameter order."""

from __future__ import annotations

import numpy as np

from ..errors import NumericError
from ..model.config import OptimizerConfig
from ..ndiff.tensor import Tensor


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

    def global_grad_norm(self) -> float:
        total = 0.0
        for p in self.params:
            if p.grad is not None:
                total += float(np.sum(p.grad.astype(np.float64) ** 2))
        return float(np.sqrt(total))

    def step(self) -> None:
        cfg = self.cfg
        norm = self.global_grad_norm()
        if not np.isfinite(norm):
            raise NumericError(f"non-finite gradient norm at optimizer step {self.step_count + 1}")
        scale = 1.0
        if cfg.clip_norm > 0 and norm > cfg.clip_norm:
            scale = cfg.clip_norm / norm
        self.step_count += 1
        correction1 = 1.0 - cfg.beta1**self.step_count
        correction2 = 1.0 - cfg.beta2**self.step_count
        for p, m_tensor, v_tensor in zip(self.params, self.m, self.v):
            m, v = m_tensor.data, v_tensor.data
            grad = (p.grad if p.grad is not None else np.zeros_like(p.data)) * scale
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * grad
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * grad * grad
            m_hat = m / correction1
            v_hat = v / correction2
            update = cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
            if cfg.weight_decay > 0.0:
                update = update + (cfg.learning_rate * cfg.weight_decay) * p.data
            p.data = p.data - update

    def zero_grads(self) -> None:
        for p in self.params:
            p.zero_grad()
