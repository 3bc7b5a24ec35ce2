"""Central finite-difference verification of reverse-mode gradients."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..errors import NumericError, ValidationError
from .tensor import Tensor

# Relative error uses a floored denominator so near-zero gradient entries
# are compared at an absolute scale instead of amplifying rounding noise.
DENOM_FLOOR = 1e-5


@dataclass
class TensorCheck:
    name: str
    max_rel_err: float
    worst_index: int
    entries_checked: int

    def passed(self, tol: float) -> bool:
        return self.max_rel_err < tol


@dataclass
class GradCheckReport:
    """Per-tensor worst relative errors of analytic vs numeric gradients."""

    step: float
    tol: float
    checks: list[TensorCheck] = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        return max((c.max_rel_err for c in self.checks), default=0.0)

    @property
    def passed(self) -> bool:
        return all(c.passed(self.tol) for c in self.checks)

    def summary(self) -> str:
        lines = [
            f"{'tensor':40s} {'max rel err':>12s} {'checked':>8s}  status",
        ]
        for c in self.checks:
            status = "ok" if c.passed(self.tol) else "FAIL"
            lines.append(f"{c.name:40s} {c.max_rel_err:12.3e} {c.entries_checked:8d}  {status}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"overall: {verdict} (max {self.max_rel_err:.3e}, tol {self.tol:.1e})")
        return "\n".join(lines)


def _relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), DENOM_FLOOR)


def grad_check(
    f: Callable[[], float],
    params: Sequence[Tensor],
    step: float = 1e-5,
    tol: float = 1e-4,
    samples_per_tensor: int | None = None,
    seed: int = 0,
) -> GradCheckReport:
    """Compare reverse-mode gradients of `f` against central differences.

    `f` must be a deterministic scalar computation that, as a side effect,
    leaves gradients in each parameter's `.grad` buffer (its gradients are
    zeroed here first). When `samples_per_tensor` is given, only that many
    randomly chosen entries per tensor are probed, which keeps end-to-end
    model checks tractable; per-operation tests probe every entry.
    """
    if samples_per_tensor is not None and samples_per_tensor < 1:
        raise ValidationError(f"samples_per_tensor must be >= 1, got {samples_per_tensor}")
    for p in params:
        p.zero_grad()
    base = float(f())
    if not math.isfinite(base):
        raise NumericError(f"objective is non-finite ({base}) at the evaluation point")
    analytic = []
    for p in params:
        if p.grad is None or not np.all(np.isfinite(p.grad)):
            raise NumericError(f"analytic gradient of {p.name or '<unnamed>'} is missing or non-finite")
        analytic.append(p.grad.copy())

    rng = np.random.default_rng(seed)
    report = GradCheckReport(step=step, tol=tol)
    for p, grad in zip(params, analytic):
        flat = p.data.reshape(-1)
        grad_flat = grad.reshape(-1)
        if samples_per_tensor is None or samples_per_tensor >= flat.size:
            indices = np.arange(flat.size)
        else:
            indices = rng.choice(flat.size, size=samples_per_tensor, replace=False)
        worst = 0.0
        worst_index = -1
        for i in indices:
            original = flat[i]
            flat[i] = original + step
            upper = float(f())
            flat[i] = original - step
            lower = float(f())
            flat[i] = original
            if not (math.isfinite(upper) and math.isfinite(lower)):
                raise NumericError(
                    f"non-finite objective while probing {p.name or '<unnamed>'}[{i}]"
                )
            numeric = (upper - lower) / (2.0 * step)
            rel = _relative_error(float(grad_flat[i]), numeric)
            if rel > worst:
                worst, worst_index = rel, int(i)
        report.checks.append(
            TensorCheck(
                name=p.name or "<unnamed>",
                max_rel_err=worst,
                worst_index=worst_index,
                entries_checked=len(indices),
            )
        )
    return report
