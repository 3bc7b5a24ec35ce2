"""The finite-difference checker itself: exact cases and negative controls."""

import numpy as np
import pytest

from wlann.errors import NumericError, ValidationError
from wlann.ndiff import Tensor, grad_check


class TestGradCheck:
    def test_sum_of_squares_matches_analytic(self, rng):
        theta = Tensor(rng.standard_normal(8), name="theta")

        def f():
            theta.zero_grad()
            theta.add_grad(2.0 * theta.data)
            return float(np.sum(theta.data**2))

        report = grad_check(f, [theta])
        assert report.passed
        assert report.max_rel_err < 1e-8

    def test_corrupted_gradient_is_flagged(self, rng):
        """A gradient off by a factor of two must fail the check."""
        theta = Tensor(rng.standard_normal(5) + 3.0, name="theta")

        def f():
            theta.zero_grad()
            theta.add_grad(4.0 * theta.data)  # true gradient is 2*theta
            return float(np.sum(theta.data**2))

        report = grad_check(f, [theta])
        assert not report.passed
        assert report.max_rel_err > 0.3

    def test_non_finite_objective_raises(self):
        theta = Tensor(np.ones(2), name="theta")

        def f():
            theta.zero_grad()
            theta.add_grad(np.zeros(2))
            return float("nan")

        with pytest.raises(NumericError):
            grad_check(f, [theta])

    def test_sampling_limits_probed_entries(self, rng):
        theta = Tensor(rng.standard_normal(100), name="theta")
        calls = {"n": 0}

        def f():
            calls["n"] += 1
            theta.zero_grad()
            theta.add_grad(2.0 * theta.data)
            return float(np.sum(theta.data**2))

        report = grad_check(f, [theta], samples_per_tensor=5)
        assert report.checks[0].entries_checked == 5
        assert calls["n"] == 1 + 2 * 5
        assert report.passed

    def test_zero_samples_rejected(self, rng):
        """Probing no entries would pass without checking anything."""
        theta = Tensor(rng.standard_normal(4), name="theta")

        def f():
            theta.zero_grad()
            theta.add_grad(2.0 * theta.data)
            return float(np.sum(theta.data**2))

        with pytest.raises(ValidationError, match="samples_per_tensor"):
            grad_check(f, [theta], samples_per_tensor=0)

    def test_summary_mentions_every_tensor(self, rng):
        a = Tensor(rng.standard_normal(3), name="alpha")
        b = Tensor(rng.standard_normal(3), name="beta")

        def f():
            a.zero_grad(); b.zero_grad()
            a.add_grad(np.cos(a.data))
            b.add_grad(2.0 * b.data)
            return float(np.sum(np.sin(a.data)) + np.sum(b.data**2))

        report = grad_check(f, [a, b])
        assert report.passed
        text = report.summary()
        assert "alpha" in text and "beta" in text and "PASS" in text
