"""Forward semantics of the numeric primitives against loop oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlann.errors import ShapeError, ValidationError
from wlann.ndiff import (
    AttentionParams,
    GruCellParams,
    Tensor,
    TransformerBlockParams,
    bigru,
    gru_sequence,
    multi_head_self_attention,
    transformer_block,
)
from wlann.ndiff import functional as F


def tensor(values, name="t"):
    return Tensor(np.asarray(values, dtype=np.float64), name=name)


class TestConv1d:
    def test_output_length_16000_80_5(self):
        """floor((16000 - 80) / 5) + 1 = 3185."""
        x = np.zeros((1, 16000))
        w = tensor(np.zeros((2, 1, 80)))
        b = tensor(np.zeros(2))
        y, _ = F.conv1d(x, w, b, stride=5)
        assert y.shape == (2, 3185)

    @settings(max_examples=50, deadline=None)
    @given(
        length=st.integers(8, 400),
        kernel=st.integers(1, 8),
        stride=st.integers(1, 5),
    )
    def test_output_length_law(self, length, kernel, stride):
        y, _ = F.conv1d(np.zeros((1, length)), tensor(np.zeros((1, 1, kernel))), tensor(np.zeros(1)), stride)
        assert y.shape[1] == (length - kernel) // stride + 1

    def test_unit_kernel_identity(self, rng):
        x = rng.standard_normal((1, 20))
        w = tensor(np.ones((1, 1, 1)))
        b = tensor(np.zeros(1))
        y, _ = F.conv1d(x, w, b, stride=1)
        np.testing.assert_allclose(y, x, atol=0)

    def test_matches_triple_loop_oracle(self, rng):
        c_in, c_out, length, kernel, stride = 2, 3, 11, 4, 2
        x = rng.standard_normal((c_in, length))
        w = rng.standard_normal((c_out, c_in, kernel))
        b = rng.standard_normal(c_out)
        y, _ = F.conv1d(x, tensor(w), tensor(b), stride)

        l_out = (length - kernel) // stride + 1
        expected = np.zeros((c_out, l_out))
        for o in range(c_out):
            for l in range(l_out):
                acc = b[o]
                for i in range(c_in):
                    for k in range(kernel):
                        acc += w[o, i, k] * x[i, l * stride + k]
                expected[o, l] = acc
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_kernel_longer_than_input_rejected(self):
        with pytest.raises(ShapeError):
            F.conv1d(np.zeros((1, 3)), tensor(np.zeros((1, 1, 4))), tensor(np.zeros(1)), 1)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            F.conv1d(np.zeros((2, 10)), tensor(np.zeros((1, 3, 4))), tensor(np.zeros(1)), 1)


class TestLinear:
    def test_identity_weight(self, rng):
        x = rng.standard_normal((6, 4))
        y, _ = F.linear(x, tensor(np.eye(4)), tensor(np.zeros(4)))
        np.testing.assert_allclose(y, x, atol=0)

    def test_scalar_case(self):
        y, _ = F.linear(np.array([5.0]), tensor([[2.0]]), tensor([3.0]))
        assert y[0] == 13.0

    def test_matches_loop_oracle(self, rng):
        x = rng.standard_normal((4, 3))
        w = rng.standard_normal((5, 3))
        b = rng.standard_normal(5)
        y, _ = F.linear(x, tensor(w), tensor(b))
        expected = np.array([[np.dot(w[o], x[n]) + b[o] for o in range(5)] for n in range(4)])
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            F.linear(np.zeros((2, 3)), tensor(np.zeros((4, 5))), tensor(np.zeros(4)))


class TestActivations:
    def test_sigmoid_at_zero(self):
        y, _ = F.sigmoid(np.zeros(3))
        np.testing.assert_allclose(y, 0.5)

    def test_softmax_of_constants_is_uniform(self):
        y, _ = F.softmax(np.full((2, 5), 3.7), axis=-1)
        np.testing.assert_allclose(y, 0.2, atol=1e-15)

    def test_softmax_rows_sum_to_one(self, rng):
        y, _ = F.softmax(rng.standard_normal((7, 9)) * 20, axis=-1)
        np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(y >= 0)

    def test_gelu_fixed_points(self):
        y, _ = F.gelu(np.array([0.0, 100.0, -100.0]))
        np.testing.assert_allclose(y, [0.0, 100.0, 0.0], atol=1e-12)

    def test_gelu_matches_gaussian_cdf_oracle(self, rng):
        from math import erf, sqrt

        x = rng.standard_normal(50)
        y, _ = F.gelu(x)
        expected = np.array([v * 0.5 * (1 + erf(v / sqrt(2))) for v in x])
        np.testing.assert_allclose(y, expected, atol=1e-14)

    def test_layer_norm_statistics(self, rng):
        """Normalized output (unit gain, zero shift) has mean 0, variance 1."""
        x = rng.standard_normal((20, 33))
        y, _ = F.layer_norm(x, tensor(np.ones(33)), tensor(np.zeros(33)))
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-6)


class TestPooling:
    def test_mean_pool_constant(self):
        y, _ = F.mean_pool(np.full((3, 4), 2.5), axis=0)
        np.testing.assert_allclose(y, np.full(4, 2.5))

    def test_mean_pool_simple(self):
        y, _ = F.mean_pool(np.array([1.0, 2.0, 3.0]), axis=0)
        assert y == 2.0

    def test_mean_pool_axis_out_of_range(self):
        with pytest.raises(ShapeError):
            F.mean_pool(np.zeros((2, 3)), axis=2)

    def test_adaptive_pool_identity(self, rng):
        x = rng.standard_normal((7, 3))
        y, _ = F.adaptive_mean_pool(x, 7)
        np.testing.assert_allclose(y, x)

    def test_adaptive_pool_windows(self):
        x = np.arange(6.0)[:, None]
        y, _ = F.adaptive_mean_pool(x, 3)
        np.testing.assert_allclose(y[:, 0], [0.5, 2.5, 4.5])

    def test_adaptive_pool_full_collapse(self, rng):
        x = rng.standard_normal((10, 4))
        y, _ = F.adaptive_mean_pool(x, 1)
        np.testing.assert_allclose(y[0], x.mean(axis=0))


class TestAttention:
    def test_single_token_attention_weight_is_one(self, rng):
        params = AttentionParams.create(6, 2, rng)
        x = rng.standard_normal((1, 6))
        y, cache = multi_head_self_attention(x, params)
        # softmax over a single key must be exactly 1
        attn = cache[8]
        np.testing.assert_allclose(attn, 1.0)
        # output equals the value/output projection chain of the token
        v = x @ params.wv.data.T + params.bv.data
        expected = v @ params.wo.data.T + params.bo.data
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        params = AttentionParams.create(8, 4, rng)
        _, cache = multi_head_self_attention(rng.standard_normal((5, 8)), params)
        attn = cache[8]
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(attn >= 0)

    def test_single_head_matches_explicit_formula(self, rng):
        """N=3, D=4, one head: independent composition of the textbook formula."""
        params = AttentionParams.create(4, 1, rng)
        x = rng.standard_normal((3, 4))
        y, _ = multi_head_self_attention(x, params)

        q = x @ params.wq.data.T + params.bq.data
        k = x @ params.wk.data.T + params.bk.data
        v = x @ params.wv.data.T + params.bv.data
        scores = q @ k.T / np.sqrt(4)
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        expected = (weights @ v) @ params.wo.data.T + params.bo.data
        np.testing.assert_allclose(y, expected, atol=1e-10)

    def test_indivisible_heads_rejected(self, rng):
        with pytest.raises(Exception):
            AttentionParams.create(6, 4, rng)


class TestTransformerBlock:
    def test_zero_everything_maps_zero_to_zero(self, rng):
        params = TransformerBlockParams.create(4, 2, rng)
        for t in params.tensors():
            t.data = np.zeros_like(t.data)
        y, _ = transformer_block(np.zeros((3, 4)), params)
        np.testing.assert_allclose(y, 0.0)

    def test_shape_preserved(self, rng):
        for n, d in ((1, 4), (7, 8), (12, 16)):
            params = TransformerBlockParams.create(d, 2, rng)
            y, _ = transformer_block(rng.standard_normal((n, d)), params)
            assert y.shape == (n, d)


def gru_step(x, h, p):
    """Loop oracle: one GRU step written from the gate equations in gru.py."""
    z = 1.0 / (1.0 + np.exp(-(p.wz.data @ x + p.uz.data @ h + p.bz.data)))
    r = 1.0 / (1.0 + np.exp(-(p.wr.data @ x + p.ur.data @ h + p.br.data)))
    c = np.tanh(p.wh.data @ x + p.uh.data @ (r * h) + p.bh.data)
    return (1.0 - z) * h + z * c


class TestGru:
    def test_update_gate_forced_closed_carries_state(self, rng):
        """Large negative update-gate bias carries the zero initial state through."""
        params = GruCellParams.create(3, 4, rng)
        params.bz.data = np.full(4, -50.0)
        out, _ = gru_sequence(rng.standard_normal((5, 3)), params)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_hidden_state_stays_in_unit_box(self, seed):
        local = np.random.default_rng(seed)
        params = GruCellParams.create(3, 5, local)
        out, _ = gru_sequence(local.standard_normal((20, 3)) * 3, params)
        assert np.all(np.abs(out) <= 1.0)

    def test_sequence_matches_cell_scan(self, rng):
        params = GruCellParams.create(3, 4, rng)
        xs = rng.standard_normal((6, 3))
        out, _ = gru_sequence(xs, params)
        h = np.zeros(4)
        for t in range(6):
            h = gru_step(xs[t], h, params)
            np.testing.assert_allclose(out[t], h, atol=1e-12)

    def test_bigru_shape(self, rng):
        fwd = GruCellParams.create(3, 5, rng)
        bwd = GruCellParams.create(3, 5, rng)
        out, _ = bigru(rng.standard_normal((9, 3)), fwd, bwd)
        assert out.shape == (9, 10)

    def test_bigru_single_step_equals_both_cells(self, rng):
        fwd = GruCellParams.create(3, 4, rng)
        bwd = GruCellParams.create(3, 4, rng)
        x = rng.standard_normal((1, 3))
        out, _ = bigru(x, fwd, bwd)
        hf = gru_step(x[0], np.zeros(4), fwd)
        hb = gru_step(x[0], np.zeros(4), bwd)
        np.testing.assert_allclose(out[0], np.concatenate([hf, hb]), atol=1e-12)

    def test_bigru_reversal_swaps_directions(self, rng):
        """bigru(reverse(x); A, B) = time-reversed bigru(x; B, A) with halves swapped."""
        a = GruCellParams.create(3, 4, rng)
        b = GruCellParams.create(3, 4, rng)
        xs = rng.standard_normal((7, 3))
        fwd_run, _ = bigru(xs[::-1].copy(), a, b)
        swapped, _ = bigru(xs, b, a)
        expected = np.concatenate([swapped[::-1, 4:], swapped[::-1, :4]], axis=1)
        np.testing.assert_allclose(fwd_run, expected, atol=1e-12)

    def test_empty_sequence_rejected(self, rng):
        fwd = GruCellParams.create(3, 4, rng)
        bwd = GruCellParams.create(3, 4, rng)
        with pytest.raises(ValidationError):
            bigru(np.zeros((0, 3)), fwd, bwd)

    def test_shape_mismatch_rejected(self, rng):
        params = GruCellParams.create(3, 4, rng)
        with pytest.raises(ShapeError):
            gru_sequence(np.zeros((6, 5)), params)
        with pytest.raises(ShapeError):
            bigru(np.zeros((6, 5)), params, params)
