"""Functional ops: convolution values, pooling, losses, softmax."""

import numpy as np
import pytest

from repro.nn import Tensor, functional as F


def _naive_conv1d(x, w, b, stride, padding):
    n, c_in, length = x.shape
    c_out, _, kernel = w.shape
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    out_len = (padded.shape[-1] - kernel) // stride + 1
    out = np.zeros((n, c_out, out_len))
    for i in range(n):
        for o in range(c_out):
            for t in range(out_len):
                patch = padded[i, :, t * stride:t * stride + kernel]
                out[i, o, t] = np.sum(patch * w[o]) + b[o]
    return out


class TestConv1d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (3, 2), (5, 0)])
    def test_matches_naive(self, rng, stride, padding):
        x = rng.normal(size=(2, 3, 15))
        w = rng.normal(size=(4, 3, 5))
        b = rng.normal(size=4)
        out = F.conv1d(Tensor(x), Tensor(w), Tensor(b), stride, padding)
        np.testing.assert_allclose(out.data,
                                   _naive_conv1d(x, w, b, stride, padding),
                                   atol=1e-12)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            F.conv1d(Tensor(np.zeros((3, 4))), Tensor(np.zeros((1, 1, 2))))

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            F.conv1d(Tensor(np.zeros((1, 1, 3))), Tensor(np.zeros((1, 1, 5))))


class TestConvTranspose1d:
    def test_inverts_conv_shape(self, rng):
        x = rng.normal(size=(2, 4, 6))
        w = rng.normal(size=(4, 3, 5))
        out = F.conv_transpose1d(Tensor(x), Tensor(w), stride=5)
        assert out.shape == (2, 3, 5 * 5 + 5)

    def test_adjoint_property(self, rng):
        """conv_transpose is the adjoint of conv: <conv(x), y> == <x, convT(y)>."""
        x = rng.normal(size=(1, 2, 12))
        w = rng.normal(size=(3, 2, 4))
        y = rng.normal(size=(1, 3, 5))  # conv output length (12-4)/2+1 = 5
        # conv weight (O, C, K) is already in conv_transpose's (C_in, C_out, K)
        # layout for the adjoint map (its C_in is conv's O).
        conv_x = F.conv1d(Tensor(x), Tensor(w), stride=2).data
        convt_y = F.conv_transpose1d(Tensor(y), Tensor(w), stride=2).data
        np.testing.assert_allclose(np.sum(conv_x * y), np.sum(x * convt_y),
                                   rtol=1e-10)


class TestPooling:
    def test_avg_pool_values(self):
        x = Tensor(np.arange(8.0)[None, None])
        out = F.avg_pool1d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [0.5, 2.5, 4.5, 6.5])

    def test_max_pool_values(self):
        x = Tensor(np.array([1.0, 3.0, 2.0, 5.0])[None, None])
        out = F.max_pool1d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [3.0, 5.0])


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        out = F.softmax(Tensor(rng.normal(size=(5, 9)) * 50))
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_stable_for_large_inputs(self):
        out = F.softmax(Tensor(np.array([1000.0, 1000.0])))
        np.testing.assert_allclose(out.data, [0.5, 0.5])


class TestLosses:
    def test_mse_reductions(self, rng):
        a = Tensor(rng.normal(size=(3, 4)))
        b = rng.normal(size=(3, 4))
        full = (a.data - b) ** 2
        assert abs(F.mse_loss(a, b).item() - full.mean()) < 1e-12
        assert abs(F.mse_loss(a, b, "sum").item() - full.sum()) < 1e-12
        assert F.mse_loss(a, b, "none").shape == (3, 4)
        with pytest.raises(ValueError):
            F.mse_loss(a, b, "bogus")

    def test_kl_diag_gaussian_zero_at_standard_normal(self):
        mu = Tensor(np.zeros((3, 2)))
        logvar = Tensor(np.zeros((3, 2)))
        assert abs(F.kl_diag_gaussian(mu, logvar).item()) < 1e-12


class TestDropoutFunction:
    def test_identity_when_not_training(self, rng):
        x = Tensor(np.ones(100))
        out = F.dropout(x, 0.5, training=False, rng=rng)
        np.testing.assert_allclose(out.data, 1.0)

    def test_invalid_probability(self, rng):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.5, training=True, rng=rng)

    def test_expected_scale_preserved(self, rng):
        x = Tensor(np.ones(20000))
        out = F.dropout(x, 0.3, training=True, rng=rng)
        assert abs(out.data.mean() - 1.0) < 0.05
