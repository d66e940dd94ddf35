"""Forward-path contracts for the numeric kernels, against loop oracles."""

import numpy as np
import pytest
from scipy.special import erf

from hirivit.blocks import Conv2d
from hirivit.engine import Tensor, backward, loop_conv2d, loop_linear, loop_matmul, no_grad, ops
from hirivit.errors import ConfigError, ResolutionError, ShapeError


def t(a, rg=False):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=rg)


class TestConv2d:
    def test_all_ones_sum(self):
        y = ops.conv2d(t(np.ones((1, 1, 3, 3))), t(np.ones((1, 1, 3, 3))))
        assert y.shape == (1, 1, 1, 1)
        assert y.data[0, 0, 0, 0] == 9.0

    def test_grouped_identity(self):
        rng = np.random.default_rng(1)
        x = t(rng.standard_normal((1, 2, 4, 4)))
        w = t(np.ones((2, 1, 1, 1)))
        y = ops.conv2d(x, w, groups=2)
        np.testing.assert_array_equal(y.data, x.data)

    def test_strided_vs_loop_reference(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        y = ops.conv2d(t(x), t(w), t(b), stride=2, padding=1)
        ref = loop_conv2d(x, w, b, (2, 2), (1, 1), 1)
        assert np.abs(y.data - ref).max() < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_random_configs_vs_loop(self, seed):
        rng = np.random.default_rng(seed)
        groups = int(rng.choice([1, 2, 4]))
        cin = groups * int(rng.integers(1, 3))
        cout = groups * int(rng.integers(1, 3))
        k = int(rng.choice([1, 3]))
        s = int(rng.choice([1, 2]))
        p = k // 2
        x = rng.standard_normal((2, cin, 6, 6))
        w = rng.standard_normal((cout, cin // groups, k, k))
        y = ops.conv2d(t(x), t(w), stride=s, padding=p, groups=groups)
        ref = loop_conv2d(x, w, None, (s, s), (p, p), groups)
        assert np.abs(y.data - ref).max() < 1e-12

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            ops.conv2d(t(np.ones((1, 3, 4, 4))), t(np.ones((4, 2, 3, 3))))
        with pytest.raises(ShapeError):
            ops.conv2d(t(np.ones((1, 3, 4, 4))), t(np.ones((4, 3, 3, 3))), groups=2)

    def test_resolution_underflow(self):
        with pytest.raises(ResolutionError):
            ops.conv2d(t(np.ones((1, 1, 2, 2))), t(np.ones((1, 1, 3, 3))))

    @pytest.mark.parametrize("settings", [
        {"groups": 0}, {"groups": -2}, {"stride": 0}, {"stride": (1, 0)}, {"stride": -1},
        {"padding": -1}, {"padding": (0, -1)},
    ], ids=["groups-0", "groups-neg", "stride-0", "stride-w-0", "stride-neg",
            "padding-neg", "padding-w-neg"])
    def test_bad_settings_are_config_errors(self, settings):
        # before, groups=0 and stride=0 raised ZeroDivisionError, padding=-1 a
        # NumPy broadcast ValueError, and the module constructed without error
        with pytest.raises(ConfigError):
            ops.conv2d(t(np.ones((1, 4, 6, 6))), t(np.ones((4, 4, 3, 3))), **settings)
        with pytest.raises(ConfigError):
            Conv2d(4, 4, 3, **settings)

    @pytest.mark.parametrize("xs, ws, groups", [
        ((4, 4, 32, 32), (4, 4, 3, 3), 1),     # 1.2 MB of patches in one block
        ((2, 4, 64, 64), (4, 1, 3, 3), 4),     # 0.6 MB of patches per group
    ], ids=["dense", "depthwise"])
    def test_row_blocks_bound_the_working_set(self, xs, ws, groups, monkeypatch, peak_bytes):
        n, cin, h, w = xs
        cout, cing, kh, kw = ws
        cap = n * cing * kh * kw * h * w * 8 // 10     # a tenth of one group's patch matrix
        monkeypatch.setattr(ops, "CONV_PATCH_CAP", cap)
        rng = np.random.default_rng(3)
        x, wt = t(rng.standard_normal(xs)), t(rng.standard_normal(ws))
        with no_grad():
            peak = peak_bytes(lambda: ops.conv2d(x, wt, padding=1, groups=groups))
        out, padded = n * cout * h * w * 8, n * cin * (h + 2) * (w + 2) * 8
        assert peak <= 1.1 * (out + padded + cap)


class TestLinear:
    def test_identity(self):
        y = ops.linear(t([[1.0, 2.0]]), t(np.eye(2)))
        np.testing.assert_array_equal(y.data, [[1.0, 2.0]])

    def test_hand_arithmetic(self):
        y = ops.linear(t([[1.0]]), t([[2.0], [3.0]]), t([1.0, -1.0]))
        np.testing.assert_array_equal(y.data, [[3.0, 2.0]])

    def test_random_vs_loop(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 7))
        w = rng.standard_normal((4, 7))
        b = rng.standard_normal(4)
        y = ops.linear(t(x), t(w), t(b))
        ref = loop_linear(x, w, b)
        assert np.abs(y.data - ref).max() < 1e-12

    def test_leading_axes_broadcast(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 3, 5))
        w = rng.standard_normal((6, 5))
        y = ops.linear(t(x), t(w))
        assert y.shape == (2, 3, 6)
        ref = loop_linear(x.reshape(-1, 5), w, None).reshape(2, 3, 6)
        assert np.abs(y.data - ref).max() < 1e-12

    def test_axis_mismatch(self):
        with pytest.raises(ShapeError):
            ops.linear(t(np.ones((2, 3))), t(np.ones((4, 5))))


class TestMatmul:
    def test_identity(self):
        a = t([[2.0, 1.0], [0.5, -3.0]])
        y = ops.matmul(t(np.eye(2)), a)
        np.testing.assert_array_equal(y.data, a.data)

    def test_dot_product(self):
        y = ops.matmul(t([[1.0, 2.0, 3.0]]), t([[4.0], [5.0], [6.0]]))
        assert y.data[0, 0] == 32.0

    def test_random_vs_loop(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 6))
        y = ops.matmul(t(a), t(b))
        assert np.abs(y.data - loop_matmul(a, b)).max() < 1e-12

    def test_batched_vs_loop(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((2, 3, 4, 5))
        b = rng.standard_normal((2, 3, 5, 2))
        y = ops.matmul(t(a), t(b))
        assert np.abs(y.data - loop_matmul(a, b)).max() < 1e-12

    def test_ordered_matmul_matches(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((2, 4, 6))
        b = rng.standard_normal((2, 6, 3))
        y = ops.ordered_matmul(t(a), t(b))
        assert np.abs(y.data - a @ b).max() < 1e-12

    # operands that take each piece of the canonical product: fewer than 16
    # columns, a ragged last tile, a long contraction whose rest is added in
    # blocks of 256 rows (the last one short), and broadcast batch axes
    @pytest.mark.parametrize("sa, sb", [
        ((40, 30), (30, 7)),
        ((3, 50, 64), (3, 64, 196)),
        ((600, 784), (784, 64)),
        ((2, 1, 300, 500), (1, 4, 500, 20)),
    ])
    def test_canonical_product_matches_and_permutes_rows(self, sa, sb):
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal(sa), rng.standard_normal(sb)
        y = ops._Canonical.matmul(a, b)
        assert y.shape == np.matmul(a, b).shape and y.flags.c_contiguous
        assert np.abs(y - np.matmul(a, b)).max() < 1e-10
        perm = rng.permutation(sa[-2])
        assert np.array_equal(ops._Canonical.matmul(a[..., perm, :], b), y[..., perm, :])
        out = np.full(y.shape[:-1] + (y.shape[-1] + 5,), np.nan)
        ops._Canonical.matmul(a, b, out=out[..., 5:])         # a strided window
        assert out[..., 5:].tobytes() == y.tobytes() and np.isnan(out[..., :5]).all()

    def test_inner_mismatch(self):
        with pytest.raises(ShapeError):
            ops.matmul(t(np.ones((2, 3))), t(np.ones((4, 2))))


class TestSoftmax:
    def test_symmetry(self):
        y = ops.softmax(t([0.0, 0.0, 0.0]), axis=0)
        np.testing.assert_allclose(y.data, np.full(3, 1 / 3), atol=1e-15)

    def test_overflow_stability(self):
        y = ops.softmax(t([1000.0, 1000.0]), axis=0)
        np.testing.assert_allclose(y.data, [0.5, 0.5], atol=1e-15)

    def test_vs_extended_precision(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(32) * 5
        y = ops.softmax(t(x), axis=0)
        e = np.exp(x.astype(np.longdouble))
        ref = (e / e.sum()).astype(np.float64)
        assert np.abs(y.data - ref).max() < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((6, 9)) * rng.uniform(0.1, 50)
        y = ops.softmax(t(x), axis=-1)
        np.testing.assert_allclose(y.data.sum(axis=-1), 1.0, atol=1e-12)
        assert (y.data > 0).all() and (y.data <= 1).all()

    def test_bad_axis(self):
        with pytest.raises(ShapeError):
            ops.softmax(t([1.0, 2.0]), axis=3)


class TestBatchNorm:
    def _bn(self, x, gamma, beta, training=True):
        c = x.shape[1]
        rm = np.zeros(c)
        rv = np.ones(c)
        return ops.batch_norm(t(x), t(gamma), t(beta), rm, rv, training)

    def test_constant_channel_is_zero(self):
        x = np.full((2, 1, 3, 3), 7.0)
        y = self._bn(x, np.ones(1), np.zeros(1))
        np.testing.assert_allclose(y.data, 0.0, atol=1e-12)

    def test_gamma_zero_beta_five(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 3, 4, 4))
        y = self._bn(x, np.zeros(3), np.full(3, 5.0))
        np.testing.assert_array_equal(y.data, np.full_like(x, 5.0))

    def test_vs_direct_computation(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((4, 3, 5, 5))
        g = rng.standard_normal(3)
        b = rng.standard_normal(3)
        y = self._bn(x, g, b)
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        var = x.var(axis=(0, 2, 3), keepdims=True)
        ref = (x - mean) / np.sqrt(var + 1e-5) * g.reshape(1, 3, 1, 1) + b.reshape(1, 3, 1, 1)
        assert np.abs(y.data - ref).max() < 1e-10

    def test_normalized_statistics(self):
        # input variance ~100 so the eps=1e-5 regularizer shifts the output
        # variance by only ~1e-7, inside the 1e-6 property band
        rng = np.random.default_rng(11)
        x = rng.standard_normal((8, 4, 6, 6)) * 10 + 1
        y = self._bn(x, np.ones(4), np.zeros(4))
        mu = y.data.mean(axis=(0, 2, 3))
        var = y.data.var(axis=(0, 2, 3))
        assert np.abs(mu).max() < 1e-8
        assert np.abs(var - 1).max() < 1e-6

    def test_running_stats_update_and_eval(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 2, 3, 3))
        rm = np.zeros(2)
        rv = np.ones(2)
        ops.batch_norm(t(x), t(np.ones(2)), t(np.zeros(2)), rm, rv, True)
        count = 4 * 9
        exp_rm = 0.1 * x.mean(axis=(0, 2, 3))
        exp_rv = 0.9 + 0.1 * x.var(axis=(0, 2, 3)) * count / (count - 1)
        np.testing.assert_allclose(rm, exp_rm, atol=1e-12)
        np.testing.assert_allclose(rv, exp_rv, atol=1e-12)
        y = ops.batch_norm(t(x), t(np.ones(2)), t(np.zeros(2)), rm, rv, False)
        ref = (x - rm.reshape(1, 2, 1, 1)) / np.sqrt(rv.reshape(1, 2, 1, 1) + 1e-5)
        np.testing.assert_allclose(y.data, ref, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_eval_matches_four_pass_formula(self, seed):
        rng = np.random.default_rng(seed)
        c = 6
        std = rng.uniform(0.05, 4.0, c)
        mean = rng.uniform(-10.0, 10.0, c) * std          # |mean| <= 10 std
        gamma, beta = rng.standard_normal(c), rng.standard_normal(c)
        c4 = (1, c, 1, 1)
        x = mean.reshape(c4) + std.reshape(c4) * rng.standard_normal((3, c, 5, 4))
        rm, rv = mean.copy(), std * std
        y = ops.batch_norm(t(x), t(gamma), t(beta), rm, rv, False)
        ref = ((x - mean.reshape(c4)) * (1.0 / np.sqrt(std * std + 1e-5)).reshape(c4)
               * gamma.reshape(c4) + beta.reshape(c4))
        assert np.abs(y.data - ref).max() < 1e-12
        assert (rm == mean).all() and (rv == std * std).all()

    @pytest.mark.parametrize("shape", [(16, 32, 32, 32), (1, 64, 112, 112), (16, 192, 4, 4)])
    def test_training_variance_bitwise_equals_numpy_var(self, shape):
        # momentum 1: the buffers hold the batch mean and the unbiased variance
        x = np.random.default_rng(13).standard_normal(shape) * 3 + 0.5
        c = shape[1]
        count = shape[0] * shape[2] * shape[3]
        rm, rv = np.zeros(c), np.zeros(c)
        ops.batch_norm(t(x), t(np.ones(c)), t(np.zeros(c)), rm, rv, True, momentum=1.0)
        expect = x.var(axis=(0, 2, 3)) * count / (count - 1)
        assert (rv == expect).all()
        assert (rm == x.mean(axis=(0, 2, 3))).all()

    def test_errors(self):
        with pytest.raises(ShapeError):
            self._bn(np.ones((0, 1, 2, 2)), np.ones(1), np.zeros(1))
        with pytest.raises(ConfigError):
            ops.batch_norm(t(np.ones((1, 1, 2, 2))), t(np.ones(1)), t(np.zeros(1)),
                           np.zeros(1), np.ones(1), True, eps=0.0)


class TestLayerNorm:
    def test_single_token_constant(self):
        y = ops.layer_norm(t([1.0, 1.0, 1.0]), t(np.ones(3)), t(np.zeros(3)))
        np.testing.assert_allclose(y.data, 0.0, atol=1e-12)

    def test_affine_recovery(self):
        rng = np.random.default_rng(13)
        raw = rng.standard_normal(16)
        mu, sigma = raw.mean(), raw.std()
        std = (raw - mu) / np.sqrt(raw.var() + 1e-6)
        y = ops.layer_norm(t(std), t(np.full(16, sigma)), t(np.full(16, mu)))
        # standardized input re-standardizes to itself, then affine restores
        np.testing.assert_allclose(y.data, std * sigma + mu, atol=1e-5)

    def test_vs_direct(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((3, 7, 5))
        g = rng.standard_normal(5)
        b = rng.standard_normal(5)
        y = ops.layer_norm(t(x), t(g), t(b))
        mu = x.mean(-1, keepdims=True)
        var = x.var(-1, keepdims=True)
        ref = (x - mu) / np.sqrt(var + 1e-6) * g + b
        assert np.abs(y.data - ref).max() < 1e-10


class TestGelu:
    def test_zero(self):
        assert ops.gelu(t([0.0])).data[0] == 0.0

    def test_asymptotes(self):
        y = ops.gelu(t([30.0, -30.0]))
        assert abs(y.data[0] - 30.0) < 1e-12
        assert abs(y.data[1]) < 1e-12

    def test_without_a_tape_allocates_one_output(self, peak_bytes):
        x = t(np.random.default_rng(4).standard_normal((4, 8, 32, 32)))
        with no_grad():
            peak = peak_bytes(lambda: ops.gelu(x))
        assert peak <= 1.1 * x.data.nbytes

    def test_without_a_tape_matches_the_tape_bitwise(self):
        rng = np.random.default_rng(5)
        xs = rng.standard_normal((3, 5, 7, 9)) * 4
        g = rng.standard_normal(xs.shape)
        x = t(xs, rg=True)
        y = ops.gelu(x)
        backward(ops.tsum(ops.mul(y, t(g))))
        with no_grad():
            y_no_grad = ops.gelu(x)
        y_no_parent = ops.gelu(t(xs))
        phi = 0.5 * (1.0 + erf(xs * ops.INV_SQRT2))
        pdf = ops.INV_SQRT2PI * np.exp(-0.5 * xs * xs)
        assert y.data.tobytes() == (xs * phi).tobytes()
        assert y_no_grad.data.tobytes() == y_no_parent.data.tobytes() == y.data.tobytes()
        assert x.grad.tobytes() == (g * (phi + xs * pdf)).tobytes()


class TestSpatial:
    def test_upsample_factor1_identity(self):
        x = t(np.arange(4.0).reshape(1, 1, 2, 2))
        np.testing.assert_array_equal(ops.upsample_repeat(x, 1).data, x.data)

    def test_upsample_block(self):
        y = ops.upsample_repeat(t([[[[5.0]]]]), 2)
        np.testing.assert_array_equal(y.data, np.full((1, 1, 2, 2), 5.0))

    def test_global_avg_pool(self):
        assert ops.global_avg_pool(t(np.full((1, 1, 3, 3), 4.0))).data[0, 0] == 4.0
        y = ops.global_avg_pool(t(np.array([1.0, 2, 3, 4]).reshape(1, 1, 2, 2)))
        assert y.data[0, 0] == 2.5

    def test_global_avg_pool_vs_loop(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((2, 3, 4, 5))
        y = ops.global_avg_pool(t(x))
        ref = np.array([[x[n, c].sum() / 20 for c in range(3)] for n in range(2)])
        assert np.abs(y.data - ref).max() < 1e-12

    def test_adaptive_pool_halving(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((1, 2, 4, 4))
        y = ops.adaptive_avg_pool2d(t(x), (2, 2))
        ref = x.reshape(1, 2, 2, 2, 2, 2).mean(axis=(3, 5))
        np.testing.assert_allclose(y.data, ref, atol=1e-14)

    def test_adaptive_pool_identity(self):
        x = t(np.arange(8.0).reshape(1, 2, 2, 2))
        np.testing.assert_array_equal(ops.adaptive_avg_pool2d(x, (2, 2)).data, x.data)

    @pytest.mark.parametrize("shape,out_hw", [
        ((2, 3, 7, 7), (4, 4)), ((2, 2, 14, 10), (7, 5)), ((1, 2, 9, 6), (4, 3)),
        ((2, 1, 5, 5), (5, 5)), ((1, 2, 8, 8), (1, 1)), ((1, 3, 56, 56), (7, 7))])
    def test_adaptive_pool_vs_loop(self, shape, out_hw):
        rng = np.random.default_rng(19)
        n, c, h, w = shape
        oh, ow = out_hw
        x = t(rng.standard_normal(shape), rg=True)
        g = rng.standard_normal((n, c, oh, ow))
        ref = np.zeros((n, c, oh, ow))
        ref_gx = np.zeros(shape)
        for i in range(oh):
            y0, y1 = (i * h) // oh, -(-(i + 1) * h // oh)
            for j in range(ow):
                x0, x1 = (j * w) // ow, -(-(j + 1) * w // ow)
                area = (y1 - y0) * (x1 - x0)
                ref[:, :, i, j] = x.data[:, :, y0:y1, x0:x1].sum(axis=(2, 3)) / area
                ref_gx[:, :, y0:y1, x0:x1] += (g[:, :, i, j] / area)[:, :, None, None]
        y = ops.adaptive_avg_pool2d(x, out_hw)
        assert np.abs(y.data - ref).max() < 1e-14
        (gx,) = y._backward(g)
        assert np.abs(gx - ref_gx).max() < 1e-14

    def test_adaptive_pool_rejects_upsampling(self):
        with pytest.raises(ResolutionError):
            ops.adaptive_avg_pool2d(t(np.ones((1, 1, 2, 2))), (3, 3))


@pytest.mark.parametrize("data", [
    np.random.default_rng(18).standard_normal((2, 3)).astype(np.float32),
    np.arange(6).reshape(2, 3),
    [[0.5, 1, -2], [3, 0.25, 7]],
], ids=["float32", "int", "list"])
def test_tensor_converts_any_input_to_float64(data):
    x = Tensor(data)
    assert x.dtype == np.float64
    assert (x.data == np.asarray(data)).all()      # each value converts exactly


def test_tensor_keeps_a_float64_array_without_a_copy():
    a = np.random.default_rng(19).standard_normal((4, 6))
    # what load_checkpoint hands over: a read-only, unaligned view of a byte buffer
    raw = np.frombuffer(b"\0" + a.tobytes(), np.uint8)[1:].view("<f8").reshape(4, 6)
    for data in (a, a.T, a[:, ::2], raw):
        assert Tensor(data).data is data


def test_nan_free_pipeline():
    rng = np.random.default_rng(17)
    x = t(rng.standard_normal((2, 4, 8, 8)) * 50)
    w = t(rng.standard_normal((4, 4, 3, 3)))
    y = ops.conv2d(x, w, padding=1)
    y = ops.gelu(y)
    y = ops.softmax(ops.reshape(y, (2, -1)), axis=-1)
    assert np.isfinite(y.data).all()
