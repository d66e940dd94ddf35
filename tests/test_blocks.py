"""Contracts of the composite blocks: shapes, identities, attention math."""

import numpy as np
import pytest

from hirivit.blocks import (Attention, ClassifierHead, ConvFFNBlock, ConvStem,
                            DownsampleA, DownsampleB, FFNBlock, HighResBlock,
                            HighResStem, TransformerBlock, ViTStem)
from hirivit.engine import Tensor, grad_check, ops
from hirivit.errors import ConfigError, ResolutionError
from hirivit.params import ParamTree, init_tree


def block_tree(block) -> ParamTree:
    tree = ParamTree()
    for path, tensor, trainable in block.named_entries():
        tree.add(path, tensor)
    return tree


def randomize(block, seed=0, affine_jitter=0.05):
    tree = block_tree(block)
    init_tree(tree, seed)
    rng = np.random.default_rng(seed + 1)
    for path, t in tree.items():
        leaf = path.rsplit(".", 1)[-1]
        if leaf == "gamma":
            t.data += rng.standard_normal(t.shape) * affine_jitter
        elif leaf in ("beta", "bias"):
            t.data[...] = rng.standard_normal(t.shape) * affine_jitter
    return tree


def t(a, rg=False):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=rg)


class TestHighResStem:
    def test_quarters_resolution(self):
        stem = HighResStem(3, 32)
        randomize(stem)
        x = t(np.random.default_rng(0).standard_normal((1, 3, 224, 224)))
        y = stem(x)
        assert y.shape == (1, 32, 56, 56)

    def test_448_input(self):
        stem = HighResStem(3, 8)
        assert stem.out_shape((1, 3, 448, 448)) == (1, 8, 112, 112)

    def test_zero_weights_zero_output(self):
        stem = HighResStem(3, 8)      # params default to zeros
        x = t(np.random.default_rng(1).standard_normal((1, 3, 16, 16)))
        y = stem(x)
        np.testing.assert_allclose(y.data, 0.0, atol=1e-12)

    def test_indivisible_resolution_rejected(self):
        stem = HighResStem(3, 8)
        with pytest.raises(ResolutionError):
            stem(t(np.zeros((1, 3, 18, 18))))


class TestHighResBlock:
    def test_shape_preserved(self):
        blk = HighResBlock(64, 4)
        randomize(blk)
        x = t(np.random.default_rng(2).standard_normal((2, 64, 56, 56)))
        assert blk(x).shape == (2, 64, 56, 56)

    def test_zero_branches_identity(self):
        blk = HighResBlock(8, 2)      # zero weights -> both branches vanish
        x = t(np.random.default_rng(3).standard_normal((1, 8, 8, 8)))
        np.testing.assert_array_equal(blk(x).data, x.data)

    def test_odd_extent_rejected(self):
        blk = HighResBlock(8, 2)
        with pytest.raises(ResolutionError):
            blk(t(np.zeros((1, 8, 7, 8))))


class TestDownsamplers:
    def test_irds_a_halves_and_grows_channels(self):
        ds = DownsampleA(32, 64)
        randomize(ds)
        x = t(np.random.default_rng(4).standard_normal((1, 32, 56, 56)))
        assert ds(x).shape == (1, 64, 28, 28)

    def test_irds_b_halves(self):
        ds = DownsampleB(16, 24)
        randomize(ds)
        x = t(np.random.default_rng(5).standard_normal((1, 16, 14, 14)))
        assert ds(x).shape == (1, 24, 7, 7)

    def test_odd_input_ceil(self):
        ds = DownsampleB(8, 8)
        randomize(ds)
        x = t(np.random.default_rng(6).standard_normal((1, 8, 7, 7)))
        assert ds(x).shape == (1, 8, 4, 4)

    def test_grid_anchored_variants(self):
        same = DownsampleA(8, 12, in_grid=28, out_grid=28)
        randomize(same)
        x = t(np.random.default_rng(7).standard_normal((1, 8, 28, 28)))
        assert same(x).shape == (1, 12, 28, 28)
        pooled = DownsampleA(8, 12, in_grid=48, out_grid=28)
        randomize(pooled)
        x = t(np.random.default_rng(8).standard_normal((1, 8, 48, 48)))
        assert pooled(x).shape == (1, 12, 28, 28)

    def test_cannot_grow(self):
        with pytest.raises(ConfigError):
            DownsampleA(8, 8, in_grid=14, out_grid=28)


class TestConvFFN:
    def test_zero_projection_is_identity(self):
        blk = ConvFFNBlock(8, 2)
        randomize(blk)
        blk.fc2.weight.data[...] = 0.0
        blk.fc2.bias.data[...] = 0.0
        x = t(np.random.default_rng(9).standard_normal((1, 8, 4, 4)))
        np.testing.assert_array_equal(blk(x).data, x.data)

    def test_core_param_count(self):
        # expand D -> 4D (1x1, bias), depth-wise 3x3 on 4D (bias),
        # project 4D -> D (1x1, bias): exact arithmetic for D=32
        d, e = 32, 4
        blk = ConvFFNBlock(d, e)
        core = (d * e * d + e * d) + (e * d * 9 + e * d) + (e * d * d + d)
        assert core == 9632
        counted = sum(
            p.size for path, p, tr in blk.named_entries()
            if tr and path.split(".")[0] in ("fc1", "dw", "fc2"))
        assert counted == core

    def test_shape_preserved(self):
        blk = ConvFFNBlock(6, 3)
        randomize(blk)
        x = t(np.random.default_rng(10).standard_normal((2, 6, 8, 8)))
        assert blk(x).shape == (2, 6, 8, 8)


class TestAttention:
    def _tokens(self, x_map):
        b, c, h, w = x_map.shape
        return np.transpose(x_map.reshape(b, c, h * w), (0, 2, 1))

    def test_single_token_weight_is_one(self):
        attn = Attention(8, 2, 1)
        randomize(attn, seed=11)
        x = np.random.default_rng(11).standard_normal((1, 1, 8))
        out = attn.forward_tokens(t(x), (1, 1))
        v = x @ attn.v.weight.data.T + attn.v.bias.data
        expected = v @ attn.proj.weight.data.T + attn.proj.bias.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_identical_tokens_uniform_weights(self):
        attn = Attention(8, 2, 1)
        randomize(attn, seed=12)
        token = np.random.default_rng(12).standard_normal(8)
        x = np.tile(token, (1, 6, 1))
        out = attn.forward_tokens(t(x), (2, 3))
        # uniform attention over identical values reduces to the n=1 case
        v = token @ attn.v.weight.data.T + attn.v.bias.data
        expected = v @ attn.proj.weight.data.T + attn.proj.bias.data
        np.testing.assert_allclose(out.data, np.tile(expected, (1, 6, 1)), atol=1e-10)

    def test_vs_dense_loop_oracle(self):
        n, d, heads = 4, 8, 2
        attn = Attention(d, heads, 1)
        randomize(attn, seed=13)
        x = np.random.default_rng(13).standard_normal((1, n, d))
        out = attn.forward_tokens(t(x), (2, 2))

        def lin(m, w, b):
            return m @ w.data.T + b.data

        q = lin(x[0], attn.q.weight, attn.q.bias)
        k = lin(x[0], attn.k.weight, attn.k.bias)
        v = lin(x[0], attn.v.weight, attn.v.bias)
        dh = d // heads
        merged = np.zeros((n, d))
        for hd in range(heads):
            sl = slice(hd * dh, (hd + 1) * dh)
            scores = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            w_attn = e / e.sum(axis=1, keepdims=True)
            assert np.abs(w_attn.sum(axis=1) - 1).max() < 1e-12
            merged[:, sl] = w_attn @ v[:, sl]
        expected = lin(merged, attn.proj.weight, attn.proj.bias)
        assert np.abs(out.data[0] - expected).max() < 1e-10

    def test_attention_weights_sum_to_one(self):
        captured = []
        orig = ops.softmax

        def capture(x, axis=-1, **kwargs):
            y = orig(x, axis=axis, **kwargs)
            captured.append(y.data)
            return y

        attn = Attention(8, 2, 1)
        randomize(attn, seed=14)
        x = t(np.random.default_rng(14).standard_normal((1, 8, 3, 3)))
        ops.softmax = capture
        try:
            attn(x)
        finally:
            ops.softmax = orig
        assert captured
        np.testing.assert_allclose(captured[0].sum(axis=-1), 1.0, atol=1e-12)

    def test_permutation_equivariance_bitwise(self):
        attn = Attention(16, 4, 1)
        randomize(attn, seed=15)
        rng = np.random.default_rng(15)
        x = rng.standard_normal((1, 12, 16))
        perm = rng.permutation(12)
        out = attn.forward_tokens(t(x), (3, 4)).data
        out_perm = attn.forward_tokens(t(x[:, perm]), (3, 4)).data
        assert (out[:, perm] == out_perm).all()

    def test_batch_permutation_equivariance_with_duplicate_tokens_bitwise(self):
        attn = Attention(16, 4, 1)
        randomize(attn, seed=18)
        rng = np.random.default_rng(18)
        x = rng.standard_normal((2, 12, 16))
        x[:, [3, 7, 9]] = x[:, [0, 0, 5]]      # repeated tokens tie in k and v
        x[1, 11] = x[0, 2]                     # a token of the other batch element
        rows = np.arange(2)[:, None]
        perm = np.stack([rng.permutation(12) for _ in range(2)])
        out = attn.forward_tokens(t(x), (3, 4)).data
        out_perm = attn.forward_tokens(t(x[rows, perm]), (3, 4)).data
        assert (out[rows, perm] == out_perm).all()

    def test_trace_orders_the_empty_batch(self, monkeypatch):
        from hirivit import blocks

        key_order, seen = blocks._key_order, []

        def spy(k, v):
            order = key_order(k, v)
            seen.append((k.shape, v.shape, order.shape))
            return order

        monkeypatch.setattr(blocks, "_key_order", spy)
        records = Attention(16, 4, 2, kv_reduce="conv").trace((3, 16, 4, 4), "attn").records
        assert seen == [((0, 4, 16), (0, 4, 16), (0, 4))]
        assert [r.path for r in records if r.path.endswith((".qk", ".av"))] \
            == ["attn.qk", "attn.av"]

    def test_pooled_reduction_shapes(self):
        attn = Attention(8, 2, sr_ratio=2, kv_reduce="pool")
        randomize(attn, seed=16)
        x = t(np.random.default_rng(16).standard_normal((1, 8, 4, 4)))
        assert attn(x).shape == (1, 8, 4, 4)

    def test_conv_reduction_shapes(self):
        attn = Attention(8, 2, sr_ratio=2, kv_reduce="conv")
        randomize(attn, seed=17)
        x = t(np.random.default_rng(17).standard_normal((1, 8, 4, 4)))
        assert attn(x).shape == (1, 8, 4, 4)

    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            Attention(10, 3, 1)


class TestTransformerBlock:
    def test_residual_identity_under_zero_projections(self):
        blk = TransformerBlock(8, 2, 2, 1)
        randomize(blk)
        for mod in (blk.attn.proj, blk.ffn.fc2):
            mod.weight.data[...] = 0.0
            mod.bias.data[...] = 0.0
        x = t(np.random.default_rng(18).standard_normal((1, 8, 2, 2)))
        np.testing.assert_array_equal(blk(x).data, x.data)

    def test_shape_preserved(self):
        blk = TransformerBlock(16, 2, 4, 2, kv_reduce="pool")
        randomize(blk)
        x = t(np.random.default_rng(19).standard_normal((2, 16, 4, 4)))
        assert blk(x).shape == (2, 16, 4, 4)


class TestClassifier:
    def test_constant_map(self):
        head = ClassifierHead(4, 3)
        randomize(head, seed=20)
        const = np.random.default_rng(20).standard_normal(4)
        x = t(np.broadcast_to(const[None, :, None, None], (1, 4, 5, 5)).copy())
        out = head(x)
        expected = const @ head.fc.weight.data.T + head.fc.bias.data
        np.testing.assert_allclose(out.data[0], expected, atol=1e-12)

    def test_zero_weights_zero_logits(self):
        head = ClassifierHead(4, 3)
        x = t(np.random.default_rng(21).standard_normal((2, 4, 3, 3)))
        np.testing.assert_array_equal(head(x).data, np.zeros((2, 3)))

    def test_dense_head_matches_pooling_on_constant_map(self):
        head = ClassifierHead(4, 3, hidden=6)
        randomize(head, seed=22)
        const = np.random.default_rng(22).standard_normal(4)
        x = t(np.broadcast_to(const[None, :, None, None], (1, 4, 2, 2)).copy())
        dense = head.forward_dense(x)
        pooled = head(x)
        for i in range(2):
            for j in range(2):
                np.testing.assert_allclose(dense.data[0, :, i, j], pooled.data[0],
                                           atol=1e-12)


# ---------------------------------------------------------------------------
# finite-difference gradient suite over every composite block
# ---------------------------------------------------------------------------

BLOCK_CASES = {
    "hr_stem": (lambda: HighResStem(3, 8), (1, 3, 16, 16)),
    "hr_block": (lambda: HighResBlock(8, 2), (1, 8, 4, 4)),
    "irds_a": (lambda: DownsampleA(4, 6), (1, 4, 4, 4)),
    "irds_b": (lambda: DownsampleB(4, 6), (1, 4, 4, 4)),
    "cffn": (lambda: ConvFFNBlock(6, 2), (1, 6, 4, 4)),
    "ffn": (lambda: FFNBlock(6, 2), (1, 6, 4, 4)),
    "mha": (lambda: Attention(8, 2, 1), (1, 8, 2, 2)),
    "mha_pooled": (lambda: Attention(8, 2, 2, kv_reduce="pool"), (1, 8, 4, 4)),
    "mha_conv": (lambda: Attention(8, 2, 2, kv_reduce="conv"), (1, 8, 4, 4)),
    "transformer": (lambda: TransformerBlock(8, 2, 2, 1), (1, 8, 2, 2)),
    "classifier": (lambda: ClassifierHead(6, 3, hidden=5), (1, 6, 3, 3)),
    "conv_stem": (lambda: ConvStem(3, 8), (1, 3, 16, 16)),
    "vit_stem": (lambda: ViTStem(3, 8), (1, 3, 8, 8)),
}


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_block_gradients_match_finite_differences(name):
    make, shape = BLOCK_CASES[name]
    block = make()
    tree = randomize(block, seed=42)
    rng = np.random.default_rng(4242)
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    weight = Tensor(rng.standard_normal(block.out_shape(shape)))
    tensors = {"input": x}
    tensors.update({p: tn for p, tn in tree.trainable_items()})

    def f():
        return ops.tsum(ops.mul(block(x), weight))

    report = grad_check(f, tensors, h=1e-5, tol=1e-4)
    assert report.passed, (
        f"{name}: max rel err {report.max_rel_err:.3e} on {report.worst}")


# ---------------------------------------------------------------------------
# shape inference agrees with execution on random configs
# ---------------------------------------------------------------------------

def _random_block(rng):
    kind = rng.integers(0, 6)
    if kind == 0:
        c = int(rng.choice([4, 8]))
        return HighResBlock(c, int(rng.integers(1, 4))), (1, c, 8, 8)
    if kind == 1:
        cin, cout = int(rng.choice([4, 8])), int(rng.choice([4, 6, 8]))
        return DownsampleA(cin, cout), (1, cin, 8, 8)
    if kind == 2:
        cin, cout = int(rng.choice([4, 8])), int(rng.choice([4, 6, 8]))
        return DownsampleB(cin, cout), (1, cin, 8, 8)
    if kind == 3:
        c = int(rng.choice([4, 6, 8]))
        return ConvFFNBlock(c, int(rng.integers(1, 5))), (1, c, 6, 6)
    if kind == 4:
        heads = int(rng.choice([1, 2, 4]))
        d = heads * int(rng.choice([2, 4]))
        sr = int(rng.choice([1, 2]))
        return (TransformerBlock(d, 2, heads, sr,
                                 kv_reduce="pool" if sr > 1 else "none"),
                (1, d, 4, 4))
    c1 = 2 * int(rng.choice([2, 4]))
    return HighResStem(3, c1), (1, 3, 16, 16)


def test_shape_inference_matches_forward_on_50_random_configs():
    rng = np.random.default_rng(99)
    for _ in range(50):
        block, shape = _random_block(rng)
        randomize(block, seed=int(rng.integers(0, 1 << 31)))
        predicted = block.out_shape(shape)
        actual = block(Tensor(rng.standard_normal(shape))).shape
        assert predicted == actual


# ---------------------------------------------------------------------------
# one attention path for tokens and maps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kv_reduce, sr_ratio",
                         [("none", 1), ("pool", 2), ("conv", 2)])
def test_forward_tokens_equals_forward_bitwise(kv_reduce, sr_ratio):
    attn = Attention(8, 2, sr_ratio, kv_reduce=kv_reduce)
    randomize(attn, seed=21)
    x = np.random.default_rng(21).standard_normal((2, 8, 4, 6))
    b, c, h, w = x.shape
    tokens = np.ascontiguousarray(x.reshape(b, c, h * w).transpose(0, 2, 1))
    out_tokens = attn.forward_tokens(t(tokens), (h, w)).data
    out_map = attn(t(x)).data
    assert (out_tokens == out_map.reshape(b, c, h * w).transpose(0, 2, 1)).all()


def test_attention_rejects_unknown_kv_reduce():
    with pytest.raises(ConfigError, match="kv_reduce"):
        Attention(8, 2, 2, kv_reduce="poool")


def test_plain_downsample_only_halves():
    from hirivit.blocks import PlainDownsample

    assert PlainDownsample(4, 8, in_grid=7, out_grid=4).out_shape((1, 4, 7, 7)) \
        == (1, 8, 4, 4)
    for in_grid, out_grid in ((28, 28), (28, 10), (14, 28)):
        with pytest.raises(ConfigError, match="downsampler"):
            PlainDownsample(4, 8, in_grid=in_grid, out_grid=out_grid)
