"""The attention core: ``ordered_matmul``'s equivalence to the value-sorted
kernel and the loop oracle and its bitwise equivariance under permutations of
the queries, and the core's bitwise invariance under permutations of the keys
once ``blocks._key_order`` has put them in order."""

import numpy as np
import pytest

from hirivit.blocks import _key_order
from hirivit.engine import Tensor, ops
from hirivit.engine.reference import loop_matmul

# (attention, values) operand shapes, which also give the attention cores below
# their batch, heads, queries, keys and head width: the five that S@448 and
# ladder row 1@224 pass to ordered_matmul, a contraction over 64 keys (an 8x8 K/V grid), the
# micro model's stage-4 attention at batch 16, and its stage-5 head width of
# 10, at which one GEMM over all rows gives a row a result that depends on
# the row's position
SHAPES = [
    ((1, 8, 49, 49), (1, 8, 49, 64)),
    ((1, 2, 784, 49), (1, 2, 49, 64)),
    ((1, 1, 3136, 49), (1, 1, 49, 64)),
    ((1, 5, 196, 196), (1, 5, 196, 64)),
    ((1, 5, 196, 49), (1, 5, 49, 64)),
    ((1, 2, 100, 64), (1, 2, 64, 32)),
    ((16, 2, 16, 16), (16, 2, 16, 16)),
    ((2, 4, 49, 64), (2, 4, 64, 10)),
]
SEEDS = (0, 1, 2)
CASES = [(sa, sb, seed) for sa, sb in SHAPES for seed in SEEDS]


def _ids(case):
    sa, sb, seed = case
    return f"{'x'.join(map(str, sa))}-{'x'.join(map(str, sb))}-s{seed}"


def _operands(sa, sb, seed):
    """Softmax-like attention rows and standard-normal values."""
    rng = np.random.default_rng(seed)
    a = rng.random(sa)
    a /= a.sum(axis=-1, keepdims=True)
    return a, rng.standard_normal(sb)


def _omm(a, b):
    return ops.ordered_matmul(Tensor(a), Tensor(b)).data


def _value_sorted(a, b):
    """The kernel before one key order per attention call: materialized
    products summed in ascending value order."""
    return np.sum(np.sort(a[..., :, :, None] * b[..., None, :, :], axis=-2), axis=-2)


def _core_operands(sa, sb, seed):
    """Queries (B, H, m, d) and key and value tokens (B, n, H*d) of an
    attention core whose attention and values shapes are ``sa`` and ``sb``."""
    (bsz, heads, m, n), d = sa, sb[-1]
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((bsz, heads, m, d)) / np.sqrt(d)
    return q, rng.standard_normal((bsz, n, heads * d)), rng.standard_normal((bsz, n, heads * d))


def _split_heads(x, heads):
    bsz, n, dim = x.shape
    return np.swapaxes(x.reshape(bsz, n, heads, dim // heads), 1, 2)


def _core(q, k, v):
    """The core of ``Attention.forward_tokens``: the tokens put in key order
    once, then per head the scores, their softmax and the product with v."""
    k, v = Tensor(k), Tensor(v)
    order = _key_order(k, v)
    bsz, n, dim = k.shape
    heads = q.shape[1]

    def split(x):
        x = ops.reshape(ops.take_rows(x, order), (bsz, n, heads, dim // heads))
        return ops.transpose(x, (0, 2, 1, 3))

    scores = ops.matmul(Tensor(q), ops.transpose(split(k), (0, 1, 3, 2)))
    return ops.ordered_matmul(ops.softmax(scores, axis=-1), split(v)).data


def _core_value_sorted(q, k, v):
    """The core with both reductions over the keys summed in value order."""
    heads = q.shape[1]
    scores = q @ np.swapaxes(_split_heads(k, heads), -1, -2)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    a = e / np.sum(np.sort(e, axis=-1), axis=-1, keepdims=True)
    return _value_sorted(a, _split_heads(v, heads))


def _permute_tokens(k, v, rng):
    """Apply one permutation of the token axis per batch element to k and v."""
    perm = np.stack([rng.permutation(k.shape[1]) for _ in range(len(k))])
    rows = np.arange(len(k))[:, None]
    return k[rows, perm], v[rows, perm]


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_key_permutation_is_bitwise_invariant(case):
    q, k, v = _core_operands(*case)
    y = _core(q, k, v)
    assert np.abs(y - _core_value_sorted(q, k, v)).max() < 1e-12
    rng = np.random.default_rng(case[2] + 100)
    for _ in range(2):
        assert np.array_equal(_core(q, *_permute_tokens(k, v, rng)), y)


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_query_permutation_permutes_rows_bitwise(case):
    a, b = _operands(*case)
    perm = np.random.default_rng(case[2] + 200).permutation(a.shape[-2])
    assert np.array_equal(_omm(a[..., perm, :], b), _omm(a, b)[..., perm, :])


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_tied_value_rows_stay_invariant(case):
    """Tokens whose k rows tie are ordered by their v rows; tokens that tie in
    both give identical score columns and terms, in any order."""
    q, k, v = _core_operands(*case)
    rng = np.random.default_rng(case[2] + 300)
    n = k.shape[1]
    # three distinct k rows and three distinct v rows shared by all tokens, so
    # nearly every token ties with another in k, in v or in both
    k = k[:, rng.integers(0, 3, size=n)]
    v = v[:, rng.integers(0, 3, size=n)]
    y = _core(q, k, v)
    assert np.abs(y - _core_value_sorted(q, k, v)).max() < 1e-12
    for _ in range(2):
        assert np.array_equal(_core(q, *_permute_tokens(k, v, rng)), y)


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_matches_value_sorted_kernel(case):
    a, b = _operands(*case)
    assert np.abs(_omm(a, b) - _value_sorted(a, b)).max() < 1e-12


@pytest.mark.parametrize("sa, sb", [
    ((1, 2, 5, 7), (1, 2, 7, 3)),
    ((3, 4, 6), (3, 6, 5)),
    ((2, 1, 4, 6), (1, 3, 6, 2)),      # broadcast leading axes
])
def test_matches_loop_reference(sa, sb):
    a, b = _operands(sa, sb, seed=4)
    y = _omm(a, b)
    assert y.shape == np.broadcast_shapes(sa[:-2], sb[:-2]) + (sa[-2], sb[-1])
    assert np.abs(y - loop_matmul(a, b)).max() < 1e-12
