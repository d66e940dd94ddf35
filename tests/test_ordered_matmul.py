"""ordered_matmul: equivalence to the value-sorted kernel and the loop oracle,
and bitwise equivariance under permutations of keys and queries."""

import numpy as np
import pytest

from hirivit.engine import Tensor, ops
from hirivit.engine.reference import loop_matmul

# (attention, values) operand shapes: the five that S@448 and ladder row 1@224
# pass to ordered_matmul, a contraction over 64 keys (an 8x8 K/V grid), the
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
    """The previous kernel: materialized products summed in value order."""
    return ops.ordered_sum(a[..., :, :, None] * b[..., None, :, :], axis=-2)


def _permute_keys(a, b, rng):
    """Apply an independent permutation of the key axis per leading index."""
    lead, k = a.shape[:-2], a.shape[-1]
    perm = np.stack([rng.permutation(k) for _ in range(int(np.prod(lead)))])
    perm = perm.reshape(lead + (k,))
    return (np.take_along_axis(a, perm[..., None, :], axis=-1),
            np.take_along_axis(b, perm[..., :, None], axis=-2))


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_key_permutation_is_bitwise_invariant(case):
    a, b = _operands(*case)
    y = _omm(a, b)
    rng = np.random.default_rng(case[2] + 100)
    for _ in range(2):
        assert np.array_equal(_omm(*_permute_keys(a, b, rng)), y)


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_query_permutation_permutes_rows_bitwise(case):
    a, b = _operands(*case)
    perm = np.random.default_rng(case[2] + 200).permutation(a.shape[-2])
    assert np.array_equal(_omm(a[..., perm, :], b), _omm(a, b)[..., perm, :])


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_tied_value_rows_stay_invariant(case):
    """Keys whose value rows tie are ordered by their attention columns;
    keys that tie in both contribute identical terms."""
    a, b = _operands(*case)
    rng = np.random.default_rng(case[2] + 300)
    k = a.shape[-1]
    # three distinct value rows shared by all keys, so nearly every key ties
    b = b[..., rng.integers(0, 3, size=k), :]
    # and a few keys that also repeat another key's attention column
    dup = rng.integers(0, k, size=(2, 4))
    a[..., dup[0]] = a[..., dup[1]]
    b[..., dup[0], :] = b[..., dup[1], :]
    y = _omm(a, b)
    assert np.abs(y - _value_sorted(a, b)).max() < 1e-12
    for _ in range(2):
        assert np.array_equal(_omm(*_permute_keys(a, b, rng)), y)


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
