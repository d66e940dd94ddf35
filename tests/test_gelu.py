"""GELU's sign-split, cache-blocked kernel against the plain exact-erf formula.

``ops.gelu`` evaluates SciPy's ``erf`` on ``|x / sqrt(2)|`` and restores the
sign with ``copysign``, in blocks of ``ops.CONV_BLOCK_BYTES``. Its results
must stay bitwise those of ``x * (0.5 * (1 + erf(x / sqrt(2))))`` with the
gradient ``g * (phi + x * pdf)``, on every size, block size, layout and path.
"""

import numpy as np
import pytest
from scipy.special import erf

from hirivit.engine import Tensor, backward, no_grad, ops
from hirivit.engine.tensor import make_result, records_tape
from hirivit.train import SyntheticQuadrants, TrainConfig, train_loop
from hirivit.zoo import build_model, hiri_micro_config

SQRT2 = np.sqrt(2.0)
FINITE_EDGES = np.array([
    0.0, 5e-324, np.nextafter(SQRT2, 0.0), SQRT2, np.nextafter(SQRT2, 3.0), 7.0, 1e308,
])
FINITE_EDGES = np.concatenate([FINITE_EDGES, -FINITE_EDGES])
INF_EDGES = np.array([np.inf, -np.inf])
SCALES = (0.1, 1.0, 4.0, 50.0)
SIGN = np.uint64(1 << 63)
MODES = ["no-grad", "taped", "in-place"]


def _formula(x):
    """The exact-erf GELU as the plain formula: ``(x * phi, phi)``."""
    phi = 0.5 * (1.0 + erf(x * ops.INV_SQRT2))
    return x * phi, phi


def _formula_grad(x, phi, g):
    pdf = ops.INV_SQRT2PI * np.exp(-0.5 * x * x)
    return g * (phi + x * pdf)


def _gelu_before(x: Tensor, inplace: bool = False) -> Tensor:
    """``ops.gelu`` as it was before the sign split and the blocks; it
    always allocates its result, whatever ``inplace`` grants."""
    phi = x.data * ops.INV_SQRT2
    erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    if not records_tape((x,)):
        phi *= x.data
        return make_result(phi, (x,), "gelu", None)
    data = x.data * phi

    def bw(g):
        pdf = ops.INV_SQRT2PI * np.exp(-0.5 * x.data * x.data)
        return (g * (phi + x.data * pdf),)

    return make_result(data, (x,), "gelu", bw)


def _assert_same_bits(a, b):
    """Equal bytes, except that the sign bit of a NaN may differ."""
    assert a.shape == b.shape
    ua = np.ascontiguousarray(a).view(np.uint64)
    ub = np.ascontiguousarray(b).view(np.uint64)
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert np.array_equal(np.where(nan, ua & ~SIGN, ua), np.where(nan, ub & ~SIGN, ub))


def _check(xs, mode, g=None, grad_errstate=None):
    """Run ``ops.gelu`` on ``xs`` and compare it (and its gradient) with the formula.

    ``mode`` is "taped", "no-grad", or "in-place": no grad, on a copy of
    ``xs`` that the result may overwrite. ``grad_errstate`` applies to the
    gradient only, so the forward of finite inputs raises any RuntimeWarning
    it would raise.
    """
    ref, phi = _formula(xs)
    if mode != "taped":
        inplace = mode == "in-place"
        x = Tensor(xs.copy(order="K") if inplace else xs, requires_grad=True)
        with no_grad():
            y = ops.gelu(x, inplace=inplace).data
        _assert_same_bits(y, ref)
        assert y.strides == ref.strides
        # only a C-contiguous input is overwritten; any other gets a new array
        assert (y is x.data) == (inplace and xs.flags.c_contiguous)
        return
    x = Tensor(xs, requires_grad=True)
    y = ops.gelu(x)
    _assert_same_bits(y.data, ref)
    assert y.data.strides == ref.strides
    g = np.random.default_rng(7).standard_normal(xs.shape) if g is None else g
    with np.errstate(**(grad_errstate or {})):
        backward(ops.tsum(ops.mul(y, Tensor(g))))
        ref_grad = _formula_grad(xs, phi, g)
    _assert_same_bits(x.grad, ref_grad)


@pytest.fixture(params=["default", 1], ids=["block-default", "block-1-byte"])
def block_bytes(request, monkeypatch):
    if request.param != "default":
        monkeypatch.setattr(ops, "CONV_BLOCK_BYTES", request.param)
    return ops.CONV_BLOCK_BYTES


@pytest.mark.parametrize("mode", MODES)
def test_gelu_matches_formula_bitwise_on_every_size(block_bytes, mode):
    block = max(1, block_bytes // 8)
    rng = np.random.default_rng(1)
    for n in (1, block - 1, block, block + 1, 3 * block + 7):
        for scale in SCALES:
            _check(rng.standard_normal(n) * scale, mode)


@pytest.mark.parametrize("mode", MODES)
def test_gelu_edge_values_bitwise(block_bytes, mode):
    """Finite edges raise no RuntimeWarning in the forward (tier-1 makes one an
    error). The taped forward now computes the derivative, whose ``x * x``
    overflows at 1e308 there, silenced, as pdf is 0; the reference gradient
    overflows the same way."""
    _check(FINITE_EDGES, mode, grad_errstate={"over": "ignore"})


@pytest.mark.parametrize("mode", MODES)
def test_gelu_infinities_and_nan(block_bytes, mode):
    """``gelu(inf) = inf``; ``gelu(-inf)`` is ``0 * -inf``, NaN, as before. A NaN
    input gives NaN out."""
    xs = np.concatenate([INF_EDGES, [np.nan, -np.nan], FINITE_EDGES])
    with np.errstate(over="ignore", invalid="ignore"):
        _check(xs, mode)
        with no_grad():
            y = ops.gelu(Tensor(xs)).data
    assert y[0] == np.inf and np.isnan(y[1:4]).all()


@pytest.mark.parametrize("layout", ["C", "F", "transposed"])
@pytest.mark.parametrize("mode", MODES)
def test_gelu_keeps_the_layout_of_the_formula(block_bytes, layout, mode):
    """A non-C-contiguous input gives the strides ``x * INV_SQRT2`` gives, so no
    later BLAS call sees another layout."""
    xs = np.random.default_rng(2).standard_normal((3, 4, 5, 6)) * 4
    xs = {"C": xs, "F": np.asfortranarray(xs), "transposed": xs.transpose(0, 2, 3, 1)}[layout]
    assert (xs * ops.INV_SQRT2).strides == xs.strides
    _check(xs, mode, g=np.random.default_rng(3).standard_normal(xs.shape))


def test_erf_is_odd_bitwise():
    """The identity the sign split rests on: ``erf(-t) == -erf(t)`` bit for bit.
    A SciPy whose ``erf`` breaks it fails here, not by shifted bits elsewhere."""
    t = np.random.default_rng(11).uniform(-6.0, 6.0, 10**6)
    t = np.concatenate([t, FINITE_EDGES, INF_EDGES])
    assert erf(-t).tobytes() == (-erf(t)).tobytes()


def _micro_run():
    """Micro-model eval logits and the losses of a 3-step ``train_loop``."""
    cfg = hiri_micro_config()
    model, _ = build_model(cfg, seed=0)
    images = np.random.default_rng(5).standard_normal((2, 3, 64, 64))
    model.eval()
    with no_grad():
        logits = model(Tensor(images)).data
    model, _ = build_model(cfg, seed=0)
    teacher, _ = build_model(cfg, seed=0)
    data = SyntheticQuadrants(image_size=64, num_classes=cfg.num_classes, seed=0)
    records, _, _ = train_loop(model, data, TrainConfig(steps=3, seed=0),
                               teacher_model=teacher)
    return logits, np.array([r.loss for r in records])


def test_micro_model_bitwise_equal_to_the_formula(monkeypatch):
    """End to end, in one process: the same eval logits and training losses
    with the kernel as with the plain formula, so no digest is stored."""
    logits, losses = _micro_run()
    monkeypatch.setattr(ops, "gelu", _gelu_before)
    logits_before, losses_before = _micro_run()
    assert logits.tobytes() == logits_before.tobytes()
    assert losses.tobytes() == losses_before.tobytes()
