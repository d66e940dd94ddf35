"""No-tape ops write their result into an input their caller granted.

A module grants ``inplace`` where it wires an op straight after the op that
made its input, so nothing reads that input again. Without a tape the op
then overwrites it; with a tape, or into an array that is read-only or
not C-contiguous, it allocates. Either way every value is bitwise the one
the allocating formula gives, and no forward writes into the array its
caller passed in.
"""

from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from hirivit.cli import _gradcheck_cases
from hirivit.config import parse_config
from hirivit.engine import Tensor, no_grad, ops
from hirivit.errors import ResolutionError
from hirivit.params import init_tree
from hirivit.zoo import Model, hiri_micro_config, mvit_config

GOLDEN = Path(__file__).parent / "golden_configs"


def t(a, rg=False):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=rg)


# ---------------------------------------------------------------------------
# each op against the allocating formula
# ---------------------------------------------------------------------------

def _bn_eval(x, g, b, rm, rv, eps=1e-5):
    scale = g * (1.0 / np.sqrt(rv + eps))
    out = x * scale.reshape(1, -1, 1, 1)
    out += (b - rm * scale).reshape(1, -1, 1, 1)
    return out


def _softmax(x, axis):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _layer_norm(x, g, b, eps=1e-6):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) * (1.0 / np.sqrt(var + eps)) * g + b


RNG = np.random.default_rng(0)
XS = RNG.standard_normal((2, 6, 5, 7)) * 3
YS = RNG.standard_normal((2, 6, 5, 7))
G, B = RNG.standard_normal(6), RNG.standard_normal(6)
RM, RV = RNG.standard_normal(6), RNG.uniform(0.5, 2.0, 6)

# name -> (the op on the granted tensor x, the formula on its array)
CASES = {
    "gelu": (lambda x: ops.gelu(x, inplace=True),
             lambda xs: xs * (0.5 * (1.0 + erf(xs * ops.INV_SQRT2)))),
    "scale": (lambda x: ops.scale(x, 0.37, inplace=True), lambda xs: xs * 0.37),
    "softmax": (lambda x: ops.softmax(x, axis=-1, inplace=True),
                lambda xs: _softmax(xs, -1)),
    "softmax_axis1": (lambda x: ops.softmax(x, axis=1, inplace=True),
                      lambda xs: _softmax(xs, 1)),
    "batch_norm": (lambda x: ops.batch_norm(x, t(G, True), t(B, True), RM.copy(), RV.copy(),
                                            False, inplace=True),
                   lambda xs: _bn_eval(xs, G, B, RM, RV)),
    "add": (lambda x: ops.add(t(YS, True), x, inplace=True), lambda xs: YS + xs),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_no_tape_result_overwrites_the_granted_input_bitwise(name):
    op, formula = CASES[name]
    ref = formula(XS)
    x = t(XS.copy())
    with no_grad():
        y = op(x)
    assert y.data is x.data
    assert y.data.tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_taped_op_keeps_its_input(name):
    op, formula = CASES[name]
    x = t(XS.copy(), rg=True)
    y = op(x)
    assert y.requires_grad and not np.shares_memory(y.data, x.data)
    assert x.data.tobytes() == XS.tobytes()
    assert y.data.tobytes() == formula(XS).tobytes()


@pytest.mark.parametrize("layout", ["transposed", "read-only"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_an_unfit_array_is_not_overwritten(name, layout):
    """A non-C-contiguous array would hand its layout to the result, and a
    read-only one cannot be written: both get a new array, laid out as the
    formula's."""
    op, formula = CASES[name]
    xs = np.ascontiguousarray(XS.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
    if layout == "read-only":
        xs = XS.copy()
        xs.flags.writeable = False
    keep = xs.copy()
    with no_grad():
        y = op(t(xs))
    assert not np.shares_memory(y.data, xs)
    assert xs.tobytes() == keep.tobytes()
    ref = formula(xs)
    assert y.data.tobytes() == ref.tobytes() and y.data.strides == ref.strides


@pytest.mark.parametrize("layout", ["transposed", "fortran"])
def test_add_into_b_keeps_the_layout_of_a_plus_b(layout):
    a = XS.transpose(0, 1, 3, 2).copy().transpose(0, 1, 3, 2) if layout == "transposed" \
        else np.asfortranarray(XS)
    ref = a + YS
    with no_grad():
        y = ops.add(t(a), t(YS.copy()), inplace=True)
    assert y.data.tobytes() == ref.tobytes() and y.data.strides == ref.strides


def test_add_is_not_written_into_a_broadcast_operand():
    a, b = t(XS), t(np.ones((1, 6, 1, 1)))
    with no_grad():
        y = ops.add(a, b, inplace=True)
    assert y.shape == XS.shape and not np.shares_memory(y.data, b.data)


def test_batch_norm_in_training_mode_keeps_its_input():
    x = t(XS.copy())
    with no_grad():
        ops.batch_norm(x, t(G), t(B), RM.copy(), RV.copy(), True, inplace=True)
    assert x.data.tobytes() == XS.tobytes()


@pytest.mark.parametrize("x_dtype", [np.float64])
@pytest.mark.parametrize("layout", ["tokens", "channels-last view"])
@pytest.mark.parametrize("taped", [False, True], ids=["no-grad", "taped"])
def test_layer_norm_bitwise_equals_the_formula(layout, taped, x_dtype):
    """Without temporaries (the squared deviations share the result's buffer)
    the values, dtype and layout stay those of the formula, ``np.var``
    included, on tokens and on LayerNorm2d's channels-last view of a map."""
    xs = XS.reshape(2, 30, 7) if layout == "tokens" else XS.transpose(0, 2, 3, 1)
    xs = xs.astype(x_dtype)
    g, b = RNG.standard_normal(xs.shape[-1]), RNG.standard_normal(xs.shape[-1])
    ref = _layer_norm(xs, g, b)
    x = Tensor(xs, requires_grad=taped)
    if taped:
        y = ops.layer_norm(x, t(g, True), t(b, True))
    else:
        with no_grad():
            y = ops.layer_norm(x, t(g), t(b))
    assert y.data.dtype == ref.dtype
    assert y.data.tobytes() == ref.tobytes() and y.data.strides == ref.strides


# ---------------------------------------------------------------------------
# whole blocks and builds: inputs kept, logits bitwise with the grants off
# ---------------------------------------------------------------------------

def _block_case(name):
    make, shape = _gradcheck_cases()[name]
    block = make()
    tree = block.param_tree()
    init_tree(tree, 0)
    rng = np.random.default_rng(1)
    for path, e in tree.items():
        if path.rsplit(".", 1)[-1] in ("gamma", "beta", "bias", "running_mean"):
            e.data += rng.standard_normal(e.shape) * 0.1
    return block, rng.standard_normal(shape)


def _golden_case(name):
    """A golden build with generic weights, on the smallest of 64 and 224
    that it accepts (a 384 build pools its second stage to the anchor grid).
    Every entry cycles one random vector: ``init_tree``'s draws would take
    seconds on each B and L build."""
    model = Model(parse_config((GOLDEN / f"{name}.cfg").read_text()))
    base = np.random.default_rng(2).standard_normal(4099) * 0.05
    for path, e in model.param_tree().items():
        v = np.resize(base, e.shape)
        e.data[...] = 1.0 + np.abs(v) if path.endswith(("gamma", "running_var")) else v
    for res in (64, 224):
        try:
            model.out_shape((1, 3, res, res))
            break
        except ResolutionError:
            continue
    return model, np.random.default_rng(3).standard_normal((1, 3, res, res))


CASE_NAMES = ([f"block-{n}" for n in sorted(_gradcheck_cases())]
              + [f"golden-{p.stem}" for p in sorted(GOLDEN.glob("*.cfg"))])


@pytest.mark.parametrize("case", CASE_NAMES)
def test_no_grad_forward_keeps_its_input_and_bits(case, monkeypatch):
    kind, name = case.split("-", 1)
    module, xs = _block_case(name) if kind == "block" else _golden_case(name)
    module.eval()
    keep = xs.copy()
    granted = []
    reusable = ops._reusable

    def counted(*args, **kwargs):
        granted.append(reusable(*args, **kwargs))
        return granted[-1]

    monkeypatch.setattr(ops, "_reusable", counted)
    with no_grad():
        y = module(Tensor(xs)).data
    assert xs.tobytes() == keep.tobytes()
    assert any(granted)         # some op did write in place
    monkeypatch.setattr(ops, "_reusable", lambda *args, **kwargs: False)
    with no_grad():
        y_off = module(Tensor(xs)).data
    assert y.tobytes() == y_off.tobytes()


# ---------------------------------------------------------------------------
# the eval activation peak
# ---------------------------------------------------------------------------

def test_ladder_row1_eval_holds_one_hidden_map(peak_bytes):
    """Each stage-1 FFN expands 64 channels eightfold at 56x56, a 12.8 MB map.
    With GELU writing into fc1's result, at most one such map is alive at a
    time; the allocating forward held two (30.5 MB peak, 19.3 MB with the
    grants). In row bands (``test_bands.py``) the blocks hold a third of one:
    11.6 MB."""
    cfg = mvit_config(1, 224)
    model = Model(cfg).eval()
    stage = cfg.stages[0]
    hidden = stage.channels * stage.expansion * 56 * 56 * 8
    x = Tensor(np.random.default_rng(4).standard_normal((1, 3, 224, 224)))
    with no_grad():
        peak = peak_bytes(lambda: model(x))
    assert peak < 2 * hidden


def test_micro_eval_frees_the_stem_map_after_both_branches(peak_bytes):
    """The micro build at 128x128, batch 16. At 64x64 its peak is the entry
    conv's input and patch blocks, which no grant moves. Here it sits in
    the stem's ``lo_expand`` conv; the allocating forward still held the
    half-resolution map ``e`` and the BN/GELU copies of the low branch
    there: 16.9 MB, 2.7 times the input, against 14.8 MB now."""
    model = Model(hiri_micro_config(128)).eval()
    x = Tensor(np.random.default_rng(5).standard_normal((16, 3, 128, 128)))
    with no_grad():
        peak = peak_bytes(lambda: model(x))
    assert peak < 2.5 * x.data.nbytes
