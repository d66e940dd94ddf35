"""Reverse-mode gradients: hand cases, finite differences, determinism."""

import collections
import gc
import weakref
import zlib

import numpy as np
import pytest

from hirivit.engine import (Tensor, backward, grad_check, loop_conv2d, loop_conv2d_grads,
                            no_grad, observe, ops, topo_order)
from hirivit.train import TrainConfig, loop, soft_cross_entropy, train_loop


def t(a, rg=True):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=rg)


def test_sum_gradient_is_ones():
    x = t(np.arange(6.0).reshape(2, 3))
    backward(ops.tsum(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_square_gradient_is_2x():
    x = t(np.array([1.0, -2.0, 0.5]))
    backward(ops.tsum(ops.mul(x, x)))
    np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-15)


def test_non_scalar_loss_rejected():
    x = t(np.ones(3))
    with pytest.raises(ValueError):
        backward(ops.mul(x, x))


def test_reused_node_accumulates():
    x = t(np.array([3.0]))
    y = ops.add(ops.mul(x, x), x)          # x^2 + x -> dy/dx = 2x + 1
    backward(ops.tsum(y))
    np.testing.assert_allclose(x.grad, [7.0])


def test_no_grad_blocks_tape():
    x = t(np.ones(3))
    with no_grad():
        y = ops.mul(x, x)
    assert not y.requires_grad and y._backward is None


def test_backward_visits_each_node_once():
    # diamond graph: d = (a*b) + (a*b); the shared node must be applied once
    a = t(np.array([2.0]))
    m = ops.mul(a, a)
    out = ops.tsum(ops.add(m, m))
    backward(out)
    np.testing.assert_allclose(a.grad, [8.0])   # d(2a^2)/da = 4a


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(123)
        x = t(rng.standard_normal((2, 3, 8, 8)))
        w = t(rng.standard_normal((5, 3, 3, 3)))
        y = ops.gelu(ops.conv2d(x, w, stride=2, padding=1))
        loss = ops.tsum(ops.mul(y, y))
        backward(loss)
        return y.data.copy(), x.grad.copy(), w.grad.copy()

    y1, gx1, gw1 = run()
    y2, gx2, gw2 = run()
    assert (y1 == y2).all() and (gx1 == gx2).all() and (gw1 == gw2).all()


# ---------------------------------------------------------------------------
# finite-difference suite: every differentiable op, 5 random instances each
# ---------------------------------------------------------------------------

def _weighted_sum(y: Tensor, rng) -> Tensor:
    w = Tensor(rng.standard_normal(y.shape))
    return ops.tsum(ops.mul(y, w))


# conv2d at batch >= 2, one case per backward path:
# name -> (x shape, weight shape, stride, padding, groups)
CONV_CASES = {
    "1x1": ((2, 3, 4, 5), (4, 3, 1, 1), 1, 0, 1),
    "1x1_pad1": ((2, 3, 3, 3), (2, 3, 1, 1), 1, 1, 1),
    "dw_s1": ((2, 3, 5, 5), (3, 1, 3, 3), 1, 1, 3),
    "dw_s2": ((2, 3, 6, 6), (3, 1, 3, 3), 2, 1, 3),
    "groups2_s1": ((2, 4, 5, 4), (6, 2, 3, 3), 1, 1, 2),
    "groups2_s2": ((2, 4, 6, 6), (6, 2, 3, 3), 2, 1, 2),
    "dense_pad0": ((2, 2, 5, 6), (3, 2, 3, 3), 1, 0, 1),
    "dense_5x5_pad1": ((2, 2, 6, 6), (3, 2, 5, 5), 1, 1, 1),
    "ragged_s2": ((2, 2, 6, 6), (3, 2, 3, 3), 2, 1, 1),      # (6+2-3) % 2 = 1
    "ragged_s3_pad0": ((3, 2, 8, 7), (2, 2, 3, 3), 3, 0, 1),  # 5 % 3, 4 % 3
}


def _conv_case(name):
    xs, ws, s, p, groups = CONV_CASES[name]
    return lambda rng: (
        {"x": t(rng.standard_normal(xs)),
         "w": t(rng.standard_normal(ws)),
         "b": t(rng.standard_normal(ws[0]))},
        lambda v: ops.conv2d(v["x"], v["w"], v["b"], stride=s, padding=p, groups=groups))


def _batch_norm_eval_case(rng):
    rm, rv = rng.standard_normal(2), rng.uniform(0.5, 2.0, 2)
    return (
        {"x": t(rng.standard_normal((3, 2, 4, 4))),
         "g": t(rng.standard_normal(2)),
         "b": t(rng.standard_normal(2))},
        lambda v: ops.batch_norm(v["x"], v["g"], v["b"], rm, rv, False))


def _take_rows_case(rng):
    order = np.stack([rng.permutation(5) for _ in range(2)])
    return ({"x": t(rng.standard_normal((2, 5, 3)))},
            lambda v: ops.take_rows(v["x"], order))


OP_CASES = {
    **{f"conv2d_{name}": _conv_case(name) for name in CONV_CASES},
    "conv2d": lambda rng: (
        {"x": t(rng.standard_normal((1, 2, 5, 5))),
         "w": t(rng.standard_normal((4, 2, 3, 3))),
         "b": t(rng.standard_normal(4))},
        lambda v: ops.conv2d(v["x"], v["w"], v["b"], stride=2, padding=1)),
    "conv2d_grouped": lambda rng: (
        {"x": t(rng.standard_normal((1, 4, 4, 4))),
         "w": t(rng.standard_normal((4, 1, 3, 3)))},
        lambda v: ops.conv2d(v["x"], v["w"], None, padding=1, groups=4)),
    "linear": lambda rng: (
        {"x": t(rng.standard_normal((3, 4))),
         "w": t(rng.standard_normal((5, 4))),
         "b": t(rng.standard_normal(5))},
        lambda v: ops.linear(v["x"], v["w"], v["b"])),
    "matmul": lambda rng: (
        {"a": t(rng.standard_normal((2, 3, 4))),
         "b": t(rng.standard_normal((2, 4, 5)))},
        lambda v: ops.matmul(v["a"], v["b"])),
    "ordered_matmul": lambda rng: (
        {"a": t(rng.standard_normal((2, 3, 4))),
         "b": t(rng.standard_normal((2, 4, 5)))},
        lambda v: ops.ordered_matmul(v["a"], v["b"])),
    "take_rows": _take_rows_case,
    "softmax": lambda rng: (
        {"x": t(rng.standard_normal((4, 6)))},
        lambda v: ops.softmax(v["x"], axis=-1)),
    "log_softmax": lambda rng: (
        {"x": t(rng.standard_normal((4, 6)))},
        lambda v: ops.log_softmax(v["x"], axis=-1)),
    "gelu": lambda rng: (
        {"x": t(rng.standard_normal((3, 7)))},
        lambda v: ops.gelu(v["x"])),
    "batch_norm": lambda rng: (
        {"x": t(rng.standard_normal((3, 2, 4, 4))),
         "g": t(rng.standard_normal(2)),
         "b": t(rng.standard_normal(2))},
        lambda v: ops.batch_norm(v["x"], v["g"], v["b"],
                                 np.zeros(2), np.ones(2), True)),
    "batch_norm_eval": _batch_norm_eval_case,
    "layer_norm": lambda rng: (
        {"x": t(rng.standard_normal((3, 5, 6))),
         "g": t(rng.standard_normal(6)),
         "b": t(rng.standard_normal(6))},
        lambda v: ops.layer_norm(v["x"], v["g"], v["b"])),
    "upsample_repeat": lambda rng: (
        {"x": t(rng.standard_normal((1, 2, 3, 3)))},
        lambda v: ops.upsample_repeat(v["x"], 2)),
    "adaptive_avg_pool2d": lambda rng: (
        {"x": t(rng.standard_normal((1, 2, 7, 7)))},
        lambda v: ops.adaptive_avg_pool2d(v["x"], (4, 4))),
    "global_avg_pool": lambda rng: (
        {"x": t(rng.standard_normal((2, 3, 4, 4)))},
        lambda v: ops.global_avg_pool(v["x"])),
}


@pytest.mark.parametrize("op_name", sorted(OP_CASES))
@pytest.mark.parametrize("seed", range(5))
def test_op_gradients_match_finite_differences(op_name, seed):
    rng = np.random.default_rng(1000 * seed + zlib.crc32(op_name.encode()) % 1000)
    tensors, apply = OP_CASES[op_name](rng)
    wrng = np.random.default_rng(seed + 77)
    weight = Tensor(wrng.standard_normal(apply(tensors).shape))

    def f():
        return ops.tsum(ops.mul(apply(tensors), weight))

    report = grad_check(f, tensors, h=1e-5, tol=1e-4)
    assert report.passed, f"{op_name}: rel err {report.max_rel_err:.2e} on {report.worst}"


@pytest.mark.parametrize("name", sorted(CONV_CASES))
def test_conv2d_forward_matches_loop_reference(name):
    tensors, apply = _conv_case(name)(np.random.default_rng(0))
    _, _, s, p, groups = CONV_CASES[name]
    ref = loop_conv2d(tensors["x"].data, tensors["w"].data, tensors["b"].data,
                      (s, s), (p, p), groups)
    y = apply(tensors)
    assert y.shape == ref.shape and np.abs(y.data - ref).max() < 1e-12


def _conv_grads(name, x_requires_grad):
    tensors, apply = _conv_case(name)(np.random.default_rng(5))
    tensors["x"].requires_grad = x_requires_grad
    y = apply(tensors)
    backward(ops.tsum(ops.mul(y, t(np.random.default_rng(9).standard_normal(y.shape)))))
    return [tensors[k].grad for k in ("x", "w", "b")]


@pytest.mark.parametrize("name", sorted(CONV_CASES))
def test_conv2d_gradients_bitwise_repeatable(name):
    for a, b in zip(_conv_grads(name, True), _conv_grads(name, True)):
        assert (a == b).all()


@pytest.mark.parametrize("name", ["dense_pad0", "dw_s1", "ragged_s2"])
def test_conv2d_input_without_grad_gets_none(name):
    tensors, apply = _conv_case(name)(np.random.default_rng(5))
    tensors["x"].requires_grad = False
    y = apply(tensors)
    assert y._backward(np.ones(y.shape))[0] is None     # not computed at all
    gx_off, gw_off, gb_off = _conv_grads(name, False)
    gx_on, gw_on, gb_on = _conv_grads(name, True)
    assert gx_off is None and gx_on is not None
    assert (gw_off == gw_on).all() and (gb_off == gb_on).all()


# Grouped convs that split into several blocks of groups once the block size
# is shrunk: name -> (x shape, weight shape, stride, padding, groups)
BLOCKED_CASES = {
    "dw_s1": ((2, 7, 6, 6), (7, 1, 3, 3), 1, 1, 7),
    "dw_s1_pad0": ((2, 5, 6, 5), (5, 1, 3, 3), 1, 0, 5),
    "dw_s2": ((3, 7, 7, 7), (7, 1, 3, 3), 2, 1, 7),
    "dw_s2_pad0": ((2, 5, 7, 7), (5, 1, 3, 3), 2, 0, 5),
    "groups2_s1": ((2, 4, 5, 4), (6, 2, 3, 3), 1, 1, 2),
    "groups2_s2_pad0": ((2, 4, 7, 6), (6, 2, 3, 3), 2, 0, 2),
    "groups3_s1": ((2, 6, 5, 5), (9, 2, 3, 3), 1, 1, 3),
}


def _blocked_run(name, block_bytes, monkeypatch):
    xs, ws, s, p, groups = BLOCKED_CASES[name]
    monkeypatch.setattr(ops, "CONV_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(21)
    x, w, b = t(rng.standard_normal(xs)), t(rng.standard_normal(ws)), t(rng.standard_normal(ws[0]))
    y = ops.conv2d(x, w, b, stride=s, padding=p, groups=groups)
    g = rng.standard_normal(y.shape)
    backward(ops.tsum(ops.mul(y, t(g, rg=False))))
    blocks = [g1 - g0 for g0, g1, _ in
              ops._group_blocks(ops._windows(x.data, *ws[2:], (s, s), (p, p), groups))]
    return (y.data, x.grad, w.grad, b.grad), blocks, g


@pytest.mark.parametrize("name, groups_per_block", [
    (name, k) for name in sorted(BLOCKED_CASES) for k in (1, 2) if BLOCKED_CASES[name][4] > k])
def test_blocked_conv2d_matches_one_block_and_loops(name, groups_per_block, monkeypatch):
    xs, ws, s, p, groups = BLOCKED_CASES[name]
    n, _, h, w = xs
    _, cing, kh, kw = ws
    oh, ow = (h + 2 * p - kh) // s + 1, (w + 2 * p - kw) // s + 1
    group_bytes = n * cing * kh * kw * oh * ow * 8
    one, blocks_one, g = _blocked_run(name, 1 << 62, monkeypatch)
    many, blocks, _ = _blocked_run(name, groups_per_block * group_bytes, monkeypatch)
    assert blocks_one == [groups]
    full, last = divmod(groups, groups_per_block)
    assert blocks == [groups_per_block] * full + ([last] if last else [])
    for a, b in zip(one, many):
        assert (a == b).all()
    rng = np.random.default_rng(21)
    x, wt, bias = rng.standard_normal(xs), rng.standard_normal(ws), rng.standard_normal(ws[0])
    gx, gw = loop_conv2d_grads(x, wt, g, (s, s), (p, p), groups)
    refs = (loop_conv2d(x, wt, bias, (s, s), (p, p), groups), gx, gw, g.sum(axis=(0, 2, 3)))
    for got, ref in zip(many, refs):
        assert got.shape == ref.shape and np.abs(got - ref).max() < 1e-12


# x shape, w shape, stride, padding, groups; 48 output rows of 7 or 13 columns,
# so a row block is a multiple of 16 rows
ROW_CASES = {
    "dense_s1_p1_b1_w7": ((1, 2, 48, 7), (3, 2, 3, 3), 1, 1, 1),
    "dense_s1_p0_b3_w13": ((3, 2, 50, 15), (3, 2, 3, 3), 1, 0, 1),
    "dense_s2_p1_b3_w7": ((3, 2, 96, 13), (3, 2, 3, 3), 2, 1, 1),
    "dense_s2_p0_b1_w13": ((1, 2, 97, 27), (3, 2, 3, 3), 2, 0, 1),
    "depthwise_s1_p1_b3_w13": ((3, 3, 48, 13), (3, 1, 3, 3), 1, 1, 3),
}


def _row_blocked_run(name, cap, monkeypatch):
    xs, ws, s, p, groups = ROW_CASES[name]
    monkeypatch.setattr(ops, "CONV_BLOCK_BYTES", 1)      # one group per block
    monkeypatch.setattr(ops, "CONV_PATCH_CAP", cap)
    rng = np.random.default_rng(22)
    x, w, b = t(rng.standard_normal(xs)), t(rng.standard_normal(ws)), t(rng.standard_normal(ws[0]))
    y = ops.conv2d(x, w, b, stride=s, padding=p, groups=groups)
    g = rng.standard_normal(y.shape)
    backward(ops.tsum(ops.mul(y, t(g, rg=False))))
    win = ops._windows(x.data, *ws[2:], (s, s), (p, p), groups)
    rows = [r1 - r0 for g0, _, r0, r1 in ops._blocks(win, ws[0] // groups) if g0 == 0]
    return (y.data, x.grad, w.grad, b.grad), rows, g


@pytest.mark.parametrize("name, units_per_block", [
    (name, k) for name in sorted(ROW_CASES) for k in (1, 2)])
def test_row_blocked_conv2d_matches_one_block_and_loops(name, units_per_block, monkeypatch):
    xs, ws, s, p, groups = ROW_CASES[name]
    n, (_, cing, kh, kw) = xs[0], ws
    oh, ow = 48, (xs[3] + 2 * p - kw) // s + 1
    unit_bytes = n * cing * kh * kw * 16 * ow * 8       # 16 rows of one group
    one, rows_one, g = _row_blocked_run(name, 1 << 62, monkeypatch)
    many, rows, _ = _row_blocked_run(name, units_per_block * unit_bytes, monkeypatch)
    assert rows_one == [oh]
    assert rows == ([16, 16, 16] if units_per_block == 1 else [16, 32])
    for a, b in zip(one, many):
        assert (a == b).all()
    rng = np.random.default_rng(22)
    x, wt, bias = rng.standard_normal(xs), rng.standard_normal(ws), rng.standard_normal(ws[0])
    gx, gw = loop_conv2d_grads(x, wt, g, (s, s), (p, p), groups)
    refs = (loop_conv2d(x, wt, bias, (s, s), (p, p), groups), gx, gw, g.sum(axis=(0, 2, 3)))
    for got, ref in zip(many, refs):
        assert got.shape == ref.shape and np.abs(got - ref).max() < 1e-12


@pytest.mark.parametrize("hw, blocks", [(58, 7), (16, 2)])
def test_row_blocks_keep_the_gemm_path_of_the_whole_map(hw, blocks, monkeypatch):
    # 56x56 outputs, K = 576: one GEMM of 4 x 576 x 3136 MACs. A 2-row block
    # (112 columns, 258k MACs) would fall to the BLAS small-matrix kernel and
    # sum in another order; 8-row blocks stay above 100**3 MACs. A 14x14 map
    # (196 columns, below the floor as a whole) splits at row 8, a 16-column
    # step, and its ragged last block gets the whole map's bits.
    rng = np.random.default_rng(23)
    x, w = rng.standard_normal((1, 64, hw, hw)), rng.standard_normal((4, 64, 3, 3))
    monkeypatch.setattr(ops, "CONV_PATCH_CAP", 1 << 62)
    whole = ops._conv2d_fast(x, w, None, (1, 1), (0, 0), 1)
    monkeypatch.setattr(ops, "CONV_PATCH_CAP", 1)
    win = ops._windows(x, 3, 3, (1, 1), (0, 0), 1)
    assert len(list(ops._blocks(win, 4))) == blocks
    assert ops._conv2d_fast(x, w, None, (1, 1), (0, 0), 1).tobytes() == whole.tobytes()


def test_gelu_derivative_17_points():
    xs = np.linspace(-4, 4, 17)
    x = t(xs)
    backward(ops.tsum(ops.gelu(x)))
    h = 1e-6
    fd = np.array([(ops.gelu(t([v + h], rg=False)).data[0]
                    - ops.gelu(t([v - h], rg=False)).data[0]) / (2 * h) for v in xs])
    rel = np.abs(fd - x.grad) / np.maximum(np.abs(fd), 1e-3)
    assert rel.max() < 1e-6


def test_upsample_backward_sums_block():
    x = t(np.array([[[[2.0]]]]))
    y = ops.upsample_repeat(x, 3)
    backward(ops.tsum(y))
    np.testing.assert_array_equal(x.grad, [[[[9.0]]]])


# ---------------------------------------------------------------------------
# backward consumes the tape
# ---------------------------------------------------------------------------

def _backward_keeping_tape(loss):
    """The walk before it consumed the tape: every node keeps its parents and closure."""
    order = topo_order(loss)
    grads = {id(order[-1]): np.ones_like(loss.data)}      # the loss's own node
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad and not node._parents:
            node.accumulate_grad(g)
        if node._backward is None:
            continue
        parent_grads = node._backward(g)
        for p, pg in zip(node._parents, parent_grads):
            if pg is None or not p.requires_grad:
                continue
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            elif p._parents or p._backward is not None:
                grads[id(p)] = pg
            else:
                p.accumulate_grad(pg)


def _gelu_chain(rng):
    x, w = t(rng.standard_normal((2, 3, 6, 6))), t(rng.standard_normal((4, 3, 3, 3)))
    y = ops.gelu(ops.conv2d(x, w, padding=1))
    return x, w, y


def test_second_backward_on_one_loss_raises():
    x, w, y = _gelu_chain(np.random.default_rng(30))
    loss = ops.tsum(ops.mul(y, y))
    backward(loss)
    gx, gw = x.grad.copy(), w.grad.copy()
    with pytest.raises(ValueError, match="consumed"):
        backward(loss)
    assert (x.grad == gx).all() and (w.grad == gw).all()


def test_second_loss_through_a_consumed_subgraph_raises():
    # without the guard the freed y would pass for a leaf and take a gradient
    x, w, y = _gelu_chain(np.random.default_rng(31))
    backward(ops.tsum(y))
    gx, gw = x.grad.copy(), w.grad.copy()
    second = ops.tsum(ops.mul(y, y))
    with pytest.raises(ValueError, match="consumed"):
        backward(second)
    assert y.grad is None
    assert (x.grad == gx).all() and (w.grad == gw).all()


@pytest.mark.parametrize("walk, freed", [(backward, True), (_backward_keeping_tape, False)])
def test_backward_frees_the_activations_a_kept_loss_reached(walk, freed):
    _, _, y = _gelu_chain(np.random.default_rng(32))
    activation = weakref.ref(y.data)
    loss = ops.tsum(ops.mul(y, y))
    del y
    walk(loss)
    gc.collect()
    assert (activation() is None) == freed
    assert loss.requires_grad                           # loss is still referenced


# ---------------------------------------------------------------------------
# the tape keeps only what backward reads
# ---------------------------------------------------------------------------

class _DataSpy:
    """Engine observer that keeps a weak reference to each op result's array."""

    def __init__(self):
        self.results = []

    def call(self, module, x, **kw):
        return module.forward(x, **kw)

    def on_result(self, out, k):
        self.results.append((out.op, weakref.ref(out.data)))


def _micro_training_forward(micro_setup):
    """The taped loss of one batch-16 train-mode forward of the micro model."""
    model, _, data = micro_setup()
    model.train(True)
    images, labels = data.sample(16)
    spy = _DataSpy()
    with observe(spy):
        loss = soft_cross_entropy(model(Tensor(images)), data.one_hot(labels))
    return model, loss, spy


def _closure_values(fn):
    """The values bound in ``fn``'s closure cells, unbound cells left out."""
    values = []
    for cell in fn.__closure__ or ():
        try:
            values.append(cell.cell_contents)
        except ValueError:
            pass
    return values


def test_no_backward_closure_holds_a_non_parameter_tensor(micro_setup):
    model, loss, _ = _micro_training_forward(micro_setup)
    params = {id(t) for _, t in model.param_tree().trainable_items()}
    held = [node._backward.__qualname__ for node in topo_order(loss)
            if node._backward is not None
            for value in _closure_values(node._backward)
            for item in (value if isinstance(value, (tuple, list)) else (value,))
            if isinstance(item, Tensor) and id(item) not in params]
    assert not held, (len(held), sorted(set(held)))


def test_a_live_loss_keeps_no_result_that_backward_does_not_read(micro_setup):
    _, loss, spy = _micro_training_forward(micro_setup)
    assert loss.requires_grad                           # the whole tape is still live
    total = collections.Counter(op for op, _ in spy.results)
    alive = collections.Counter(op for op, ref in spy.results if ref() is not None)
    assert total["upsample_repeat"] > 0 and alive["upsample_repeat"] == 0
    assert total["reshape"] > 0 and alive["reshape"] == 0
    assert total["conv2d"] == 37 and alive["conv2d"] <= 7, alive


def _micro_run(micro_setup, steps):
    model, teacher, data = micro_setup()
    records, tree, _ = train_loop(model, data, TrainConfig(steps=steps, seed=0),
                                  teacher_model=teacher)
    return [r.loss for r in records], {p: e.data for p, e in tree.items()}


def test_finished_step_keeps_no_tape_for_the_next(peak_bytes, micro_setup, monkeypatch):
    # train_loop keeps a step's loss and logits while the next step runs;
    # batch 16 at 64x64, the train_micro benchmark's recipe
    def peak(steps):
        model, teacher, data = micro_setup()
        config = TrainConfig(steps=steps, seed=0)
        return peak_bytes(lambda: train_loop(model, data, config, teacher_model=teacher))

    _micro_run(micro_setup, 1)                          # warm caches before measuring
    one, two = peak(1), peak(2)
    monkeypatch.setattr(loop, "backward", _backward_keeping_tape)
    two_kept = peak(2)
    assert two <= 1.10 * one, (one, two)
    assert two <= 0.85 * two_kept, (two, two_kept)


def test_micro_training_is_bitwise_unchanged_by_consuming_the_tape(micro_setup, monkeypatch):
    losses, tree = _micro_run(micro_setup, 20)
    monkeypatch.setattr(loop, "backward", _backward_keeping_tape)
    kept_losses, kept_tree = _micro_run(micro_setup, 20)
    assert losses == kept_losses
    assert tree.keys() == kept_tree.keys()
    for p in tree:
        assert tree[p].tobytes() == kept_tree[p].tobytes(), p


@pytest.mark.parametrize("op_name", sorted(OP_CASES))
@pytest.mark.parametrize("seed", range(5))
def test_finite_difference_suite_gradients_are_bitwise_unchanged(op_name, seed):
    def analytic(walk):
        rng = np.random.default_rng(1000 * seed + zlib.crc32(op_name.encode()) % 1000)
        tensors, apply = OP_CASES[op_name](rng)
        weight = Tensor(np.random.default_rng(seed + 77).standard_normal(apply(tensors).shape))
        walk(ops.tsum(ops.mul(apply(tensors), weight)))
        return [tensors[k].grad for k in sorted(tensors)]

    for a, b in zip(analytic(backward), analytic(_backward_keeping_tape), strict=True):
        assert a.tobytes() == b.tobytes()
