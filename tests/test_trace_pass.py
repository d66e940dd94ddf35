"""Costs derived from ``forward``: exact totals, an untouched model, forward's errors."""

import numpy as np
import pytest

from hirivit.analyzer import count_flops, count_params, mac_counting_oracle
from hirivit.engine import Tensor, no_grad, observe, ops, tensor
from hirivit.errors import ResolutionError, ShapeError
from hirivit.train import distill_target
from hirivit.zoo import Model, build_model, hiri_config, hiri_micro_config, mvit_config

# (params, macs, elementwise); the +-10% reference bands cannot see one
# miscounted op, these can
EXACT_TOTALS = {
    "S@448": (lambda: Model(hiri_config("S", 448)), 448,
              (34601256, 4889398528, 30651668)),
    "ladder_row1@224": (lambda: Model(mvit_config(1, 224)), 224,
                        (34765928, 4095776768, 17075248)),
    "micro@64": (lambda: Model(hiri_micro_config()), 64, (94858, 1364288, 73940)),
}


@pytest.mark.parametrize("name", sorted(EXACT_TOTALS))
def test_exact_cost_totals(name):
    make, res, expected = EXACT_TOTALS[name]
    rep = count_flops(make(), res)
    assert (rep.params, rep.macs, rep.elementwise) == expected


def _state(model):
    entries = {path: (t.data.dtype, t.data.shape, t.data.tobytes(), t.grad)
               for path, t, _ in model.named_entries()}
    modes = {path: m.training for path, m in model.named_modules()}
    return entries, modes


@pytest.mark.parametrize("mode", ["train", "eval", "mixed"])
def test_analysis_leaves_model_bitwise_untouched(mode):
    model, tree = build_model(hiri_micro_config(), seed=0)
    rng = np.random.default_rng(0)
    for path, t in tree.items():
        # generic values everywhere, BN running statistics included
        t.data[...] = rng.uniform(0.5, 1.5, t.shape)
    model.train(mode != "eval")
    if mode == "mixed":
        model.stages[3].eval()
    before = _state(model)

    count_flops(model, 64, batch=2)
    count_params(model)
    assert model.out_shape((2, 3, 64, 64)) == (2, 2)
    assert [s[2] for s in model.stage_boundary_shapes((1, 3, 64, 64))] == [16, 8, 4, 2, 1]

    after = _state(model)
    assert after[1] == before[1]
    assert after[0].keys() == before[0].keys()
    for path, (dtype, shape, raw, grad) in after[0].items():
        assert (dtype, shape, raw) == before[0][path][:3], path
        assert grad is None, path


def test_oracle_and_teacher_restore_mixed_mode_flags():
    cfg = hiri_micro_config(resolution=32)
    model, _ = build_model(cfg, seed=0)
    teacher, _ = build_model(cfg, seed=1)
    for m in (model, teacher):
        m.train()
        m.stages[3].eval()
    before = [_state(m)[1] for m in (model, teacher)]

    mac_counting_oracle(model, (1, 3, 32, 32))
    x = np.random.default_rng(0).standard_normal((2, 3, 32, 32))
    distill_target(teacher, x, np.array([1, 0]), np.ones((32, 32)), np.eye(2), 0.5)

    assert [_state(m)[1] for m in (model, teacher)] == before


def test_analysis_memory_does_not_grow_with_the_input(peak_bytes):
    model = Model(hiri_config("S", 448))
    for res in (1792, 16384):
        assert peak_bytes(lambda: count_flops(model, res)) < 20 * 2**20, res


@pytest.mark.parametrize("make", [lambda: Model(hiri_config("S", 448)),
                                  lambda: Model(mvit_config(1, 224))],
                         ids=["S@448", "ladder_row1@224"])
def test_analysis_rejects_an_empty_batch(make):
    with pytest.raises(ShapeError, match="batch of at least 1"):
        count_flops(make(), batch=0)


@pytest.mark.parametrize("res,where", [
    (36, "model.stage1.block1: high-resolution block needs even"),
    (32, "model.stage4.block1.attn: adaptive pool cannot map 1x1 onto 0x0"),
])
def test_analysis_rejects_what_forward_rejects_and_names_the_module(res, where):
    with pytest.raises(ResolutionError, match=where):
        count_flops(Model(hiri_config("S", 448)), res)


@pytest.mark.parametrize("in_shape", [(2, 4, 64, 64), (2, 3, 64)])
def test_trace_errors_name_the_callers_input_shape(in_shape):
    with pytest.raises(ShapeError) as info:
        Model(hiri_micro_config()).out_shape(in_shape)
    assert f"got {in_shape}" in str(info.value)


def test_trace_errors_from_inner_modules_add_the_input_shape():
    with pytest.raises(ResolutionError) as info:
        count_flops(Model(hiri_config("S", 448)), 36)
    assert str(info.value).endswith("(input shape (1, 3, 36, 36))")


class _Spy:
    """An engine observer that notes its events and changes nothing."""

    def __init__(self):
        self.calls, self.results = 0, []      # results: (op, k) of each op result

    def call(self, module, x, **kw):
        self.calls += 1
        return module.forward(x, **kw)

    def on_result(self, out, k):
        self.results.append((out.op, k))


def test_analysis_restores_the_engine_observer():
    model = Model(hiri_config("S", 448))
    spy = _Spy()
    with observe(spy):
        assert model.out_shape((1, 3, 448, 448)) == (1, 1000)
        assert tensor._observer is spy
        with pytest.raises(ResolutionError):
            count_flops(model, 32)
        assert tensor._observer is spy
    assert (spy.calls, spy.results) == (0, [])    # the analysis observed itself
    assert tensor._observer is None
    assert model.out_shape((1, 3, 448, 448)) == (1, 1000)
    with pytest.raises(ResolutionError):
        count_flops(model, 32)
    assert tensor._observer is None


def test_observer_sees_a_forward_without_changing_it():
    model, _ = build_model(hiri_micro_config(), seed=0)
    model.eval()
    x = Tensor(np.random.default_rng(0).standard_normal((1, 3, 64, 64)))
    spy = _Spy()
    with no_grad():
        plain = model(x).data
        with observe(spy):
            seen = model(x).data
    assert seen.tobytes() == plain.tobytes()
    assert spy.calls >= len(list(model.named_modules())) and len(spy.results) > spy.calls


def test_each_op_reports_its_contraction_length():
    rng = np.random.default_rng(0)

    def t(*shape):
        return Tensor(rng.standard_normal(shape))

    x, c = t(2, 4, 6, 6), np.ones(4)
    spy = _Spy()
    with observe(spy):
        ops.conv2d(x, t(6, 4, 3, 3), padding=1)          # dense: 4 * 3 * 3
        ops.conv2d(x, t(4, 1, 3, 3), padding=1, groups=4)  # depthwise: 1 * 3 * 3
        ops.conv2d(x, t(6, 4, 1, 1), t(6))                # 1x1: 4
        ops.conv2d(x, t(8, 2, 3, 3), groups=2)            # grouped: 2 * 3 * 3
        ops.linear(t(3, 5), t(7, 5), t(7))
        ops.matmul(t(2, 3, 11), t(2, 11, 4))
        ops.ordered_matmul(t(2, 3, 13), t(2, 13, 4))
        ops.gelu(x)
        ops.add(x, x)
        ops.batch_norm(x, t(4), t(4), c * 0, c, training=False)
        ops.softmax(x)
    assert spy.results == [("conv2d", 36), ("conv2d", 9), ("conv2d", 4), ("conv2d", 18),
                           ("linear", 5), ("matmul", 11), ("ordered_matmul", 13),
                           ("gelu", 0), ("add", 0), ("batch_norm", 0), ("softmax", 0)]
