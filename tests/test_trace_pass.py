"""Costs derived from ``forward``: exact totals, an untouched model, forward's errors."""

import tracemalloc

import numpy as np
import pytest

from hirivit.analyzer import count_flops, count_params, mac_counting_oracle
from hirivit.engine import Tensor, no_grad, observe, tensor
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


def test_analysis_memory_does_not_grow_with_the_input():
    model = Model(hiri_config("S", 448))
    tracemalloc.start()
    try:
        count_flops(model, 1792)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


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


class _Spy:
    """An engine observer that counts its events and changes nothing."""

    def __init__(self):
        self.calls = self.results = 0

    def call(self, module, x):
        self.calls += 1
        return module.forward(x)

    def on_result(self, out):
        self.results += 1


def test_analysis_restores_the_engine_observer():
    model = Model(hiri_config("S", 448))
    spy = _Spy()
    with observe(spy):
        assert model.out_shape((1, 3, 448, 448)) == (1, 1000)
        assert tensor._observer is spy
        with pytest.raises(ResolutionError):
            count_flops(model, 32)
        assert tensor._observer is spy
    assert (spy.calls, spy.results) == (0, 0)     # the analysis observed itself
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
    assert spy.calls >= len(list(model.named_modules())) and spy.results > spy.calls
