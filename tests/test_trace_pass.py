"""Costs derived from ``forward``: exact totals, an untouched model, forward's errors."""

import numpy as np
import pytest

from hirivit.analyzer import count_flops, count_params
from hirivit.errors import ResolutionError
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


@pytest.mark.parametrize("res,where", [
    (36, "model.stage1.block1: high-resolution block needs even"),
    (32, "model.stage4.block1.attn: adaptive pool cannot map 1x1 onto 0x0"),
])
def test_analysis_rejects_what_forward_rejects_and_names_the_module(res, where):
    with pytest.raises(ResolutionError, match=where):
        count_flops(Model(hiri_config("S", 448)), res)
