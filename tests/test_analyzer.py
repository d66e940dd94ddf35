"""Cost analyzer: exact tallies, the loop-counting oracle, scaling claims."""

import numpy as np
import pytest

from hirivit.analyzer import (block_macs, count_flops, count_params,
                              mac_counting_oracle, scaling_csv, scaling_report,
                              scaling_table, verify_reference_costs)
from hirivit.blocks import (Attention, ClassifierHead, Conv2d, ConvFFNBlock,
                            DownsampleA, DownsampleB, HighResBlock, HighResStem,
                            Module, TransformerBlock)
from hirivit.engine import Tensor, loop_conv2d, loop_matmul, no_grad, ops, reference
from hirivit.errors import ShapeError
from hirivit.zoo import Model, build_model, hiri_config, hiri_micro_config


def _spy_products(monkeypatch) -> list:
    """The shapes of the operands of every product the counting loops run."""
    calls = []

    def spy(a, b, counter=None):
        calls.append((a.shape, b.shape))
        return loop_matmul(a, b, counter)

    monkeypatch.setattr(reference, "loop_matmul", spy)
    return calls


class _ConvThenMismatch(Module):
    """A conv whose output a second conv refuses: channels 4 against 3."""

    def __init__(self):
        super().__init__()
        self.first, self.second = Conv2d(5, 4, 3), Conv2d(3, 4, 3)

    def forward(self, x):
        return self.second(self.first(x))


class TestParamCounting:
    def test_conv_param_arithmetic(self):
        conv = Conv2d(32, 64, 3)
        assert conv.param_tree().total_params() == 32 * 64 * 9 + 64   # 18,496

    def test_count_params_matches_tree(self):
        model, tree = build_model(hiri_micro_config(), seed=0)
        report = count_params(model)
        assert report.params == tree.total_params()

    def test_grouped_records_sum_to_total(self):
        model = Model(hiri_micro_config())
        report = count_params(model)
        grouped = report.grouped(depth=2)
        assert sum(r.params for r in grouped) == report.params
        assert sum(r.macs for r in grouped) == report.macs

    def test_param_count_independent_of_resolution(self):
        model = Model(hiri_config("S", 448))
        a = count_flops(model, 448)
        b = count_flops(model, 224)
        assert a.params == b.params


class TestFlopCounting:
    def test_single_conv_vs_counting_oracle(self):
        conv = Conv2d(3, 16, 3, stride=1)
        shape = (1, 3, 16, 16)
        static = block_macs(conv, shape)
        counted = mac_counting_oracle(conv, shape)
        assert static == counted == 16 * 16 * 16 * 3 * 9

    ORACLE_BLOCKS = {
        "conv_strided": (lambda r: Conv2d(int(r.choice([2, 3])), 4, 3, stride=2),
                         lambda c: (1, c.cin, 8, 8)),
        "conv_grouped": (lambda r: Conv2d(4, 4, 3, groups=int(r.choice([2, 4]))),
                         lambda c: (1, 4, 6, 6)),
        "hr_stem": (lambda r: HighResStem(3, 2 * int(r.choice([2, 4]))),
                    lambda c: (1, 3, 8, 8)),
        "hr_block": (lambda r: HighResBlock(int(r.choice([4, 8])), 2),
                     lambda c: (1, c.hi_dw.cin, 4, 4)),
        "irds_a": (lambda r: DownsampleA(4, int(r.choice([4, 6]))),
                   lambda c: (1, 4, 4, 4)),
        "irds_b": (lambda r: DownsampleB(int(r.choice([2, 4])), 4),
                   lambda c: (1, c.expand.cin, 4, 4)),
        "cffn": (lambda r: ConvFFNBlock(int(r.choice([4, 6])), int(r.integers(1, 4))),
                 lambda c: (1, c.fc1.cin, 4, 4)),
        "mha": (lambda r: Attention(8, int(r.choice([1, 2, 4])), 1),
                lambda c: (1, 8, 2, 2)),
        "mha_pooled": (lambda r: Attention(8, 2, 2, kv_reduce="pool"),
                       lambda c: (1, 8, 4, 4)),
        "mha_conv": (lambda r: Attention(8, 2, 2, kv_reduce="conv"),
                     lambda c: (1, 8, 4, 4)),
        "transformer": (lambda r: TransformerBlock(8, int(r.integers(1, 3)), 2, 1),
                        lambda c: (1, 8, 2, 2)),
        "classifier": (lambda r: ClassifierHead(4, 3, hidden=int(r.choice([4, 8]))),
                       lambda c: (1, 4, 3, 3)),
    }

    @pytest.mark.parametrize("name", sorted(ORACLE_BLOCKS))
    def test_static_count_equals_loop_oracle(self, name):
        # >= 10 random configs per block type, exact equality demanded
        make, shape_of = self.ORACLE_BLOCKS[name]
        for seed in range(10):
            rng = np.random.default_rng(seed)
            block = make(rng)
            shape = shape_of(block)
            static = block_macs(block, shape)
            counted = mac_counting_oracle(block, shape, seed=seed)
            assert static == counted, (name, seed, static, counted)

    def test_whole_micro_model_matches_oracle(self):
        model, _ = build_model(hiri_micro_config(), seed=0)
        static = count_flops(model, 64, batch=1).macs
        counted = mac_counting_oracle(model, (1, 3, 64, 64))
        assert static == counted

    @pytest.mark.parametrize("make, shape, blocks", [
        (lambda: Conv2d(4, 8, 3), (1, 4, 16, 16), 16),
        (lambda: Conv2d(4, 8, 3, stride=2), (2, 4, 16, 16), 4),
        (lambda: Conv2d(8, 8, 3, groups=8), (1, 8, 16, 16), 128),
    ], ids=["dense", "strided", "depthwise"])
    def test_oracle_counts_the_conv_kernels_blocks(self, make, shape, blocks, monkeypatch):
        """The counting backend replaces only the product, so the oracle runs
        the conv's own blocks of groups and output rows, one counted product
        each, zero-padded on its own, and still counts every tap of the
        padded conv."""
        monkeypatch.setattr(ops, "CONV_BLOCK_BYTES", 1)
        monkeypatch.setattr(ops, "CONV_PATCH_CAP", 1)
        products = _spy_products(monkeypatch)
        conv = make()
        cout, cing, kh, kw = conv.weight.shape
        stride, padding = ops._conv_settings(conv.stride, conv.padding, conv.groups)
        win = ops._windows(np.zeros(shape), kh, kw, stride, padding, conv.groups)
        assert len(list(ops._blocks(win, cout // conv.groups))) == blocks > 1
        oh, ow = win.shape[-2:]
        analytic = shape[0] * cout * oh * ow * cing * kh * kw
        assert mac_counting_oracle(conv, shape) == block_macs(conv, shape) == analytic
        assert len(products) == blocks

    @pytest.mark.parametrize("make, products", [(lambda: Conv2d(3, 4, 3), 0),
                                                (_ConvThenMismatch, 1)],
                             ids=["first_op", "after_a_product"])
    def test_oracle_restores_the_product_after_an_error(self, make, products, monkeypatch):
        """A block that raises inside the oracle, before its first product or
        after one, leaves NumPy's product in place: a later conv runs at full
        speed, not in the counting loops."""
        calls = _spy_products(monkeypatch)
        with pytest.raises(ShapeError):
            mac_counting_oracle(make(), (1, 5, 8, 8))
        assert len(calls) == products
        assert ops._backend is np
        rng = np.random.default_rng(0)
        x, w = rng.standard_normal((1, 3, 8, 8)), rng.standard_normal((4, 3, 3, 3))
        with no_grad():
            y = ops.conv2d(Tensor(x), Tensor(w), padding=1).data
        assert len(calls) == products
        assert np.abs(y - loop_conv2d(x, w, None, (1, 1), (1, 1), 1)).max() < 1e-12

    def test_attention_flops_quadratic_in_tokens(self):
        # QK^T + AV terms: fit log flops vs log n over n in {16, 64, 256}
        d = 16
        flops = []
        ns = [16, 64, 256]
        for n in ns:
            side = int(np.sqrt(n))
            attn = Attention(d, 2, 1)
            qk_av = sum(r[2] for r in attn.trace((1, d, side, side), "attn").records
                        if r[0].endswith((".qk", ".av")))
            flops.append(qk_av)
        slope = np.polyfit(np.log(ns), np.log(flops), 1)[0]
        assert abs(slope - 2.0) <= 0.05

    def test_elementwise_share_is_small(self):
        model = Model(hiri_config("S", 448))
        rep = count_flops(model, 448)
        assert rep.elementwise < 0.05 * rep.macs


class TestScalingReport:
    def test_single_resolution_ratio_one(self):
        rows = scaling_report(["S"], [224])
        assert len(rows) == 1
        assert rows[0].ratio_to_first == 1.0

    def test_five_stage_ratio_bound(self):
        rows = scaling_report(["S"], [224, 448])
        assert rows[1].ratio_to_first <= 1.3

    def test_csv_and_table_forms(self):
        rows = scaling_report(["S"], [224, 448])
        csv = scaling_csv(rows)
        assert csv.splitlines()[0] == "variant,resolution,params,gflops,ratio"
        assert len(csv.splitlines()) == 3
        table = scaling_table(rows)
        assert "variant" in table and "S" in table


class TestReferenceVerification:
    def test_all_reference_checks_pass(self):
        checks = verify_reference_costs()
        failed = [c for c in checks if not c.passed]
        assert not failed, [f"{c.label}: {c.actual} vs {c.expected}" for c in failed]

    def test_report_csv_roundtrip(self):
        model = Model(hiri_micro_config())
        rep = count_flops(model, 64)
        lines = rep.to_csv(depth=1).splitlines()
        assert lines[0] == "path,params,flops,activations"
        total = lines[-1].split(",")
        assert total[0] == "total" and int(total[1]) == rep.params
