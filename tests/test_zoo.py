"""Model builders: Table-style structure, determinism, forward purity."""

import numpy as np
import pytest

from hirivit.config import ModelConfig, StageSpec
from hirivit.engine import Tensor, no_grad
from hirivit.errors import ConfigError
from hirivit.zoo import (HIRI_VARIANTS, Model, build_hiri_vit, build_model,
                         build_mvit_baseline, hiri_config, hiri_micro_config,
                         mvit_config)


class TestVariantTables:
    def test_s_stage_widths(self):
        widths = [row[2] for row in HIRI_VARIANTS["S"]]
        assert widths == [32, 64, 128, 320, 512]

    def test_l_stage4(self):
        kind, depth, channels, expansion, heads = HIRI_VARIANTS["L"][3]
        assert (kind, depth, channels, expansion, heads) == \
            ("transformer", 25, 448, 3, 7)

    def test_b_depths(self):
        assert [row[1] for row in HIRI_VARIANTS["B"]] == [2, 2, 3, 17, 4]

    @pytest.mark.parametrize("variant,target", [("S", 34.8e6), ("B", 54.4e6),
                                                ("L", 94.4e6)])
    def test_param_totals_within_3_percent(self, variant, target):
        model = Model(hiri_config(variant))
        total = model.param_tree().total_params()
        assert abs(total - target) <= 0.03 * target

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            hiri_config("XL")

    def test_bad_resolution_rejected_before_allocation(self):
        with pytest.raises(ConfigError):
            hiri_config("S", resolution=200)


class TestBuildDeterminism:
    def test_same_seed_bit_identical(self):
        _, t1 = build_model(hiri_micro_config(), seed=5)
        _, t2 = build_model(hiri_micro_config(), seed=5)
        assert t1.paths() == t2.paths()
        assert t1.allclose(t2)

    def test_different_seed_differs(self):
        _, t1 = build_model(hiri_micro_config(), seed=5)
        _, t2 = build_model(hiri_micro_config(), seed=6)
        assert not t1.allclose(t2)

    def test_modules_give_every_non_weight_entry_its_starting_value(self):
        """Without ``init_tree``, norm scales and running variances are 1 and
        every other entry but the weights is 0."""
        leaves = set()
        for path, t in Model(hiri_micro_config()).param_tree().items():
            leaf = path.rsplit(".", 1)[-1]
            leaves.add(leaf)
            if leaf != "weight":
                expected = 1.0 if leaf in ("gamma", "running_var") else 0.0
                assert (t.data == expected).all(), path
        assert leaves == {"weight", "bias", "gamma", "beta",
                          "running_mean", "running_var"}

    def test_truncated_normal_init_statistics(self):
        model, tree = build_model(hiri_micro_config(), seed=0)
        w = tree["stage4.block1.attn.q.weight"].data
        assert np.abs(w).max() <= 2 * 0.02 + 1e-12
        assert 0.005 < w.std() < 0.03
        assert np.array_equal(tree["stage1.block1.pre_norm.gamma"].data,
                              np.ones_like(tree["stage1.block1.pre_norm.gamma"].data))


class TestForward:
    def test_stage_resolutions_at_448(self):
        model = Model(hiri_config("S", 448))
        shapes = model.stage_boundary_shapes((1, 3, 448, 448))
        assert [s[2] for s in shapes] == [112, 56, 28, 14, 7]

    def test_micro_logits_finite(self):
        model, _ = build_model(hiri_micro_config(), seed=2)
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 64, 64)))
        out = model(x)
        assert out.shape == (2, 2)
        assert np.isfinite(out.data).all()

    def test_eval_forward_is_pure(self):
        model, _ = build_model(hiri_micro_config(), seed=3)
        model.eval()
        x = Tensor(np.random.default_rng(1).standard_normal((1, 3, 64, 64)))
        with no_grad():
            a = model(x).data.copy()
            b = model(x).data.copy()
        assert (a == b).all()

    def test_batch_independence_in_eval(self):
        model, _ = build_model(hiri_micro_config(), seed=4)
        model.eval()
        rng = np.random.default_rng(2)
        xa = rng.standard_normal((1, 3, 64, 64))
        xb = rng.standard_normal((1, 3, 64, 64))
        with no_grad():
            ya = model(Tensor(xa)).data
            yb = model(Tensor(xb)).data
            yab = model(Tensor(np.concatenate([xa, xb]))).data
        assert np.abs(yab - np.concatenate([ya, yb])).max() < 1e-10


class TestAnchoredBuilds:
    def test_grids_follow_divisors_at_reference(self):
        cfg = hiri_config("S", 448)
        assert cfg.stage_grids() == [112, 56, 28, 14, 7]

    def test_low_resolution_builds_keep_reference_grids(self):
        assert hiri_config("S", 224).stage_grids() == [56, 28, 28, 14, 7]
        assert hiri_config("S", 384).stage_grids() == [96, 48, 28, 14, 7]

    def test_high_resolution_builds_scale(self):
        assert hiri_config("S", 768).stage_grids() == [192, 96, 48, 24, 12]

    def test_forward_shapes_match_anchored_grids(self):
        cfg = hiri_config("S", 224, num_classes=10)
        model = Model(cfg)
        shapes = model.stage_boundary_shapes((1, 3, 224, 224))
        assert [s[2] for s in shapes] == [56, 28, 28, 14, 7]

    def test_params_resolution_invariant(self):
        reports = {}
        for res in (224, 384, 448):
            model = Model(hiri_config("S", res))
            tree = model.param_tree()
            reports[res] = {p: t.shape for p, t in tree.items()}
        assert reports[224] == reports[384] == reports[448]


class TestMvitLadder:
    def test_row1_and_row6_param_totals(self):
        for row, target in ((1, 35.0e6), (6, 34.5e6)):
            model = Model(mvit_config(row))
            total = model.param_tree().total_params()
            assert abs(total - target) <= 0.03 * target, (row, total)

    def test_every_row_builds_and_runs(self):
        x = Tensor(np.random.default_rng(3).standard_normal((1, 3, 32, 32)))
        for row in range(1, 7):
            cfg = mvit_config(row, resolution=32, num_classes=4)
            # shrink to a depth-1 micro ladder for the smoke run
            for s in cfg.stages:
                s.depth = 1
                s.channels = max(8, s.channels // 16)
                if s.heads is not None:
                    s.heads = 2
            model, _ = build_model(cfg, seed=row)
            out = model(x)
            assert out.shape == (1, 4)
            assert np.isfinite(out.data).all()

    def test_row_structure_deltas(self):
        r1 = mvit_config(1)
        assert r1.stem == "vit" and all(s.kind == "transformer" for s in r1.stages)
        assert all(not s.use_cffn for s in r1.stages)
        r3 = mvit_config(3)
        assert [s.kind for s in r3.stages] == ["cffn", "cffn", "transformer",
                                               "transformer"]
        r4 = mvit_config(4)
        assert r4.stages[0].norm == "bn" and r4.stages[2].norm == "bn"
        assert r4.stages[2].attn_norm == "ln"
        r6 = mvit_config(6)
        assert r6.stem == "conv"
        assert r6.downsamplers == ["irds_a", "irds_a", "irds_b"]

    def test_invalid_row(self):
        with pytest.raises(ConfigError):
            build_mvit_baseline(7)


class TestConfigValidation:
    def test_heads_required_for_transformer(self):
        spec = StageSpec(kind="transformer", depth=1, channels=8, expansion=2)
        with pytest.raises(ConfigError):
            spec.validate(1)

    def test_heads_forbidden_elsewhere(self):
        spec = StageSpec(kind="hr", depth=1, channels=8, expansion=2, heads=2)
        with pytest.raises(ConfigError):
            spec.validate(1)

    def test_downsampler_count(self):
        cfg = hiri_config("S")
        cfg.downsamplers = cfg.downsamplers[:-1]
        with pytest.raises(ConfigError):
            cfg.validate()


def test_build_hiri_vit_returns_model_and_tree():
    model, tree = build_hiri_vit("S", 448, num_classes=10, seed=1)
    assert tree.total_params() == model.param_tree().total_params()
    assert "head.fc.weight" in tree


def test_full_s_variant_forward_runs():
    model, _ = build_hiri_vit("S", 448, seed=0)
    model.eval()
    x = Tensor(np.random.default_rng(0).standard_normal((1, 3, 448, 448)))
    with no_grad():
        out = model(x)
    assert out.shape == (1, 1000)
    assert np.isfinite(out.data).all()


def test_anchored_s_build_forward_runs_at_224():
    # the 224 deployment build keeps stage 3 at its reference grid through a
    # stride-1 downsampler; run real data through it end to end
    model, _ = build_hiri_vit("S", 224, seed=0)
    model.eval()
    x = Tensor(np.random.default_rng(1).standard_normal((1, 3, 224, 224)))
    with no_grad():
        feats = model.forward_features(x)
        out = model.head(feats)
    assert feats.shape == (1, 512, 7, 7)
    assert out.shape == (1, 1000)
    assert np.isfinite(out.data).all()
