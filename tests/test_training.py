"""Mixing, distillation targets, EMA, optimizer, and the training loop."""

import io

import numpy as np
import pytest

from hirivit.engine import Tensor, backward, grad_check, no_grad, ops
from hirivit.errors import ConfigError
from hirivit.params import ParamTree
from hirivit.train import (AdamW, SyntheticQuadrants, TrainConfig,
                           TrainingDiverged, cosine_schedule, cutmix,
                           distill_target, ema_init, ema_update,
                           majority_downsample, mixup, soft_cross_entropy,
                           train_loop)
from hirivit.train import loop
from hirivit.zoo import build_model, hiri_micro_config


class _FixedBeta:
    """rng stub: fixed beta draw, deterministic integers/permutation."""

    def __init__(self, value, seed=0):
        self.value = value
        self.rng = np.random.default_rng(seed)

    def beta(self, *_):
        return self.value

    def integers(self, *a, **k):
        return self.rng.integers(*a, **k)


def _pair(seed=0, hw=8):
    rng = np.random.default_rng(seed)
    xa = rng.standard_normal((3, hw, hw))
    xb = rng.standard_normal((3, hw, hw))
    ya = np.array([1.0, 0.0])
    yb = np.array([0.0, 1.0])
    return xa, ya, xb, yb


class TestCutmix:
    def test_full_mask_keeps_first_sample(self):
        xa, ya, xb, yb = _pair()
        m = cutmix(xa, ya, xb, yb, _FixedBeta(1.0))
        if m.lam == 1.0:      # rectangle may clip; force the degenerate case
            np.testing.assert_array_equal(m.image, xa)
            np.testing.assert_array_equal(m.label, ya)
        assert m.lam == m.mask.mean()

    def test_zero_area_keeps_second_sample(self):
        xa, ya, xb, yb = _pair()
        m = cutmix(xa, ya, xb, yb, _FixedBeta(0.0))
        assert m.lam == 0.0
        np.testing.assert_array_equal(m.image, xb)
        np.testing.assert_array_equal(m.label, yb)

    def test_half_mask_mixes_labels_evenly(self):
        xa, ya, xb, yb = _pair()
        mask = np.zeros((8, 8))
        mask[:, :4] = 1.0
        lam = mask.mean()
        assert lam == 0.5
        image = mask * xa + (1 - mask) * xb
        label = lam * ya + (1 - lam) * yb
        np.testing.assert_array_equal(label, (ya + yb) / 2)
        np.testing.assert_array_equal(image[:, :, :4], xa[:, :, :4])
        np.testing.assert_array_equal(image[:, :, 4:], xb[:, :, 4:])

    @pytest.mark.parametrize("seed", range(20))
    def test_mask_is_binary_rectangle_and_lam_matches(self, seed):
        xa, ya, xb, yb = _pair(seed)
        m = cutmix(xa, ya, xb, yb, np.random.default_rng(seed))
        assert set(np.unique(m.mask)) <= {0.0, 1.0}
        assert m.lam == m.mask.sum() / m.mask.size
        assert 0.0 <= m.lam <= 1.0
        np.testing.assert_allclose(m.label.sum(), 1.0, atol=1e-15)
        rows = np.nonzero(m.mask.any(axis=1))[0]
        cols = np.nonzero(m.mask.any(axis=0))[0]
        if rows.size:      # the ones region is one solid rectangle
            rect = m.mask[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
            assert (rect == 1.0).all()
            assert m.mask.sum() == rect.size


class TestMixup:
    def test_lam_one_keeps_first(self):
        xa, ya, xb, yb = _pair()
        m = mixup(xa, ya, xb, yb, _FixedBeta(1.0))
        np.testing.assert_array_equal(m.image, xa)
        np.testing.assert_array_equal(m.label, ya)
        assert m.mask is None

    def test_symmetric_blend(self):
        xa, ya, xb, yb = _pair()
        m = mixup(xa, ya, xb, yb, _FixedBeta(0.5))
        np.testing.assert_allclose(m.image, (xa + xb) / 2, atol=1e-15)
        np.testing.assert_allclose(m.label, (ya + yb) / 2, atol=1e-15)

    def test_beta_moments_monte_carlo(self):
        rng = np.random.default_rng(123)
        draws = rng.beta(0.8, 0.8, size=100_000)
        mean, var = draws.mean(), draws.var()
        exp_mean = 0.5
        exp_var = 0.8 * 0.8 / ((1.6) ** 2 * 2.6)
        assert abs(mean - exp_mean) / exp_mean < 0.02
        assert abs(var - exp_var) / exp_var < 0.02


class _ConstantTeacher:
    """Maps an input batch to constant per-position logits.

    The logit vector for each sample is keyed by the sample's mean sign,
    letting tests feed two distinguishable inputs.
    """

    def __init__(self, logits_pos, logits_neg, grid=4):
        self.logits_pos = np.asarray(logits_pos, dtype=np.float64)
        self.logits_neg = np.asarray(logits_neg, dtype=np.float64)
        self.grid = grid
        self.training = False

    def train(self, mode=True):
        self.training = mode
        return self

    def eval(self):
        return self.train(False)

    def forward_dense_logits(self, x):
        n = x.shape[0]
        c = len(self.logits_pos)
        out = np.zeros((n, c, self.grid, self.grid))
        for i in range(n):
            vec = self.logits_pos if x.data[i].mean() >= 0 else self.logits_neg
            out[i] = vec[:, None, None]
        return Tensor(out)


def _softmax(v):
    e = np.exp(v - v.max())
    return e / e.sum()


class TestDistillTarget:
    def _inputs(self, hw=8):
        xa = np.full((1, 3, hw, hw), 1.0)
        xb = np.full((1, 3, hw, hw), -1.0)
        return xa, xb

    def test_alpha_one_returns_mixed_label_bitwise(self):
        teacher = _ConstantTeacher([2.0, -1.0, 0.5], [0.0, 0.0, 0.0])
        xa, xb = self._inputs()
        mask = np.zeros((8, 8))
        mask[:4] = 1.0
        y_mixed = np.array([[0.5, 0.25, 0.25]])
        out = distill_target(teacher, xa, xb, mask, y_mixed, alpha=1.0)
        assert (out.y_target == y_mixed).all()

    def test_uniform_teacher(self):
        teacher = _ConstantTeacher([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        xa, xb = self._inputs()
        mask = np.ones((8, 8))
        y_mixed = np.array([[1.0, 0.0, 0.0]])
        alpha = 0.3
        out = distill_target(teacher, xa, xb, mask, y_mixed, alpha=alpha)
        np.testing.assert_allclose(out.y_teacher, 1.0 / 3, atol=1e-12)
        np.testing.assert_allclose(
            out.y_target, alpha * y_mixed + (1 - alpha) / 3, atol=1e-12)

    def test_constant_maps_match_per_pixel_oracle(self):
        logits_a = np.array([1.5, -0.5, 0.25])
        logits_b = np.array([-1.0, 2.0, 0.0])
        teacher = _ConstantTeacher(logits_a, logits_b, grid=4)
        xa, xb = self._inputs(hw=8)
        rng = np.random.default_rng(5)
        mask = (rng.random((8, 8)) < 0.4).astype(float)
        y_mixed = np.array([[0.6, 0.4, 0.0]])
        alpha = 0.5
        out = distill_target(teacher, xa, xb, mask, y_mixed, alpha=alpha)

        # brute-force oracle: majority-vote each 2x2 cell by hand, mix the
        # constant probability vectors per teacher pixel, then average
        pa, pb = _softmax(logits_a), _softmax(logits_b)
        mixed = np.zeros((3, 4, 4))
        for i in range(4):
            for j in range(4):
                cell = mask[2 * i:2 * i + 2, 2 * j:2 * j + 2]
                vote = 1.0 if cell.mean() >= 0.5 else 0.0
                mixed[:, i, j] = vote * pa + (1 - vote) * pb
        y_hat = mixed.mean(axis=(1, 2))
        assert np.abs(out.y_teacher[0] - y_hat).max() < 1e-10
        lam_ds = majority_downsample(mask, (4, 4)).mean()
        np.testing.assert_allclose(out.y_teacher[0],
                                   lam_ds * pa + (1 - lam_ds) * pb, atol=1e-10)

    def test_target_is_convex_combination(self):
        teacher = _ConstantTeacher([1.0, 0.0], [0.0, 1.0])
        xa, xb = self._inputs()
        mask = np.zeros((8, 8))
        mask[:, :3] = 1.0
        y_mixed = np.array([[1.0, 0.0]])
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            out = distill_target(teacher, xa, xb, mask, y_mixed, alpha=alpha)
            lo = np.minimum(y_mixed, out.y_teacher)
            hi = np.maximum(y_mixed, out.y_teacher)
            assert (out.y_target >= lo - 1e-12).all()
            assert (out.y_target <= hi + 1e-12).all()
            np.testing.assert_allclose(out.y_target.sum(), 1.0, atol=1e-10)

    def test_probability_maps_are_distributions(self):
        teacher = _ConstantTeacher([0.3, -1.2, 2.0], [1.0, 1.0, -3.0])
        xa, xb = self._inputs()
        mask = np.ones((8, 8))
        out = distill_target(teacher, xa, xb, mask, np.array([[1.0, 0, 0]]), 0.5)
        for m in (out.prob_a, out.prob_b, out.prob_mixed):
            np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-10)

    def test_index_pairing_runs_the_teacher_once(self):
        cfg = hiri_micro_config(resolution=32)
        teacher, _ = build_model(cfg, seed=4)
        calls = []
        dense = teacher.forward_dense_logits

        def counting(x):
            calls.append(x.shape[0])
            return dense(x)

        teacher.forward_dense_logits = counting
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 3, 32, 32))
        perm = rng.permutation(8)
        mask = np.zeros((32, 32))
        mask[:, :12] = 1.0
        y_mixed = np.full((8, 2), 0.5)
        by_index = distill_target(teacher, x, perm, mask, y_mixed, alpha=0.5)
        assert calls == [8]
        by_images = distill_target(teacher, x, x[perm], mask, y_mixed, alpha=0.5)
        assert calls == [8, 8, 8]
        for field in ("prob_a", "prob_b", "prob_mixed", "y_teacher", "y_target"):
            np.testing.assert_allclose(getattr(by_index, field),
                                       getattr(by_images, field), atol=1e-12)

    def test_alpha_out_of_range(self):
        teacher = _ConstantTeacher([0.0], [0.0])
        xa, xb = self._inputs()
        with pytest.raises(ConfigError):
            distill_target(teacher, xa, xb, np.ones((8, 8)),
                           np.array([[1.0]]), alpha=1.5)


class TestMajorityDownsample:
    def test_exact_quadrants(self):
        mask = np.zeros((4, 4))
        mask[:2, :2] = 1.0
        out = majority_downsample(mask, (2, 2))
        np.testing.assert_array_equal(out, [[1.0, 0.0], [0.0, 0.0]])

    def test_tie_rounds_to_one(self):
        mask = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = majority_downsample(mask, (1, 1))
        assert out[0, 0] == 1.0


class TestSoftCrossEntropy:
    def test_confident_correct_logits_near_zero_loss(self):
        logits = Tensor(np.array([[30.0, 0.0, 0.0]]))
        loss = soft_cross_entropy(logits, np.array([[1.0, 0.0, 0.0]]))
        assert loss.item() < 1e-12

    def test_uniform_everything_gives_log_classes(self):
        n = 5
        logits = Tensor(np.zeros((2, n)))
        loss = soft_cross_entropy(logits, np.full((2, n), 1.0 / n))
        np.testing.assert_allclose(loss.item(), np.log(n), atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        target = rng.dirichlet(np.ones(4), size=3)

        report = grad_check(lambda: soft_cross_entropy(logits, target),
                            {"logits": logits}, h=1e-5, tol=1e-4)
        assert report.passed


class TestEma:
    def _trees(self):
        t1 = ParamTree()
        t2 = ParamTree()
        rng = np.random.default_rng(1)
        for name in ("a", "b.w", "b.running_mean"):
            t1.add(name, Tensor(rng.standard_normal(4)))
            t2.add(name, Tensor(rng.standard_normal(4)))
        return t1, t2

    def test_decay_zero_copies_student(self):
        teacher_src, student = self._trees()
        state = ema_init(teacher_src, decay=0.0)
        ema_update(state, student)
        assert state.tree.allclose(student)

    def test_decay_one_freezes_teacher(self):
        teacher_src, student = self._trees()
        state = ema_init(teacher_src, decay=1.0)
        before = {p: t.data.copy() for p, t in state.tree.items()}
        ema_update(state, student)
        for p, t in state.tree.items():
            assert (t.data == before[p]).all()

    def test_closed_form_geometric_law(self):
        teacher_src, student = self._trees()
        d = 0.9
        state = ema_init(teacher_src, decay=d)
        t0 = {p: t.data.copy() for p, t in state.tree.items()}
        k = 37
        for _ in range(k):
            ema_update(state, student)
        for p, t in state.tree.items():
            expected = d ** k * t0[p] + (1 - d ** k) * student[p].data
            assert np.abs(t.data - expected).max() < 1e-12
        assert state.step == k

    def test_running_stats_are_averaged_too(self):
        teacher_src, student = self._trees()
        state = ema_init(teacher_src, decay=0.5)
        ema_update(state, student)
        p = "b.running_mean"
        expected = 0.5 * teacher_src[p].data + 0.5 * student[p].data
        np.testing.assert_allclose(state.tree[p].data, expected, atol=1e-15)

    def test_non_isomorphic_rejected(self):
        teacher_src, student = self._trees()
        state = ema_init(teacher_src, decay=0.5)
        other = ParamTree()
        other.add("different", Tensor(np.zeros(4)))
        with pytest.raises(ConfigError):
            ema_update(state, other)

    def test_bad_decay(self):
        teacher_src, _ = self._trees()
        with pytest.raises(ConfigError):
            ema_init(teacher_src, decay=1.5)


class TestAdamW:
    def _single(self, value=2.0):
        tree = ParamTree()
        tree.add("w", Tensor(np.array([value]), requires_grad=True))
        return tree

    def test_zero_grad_zero_decay_is_noop(self):
        tree = self._single()
        opt = AdamW(tree, lr=0.1, weight_decay=0.0)
        opt.step()
        np.testing.assert_array_equal(tree["w"].data, [2.0])

    def test_decoupled_decay_shrinks_exactly(self):
        tree = self._single(2.0)
        opt = AdamW(tree, lr=0.1, weight_decay=0.05)
        opt.step()
        np.testing.assert_allclose(tree["w"].data, [2.0 * (1 - 0.1 * 0.05)],
                                   atol=1e-15)

    def test_scalar_quadratic_converges_monotonically(self):
        tree = self._single(3.0)
        opt = AdamW(tree, lr=0.05, weight_decay=0.0)
        w = tree["w"]
        vals = []
        for _ in range(300):
            w.grad = w.data.copy()         # d/dw of 0.5 w^2
            opt.step()
            vals.append(abs(float(w.data[0])))
        # monotone descent after warm-in while above the step-size floor,
        # then bounded oscillation around the minimum
        descent = [v for v in vals[5:] if v > 2 * opt.lr]
        assert all(b < a for a, b in zip(descent, descent[1:]))
        assert max(vals[-50:]) < 2 * opt.lr


class TestCosineSchedule:
    def test_endpoints(self):
        assert cosine_schedule(0, 100, 10, 1e-3) == 0.0
        assert cosine_schedule(10, 100, 10, 1e-3) == 1e-3
        assert cosine_schedule(100, 100, 10, 1e-3) <= 1e-8 * 1e-3

    def test_monotone_decay_after_warmup(self):
        lrs = [cosine_schedule(s, 50, 5, 1.0) for s in range(5, 51)]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            cosine_schedule(0, 10, 10, 1.0)


class TestTrainLoop:
    def _setup(self, seed=0):
        cfg = hiri_micro_config(resolution=32)
        model, tree = build_model(cfg, seed=seed)
        teacher, _ = build_model(cfg, seed=seed)
        data = SyntheticQuadrants(image_size=32, num_classes=2, seed=seed)
        return model, teacher, data

    def test_one_step_touches_every_parameter(self):
        # 128 inputs keep every attention stage above one token: a 64 build
        # has a single-token last stage whose q/k are structurally inert
        cfg = hiri_micro_config(resolution=128)
        model, _ = build_model(cfg, seed=1)
        teacher, _ = build_model(cfg, seed=1)
        data = SyntheticQuadrants(image_size=128, num_classes=2, seed=1)
        before = {p: t.data.copy() for p, t in model.param_tree().trainable_items()}
        tc = TrainConfig(steps=1, batch_size=4, mix="cutmix", mix_prob=1.0,
                         alpha=0.5, seed=1)
        _, tree, _ = train_loop(model, data, tc, teacher_model=teacher)
        for p, t in tree.trainable_items():
            assert t.grad is not None and np.abs(t.grad).max() > 0, p
            assert not np.array_equal(t.data, before[p]), p

    def test_metrics_stream_format(self):
        model, teacher, data = self._setup(2)
        stream = io.StringIO()
        tc = TrainConfig(steps=3, batch_size=4, seed=2)
        records, _, _ = train_loop(model, data, tc, teacher_model=teacher,
                                   metrics_stream=stream)
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 3
        step, loss, lr, acc = lines[0].split(",")
        assert int(step) == 1 and float(loss) > 0
        assert records[0].loss == pytest.approx(float(loss), abs=1e-6)

    def test_deterministic_given_seed(self):
        runs = []
        for _ in range(2):
            model, teacher, data = self._setup(3)
            tc = TrainConfig(steps=4, batch_size=4, seed=3)
            records, tree, ema = train_loop(model, data, tc, teacher_model=teacher)
            runs.append(([r.loss for r in records],
                         {p: t.data.copy() for p, t in tree.items()}))
        assert runs[0][0] == runs[1][0]
        for p in runs[0][1]:
            assert (runs[0][1][p] == runs[1][1][p]).all()

    def test_alpha_one_is_plain_mixing(self):
        results = []
        for with_teacher in (True, False):
            model, teacher, data = self._setup(4)
            tc = TrainConfig(steps=3, batch_size=4, alpha=1.0, seed=4,
                             mix_prob=1.0)
            _, tree, _ = train_loop(model, data, tc,
                                    teacher_model=teacher if with_teacher else None)
            results.append({p: t.data.copy() for p, t in tree.items()})
        for p in results[0]:
            assert (results[0][p] == results[1][p]).all()

    def test_non_finite_loss_aborts(self):
        model, teacher, data = self._setup(5)

        class PoisonData:
            def sample(self, n):
                imgs, labs = data.sample(n)
                imgs[0, 0, 0, 0] = np.nan
                return imgs, labs

            def one_hot(self, labels):
                return data.one_hot(labels)

        tc = TrainConfig(steps=2, batch_size=4, seed=5)
        with pytest.raises(TrainingDiverged):
            train_loop(model, PoisonData(), tc, teacher_model=teacher)

    def test_divergence_names_the_offending_batch(self):
        model, teacher, data = self._setup(5)
        calls = []

        class PoisonSecondBatch:
            def sample(self, n):
                imgs, labs = data.sample(n)
                calls.append(n)
                if len(calls) == 2:
                    imgs[0, 0, 0, 0] = np.nan
                return imgs, labs

            def one_hot(self, labels):
                return data.one_hot(labels)

        tc = TrainConfig(steps=3, batch_size=4, seed=5)
        with pytest.raises(TrainingDiverged) as exc:
            train_loop(model, PoisonSecondBatch(), tc, teacher_model=teacher)
        assert exc.value.step == 2 and exc.value.batch_index == 1
        assert "batch index 1, samples [4, 8)" in str(exc.value)

    def test_alpha_below_one_requires_teacher(self):
        model, _, data = self._setup(6)
        with pytest.raises(ConfigError):
            train_loop(model, data, TrainConfig(alpha=0.5), teacher_model=None)

    @pytest.mark.parametrize("mix_prob", [1.5, -0.1, float("nan")])
    def test_mix_prob_outside_unit_interval_is_refused(self, mix_prob):
        model, teacher, data = self._setup(6)
        with pytest.raises(ConfigError, match="mix_prob"):
            train_loop(model, data, TrainConfig(steps=1, mix_prob=mix_prob),
                       teacher_model=teacher)


# -- train_acc: the train-mode accuracy on the clean batch at the step's
#    starting weights, with no side effect on the BN running statistics ------

def _running_stats(tree):
    return {p: t.data.copy() for p, t in tree.items()
            if p.rsplit(".", 1)[-1] in ("running_mean", "running_var")}


def test_accuracy_pass_leaves_every_running_statistic_bitwise():
    cfg = hiri_micro_config(resolution=32)
    model, _ = build_model(cfg, seed=9)
    teacher, _ = build_model(cfg, seed=9)
    data = SyntheticQuadrants(image_size=32, num_classes=2, seed=9)
    tc = TrainConfig(steps=2, batch_size=4, mix_prob=1.0, seed=9)
    _, tree, ema = train_loop(model, data, tc, teacher_model=teacher)
    student, teacher_stats = _running_stats(tree), _running_stats(ema.tree)
    assert student and teacher_stats
    images, labels = data.sample(4)
    buffers = [t.data for _, t in tree.items() if not t.requires_grad]

    loop._accuracy(model, images, labels, buffers)
    for before, after in ((student, _running_stats(tree)),
                          (teacher_stats, _running_stats(ema.tree))):
        for p, value in before.items():
            assert np.array_equal(after[p], value), p
    # the same pass without the restore does move them
    with no_grad():
        model(Tensor(images))
    assert not all(np.array_equal(t, student[p])
                   for p, t in _running_stats(tree).items())


@pytest.mark.parametrize("mix", [dict(mix="none"), dict(mix_prob=1.0)],
                         ids=["unmixed", "mixed"])
def test_train_acc_is_the_clean_batch_accuracy_at_the_starting_weights(
        mix, monkeypatch):
    cfg = hiri_micro_config(resolution=32)

    def start():
        model, _ = build_model(cfg, seed=10)
        teacher, _ = build_model(cfg, seed=10)
        return model, teacher, SyntheticQuadrants(image_size=32, num_classes=2,
                                                  seed=10)

    model, _, data = start()
    images, labels = data.sample(8)
    with no_grad():
        expect = model(Tensor(images)).data        # a fresh model is in train mode
    seen = []
    hits = loop._hits
    monkeypatch.setattr(loop, "_hits",
                        lambda logits, y: seen.append(logits.copy()) or hits(logits, y))

    model, teacher, data = start()
    tc = TrainConfig(steps=1, batch_size=8, seed=10, **mix)
    records, _, _ = train_loop(model, data, tc, teacher_model=teacher)
    assert len(seen) == 1 and np.array_equal(seen[0], expect)
    assert records[0].train_acc == float((np.argmax(expect, axis=1) == labels).mean())


def test_one_student_forward_per_unmixed_step_two_per_mixed(monkeypatch):
    cfg = hiri_micro_config(resolution=32)
    model, _ = build_model(cfg, seed=11)
    teacher, _ = build_model(cfg, seed=11)
    data = SyntheticQuadrants(image_size=32, num_classes=2, seed=11)
    forwards, mixes = [], []
    forward = model.forward
    monkeypatch.setattr(model, "forward", lambda x: forwards.append(1) or forward(x))
    cut = loop.cutmix
    monkeypatch.setattr(loop, "cutmix", lambda *a: mixes.append(1) or cut(*a))

    tc = TrainConfig(steps=6, batch_size=4, seed=11)
    train_loop(model, data, tc, teacher_model=teacher)
    assert 0 < len(mixes) < 6
    assert len(forwards) == 6 + len(mixes)


def test_mixed_step_runs_its_accuracy_pass_before_the_taped_forward(monkeypatch):
    """The no-grad pass does not run on top of the step's tape."""
    cfg = hiri_micro_config(resolution=32)
    model, _ = build_model(cfg, seed=12)
    teacher, _ = build_model(cfg, seed=12)
    data = SyntheticQuadrants(image_size=32, num_classes=2, seed=12)
    events = []
    accuracy, forward = loop._accuracy, model.forward

    def spied_forward(x):
        out = forward(x)
        events.append("taped forward" if out.requires_grad else "no-grad forward")
        return out

    monkeypatch.setattr(loop, "_accuracy",
                        lambda *a: events.append("accuracy") or accuracy(*a))
    monkeypatch.setattr(model, "forward", spied_forward)
    train_loop(model, data, TrainConfig(steps=1, batch_size=4, mix_prob=1.0, seed=12),
               teacher_model=teacher)
    assert events == ["accuracy", "no-grad forward", "taped forward"]


class TestSyntheticData:
    def test_deterministic(self):
        a = SyntheticQuadrants(seed=1).sample(4)
        b = SyntheticQuadrants(seed=1).sample(4)
        assert (a[0] == b[0]).all() and (a[1] == b[1]).all()

    def test_classes_are_separable_features(self):
        data = SyntheticQuadrants(image_size=32, num_classes=2, seed=0, noise=0.1)
        imgs, labs = data.sample(64)
        # class 0 lights channel 0 top-left; class 1 lights channel 2 bottom-right
        c0 = imgs[labs == 0, 0, :16, :16].mean()
        c1 = imgs[labs == 1, 2, 16:, 16:].mean()
        assert c0 > 0.5 and c1 > 0.5


def test_metrics_header_matches_rows():
    from hirivit.train import METRICS_HEADER, StepRecord

    row = StepRecord(step=3, loss=0.5, lr=1e-3, train_acc=0.25).csv_row()
    assert METRICS_HEADER == "step,loss,lr,train_acc\n"
    assert row.endswith("\n")
    assert len(METRICS_HEADER.split(",")) == len(row.split(",")) == 4


def _ema_run(teacher_seed, alpha, with_teacher=True):
    cfg = hiri_micro_config(resolution=32)
    model, _ = build_model(cfg, seed=7)
    teacher, _ = build_model(cfg, seed=teacher_seed)
    data = SyntheticQuadrants(image_size=32, num_classes=2, seed=7)
    tc = TrainConfig(steps=4, batch_size=4, alpha=alpha, ema_decay=0.5,
                     mix_prob=1.0, seed=7)
    _, tree, ema = train_loop(model, data, tc,
                              teacher_model=teacher if with_teacher else None)
    return teacher, tree, ema


def test_teacher_model_holds_the_ema_weights():
    """After the loop every teacher parameter is the EMA weight, bitwise."""
    teacher, tree, ema = _ema_run(teacher_seed=8, alpha=0.5)
    teacher_tree = teacher.param_tree()
    assert teacher_tree.paths() == ema.tree.paths()
    for p, t in teacher_tree.items():
        assert np.array_equal(t.data, ema.tree[p].data), p
    # the EMA has moved off the student, so the comparison is not vacuous
    assert not all(np.array_equal(t.data, ema.tree[p].data) for p, t in tree.items())


def test_ema_starts_from_the_student_not_the_teacher_init():
    _, _, with_teacher = _ema_run(teacher_seed=8, alpha=1.0)
    _, _, without = _ema_run(teacher_seed=8, alpha=1.0, with_teacher=False)
    for p, t in without.tree.items():
        assert np.array_equal(t.data, with_teacher.tree[p].data), p
