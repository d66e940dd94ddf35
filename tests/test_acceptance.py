"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import time

import numpy as np
import pytest

from hirivit.analyzer import (REFERENCE_GFLOPS, REFERENCE_MVIT_PARAMS,
                              REFERENCE_PARAMS, block_macs, count_flops,
                              mac_counting_oracle)
from hirivit.blocks import (Attention, ClassifierHead, Conv2d, ConvFFNBlock,
                            DownsampleA, DownsampleB, HighResBlock,
                            HighResStem, TransformerBlock)
from hirivit.config import parse_config, serialize_config
from hirivit.engine import Tensor, grad_check, ops
from hirivit.params import (ParamTree, init_tree, load_checkpoint,
                            save_checkpoint)
from hirivit.train import (SyntheticQuadrants, TrainConfig, distill_target,
                           ema_init, ema_update, soft_cross_entropy,
                           train_loop)
from hirivit.zoo import (Model, build_hiri_vit, build_model, hiri_config,
                         hiri_micro_config, mvit_config)


def report(criterion: str, passed: bool, detail: str = ""):
    line = f"{'PASS' if passed else 'FAIL'}  {criterion}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# 1. parameter counts, +-3%, under one minute
# ---------------------------------------------------------------------------

def test_criterion_1_parameter_counts():
    t0 = time.perf_counter()
    details = []
    ok = True
    for variant, target in REFERENCE_PARAMS.items():
        _, tree = build_hiri_vit(variant, 448, seed=0)
        total = tree.total_params()
        rel = (total - target) / target
        ok &= abs(rel) <= 0.03
        details.append(f"{variant}: {total / 1e6:.2f}M ({rel:+.1%})")
        del tree
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60
    report("criterion 1: S/B/L parameter totals within +-3%",
           ok, "; ".join(details) + f"; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. FLOP counts at 224/384/448, +-10%, under one minute
# ---------------------------------------------------------------------------

def test_criterion_2_flop_counts():
    t0 = time.perf_counter()
    details = []
    ok = True
    for (variant, res), target in sorted(REFERENCE_GFLOPS.items()):
        model = Model(hiri_config(variant, res))
        g = count_flops(model, res).gflops
        rel = (g - target) / target
        ok &= abs(rel) <= 0.10
        details.append(f"{variant}@{res}: {g:.2f}G ({rel:+.1%})")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60
    report("criterion 2: nine reference GFLOP figures within +-10%",
           ok, "; ".join(details) + f"; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. scaling claim: flat five-stage growth, quadratic four-stage growth
# ---------------------------------------------------------------------------

def test_criterion_3_scaling_claim():
    s224 = count_flops(Model(hiri_config("S", 224)), 224).gflops
    s448 = count_flops(Model(hiri_config("S", 448)), 448).gflops
    hiri_ratio = s448 / s224
    m224 = count_flops(Model(mvit_config(6, 224)), 224).gflops
    m448 = count_flops(Model(mvit_config(6, 448)), 448).gflops
    mvit_ratio = m448 / m224
    ok = hiri_ratio <= 1.3 and mvit_ratio >= 4.0
    report("criterion 3: cost ratio 448/224 <= 1.3 (five-stage),"
           " >= 4.0 (four-stage)", ok,
           f"five-stage {hiri_ratio:.3f}; four-stage {mvit_ratio:.3f}")


# ---------------------------------------------------------------------------
# 4. ablation-ladder parameter totals
# ---------------------------------------------------------------------------

def test_criterion_4_ladder_params():
    details = []
    ok = True
    for row, target in REFERENCE_MVIT_PARAMS.items():
        total = Model(mvit_config(row)).param_tree().total_params()
        rel = (total - target) / target
        ok &= abs(rel) <= 0.03
        details.append(f"row {row}: {total / 1e6:.2f}M ({rel:+.1%})")
    report("criterion 4: ladder rows 1 and 6 params within +-3%",
           ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 5. static FLOP counter equals the loop-instrumented oracle exactly
# ---------------------------------------------------------------------------

ORACLE_CASES = {
    "conv": (lambda r: Conv2d(int(r.choice([2, 3])), int(r.choice([2, 4])), 3,
                              stride=int(r.choice([1, 2]))),
             lambda b: (1, b.cin, 8, 8)),
    "hr_stem": (lambda r: HighResStem(3, 2 * int(r.choice([2, 4]))),
                lambda b: (1, 3, 8, 8)),
    "hr_block": (lambda r: HighResBlock(int(r.choice([4, 8])),
                                        int(r.integers(1, 4))),
                 lambda b: (1, b.hi_dw.cin, 4, 4)),
    "irds_a": (lambda r: DownsampleA(int(r.choice([2, 4])), int(r.choice([4, 6]))),
               lambda b: (1, b.reduce.cin, 4, 4)),
    "irds_b": (lambda r: DownsampleB(int(r.choice([2, 4])), int(r.choice([4, 6]))),
               lambda b: (1, b.expand.cin, 4, 4)),
    "cffn": (lambda r: ConvFFNBlock(int(r.choice([4, 6])), int(r.integers(1, 4))),
             lambda b: (1, b.fc1.cin, 4, 4)),
    "mha": (lambda r: Attention(8, int(r.choice([1, 2, 4])),
                                int(r.choice([1, 2])), kv_reduce="pool"),
            lambda b: (1, 8, 4, 4)),
    "transformer": (lambda r: TransformerBlock(8, int(r.integers(1, 3)), 2,
                                               int(r.choice([1, 2]))),
                    lambda b: (1, 8, 4, 4)),
    "classifier": (lambda r: ClassifierHead(4, 3, hidden=int(r.choice([4, 8]))),
                   lambda b: (1, 4, 3, 3)),
}


def test_criterion_5_flop_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for name, (make, shape_of) in sorted(ORACLE_CASES.items()):
        for seed in range(10):
            rng = np.random.default_rng(seed * 31 + 7)
            block = make(rng)
            shape = shape_of(block)
            static = block_macs(block, shape)
            counted = mac_counting_oracle(block, shape, seed=seed)
            assert static == counted, (name, seed, static, counted)
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 300
    report("criterion 5: static counter == instrumented oracle, exact",
           ok, f"{checked} block configs; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. finite-difference gradient suite over every block
# ---------------------------------------------------------------------------

GRAD_CASES = {
    "hr_stem": (lambda: HighResStem(3, 8), (1, 3, 16, 16)),
    "hr_block": (lambda: HighResBlock(8, 2), (1, 8, 4, 4)),
    "irds_a": (lambda: DownsampleA(4, 6), (1, 4, 4, 4)),
    "irds_b": (lambda: DownsampleB(4, 6), (1, 4, 4, 4)),
    "cffn": (lambda: ConvFFNBlock(6, 2), (1, 6, 4, 4)),
    "mha": (lambda: Attention(8, 2, 1), (1, 8, 2, 2)),
    "transformer": (lambda: TransformerBlock(8, 2, 2, 1), (1, 8, 2, 2)),
    "classifier": (lambda: ClassifierHead(6, 3, hidden=5), (1, 6, 3, 3)),
}


def test_criterion_6_gradient_suite():
    t0 = time.perf_counter()
    details = []
    worst = 0.0
    for name, (make, shape) in sorted(GRAD_CASES.items()):
        block = make()
        tree = ParamTree()
        for path, tensor, trainable in block.named_entries():
            tree.add(path, tensor)
        init_tree(tree, 42)
        rng = np.random.default_rng(43)
        for path, tn in tree.items():
            leaf = path.rsplit(".", 1)[-1]
            if leaf == "gamma":
                tn.data += rng.standard_normal(tn.shape) * 0.05
            elif leaf in ("beta", "bias"):
                tn.data[...] = rng.standard_normal(tn.shape) * 0.05
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        weight = Tensor(rng.standard_normal(block.out_shape(shape)))
        tensors = {"input": x}
        tensors.update({p: tn for p, tn in tree.trainable_items()})
        rep = grad_check(lambda: ops.tsum(ops.mul(block(x), weight)),
                         tensors, h=1e-5, tol=1e-4)
        details.append(f"{name}: {rep.max_rel_err:.1e}")
        worst = max(worst, rep.max_rel_err)
        assert rep.passed, f"{name} failed at {rep.max_rel_err:.2e} ({rep.worst})"

    # soft cross-entropy closes the list
    rng = np.random.default_rng(44)
    logits = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
    target = rng.dirichlet(np.ones(5), size=3)
    rep = grad_check(lambda: soft_cross_entropy(logits, target),
                     {"logits": logits}, h=1e-5, tol=1e-4)
    details.append(f"soft_ce: {rep.max_rel_err:.1e}")
    worst = max(worst, rep.max_rel_err)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and worst < 1e-4 and elapsed < 600
    report("criterion 6: all blocks pass finite-difference checks at 1e-4",
           ok, "; ".join(details) + f"; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. stage-boundary shapes across input sizes
# ---------------------------------------------------------------------------

def test_criterion_7_shape_suite():
    model = Model(hiri_config("S", 448))      # the reference divisor build
    divisors = (4, 8, 16, 32, 64)
    details = []
    ok = True
    for res in (224, 384, 448, 768):
        shapes = model.stage_boundary_shapes((1, 3, res, res))
        grids = [s[2] for s in shapes]
        expected = [-(-res // d) for d in divisors]   # exact where divisible
        ok &= grids == expected
        details.append(f"{res}: {'/'.join(map(str, grids))}")
    report("criterion 7: stage grids follow the /4../64 divisor ladder",
           ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 8. EMA-distillation algebra
# ---------------------------------------------------------------------------

class _TwoSidedTeacher:
    """Constant per-position maps keyed on the input's mean sign."""

    def __init__(self, logits_pos, logits_neg, grid=4):
        self.lp = np.asarray(logits_pos, dtype=np.float64)
        self.ln = np.asarray(logits_neg, dtype=np.float64)
        self.grid = grid
        self.training = False

    def train(self, mode=True):
        self.training = mode
        return self

    def eval(self):
        return self.train(False)

    def forward_dense_logits(self, x):
        n, c = x.shape[0], len(self.lp)
        out = np.zeros((n, c, self.grid, self.grid))
        for i in range(n):
            vec = self.lp if x.data[i].mean() >= 0 else self.ln
            out[i] = vec[:, None, None]
        return Tensor(out)


def _softmax_np(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def test_criterion_8_distillation_algebra():
    rng = np.random.default_rng(0)
    checks = []

    # (a) alpha = 1 reproduces the mixed label bit-exactly
    teacher = _TwoSidedTeacher([1.0, -2.0, 0.3], [0.5, 0.5, -1.0])
    xa = np.full((1, 3, 8, 8), 1.0)
    xb = np.full((1, 3, 8, 8), -1.0)
    mask = (rng.random((8, 8)) < 0.5).astype(float)
    y_mixed = np.array([[0.25, 0.75, 0.0]])
    out = distill_target(teacher, xa, xb, mask, y_mixed, alpha=1.0)
    checks.append(("alpha=1 bit-exact", (out.y_target == y_mixed).all()))

    # (b) EMA closed-form d^k law to 1e-12
    t_a = ParamTree()
    t_b = ParamTree()
    for name in ("w", "bn.running_mean"):
        t_a.add(name, Tensor(rng.standard_normal(8)))
        t_b.add(name, Tensor(rng.standard_normal(8)))
    d, k = 0.97, 53
    state = ema_init(t_a, decay=d)
    start = {p: t.data.copy() for p, t in state.tree.items()}
    for _ in range(k):
        ema_update(state, t_b)
    ema_ok = all(
        np.abs(state.tree[p].data
               - (d ** k * start[p] + (1 - d ** k) * t_b[p].data)).max() < 1e-12
        for p in start)
    checks.append(("EMA d^k law to 1e-12", ema_ok))

    # (c) targets stay valid distributions for one-hot inputs
    dist_ok = True
    for trial in range(20):
        trng = np.random.default_rng(trial)
        mask = (trng.random((8, 8)) < trng.random()).astype(float)
        lam = mask.mean()
        ya = np.zeros(3)
        ya[trng.integers(0, 3)] = 1.0
        yb = np.zeros(3)
        yb[trng.integers(0, 3)] = 1.0
        y_mixed = (lam * ya + (1 - lam) * yb)[None]
        alpha = float(trng.random())
        out = distill_target(teacher, xa, xb, mask, y_mixed, alpha=alpha)
        dist_ok &= abs(out.y_target.sum() - 1.0) < 1e-10
        dist_ok &= (out.y_target >= -1e-12).all()
    checks.append(("y_bar valid distribution", dist_ok))

    # (d) constant teacher maps match the per-pixel mixing oracle to 1e-10
    la, lb = np.array([1.5, -0.5, 0.25]), np.array([-1.0, 2.0, 0.0])
    teacher = _TwoSidedTeacher(la, lb, grid=4)
    mask = (rng.random((8, 8)) < 0.4).astype(float)
    out = distill_target(teacher, xa, xb, mask, np.array([[1.0, 0, 0]]), 0.5)
    pa, pb = _softmax_np(la), _softmax_np(lb)
    acc = np.zeros(3)
    for i in range(4):
        for j in range(4):
            cell = mask[2 * i:2 * i + 2, 2 * j:2 * j + 2]
            vote = 1.0 if cell.mean() >= 0.5 else 0.0
            acc += vote * pa + (1 - vote) * pb
    oracle = acc / 16
    checks.append(("constant-map oracle to 1e-10",
                   np.abs(out.y_teacher[0] - oracle).max() < 1e-10))

    ok = all(c[1] for c in checks)
    report("criterion 8: EMA-distillation algebra",
           ok, "; ".join(f"{n}: {'ok' if p else 'BAD'}" for n, p in checks))


# ---------------------------------------------------------------------------
# 9. training smoke test on the synthetic task
# ---------------------------------------------------------------------------

def _smoke_run(seed: int):
    cfg = hiri_micro_config(resolution=64, num_classes=2)
    model, _ = build_model(cfg, seed=seed)
    teacher, _ = build_model(cfg, seed=seed)
    data = SyntheticQuadrants(image_size=64, num_classes=2, seed=seed)
    tc = TrainConfig(steps=200, batch_size=16, alpha=0.5, seed=seed)
    records, tree, _ = train_loop(model, data, tc, teacher_model=teacher)
    return records, tree


def test_criterion_9_training_smoke():
    t0 = time.perf_counter()
    records, tree = _smoke_run(seed=3)
    accs = [r.train_acc for r in records]
    hit = next((r.step for r in records if r.train_acc >= 0.95), None)
    sustained = float(np.mean(accs[-10:]))
    records2, tree2 = _smoke_run(seed=3)
    deterministic = ([r.loss for r in records] == [r.loss for r in records2]
                     and all(np.array_equal(tree[p].data, tree2[p].data)
                             for p in tree.paths()))
    elapsed = time.perf_counter() - t0
    ok = (hit is not None and sustained >= 0.95 and deterministic
          and elapsed < 600)
    report("criterion 9: micro model >= 95% train accuracy within 200 steps",
           ok, f"first hit at step {hit}; last-10 mean {sustained:.3f};"
               f" deterministic {deterministic}; {elapsed:.0f}s (two runs)")


# ---------------------------------------------------------------------------
# 10. serialization round trips
# ---------------------------------------------------------------------------

def test_criterion_10_serialization(tmp_path):
    model, tree = build_model(hiri_micro_config(), seed=12)
    model(Tensor(np.random.default_rng(1).standard_normal((2, 3, 64, 64))))
    path = str(tmp_path / "ckpt.hiri")
    save_checkpoint(tree, path)
    loaded = load_checkpoint(path)
    ckpt_ok = (loaded.paths() == tree.paths()
               and all(np.array_equal(loaded[p].data, tree[p].data)
                       for p in tree.paths()))
    stats_moved = np.abs(tree["stage1.block1.pre_norm.running_mean"].data).max() > 0

    text = serialize_config(hiri_config("S", 448))
    cfg = parse_config(text)
    text2 = serialize_config(cfg)
    cfg2 = parse_config(text2)
    config_ok = (text == text2 and cfg == cfg2)
    micro_text = serialize_config(hiri_micro_config())
    _, tree_a = build_model(parse_config(micro_text), seed=5)
    _, tree_b = build_model(parse_config(serialize_config(parse_config(micro_text))),
                            seed=5)
    rebuild_ok = tree_a.allclose(tree_b)

    ok = ckpt_ok and stats_moved and config_ok and rebuild_ok
    report("criterion 10: checkpoint and config round trips",
           ok, f"checkpoint bit-exact incl BN stats: {ckpt_ok and stats_moved};"
               f" config idempotent: {config_ok and rebuild_ok}")
