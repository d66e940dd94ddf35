"""Results do not depend on the BLAS thread count.

Every BLAS product of the engine is the canonical one (``ops._Canonical``),
so an eval forward, a conv, a training step's gradients and a short
training run must be bitwise equal at one and at two OpenBLAS threads. Each
count runs in a process of its own, which prints a digest per case. With
plain BLAS calls, the first three cases differed between the counts: the
S@224 build runs 1x1 convs and attention over 14x14 and 7x7 maps, whose
196 and 49 columns are no multiple of the kernel's tiles, and the conv's
720-long contraction is split into K-panels at two threads.
"""

_SCRIPT = """
import hashlib

import numpy as np

from hirivit import blocks
from hirivit.engine import Tensor, backward, no_grad, ops
from hirivit.train import SyntheticQuadrants, TrainConfig, train_loop
from hirivit.zoo import build_model, hiri_config, hiri_micro_config, mvit_config


def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


rng = np.random.default_rng(0)
model, _ = build_model(hiri_config("S", 224), seed=0)
with no_grad():
    logits = model.eval()(Tensor(rng.standard_normal((1, 3, 224, 224)))).data
print("s224_eval_logits", digest([logits]))
del model

conv = blocks.Conv2d(80, 160, 3, stride=2)
for _, t, _ in conv.named_entries():
    t.data[...] = rng.standard_normal(t.shape) * 0.1
with no_grad():
    print("conv_80_160_k720", digest([conv(Tensor(rng.standard_normal((1, 80, 56, 56)))).data]))

# ladder row 4 at 64x64: a train-mode step over 16x16 to 2x2 maps
model, _ = build_model(mvit_config(4, 64), seed=0)
logits = model(Tensor(rng.standard_normal((2, 3, 64, 64))))
backward(ops.tsum(ops.mul(logits, Tensor(rng.standard_normal(logits.shape)))))
print("row4_train_step_grads", digest([t.grad for _, t, _ in model.named_entries()
                                       if t.requires_grad]))
del model

cfg = hiri_micro_config()
model, _ = build_model(cfg, seed=0)
teacher, _ = build_model(cfg, seed=0)
data = SyntheticQuadrants(image_size=cfg.resolution[0], num_classes=cfg.num_classes, seed=0)
records, tree, ema = train_loop(model, data, TrainConfig(steps=20, seed=0),
                                teacher_model=teacher)
print("micro_train_records", hashlib.sha256(repr(records).encode()).hexdigest())
print("micro_trained_tree", digest([t.data for _, t in tree.items()]))
print("micro_ema_tree", digest([t.data for _, t in ema.tree.items()]))
"""

CASES = ["s224_eval_logits", "conv_80_160_k720", "row4_train_step_grads",
         "micro_train_records", "micro_trained_tree", "micro_ema_tree"]


def test_results_are_bitwise_at_one_and_two_blas_threads(run_script):
    one, two = (dict(line.split() for line in run_script(_SCRIPT, threads).splitlines())
                for threads in (1, 2))
    assert list(one) == list(two) == CASES
    assert [case for case in CASES if one[case] != two[case]] == []
