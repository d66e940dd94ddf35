"""Teacher-derived soft targets for mixed samples.

The teacher runs without its final pooling: the classifier is applied at
every cell of the last feature map and softmaxed per position, giving a
per-position probability map. The two maps mix under the (downsampled)
Cutmix mask, spatial averaging yields the teacher label, and the final
target is the convex combination ``alpha * y_mix + (1 - alpha) * y_teacher``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..blocks import eval_mode
from ..engine import Tensor, no_grad, ops
from ..errors import ConfigError


@dataclass
class DistillTarget:
    prob_a: np.ndarray       # (N, classes, h, w) teacher map for sample a
    prob_b: np.ndarray       # (N, classes, h, w) teacher map for sample b
    prob_mixed: np.ndarray   # mask-mixed map
    y_teacher: np.ndarray    # (N, classes) pooled teacher label
    y_target: np.ndarray     # (N, classes) final training target
    alpha: float


def majority_downsample(mask: np.ndarray, out_hw) -> np.ndarray:
    """Reduce a binary H x W mask to a coarse grid by per-cell majority vote.

    Cells whose covered fraction is exactly one half round to one.
    """
    from ..engine.ops import _pool_matrix

    h, w = mask.shape
    oh, ow = out_hw
    rm = _pool_matrix(h, oh, mask.dtype)
    cm = _pool_matrix(w, ow, mask.dtype)
    frac = rm @ mask @ cm.T
    return (frac >= 0.5).astype(mask.dtype)


def teacher_prob_map(teacher, x: np.ndarray) -> np.ndarray:
    """Per-position class probabilities from a model run densely, no grads."""
    with eval_mode(teacher), no_grad():
        logits = teacher.forward_dense_logits(Tensor(x))
        return ops.softmax(logits, axis=1).data


def distill_target(teacher, xa: np.ndarray, xb: np.ndarray,
                   mask: np.ndarray | None, y_mixed: np.ndarray,
                   alpha: float, lam: float | None = None) -> DistillTarget:
    """Mix teacher probability maps under the Cutmix mask and blend labels.

    ``xb`` holds the images of sample b, or integer indices of the rows of
    ``xa`` that form them (a batch paired with its own permutation). Given
    indices, the teacher runs once and its map for ``xa`` is indexed. The
    eval-mode teacher treats each sample on its own, and every product
    gives a sample's entries the same bits wherever the sample sits in the
    batch (``ops._Canonical``), so this is the map of the permuted batch.

    With no mask (Mixup), the maps blend by ``lam`` instead. ``alpha = 1``
    returns the mixed label unchanged.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"alpha must lie in [0, 1], got {alpha}")
    xb = np.asarray(xb)
    pa = teacher_prob_map(teacher, xa)
    pb = pa[xb] if xb.dtype.kind in "iu" else teacher_prob_map(teacher, xb)
    if mask is not None:
        m = majority_downsample(mask, pa.shape[-2:])
        pm = m * pa + (1.0 - m) * pb
    else:
        if lam is None:
            raise ConfigError("mixup-style distillation needs lam")
        pm = lam * pa + (1.0 - lam) * pb
    y_teacher = pm.mean(axis=(2, 3))
    y_target = alpha * y_mixed + (1.0 - alpha) * y_teacher
    return DistillTarget(prob_a=pa, prob_b=pb, prob_mixed=pm,
                         y_teacher=y_teacher, y_target=y_target, alpha=alpha)


def soft_cross_entropy(logits: Tensor, target: np.ndarray) -> Tensor:
    """Mean over the batch of ``-sum(target * log_softmax(logits))``."""
    if logits.shape != np.shape(target):
        raise ValueError(
            f"logits shape {logits.shape} does not match target {np.shape(target)}")
    logp = ops.log_softmax(logits, axis=-1)
    weighted = ops.mul(logp, Tensor(target))
    return ops.scale(ops.tsum(weighted), -1.0 / logits.shape[0])
