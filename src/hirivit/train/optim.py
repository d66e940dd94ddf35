"""AdamW with decoupled weight decay, and the warmup + cosine LR schedule."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..params import ParamTree


def cosine_schedule(step: int, total_steps: int, warmup_steps: int,
                    base_lr: float) -> float:
    """Linear 0 -> base_lr over the warmup, then half-cosine decay to zero."""
    if total_steps <= warmup_steps:
        raise ConfigError("total_steps must exceed warmup_steps")
    if step < warmup_steps:
        return base_lr * step / warmup_steps
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * min(progress, 1.0)))


BETAS = (0.9, 0.999)
EPS = 1e-8


class AdamW:
    """Decoupled-weight-decay Adam over the trainable entries of a tree."""

    def __init__(self, tree: ParamTree, lr: float = 1e-3, weight_decay: float = 0.05):
        self.tree = tree
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {p: np.zeros_like(t.data) for p, t in tree.trainable_items()}
        self.v = {p: np.zeros_like(t.data) for p, t in tree.trainable_items()}

    def zero_grad(self):
        for _, t in self.tree.trainable_items():
            t.zero_grad()

    def step(self, lr: float | None = None):
        """One update from the gradients currently stored on the tree."""
        lr = self.lr if lr is None else lr
        b1, b2 = BETAS
        self.t += 1
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for path, tensor in self.tree.trainable_items():
            g = tensor.grad
            if g is None:
                g = np.zeros_like(tensor.data)
            m = self.m[path]
            v = self.v[path]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            if self.weight_decay:
                tensor.data -= lr * self.weight_decay * tensor.data
            tensor.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
