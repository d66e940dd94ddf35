"""The EMA-distillation training loop.

Per step: mix a batch pair (Cutmix or Mixup), form the target label from
the EMA teacher's mixed probability maps, run the student on the mixed
batch, soft cross-entropy, backward, AdamW with the cosine schedule, then
the EMA teacher update. Emits one metrics CSV row per step
(``StepRecord.csv_row``; the header is ``METRICS_HEADER``).

``train_acc`` is the train-mode accuracy on the step's clean batch at the
weights the step starts from. An unmixed step reads it off its own
training forward, whose input is that batch. A mixed step runs one no-grad
train-mode pass over the clean images before the update (``_accuracy``),
and puts back the BN running statistics that pass moves.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields

import numpy as np

from ..engine import Tensor, backward, no_grad
from ..errors import ConfigError
from .distill import distill_target, soft_cross_entropy
from .ema import EmaState, ema_init, ema_update
from .mixing import cutmix, mixup
from .optim import AdamW, cosine_schedule


BASE_LR = 3e-3          # peak of the warmup + cosine schedule
WARMUP_STEPS = 10


@dataclass
class TrainConfig:
    """The recipe's settings; a value out of range raises ``ConfigError`` here."""

    steps: int = 200
    batch_size: int = 16
    alpha: float = 0.5            # mixed-label vs teacher-label tradeoff
    ema_decay: float = 0.9998
    mix: str = "cutmix"           # "cutmix" | "mixup" | "none"
    mix_prob: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.mix not in ("cutmix", "mixup", "none"):
            raise ConfigError(f"unknown mix kind {self.mix!r}")
        for name in ("alpha", "ema_decay", "mix_prob"):
            if not 0.0 <= (value := getattr(self, name)) <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {value}")
        if self.steps < 1 or self.batch_size < 1:
            raise ConfigError("steps and batch_size must be positive,"
                              f" got {self.steps} and {self.batch_size}")


@dataclass
class StepRecord:
    """One training step; also one row of the metrics CSV."""

    step: int
    loss: float
    lr: float
    train_acc: float

    def csv_row(self) -> str:
        return f"{self.step},{self.loss:.6f},{self.lr:.8f},{self.train_acc:.4f}\n"


METRICS_HEADER = ",".join(f.name for f in fields(StepRecord)) + "\n"


class TrainingDiverged(RuntimeError):
    """``batch_index`` is the 0-based index of the offending batch."""

    def __init__(self, step, loss, batch_index, batch_size):
        first = batch_index * batch_size
        super().__init__(
            f"non-finite loss {loss!r} at step {step} (batch index {batch_index},"
            f" samples [{first}, {first + batch_size}));"
            " its stats were printed to stderr")
        self.step = step
        self.batch_index = batch_index


def _hits(logits: np.ndarray, labels: np.ndarray) -> float:
    return float((np.argmax(logits, axis=1) == labels).mean())


def _accuracy(model, images: np.ndarray, labels: np.ndarray, buffers) -> float:
    """Train-mode accuracy of a no-grad pass; ``buffers`` (the model's
    non-trainable arrays) come back bitwise as they were."""
    saved = [b.copy() for b in buffers]
    with no_grad():
        logits = model(Tensor(images))
    for b, s in zip(buffers, saved):
        np.copyto(b, s)
    return _hits(logits.data, labels)


def train_loop(model, dataset, config: TrainConfig, teacher_model=None,
               metrics_stream=None):
    """Run the loop; returns (records, student tree, EMA teacher state).

    ``teacher_model`` is a second structurally-identical model whose own
    parameter tree holds the EMA weights (it starts as a copy of the
    student); required whenever ``alpha < 1``.
    """
    if config.alpha < 1.0 and teacher_model is None:
        raise ConfigError("distillation (alpha < 1) needs a teacher model")

    warmup = min(WARMUP_STEPS, config.steps - 1)
    rng = np.random.default_rng(config.seed)
    tree = model.param_tree()
    buffers = [t.data for _, t in tree.items() if not t.requires_grad]
    opt = AdamW(tree, lr=BASE_LR)
    if teacher_model is None:
        ema = ema_init(tree, config.ema_decay)
    else:
        ema = EmaState(teacher_model.param_tree(), config.ema_decay)
        tree.copy_into(ema.tree)

    records = []
    model.train(True)
    for step in range(1, config.steps + 1):
        images, labels = dataset.sample(config.batch_size)
        onehot = dataset.one_hot(labels)

        perm = rng.permutation(config.batch_size)
        use_mix = config.mix != "none" and rng.random() < config.mix_prob
        if use_mix:
            xb, yb = images[perm], onehot[perm]
            mixer = cutmix if config.mix == "cutmix" else mixup
            mixed = mixer(images, onehot, xb, yb, rng)
            x_in, y_mix, mask, lam = mixed.image, mixed.label, mixed.mask, mixed.lam
        else:
            x_in, y_mix, mask, lam = images, onehot, None, 1.0

        if config.alpha < 1.0 and use_mix:
            target = distill_target(teacher_model, images, perm,
                                    mask, y_mix, config.alpha, lam=lam).y_target
        else:
            target = y_mix

        opt.zero_grad()
        logits = model(Tensor(x_in))
        loss = soft_cross_entropy(logits, target)
        loss_val = loss.item()
        if not np.isfinite(loss_val):
            print(f"batch stats: min {x_in.min():.4g} max {x_in.max():.4g} "
                  f"labels {labels.tolist()}", file=sys.stderr)
            raise TrainingDiverged(step, loss_val, step - 1, config.batch_size)
        if use_mix:
            acc = _accuracy(model, images, labels, buffers)
        else:
            acc = _hits(logits.data, labels)
        backward(loss)
        lr = cosine_schedule(step - 1, config.steps, warmup, BASE_LR)
        opt.step(lr)
        ema_update(ema, tree)

        rec = StepRecord(step=step, loss=loss_val, lr=lr, train_acc=acc)
        records.append(rec)
        if metrics_stream is not None:
            metrics_stream.write(rec.csv_row())
            metrics_stream.flush()
    return records, tree, ema
