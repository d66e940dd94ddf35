"""The three workloads: set-up, the timed closed loop, and output checks.

Every workload is one caller in a closed loop that waits for each result
before it sends the next input. The benchmark draws images, batches and
initial weights from the workload seed and hands the program only those.

* ``eval_s448``: HiRI-ViT-S deployment build at 448x448, batch 1, eval mode
  under ``no_grad``. The paper's headline use, with the broadest forward
  mix (conv2d, attention, GELU); the main workload for conv kernels.
* ``eval_ladder_r1_224``: four-stage ablation-ladder row 1 at 224x224,
  batch 1, eval. PVT-style conv K/V reduction over 3136 stage-1 queries;
  isolates the attention contraction (``ordered_matmul``) and its
  materialized product.
* ``train_micro``: the ``hirivit train`` default recipe (micro five-stage
  model at 64x64, batch 16, Cutmix p=0.5, alpha 0.5, EMA teacher), run as
  back-to-back 20-step ``train_loop`` calls. The only workload that records
  a tape, runs backward closures and writes parameters.
"""

from __future__ import annotations

import json
import os
import threading
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from hirivit.engine import Tensor, no_grad
from hirivit.params import init_tree, load_checkpoint, save_checkpoint
from hirivit.train import SyntheticQuadrants, TrainConfig, train_loop
from hirivit.zoo import Model, hiri_config, hiri_micro_config, mvit_config

import stats

clock = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 0          # the seed the stored reference outputs belong to
SETUPS = 3                # set-ups per run; setup_s is their median
MIN_SAMPLES = stats.TAIL_BEYOND + 4   # tail is then at least the 4th-fastest op
EVAL_IMAGES = 2           # distinct images per eval run, cycled
CHUNK_STEPS = 20          # steps per train_loop call in train_micro
RECIPE_SEED = 0           # TrainConfig.seed: permutations, mix draws, boxes
EVAL_RTOL = 1e-9          # logits vs stored reference, share of max |logit|
LOSS_RTOL = 1e-6          # losses vs stored reference trajectory
IMAGE_STREAM = 1          # keeps image draws apart from the weight draws


@dataclass
class Setup:
    model: object
    tree: object              # the checkpoint as loaded back
    seconds: float
    phases: dict
    ckpt_bytes: int
    ok: bool                  # round trip bit-exact and warm-up output checked
    teacher: object = None


@dataclass
class Loop:
    latencies: list = field(default_factory=list)
    attempted: int = 0
    images: int = 0
    wall: float = 0.0
    failed: int = 0
    outputs: dict = field(default_factory=dict)   # input key -> output array


def bit_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def load_reference():
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


class RssPeak:
    """Highest resident set size seen while the timed loop runs.

    The process high-water mark is set by checkpoint loading, so a thread
    samples ``/proc/self/statm`` every 2 ms instead; the mark is reported
    separately as ``vm_hwm_mb``.
    """

    def __init__(self, interval=0.002):
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._page = os.sysconf("SC_PAGE_SIZE")

    def _run(self):
        with open("/proc/self/statm", "rb") as fh:
            while True:
                fh.seek(0)
                self.peak = max(self.peak, int(fh.read().split()[1]) * self._page)
                if self._stop.wait(self.interval):
                    return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def vm_hwm_bytes() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    return 0


# ---------------------------------------------------------------------------
# set-up: build, seeded init, checkpoint save, load back, one warm-up op
# ---------------------------------------------------------------------------

def build_and_load(config, seed, workdir):
    """Build, init, save and load back; returns (model, loaded tree,
    phase seconds, checkpoint bytes, round trip bit-exact)."""
    ckpt = os.path.join(workdir, f"ckpt-{os.getpid()}.hiri")
    phases = {}
    t = clock()
    model = Model(config)
    tree = model.param_tree()
    phases["build"] = clock() - t
    t = clock()
    init_tree(tree, seed)
    phases["init"] = clock() - t
    t = clock()
    save_checkpoint(tree, ckpt)
    phases["save"] = clock() - t
    t = clock()
    loaded = load_checkpoint(ckpt)
    phases["load"] = clock() - t
    exact = loaded.paths() == tree.paths() and all(
        bit_equal(loaded[p].data, tree[p].data) for p in tree.paths())
    t = clock()
    model.load_state(loaded)
    phases["load"] += clock() - t
    size = os.path.getsize(ckpt)
    os.remove(ckpt)
    return model, loaded, phases, size, exact


class EvalWorkload:
    kind = "eval"

    def __init__(self, name, config_fn, resolution):
        self.name = name
        self.config_fn = config_fn
        self.resolution = resolution
        self.batch = 1

    def images(self, seed):
        rng = np.random.default_rng([IMAGE_STREAM, seed])
        r = self.resolution
        return [rng.standard_normal((1, 3, r, r)) for _ in range(EVAL_IMAGES)]

    def forward(self, model, x):
        with no_grad():
            return model(Tensor(x)).data

    def setup(self, seed, workdir, reference):
        model, loaded, phases, size, exact = build_and_load(
            self.config_fn(), seed, workdir)
        model.eval()
        x = self.images(seed)[0]
        t = clock()
        y = self.forward(model, x)
        phases["warmup"] = clock() - t
        ok = exact and bool(np.isfinite(y).all())
        if reference is not None and seed == DEFAULT_SEED:
            ok = ok and self.matches_reference(y, reference)
        del loaded
        return Setup(model, None, sum(phases.values()), phases, size, ok)

    def matches_reference(self, y, reference):
        ref = np.asarray(reference[self.name]["logits"])
        return y.shape == ref.shape and \
            float(np.abs(y - ref).max()) <= EVAL_RTOL * float(np.abs(ref).max())

    def reference_record(self, setup):
        y = self.forward(setup.model, self.images(DEFAULT_SEED)[0])
        return {"logits": y.tolist()}

    def run(self, setup, seed, seconds, loop, expect=None, on_op=None,
            dataset_hook=None, min_ops=MIN_SAMPLES):
        """Forward passes over the cycled images until ``seconds`` have gone
        and at least ``min_ops`` were taken. Outputs must be finite and
        bitwise equal whenever an image recurs (or equal ``expect``)."""
        images = self.images(seed)
        expect = loop.outputs if expect is None else expect
        start = clock()
        i = 0
        while clock() - start < seconds or i < min_ops:
            key = i % len(images)
            if on_op:
                on_op(i)
            i += 1
            loop.attempted += 1
            t = clock()
            try:
                y = self.forward(setup.model, images[key])
            except Exception:                  # a failed operation, not a crash
                traceback.print_exc()
                loop.failed += 1
                continue
            loop.latencies.append(clock() - t)
            loop.images += self.batch
            ok = bool(np.isfinite(y).all())
            if key in expect:
                ok = ok and bit_equal(y, expect[key])
            else:
                expect[key] = y
            loop.failed += not ok
        loop.wall += clock() - start
        return loop

    def trace_roots(self, setup):
        return [setup.model], {}

class StepClock:
    """``metrics_stream`` for ``train_loop``: stamps the end of each step.

    A line that starts with a digit is a step record; anything else (a
    header) is ignored.
    """

    def __init__(self, on_step=None):
        self.stamps = []
        self.on_step = on_step

    def write(self, text):
        if text[:1].isdigit():
            self.stamps.append(clock())
            if self.on_step:
                self.on_step(len(self.stamps))

    def flush(self):
        pass


class TrainWorkload:
    kind = "train"
    name = "train_micro"
    resolution = 64
    batch = 16

    def config(self):
        return hiri_micro_config()

    def dataset(self, seed):
        cfg = self.config()
        return SyntheticQuadrants(image_size=cfg.resolution[0],
                                  num_classes=cfg.num_classes, seed=seed)

    def chunk(self, setup, seed, steps, clock_stream=None, dataset=None):
        """One ``train_loop`` call from the loaded weights; returns losses."""
        setup.model.load_state(setup.tree)
        data = dataset if dataset is not None else self.dataset(seed)
        records, _, _ = train_loop(
            setup.model, data, TrainConfig(steps=steps, seed=RECIPE_SEED),
            teacher_model=setup.teacher, metrics_stream=clock_stream)
        return [r.loss for r in records]

    def setup(self, seed, workdir, reference):
        model, loaded, phases, size, exact = build_and_load(
            self.config(), seed, workdir)
        t = clock()
        teacher = Model(self.config())
        phases["build"] += clock() - t
        s = Setup(model, loaded, 0.0, phases, size, exact, teacher=teacher)
        t = clock()
        losses = self.chunk(s, seed, 1)
        phases["warmup"] = clock() - t
        s.seconds = sum(phases.values())
        s.ok = exact and bool(np.isfinite(losses).all())
        return s

    def matches_reference(self, losses, reference):
        ref = np.asarray(reference[self.name]["losses"])
        got = np.asarray(losses)
        return got.shape == ref.shape and bool(
            np.all(np.abs(got - ref) <= LOSS_RTOL * np.abs(ref)))

    def reference_record(self, setup):
        return {"losses": self.chunk(setup, DEFAULT_SEED, CHUNK_STEPS)}

    def run(self, setup, seed, seconds, loop, expect=None, on_op=None,
            dataset_hook=None, min_ops=MIN_SAMPLES):
        """20-step ``train_loop`` calls until ``seconds`` have gone and at
        least ``min_ops`` steps were taken. Every loss must be finite and
        every chunk's losses bitwise equal to the first chunk's (or to
        ``expect``)."""
        expect = loop.outputs if expect is None else expect
        start = clock()
        tried = 0
        while clock() - start < seconds or tried < min_ops:
            base = len(loop.latencies)
            tried += CHUNK_STEPS
            loop.attempted += CHUNK_STEPS
            stream = StepClock(None if on_op is None else
                               (lambda k, b=base: on_op(b + k)))
            data = self.dataset(seed)
            if dataset_hook:
                dataset_hook(data)
            if on_op:
                on_op(base)
            t0 = clock()
            try:
                losses = self.chunk(setup, seed, CHUNK_STEPS, stream, data)
            except Exception:                  # every step of the call failed
                traceback.print_exc()
                loop.failed += CHUNK_STEPS
                continue
            stamps = [t0] + stream.stamps
            loop.latencies.extend(b - a for a, b in zip(stamps, stamps[1:]))
            loop.images += self.batch * len(losses)
            ok = np.isfinite(losses)
            if "chunk" in expect:
                ok &= np.asarray([bit_equal(a, b) for a, b in zip(losses, expect["chunk"])])
            else:
                expect["chunk"] = losses
            loop.failed += int((~ok).sum())
        loop.wall += clock() - start
        return loop

    def trace_roots(self, setup):
        return [setup.model, setup.teacher], {id(setup.teacher.stem): "teacher"}

WORKLOADS = {
    "eval_s448": EvalWorkload("eval_s448", lambda: hiri_config("S", 448), 448),
    "eval_ladder_r1_224": EvalWorkload("eval_ladder_r1_224",
                                       lambda: mvit_config(1, 224), 224),
    "train_micro": TrainWorkload(),
}
