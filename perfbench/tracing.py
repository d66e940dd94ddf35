"""Spans around the program's public entry points, installed from outside.

``Tracer.install`` replaces, for the duration of a traced phase:

* every public function of ``hirivit.engine.ops`` (one ``op`` span per
  call; the backward closure of each result gets a ``bwd`` span that
  remembers the module path active when the op ran),
* ``hirivit.blocks.Module.__call__`` (one ``module`` span per call, named
  by class, with the dotted path built from the ``_children`` names),
* the step phases ``hirivit.train.loop`` looks up by name, and
  ``AdamW.step`` (``phase`` spans).

``Tracer.remove`` puts every original back. The program's files are not
changed and wrapping does not touch any array, so traced outputs are
bitwise equal to untraced ones (the benchmark checks this).

Spans live in memory as ``[kind, name, start, end, parent, op_id, path,
info]`` lists and are written out once, when the run ends.
"""

from __future__ import annotations

import collections
import gzip
import inspect
import time

from stats import self_time

clock = time.perf_counter

# engine.ops helpers that take or return no Tensor
OP_EXCLUDE = {"current_backend", "use_backend", "conv2d_macs", "ordered_sum"}

# names hirivit.train.loop looks up at call time, and the phase they time
TRAIN_PHASES = [
    ("backward", "tensor.backward"),
    ("cutmix", "train.mix"),
    ("mixup", "train.mix"),
    ("distill_target", "train.teacher"),
    ("soft_cross_entropy", "train.loss"),
    ("ema_update", "train.ema"),
    ("_accuracy", "train.acc_pass"),
]

KIND, NAME, START, END, PARENT, OP, PATH, INFO = range(8)


def module_paths(root, prefix: str = "model") -> dict:
    """id(module) -> dotted path, from the ``_children`` names."""
    out = {id(root): prefix}
    todo = [(root, prefix)]
    while todo:
        mod, path = todo.pop()
        for name, child in mod._children.items():
            out[id(child)] = f"{path}.{name}"
            todo.append((child, f"{path}.{name}"))
    return out


def conv_label(x_shape, w_shape) -> str:
    """conv2d_dw (one input channel per group), conv2d_1x1 or conv2d_dense."""
    _, cing, kh, kw = w_shape
    cin = x_shape[1]
    if cing == 1 and cin > 1:
        return "conv2d_dw"
    if kh == 1 and kw == 1 and cing == cin:
        return "conv2d_1x1"
    return "conv2d_dense"


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs.get(name)


def op_cost(label, args, kwargs, out):
    """(MACs, computed bytes) of one op call, from operand and output shapes.

    conv2d: bytes of the im2col patch matrix the seed kernel builds,
    N*Cin*kh*kw*OH*OW*8. ordered_matmul: bytes of the materialized
    (..., m, k, p) product, out.size*k*8. Neither is observed.
    """
    size = getattr(out, "size", 0)
    if label.startswith("conv2d"):
        x, w = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "weight")
        _, cing, kh, kw = w.shape
        n, _, oh, ow = out.shape
        return size * cing * kh * kw, n * x.shape[1] * kh * kw * oh * ow * 8
    if label in ("ordered_matmul", "matmul"):
        k = _arg(args, kwargs, 0, "a").shape[-1]
        return size * k, (size * k * 8 if label == "ordered_matmul" else 0)
    if label == "linear":
        return size * _arg(args, kwargs, 0, "x").shape[-1], 0
    return 0, 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = 0
        self.paths = {}          # id(module) -> dotted path
        self.watch = {}          # id(module) -> role whose inputs get hashed
        self.missing = []        # entry points not found (and so not traced)
        self._stack = []
        self._module_paths = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def begin(self, kind, name, path=None):
        rec = [kind, name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.op_id, path, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = clock()
        return rec

    def end(self, rec):
        rec[END] = clock()
        self._stack.pop()

    def current_path(self):
        return self._module_paths[-1] if self._module_paths else None

    # -- wrappers ----------------------------------------------------------

    def _wrap_op(self, name, fn):
        tr = self

        def traced(*args, **kwargs):
            label = name
            if name == "conv2d":
                label = conv_label(_arg(args, kwargs, 0, "x").shape,
                                   _arg(args, kwargs, 1, "weight").shape)
            rec = tr.begin("op", label, tr.current_path())
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.end(rec)
            rec[INFO] = op_cost(label, args, kwargs, out)
            bw = getattr(out, "_backward", None)
            if bw is not None and not getattr(bw, "_traced", False):
                out._backward = tr._wrap_closure(label, bw, rec[PATH])
            return out

        return traced

    def _wrap_closure(self, label, fn, path):
        tr = self

        def traced(g):
            rec = tr.begin("bwd", label, path)
            try:
                return fn(g)
            finally:
                tr.end(rec)

        traced._traced = True
        return traced

    def _wrap_module_call(self, fn):
        tr = self

        def traced(module, *args, **kwargs):
            path = tr.paths.get(id(module))
            role = tr.watch.get(id(module))
            info = None
            if role is not None:
                data = args[0].data
                info = (role, data.shape[0],
                        tuple(hash(data[i].tobytes()) for i in range(data.shape[0])))
            rec = tr.begin("module", type(module).__name__, path)
            rec[INFO] = info
            tr._module_paths.append(path)
            try:
                return fn(module, *args, **kwargs)
            finally:
                tr._module_paths.pop()
                tr.end(rec)

        return traced

    def _wrap_phase(self, label, fn):
        tr = self

        def traced(*args, **kwargs):
            rec = tr.begin("phase", label)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.end(rec)

        return traced

    # -- install / remove --------------------------------------------------

    def patch(self, owner, attr, wrap):
        own = attr in vars(owner)
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, wrap(orig))
        self._undo.append((owner, attr, orig if own else None))

    def trace_phase(self, owner, attr, label):
        self.patch(owner, attr, lambda f: self._wrap_phase(label, f))

    def install(self, train=False):
        from hirivit import blocks
        from hirivit.engine import ops

        for name, fn in list(vars(ops).items()):
            if (inspect.isfunction(fn) and fn.__module__ == ops.__name__
                    and not name.startswith("_") and name not in OP_EXCLUDE):
                self.patch(ops, name, lambda f, n=name: self._wrap_op(n, f))
        self.patch(blocks.Module, "__call__", self._wrap_module_call)
        if train:
            from hirivit.train import loop, optim
            for attr, label in TRAIN_PHASES:
                self.trace_phase(loop, attr, label)
            self.trace_phase(optim.AdamW, "step", "train.adamw")

    def remove(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("kind,name,start,end,parent,op_id,path\n")
            for s in self.spans:
                fh.write(f"{s[KIND]},{s[NAME]},{s[START]:.9f},{s[END]:.9f},"
                         f"{s[PARENT]},{s[OP]},{s[PATH] or ''}\n")


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _zoo_key(path):
    if not path or not path.startswith("model."):
        return None
    return path.split(".")[1]


def self_times(spans):
    children = collections.defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    return [self_time(s[START], s[END], children.get(i, ())) for i, s in enumerate(spans)]


def summarize(spans, n_ops, records, all_paths):
    """Per-layer values per operation, the analyzer join and exact counts.

    ``records`` are the analyzer's leaf cost records for one forward pass;
    ``all_paths`` is every module path of the model. Returns
    ``(metrics, counts, unmatched)``.
    """
    selfs = self_times(spans)
    t = collections.defaultdict(float)       # seconds, summed over the phase
    counts = collections.Counter()           # exact counts, summed
    macs = collections.Counter()
    zoo_passes = collections.Counter()
    timed = set()
    teacher_distinct = collections.defaultdict(set)
    student_fwd, in_training = 0.0, False

    def in_phase(i, names):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][KIND] == "phase" and spans[p][NAME] in names:
                return True
            p = spans[p][PARENT]
        return False

    for i, s in enumerate(spans):
        kind, name, dur = s[KIND], s[NAME], s[END] - s[START]
        if kind == "op":
            t[f"ops.{name}.fwd_s"] += selfs[i]
            counts[f"ops.{name}.calls"] += 1
            if s[INFO]:
                macs[name] += s[INFO][0]
                if name == "ordered_matmul":
                    counts["ops.ordered_matmul.bytes_materialized"] += s[INFO][1]
                elif name == "conv2d_1x1":
                    counts["ops.conv2d_1x1.im2col_bytes"] += s[INFO][1]
        elif kind == "bwd":
            t[f"ops.{name}.bwd_s"] += selfs[i]
            counts["tensor.tape_nodes"] += 1
            key = _zoo_key(s[PATH])
            if key:
                t[f"zoo.{key}.bwd_s"] += selfs[i]
        elif kind == "module":
            timed.add(s[PATH])
            if name == "Attention":
                t["blocks.Attention.fwd_s"] += dur
            key = _zoo_key(s[PATH])
            parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
            if key and not (parent and parent[KIND] == "module"
                            and _zoo_key(parent[PATH]) == key):
                t[f"zoo.{key}.fwd_s"] += dur
                zoo_passes[key] += 1
            if s[PATH] == "model" and not in_phase(i, ("train.acc_pass", "train.teacher")):
                student_fwd += dur
            if s[INFO] and s[INFO][0] == "teacher":
                counts["train.teacher_forwards_per_step"] += 1
                counts["train.teacher_images"] += s[INFO][1]
                teacher_distinct[s[OP]].update(s[INFO][2])
        elif kind == "phase":
            in_training = True
            if name == "tensor.backward":
                t["tensor.backward_s"] += dur
                t["tensor.backward_self_s"] += selfs[i]
            else:
                t[f"{name}_s"] += dur

    if in_training:
        t["train.student_fwd_s"] = student_fwd

    # analyzer join: a record whose path is a module must have been timed;
    # a pseudo-leaf (".sum", ".qk", ...) maps to its parent module's span
    zoo_flops = collections.Counter()
    matched, unmatched = 0, []
    for r in records:
        if r.flops == 0:
            continue
        target = r.path if r.path in all_paths else r.path.rsplit(".", 1)[0]
        if target in timed:
            matched += 1
        else:
            unmatched.append(r.path)
        zoo_flops[_zoo_key(r.path)] += r.flops
    flops = sum(r.flops for r in records)

    out = {k: v / n_ops for k, v in t.items()}
    out.update({k: v / n_ops for k, v in counts.items()})
    for name, total in macs.items():
        if t[f"ops.{name}.fwd_s"] > 0:
            out[f"ops.{name}.gmac_per_s"] = total / t[f"ops.{name}.fwd_s"] / 1e9
    for key, passes in zoo_passes.items():
        if t[f"zoo.{key}.fwd_s"] > 0:
            out[f"zoo.{key}.gflop_per_s"] = (zoo_flops[key] * passes
                                            / t[f"zoo.{key}.fwd_s"] / 1e9)
    distinct = sum(len(v) for v in teacher_distinct.values())
    images = counts["train.teacher_images"]
    out["train.teacher_unique_frac"] = distinct / images if images else 0.0
    out["analyzer.gflops"] = flops / 1e9
    out["analyzer.matched_frac"] = matched / (matched + len(unmatched)) if records else 0.0
    counts["analyzer.flops"] = flops
    return out, dict(counts), unmatched
