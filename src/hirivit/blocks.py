"""Building blocks: stems, high-resolution blocks, downsamplers, attention.

Each module states its structure once: its parts as attributes, their use
in ``forward(x)``. Two views derive from it:

* ``trace(shape)`` -- shape inference plus static cost accounting
  (multiply-accumulates and elementwise op counts), obtained by running
  ``forward`` on an empty batch with ``_CostPass`` as the engine's observer
  (see :meth:`Module.trace`);
* the registry -- the attributes: a ``Tensor`` that requires grad is a
  parameter, any other ``Tensor`` a buffer, a ``Module`` a child.
"""

from __future__ import annotations

import contextlib
import math
from typing import NamedTuple

import numpy as np

from .config import KV_REDUCE_KINDS
from .engine import Tensor, no_grad, observe, ops
from .engine import tensor as _tensor
from .errors import ConfigError, ResolutionError, ShapeError
from .params import ParamTree


class CostRecord(NamedTuple):
    path: str
    params: int
    macs: int
    elementwise: int
    activations: int

    @property
    def flops(self) -> int:
        return self.macs + self.elementwise


# ops that only re-view their input cost nothing; attention's two
# contractions keep their established record names
_FREE_OPS = frozenset({"reshape", "transpose", "scale"})
_RECORD_NAMES = {"matmul": "qk", "ordered_matmul": "av"}


class _CostPass:
    """Engine observer: charges each op result of a trace to the innermost
    module call, and notes each module call's output shape.

    A leaf module (no children) gets one record at its own path; an op run
    directly by a composite module gets a record ``<path>.<op>``. The trace
    runs on an empty batch, and every op keeps the batch on axis 0, so a
    result stands for ``batch`` in axis 0 and its own axes from 1 on.
    """

    def __init__(self, paths: dict, batch: int):
        self.paths, self.batch = paths, batch
        self.records: list[CostRecord] = []
        self.shapes = {}           # path -> output shape of each module call
        self.frames = []           # (path, [params, macs, elementwise, activations], leaf)

    def call(self, module, x):
        path = self.paths[id(module)]
        cost = [sum(p.size for p in module._params.values()), 0, 0, 0]
        self.frames.append((path, cost, not module._children))
        try:
            out = module.forward(x)
        except (ShapeError, ResolutionError) as exc:
            if path and not hasattr(exc, "path"):     # name the innermost module
                exc.path = path
                exc.args = (f"{path}: {exc}",)
            raise
        finally:
            self.frames.pop()
        if any(cost):
            self.records.append(CostRecord(path, *cost))
        self.shapes[path] = (self.batch,) + out.shape[1:]
        return out

    def on_result(self, out, k):
        # a contraction of length k costs k MACs per output element; every
        # other op (k = 0) costs one elementwise op
        if out.op in _FREE_OPS:
            return
        path, cost, leaf = self.frames[-1]
        size = self.batch * math.prod(out.shape[1:])
        op_cost = (0, size * k, 0 if k else size, size)
        if leaf:
            cost[:] = [a + b for a, b in zip(cost, op_cost)]
        else:
            self.records.append(
                CostRecord(f"{path}.{_RECORD_NAMES.get(out.op, out.op)}", *op_cost))


def param(shape) -> Tensor:
    """A zero trainable tensor; assigned to a module attribute, it is a parameter."""
    return Tensor(np.zeros(shape), requires_grad=True)


class Module:
    """Minimal module tree: named parameters, buffers, children, train mode.

    The registry is a read-only view of the attributes, in assignment order:
    a ``Tensor`` with ``requires_grad`` is a parameter (see :func:`param`),
    any other ``Tensor`` a buffer and a ``Module`` a child, named by the
    attribute in checkpoint paths. A value a module caches must be an array,
    not a ``Tensor``, or it becomes a buffer and so a checkpoint entry. The
    module gives each entry its starting value; ``params.init_tree`` then
    draws only the ``weight`` entries.
    """

    def __init__(self):
        self.training = True

    # -- registry ------------------------------------------------------

    @property
    def _params(self) -> dict[str, Tensor]:
        return {k: v for k, v in vars(self).items()
                if isinstance(v, Tensor) and v.requires_grad}

    @property
    def _buffers(self) -> dict[str, Tensor]:
        return {k: v for k, v in vars(self).items()
                if isinstance(v, Tensor) and not v.requires_grad}

    @property
    def _children(self) -> dict[str, "Module"]:
        return {k: v for k, v in vars(self).items() if isinstance(v, Module)}

    def named_entries(self, prefix: str = ""):
        """(path, tensor, trainable) for params and buffers, depth-first."""
        for name, p in self._params.items():
            yield (f"{prefix}{name}", p, True)
        for name, b in self._buffers.items():
            yield (f"{prefix}{name}", b, False)
        for name, child in self._children.items():
            yield from child.named_entries(f"{prefix}{name}.")

    def named_modules(self, path: str = ""):
        """(dotted path, module) for this module and every descendant."""
        yield path, self
        for name, child in self._children.items():
            yield from child.named_modules(f"{path}.{name}" if path else name)

    def param_tree(self) -> ParamTree:
        tree = ParamTree()
        for path, tensor, _ in self.named_entries():
            tree.add(path, tensor)
        return tree

    def train(self, mode: bool = True):
        self.training = mode
        for child in self._children.values():
            child.train(mode)
        return self

    def eval(self):
        return self.train(False)

    # -- interface -------------------------------------------------------

    def forward(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def __call__(self, x: Tensor) -> Tensor:
        if _tensor._observer is None:
            return self.forward(x)
        return _tensor._observer.call(self, x)

    def trace(self, in_shape, path: str = "") -> _CostPass:
        """The ``_CostPass`` of ``forward`` on an input shape: its cost
        ``records`` and the output ``shapes`` of each module call, by path.

        Runs ``forward`` in eval mode without a tape on an empty batch,
        ``(0,) + in_shape[1:]``, with a ``_CostPass`` installed as the
        engine's observer. The real kernels do no arithmetic on it and give
        forward's own output shapes, and forward's own shape checks apply;
        their errors name ``in_shape``, not the empty batch. Costs and shapes
        are those of a batch of ``in_shape[0] >= 1``. Every module's
        ``training`` flag and the engine's previous observer are restored
        afterwards.
        """
        in_shape = tuple(in_shape)
        if in_shape[0] < 1:
            raise ShapeError(f"trace needs a batch of at least 1, got shape {in_shape}")
        empty = (0,) + in_shape[1:]
        cost = _CostPass({id(m): p for p, m in self.named_modules(path)}, in_shape[0])
        try:
            with eval_mode(self), no_grad(), observe(cost):
                self(Tensor(np.empty(empty)))
        except (ShapeError, ResolutionError) as exc:
            msg = str(exc).replace(str(empty), str(in_shape))
            if str(in_shape) not in msg:
                msg = f"{msg} (input shape {in_shape})"
            exc.args = (msg,)
            raise
        return cost

    def out_shape(self, in_shape):
        return self.trace(in_shape).shapes[""]


@contextlib.contextmanager
def eval_mode(model):
    """Eval mode inside the block; every module gets its own ``training`` flag back.

    ``model`` is a :class:`Module`, or any object with a ``training`` flag and
    an ``eval()`` method, such as a stand-in teacher.
    """
    named = model.named_modules() if isinstance(model, Module) else [("", model)]
    modes = [(m, m.training) for _, m in named]
    model.eval()
    try:
        yield model
    finally:
        for m, mode in modes:
            m.training = mode


# ---------------------------------------------------------------------------
# leaf layers
# ---------------------------------------------------------------------------

class Conv2d(Module):
    def __init__(self, cin, cout, kernel, stride=1, padding=None, groups=1,
                 bias=True):
        super().__init__()
        if cin % groups or cout % groups:
            raise ConfigError(
                f"conv channels ({cin}->{cout}) not divisible by groups={groups}")
        self.cin = cin
        self.stride = stride
        self.padding = kernel // 2 if padding is None else padding
        self.groups = groups
        self.weight = param((cout, cin // groups, kernel, kernel))
        self.bias = param((cout,)) if bias else None

    def forward(self, x):
        return ops.conv2d(x, self.weight, self.bias,
                          stride=self.stride, padding=self.padding,
                          groups=self.groups)


class Linear(Module):
    def __init__(self, din, dout):
        super().__init__()
        self.weight = param((dout, din))
        self.bias = param((dout,))

    def forward(self, x):
        return ops.linear(x, self.weight, self.bias)


class BatchNorm2d(Module):
    """eps and momentum are ``ops.batch_norm``'s defaults."""

    def __init__(self, channels):
        super().__init__()
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = param((channels,))
        self.running_mean = Tensor(np.zeros(channels))
        self.running_var = Tensor(np.ones(channels))

    def forward(self, x):
        return ops.batch_norm(x, self.gamma, self.beta,
                              self.running_mean.data, self.running_var.data,
                              self.training)


class LayerNorm(Module):
    """Last-axis normalization for token tensors (``ops.layer_norm``'s eps)."""

    def __init__(self, dim):
        super().__init__()
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = param((dim,))

    def forward(self, x):
        return ops.layer_norm(x, self.gamma, self.beta)


class LayerNorm2d(LayerNorm):
    """Per-position normalization over the channel axis of an NCHW map."""

    def forward(self, x):
        yt = super().forward(ops.transpose(x, (0, 2, 3, 1)))
        return ops.transpose(yt, (0, 3, 1, 2))


def make_norm2d(kind: str, channels: int) -> Module:
    if kind == "bn":
        return BatchNorm2d(channels)
    if kind == "ln":
        return LayerNorm2d(channels)
    raise ConfigError(f"unknown norm kind {kind!r}")


class GELU(Module):
    def forward(self, x):
        return ops.gelu(x)


class AvgPoolHalve(Module):
    """Adaptive 2x spatial reduction (matches strided-conv ceil semantics)."""

    def forward(self, x):
        n, c, h, w = x.shape
        return ops.adaptive_avg_pool2d(x, (-(-h // 2), -(-w // 2)))


class AvgPoolTo(Module):
    """Adaptive average pooling to a fixed target grid."""

    def __init__(self, target_hw):
        super().__init__()
        self.target_hw = tuple(target_hw)

    def forward(self, x):
        return ops.adaptive_avg_pool2d(x, self.target_hw)


class Identity(Module):
    def forward(self, x):
        return x


# ---------------------------------------------------------------------------
# composite blocks
# ---------------------------------------------------------------------------

class HighResStem(Module):
    """Two-branch stem reducing an image to quarter resolution.

    A strided 3x3 conv halves the input; a cheap high-resolution branch
    (depth-wise 3x3 then strided 3x3) and a wider low-resolution branch
    (strided 3x3, expanding 3x3, projecting 1x1) are summed and normalized.
    """

    def __init__(self, cin, cout):
        super().__init__()
        mid = cout // 2
        self.entry = Conv2d(cin, mid, 3, stride=2, bias=False)
        self.entry_norm = BatchNorm2d(mid)
        self.entry_act = GELU()
        self.hi_dw = Conv2d(mid, mid, 3, groups=mid, bias=False)
        self.hi_norm = BatchNorm2d(mid)
        self.hi_act = GELU()
        self.hi_down = Conv2d(mid, cout, 3, stride=2, bias=False)
        self.lo_down = Conv2d(mid, cout, 3, stride=2, bias=False)
        self.lo_norm1 = BatchNorm2d(cout)
        self.lo_act1 = GELU()
        self.lo_expand = Conv2d(cout, 2 * cout, 3, bias=False)
        self.lo_norm2 = BatchNorm2d(2 * cout)
        self.lo_act2 = GELU()
        self.lo_project = Conv2d(2 * cout, cout, 1, bias=False)
        self.out_norm = BatchNorm2d(cout)

    def forward(self, x):
        n, c, h, w = x.shape
        if h % 4 or w % 4:
            raise ResolutionError(f"stem input {h}x{w} not divisible by 4")
        e = self.entry_act(self.entry_norm(self.entry(x)))
        hi = self.hi_down(self.hi_act(self.hi_norm(self.hi_dw(e))))
        lo = self.lo_act1(self.lo_norm1(self.lo_down(e)))
        lo = self.lo_act2(self.lo_norm2(self.lo_expand(lo)))
        lo = self.lo_project(lo)
        return self.out_norm(ops.add(hi, lo))


class HighResBlock(Module):
    """Shape-preserving two-branch block for the first two stages.

    High branch: one depth-wise 3x3 on the full grid. Low branch: strided
    depth-wise 3x3 with BN, a position-wise feed-forward (1x1 convs with an
    activation), nearest-neighbor upsampling back to the full grid. Both
    branch outputs are added to the block input.
    """

    def __init__(self, channels, expansion):
        super().__init__()
        c, e = channels, expansion
        self.pre_norm = BatchNorm2d(c)
        self.hi_dw = Conv2d(c, c, 3, groups=c)
        self.lo_dw = Conv2d(c, c, 3, stride=2, groups=c, bias=False)
        self.lo_norm = BatchNorm2d(c)
        self.lo_fc1 = Conv2d(c, e * c, 1)
        self.lo_act = GELU()
        self.lo_fc2 = Conv2d(e * c, c, 1)

    def forward(self, x):
        n, c, h, w = x.shape
        if h % 2 or w % 2:
            raise ResolutionError(
                f"high-resolution block needs even spatial extents, got {h}x{w}")
        z = self.pre_norm(x)
        hi = self.hi_dw(z)
        lo = self.lo_norm(self.lo_dw(z))
        lo = self.lo_fc2(self.lo_act(self.lo_fc1(lo)))
        lo = ops.upsample_repeat(lo, 2)
        return ops.add(ops.add(x, hi), lo)


def _resolve_resize(in_grid: int | None, out_grid: int | None):
    """Map (input grid, target grid) to (conv stride, pre-pool, shortcut pool)."""
    if in_grid is None or out_grid is None or in_grid == 2 * out_grid \
            or out_grid == -(-in_grid // 2):
        return 2, Identity(), AvgPoolHalve()
    if in_grid == out_grid:
        return 1, Identity(), Identity()
    if in_grid > out_grid:
        target = (out_grid, out_grid)
        return 1, AvgPoolTo(target), AvgPoolTo(target)
    raise ConfigError(f"downsampler cannot grow {in_grid} -> {out_grid}")


class DownsampleA(Module):
    """Inverted-residual downsampler for the high-resolution stages.

    A strided 3x3 conv expands to twice the output width, a 1x1 conv
    shrinks; BN and activation follow both convs. A pooled 1x1 projection
    shortcut is added. When the build targets a grid other than half the
    input (resolution-anchored builds), an adaptive pool aligns the grid
    first and the convs run unstrided.
    """

    expand_factor = 2

    def __init__(self, cin, cout, in_grid=None, out_grid=None):
        super().__init__()
        stride, pre_pool, sc_pool = _resolve_resize(in_grid, out_grid)
        mid = self.expand_factor * cout
        self.pre_pool = pre_pool
        self.reduce = Conv2d(cin, mid, 3, stride=stride, bias=False)
        self.norm1 = BatchNorm2d(mid)
        self.act1 = GELU()
        self.project = Conv2d(mid, cout, 1, bias=False)
        self.norm2 = BatchNorm2d(cout)
        self.act2 = GELU()
        self.sc_pool = sc_pool
        self.sc_project = Conv2d(cin, cout, 1)

    def forward(self, x):
        y = self.pre_pool(x)
        y = self.act1(self.norm1(self.reduce(y)))
        y = self.act2(self.norm2(self.project(y)))
        s = self.sc_project(self.sc_pool(x))
        return ops.add(y, s)


class DownsampleB(Module):
    """Inverted-residual downsampler for the low-resolution stages.

    1x1 expansion (with BN and activation), strided depth-wise 3x3, 1x1
    projection; normalization and activation only follow the first conv.
    Same pooled projection shortcut as DownsampleA.
    """

    expand_factor = 8

    def __init__(self, cin, cout, in_grid=None, out_grid=None):
        super().__init__()
        stride, pre_pool, sc_pool = _resolve_resize(in_grid, out_grid)
        mid = self.expand_factor * cin
        self.pre_pool = pre_pool
        self.expand = Conv2d(cin, mid, 1, bias=False)
        self.norm1 = BatchNorm2d(mid)
        self.act1 = GELU()
        self.dw = Conv2d(mid, mid, 3, stride=stride, groups=mid)
        self.project = Conv2d(mid, cout, 1)
        self.sc_pool = sc_pool
        self.sc_project = Conv2d(cin, cout, 1)

    def forward(self, x):
        y = self.pre_pool(x)
        y = self.act1(self.norm1(self.expand(y)))
        y = self.project(self.dw(y))
        s = self.sc_project(self.sc_pool(x))
        return ops.add(y, s)


class PlainDownsample(Module):
    """Single strided 3x3 conv with LN (the conventional between-stage merge)."""

    def __init__(self, cin, cout, in_grid=None, out_grid=None):
        super().__init__()
        if _resolve_resize(in_grid, out_grid)[0] != 2:
            raise ConfigError(f"downsamplers: 'conv' only halves the grid,"
                              f" cannot map {in_grid} -> {out_grid}")
        self.conv = Conv2d(cin, cout, 3, stride=2)
        self.norm = LayerNorm2d(cout)

    def forward(self, x):
        return self.norm(self.conv(x))


class ConvFFNBlock(Module):
    """Residual convolutional feed-forward block.

    Pre-normalized; hidden = act(1x1 expand), then a residual depth-wise
    3x3 over the hidden map, then 1x1 projection back: out = x + FC2(DW(z) + z).
    """

    def __init__(self, channels, expansion, norm="bn"):
        super().__init__()
        c, e = channels, expansion
        self.pre_norm = make_norm2d(norm, c)
        self.fc1 = Conv2d(c, e * c, 1)
        self.act = GELU()
        self.dw = Conv2d(e * c, e * c, 3, groups=e * c)
        self.fc2 = Conv2d(e * c, c, 1)

    def forward(self, x):
        z = self.act(self.fc1(self.pre_norm(x)))
        y = self.fc2(ops.add(self.dw(z), z))
        return ops.add(x, y)


class FFNBlock(Module):
    """Residual position-wise feed-forward block (no depth-wise conv)."""

    def __init__(self, channels, expansion, norm="ln"):
        super().__init__()
        c, e = channels, expansion
        self.pre_norm = make_norm2d(norm, c)
        self.fc1 = Conv2d(c, e * c, 1)
        self.act = GELU()
        self.fc2 = Conv2d(e * c, c, 1)

    def forward(self, x):
        y = self.fc2(self.act(self.fc1(self.pre_norm(x))))
        return ops.add(x, y)


def _tokens(x_map):
    b, c, h, w = x_map.shape
    return ops.transpose(ops.reshape(x_map, (b, c, h * w)), (0, 2, 1))


def _maps(tokens, h, w):
    b, n, c = tokens.shape
    return ops.reshape(ops.transpose(tokens, (0, 2, 1)), (b, c, h, w))


class Attention(Module):
    """Multi-head self-attention over an NCHW feature map or its tokens.

    ``kv_reduce`` selects how keys/values are spatially reduced:
      * "none"      -- full-token attention,
      * "pool"      -- project K/V at full resolution, then average-pool the
                       K/V maps by ``sr_ratio`` (used by the five-stage family),
      * "conv"      -- PVT-style: strided conv (kernel = stride = sr_ratio)
                       plus LN on the input map before the K/V projections.
    """

    def __init__(self, dim, heads, sr_ratio=1, kv_reduce="pool"):
        super().__init__()
        if dim % heads:
            raise ConfigError(f"attention dim {dim} not divisible by heads {heads}")
        if sr_ratio < 1:
            raise ConfigError(f"sr_ratio must be >= 1, got {sr_ratio}")
        if kv_reduce not in KV_REDUCE_KINDS:
            raise ConfigError(f"unknown kv_reduce {kv_reduce!r}")
        self.dim, self.heads, self.sr_ratio = dim, heads, sr_ratio
        self.head_dim = dim // heads
        self.scale = 1.0 / np.sqrt(self.head_dim)
        self.kv_reduce = kv_reduce if sr_ratio > 1 else "none"
        self.q = Linear(dim, dim)
        self.k = Linear(dim, dim)
        self.v = Linear(dim, dim)
        self.proj = Linear(dim, dim)
        if self.kv_reduce == "conv":
            self.sr_conv = Conv2d(dim, dim, sr_ratio, stride=sr_ratio, padding=0)
            self.sr_norm = LayerNorm(dim)

    # -- helpers -----------------------------------------------------------

    def _split_heads(self, x):
        b, n, _ = x.shape
        x = ops.reshape(x, (b, n, self.heads, self.head_dim))
        return ops.transpose(x, (0, 2, 1, 3))

    def _pool(self, tokens, h, w):
        hw = (h // self.sr_ratio, w // self.sr_ratio)
        return _tokens(ops.adaptive_avg_pool2d(_maps(tokens, h, w), hw))

    # -- forward -----------------------------------------------------------

    def forward_tokens(self, x, hw):
        """Attention over tokens (B, n, D); ``hw`` gives the 2D layout."""
        b, n, _ = x.shape
        h, w = hw
        if h * w != n:
            raise ShapeError(f"token count {n} does not match layout {h}x{w}")
        q = self._split_heads(self.q(x))
        kv = x
        if self.kv_reduce == "conv":
            kv = self.sr_norm(_tokens(self.sr_conv(_maps(x, h, w))))
        k, v = self.k(kv), self.v(kv)
        if self.kv_reduce == "pool":
            k, v = self._pool(k, h, w), self._pool(v, h, w)
        k, v = self._split_heads(k), self._split_heads(v)
        scores = ops.scale(ops.matmul(q, ops.transpose(k, (0, 1, 3, 2))), self.scale)
        out = ops.ordered_matmul(ops.softmax(scores, axis=-1), v)
        return self.proj(ops.reshape(ops.transpose(out, (0, 2, 1, 3)), (b, n, self.dim)))

    def forward(self, x):
        h, w = x.shape[2:]
        return _maps(self.forward_tokens(_tokens(x), (h, w)), h, w)


class TransformerBlock(Module):
    """Pre-norm attention plus convolutional feed-forward, both residual."""

    def __init__(self, dim, expansion, heads, sr_ratio=1, kv_reduce="pool",
                 attn_norm="ln", ffn_norm="bn", use_cffn=True):
        super().__init__()
        self.attn_norm = make_norm2d(attn_norm, dim)
        self.attn = Attention(dim, heads, sr_ratio, kv_reduce)
        ffn_cls = ConvFFNBlock if use_cffn else FFNBlock
        self.ffn = ffn_cls(dim, expansion, norm=ffn_norm)

    def forward(self, x):
        return self.ffn(ops.add(x, self.attn(self.attn_norm(x))))


class ClassifierHead(Module):
    """Global average pooling followed by the logit projection.

    With ``hidden`` set, a representation layer (FC + activation) precedes
    the logits, as in bottleneck-style classifier heads.
    """

    def __init__(self, cin, num_classes, hidden=None):
        super().__init__()
        self.hidden = hidden
        if hidden:
            self.pre = Linear(cin, hidden)
            self.act = GELU()
            self.fc = Linear(hidden, num_classes)
        else:
            self.fc = Linear(cin, num_classes)

    def forward(self, x):
        pooled = ops.global_avg_pool(x)
        if self.hidden:
            pooled = self.act(self.pre(pooled))
        return self.fc(pooled)

    def forward_dense(self, x):
        """Per-position logits (no pooling): classifier applied to each cell."""
        h, w = x.shape[2:]
        y = _tokens(x)
        if self.hidden:
            y = self.act(self.pre(y))
        return _maps(self.fc(y), h, w)


class ViTStem(Module):
    """Single large-kernel strided conv patchifier (stride 4, kernel 7)."""

    def __init__(self, cin, cout):
        super().__init__()
        self.proj = Conv2d(cin, cout, 7, stride=4, padding=3)
        self.norm = LayerNorm2d(cout)

    def forward(self, x):
        return self.norm(self.proj(x))


class ConvStem(Module):
    """Stacked 3x3 convolutions reducing to quarter resolution."""

    def __init__(self, cin, cout):
        super().__init__()
        mid = cout // 2
        self.conv1 = Conv2d(cin, mid, 3, stride=2, bias=False)
        self.norm1 = BatchNorm2d(mid)
        self.act1 = GELU()
        self.conv2 = Conv2d(mid, mid, 3, bias=False)
        self.norm2 = BatchNorm2d(mid)
        self.act2 = GELU()
        self.conv3 = Conv2d(mid, cout, 3, stride=2, bias=False)
        self.norm3 = BatchNorm2d(cout)
        self.act3 = GELU()
        self.conv4 = Conv2d(cout, cout, 1, bias=False)
        self.norm4 = BatchNorm2d(cout)

    def forward(self, x):
        y = self.act1(self.norm1(self.conv1(x)))
        y = self.act2(self.norm2(self.conv2(y)))
        y = self.act3(self.norm3(self.conv3(y)))
        return self.norm4(self.conv4(y))
