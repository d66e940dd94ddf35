"""Building blocks: stems, high-resolution blocks, downsamplers, attention.

Each module states its structure once: its parts as attributes, their use
in ``forward(x)``. Two views derive from it:

* ``trace(shape)`` -- shape inference plus static cost accounting
  (multiply-accumulates and elementwise op counts), obtained by running
  ``forward`` on an empty batch with ``_CostPass`` as the engine's observer
  (see :meth:`Module.trace`);
* the registry -- the attributes: a ``Tensor`` that requires grad is a
  parameter, any other ``Tensor`` a buffer, a ``Module`` a child.

Without a tape and in eval mode, the feed-forward blocks (``FFNBlock``,
``ConvFFNBlock``), the stem (``HighResStem``) and the high-resolution block
(``HighResBlock``) run their chain over bands of whole rows of a large map
(``ops._row_bands``, through :func:`_bands`), so an observer sees one call of
each part per band. A tape, training mode and the empty batch that ``trace``
runs give one pass, so the cost records are one pass's. Each of the four
states its chain once, as ``_band(x, r0, r1)``, the output rows ``[r0, r1)``,
and its one pass is the band of the whole map (:func:`_in_bands`).
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


# ops that only re-view or reorder their input cost nothing; attention's two
# contractions keep their established record names
_FREE_OPS = frozenset({"reshape", "transpose", "scale", "take_rows"})
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

    def call(self, module, x, **kw):
        path = self.paths[id(module)]
        cost = [sum(p.size for p in module._params.values()), 0, 0, 0]
        self.frames.append((path, cost, not module._children))
        try:
            out = module.forward(x, **kw)
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

    def __call__(self, x: Tensor, **kw) -> Tensor:
        if _tensor._observer is None:
            return self.forward(x, **kw)
        return _tensor._observer.call(self, x, **kw)

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
        padding = kernel // 2 if padding is None else padding
        ops._conv_settings(stride, padding, groups)
        if cin % groups or cout % groups:
            raise ConfigError(
                f"conv channels ({cin}->{cout}) not divisible by groups={groups}")
        self.cin = cin
        self.stride = stride
        self.padding = padding
        self.groups = groups
        self.weight = param((cout, cin // groups, kernel, kernel))
        self.bias = param((cout,)) if bias else None

    def forward(self, x, rows=None):
        """The conv of ``x``, or of the row window ``rows`` (``ops.Rows``)."""
        return ops.conv2d(x, self.weight, self.bias,
                          stride=self.stride, padding=self.padding,
                          groups=self.groups, rows=rows)


class Linear(Module):
    def __init__(self, din, dout):
        super().__init__()
        self.weight = param((dout, din))
        self.bias = param((dout,))

    def forward(self, x):
        return ops.linear(x, self.weight, self.bias)


class BatchNorm2d(Module):
    """eps and momentum are ``ops.batch_norm``'s defaults.

    ``inplace`` says that nothing reads the module's input after it, so an
    eval-mode result without a tape may overwrite it (``ops`` conventions);
    the module that wires this norm straight after the op making its input
    sets it.
    """

    def __init__(self, channels, inplace=False):
        super().__init__()
        self.inplace = inplace
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = param((channels,))
        self.running_mean = Tensor(np.zeros(channels))
        self.running_var = Tensor(np.ones(channels))

    def forward(self, x):
        return ops.batch_norm(x, self.gamma, self.beta,
                              self.running_mean.data, self.running_var.data,
                              self.training, inplace=self.inplace)


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
    """Exact-erf GELU whose no-tape result overwrites its input.

    Every GELU here follows a norm or linear layer whose fresh result
    nothing else reads, so the grant of ``ops.gelu(inplace=True)`` always
    holds; a caller that reads its input again must call ``ops.gelu``.
    """

    def forward(self, x):
        return ops.gelu(x, inplace=True)


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

    Every norm, activation and the sum run in place without a tape (``ops``
    conventions): each one's input is the result of the op before it.

    Without a tape and in eval mode, an output above ``ops.HIRES_BAND_BYTES``
    is never built whole, nor are the half-resolution maps: the chain runs
    over bands of output rows, each written into one output map. Each conv
    of a band computes the rows that the next one reads, halo rows included,
    from those its input holds (``ops.Rows``); the halo rows are computed
    again by the next band. One pass is the band of the whole map, and every
    banded output is bitwise that of one pass.
    """

    def __init__(self, cin, cout):
        super().__init__()
        mid = cout // 2
        self.entry = Conv2d(cin, mid, 3, stride=2, bias=False)
        self.entry_norm = BatchNorm2d(mid, inplace=True)
        self.entry_act = GELU()
        self.hi_dw = Conv2d(mid, mid, 3, groups=mid, bias=False)
        self.hi_norm = BatchNorm2d(mid, inplace=True)
        self.hi_act = GELU()
        self.hi_down = Conv2d(mid, cout, 3, stride=2, bias=False)
        self.lo_down = Conv2d(mid, cout, 3, stride=2, bias=False)
        self.lo_norm1 = BatchNorm2d(cout, inplace=True)
        self.lo_act1 = GELU()
        self.lo_expand = Conv2d(cout, 2 * cout, 3, bias=False)
        self.lo_norm2 = BatchNorm2d(2 * cout, inplace=True)
        self.lo_act2 = GELU()
        self.lo_project = Conv2d(2 * cout, cout, 1, bias=False)
        self.out_norm = BatchNorm2d(cout, inplace=True)

    def forward(self, x):
        n, c, h, w = x.shape
        if h % 4 or w % 4:
            raise ResolutionError(f"stem input {h}x{w} not divisible by 4")
        return _in_bands(self, x, (n, self.out_norm.gamma.shape[0], h // 4, w // 4))

    def _bounds(self, x):
        """Output-row boundaries of the bands (:func:`_bands`): one pass unless
        the output is a multiple of 16 columns wide, as every GEMM that makes
        halo rows (``entry``, ``hi_dw`` and ``lo_down``) then is."""
        n, _, h, w = x.shape
        if (w // 4) % 16:
            return [0, h // 4]
        # the smallest GEMMs per output column: entry's four, or lo_project's
        macs = min(4 * self.entry.weight.size, self.lo_project.weight.size)
        return _bands(self, x, self.entry.weight, h // 4, w // 4,
                      self.out_norm.gamma.shape[0], macs, ops.HIRES_BAND_BYTES)

    def _band(self, x, r0, r1):
        """Output rows ``[r0, r1)``: each conv computes the rows the next reads."""
        h = x.shape[2]
        lo0, lo1 = max(r0 - 1, 0), min(r1 + 1, h // 4)     # lo_down's: lo_expand reads them
        hi0 = max(2 * r0 - 1, 0)                           # hi_dw's first: hi_down reads it
        e0 = max(2 * lo0 - 1, 0)                           # entry's first: lo_down reads it
        e = self.entry_act(self.entry_norm(self.entry(x, rows=ops.Rows(e0, 2 * lo1, 0, h))))
        d = self.hi_act(self.hi_norm(self.hi_dw(e, rows=ops.Rows(hi0, 2 * r1, e0, h // 2))))
        hi = self.hi_down(d, rows=ops.Rows(r0, r1, hi0, h // 2))
        del d
        lo = self.lo_act1(self.lo_norm1(self.lo_down(e, rows=ops.Rows(lo0, lo1, e0, h // 2))))
        del e           # the half-resolution rows: both branches have read them
        lo = self.lo_act2(self.lo_norm2(self.lo_expand(lo, rows=ops.Rows(r0, r1, lo0, h // 4))))
        return self.out_norm(ops.add(hi, self.lo_project(lo), inplace=True))


class HighResBlock(Module):
    """Shape-preserving two-branch block for the first two stages.

    High branch: one depth-wise 3x3 on the full grid. Low branch: strided
    depth-wise 3x3 with BN, a position-wise feed-forward (1x1 convs with an
    activation), nearest-neighbor upsampling back to the full grid. Both
    branch outputs are added to the block input.

    Without a tape and in eval mode, a map above ``ops.HIRES_BAND_BYTES`` runs
    the chain over bands of rows, written into one output map, so neither
    the pre-norm map nor the upsampled low branch exists whole. A band
    normalizes its rows and the row on each side of them, and both
    depth-wise convs compute its rows from those (``ops.Rows``). One pass is
    the band of the whole map, and every banded output is bitwise that of
    one pass.
    """

    def __init__(self, channels, expansion):
        super().__init__()
        c, e = channels, expansion
        self.pre_norm = BatchNorm2d(c)          # its input, the block's, is read again
        self.hi_dw = Conv2d(c, c, 3, groups=c)
        self.lo_dw = Conv2d(c, c, 3, stride=2, groups=c, bias=False)
        self.lo_norm = BatchNorm2d(c, inplace=True)
        self.lo_fc1 = Conv2d(c, e * c, 1)
        self.lo_act = GELU()
        self.lo_fc2 = Conv2d(e * c, c, 1)

    def forward(self, x):
        n, c, h, w = x.shape
        if h % 2 or w % 2:
            raise ResolutionError(
                f"high-resolution block needs even spatial extents, got {h}x{w}")
        return _in_bands(self, x, x.shape)

    def _bounds(self, x):
        """Output-row boundaries of the bands (:func:`_bands`), cut as the low
        branch's map is, two output rows a row. A low row counts ``6 * c``
        channels of its columns, three halves of the two output rows it
        makes: a band holds its high branch beside its pre-norm rows and its
        low chain. No GEMM makes halo rows: only the elementwise ``pre_norm``
        does."""
        n, c, h, w = x.shape
        low = _bands(self, x, self.hi_dw.weight, h // 2, w // 2, 6 * c,
                     self.lo_fc1.weight.size, ops.HIRES_BAND_BYTES)
        return [2 * r for r in low]

    def _band(self, x, r0, r1):
        """Output rows ``[r0, r1)``: ``x + hi + upsample(lo)`` of them, the
        pre-norm rows computed with the row on each side that both depth-wise
        convs read."""
        h = x.shape[2]
        top = max(r0 - 1, 0)
        z = self.pre_norm(_rows(x, top, min(r1 + 1, h)))
        hi = self.hi_dw(z, rows=ops.Rows(r0, r1, top, h))
        lo = self.lo_dw(z, rows=ops.Rows(r0 // 2, r1 // 2, top, h))
        del z           # both branches have read it
        lo = self.lo_fc2(self.lo_act(self.lo_fc1(self.lo_norm(lo))))
        lo = ops.upsample_repeat(lo, 2)
        return ops.add(ops.add(_rows(x, r0, r1), hi, inplace=True), lo, inplace=True)


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
        self.norm1 = BatchNorm2d(mid, inplace=True)
        self.act1 = GELU()
        self.project = Conv2d(mid, cout, 1, bias=False)
        self.norm2 = BatchNorm2d(cout, inplace=True)
        self.act2 = GELU()
        self.sc_pool = sc_pool
        self.sc_project = Conv2d(cin, cout, 1)

    def forward(self, x):
        y = self.pre_pool(x)
        y = self.act1(self.norm1(self.reduce(y)))
        y = self.act2(self.norm2(self.project(y)))
        s = self.sc_project(self.sc_pool(x))
        return ops.add(y, s, inplace=True)


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
        self.norm1 = BatchNorm2d(mid, inplace=True)
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
        return ops.add(y, s, inplace=True)


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


def _bands(block, x, weight, rows, cols, channels, col_macs, cap):
    """Row boundaries of ``block``'s bands over a ``rows x cols`` map of
    ``channels``, ``cap`` bytes of it a band: :func:`ops._row_bands`,
    ``col_macs`` as there.

    One band when an op on ``x`` and ``weight`` records a tape, or in
    training mode, where a batch norm takes the statistics of the whole batch.
    """
    row_bytes = x.shape[0] * channels * cols * x.data.itemsize
    return ops._row_bands(rows, cols, row_bytes, cap, col_macs,
                          tape=block.training or _tensor.records_tape((x, weight)))


def _rows(x, r0, r1):
    """Rows ``[r0, r1)`` of ``x``: ``x`` itself for all of them, so a tape
    stays connected, otherwise a view without a tape."""
    return x if (r0, r1) == (0, x.shape[2]) else Tensor(x.data[:, :, r0:r1])


def _in_bands(block, x, shape):
    """``block``'s output of ``shape`` over the bands of ``block._bounds(x)``:
    in one band ``block._band(x, 0, rows)`` itself, otherwise each band's
    rows written into one map."""
    bounds = block._bounds(x)
    if len(bounds) == 2:
        return block._band(x, 0, bounds[1])
    out = np.empty(shape)
    for r0, r1 in zip(bounds, bounds[1:]):
        out[:, :, r0:r1] = block._band(x, r0, r1).data
    return Tensor(out, op="add")


class ConvFFNBlock(Module):
    """Residual convolutional feed-forward block.

    Pre-normalized; hidden = act(1x1 expand), then a residual depth-wise
    3x3 over the hidden map, then 1x1 projection back: out = x + FC2(DW(z) + z).

    Without a tape and in eval mode, a hidden map above
    ``ops.FFN_BAND_BYTES`` is never built whole: the chain runs over bands of
    whole rows (:func:`ops._row_bands`), each written into one output map,
    so an observer sees the chain's calls once per band. A band computes its
    hidden rows and one cut unit of rows on each side of them (``16 //
    gcd(W, 16)``, the step of :func:`ops._row_bands`), clipped to the map,
    and its depth-wise conv computes only the band's rows from those
    (``ops.Rows``). A whole unit keeps every GEMM of the band on a multiple
    of 16 columns, where a single halo row would not. The residual is
    written into the conv's output, and the hidden rows are dropped before
    the projection. One pass is the band of the whole map, and every banded
    output is bitwise that of one pass.
    """

    def __init__(self, channels, expansion, norm="bn"):
        super().__init__()
        c, e = channels, expansion
        self.pre_norm = make_norm2d(norm, c)
        self.fc1 = Conv2d(c, e * c, 1)
        self.act = GELU()
        self.dw = Conv2d(e * c, e * c, 3, groups=e * c)
        self.fc2 = Conv2d(e * c, c, 1)

    def _bounds(self, x):
        """Row boundaries of the bands (:func:`_bands`): a band of the hidden
        map and of its depth-wise conv's output."""
        fc1 = self.fc1.weight
        return _bands(self, x, fc1, *x.shape[2:], 2 * fc1.shape[0], fc1.size,
                      ops.FFN_BAND_BYTES)

    def forward(self, x):
        return _in_bands(self, x, x.shape)

    def _band(self, x, r0, r1):
        """Output rows ``[r0, r1)``: ``x + FC2(DW(z) + z)`` of them, ``z``
        computed with the halo rows that ``dw`` reads."""
        h, w = x.shape[2:]
        unit = 16 // math.gcd(w, 16)
        t0, t1 = max(r0 - unit, 0), min(r1 + unit, h)
        z = self.act(self.fc1(self.pre_norm(_rows(x, t0, t1))))
        y = ops.add(_rows(z, r0 - t0, r1 - t0), self.dw(z, rows=ops.Rows(r0, r1, t0, h)),
                    inplace=True)
        del z
        return ops.add(_rows(x, r0, r1), self.fc2(y), inplace=True)


class FFNBlock(Module):
    """Residual position-wise feed-forward block (no depth-wise conv).

    Without a tape and in eval mode, a hidden map above
    ``ops.FFN_BAND_BYTES`` is never built whole: the chain runs over bands of
    whole rows (see :class:`ConvFFNBlock`).
    """

    def __init__(self, channels, expansion, norm="ln"):
        super().__init__()
        c, e = channels, expansion
        self.pre_norm = make_norm2d(norm, c)
        self.fc1 = Conv2d(c, e * c, 1)
        self.act = GELU()
        self.fc2 = Conv2d(e * c, c, 1)

    def _bounds(self, x):
        """Row boundaries of the bands (:func:`_bands`): a band of the hidden map."""
        fc1 = self.fc1.weight
        return _bands(self, x, fc1, *x.shape[2:], fc1.shape[0], fc1.size, ops.FFN_BAND_BYTES)

    def forward(self, x):
        return _in_bands(self, x, x.shape)

    def _band(self, x, r0, r1):
        """Output rows ``[r0, r1)``."""
        x = _rows(x, r0, r1)
        return ops.add(x, self.fc2(self.act(self.fc1(self.pre_norm(x)))), inplace=True)


def _tokens(x_map):
    b, c, h, w = x_map.shape
    return ops.transpose(ops.reshape(x_map, (b, c, h * w)), (0, 2, 1))


def _maps(tokens, h, w):
    b, n, c = tokens.shape
    return ops.reshape(ops.transpose(tokens, (0, 2, 1)), (b, c, h, w))


def _key_order(k, v):
    """Per batch element, the stable order of the tokens ``(B, n, D)`` of k and
    v by their bytes: k row, then v row. Tokens that tie have identical k and
    v rows, so they give identical terms in every head, and each reduction
    over the ordered keys runs in one order, whatever the input order."""
    kv = np.ascontiguousarray(np.concatenate([k.data, v.data], axis=-1))
    items = kv.view(np.dtype((np.void, kv.shape[-1] * kv.itemsize)))[..., 0]
    return np.argsort(items, axis=-1, kind="stable")


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
        order = _key_order(k, v)
        k, v = (self._split_heads(ops.take_rows(t, order)) for t in (k, v))
        scores = ops.scale(ops.matmul(q, ops.transpose(k, (0, 1, 3, 2))), self.scale,
                           inplace=True)
        del q
        out = ops.ordered_matmul(ops.softmax(scores, axis=-1, inplace=True), v)
        del scores          # (n, n_kv) per head: not alive through the projection
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
        self.norm1 = BatchNorm2d(mid, inplace=True)
        self.act1 = GELU()
        self.conv2 = Conv2d(mid, mid, 3, bias=False)
        self.norm2 = BatchNorm2d(mid, inplace=True)
        self.act2 = GELU()
        self.conv3 = Conv2d(mid, cout, 3, stride=2, bias=False)
        self.norm3 = BatchNorm2d(cout, inplace=True)
        self.act3 = GELU()
        self.conv4 = Conv2d(cout, cout, 1, bias=False)
        self.norm4 = BatchNorm2d(cout, inplace=True)

    def forward(self, x):
        y = self.act1(self.norm1(self.conv1(x)))
        y = self.act2(self.norm2(self.conv2(y)))
        y = self.act3(self.norm3(self.conv3(y)))
        return self.norm4(self.conv4(y))
