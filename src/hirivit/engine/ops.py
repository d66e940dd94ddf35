"""Differentiable primitives over :class:`~hirivit.engine.tensor.Tensor`.

Conventions
-----------
* A backward closure keeps what its gradient reads: arrays and shapes, never
  an input ``Tensor`` other than a parameter. The tape holds only nodes
  (``tensor._Node``), so an op result whose array no closure keeps is freed
  as soon as the caller drops it, long before ``backward``.
* conv2d implements cross-correlation (no kernel flip). Forward is im2col
  plus one GEMM per sample and group, in L2-sized blocks of groups: each
  block's patch matrix is built and multiplied before the next block's is
  built, so it is read back from cache, not from memory. A block whose
  patch matrix exceeds ``CONV_PATCH_CAP`` (an ungrouped conv, or one large
  depthwise group) is built and multiplied in blocks of whole output rows,
  written into the preallocated output. No whole-map padded copy is made:
  each block zero-pads only its own channels and the input rows it reads
  (``_patches``). So the working set of a forward conv is its input, its
  output, at most the cap of patches and one block's padded rows, not the
  kh*kw-fold im2col expansion. Backward rebuilds the patch matrix in
  blocks of whole groups and forms the weight gradient as the same GEMMs
  of ``g`` against it, summed over the batch; splitting it by rows would
  reorder its sums over output positions. For stride 1 the input gradient
  is the forward kernel, row blocks included, applied to ``g`` with the
  flipped, channel-transposed kernel at padding ``k - 1 - p``; strided
  convs scatter-add the column gradient one kernel tap at a time, each
  tap clipped to the input, into the C-contiguous input gradient. An
  input that does not require grad gets none. Blocks of groups change no
  GEMM. A row block only cuts a GEMM's columns, on the steps of
  ``_row_bands``, and stays on the GEMM path of the whole map, so outputs
  and gradients are bitwise equal to one-block runs (checked on OpenBLAS
  0.3.31), and results do not depend on either block size.
* One rule, :func:`_row_bands`, cuts a map into bands of whole rows, both the
  conv's row blocks and the bands in which no-tape eval-mode blocks run
  their whole chain, so that their large maps never exist whole: the
  feed-forward blocks' hidden map (``FFN_BAND_BYTES``), and the maps of
  ``blocks.HighResStem`` and ``blocks.HighResBlock`` (``HIRES_BAND_BYTES``).
  A band's 3x3 convs compute only its rows, from a slab of their input that
  holds the rows they read (a row window, :class:`Rows`), zero-padded only
  at the map's true edges. A window over the whole map is no window, so a
  block's one pass is its band of the whole map, tape or not. Each band's
  GEMMs stay on the whole map's BLAS path, and cuts fall on multiples of
  16 columns, where a column keeps the bits it gets in the whole map (see
  :func:`_row_bands`), so bands change no bit. A tape, an empty batch or a
  block in training mode gives one pass, so the analyzer's empty-batch
  trace records what one pass records.
* ``gelu`` runs SciPy's ``erf`` on ``|x / sqrt(2)|`` and restores the sign
  with ``copysign``. SciPy's ``erf`` computes ``erf(-t)`` as ``-erf(t)``, so
  the bits are those of ``erf(x / sqrt(2))``, but no element takes the
  sign branch that random signs mispredict (about half of ``erf``'s time).
  The whole chain runs over flat ``CONV_BLOCK_BYTES`` blocks of one output
  buffer, each still in cache for its next step. When no tape will keep
  ``phi`` (``tensor.records_tape``), the product with ``x`` is the chain's
  last step, bitwise equal to the taped result.
* A no-tape op may overwrite its input only when its caller grants it with
  ``inplace=True``: ``gelu``, ``scale``, ``softmax``, eval-mode
  ``batch_norm``, and ``add``, whose grant covers its second operand. Only
  the code that wires an op straight after the op that made its input knows
  that nothing reads that input again, so the grant is made there, never
  inferred. The op honours it only when it records no tape, and only into a
  writable C-contiguous array of the result's shape, so the result keeps
  the layout a new array would get (see :func:`_reusable`).
  Every value is bitwise the one a new array would hold.
* Reductions sum in the order their axis holds. ``blocks.Attention`` puts
  its keys in one canonical order (``take_rows``), so attention does not
  depend on the key order. Every BLAS product is the canonical one
  (:class:`_Canonical`), whose BLAS calls cover whole tiles of columns and
  aligned contractions, so its bits depend neither on the BLAS thread
  count nor on where a row sits, and a permutation of the query rows
  permutes both attention products' rows bitwise.
* Every BLAS call goes through a swappable backend's ``matmul``: the
  canonical product, or the MAC-counting loops of
  ``reference.CountingBackend`` (``use_backend``), which do not pad. Only
  the product is swapped, so the conv's blocks, row windows and 1x1 views
  run as they do by default. The forward callers are the conv's block
  GEMMs (those of the stride-1 input gradient too), ``matmul``, ``linear``
  (plus a bias) and ``ordered_matmul``; each passes its contraction length
  ``k`` to ``make_result`` for the engine's observer. The backward products
  of ``matmul``, ``linear`` and the conv call it too. Adaptive pooling's
  averaging products call the canonical product itself, since they are no
  contraction of the FLOP convention.
"""

from __future__ import annotations

import contextlib
import math
from typing import NamedTuple

import numpy as np
from scipy.special import erf

from ..errors import ConfigError, ResolutionError, ShapeError
from .tensor import Tensor, make_result, records_tape

INV_SQRT2 = float(1.0 / np.sqrt(2.0))
INV_SQRT2PI = float(1.0 / np.sqrt(2.0 * np.pi))
# Patch-matrix bytes per block of conv groups, and bytes per block of gelu's
# elementwise chain. Measured on a 2 MB-per-core L2 host, 256 KB to 1 MB blocks
# ran the depthwise shapes of HiRI-ViT-S@448 and the micro model equally fast,
# and 2 MB and up ran them slower; 128 KB to 1 MB blocks ran the GELUs of the
# S@448 and ladder-row-1@224 forwards equally fast, and 2 MB ran them slower.
CONV_BLOCK_BYTES = 1 << 19
# Cap on the patch-matrix bytes of one forward block. A block of groups above
# it (an ungrouped conv, or one large depthwise group) is built and multiplied
# in blocks of whole output rows, so the cap, not the im2col expansion, bounds
# the working set. In a 256 KB-8 MB sweep over the dense convs and the stem's
# depthwise conv of HiRI-ViT-S@448, 1-4 MB ran them as fast as one block or
# faster and 512 KB and below ran the dense ones slower. With each block padded
# on its own, the S@448 forward's activation peak (tracemalloc, batch 1) is
# 16.8 MB at 1 MB, 18.2 MB at 2 MB, 20.3 MB at 4 MB and 43.0 MB unbounded.
CONV_PATCH_CAP = 2 << 20
# Bytes of the hidden map that a no-tape feed-forward block holds at once when
# it runs in row bands (``blocks.FFNBlock`` one band, ``blocks.ConvFFNBlock`` a
# band, its halo rows and its depth-wise conv's output; see :func:`_row_bands`).
# Narrower GEMMs run slower: in a 2-16 MB sweep of the ladder-row-1@224 eval
# forward (60 interleaved pairs against one pass, 2 CPUs, OpenBLAS at 2
# threads) the median forward cost +5.4, +6.7, +5.0, +1.9, +2.5 and +0.3% at
# 2, 3, 4, 5, 6 and 8 MB. 5 and 6 MB give that model the same bands, within
# 3%; 6 MB gives the stage-3 blocks of HiRI-ViT-S two bands instead of three.
# Its tracemalloc eval peak is 11.1 MB for ladder row 1@224 and 11.7 MB for
# row 4@224, against 18.4 and 34.2 MB in one pass; 8 MB would leave row 1 two
# 6.4 MB bands (13.9 MB, measured while a band's result outlived the next
# band's chain).
FFN_BAND_BYTES = 6 << 20
# Bytes of a band of the output of a no-tape ``blocks.HighResStem`` or
# ``blocks.HighResBlock`` (the block cuts its low branch's rows, two output
# rows each, and counts them one and a half times: a band holds its high
# branch beside its pre-norm rows and its low chain). In a sweep of the
# HiRI-ViT-S@448 eval forward (tracemalloc, batch 1, seed-0 weights and
# input), the peak was 11.0, 11.4 and 11.7 MB at 0.75, 1 and 1.5 MB, each in
# ``stage1.block2.lo_dw`` above three live 1x32x112x112 maps (9.2 MB),
# against 18.2 MB in one pass; the stem ran 5, 4 and 3 bands and a stage-1
# block 7, 5 and 4. Counted by its output rows alone, a stage-1 block ran 3
# bands at 1.5 MB and the peak was 12.4 MB. In ten alternating process
# pairs (medians of 15 forwards, 2 CPUs, OpenBLAS at 2 threads) the stem took
# 57.5, 55.8 and 65.0 ms and stage 1 26.2, 25.0 and 30.0 ms. Each band pays
# its ops' call overheads, but the stem's quartiles spanned 16-22 ms and
# stage 1's 5-8 ms, so the sweep ranks no bound by time. FFN_BAND_BYTES
# cannot serve these blocks: at 6 MB both run in one pass.
HIRES_BAND_BYTES = 3 << 19


# ---------------------------------------------------------------------------
# kernel backends
# ---------------------------------------------------------------------------

class _Canonical:
    """The default product: ``np.matmul`` in aligned pieces, so that an
    entry's bits depend neither on the BLAS thread count nor on where its
    row sits in the product.

    OpenBLAS sums an entry of an edge micro-tile, or of a contraction split
    into K-panels, in another order than an entry of a whole tile or panel,
    and which entries fall on an edge depends on the shape and on how the
    product is split over threads (Goto and van de Geijn, "Anatomy of
    High-Performance Matrix Multiplication", TOMS 2008). The tiles run
    along the columns, so every BLAS call covers a multiple of 16 of them
    (:func:`_aligned_columns`). A contraction longer than 384 is summed as
    its first multiple of 32 plus the rest: at 2 threads against 1, every
    probed length in (384, 2192] that is no multiple of 32 gave other bits,
    and every multiple of 32 the same. Rows need no such care: padding them
    to a multiple of 16 as well changed no bit of a sampled product unless
    it moved the product onto another OpenBLAS kernel. A single row (a
    depth-wise group's matrix-vector product, a batch-1 head), a
    contraction of length 1 (one multiply an entry, no sum to order) and an
    empty product pass through as one ``np.matmul``.
    """

    @staticmethod
    def matmul(a, b, out=None):
        m, k = a.shape[-2:]
        if m == 1 or k == 1 or not (a.size and b.size):
            return np.matmul(a, b, out=out)
        k1 = k if k <= 384 else k - k % 32
        out = _aligned_columns(a[..., :k1], b[..., :k1, :], out)
        if k1 < k:
            # the rest, added in blocks of rows of one shape (the last
            # zero-padded), so that a row's bits do not depend on its block
            # and no more than a block of the result is held twice
            step = min(m, 256)
            for r0 in range(0, m, step):
                rows = np.zeros(a.shape[:-2] + (step, k - k1))
                rows[..., :m - r0, :] = a[..., r0:r0 + step, k1:]
                out[..., r0:r0 + step, :] += _aligned_columns(rows, b[..., k1:, :])[..., :m - r0, :]
        return out


def _aligned_columns(a, b, out=None):
    """``a @ b`` as one product of its last 16 columns and one of its columns
    up to the last multiple of 16, both written in place, the second over
    the first, so only the last ``n % 16`` columns keep the first's values;
    no operand is copied. Fewer than 16 columns are zero-padded to 16. Each
    product spans whole tiles, so a column's bits are set by its offset
    from the first column, or, among the last ``n % 16``, from the last,
    whatever the thread count."""
    n = b.shape[-1]
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], n))
    if n >= 16:
        if n % 16:
            np.matmul(a, b[..., n - 16:], out=out[..., n - 16:])
        np.matmul(a, b[..., :n - n % 16], out=out[..., :n - n % 16])
    else:
        tail = np.zeros(b.shape[:-1] + (16,))
        tail[..., :n] = b
        out[...] = np.matmul(a, tail)[..., :n]
    return out


# the product every BLAS call of this module makes: the canonical one, or
# ``reference.CountingBackend``'s loops
_backend = _Canonical


@contextlib.contextmanager
def use_backend(backend):
    global _backend
    prev = _backend
    _backend = backend
    try:
        yield backend
    finally:
        _backend = prev


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse a NumPy broadcast)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _reusable(x: Tensor, parents: tuple) -> bool:
    """Whether an op granted ``inplace`` may write its result into ``x``'s array.

    Only without a tape, and only into a writable C-contiguous array, so the
    result keeps the layout a new array would get.
    """
    return not records_tape(parents) and x.data.flags.writeable and x.data.flags.c_contiguous


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor, inplace: bool = False) -> Tensor:
    """``a + b``; ``inplace`` grants writing a no-tape result into ``b``.

    ``b`` must then be a temporary that nothing reads again, as the residual
    branch of ``x + f(x)`` is. Only operands of one shape qualify. NumPy
    lays ``a + b`` out C-contiguously whenever ``b`` is, whatever the layout
    of ``a``, so writing into a C-contiguous ``b`` keeps the layout.
    """
    reuse = inplace and a.shape == b.shape and _reusable(b, (a, b))
    data = np.add(a.data, b.data, out=b.data if reuse else None)
    sa, sb = a.shape, b.shape

    def bw(g):
        return (_unbroadcast(g, sa), _unbroadcast(g, sb))

    return make_result(data, (a, b), "add", bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    data = ad * bd

    def bw(g):
        return (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape))

    return make_result(data, (a, b), "mul", bw)


def scale(a: Tensor, s: float, inplace: bool = False) -> Tensor:
    """``a * s``; ``inplace`` grants writing a no-tape result into ``a``."""
    reuse = inplace and _reusable(a, (a,))
    data = np.multiply(a.data, s, out=a.data if reuse else None)

    def bw(g):
        return (g * s,)

    return make_result(data, (a,), "scale", bw)


def reshape(a: Tensor, shape) -> Tensor:
    shape, sa = tuple(shape), a.shape
    data = a.data.reshape(shape)

    def bw(g):
        return (g.reshape(sa),)

    return make_result(data, (a,), "reshape", bw)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    data = np.transpose(a.data, axes)
    inv = tuple(np.argsort(axes))

    def bw(g):
        return (np.transpose(g, inv),)

    return make_result(data, (a,), "transpose", bw)


def take_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """``x[b, index[b]]`` for each ``b`` of axis 0; ``index[b]`` permutes axis 1."""
    rows, sx = np.arange(x.shape[0])[:, None], x.shape
    data = x.data[rows, index]

    def bw(g):
        gx = np.empty(sx, g.dtype)
        gx[rows, index] = g
        return (gx,)

    return make_result(data, (x,), "take_rows", bw)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    sa = a.shape

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, sa).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, sa).copy(),)

    return make_result(data, (a,), "sum", bw)


# ---------------------------------------------------------------------------
# dense linear algebra
# ---------------------------------------------------------------------------

def _product(a: Tensor, b: Tensor, op: str) -> Tensor:
    """``a @ b``, recorded as ``op``."""
    _check_inner(a, b)
    ad, bd = a.data, b.data

    def bw(g):
        ga = _backend.matmul(g, np.swapaxes(bd, -1, -2))
        gb = _backend.matmul(np.swapaxes(ad, -1, -2), g)
        return (_unbroadcast(ga, ad.shape), _unbroadcast(gb, bd.shape))

    return make_result(_backend.matmul(ad, bd), (a, b), op, bw, a.shape[-1])


def _check_inner(a: Tensor, b: Tensor):
    """Refuse a product whose operands disagree or that NumPy cannot allocate.

    NumPy refuses an array whose nonzero extents times its item size exceed
    ``intp``, even when another extent is 0 (the analyzer's empty batch).
    """
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.shape} x {b.shape}"
            f" (axis -1 of lhs is {a.shape[-1]}, axis -2 of rhs is {b.shape[-2]})")
    out = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (a.shape[-2], b.shape[-1])
    if math.prod(filter(None, out)) * 8 > np.iinfo(np.intp).max:
        raise ResolutionError(
            f"matmul product of {a.shape} x {b.shape} would be a {out} array,"
            " too large to allocate")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return _product(a, b, "matmul")


def ordered_matmul(a: Tensor, b: Tensor) -> Tensor:
    """The attention x values product: :func:`matmul` under its own op name,
    which the cost records (``av``) and the benchmark key on. Like every
    product, a permutation of the rows of ``a`` permutes its output rows
    bitwise (see :class:`_Canonical`).
    """
    return _product(a, b, "ordered_matmul")


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    din = x.shape[-1]
    dout, din_w = weight.shape
    if din != din_w:
        raise ShapeError(
            f"linear input feature axis {din} does not match weight columns {din_w}")
    lead, sx, w, has_bias = x.shape[:-1], x.shape, weight.data, bias is not None
    x2 = x.data.reshape(-1, din)
    y2 = _backend.matmul(x2, w.T)
    if has_bias:
        y2 = y2 + bias.data
    data = y2.reshape(*lead, dout)
    parents = (x, weight, bias) if has_bias else (x, weight)

    def bw(g):
        g2 = g.reshape(-1, dout)
        gx = _backend.matmul(g2, w).reshape(sx)
        gw = _backend.matmul(g2.T, x2)
        if not has_bias:
            return (gx, gw)
        return (gx, gw, g2.sum(axis=0))

    return make_result(data, parents, "linear", bw, din)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _conv_out_hw(h, w, kh, kw, sh, sw, ph, pw):
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    return oh, ow


class Rows(NamedTuple):
    """A row window of a conv: its output rows ``[r0, r1)`` over a map
    ``height`` rows high, of which the conv's input holds the rows from
    ``top`` on (a slab), with every row those outputs read."""

    r0: int
    r1: int
    top: int
    height: int


class _Windows(NamedTuple):
    """A conv's windows over its unpadded input ``x``.

    ``shape`` is that of the ``(N, g, cing, kh, kw, OH, OW)`` window view of
    the zero-padded input, which is never built: :func:`_patches` pads one
    block at a time. Under a row window ``rows``, ``x`` is a slab of the map
    and ``OH`` counts the window's output rows; otherwise ``rows`` covers the
    map.
    """

    x: np.ndarray
    stride: tuple
    padding: tuple
    shape: tuple
    rows: Rows

    @property
    def itemsize(self) -> int:
        return self.x.itemsize


def _windows(x, kh, kw, stride, padding, groups, rows=None):
    n, cin, h, w = x.shape
    oh, ow = _conv_out_hw(h, w, kh, kw, *stride, *padding)
    rows = rows or Rows(0, oh, 0, h)
    return _Windows(x, stride, padding,
                    (n, groups, cin // groups, kh, kw, rows.r1 - rows.r0, ow), rows)


def _row_bands(rows, cols, row_bytes, cap, col_macs=0, tape=False):
    """Boundaries ``[0, ..., rows]`` of bands of whole rows of a ``rows x cols``
    map, ``row_bytes`` a row, for a no-tape chain whose GEMMs cut only columns.

    One band under a tape, for an empty batch (no bytes), or when the map
    fits ``cap``. Otherwise the fewest bands that fit, as even as steps of
    ``unit`` rows allow, the last band ending at the map's last row. A step
    is a multiple of 16 columns, so a column keeps its offset from the
    band's first column, or, in the last band, from its last, which set its
    bits in the canonical product (:func:`_aligned_columns`), and every
    band but the last is one BLAS call. A depth-wise conv's matrix-vector
    products, which pass through unpadded, likewise sum their last
    ``L mod 4`` columns in another order, and a band ending on a step has
    no such tail. Cuts at any row changed the banded outputs of 56-column
    feed-forward blocks, whose 16-column tails ran on OpenBLAS's
    small-matrix kernel, and the logits of ladder row 4 at 64x64. Each band
    also stays on the whole map's GEMM path: OpenBLAS runs GEMMs of at most
    100**3 MACs on a small-matrix kernel, which sums a contraction of 512
    or more in another order even on aligned shapes
    (``(64, 768) @ (768, 16)`` differs from the same columns of a
    3136-column product, at 1 and at 2 threads). ``col_macs`` is the MACs
    of one column of the band's smallest GEMM; 0 when it has none (a
    matrix-vector product has one path).
    """
    if tape or rows * row_bytes <= cap:
        return [0, rows]
    unit = 16 // math.gcd(cols, 16)
    units, whole = -(-rows // unit), rows // unit      # the last unit may be short
    bands = -(-units // max(1, cap // (unit * row_bytes)))
    unit_macs = col_macs * cols * unit
    if col_macs and units * unit_macs > 100**3:
        # every band, the last without its short unit, above the floor
        bands = max(1, min(bands, whole // (100**3 // unit_macs + 1)))
    return [unit * (units * i // bands) for i in range(bands)] + [rows]


def _row_bounds(win, groups_per_block, coutg):
    """Output-row boundaries of the forward blocks of ``groups_per_block``
    groups: :func:`_row_bands` of their patch matrix under ``CONV_PATCH_CAP``,
    whose GEMMs have ``coutg`` rows."""
    n, _, cing, kh, kw, oh, ow = win.shape
    k = cing * kh * kw
    return _row_bands(oh, ow, n * groups_per_block * k * ow * win.itemsize,
                      CONV_PATCH_CAP, coutg * k if coutg > 1 else 0)


def _blocks(win, coutg=None):
    """Yield ``(g0, g1, r0, r1)``: blocks of whole groups and output rows.

    A block holds as many groups as fit in ``CONV_BLOCK_BYTES`` (at least
    one), so its patch matrix is still in cache when its GEMMs read it; an
    ungrouped conv is one block of groups. Given the GEMMs' row count
    ``coutg``, a block above ``CONV_PATCH_CAP`` is split into blocks of output
    rows (see :func:`_row_bounds`); without it, every block has all rows.
    """
    n, groups, cing, kh, kw, oh, ow = win.shape
    step = max(1, CONV_BLOCK_BYTES // max(n * cing * kh * kw * oh * ow * win.itemsize, 1))
    for g0 in range(0, groups, step):
        g1 = min(g0 + step, groups)
        bounds = [0, oh] if coutg is None else _row_bounds(win, g1 - g0, coutg)
        for r0, r1 in zip(bounds, bounds[1:]):
            yield g0, g1, r0, r1


def _patches(win, g0, g1, r0, r1):
    """The ``(N, g1 - g0, cing*kh*kw, (r1 - r0)*OW)`` patch matrix of a block.

    Only the block is zero-padded: its channels, and the input rows that its
    output rows read, halo included, go into a buffer of the padded rows
    and columns its windows span. A block that reads no padding views its
    input instead, so a 1x1 stride-1 conv without padding on a C-contiguous
    input gets a view, not a copy. The read-only window view is built with
    ``np.ndarray`` over the C-contiguous array the block's source is cut from
    (the padded buffer, or the input), several times cheaper a call than
    ``as_strided``, which it falls back to for any other input.
    """
    n, _, cing, kh, kw, _, ow = win.shape
    (sh, sw), (ph, pw) = win.stride, win.padding
    x = win.x[:, g0 * cing:g1 * cing]
    w = x.shape[3]
    r0, r1, slab, h = r0 + win.rows.r0, r1 + win.rows.r0, win.rows.top, win.rows.height
    # the block reads padded rows [r0*sh, (r1-1)*sh + kh) and padded columns
    # [0, (ow-1)*sw + kw); top, bottom and right are in map coordinates, and
    # the map's row i is the slab's row i - slab
    top, bottom, right = r0 * sh - ph, (r1 - 1) * sh + kh - ph, (ow - 1) * sw + kw - pw
    if top >= 0 and bottom <= h and not pw:
        src = x[:, :, top - slab:bottom - slab, :right]
        owner, offset = win.x, g0 * cing * x.strides[1] + (top - slab) * x.strides[2]
    else:
        src = np.zeros((n, x.shape[1], bottom - top, right + pw), dtype=x.dtype)
        i0 = max(top, 0)
        i1, j1 = max(min(bottom, h), i0), max(min(right, w), 0)
        src[:, :, i0 - top:i1 - top, pw:pw + j1] = x[:, :, i0 - slab:i1 - slab, :j1]
        owner, offset = src, 0
    s0, s1, s2, s3 = src.strides
    shape = (n, g1 - g0, cing, kh, kw, r1 - r0, ow)
    strides = (s0, s1 * cing, s1, s2, s3, s2 * sh, s3 * sw)
    if owner.flags.c_contiguous and owner.size:
        cols = np.ndarray(shape, src.dtype, owner, offset, strides)
        cols.flags.writeable = False
    else:
        cols = np.lib.stride_tricks.as_strided(src, shape, strides, writeable=False)
    return np.ascontiguousarray(cols.reshape(n, g1 - g0, cing * kh * kw, (r1 - r0) * ow))


def _group_blocks(win):
    """Yield ``(g0, g1, cols)`` over blocks of whole groups with all output rows."""
    oh = win.shape[-2]
    for g0, g1, _, _ in _blocks(win):
        yield g0, g1, _patches(win, g0, g1, 0, oh)


def _conv2d_fast(x, w, bias, stride, padding, groups, rows=None):
    n = x.shape[0]
    cout, cing, kh, kw = w.shape
    win = _windows(x, kh, kw, stride, padding, groups, rows)
    oh, ow = win.shape[-2:]
    w2 = w.reshape(groups, cout // groups, cing * kh * kw)
    out = np.empty((n, groups, cout // groups, oh * ow), dtype=x.dtype)
    # a 1x1 stride-1 conv's patch matrix is a view of its input: nothing to bound
    coutg = None if kh == kw == 1 and stride == (1, 1) else cout // groups
    for g0, g1, r0, r1 in _blocks(win, coutg):
        # built inside the call, so one block's patch matrix is alive at a time
        _backend.matmul(w2[g0:g1], _patches(win, g0, g1, r0, r1),
                        out=out[:, g0:g1, :, r0 * ow:r1 * ow])
    out = out.reshape(n, cout, oh, ow)
    if bias is not None:
        out += bias.reshape(1, cout, 1, 1)
    return out


def _taps(k, s, p, n_out, n_in):
    """``(i, output slice, input slice)`` along one axis for each kernel tap
    ``i`` that reads the input: the output positions ``o`` whose input
    position ``o*s + i - p`` lies in ``[0, n_in)``, and those positions."""
    taps = []
    for i in range(k):
        o0 = max(0, -((i - p) // s))
        o1 = min(n_out, (n_in - 1 + p - i) // s + 1)
        if o1 > o0:
            x0 = o0 * s + i - p
            taps.append((i, slice(o0, o1), slice(x0, x0 + (o1 - o0 - 1) * s + 1, s)))
    return taps


def _conv2d_input_grad(g, w, padding, groups):
    """Input gradient of a stride-1 conv: ``g`` correlated with the flipped,
    channel-transposed kernel at padding ``k - 1 - p``.

    A padding beyond ``k - 1`` crops ``g`` instead.
    """
    cout, cing, kh, kw = w.shape
    ph, pw = kh - 1 - padding[0], kw - 1 - padding[1]
    ch, cw = max(-ph, 0), max(-pw, 0)
    if ch or cw:
        g = g[:, :, ch:g.shape[2] - ch, cw:g.shape[3] - cw]
    wt = w.reshape(groups, cout // groups, cing, kh, kw).swapaxes(1, 2)
    wt = wt.reshape(groups * cing, cout // groups, kh, kw)[:, :, ::-1, ::-1]
    return _conv2d_fast(g, wt, None, (1, 1), (max(ph, 0), max(pw, 0)), groups)


def _conv_settings(stride, padding, groups: int):
    """``(stride, padding)`` as (h, w) pairs; ``ConfigError`` unless every
    stride and ``groups`` are at least 1 and no padding is negative."""
    stride = (stride, stride) if isinstance(stride, int) else tuple(stride)
    padding = (padding, padding) if isinstance(padding, int) else tuple(padding)
    if groups < 1 or min(stride) < 1 or min(padding) < 0:
        raise ConfigError(f"conv2d needs groups >= 1, stride >= 1 and padding >= 0,"
                          f" got groups={groups}, stride={stride}, padding={padding}")
    return stride, padding


def _check_rows(rows: Rows, h: int, oh: int, kh: int, sh: int, ph: int, tape: bool):
    """Refuse a row window on a tape, or one whose output rows are not in the
    map or read rows that the slab of ``h`` rows does not hold."""
    r0, r1, top, height = rows
    if tape:
        raise ShapeError("conv2d takes a row window only without a tape")
    reads = (max(r0 * sh - ph, 0), min((r1 - 1) * sh + kh - ph, height))
    if not 0 <= r0 < r1 <= oh or reads[0] < top or reads[1] > top + h:
        raise ShapeError(f"conv2d row window {rows} reads map rows {reads}, but its"
                         f" input holds rows [{top}, {top + h}) of {height}")


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride=(1, 1), padding=(0, 0), groups: int = 1, rows: Rows | None = None) -> Tensor:
    """Cross-correlation of an NCHW map, or, given ``rows``, the output rows
    ``[rows.r0, rows.r1)`` of the conv over a map of which ``x`` is a slab
    (:class:`Rows`; without a tape only, unless it covers the whole map,
    ``Rows(0, OH, 0, H)``, which is no window). A window zero-pads only at the
    map's true edges, and its rows are bitwise the whole map's wherever the
    GEMMs that make them stay on the whole map's BLAS path (see the notes)."""
    stride, padding = _conv_settings(stride, padding, groups)
    if x.ndim != 4:
        raise ShapeError(f"conv2d expects NCHW input, got {x.shape}")
    n, cin, h, w_in = x.shape
    cout, cing, kh, kw = weight.shape
    if cin % groups or cout % groups:
        raise ShapeError(
            f"channels not divisible by groups: Cin={cin}, Cout={cout}, groups={groups}")
    if cing != cin // groups:
        raise ShapeError(
            f"weight channel axis {cing} does not match Cin/groups = {cin // groups}")
    sh, sw = stride
    ph, pw = padding
    oh, ow = _conv_out_hw(h if rows is None else rows.height, w_in, kh, kw, sh, sw, ph, pw)
    if oh < 1 or ow < 1:
        raise ResolutionError(
            f"conv2d output underflows: input {h}x{w_in}, kernel {kh}x{kw},"
            f" stride {sh}x{sw}, padding {ph}x{pw} -> {oh}x{ow}")
    parents = (x, weight) if bias is None else (x, weight, bias)
    if rows == (0, oh, 0, h):       # a window over the whole map is no window
        rows = None
    if rows is not None:
        _check_rows(rows, h, oh, kh, sh, ph, records_tape(parents))

    xd, wd, x_grad, has_bias = x.data, weight.data, x.requires_grad, bias is not None
    data = _conv2d_fast(xd, wd, bias.data if has_bias else None, stride, padding, groups, rows)

    coutg = cout // groups

    def bw(g):
        # One pass over blocks of groups: the weight gradient is g times the
        # forward's patch matrix, rebuilt; a strided conv's input gradient
        # scatter-adds each kernel tap's column gradient, clipped to the
        # input, straight into a C-contiguous array. Stride-1 input
        # gradients run the forward kernel instead.
        win = _windows(xd, kh, kw, stride, padding, groups)
        g4 = g.reshape(n, groups, coutg, oh * ow)
        gw = np.empty((groups, coutg, cing * kh * kw), dtype=g.dtype)
        scatter = x_grad and (sh, sw) != (1, 1)
        gx = None
        if scatter:
            w2t = np.swapaxes(wd.reshape(groups, coutg, cing * kh * kw), -1, -2)
            gx = np.zeros((n, cin, h, w_in), dtype=g.dtype)
            row_taps, col_taps = _taps(kh, sh, ph, oh, h), _taps(kw, sw, pw, ow, w_in)
        for g0, g1, cols in _group_blocks(win):
            _backend.matmul(g4[:, g0:g1], np.swapaxes(cols, -1, -2)).sum(axis=0, out=gw[g0:g1])
            if scatter:
                gcols = _backend.matmul(w2t[g0:g1], g4[:, g0:g1])  # (N, gb, cing*kh*kw, L)
                gcols = gcols.reshape(n, (g1 - g0) * cing, kh, kw, oh, ow)
                gxb = gx[:, g0 * cing:g1 * cing]
                for i, oi, xi in row_taps:
                    for j, oj, xj in col_taps:
                        gxb[:, :, xi, xj] += gcols[:, :, i, j, oi, oj]
        gw = gw.reshape(cout, cing, kh, kw)
        if x_grad and not scatter:
            gx = _conv2d_input_grad(g, wd, padding, groups)
        if not has_bias:
            return (gx, gw)
        return (gx, gw, g.sum(axis=(0, 2, 3)))

    return make_result(data, parents, "conv2d", bw, cing * kh * kw)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
               running_var: np.ndarray, training: bool, momentum: float = 0.1,
               eps: float = 1e-5, inplace: bool = False) -> Tensor:
    """Channel-wise batch normalization over an NCHW tensor.

    In training mode the batch statistics normalize and the running buffers
    are updated in place, so the batch must not be empty; in eval mode the
    running buffers normalize, and ``inplace`` grants writing a no-tape
    result into ``x``.
    """
    if eps <= 0:
        raise ConfigError(f"batch_norm epsilon must be positive, got {eps}")
    if x.ndim != 4:
        raise ShapeError(f"batch_norm expects NCHW input, got {x.shape}")
    n, c, h, w = x.shape
    count = n * h * w
    axes = (0, 2, 3)
    cshape = (1, c, 1, 1)
    gd = gamma.data
    if training:
        if count < 1:
            raise ShapeError("batch_norm got an empty batch")
        mean = x.data.mean(axis=axes)
        xc = x.data - mean.reshape(cshape)
        var = (xc * xc).sum(axis=axes) / count      # what x.var(axes) computes
        unbiased = var * count / max(count - 1, 1)
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mean
        running_var *= (1.0 - momentum)
        running_var += momentum * unbiased
        inv = 1.0 / np.sqrt(var + eps)
        xn = xc * inv.reshape(cshape)
        data = xn * gd.reshape(cshape) + beta.data.reshape(cshape)
    else:
        # the running statistics fold into one per-channel scale and shift
        mean = running_mean.copy()
        inv = 1.0 / np.sqrt(running_var + eps)
        scale = gd * inv
        xd = x.data        # backward normalizes the input again for gamma's gradient
        reuse = inplace and _reusable(x, (x, gamma, beta))
        data = np.multiply(xd, scale.reshape(cshape), out=xd if reuse else None)
        data += (beta.data - mean * scale).reshape(cshape)

    def bw(g):
        inv4 = inv.reshape(cshape)
        gxn = g * gd.reshape(cshape)
        gbeta = g.sum(axis=axes)
        if training:
            ggamma = (g * xn).sum(axis=axes)
            m1 = gxn.mean(axis=axes).reshape(cshape)
            m2 = (gxn * xn).mean(axis=axes).reshape(cshape)
            gx = (gxn - m1 - xn * m2) * inv4
        else:
            ggamma = (g * ((xd - mean.reshape(cshape)) * inv4)).sum(axis=axes)
            gx = gxn * inv4
        return (gx, ggamma, gbeta)

    return make_result(data, (x, gamma, beta), "batch_norm", bw)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalization over the last axis, per token.

    The forward allocates no temporary: one buffer holds the squared
    deviations for the variance, then the deviations again, scaled in
    place. A tape keeps the normalized input apart from the result.
    """
    if eps <= 0:
        raise ConfigError(f"layer_norm epsilon must be positive, got {eps}")
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shape {gamma.shape} does not match feature axis {d}")
    mean = x.data.mean(axis=-1, keepdims=True)
    xn = x.data - mean
    # what x.var(axis=-1) computes, in the buffer it would allocate
    var = np.square(xn, out=xn).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xn = np.subtract(x.data, mean, out=xn)
    xn *= inv
    gd = gamma.data
    # the tape keeps xn; without it xn holds the result
    data = np.multiply(xn, gd, out=None if records_tape((x, gamma, beta)) else xn)
    data += beta.data

    def bw(g):
        ggamma = (g * xn).reshape(-1, d).sum(axis=0)
        gbeta = g.reshape(-1, d).sum(axis=0)
        gxn = g * gd
        m1 = gxn.mean(axis=-1, keepdims=True)
        m2 = (gxn * xn).mean(axis=-1, keepdims=True)
        gx = (gxn - m1 - xn * m2) * inv
        return (gx, ggamma, gbeta)

    return make_result(data, (x, gamma, beta), "layer_norm", bw)


# ---------------------------------------------------------------------------
# activations and probability maps
# ---------------------------------------------------------------------------

def _phi(x: np.ndarray, times_x: bool, inplace: bool = False) -> np.ndarray:
    """``0.5 * (1 + erf(x / sqrt(2)))``, times ``x`` if ``times_x``, in one
    new buffer, or in ``x`` itself if ``inplace`` (a C-contiguous ``x``).

    ``erf`` runs on ``|x / sqrt(2)|`` and ``copysign`` restores the sign (see
    the module notes). A C-contiguous ``x`` runs the whole chain over flat
    blocks of ``CONV_BLOCK_BYTES`` (at least one element), so each block stays
    in cache. The chain reads ``x`` again after its first write, so an
    in-place run first copies each block of ``x`` into one scratch block.
    Any other layout (no GELU input of the models has one) is one block,
    allocated by ``x * INV_SQRT2`` so that its strides stay those of the
    plain formula; the chain then repeats that scaling.
    """
    if x.flags.c_contiguous:
        out = x if inplace else np.empty_like(x)
        step = max(1, CONV_BLOCK_BYTES // x.itemsize)
        flat_x, flat = x.reshape(-1), out.reshape(-1)
        blocks = [(flat_x[i:i + step], flat[i:i + step]) for i in range(0, x.size, step)]
        scratch = np.empty(min(step, x.size), x.dtype) if inplace else None
    else:
        out = x * INV_SQRT2
        blocks = [(x, out)]
    for xb, ob in blocks:
        if inplace:
            xb = scratch[:xb.size]
            np.copyto(xb, ob)
        np.multiply(xb, INV_SQRT2, out=ob)
        np.abs(ob, out=ob)
        erf(ob, out=ob)
        np.copysign(ob, xb, out=ob)
        ob += 1.0
        ob *= 0.5
        if times_x:
            ob *= xb
    return out


def gelu(x: Tensor, inplace: bool = False) -> Tensor:
    """Exact-erf GELU, ``x * phi``, bitwise equal to ``x * (0.5 * (1 + erf(x / sqrt(2))))``.

    Without a tape, the result is computed in one buffer (see :func:`_phi`),
    which ``inplace`` grants to be ``x``'s own. On a tape, the closure keeps
    only the derivative ``phi + x * pdf``, computed here, so the gradient
    ``g * (phi + x * pdf)`` keeps its bits.
    """
    if not records_tape((x,)):
        data = _phi(x.data, True, inplace and _reusable(x, (x,)))
        return make_result(data, (x,), "gelu", None)
    phi = _phi(x.data, False)
    data = x.data * phi
    with np.errstate(over="ignore"):    # x * x overflows past 1e154, where pdf is 0
        pdf = INV_SQRT2PI * np.exp(-0.5 * x.data * x.data)
    dphi = phi + x.data * pdf

    def bw(g):
        return (g * dphi,)

    return make_result(data, (x,), "gelu", bw)


def softmax(x: Tensor, axis: int = -1, inplace: bool = False) -> Tensor:
    """Max-stabilized softmax, computed in one buffer: a new one, or ``x``'s
    own when ``inplace`` grants it to a no-tape result."""
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.shape}")
    data = np.subtract(x.data, x.data.max(axis=axis, keepdims=True),
                       out=x.data if inplace and _reusable(x, (x,)) else None)
    np.exp(data, out=data)
    data /= data.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - dot),)

    return make_result(data, (x,), "softmax", bw)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - lse

    def bw(g):
        return (g - np.exp(data) * g.sum(axis=axis, keepdims=True),)

    return make_result(data, (x,), "log_softmax", bw)


# ---------------------------------------------------------------------------
# spatial resizing
# ---------------------------------------------------------------------------

def upsample_repeat(x: Tensor, factor: int) -> Tensor:
    """Nearest-neighbor upsampling: each cell becomes a factor x factor block."""
    if factor < 1:
        raise ConfigError(f"upsample factor must be >= 1, got {factor}")
    n, c, h, w = x.shape
    data = np.repeat(np.repeat(x.data, factor, axis=2), factor, axis=3)

    def bw(g):
        return (g.reshape(n, c, h, factor, w, factor).sum(axis=(3, 5)),)

    return make_result(data, (x,), "upsample_repeat", bw)


def _pool_matrix(in_len: int, out_len: int, dtype) -> np.ndarray:
    """(out_len, in_len) averaging operator with adaptive window bounds."""
    m = np.zeros((out_len, in_len), dtype=dtype)
    for i in range(out_len):
        lo = (i * in_len) // out_len
        hi = -(-(i + 1) * in_len // out_len)   # ceil division
        m[i, lo:hi] = 1.0 / (hi - lo)
    return m


def adaptive_avg_pool2d(x: Tensor, out_hw) -> Tensor:
    """Average pooling to an explicit output grid (adaptive window bounds).

    For an exact 2x reduction this coincides with a stride-2 2x2 average
    pool; odd and non-integer ratios use overlapping windows.
    """
    oh, ow = out_hw
    n, c, h, w = x.shape
    if oh < 1 or ow < 1 or oh > h or ow > w:
        raise ResolutionError(
            f"adaptive pool cannot map {h}x{w} onto {oh}x{ow}")
    if not x.size:    # an empty batch, as the analyzer traces: no window matrices
        return make_result(np.empty((n, c, oh, ow), x.dtype), (x,), "adaptive_avg_pool2d",
                           lambda g: (np.zeros((n, c, h, w), g.dtype),))
    rm = _pool_matrix(h, oh, x.dtype)
    cm = _pool_matrix(w, ow, x.dtype)
    # averages, not a contraction of the FLOP convention: the canonical
    # product itself, which the MAC oracle's backend does not count
    mm = _Canonical.matmul
    data = mm(mm(rm, x.data), cm.T)

    def bw(g):
        return (mm(mm(rm.T, g), cm),)

    return make_result(data, (x,), "adaptive_avg_pool2d", bw)


def global_avg_pool(x: Tensor) -> Tensor:
    n, c, h, w = x.shape
    data = x.data.mean(axis=(2, 3))

    def bw(g):
        return (np.broadcast_to(g[:, :, None, None] / (h * w), (n, c, h, w)).copy(),)

    return make_result(data, (x,), "global_avg_pool", bw)
