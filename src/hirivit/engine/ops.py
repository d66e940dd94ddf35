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
  written into the preallocated output. So the working set of a forward
  conv is its padded input, its output and at most the cap, not the
  kh*kw-fold im2col expansion. Backward rebuilds the patch matrix in blocks
  of whole groups and forms the weight gradient as the same GEMMs of ``g``
  against it, summed over the batch; splitting it by rows would reorder
  its sums over output positions. For stride 1 the input gradient is the
  forward kernel, row blocks included, applied to ``g`` with the flipped,
  channel-transposed kernel at padding ``k - 1 - p``; strided convs
  scatter-add the column gradient one kernel tap at a time. An input that
  does not require grad gets none. Blocks of groups change no GEMM. A row
  block only cuts a GEMM's columns, at multiples of 16, and stays on the
  GEMM path of the whole map (see ``_row_bounds``), so outputs and
  gradients are bitwise equal to one-block runs (checked on OpenBLAS
  0.3.31's SkylakeX kernels), and results do not depend on either block
  size.
* ``gelu`` runs SciPy's ``erf`` on ``|x / sqrt(2)|`` and restores the sign
  with ``copysign``. SciPy's ``erf`` computes ``erf(-t)`` as ``-erf(t)``, so
  the bits are those of ``erf(x / sqrt(2))``, but no element takes the
  sign branch that random signs mispredict (about half of ``erf``'s time).
  The whole chain runs over flat ``CONV_BLOCK_BYTES`` blocks of one output
  buffer, each still in cache for its next step. When no tape will keep
  ``phi`` (``tensor.records_tape``), the product with ``x`` is the chain's
  last step, bitwise equal to the taped result.
* Reductions over the key/value token axis inside attention are bitwise
  invariant to a permutation of that axis. The softmax denominator sums in
  value-sorted order; the attention-times-values product (``ordered_matmul``)
  contracts in one canonical key order per (batch, head), ordered by each
  key's bytes, and computes each query row on its own, so a permutation of
  the query rows permutes its output rows bitwise. The query-key product
  (``matmul``) is a plain BLAS call and carries no such guarantee.
* Forward kernels for conv2d and matmul dispatch through a swappable
  backend: the vectorized ``FastBackend`` or the MAC-counting loops of
  ``reference.CountingBackend``. ``linear`` is the backend's ``matmul``
  plus a bias, and ``ordered_matmul`` sorts its keys and sends the per-row
  product through the backend's ``matmul``. Each of these contractions
  passes its length ``k`` to ``make_result`` for the engine's observer.
"""

from __future__ import annotations

import contextlib
import math

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
# faster and 512 KB and below ran the dense ones slower; the S@448 forward's
# activation peak was 25.7 MB at 2 MB, 26.7 MB at 4 MB and 51.5 MB unbounded.
CONV_PATCH_CAP = 2 << 20


# ---------------------------------------------------------------------------
# kernel backends
# ---------------------------------------------------------------------------

class FastBackend:
    """Vectorized NumPy kernels (default)."""

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.matmul(a, b)

    def conv2d(self, x, w, bias, stride, padding, groups):
        return _conv2d_fast(x, w, bias, stride, padding, groups)


_backend = FastBackend()


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


def ordered_sum(x: np.ndarray, axis: int) -> np.ndarray:
    """Sum along ``axis`` with the addends in ascending value order.

    The result is invariant (bitwise) to permutations along ``axis``.
    """
    return np.sum(np.sort(x, axis=axis), axis=axis)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
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


def scale(a: Tensor, s: float) -> Tensor:
    data = a.data * s

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

def _matmul_result(data, a: Tensor, b: Tensor, op: str) -> Tensor:
    """Tape node for ``data = a @ b``, however the product was summed."""
    ad, bd = a.data, b.data

    def bw(g):
        ga = np.matmul(g, np.swapaxes(bd, -1, -2))
        gb = np.matmul(np.swapaxes(ad, -1, -2), g)
        return (_unbroadcast(ga, ad.shape), _unbroadcast(gb, bd.shape))

    return make_result(data, (a, b), op, bw, a.shape[-1])


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
    _check_inner(a, b)
    return _matmul_result(_backend.matmul(a.data, b.data), a, b, "matmul")


def ordered_matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matmul, bitwise permutation-equivariant in both token axes.

    Used for the attention x values product. For each leading (batch, head)
    index the contracted key/value axis is put in one canonical order: each
    key is the bytes of its row of ``b`` followed by its column of ``a``,
    and a stable sort of those byte strings orders the keys, so keys that
    tie are identical and contribute identical terms. Each output row is
    then its own ``(1, k) @ (k, p)`` product. A joint permutation of the
    contracted axis therefore leaves the output bitwise unchanged, and a
    permutation of the rows of ``a`` permutes the output rows bitwise. A
    single GEMM would not do: the result for a row can depend on the row's
    position in the block.
    """
    _check_inner(a, b)
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    (m, k), p = a.shape[-2:], b.shape[-1]
    a3 = np.broadcast_to(a.data, lead + (m, k)).reshape(-1, m, k)
    b3 = np.broadcast_to(b.data, lead + (k, p)).reshape(-1, k, p)
    # (batch, key, value row + attention column), one void item per key
    keys = np.ascontiguousarray(np.concatenate([b3, np.swapaxes(a3, 1, 2)], axis=-1))
    items = keys.view(np.dtype((np.void, keys.strides[1])))[..., 0]
    order = np.argsort(items, axis=-1, kind="stable")
    keys = keys[np.arange(len(keys))[:, None], order]
    a3, b3 = np.swapaxes(keys[:, :, p:], 1, 2), keys[:, :, :p]
    data = _backend.matmul(a3[:, :, None, :], b3[:, None, :, :])
    return _matmul_result(data.reshape(lead + (m, p)), a, b, "ordered_matmul")


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
        gx = (g2 @ w).reshape(sx)
        gw = g2.T @ x2
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


def _pad(x, ph, pw):
    """Zero-pad the two spatial axes of an NCHW array (np.pad is slower)."""
    if not (ph or pw):
        return x
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    xp[:, :, ph:ph + h, pw:pw + w] = x
    return xp


def _windows(x, kh, kw, stride, padding, groups):
    """(N, g, cing, kh, kw, OH, OW) window view of the zero-padded input."""
    xp = _pad(x, *padding)
    n, cin, hp, wp = xp.shape
    sh, sw = stride
    oh, ow = (hp - kh) // sh + 1, (wp - kw) // sw + 1
    cing = cin // groups
    s0, s1, s2, s3 = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, (n, groups, cing, kh, kw, oh, ow),
        (s0, s1 * cing, s1, s2, s3, s2 * sh, s3 * sw), writeable=False)


def _row_bounds(win, groups_per_block, coutg):
    """Output-row boundaries of the forward blocks of ``groups_per_block`` groups.

    One block when its patch matrix fits ``CONV_PATCH_CAP``. Otherwise the
    fewest blocks that fit, as even as steps of ``unit`` rows allow; a step
    is a multiple of 16 output columns, so each column meets the same BLAS
    kernel tiles as in one GEMM. A map whose size is no multiple of 16 stays
    whole. Each block also stays on the GEMM path of the whole map: OpenBLAS
    runs GEMMs of at most 100**3 MACs on a small-matrix kernel, which sums a
    long contraction in another order. (``coutg == 1`` is a matrix-vector
    product, with one path.)
    """
    n, _, cing, kh, kw, oh, ow = win.shape
    k = cing * kh * kw
    row_bytes = n * groups_per_block * k * ow * win.itemsize
    if oh * row_bytes <= CONV_PATCH_CAP or (oh * ow) % 16:
        return [0, oh]
    unit = 16 // math.gcd(ow, 16)           # divides oh, as 16 divides oh * ow
    units = oh // unit
    blocks = -(-units // max(1, CONV_PATCH_CAP // (unit * row_bytes)))
    unit_macs = coutg * k * ow * unit       # of one GEMM
    if coutg > 1 and units * unit_macs > 100**3:
        blocks = min(blocks, units // (100**3 // unit_macs + 1))
    return [unit * (units * i // blocks) for i in range(blocks + 1)]


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

    A 1x1 stride-1 conv without padding gets a view of its input, not a copy.
    """
    n, _, cing, kh, kw, _, ow = win.shape
    cols = win[:, g0:g1, ..., r0:r1, :].reshape(n, g1 - g0, cing * kh * kw, (r1 - r0) * ow)
    return np.ascontiguousarray(cols)


def _group_blocks(win):
    """Yield ``(g0, g1, cols)`` over blocks of whole groups with all output rows."""
    oh = win.shape[-2]
    for g0, g1, _, _ in _blocks(win):
        yield g0, g1, _patches(win, g0, g1, 0, oh)


def _conv2d_fast(x, w, bias, stride, padding, groups):
    n = x.shape[0]
    cout, cing, kh, kw = w.shape
    win = _windows(x, kh, kw, stride, padding, groups)
    oh, ow = win.shape[-2:]
    w2 = w.reshape(groups, cout // groups, cing * kh * kw)
    out = np.empty((n, groups, cout // groups, oh * ow), dtype=np.result_type(x, w))
    # a 1x1 stride-1 conv's patch matrix is a view of its input: nothing to bound
    coutg = None if kh == kw == 1 and stride == (1, 1) else cout // groups
    for g0, g1, r0, r1 in _blocks(win, coutg):
        # built inside the call, so one block's patch matrix is alive at a time
        np.matmul(w2[g0:g1], _patches(win, g0, g1, r0, r1),
                  out=out[:, g0:g1, :, r0 * ow:r1 * ow])
    out = out.reshape(n, cout, oh, ow)
    if bias is not None:
        out += bias.reshape(1, cout, 1, 1)
    return out


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


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride=(1, 1), padding=(0, 0), groups: int = 1) -> Tensor:
    if isinstance(stride, int):
        stride = (stride, stride)
    if isinstance(padding, int):
        padding = (padding, padding)
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
    oh, ow = _conv_out_hw(h, w_in, kh, kw, sh, sw, ph, pw)
    if oh < 1 or ow < 1:
        raise ResolutionError(
            f"conv2d output underflows: input {h}x{w_in}, kernel {kh}x{kw},"
            f" stride {sh}x{sw}, padding {ph}x{pw} -> {oh}x{ow}")

    xd, wd, x_grad, has_bias = x.data, weight.data, x.requires_grad, bias is not None
    data = _backend.conv2d(xd, wd, bias.data if has_bias else None, stride, padding, groups)
    parents = (x, weight, bias) if has_bias else (x, weight)

    coutg = cout // groups

    def bw(g):
        # One pass over blocks of groups: the weight gradient is g times the
        # forward's patch matrix, rebuilt; a strided conv's input gradient
        # scatter-adds each kernel tap's column gradient. Stride-1 input
        # gradients run the forward kernel instead.
        win = _windows(xd, kh, kw, stride, padding, groups)
        g4 = g.reshape(n, groups, coutg, oh * ow)
        gw = np.empty((groups, coutg, cing * kh * kw), dtype=g.dtype)
        scatter = x_grad and (sh, sw) != (1, 1)
        if scatter:
            w2t = np.swapaxes(wd.reshape(groups, coutg, cing * kh * kw), -1, -2)
            gxp = np.zeros((n, cin, h + 2 * ph, w_in + 2 * pw), dtype=g.dtype)
        for g0, g1, cols in _group_blocks(win):
            np.matmul(g4[:, g0:g1], np.swapaxes(cols, -1, -2)).sum(axis=0, out=gw[g0:g1])
            if scatter:
                gcols = np.matmul(w2t[g0:g1], g4[:, g0:g1])  # (N, gb, cing*kh*kw, L)
                gcols = gcols.reshape(n, (g1 - g0) * cing, kh, kw, oh, ow)
                gxb = gxp[:, g0 * cing:g1 * cing]
                for i in range(kh):
                    hi = i + sh * oh
                    for j in range(kw):
                        wj = j + sw * ow
                        gxb[:, :, i:hi:sh, j:wj:sw] += gcols[:, :, i, j]
        gw = gw.reshape(cout, cing, kh, kw)
        if scatter:
            gx = gxp[:, :, ph:ph + h, pw:pw + w_in] if (ph or pw) else gxp
        elif x_grad:
            gx = _conv2d_input_grad(g, wd, padding, groups)
        else:
            gx = None
        if not has_bias:
            return (gx, gw)
        return (gx, gw, g.sum(axis=(0, 2, 3)))

    return make_result(data, parents, "conv2d", bw, cing * kh * kw)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
               running_var: np.ndarray, training: bool, momentum: float = 0.1,
               eps: float = 1e-5) -> Tensor:
    """Channel-wise batch normalization over an NCHW tensor.

    In training mode the batch statistics normalize and the running buffers
    are updated in place, so the batch must not be empty; in eval mode the
    running buffers normalize.
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
        data = xd * scale.reshape(cshape)
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
    """Normalization over the last axis, per token."""
    if eps <= 0:
        raise ConfigError(f"layer_norm epsilon must be positive, got {eps}")
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shape {gamma.shape} does not match feature axis {d}")
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xn = (x.data - mean) * inv
    gd = gamma.data
    data = xn * gd + beta.data

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

def _phi(x: np.ndarray, times_x: bool) -> np.ndarray:
    """``0.5 * (1 + erf(x / sqrt(2)))``, times ``x`` if ``times_x``, in one new buffer.

    ``erf`` runs on ``|x / sqrt(2)|`` and ``copysign`` restores the sign (see
    the module notes). A C-contiguous ``x`` runs the whole chain over flat
    blocks of ``CONV_BLOCK_BYTES`` (at least one element), so each block stays
    in cache. Any other layout (no GELU input of the models has one) is one
    block, allocated by ``x * INV_SQRT2`` so that its strides stay those of
    the plain formula; the chain then repeats that scaling.
    """
    if x.flags.c_contiguous:
        out = np.empty_like(x)
        step = max(1, CONV_BLOCK_BYTES // x.itemsize)
        flat_x, flat = x.reshape(-1), out.reshape(-1)
        blocks = [(flat_x[i:i + step], flat[i:i + step]) for i in range(0, x.size, step)]
    else:
        out = x * INV_SQRT2
        blocks = [(x, out)]
    for xb, ob in blocks:
        np.multiply(xb, INV_SQRT2, out=ob)
        np.abs(ob, out=ob)
        erf(ob, out=ob)
        np.copysign(ob, xb, out=ob)
        ob += 1.0
        ob *= 0.5
        if times_x:
            ob *= xb
    return out


def gelu(x: Tensor) -> Tensor:
    """Exact-erf GELU, ``x * phi``, bitwise equal to ``x * (0.5 * (1 + erf(x / sqrt(2))))``.

    Without a tape, the result is computed in one buffer (see :func:`_phi`).
    On a tape, the closure keeps only the derivative ``phi + x * pdf``,
    computed here, so the gradient ``g * (phi + x * pdf)`` keeps its bits.
    """
    if not records_tape((x,)):
        return make_result(_phi(x.data, True), (x,), "gelu", None)
    phi = _phi(x.data, False)
    data = x.data * phi
    with np.errstate(over="ignore"):    # x * x overflows past 1e154, where pdf is 0
        pdf = INV_SQRT2PI * np.exp(-0.5 * x.data * x.data)
    dphi = phi + x.data * pdf

    def bw(g):
        return (g * dphi,)

    return make_result(data, (x,), "gelu", bw)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-stabilized softmax; the denominator sums in value-sorted order."""
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    denom = np.expand_dims(ordered_sum(e, axis=axis), axis)
    data = e / denom

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
    data = rm @ x.data @ cm.T

    def bw(g):
        return (rm.T @ g @ cm,)

    return make_result(data, (x,), "adaptive_avg_pool2d", bw)


def global_avg_pool(x: Tensor) -> Tensor:
    n, c, h, w = x.shape
    data = x.data.mean(axis=(2, 3))

    def bw(g):
        return (np.broadcast_to(g[:, :, None, None] / (h * w), (n, c, h, w)).copy(),)

    return make_result(data, (x,), "global_avg_pool", bw)
