"""Conv patch matrices built from the unpadded input, block by block.

``ops._patches`` zero-pads only the block it builds. The oracle here is the
earlier builder: zero-pad the whole input, view its windows with
``as_strided`` and copy a block out of that view. Patch matrices, outputs and
all three gradients must be bitwise those of the oracle, and within 1e-12 of
the loop kernels.
"""

import numpy as np
import pytest

from hirivit.engine import (CountingBackend, Tensor, backward, loop_conv2d, loop_conv2d_grads,
                            no_grad, ops)
from hirivit.errors import ShapeError
from hirivit.zoo import Model, hiri_config, hiri_micro_config

# ---------------------------------------------------------------------------
# the oracle: a zero-padded copy of the whole input
# ---------------------------------------------------------------------------


def _pad(x, ph, pw):
    if not (ph or pw):
        return x
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    xp[:, :, ph:ph + h, pw:pw + w] = x
    return xp


def _padded_windows(x, kh, kw, stride, padding, groups):
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


def _padded_patches(win, g0, g1, r0, r1):
    n, _, cing, kh, kw, _, ow = win.shape
    cols = win[:, g0:g1, ..., r0:r1, :].reshape(n, g1 - g0, cing * kh * kw, (r1 - r0) * ow)
    return np.ascontiguousarray(cols)


def _padded_forward(x, w, bias, stride, padding, groups):
    """The conv forward over the oracle's windows, in ``ops._blocks``' blocks."""
    n = x.shape[0]
    cout, cing, kh, kw = w.shape
    win = _padded_windows(x, kh, kw, stride, padding, groups)
    oh, ow = win.shape[-2:]
    w2 = w.reshape(groups, cout // groups, cing * kh * kw)
    out = np.empty((n, groups, cout // groups, oh * ow), dtype=np.result_type(x, w))
    coutg = None if kh == kw == 1 and stride == (1, 1) else cout // groups
    for g0, g1, r0, r1 in ops._blocks(win, coutg):
        np.matmul(w2[g0:g1], _padded_patches(win, g0, g1, r0, r1),
                  out=out[:, g0:g1, :, r0 * ow:r1 * ow])
    out = out.reshape(n, cout, oh, ow)
    if bias is not None:
        out += bias.reshape(1, cout, 1, 1)
    return out


def _padded_backward(x, w, g, stride, padding, groups):
    """``(gx, gw)`` as the oracle computes them: the weight gradient from the
    padded windows, a strided input gradient scattered into a zero-padded
    array and cropped, a stride-1 one as the forward of the flipped kernel."""
    n, cin, h, wd = x.shape
    cout, cing, kh, kw = w.shape
    (sh, sw), (ph, pw) = stride, padding
    coutg = cout // groups
    win = _padded_windows(x, kh, kw, stride, padding, groups)
    oh, ow = win.shape[-2:]
    g4 = g.reshape(n, groups, coutg, oh * ow)
    gw = np.empty((groups, coutg, cing * kh * kw), dtype=g.dtype)
    strided = stride != (1, 1)
    if strided:
        w2t = np.swapaxes(w.reshape(groups, coutg, cing * kh * kw), -1, -2)
        gxp = np.zeros((n, cin, h + 2 * ph, wd + 2 * pw), dtype=g.dtype)
    for g0, g1, _, _ in ops._blocks(win):
        cols = _padded_patches(win, g0, g1, 0, oh)
        np.matmul(g4[:, g0:g1], np.swapaxes(cols, -1, -2)).sum(axis=0, out=gw[g0:g1])
        if strided:
            gcols = np.matmul(w2t[g0:g1], g4[:, g0:g1])
            gcols = gcols.reshape(n, (g1 - g0) * cing, kh, kw, oh, ow)
            gxb = gxp[:, g0 * cing:g1 * cing]
            for i in range(kh):
                for j in range(kw):
                    gxb[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw] += gcols[:, :, i, j]
    gw = gw.reshape(cout, cing, kh, kw)
    if strided:
        return gxp[:, :, ph:ph + h, pw:pw + wd], gw
    qh, qw = kh - 1 - ph, kw - 1 - pw
    ch, cw = max(-qh, 0), max(-qw, 0)
    gc = g[:, :, ch:g.shape[2] - ch, cw:g.shape[3] - cw]
    wt = w.reshape(groups, coutg, cing, kh, kw).swapaxes(1, 2)
    wt = wt.reshape(groups * cing, coutg, kh, kw)[:, :, ::-1, ::-1]
    return _padded_forward(gc, wt, None, (1, 1), (max(qh, 0), max(qw, 0)), groups), gw


# ---------------------------------------------------------------------------
# cases: x shape, w shape, stride, padding, groups, CONV_PATCH_CAP
# ---------------------------------------------------------------------------

BIG = 1 << 62
CASES = {
    "1x1_pad1": ((2, 3, 5, 4), (4, 3, 1, 1), (1, 1), (1, 1), 1, BIG),
    "1x1_pad3_stride2": ((1, 2, 3, 4), (3, 2, 1, 1), (2, 2), (3, 3), 1, BIG),
    "1x1_reads_only_padding": ((1, 2, 2, 2), (3, 2, 1, 1), (6, 6), (2, 2), 1, BIG),
    "1x1_columns_read_only_padding": ((1, 2, 2, 3), (3, 2, 1, 1), (1, 7), (0, 2), 1, BIG),
    "3x3_pad3": ((1, 2, 4, 5), (3, 2, 3, 3), (1, 1), (3, 3), 1, BIG),
    "stride_above_kernel": ((2, 2, 9, 10), (3, 2, 2, 2), (3, 3), (1, 1), 1, BIG),
    "input_below_kernel": ((1, 2, 2, 3), (2, 2, 5, 5), (1, 1), (2, 2), 1, BIG),
    "input_below_kernel_stride2": ((2, 2, 2, 2), (2, 2, 5, 5), (2, 2), (2, 2), 1, BIG),
    "ragged_strides": ((1, 2, 8, 11), (2, 2, 3, 3), (2, 3), (1, 0), 1, BIG),
    "ragged_unpadded": ((2, 2, 10, 9), (3, 2, 3, 2), (2, 3), (0, 0), 1, BIG),
    "groups2": ((2, 4, 7, 6), (6, 2, 3, 3), (2, 2), (1, 1), 2, BIG),
    "depthwise_batch3": ((3, 5, 8, 8), (5, 1, 3, 3), (1, 1), (1, 1), 5, BIG),
    "depthwise_stride2": ((3, 4, 9, 8), (4, 1, 3, 3), (2, 2), (1, 1), 4, BIG),
    "transposed_3x3": ((2, 4, 7, 6), (3, 4, 3, 3), (1, 1), (1, 1), 1, BIG),
    "transposed_1x1": ((2, 4, 7, 6), (3, 4, 1, 1), (1, 1), (0, 0), 1, BIG),
    # 48 output rows in row blocks of 16: the middle block's halo rows come
    # from the input on both sides, the outer blocks' from the padding
    "rows_s1_p1": ((1, 2, 48, 7), (3, 2, 3, 3), (1, 1), (1, 1), 1, 1),
    "rows_s2_p1_batch3": ((3, 2, 96, 13), (3, 2, 3, 3), (2, 2), (1, 1), 1, 1),
    "rows_s2_p0": ((1, 2, 97, 27), (3, 2, 3, 3), (2, 2), (0, 0), 1, 1),
    "rows_depthwise_s1_p1": ((3, 3, 48, 13), (3, 1, 3, 3), (1, 1), (1, 1), 3, 1),
    # one-row blocks: the first reads only the top padding, the last only the bottom
    "rows_1x1_s2_p3": ((1, 2, 12, 26), (3, 2, 1, 1), (2, 2), (3, 3), 1, 1),
}


def _input(name, rng):
    xs = CASES[name][0]
    if name.startswith("transposed"):       # an NHWC array seen as NCHW, as LayerNorm2d gives
        n, c, h, w = xs
        return rng.standard_normal((n, h, w, c)).transpose(0, 3, 1, 2)
    return rng.standard_normal(xs)


def _case(name, monkeypatch):
    xs, ws, stride, padding, groups, cap = CASES[name]
    monkeypatch.setattr(ops, "CONV_PATCH_CAP", cap)
    rng = np.random.default_rng(26)
    x = _input(name, rng)
    return x, rng.standard_normal(ws), rng.standard_normal(ws[0]), stride, padding, groups


@pytest.mark.parametrize("name", sorted(CASES))
def test_patches_match_the_padded_copy(name, monkeypatch):
    x, w, _, stride, padding, groups = _case(name, monkeypatch)
    kh, kw = w.shape[2:]
    win = ops._windows(x, kh, kw, stride, padding, groups)
    oracle = _padded_windows(x, kh, kw, stride, padding, groups)
    assert win.shape == oracle.shape
    blocks = list(ops._blocks(win, w.shape[0] // groups)) + list(ops._blocks(win))
    if CASES[name][5] == 1:
        assert len({(r0, r1) for _, _, r0, r1 in blocks}) > 2
    for g0, g1, r0, r1 in blocks:
        got = ops._patches(win, g0, g1, r0, r1)
        want = _padded_patches(oracle, g0, g1, r0, r1)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_conv_matches_the_padded_copy_and_the_loops(name, monkeypatch):
    x, w, b, stride, padding, groups = _case(name, monkeypatch)
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    y = ops.conv2d(xt, wt, bt, stride=stride, padding=padding, groups=groups)
    g = np.random.default_rng(27).standard_normal(y.shape)
    backward(ops.tsum(ops.mul(y, Tensor(g))))
    got = (y.data, xt.grad, wt.grad, bt.grad)
    gx, gw = _padded_backward(x, w, g, stride, padding, groups)
    want = (_padded_forward(x, w, b, stride, padding, groups), gx, gw, g.sum(axis=(0, 2, 3)))
    for a, c in zip(got, want):
        assert a.shape == c.shape and a.tobytes() == np.ascontiguousarray(c).tobytes()
    lgx, lgw = loop_conv2d_grads(x, w, g, stride, padding, groups)
    loops = (loop_conv2d(x, w, b, stride, padding, groups), lgx, lgw)
    for a, c in zip(got, loops):
        assert np.abs(a - c).max() < 1e-12


@pytest.mark.parametrize("name", sorted(CASES))
def test_row_windows_match_the_whole_map_and_the_loops(name, monkeypatch):
    """A row window's output rows (``ops.Rows``), from a slab of the input
    rows that they read, or of one more row on each side, are the whole
    map's rows, by the fast kernels and by the counting loops: the first
    and last rows, one row, and rows in the middle. They are its bits only
    where the window's GEMMs cut the map's on 16-column steps and stay on
    its BLAS path, as the row bands do (``tests/test_bands.py``)."""
    x, w, b, stride, padding, groups = _case(name, monkeypatch)
    xt, wt, bt = Tensor(x), Tensor(w), Tensor(b)
    with no_grad():
        y = ops.conv2d(xt, wt, bt, stride=stride, padding=padding, groups=groups).data
    loops = loop_conv2d(x, w, b, stride, padding, groups)
    (oh, h), kh, sh, ph = (y.shape[2], x.shape[2]), w.shape[2], stride[0], padding[0]
    for r0, r1 in {(0, 1), (0, oh), (oh // 2, oh), (oh // 3, 2 * oh // 3 + 1), (oh - 1, oh)}:
        reads = max(r0 * sh - ph, 0), max(min((r1 - 1) * sh + kh - ph, h), 0)
        for top, bottom in {reads, (max(reads[0] - 1, 0), min(reads[1] + 1, h))}:
            slab, rows = Tensor(x[:, :, top:max(bottom, top)]), ops.Rows(r0, r1, top, h)
            with no_grad():
                got = ops.conv2d(slab, wt, bt, stride, padding, groups, rows=rows).data
                with ops.use_backend(CountingBackend()):
                    loop = ops.conv2d(slab, wt, bt, stride, padding, groups, rows=rows).data
            assert np.abs(got - y[:, :, r0:r1]).max() < 1e-12
            assert np.abs(loop - loops[:, :, r0:r1]).max() < 1e-12


@pytest.mark.parametrize("name", ["3x3_pad3", "depthwise_batch3", "depthwise_stride2"])
def test_a_whole_map_window_is_the_plain_conv_on_a_tape(name, monkeypatch):
    """``Rows(0, OH, 0, H)`` is no window: a block's one pass, its band of the
    whole map, runs on a tape, with the plain conv's output and gradients."""
    x, w, b, stride, padding, groups = _case(name, monkeypatch)
    oh = ops._conv_out_hw(*x.shape[2:], *w.shape[2:], *stride, *padding)[0]
    runs = []
    for rows in (None, ops.Rows(0, oh, 0, x.shape[2])):
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        y = ops.conv2d(xt, wt, bt, stride, padding, groups, rows=rows)
        backward(ops.tsum(ops.mul(y, Tensor(np.random.default_rng(30).standard_normal(y.shape)))))
        runs.append([t.tobytes() for t in (y.data, xt.grad, wt.grad, bt.grad)])
    assert runs[0] == runs[1]


def test_a_row_window_needs_its_rows_and_no_tape():
    x, w = Tensor(np.zeros((1, 2, 8, 8))), Tensor(np.zeros((3, 2, 3, 3)), requires_grad=True)
    with no_grad():
        with pytest.raises(ShapeError, match="reads map rows"):
            ops.conv2d(x, w, padding=1, rows=ops.Rows(2, 6, 2, 16))      # row 1 is not there
        with pytest.raises(ShapeError, match="reads map rows"):
            ops.conv2d(x, w, padding=1, rows=ops.Rows(0, 17, 0, 16))     # the map has 16
    with pytest.raises(ShapeError, match="without a tape"):
        ops.conv2d(x, w, padding=1, rows=ops.Rows(0, 4, 0, 16))


def test_unpadded_1x1_stride1_patches_view_a_contiguous_input():
    x = np.random.default_rng(28).standard_normal((2, 6, 5, 4))
    win = ops._windows(x, 1, 1, (1, 1), (0, 0), 1)
    assert np.shares_memory(ops._patches(win, 0, 1, 0, 5), x)
    xt = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    win = ops._windows(xt, 1, 1, (1, 1), (0, 0), 1)
    cols = ops._patches(win, 0, 1, 0, 5)
    assert not np.shares_memory(cols, xt) and cols.flags.c_contiguous


@pytest.mark.parametrize("source", ["contiguous", "transposed", "frombuffer"])
@pytest.mark.parametrize("padding", [0, 1])
def test_window_view_is_the_as_strided_view(source, padding, monkeypatch):
    """``_patches`` views its windows with ``np.ndarray`` over the C-contiguous
    array a block is cut from, and with ``as_strided`` over anything else."""
    x = np.random.default_rng(29).standard_normal((2, 4, 9, 8))
    if source == "transposed":
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    elif source == "frombuffer":
        x = np.frombuffer(x.tobytes(), dtype=x.dtype).reshape(x.shape)
    pad = (padding, padding)
    win = ops._windows(x, 3, 3, (1, 1), pad, 2)
    oracle = _padded_windows(x, 3, 3, (1, 1), pad, 2)
    oh = oracle.shape[-2]
    blocks = [(0, 1, 0, 2), (1, 2, 2, oh - 1), (0, 2, 0, oh)]
    want = [_padded_patches(oracle, *b) for b in blocks]
    calls = []
    as_strided = np.lib.stride_tricks.as_strided
    monkeypatch.setattr(np.lib.stride_tricks, "as_strided",
                        lambda *args, **kw: calls.append(1) or as_strided(*args, **kw))
    for block, w in zip(blocks, want):
        got = ops._patches(win, *block)
        assert got.shape == w.shape and got.tobytes() == w.tobytes()
    assert len(calls) == (len(blocks) if source == "transposed" and not padding else 0)


# ---------------------------------------------------------------------------
# memory: no whole-map padded copy
# ---------------------------------------------------------------------------

def test_strided_input_gradient_holds_no_padded_copy(peak_bytes):
    """A padded stride-2 conv's backward closure: the oracle holds the padded
    input and a padded input gradient for the whole closure; the closure
    pads one block at a time and scatters into the unpadded gradient."""
    rng = np.random.default_rng(29)
    x, w = rng.standard_normal((2, 8, 32, 32)), rng.standard_normal((8, 8, 3, 3))
    y = ops.conv2d(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True),
                   stride=2, padding=1)
    g = rng.standard_normal(y.shape)
    closure = y._node._backward
    gx, gw = closure(g)
    assert gx.flags.c_contiguous
    want_gx, want_gw = _padded_backward(x, w, g, (2, 2), (1, 1), 1)
    assert gx.tobytes() == np.ascontiguousarray(want_gx).tobytes()
    assert gw.tobytes() == want_gw.tobytes()
    padded = 2 * 8 * 34 * 34 * 8
    oracle = peak_bytes(lambda: _padded_backward(x, w, g, (2, 2), (1, 1), 1))
    assert peak_bytes(lambda: closure(g)) <= oracle - padded


def test_s448_eval_peak_holds_no_padded_stem_map(peak_bytes):
    """HiRI-ViT-S at 448, batch 1. The peak sits in ``stem.hi_down``, a
    padded stride-2 conv on a (1, 16, 224, 224) map: 23.5 MB with that map's
    6.2 MB zero-padded copy, 18.2 MB with block-local padding."""
    model = Model(hiri_config("S", 448)).eval()
    x = Tensor(np.random.default_rng(30).standard_normal((1, 3, 448, 448)))
    with no_grad():
        assert peak_bytes(lambda: model(x)) < 20 * 2**20


def test_micro_eval_peak_holds_no_padded_entry_input(peak_bytes):
    """The micro build at 64x64, batch 16: the peak sits in the stem's entry
    conv, 3.79 MB with its zero-padded input copy and 2.98 MB without."""
    model = Model(hiri_micro_config(64)).eval()
    x = Tensor(np.random.default_rng(31).standard_normal((16, 3, 64, 64)))
    with no_grad():
        assert peak_bytes(lambda: model(x)) < 3.4 * 2**20
