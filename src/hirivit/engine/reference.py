"""Scalar loop kernels: independent references for conv/matmul/linear.

These run the arithmetic one multiply-accumulate at a time. Given a
``counter``, the conv and matmul loops bump its ``macs`` attribute once per
MAC. They double as correctness oracles for the vectorized kernels and as
the instrumented executor behind the FLOP-count oracle. Only use them on
small shapes.
"""

from __future__ import annotations

import numpy as np


def loop_matmul(a: np.ndarray, b: np.ndarray, counter=None) -> np.ndarray:
    """Batched matrix product via explicit triple loops."""
    bshape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    m, k = a.shape[-2:]
    k2, p = b.shape[-2:]
    assert k == k2
    a_b = np.broadcast_to(a, bshape + (m, k))
    b_b = np.broadcast_to(b, bshape + (k, p))
    out = np.zeros(bshape + (m, p), dtype=np.result_type(a, b))
    for idx in np.ndindex(*bshape):
        am = a_b[idx]
        bm = b_b[idx]
        om = out[idx]
        for i in range(m):
            for j in range(p):
                acc = 0.0
                for t in range(k):
                    acc += am[i, t] * bm[t, j]
                    if counter is not None:
                        counter.macs += 1
                om[i, j] = acc
    return out


def loop_linear(x2: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    rows, din = x2.shape
    dout = w.shape[0]
    out = np.zeros((rows, dout), dtype=x2.dtype)
    for r in range(rows):
        for o in range(dout):
            acc = 0.0
            for i in range(din):
                acc += x2[r, i] * w[o, i]
            out[r, o] = acc + (b[o] if b is not None else 0.0)
    return out


def loop_conv2d(x: np.ndarray, w: np.ndarray, bias: np.ndarray | None,
                stride, padding, groups: int, counter=None) -> np.ndarray:
    """Direct cross-correlation with explicit nested loops.

    Padding is materialized, so every kernel tap performs (and counts) a
    real multiply, matching the dense-window cost convention.
    """
    n, cin, h, wd = x.shape
    cout, cing, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wd + 2 * pw - kw) // sw + 1
    coutg = cout // groups
    out = np.zeros((n, cout, oh, ow), dtype=x.dtype)
    for b in range(n):
        for co in range(cout):
            g = co // coutg
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ci in range(cing):
                        xc = g * cing + ci
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += xp[b, xc, oy * sh + ky, ox * sw + kx] \
                                    * w[co, ci, ky, kx]
                                if counter is not None:
                                    counter.macs += 1
                    if bias is not None:
                        acc += bias[co]
                    out[b, co, oy, ox] = acc
    return out


def loop_conv2d_grads(x: np.ndarray, w: np.ndarray, g: np.ndarray,
                      stride, padding, groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Input and weight gradients of :func:`loop_conv2d` for the output
    gradient ``g``, by the same loops: each multiply ``x * w`` of an output
    cell passes that cell's gradient back to both of its factors.
    """
    n, cin, h, wd = x.shape
    cout, cing, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    coutg = cout // groups
    for b in range(n):
        for co in range(cout):
            xc0 = (co // coutg) * cing
            for oy in range(g.shape[2]):
                for ox in range(g.shape[3]):
                    go = g[b, co, oy, ox]
                    for ci in range(cing):
                        for ky in range(kh):
                            for kx in range(kw):
                                iy, ix = oy * sh + ky, ox * sw + kx
                                gxp[b, xc0 + ci, iy, ix] += go * w[co, ci, ky, kx]
                                gw[co, ci, ky, kx] += go * xp[b, xc0 + ci, iy, ix]
    return gxp[:, :, ph:ph + h, pw:pw + wd], gw


class CountingBackend:
    """Executes conv/matmul through the loop kernels; counts MACs in ``macs``.

    ``ops.linear`` reaches it through ``matmul``.
    """

    def __init__(self):
        self.macs = 0

    def matmul(self, a, b):
        return loop_matmul(a, b, self)

    ordered_matmul = matmul

    def conv2d(self, x, w, bias, stride, padding, groups):
        return loop_conv2d(x, w, bias, stride, padding, groups, self)
