"""Cutmix and Mixup pair mixing.

The mixed image is ``M * x_a + (1 - M) * x_b`` with the realized mixing
fraction ``lam = sum(M) / (H * W)``; labels mix as ``lam * y_a +
(1 - lam) * y_b``. For Cutmix M is a single axis-aligned rectangle of
ones; lam always comes from the realized mask, not the sampled target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CUTMIX_BETA = 1.0     # rectangle area ~ Beta(1, 1), i.e. uniform
MIXUP_BETA = 0.8


@dataclass
class MixedSample:
    image: np.ndarray          # mixed pixels, same shape as the inputs
    label: np.ndarray          # soft label(s)
    mask: np.ndarray | None    # H x W binary map (None for Mixup)
    lam: float


def _check_pair(xa, ya, xb, yb):
    if xa.shape != xb.shape:
        raise ValueError(f"image shapes differ: {xa.shape} vs {xb.shape}")
    if ya.shape != yb.shape:
        raise ValueError(f"label shapes differ: {ya.shape} vs {yb.shape}")


def sample_rectangle(h: int, w: int, area_frac: float, rng: np.random.Generator):
    """Axis-aligned rectangle with ~area_frac coverage, clipped to the image."""
    side = np.sqrt(area_frac)
    rh, rw = int(round(h * side)), int(round(w * side))
    cy = int(rng.integers(0, h))
    cx = int(rng.integers(0, w))
    y1, y2 = np.clip([cy - rh // 2, cy - rh // 2 + rh], 0, h)
    x1, x2 = np.clip([cx - rw // 2, cx - rw // 2 + rw], 0, w)
    return int(y1), int(y2), int(x1), int(x2)


def cutmix(xa: np.ndarray, ya: np.ndarray, xb: np.ndarray, yb: np.ndarray,
           rng: np.random.Generator) -> MixedSample:
    """Paste a rectangle of ``xa`` over ``xb``; mix labels by realized area."""
    _check_pair(xa, ya, xb, yb)
    h, w = xa.shape[-2:]
    area = float(rng.beta(CUTMIX_BETA, CUTMIX_BETA))
    y1, y2, x1, x2 = sample_rectangle(h, w, area, rng)
    mask = np.zeros((h, w))
    mask[y1:y2, x1:x2] = 1.0
    lam = float(mask.sum() / (h * w))
    image = mask * xa + (1.0 - mask) * xb
    label = lam * ya + (1.0 - lam) * yb
    return MixedSample(image=image, label=label, mask=mask, lam=lam)


def mixup(xa: np.ndarray, ya: np.ndarray, xb: np.ndarray, yb: np.ndarray,
          rng: np.random.Generator) -> MixedSample:
    """Convex pixel blend with lam ~ Beta(MIXUP_BETA, MIXUP_BETA); no mask."""
    _check_pair(xa, ya, xb, yb)
    lam = float(rng.beta(MIXUP_BETA, MIXUP_BETA))
    return MixedSample(
        image=lam * xa + (1.0 - lam) * xb,
        label=lam * ya + (1.0 - lam) * yb,
        mask=None,
        lam=lam,
    )
