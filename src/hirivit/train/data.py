"""Training data: a seeded synthetic generator.

The synthetic task is deliberately separable: each class lights up a
different quadrant in a different color channel on top of Gaussian noise.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError


class SyntheticQuadrants:
    """Two-or-more-class colored-quadrant images, deterministic per seed."""

    # (quadrant row, quadrant col, channel) per class
    _LAYOUT = [(0, 0, 0), (1, 1, 2), (0, 1, 1), (1, 0, 0)]

    def __init__(self, image_size: int = 64, num_classes: int = 2,
                 noise: float = 0.3, seed: int = 0):
        if num_classes > len(self._LAYOUT):
            raise ConfigError(f"at most {len(self._LAYOUT)} synthetic classes")
        self.image_size = image_size
        self.num_classes = num_classes
        self.noise = noise
        self.rng = np.random.default_rng(seed)

    def sample(self, n: int):
        """Return (images (n,3,S,S), integer labels (n,))."""
        s = self.image_size
        half = s // 2
        labels = self.rng.integers(0, self.num_classes, size=n)
        images = self.rng.standard_normal((n, 3, s, s)) * self.noise
        for i, lab in enumerate(labels):
            qr, qc, ch = self._LAYOUT[lab]
            images[i, ch, qr * half:(qr + 1) * half, qc * half:(qc + 1) * half] += 1.0
        return images, labels

    def one_hot(self, labels: np.ndarray) -> np.ndarray:
        out = np.zeros((len(labels), self.num_classes))
        out[np.arange(len(labels)), labels] = 1.0
        return out
