"""Shared test fixtures."""

import tracemalloc

import pytest

from hirivit.train import SyntheticQuadrants
from hirivit.zoo import build_model, hiri_micro_config


def _peak_bytes(fn):
    """Peak bytes allocated while ``fn()`` runs, over what was live before (tracemalloc).

    What ``fn`` returns is dropped inside the measurement, so its own
    allocation counts towards the peak.
    """
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_bytes():
    """The :func:`_peak_bytes` helper."""
    return _peak_bytes


def _micro_setup(seed=0):
    """Student, teacher and data of the train_micro recipe: the micro model at 64x64."""
    cfg = hiri_micro_config()
    model, _ = build_model(cfg, seed=seed)
    teacher, _ = build_model(cfg, seed=seed)
    data = SyntheticQuadrants(image_size=cfg.resolution[0], num_classes=cfg.num_classes,
                              seed=seed)
    return model, teacher, data


@pytest.fixture
def micro_setup():
    """The :func:`_micro_setup` helper."""
    return _micro_setup
