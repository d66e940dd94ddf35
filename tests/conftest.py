"""Shared test fixtures."""

import os
import subprocess
import sys
import tracemalloc

import pytest

import hirivit
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


def _run_script(script, threads, timeout=300):
    """The stdout of the Python ``script``, run in a process of its own at
    ``OPENBLAS_NUM_THREADS=threads`` with this checkout's ``src`` on the path.

    OpenBLAS picks its thread count when it loads, so each count needs its
    own process. A failing script fails the test with its stderr.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(hirivit.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=timeout)
    assert run.returncode == 0, run.stderr
    return run.stdout


@pytest.fixture
def run_script():
    """The :func:`_run_script` helper."""
    return _run_script
