"""Shared test fixtures."""

import tracemalloc

import pytest


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
