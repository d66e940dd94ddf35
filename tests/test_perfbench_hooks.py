"""perfbench's traced runs hook the program by name; a rename here would
only leave an "entry points not found" note there, so tier-1 checks that
every hooked name still exists."""

import importlib.util
import os

from hirivit.train import AdamW, SyntheticQuadrants
from hirivit.train import loop

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)      # tracing imports its sibling stats
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_train_phase_is_a_loop_callable(monkeypatch):
    phases = _tracing(monkeypatch).TRAIN_PHASES
    assert "_accuracy" in [name for name, _ in phases]
    for name, label in phases:
        assert callable(getattr(loop, name, None)), (name, label)


def test_traced_optimizer_and_sampler_exist():
    assert callable(AdamW.step)
    assert callable(SyntheticQuadrants.sample)
