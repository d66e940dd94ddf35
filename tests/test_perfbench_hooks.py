"""perfbench's traced runs hook the program by name; a rename here would
only leave an "entry points not found" note there, so tier-1 checks that
every hooked name still exists."""

import importlib.util
import os

import numpy as np

from hirivit.engine import Tensor, no_grad
from hirivit.train import AdamW, SyntheticQuadrants, TrainConfig, train_loop
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


def test_every_traced_backward_closure_runs_once_per_step(micro_setup, monkeypatch):
    # backward unlinks each node before running its closure; a closure the
    # tracer swapped in at creation must still run exactly once, so the
    # tracer's bwd spans (tensor.tape_nodes) count every taped result once
    tracing = _tracing(monkeypatch)
    model, teacher, data = micro_setup()
    tracer = tracing.Tracer()
    calls = []
    wrap_closure = tracer._wrap_closure

    def counting(label, fn, path):
        calls.append(0)
        i = len(calls) - 1

        def counted(g):
            calls[i] += 1
            return fn(g)

        return wrap_closure(label, counted, path)

    tracer._wrap_closure = counting
    tracer.install(train=True)
    try:
        train_loop(model, data, TrainConfig(steps=1, mix_prob=1.0, seed=0),
                   teacher_model=teacher)
    finally:
        tracer.remove()
    assert not tracer.missing
    assert calls and calls == [1] * len(calls)
    assert sum(s[tracing.KIND] == "bwd" for s in tracer.spans) == len(calls)


def test_every_traced_op_returns_a_tensor(micro_setup, monkeypatch):
    # the tracer times every public engine.ops function as an op; a helper
    # that returns no Tensor would be counted as an op and take its time out
    # of the self time of the op or module span that called it
    tracing = _tracing(monkeypatch)
    model, teacher, data = micro_setup()
    tracer = tracing.Tracer()
    returned = []
    wrap_op = tracer._wrap_op

    def recording(name, fn):
        def op(*args, **kwargs):
            out = fn(*args, **kwargs)
            returned.append((name, type(out)))
            return out

        return wrap_op(name, op)

    tracer._wrap_op = recording
    tracer.install(train=True)
    try:
        model.eval()
        with no_grad():
            model(Tensor(np.random.default_rng(0).standard_normal((2, 3, 64, 64))))
        model.train(True)
        train_loop(model, data, TrainConfig(steps=1, mix_prob=1.0, seed=0),
                   teacher_model=teacher)
    finally:
        tracer.remove()
    assert not tracer.missing
    assert returned
    assert sorted({name for name, kind in returned if kind is not Tensor}) == []
