"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest -q perfbench
"""

import os
import statistics
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import stats  # noqa: E402
import tracing  # noqa: E402


# -- percentile rule ---------------------------------------------------------

def test_tail_is_eleventh_largest_of_distinct_samples():
    value, pct, beyond = stats.tail(list(range(1, 21)))
    assert (value, pct, beyond) == (10, 50.0, 10)


def test_tail_with_eleven_samples_is_the_minimum():
    value, pct, beyond = stats.tail([5.0, 3.0, 9.0, 1.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0])
    assert value == 1.0 and beyond == 10
    assert pct == pytest.approx(100 / 11)


def test_tail_steps_below_ties():
    # the 11th largest is a 7, but only the 5s have ten samples beyond them
    value, pct, beyond = stats.tail([5.0] * 3 + [7.0] * 12)
    assert (value, pct, beyond) == (5.0, 20.0, 12)


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        stats.tail(list(range(10)))


def test_quartiles_match_statistics_module():
    vals = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    assert stats.quartiles(vals) == tuple(statistics.quantiles(vals, n=4))
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    # children cover [1,4] and [6,7]: 4 of the parent's 10 seconds
    assert stats.self_time(0.0, 10.0, [(1, 3), (2, 4), (6, 7)]) == pytest.approx(6.0)


def test_self_time_clips_children_to_the_parent():
    assert stats.self_time(0.0, 10.0, [(9, 12), (-2, 1)]) == pytest.approx(8.0)
    assert stats.self_time(0.0, 10.0, []) == 10.0


def test_self_times_of_span_tree():
    spans = [
        ["phase", "p", 0.0, 10.0, -1, 0, None, None],
        ["op", "a", 1.0, 4.0, 0, 0, None, None],
        ["op", "b", 2.0, 3.0, 1, 0, None, None],
        ["op", "c", 5.0, 6.0, 0, 0, None, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


# -- verdicts ----------------------------------------------------------------

BASE = [100.0, 101.0, 102.0, 99.0, 100.5, 101.5, 98.5, 100.2, 99.8, 100.9]


def test_verdict_improved():
    head = [v * 0.8 for v in BASE]
    v = stats.verdict(BASE, head, "lower", 0.1)
    assert v["verdict"] == "improved" and v["won"] == 1.0


def test_verdict_unchanged_within_bound():
    head = [v * 1.02 for v in BASE]
    assert stats.verdict(BASE, head, "lower", 0.1)["verdict"] == "unchanged"


def test_verdict_worse_beyond_bound():
    head = [v * 1.2 for v in BASE]
    v = stats.verdict(BASE, head, "lower", 0.1)
    assert v["verdict"] == "worse" and v["worse_by"] == pytest.approx(0.2, rel=1e-2)


def test_verdict_higher_is_better():
    head = [v * 1.2 for v in BASE]
    assert stats.verdict(BASE, head, "higher", 0.1)["verdict"] == "improved"
    assert stats.verdict(head, BASE, "higher", 0.1)["verdict"] == "worse"


def test_verdict_unresolved_when_spread_exceeds_bound():
    base = [50.0, 100.0, 150.0, 80.0, 120.0]
    head = [60.0, 110.0, 140.0, 90.0, 125.0]
    assert stats.verdict(base, head, "lower", 0.1)["verdict"] == "unresolved"


def test_verdict_wide_spread_but_every_run_better_is_unchanged():
    base = [100.0, 110.0, 120.0, 130.0, 200.0]
    head = [90.0, 95.0, 96.0, 97.0, 98.0]
    v = stats.verdict(base, head, "lower", 0.1)
    assert v["won"] == 1.0 and v["verdict"] == "unchanged"


def test_verdict_needs_nine_tenths_of_pairs():
    head = [v * 0.8 for v in BASE]
    head[0] = head[1] = BASE[0] * 1.5          # two of ten pairs lost
    v = stats.verdict(BASE, head, "lower", 0.1)
    assert v["won"] == 0.8 and v["verdict"] != "improved"


def test_verdict_pairs_by_seed():
    base, head = [10.0, 20.0, 30.0], [9.0, 19.0, 29.0]
    v = stats.verdict(base, head, "lower", 0.5, [1, 2, 3], [3, 2, 1])
    assert v["pairs"] == 3 and v["won"] == pytest.approx(2 / 3)


# -- tracing -------------------------------------------------------------------

def test_traced_forward_is_bitwise_and_joins_every_analyzer_record():
    import numpy as np

    from hirivit.analyzer import count_flops
    from hirivit.blocks import Module
    from hirivit.engine import Tensor, no_grad, ops
    from hirivit.zoo import build_model, hiri_micro_config

    model, _ = build_model(hiri_micro_config(), seed=0)
    model.eval()
    x = np.random.default_rng(0).standard_normal((2, 3, 64, 64))
    with no_grad():
        plain = model(Tensor(x)).data
    originals = dict(vars(ops)), Module.__call__

    tr = tracing.Tracer()
    tr.paths = tracing.module_paths(model)
    tr.install()
    try:
        with no_grad():
            traced = model(Tensor(x)).data
    finally:
        tr.remove()
    assert dict(vars(ops)) == originals[0] and Module.__call__ is originals[1]
    assert plain.tobytes() == traced.tobytes()

    report = count_flops(model, 64, 2)
    metrics, counts, unmatched = tracing.summarize(
        tr.spans, 1, report.records, set(tr.paths.values()))
    assert unmatched == [] and metrics["analyzer.matched_frac"] == 1.0
    assert counts["ops.conv2d_dw.calls"] > 0 and counts["ops.ordered_matmul.calls"] == 2
    assert "train.student_fwd_s" not in metrics       # no training phase ran
    zoo = sum(metrics[f"zoo.{k}.fwd_s"] for k in
              ("stem", "ds1", "ds2", "ds3", "ds4", "stage1", "stage2", "stage3",
               "stage4", "stage5", "head"))
    root = next(s for s in tr.spans if s[tracing.PATH] == "model")
    assert zoo <= root[tracing.END] - root[tracing.START]


def test_join_reports_a_module_that_never_ran():
    class Rec:
        def __init__(self, path, flops):
            self.path, self.flops = path, flops

    spans = [["module", "Model", 0.0, 1.0, -1, 0, "model", None],
             ["module", "Stage", 0.1, 0.5, 0, 0, "model.stage1", None]]
    records = [Rec("model.stage1.sum", 5), Rec("model.stage2.block1.fc1", 7),
               Rec("model.stage2.block1.idle", 0)]
    all_paths = {"model", "model.stage1", "model.stage2", "model.stage2.block1",
                 "model.stage2.block1.fc1"}
    metrics, _, unmatched = tracing.summarize(spans, 1, records, all_paths)
    assert unmatched == ["model.stage2.block1.fc1"]
    assert metrics["analyzer.matched_frac"] == 0.5
