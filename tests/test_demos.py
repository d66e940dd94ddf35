"""The three fast demos run end to end against the current public surface.

Demo 03 takes 15 s or more and is left to be run by hand.
"""

import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("name", ["01_costs_and_scaling.py",
                                  "02_blocks_and_gradients.py",
                                  "04_mixing_and_distillation.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip() and "FAIL" not in out and "False" not in out
