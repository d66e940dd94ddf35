"""The two fast demos run end to end against the current public surface.

Demos 01 and 03 take 15 s or more each and are left to be run by hand.
"""

import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("name", ["02_blocks_and_gradients.py",
                                  "04_mixing_and_distillation.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip() and "FAIL" not in out and "False" not in out
