"""The README's library quick start runs as written and prints what its
comments promise."""

import os
import re
from pathlib import Path

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def _quick_start_blocks():
    text = Path(README).read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_quick_start_builds_s_at_448_and_counts_its_costs(capsys):
    exec(_quick_start_blocks()[0], {})
    out = capsys.readouterr().out.splitlines()
    # the README's comments say ~34.6M parameters and ~4.9 GFLOPs
    assert re.fullmatch(r"34,6\d\d,\d\d\d parameters", out[0]), out
    assert re.fullmatch(r"4\.9\d GFLOPs", out[1]), out


def test_quick_start_trains_the_micro_variant():
    block = _quick_start_blocks()[1]
    assert block.count("TrainConfig(steps=200)") == 1
    namespace = {}
    exec(block.replace("TrainConfig(steps=200)", "TrainConfig(steps=2)"), namespace)
    assert len(namespace["records"]) == 2
