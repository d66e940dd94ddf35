"""The config text format, byte for byte.

``golden_configs/`` holds the serialized configs of the published variants,
the ablation ladder and the micro model, written before the serializer was
derived from the dataclass fields. Each file must still be what
``serialize_config`` writes for its build, and parse back to that build.
"""

import dataclasses
from pathlib import Path

import pytest

from hirivit.config import parse_config, serialize_config
from hirivit.zoo import hiri_config, hiri_micro_config, mvit_config

GOLDEN = Path(__file__).parent / "golden_configs"
BUILDS = {
    **{f"hiri_{v.lower()}_{res}": (hiri_config, v, res)
       for v in "SBL" for res in (224, 384, 448)},
    **{f"mvit_row{row}_{res}": (mvit_config, row, res)
       for row in range(1, 7) for res in (224, 448)},
    "hiri_micro_64": (hiri_micro_config, 64),
}


def _build(name):
    make, *args = BUILDS[name]
    return make(*args)


def test_every_golden_file_has_a_build():
    assert sorted(p.stem for p in GOLDEN.glob("*.cfg")) == sorted(BUILDS)


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_serialize_matches_the_golden_bytes(name):
    assert serialize_config(_build(name)).encode() == (GOLDEN / f"{name}.cfg").read_bytes()


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_golden_file_round_trips(name):
    text = (GOLDEN / f"{name}.cfg").read_bytes().decode()
    cfg = parse_config(text)
    assert cfg == _build(name)
    assert serialize_config(cfg) == text


def test_non_square_resolution_round_trips():
    cfg = dataclasses.replace(hiri_micro_config(), resolution=(64, 128))
    text = serialize_config(cfg)
    assert "resolution = 64x128\n" in text
    assert parse_config(text) == cfg
