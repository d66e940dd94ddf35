"""Bad config choices and values: a ConfigError naming the key, CLI exit 2."""

import dataclasses

import pytest

from hirivit.cli import main
from hirivit.config import parse_config, serialize_config
from hirivit.errors import ConfigError
from hirivit.zoo import Model, hiri_config, hiri_micro_config, mvit_config

MICRO = serialize_config(hiri_micro_config())


def _set(text, section, key, value):
    """``text`` with ``key = value`` added at the top of ``section``."""
    head = f"[{section}]\n"
    assert head in text
    return text.replace(head, f"{head}{key} = {value}\n", 1)


def _replace(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


# (config text, key the error must name)
BAD_CONFIGS = {
    "kv_reduce": (_set(serialize_config(hiri_config("S")), "stage 4",
                       "kv_reduce", "poool"), "kv_reduce"),
    "norm": (_set(MICRO, "stage 3", "norm", "gn"), "norm"),
    "attn_norm": (_set(MICRO, "stage 4", "attn_norm", "rms"), "attn_norm"),
    "depth_text": (_replace(MICRO, "depth = 1", "depth = one"), "depth"),
    "resolution_text": (_replace(MICRO, "resolution = 64x64", "resolution = 64xabc"),
                        "resolution"),
    "resolution_one_side": (_replace(MICRO, "resolution = 64x64", "resolution = 64"),
                            "resolution"),
    "use_cffn_text": (_set(MICRO, "stage 4", "use_cffn", "maybe"), "use_cffn"),
    "resolution_zero": (_replace(MICRO, "resolution = 64x64", "resolution = 0x0"),
                        "resolution"),
    "channels": (_replace(MICRO, "channels = 8", "channels = -8"), "channels"),
    "expansion": (_replace(MICRO, "expansion = 4", "expansion = 0"), "expansion"),
    "depth_zero": (_replace(MICRO, "depth = 1", "depth = 0"), "depth"),
    "heads": (_replace(MICRO, "heads = 2", "heads = 0"), "heads"),
    "head_hidden": (_set(MICRO, "model", "head_hidden", "0"), "head_hidden"),
    "anchor_resolution": (_set(MICRO, "model", "anchor_resolution", "-448"),
                          "anchor_resolution"),
    "anchored_plain_downsamplers": (
        _set(serialize_config(mvit_config(1, 224)), "model", "anchor_resolution", "448"),
        "downsamplers"),
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_config_is_a_config_error_naming_the_key(name):
    text, key = BAD_CONFIGS[name]
    with pytest.raises(ConfigError, match=key):
        Model(parse_config(text))


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_analyze_bad_config_exits_2(name, tmp_path, capsys):
    text, key = BAD_CONFIGS[name]
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main(["analyze", "--config", str(path), "--res", "224"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


def test_malformed_value_names_its_line():
    text = _replace(MICRO, "depth = 1", "depth = one")
    line = text.splitlines().index("depth = one") + 1
    with pytest.raises(ConfigError, match=f"line {line}: depth"):
        parse_config(text)


@pytest.mark.parametrize("res", ["0", "-32"])
def test_analyze_non_positive_resolution_exits_2(res, capsys):
    assert main(["analyze", "--variant", "S", "--res", res]) == 2
    assert "resolution" in capsys.readouterr().err


def test_stage_grids_match_the_build_or_the_build_fails():
    cfg = dataclasses.replace(mvit_config(1, 224), anchor_resolution=448)
    assert cfg.stage_grids() == [56, 28, 28, 14]
    with pytest.raises(ConfigError, match="downsamplers"):
        Model(cfg)
    cfg = mvit_config(6, 224)
    cfg.anchor_resolution = 448
    model = Model(cfg)
    shapes = model.stage_boundary_shapes((1, 3, 224, 224))
    assert [s[2] for s in shapes] == cfg.stage_grids()


@pytest.mark.parametrize("res", [64, 160, 192])
def test_anchored_resolution_below_the_anchor_grids_is_rejected(res, capsys):
    message = f"resolution {res}x{res} .*anchor_resolution 448"
    with pytest.raises(ConfigError, match=message):
        hiri_config("S", res)
    assert main(["analyze", "--variant", "S", "--res", str(res)]) == 2
    err = capsys.readouterr().err
    assert f"resolution {res}x{res}" in err and "anchor_resolution 448" in err


def test_smallest_anchored_resolution_still_builds():
    cfg = hiri_config("S", 224)
    assert cfg.stage_grids() == [56, 28, 28, 14, 7]
    shapes = Model(cfg).stage_boundary_shapes((1, 3, 224, 224))
    assert [s[2] for s in shapes] == cfg.stage_grids()
