"""Command-line surface: exit codes, formats, determinism."""

import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

from hirivit.cli import main
from hirivit.config import serialize_config
from hirivit.params import load_checkpoint
from hirivit.zoo import hiri_micro_config


def test_analyze_table(capsys):
    assert main(["analyze", "--variant", "S", "--res", "224,448"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 3
    assert "S" in lines[1]
    # params column identical across resolutions
    p224 = lines[1].split()[2]
    p448 = lines[2].split()[2]
    assert p224 == p448


def test_analyze_csv_parses(capsys):
    assert main(["analyze", "--variant", "S", "--res", "224", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    header, row = out.strip().splitlines()
    assert header == "variant,resolution,params,gflops,ratio"
    fields = row.split(",")
    assert fields[0] == "S" and int(fields[1]) == 224
    assert float(fields[3]) > 0


def test_analyze_unknown_variant_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--variant", "Q"])
    assert exc.value.code == 2


def test_analyze_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "micro.cfg"
    cfg_path.write_text(serialize_config(hiri_micro_config()))
    assert main(["analyze", "--config", str(cfg_path), "--res", "64",
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "hiri_micro" in out


def test_analyze_config_file_with_utf8_bom(tmp_path, capsys):
    text = serialize_config(hiri_micro_config())
    plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    outs = []
    for path in (plain, bom):
        assert main(["analyze", "--config", str(path), "--res", "64"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and "hiri_micro" in outs[0]


def test_analyze_out_file(tmp_path):
    out_path = tmp_path / "report.csv"
    assert main(["analyze", "--variant", "S", "--res", "224", "--format", "csv",
                 "--out", str(out_path)]) == 0
    assert out_path.read_text().startswith("variant,")


def test_gradcheck_single_block(capsys):
    assert main(["gradcheck", "--block", "cffn"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "cffn" in out


def test_gradcheck_unknown_block(capsys):
    assert main(["gradcheck", "--block", "nope"]) == 2
    assert "error" in capsys.readouterr().err


def test_train_writes_artifacts(tmp_path, capsys):
    out_dir = str(tmp_path / "run")
    assert main(["train", "--steps", "5", "--seed", "11", "--out", out_dir]) == 0
    metrics = Path(out_dir, "metrics.csv").read_text().splitlines()
    assert metrics[0] == "step,loss,lr,train_acc"
    assert len(metrics) == 6
    student = load_checkpoint(os.path.join(out_dir, "student.hiri"))
    teacher = load_checkpoint(os.path.join(out_dir, "teacher.hiri"))
    assert student.paths() == teacher.paths()


def test_train_deterministic_per_seed(tmp_path):
    outs = []
    for name in ("a", "b"):
        out_dir = str(tmp_path / name)
        assert main(["train", "--steps", "4", "--seed", "7", "--out", out_dir]) == 0
        outs.append(Path(out_dir, "metrics.csv").read_text())
    assert outs[0] == outs[1]
    ta = load_checkpoint(str(tmp_path / "a" / "student.hiri"))
    tb = load_checkpoint(str(tmp_path / "b" / "student.hiri"))
    assert all(np.array_equal(ta[p].data, tb[p].data) for p in ta.paths())


def test_verify_tables_passes(capsys):
    assert main(["verify-tables"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 19


def test_analyze_without_variant_or_config_exits_2(capsys):
    assert main(["analyze", "--res", "224"]) == 2
    assert "pass --variant or --config" in capsys.readouterr().err


def test_analyze_config_matches_variant(tmp_path, capsys):
    """A config file of a published variant reports that variant's costs."""
    from hirivit.zoo import hiri_config

    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(serialize_config(hiri_config("S", 448)))
    reports = []
    for source in (["--variant", "S"], ["--config", str(cfg_path)]):
        assert main(["analyze", *source, "--res", "224,448", "--format", "csv",
                     "--detail"]) == 0
        reports.append(capsys.readouterr().out.replace("hiri_s,", "S,"))
    assert reports[0] == reports[1]


# -- OS errors on user-named paths are usage errors (exit 2), not tracebacks --

def _assert_usage_error(argv, capsys, *names):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and all(n in err for n in names), err


def test_analyze_config_directory_exits_2(tmp_path, capsys):
    _assert_usage_error(["analyze", "--config", str(tmp_path), "--res", "64"],
                        capsys, str(tmp_path))


def test_analyze_at_a_resolution_numpy_cannot_allocate_exits_2(capsys):
    """At 2240000 a side the S build's attention scores would outgrow NumPy's
    array size limit; the matmul shape check refuses them, naming both operands."""
    _assert_usage_error(["analyze", "--variant", "S", "--res", "2240000"], capsys,
                        "model.stage4.block1.attn", "too large to allocate",
                        "(0, 5, 4900000000, 64) x (0, 5, 64, 1225000000)")


def test_analyze_binary_config_exits_2(tmp_path, capsys):
    path = tmp_path / "model.cfg"
    path.write_bytes(bytes(range(128, 256)))
    _assert_usage_error(["analyze", "--config", str(path), "--res", "64"],
                        capsys, str(path), "not a text config file")


def test_analyze_out_directory_exits_2(tmp_path, capsys):
    _assert_usage_error(["analyze", "--variant", "S", "--res", "224", "--out",
                         str(tmp_path)], capsys, str(tmp_path))


def test_train_out_below_a_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out_dir = str(blocker / "run")
    _assert_usage_error(["train", "--steps", "1", "--out", out_dir], capsys, out_dir)


def test_train_non_square_resolution_exits_2(tmp_path, capsys):
    """The synthetic images are square: a 64x128 config is refused before
    any model is built or output written, not trained at 64x64."""
    cfg_path = tmp_path / "wide.cfg"
    cfg_path.write_text(serialize_config(
        dataclasses.replace(hiri_micro_config(), resolution=(64, 128))))
    out_dir = tmp_path / "run"
    _assert_usage_error(["train", "--config", str(cfg_path), "--steps", "1",
                         "--out", str(out_dir)], capsys, "64x128")
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ["train", "--seed", "-1"],
    ["gradcheck", "--seed", "-1"],
    ["gradcheck", "--tol", "-1"],
    ["gradcheck", "--tol", "nan"],
    ["verify-tables", "--tol-params", "-1"],
    ["verify-tables", "--tol-flops", "-1"],
], ids=" ".join)
def test_negative_value_is_a_usage_error_naming_the_flag(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[1]}: must be >= 0, got {argv[2]}" in capsys.readouterr().err


def test_train_diverged_exits_1_without_traceback(tmp_path, monkeypatch, capsys):
    """A non-finite loss ends the run with an ``error:`` line and exit 1; the
    metrics header stays and no checkpoint is written."""
    from hirivit.train import SyntheticQuadrants

    sample = SyntheticQuadrants.sample

    def nan_images(self, n):
        images, labels = sample(self, n)
        return np.full_like(images, np.nan), labels

    monkeypatch.setattr(SyntheticQuadrants, "sample", nan_images)
    out_dir = tmp_path / "run"
    assert main(["train", "--steps", "2", "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("batch stats: min nan max nan"), err
    assert err[1].startswith("error: non-finite loss nan at step 1 (batch index 0"), err
    assert len(err) == 2
    assert (out_dir / "metrics.csv").read_text() == "step,loss,lr,train_acc\n"
    assert sorted(os.listdir(out_dir)) == ["metrics.csv"]


@pytest.mark.parametrize("flag, value, name", [
    ("--steps", "0", "steps"), ("--alpha", "1.5", "alpha"),
    ("--ema-decay", "1.5", "ema_decay"),
])
def test_train_bad_recipe_value_exits_2_before_any_output(tmp_path, capsys, flag, value, name):
    """The whole ``TrainConfig`` is checked before ``--out`` is touched, so a
    usage error leaves no directory and no header-only metrics file."""
    out_dir = tmp_path / "run"
    _assert_usage_error(["train", flag, value, "--out", str(out_dir)], capsys,
                        name, value)
    assert not out_dir.exists()
