"""Checkpoint binary format and config text format round trips."""

import re
import struct

import numpy as np
import pytest

from hirivit.config import parse_config, serialize_config
from hirivit.engine import Tensor
from hirivit.errors import ConfigError
from hirivit.params import (ParamTree, load_checkpoint, save_checkpoint,
                            truncated_normal)
from hirivit.zoo import build_model, hiri_config, hiri_micro_config


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        model, tree = build_model(hiri_micro_config(), seed=9)
        # run a training-mode forward so BN running stats move off their init
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 64, 64)))
        model(x)
        rm = tree["stage1.block1.pre_norm.running_mean"].data
        assert np.abs(rm).max() > 0
        path = str(tmp_path / "model.hiri")
        save_checkpoint(tree, path)
        loaded = load_checkpoint(path)
        assert loaded.paths() == tree.paths()
        for p, t in tree.items():
            assert np.array_equal(loaded[p].data, t.data), p
            assert loaded[p].data.shape == t.data.shape

    def test_load_into_model(self, tmp_path):
        model, tree = build_model(hiri_micro_config(), seed=10)
        path = str(tmp_path / "m.hiri")
        save_checkpoint(tree, path)
        other, other_tree = build_model(hiri_micro_config(), seed=11)
        assert not other_tree.allclose(tree)
        other.load_state(load_checkpoint(path))
        assert other_tree.allclose(tree)

    def test_magic_and_version(self, tmp_path):
        tree = ParamTree()
        tree.add("w", Tensor(np.arange(6.0).reshape(2, 3)), True)
        path = str(tmp_path / "t.hiri")
        save_checkpoint(tree, path)
        blob = open(path, "rb").read()
        assert blob[:4] == b"HIRI"
        assert struct.unpack_from("<I", blob, 4)[0] == 1

    def test_scalar_and_empty_names(self, tmp_path):
        tree = ParamTree()
        tree.add("a.b.c", Tensor(np.array(3.5)), True)
        tree.add("vec", Tensor(np.array([1.0, 2.0])), False)
        path = str(tmp_path / "s.hiri")
        save_checkpoint(tree, path)
        loaded = load_checkpoint(path)
        assert loaded["a.b.c"].data == 3.5
        assert np.array_equal(loaded["vec"].data, [1.0, 2.0])

    def test_crc_detects_corruption(self, tmp_path):
        tree = ParamTree()
        tree.add("w", Tensor(np.ones((4, 4))), True)
        path = str(tmp_path / "c.hiri")
        save_checkpoint(tree, path)
        blob = bytearray(open(path, "rb").read())
        blob[-12] ^= 0xFF         # flip a payload byte
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    def test_copy_into_names_the_first_differing_shape_and_copies_nothing(self):
        src, dst = ParamTree(), ParamTree()
        src.add("a", Tensor(np.ones(3)), True)
        src.add("b", Tensor(np.ones((2, 3))), True)
        dst.add("a", Tensor(np.zeros(3)), True)
        dst.add("b", Tensor(np.zeros((3, 2))), True)
        with pytest.raises(ConfigError, match=re.escape("shape mismatch at b: (3, 2) vs (2, 3)")):
            src.copy_into(dst)
        assert not dst["a"].data.any()

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.hiri")
        open(path, "wb").write(b"JUNKxxxx")
        with pytest.raises(ConfigError):
            load_checkpoint(path)


class TestCorruptCheckpoint:
    """Each truncated or corrupted micro checkpoint either raises ConfigError
    or loads bit-exact arrays; a renamed path then fails ``load_state``."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        model, tree = build_model(hiri_micro_config(), seed=12)
        path = tmp_path_factory.mktemp("ckpt") / "micro.hiri"
        save_checkpoint(tree, str(path))
        return model, tree, path.read_bytes()

    @staticmethod
    def _records(tree):
        """Per record: (start, name start, shape start, payload start, end)."""
        out, off = [], 8
        for name, t in tree.items():
            name_at = off + 4
            shape_at = name_at + len(name.encode()) + 4
            payload_at = shape_at + 8 * t.ndim
            out.append((off, name_at, shape_at, payload_at, payload_at + 8 * t.size))
            off = payload_at + 8 * t.size
        return out

    def _outcome(self, saved, blob, tmp_path):
        model, tree, _ = saved
        path = str(tmp_path / "bad.hiri")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            loaded = load_checkpoint(path)
        except ConfigError:
            return "error"
        assert len(loaded) == len(tree)
        for (_, a), (_, b) in zip(loaded.items(), tree.items()):
            assert a.shape == b.shape and np.array_equal(a.data, b.data)
        if loaded.paths() == tree.paths():
            return "exact"
        with pytest.raises(ConfigError):
            model.load_state(loaded)
        return "renamed"

    def test_layout_matches_file(self, saved):
        _, tree, blob = saved
        assert self._records(tree)[-1][-1] == len(blob) - 4

    def test_every_truncation_raises(self, saved, tmp_path):
        _, tree, blob = saved
        records = self._records(tree)
        cuts = set(range(records[0][-1] + 1))         # header and first record
        for rec in records:
            cuts.update((rec[0] - 1, rec[0], rec[0] + 1))
        cuts.update(range(records[0][-1], len(blob), 4099))   # through payloads
        cuts.update((len(blob) - 5, len(blob) - 1))
        for cut in sorted(c for c in cuts if 0 <= c < len(blob)):
            assert self._outcome(saved, blob[:cut], tmp_path) == "error", cut

    def test_flipped_header_bytes(self, saved, tmp_path):
        _, tree, blob = saved
        records = self._records(tree)
        seen = set()
        for start, _, _, payload_at, _ in (records[0], records[1],
                                           records[len(records) // 2], records[-1]):
            for at in range(start, payload_at):      # name length, name, shape
                for mask in (0x01, 0x20, 0x80):
                    bad = bytearray(blob)
                    bad[at] ^= mask
                    seen.add(self._outcome(saved, bytes(bad), tmp_path))
        assert seen <= {"error", "renamed"} and "error" in seen

    @pytest.mark.parametrize("record", [0, -1])
    def test_flipped_name_byte_loads_and_load_state_names_it(self, saved, tmp_path,
                                                             record):
        """The CRC covers payloads only: a name byte flipped to another valid
        character loads, and ``load_state`` names the altered path."""
        model, tree, blob = saved
        _, name_at, _, _, _ = self._records(tree)[record]
        path = tree.paths()[record]
        bad = bytearray(blob)
        bad[name_at] = ord("X")
        (tmp_path / "renamed.hiri").write_bytes(bytes(bad))
        loaded = load_checkpoint(str(tmp_path / "renamed.hiri"))
        renamed = "X" + path[1:]
        assert loaded.paths()[record] == renamed
        with pytest.raises(ConfigError, match=re.escape(
                f"entry {record % len(tree)} is {renamed!r} here and {path!r} in the target")):
            model.load_state(loaded)

    def test_error_names_the_offset(self, saved, tmp_path):
        _, tree, blob = saved
        _, _, shape_at, _, _ = self._records(tree)[0]
        path = str(tmp_path / "cut.hiri")
        with open(path, "wb") as fh:
            fh.write(blob[:shape_at + 4])
        with pytest.raises(ConfigError, match=f"byte {shape_at}"):
            load_checkpoint(path)


class TestTruncatedNormal:
    def test_bounded_and_deterministic(self):
        rng1 = np.random.default_rng(3)
        rng2 = np.random.default_rng(3)
        a = truncated_normal(rng1, (10000,), std=0.02)
        b = truncated_normal(rng2, (10000,), std=0.02)
        assert (a == b).all()
        assert np.abs(a).max() <= 0.04

    @staticmethod
    def _rescanning_loop(rng, shape, std=0.02):
        """Oracle: redraw every rejected entry, rescanning the whole tensor."""
        x = rng.standard_normal(shape) * std
        bad = np.abs(x) > 2.0 * std
        while bad.any():
            x[bad] = rng.standard_normal(int(bad.sum())) * std
            bad = np.abs(x) > 2.0 * std
        return x

    @pytest.mark.parametrize("shape", [(1,), (10000,), (16, 1, 3, 3), (64, 32, 1, 1),
                                       (2_000_000,)])
    def test_equals_rescanning_loop(self, shape):
        for seed in range(3):
            rng1, rng2 = np.random.default_rng(seed), np.random.default_rng(seed)
            a = truncated_normal(rng1, shape)
            b = self._rescanning_loop(rng2, shape)
            assert a.shape == b.shape and (a == b).all()
            assert rng1.standard_normal() == rng2.standard_normal()   # same draws used


class TestConfigFormat:
    def test_parse_serialize_idempotent(self):
        cfg = hiri_config("S", 448)
        text = serialize_config(cfg)
        cfg2 = parse_config(text)
        text2 = serialize_config(cfg2)
        assert text == text2
        assert cfg2 == cfg

    def test_build_from_parsed_config(self):
        text = serialize_config(hiri_micro_config())
        cfg = parse_config(text)
        model, tree = build_model(cfg, seed=1)
        _, tree_direct = build_model(hiri_micro_config(), seed=1)
        assert tree.paths() == tree_direct.paths()
        assert tree.allclose(tree_direct)

    def test_unknown_model_key_rejected(self):
        text = serialize_config(hiri_micro_config()) + "bogus = 1\n"
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_unknown_stage_key_rejected(self):
        text = serialize_config(hiri_micro_config())
        text = text.replace("[stage 2]", "[stage 2]\nwindow = 7")
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError):
            parse_config("[model]\nname = x\n")

    def test_comments_and_blank_lines_ok(self):
        text = "# header\n" + serialize_config(hiri_micro_config())
        parse_config(text)

    def test_noncontiguous_stages_rejected(self):
        text = serialize_config(hiri_micro_config()).replace("[stage 5]", "[stage 9]")
        with pytest.raises(ConfigError):
            parse_config(text)
