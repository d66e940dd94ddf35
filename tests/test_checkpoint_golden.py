"""The checkpoint entries, name for name.

A checkpoint's entry names, shapes and trainable flags come from the module
tree (``Module.named_entries``), and its bytes from the seeded init. The
digests below were taken from the builds of ``golden_configs/`` before the
module registry was derived from module attributes. A renamed, reordered or
reshaped entry, or a changed init, breaks every saved checkpoint, so none of
them may change.
"""

import hashlib
from pathlib import Path

import pytest

from hirivit.config import parse_config
from hirivit.params import save_checkpoint
from hirivit.zoo import Model, build_model, hiri_micro_config

GOLDEN = Path(__file__).parent / "golden_configs"

# sha256 of one "path HxWx... trainable(0/1)" line per entry, in tree order
ENTRY_DIGESTS = {
    "hiri_b_224": "a51bbaabb4e4c9b66e3016b10779a192a37eba8c4549dd311a4a5b08c6abf619",
    "hiri_b_384": "a51bbaabb4e4c9b66e3016b10779a192a37eba8c4549dd311a4a5b08c6abf619",
    "hiri_b_448": "a51bbaabb4e4c9b66e3016b10779a192a37eba8c4549dd311a4a5b08c6abf619",
    "hiri_l_224": "97cd8ea1f1a7953190ad96e374cb948edc04028b2dfd2417557f5f57dd1ebe57",
    "hiri_l_384": "97cd8ea1f1a7953190ad96e374cb948edc04028b2dfd2417557f5f57dd1ebe57",
    "hiri_l_448": "97cd8ea1f1a7953190ad96e374cb948edc04028b2dfd2417557f5f57dd1ebe57",
    "hiri_micro_64": "37d1d73837e5cfd7219a2f1c45193a98369422221a6d20e6ea8c5720d7f9d336",
    "hiri_s_224": "124c5bab1d981ca0d78592628e1fb4d7049f18e89e6eb7db9c47bf5e0d5eb287",
    "hiri_s_384": "124c5bab1d981ca0d78592628e1fb4d7049f18e89e6eb7db9c47bf5e0d5eb287",
    "hiri_s_448": "124c5bab1d981ca0d78592628e1fb4d7049f18e89e6eb7db9c47bf5e0d5eb287",
    "mvit_row1_224": "1fc82e71ffb98bddeb239a13e4ff4e8408ba9da58f43f6ccd25b999fe59b7443",
    "mvit_row1_448": "1fc82e71ffb98bddeb239a13e4ff4e8408ba9da58f43f6ccd25b999fe59b7443",
    "mvit_row2_224": "f9d3232b31cbb4dd5d707208ed47b211fbedc4dd51a2ffd3a28d2567c24b7300",
    "mvit_row2_448": "f9d3232b31cbb4dd5d707208ed47b211fbedc4dd51a2ffd3a28d2567c24b7300",
    "mvit_row3_224": "06c8d8d820bf256cda6bbee7191f1e1a86aecf5fce43d77d02d7c90071d5bc0e",
    "mvit_row3_448": "06c8d8d820bf256cda6bbee7191f1e1a86aecf5fce43d77d02d7c90071d5bc0e",
    "mvit_row4_224": "777e9cb39597d3e98eb4d1f4cf4befd2b375189b5faccd069b88a917e4e30db0",
    "mvit_row4_448": "777e9cb39597d3e98eb4d1f4cf4befd2b375189b5faccd069b88a917e4e30db0",
    "mvit_row5_224": "76338de3ae9eeb25e8c32e182684249cddebac11ecdfbc77c93937c868d71395",
    "mvit_row5_448": "76338de3ae9eeb25e8c32e182684249cddebac11ecdfbc77c93937c868d71395",
    "mvit_row6_224": "302790b22952602dc9a8e30ecd9e908c2d1be68e5e39635908d904c88ad97dc4",
    "mvit_row6_448": "302790b22952602dc9a8e30ecd9e908c2d1be68e5e39635908d904c88ad97dc4",
}

# sha256 of the checkpoint file of the seed-0 micro build
MICRO_CHECKPOINT_DIGEST = "31a4ad8f1bb2ee36374f0f975c93d402ca2f51a64bc6c068293c4f9d3593694a"


def test_every_golden_config_has_an_entry_digest():
    assert sorted(p.stem for p in GOLDEN.glob("*.cfg")) == sorted(ENTRY_DIGESTS)


@pytest.mark.parametrize("name", sorted(ENTRY_DIGESTS))
def test_checkpoint_entries_match_the_golden_digest(name):
    tree = Model(parse_config((GOLDEN / f"{name}.cfg").read_text())).param_tree()
    trainable = {path for path, _ in tree.trainable_items()}
    lines = "".join(f"{path} {'x'.join(map(str, t.shape))} {int(path in trainable)}\n"
                    for path, t in tree.items())
    assert hashlib.sha256(lines.encode()).hexdigest() == ENTRY_DIGESTS[name]


def test_micro_checkpoint_bytes_match_the_golden_digest(tmp_path):
    _, tree = build_model(hiri_micro_config(), seed=0)
    path = tmp_path / "micro.hiri"
    save_checkpoint(tree, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MICRO_CHECKPOINT_DIGEST
