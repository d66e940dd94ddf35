"""No-tape blocks run in row bands.

Without a tape and in eval mode, ``FFNBlock`` and ``ConvFFNBlock`` run their
chain over bands of whole rows (``ops._row_bands``) whenever the hidden map
exceeds ``ops.FFN_BAND_BYTES``, so the wide hidden map never exists whole;
``HighResStem`` and ``HighResBlock`` do so whenever their output exceeds
``ops.HIRES_BAND_BYTES``, each conv computing a row window of its input.
Every output must be bitwise that of one pass, at one and at two BLAS
threads, the cost records must not move, and the eval activation peaks must
fall: below one hidden map of a ladder build, below four stage-1 maps of
HiRI-ViT-S@448.
"""

import numpy as np
import pytest

from hirivit import blocks
from hirivit.analyzer import count_flops
from hirivit.engine import Tensor, no_grad, observe, ops
from hirivit.zoo import Model, hiri_config, hiri_micro_config, mvit_config

ONE_PASS = 1 << 62
HIRES = (blocks.HighResStem, blocks.HighResBlock)


def _block(kind, channels, expansion, norm="bn", seed=0):
    """A block in eval mode with random entries; a stem takes an image."""
    block = {"ffn": lambda: blocks.FFNBlock(channels, expansion, norm=norm),
             "cffn": lambda: blocks.ConvFFNBlock(channels, expansion, norm=norm),
             "stem": lambda: blocks.HighResStem(3, channels),
             "hires": lambda: blocks.HighResBlock(channels, expansion)}[kind]().eval()
    rng = np.random.default_rng(seed)
    for _, t, _ in block.named_entries():
        t.data[...] = rng.standard_normal(t.shape) * 0.2
    for path, t, _ in block.named_entries():
        if path.endswith("running_var"):
            t.data[...] = rng.uniform(0.5, 2.0, t.shape)
    return block


def _input(kind, n, c, h, w, seed=1):
    return np.random.default_rng(seed).standard_normal((n, 3 if kind == "stem" else c, h, w))


def _bound(block):
    return "HIRES_BAND_BYTES" if isinstance(block, HIRES) else "FFN_BAND_BYTES"


def _forward(block, x, cap, monkeypatch):
    monkeypatch.setattr(ops, _bound(block), cap)
    with no_grad():
        bounds = block._bounds(Tensor(x))
        return block(Tensor(x)).data, bounds


def _cap(block, x, units_per_band):
    """The bound that gives bands of ``units_per_band`` units of rows."""
    n, c, h, w = x.shape
    if isinstance(block, blocks.HighResStem):       # a unit is one output row
        return units_per_band * n * block.out_norm.gamma.shape[0] * (w // 4) * 8
    if isinstance(block, blocks.HighResBlock):      # cut as its low map, 6 * c a row
        return units_per_band * (16 // np.gcd(w // 2, 16)) * 3 * n * c * w * 8
    unit = 16 // np.gcd(w, 16)
    hidden_row = n * block.fc1.weight.shape[0] * w * 8
    alive = 2 if isinstance(block, blocks.ConvFFNBlock) else 1
    return units_per_band * unit * alive * hidden_row


# ---------------------------------------------------------------------------
# bitwise: banded against one pass
# ---------------------------------------------------------------------------

# (batch, channels, expansion, height, width, units per band, bands)
SHAPES = {
    "w56_two_bands": (1, 64, 4, 56, 56, 14, 2),
    "w56_many_bands": (1, 64, 4, 56, 56, 3, 10),
    "w56_batch3": (3, 32, 4, 56, 56, 4, 7),
    "w28_two_bands": (1, 64, 4, 28, 28, 4, 2),
    "w28_batch3_many": (3, 64, 4, 28, 28, 1, 7),
    "w14_one_unit_bands": (1, 96, 4, 32, 14, 1, 4),
    "w14_batch3_first_one_unit": (3, 64, 4, 24, 14, 2, 2),
    "w16_one_row_bands": (1, 128, 4, 16, 16, 1, 16),
    "w16_small_gemms": (1, 8, 4, 16, 16, 1, 16),
    "w1_column_map": (1, 128, 4, 64, 1, 1, 4),
}
# the same for the stem (output channels, no expansion, image size) and the
# high-resolution block, each with a batch norm's running statistics drawn
STEM_SHAPES = {
    "w16_one_row_bands": (1, 16, 0, 64, 64, 1, 16),
    "w32_batch3": (3, 16, 0, 64, 128, 3, 6),
    "w16_two_bands": (1, 32, 0, 128, 64, 16, 2),
    "w56_s224": (1, 32, 0, 224, 224, 14, 4),            # 56 columns: 2-row units
}
HIRES_SHAPES = {
    "w32_one_unit_bands": (1, 16, 4, 32, 32, 1, 16),
    "w56_batch3": (3, 16, 4, 56, 56, 1, 7),
    "w112_s448_stage1": (1, 32, 4, 112, 112, 3, 9),     # GEMMs above 100**3 MACs
    "w64_two_bands": (1, 8, 4, 32, 64, 8, 2),
}
SHAPES_OF = {"ffn": SHAPES, "cffn": SHAPES, "stem": STEM_SHAPES, "hires": HIRES_SHAPES}
CASES = [(kind, norm, shape) for kind in ("ffn", "cffn") for norm in ("ln", "bn")
         for shape in SHAPES] + [(kind, "bn", shape) for kind in ("stem", "hires")
                                 for shape in SHAPES_OF[kind]]


@pytest.mark.parametrize("kind,norm,shape", CASES)
def test_banded_forward_is_bitwise_one_pass(kind, norm, shape, monkeypatch):
    n, c, e, h, w, units, bands = SHAPES_OF[kind][shape]
    block = _block(kind, c, e, norm)
    x = _input(kind, n, c, h, w)
    whole, one = _forward(block, x, ONE_PASS, monkeypatch)
    banded, bounds = _forward(block, x, _cap(block, x, units), monkeypatch)
    assert one == [0, whole.shape[2]]
    assert len(bounds) - 1 == bands, bounds
    assert banded.shape == whole.shape and banded.flags.c_contiguous
    assert banded.tobytes() == whole.tobytes()


def test_model_logits_are_bitwise_one_pass(monkeypatch):
    """Ladder row 4 at 64x64: ConvFFN stages banded from the first stage on."""
    model = Model(mvit_config(4, 64)).eval()
    rng = np.random.default_rng(3)
    for path, t, _ in model.named_entries():
        t.data[...] = (rng.uniform(0.5, 2.0, t.shape) if path.endswith("running_var")
                       else rng.standard_normal(t.shape) * 0.1)
    x = rng.standard_normal((2, 3, 64, 64))
    monkeypatch.setattr(ops, "FFN_BAND_BYTES", ONE_PASS)
    with no_grad():
        whole = model(Tensor(x)).data
    monkeypatch.setattr(ops, "FFN_BAND_BYTES", 1)
    first = dict(model.named_modules())["stage1.block1"]
    with no_grad():
        assert len(first._bounds(Tensor(np.empty((2, 64, 16, 16))))) > 2
        banded = model(Tensor(x)).data
    assert banded.tobytes() == whole.tobytes()


@pytest.mark.parametrize("kind", ["ffn", "cffn", "stem", "hires"])
def test_banded_forward_keeps_its_input(kind, monkeypatch):
    block = _block(kind, 64, 4, "bn")
    side = {"stem": 64, "hires": 32}.get(kind, 28)
    x = _input(kind, 1, 64, side, side, seed=4)
    keep = x.copy()
    _, bounds = _forward(block, x, _cap(block, x, 1), monkeypatch)
    assert len(bounds) > 2
    assert x.tobytes() == keep.tobytes()


# (kind, channels, side, units per band, parts): four bands each
OBSERVED = [
    ("ffn", 64, 28, 2, ("fc1", "fc2")),
    ("cffn", 64, 28, 2, ("fc1", "fc2", "dw")),
    ("hires", 16, 32, 4, ("pre_norm", "hi_dw", "lo_dw", "lo_fc1", "lo_fc2")),
    ("stem", 16, 64, 4, ("entry", "hi_dw", "hi_down", "lo_down", "lo_expand", "lo_project")),
]


def test_observer_sees_one_call_per_band(monkeypatch):
    """Each part of the chain, a ConvFFNBlock's depth-wise conv and both
    branches of the high-resolution blocks too, is called once per band: no
    extra call mends the rows next to a cut."""

    class Calls:
        def __init__(self):
            self.modules = []

        def call(self, module, t, **kw):
            self.modules.append(module)
            return module.forward(t, **kw)

        def on_result(self, out, k):
            pass

    for kind, c, side, units, parts in OBSERVED:
        block = _block(kind, c, 4, "ln")
        x = _input(kind, 1, c, side, side, seed=5)
        monkeypatch.setattr(ops, _bound(block), _cap(block, x, units))
        with no_grad(), observe(Calls()) as seen:
            block(Tensor(x))
        assert seen.modules.count(block) == 1, kind
        calls = [seen.modules.count(getattr(block, part)) for part in parts]
        assert calls == [4] * len(parts), kind


def test_taped_forward_is_one_pass(monkeypatch):
    monkeypatch.setattr(ops, "FFN_BAND_BYTES", 1)
    monkeypatch.setattr(ops, "HIRES_BAND_BYTES", 1)
    for kind, side, rows in (("cffn", 28, 28), ("stem", 64, 16), ("hires", 32, 32)):
        block = _block(kind, 64, 4, "bn")
        x = Tensor(_input(kind, 1, 64, side, side, seed=6))
        assert block._bounds(x) == [0, rows]
        with no_grad():
            assert len(block._bounds(x)) > 2


@pytest.mark.parametrize("kind", ["ffn", "cffn", "stem", "hires"])
def test_train_mode_forward_is_one_pass(kind, monkeypatch):
    """A batch norm in training mode takes the statistics of the whole batch,
    so a no-grad train-mode forward (as ``train_loop``'s accuracy pass runs)
    is one pass: bitwise the taped output, with the same running statistics."""
    c, side = {"stem": (16, 64), "hires": (64, 32)}.get(kind, (64, 28))
    x = _input(kind, 2, c, side, side, seed=7)
    taped, plain = (_block(kind, c, 4, "bn").train() for _ in range(2))
    monkeypatch.setattr(ops, _bound(plain), 1)
    with no_grad():
        assert len(plain.eval()._bounds(Tensor(x))) > 2
        y = plain.train()(Tensor(x)).data
    assert y.tobytes() == taped(Tensor(x)).data.tobytes()
    for (path, a, _), (_, b, _) in zip(plain.named_entries(), taped.named_entries()):
        assert a.data.tobytes() == b.data.tobytes(), path


# ---------------------------------------------------------------------------
# the cut rule, as a pure function
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rows,cols,row_bytes,cap,col_macs", [
    (56, 56, 1000, 10_000, 0),
    (56, 56, 1000, 10_000, 32768),
    (56, 56, 1000, 10_000, 64),
    (28, 28, 999, 4_000, 4096),
    (32, 14, 500, 600, 0),
    (16, 16, 10, 11, 0),
    (112, 112, 7000, 1 << 20, 65536),
    (14, 14, 1000, 5_000, 0),           # 196 columns: a ragged last band
    (62, 14, 1000, 16_000, 1024),
    (62, 14, 1000, 8_000, 4096),        # ragged, and held above the floor
    (7, 7, 1000, 10, 0),                # less than one unit of rows
])
def test_row_bands_cover_the_map_on_16_column_cuts(rows, cols, row_bytes, cap, col_macs):
    bounds = ops._row_bands(rows, cols, row_bytes, cap, col_macs)
    assert bounds[0] == 0 and bounds[-1] == rows
    sizes = np.diff(bounds)
    assert (sizes > 0).all()
    assert all(r * cols % 16 == 0 for r in bounds[:-1])
    unit = 16 // np.gcd(cols, 16)
    units = -(-rows // unit)    # the last one may be short
    if col_macs and rows * cols * col_macs > 100**3:
        assert all(s * cols * col_macs > 100**3 for s in sizes)
    else:                       # the fewest bands that fit, where a unit fits
        assert len(bounds) - 1 == -(-units // max(1, cap // (unit * row_bytes)))
        if unit * row_bytes <= cap:
            assert all(s * row_bytes <= cap for s in sizes)


@pytest.mark.parametrize("rows,cols,row_bytes,tape", [
    (56, 56, 1000, True),       # a tape
    (56, 56, 0, False),         # an empty batch
    (56, 56, 10, False),        # a map under the bound
])
def test_row_bands_one_pass(rows, cols, row_bytes, tape):
    assert ops._row_bands(rows, cols, row_bytes, 5_000, 0, tape=tape) == [0, rows]


def test_conv_row_blocks_follow_the_same_rule():
    x = np.zeros((2, 8, 56, 56))
    win = ops._windows(x, 3, 3, (1, 1), (1, 1), 1)
    k = 8 * 9
    assert ops._row_bounds(win, 1, 16) == ops._row_bands(
        56, 56, 2 * k * 56 * 8, ops.CONV_PATCH_CAP, 16 * k)


# ---------------------------------------------------------------------------
# cost records and the eval peak
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cfg", [mvit_config(1, 224), mvit_config(4, 224),
                                 hiri_micro_config(128), hiri_config("S", 448)],
                         ids=["row1", "row4", "micro", "s448"])
def test_cost_records_do_not_depend_on_the_bound(cfg, monkeypatch):
    model = Model(cfg)
    before = count_flops(model, cfg.resolution[0]).records
    monkeypatch.setattr(ops, "FFN_BAND_BYTES", 1)
    monkeypatch.setattr(ops, "HIRES_BAND_BYTES", 1)
    assert count_flops(model, cfg.resolution[0]).records == before


def _eval_peak(row, peak_bytes):
    model = Model(mvit_config(row, 224)).eval()
    x = Tensor(np.random.default_rng(4).standard_normal((1, 3, 224, 224)))
    with no_grad():
        return peak_bytes(lambda: model(x))


def test_ladder_row1_eval_peak_is_under_one_hidden_map(peak_bytes):
    """A stage-1 FFNBlock expands 64 channels eightfold at 56x56: a 12.8 MB
    map. One pass held it whole (18.4 MB peak); bands hold a band of it."""
    hidden = 64 * 8 * 56 * 56 * 8
    assert _eval_peak(1, peak_bytes) < hidden


def test_ladder_row4_eval_peak_is_under_one_hidden_map(peak_bytes):
    """A stage-1 ConvFFNBlock of row 4 expands 64 channels tenfold at 56x56: a
    16.1 MB map, held whole with its depth-wise conv's output by one pass
    (34.2 MB peak); bands hold two bands of it."""
    hidden = 64 * 10 * 56 * 56 * 8
    assert _eval_peak(4, peak_bytes) < hidden


def test_ladder_row4_eval_peak_holds_no_band_of_lookahead(peak_bytes):
    """A ConvFFNBlock band holds its hidden rows with one halo row on each
    side and its depth-wise conv's output, and drops the hidden rows before
    the projection. With a band of lookahead alive as well, the peak was
    14.97 MB (2**20 bytes); without it, 11.74 MB with a halo of one cut unit
    (two rows) and 11.19 MB with one row."""
    assert _eval_peak(4, peak_bytes) < 12.04 * 2**20


def test_s448_eval_peak_is_under_four_stage1_maps(peak_bytes):
    """HiRI-ViT-S@448 held its peak in the stem (18.2 MB in one pass, at
    ``stem.hi_down``), then in ``stage1.block2`` (14.6 MB). There three
    1x32x112x112 maps are alive (the stage's input, block 1's output and
    block 2's), so row bands leave a band's temporaries above them."""
    model = Model(hiri_config("S", 448)).eval()
    x = Tensor(np.random.default_rng(8).standard_normal((1, 3, 448, 448)))
    with no_grad():
        assert len(model.stem._bounds(x)) > 2
        assert peak_bytes(lambda: model(x)) < 4 * 32 * 112 * 112 * 8


# each banded block at a size where OpenBLAS runs its GEMMs on two threads, at
# a bound of 1 byte; HiRI-ViT-S@448's stem and stage-1 block at the shipped
# bound, the bands that model runs; and its stage-3 block at the shipped bound:
# two bands of 4-row units, each with a halo of one row, whose hidden GEMMs
# span no whole number of 16-column tiles
_BITS_SCRIPT = """
import numpy as np
from hirivit import blocks
from hirivit.engine import Tensor, no_grad, ops

cases = [(blocks.HighResStem(3, 32), (1, 3, 448, 448), 1),
         (blocks.HighResStem(3, 32), (1, 3, 448, 448), ops.HIRES_BAND_BYTES),
         (blocks.HighResBlock(32, 4), (1, 32, 112, 112), 1),
         (blocks.HighResBlock(32, 4), (1, 32, 112, 112), ops.HIRES_BAND_BYTES),
         (blocks.FFNBlock(64, 8, norm="ln"), (1, 64, 56, 56), 1),
         (blocks.ConvFFNBlock(64, 8, norm="bn"), (1, 64, 56, 56), 1),
         (blocks.ConvFFNBlock(128, 6, norm="bn"), (1, 128, 28, 28), ops.FFN_BAND_BYTES)]
rng = np.random.default_rng(9)
for block, shape, cap in cases:
    for path, t, _ in block.eval().named_entries():
        t.data[...] = (rng.uniform(0.5, 2.0, t.shape) if path.endswith("running_var")
                       else rng.standard_normal(t.shape) * 0.2)
    x = Tensor(rng.standard_normal(shape))
    with no_grad():
        ops.FFN_BAND_BYTES = ops.HIRES_BAND_BYTES = 1 << 62
        whole = block(x).data
        ops.FFN_BAND_BYTES = ops.HIRES_BAND_BYTES = cap
        bands = len(block._bounds(x)) - 1
        print(type(block).__name__, bands, block(x).data.tobytes() == whole.tobytes())
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_bands_are_bitwise_one_pass_at_one_and_two_blas_threads(threads, run_script):
    lines = [ln.split() for ln in run_script(_BITS_SCRIPT, threads, timeout=120).splitlines()]
    assert [ln[0] for ln in lines] == ["HighResStem", "HighResStem", "HighResBlock",
                                       "HighResBlock", "FFNBlock", "ConvFFNBlock",
                                       "ConvFFNBlock"]
    assert all(int(bands) > 1 and same == "True" for _, bands, same in lines), run.stdout
