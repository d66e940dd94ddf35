"""Builders for the five-stage backbone family and the four-stage baseline.

``build_hiri_vit`` produces the published S/B/L variants. The four-stage
multi-stage-ViT baseline (``build_mvit_baseline``) is the ablation ladder
starting point; rows 1..6 progressively add CFFN, attention removal in the
early stages, BN, a conv stem, and inverted-residual downsampling.
"""

from __future__ import annotations

from .blocks import (
    ClassifierHead,
    ConvFFNBlock,
    ConvStem,
    DownsampleA,
    DownsampleB,
    FFNBlock,
    HighResBlock,
    HighResStem,
    Module,
    PlainDownsample,
    TransformerBlock,
    ViTStem,
)
from .config import ModelConfig, StageSpec
from .engine import Tensor
from .errors import ConfigError, ShapeError
from .params import ParamTree, init_tree

_STEM_CLS = {"hr": HighResStem, "conv": ConvStem, "vit": ViTStem}
_DOWN_CLS = {"irds_a": DownsampleA, "irds_b": DownsampleB, "conv": PlainDownsample}


def _make_block(spec: StageSpec) -> Module:
    if spec.kind == "hr":
        return HighResBlock(spec.channels, spec.expansion)
    if spec.kind == "ffn":
        return FFNBlock(spec.channels, spec.expansion, norm=spec.norm)
    if spec.kind == "cffn":
        return ConvFFNBlock(spec.channels, spec.expansion, norm=spec.norm)
    if spec.kind == "transformer":
        return TransformerBlock(spec.channels, spec.expansion, spec.heads, spec.sr_ratio,
                                kv_reduce=spec.kv_reduce, attn_norm=spec.attn_norm,
                                ffn_norm=spec.norm, use_cffn=spec.use_cffn)
    raise ConfigError(f"unknown stage kind {spec.kind!r}")


class Stage(Module):
    """``spec.depth`` blocks ``block1``, ``block2``, ..., run in order."""

    def __init__(self, spec: StageSpec):
        super().__init__()
        for i in range(1, spec.depth + 1):
            setattr(self, f"block{i}", _make_block(spec))

    def forward(self, x):
        for b in self._children.values():
            x = b(x)
        return x


class Model(Module):
    """A built backbone: stem, interleaved downsamplers and stages, head."""

    def __init__(self, config: ModelConfig):
        super().__init__()
        config.validate()
        self.config = config
        grids = config.stage_grids()
        c_first = config.stages[0].channels
        self.stem = _STEM_CLS[config.stem](3, c_first)
        for i, spec in enumerate(config.stages):
            if i > 0:
                setattr(self, f"ds{i}", _DOWN_CLS[config.downsamplers[i - 1]](
                    config.stages[i - 1].channels, spec.channels,
                    in_grid=grids[i - 1], out_grid=grids[i]))
            setattr(self, f"stage{i + 1}", Stage(spec))
        self.head = ClassifierHead(
            config.stages[-1].channels, config.num_classes,
            hidden=config.head_hidden)

    @property
    def stages(self) -> list[Stage]:
        return [m for m in self._children.values() if isinstance(m, Stage)]

    # -- execution -------------------------------------------------------

    def forward_features(self, x: Tensor) -> Tensor:
        """Stem, then each downsampler and stage in order: every child but the head."""
        if x.ndim != 4 or x.shape[1] != 3:
            raise ShapeError(f"expected N x 3 x H x W input, got {x.shape}")
        for child in self._children.values():
            if child is not self.head:
                x = child(x)
        return x

    def forward(self, x: Tensor) -> Tensor:
        return self.head(self.forward_features(x))

    def forward_dense_logits(self, x: Tensor) -> Tensor:
        """Per-position class logits: the head applied without pooling."""
        return self.head.forward_dense(self.forward_features(x))

    # -- analysis ----------------------------------------------------------

    def stage_boundary_shapes(self, in_shape):
        """Feature shape after every stage, from one trace pass."""
        shapes = self.trace(in_shape).shapes
        return [shapes[f"stage{i}"] for i in range(1, len(self.stages) + 1)]

    def load_state(self, tree: ParamTree):
        tree.copy_into(self.param_tree())


def build_model(config: ModelConfig, seed: int = 0) -> tuple[Model, ParamTree]:
    model = Model(config)
    tree = model.param_tree()
    init_tree(tree, seed)
    return model, tree


# ---------------------------------------------------------------------------
# the published five-stage variants
# ---------------------------------------------------------------------------

# per stage: (kind, depth, channels, expansion, heads)
HIRI_VARIANTS = {
    "S": [("hr", 2, 32, 4, None), ("hr", 2, 64, 4, None),
          ("cffn", 2, 128, 6, None), ("transformer", 9, 320, 5, 5),
          ("transformer", 4, 512, 5, 8)],
    "B": [("hr", 2, 64, 4, None), ("hr", 2, 96, 4, None),
          ("cffn", 3, 192, 5, None), ("transformer", 17, 320, 4, 5),
          ("transformer", 4, 640, 5, 10)],
    "L": [("hr", 4, 80, 4, None), ("hr", 4, 160, 4, None),
          ("cffn", 5, 224, 5, None), ("transformer", 25, 448, 3, 7),
          ("transformer", 5, 640, 5, 10)],
}

SR_RATIOS = {3: 2, 4: 1}          # stage index (0-based) -> key/value reduction
REFERENCE_RESOLUTION = 448
HEAD_HIDDEN = 2048


def _five_stage_config(name, table, sr_ratios, resolution, num_classes,
                       head_hidden, anchor_resolution) -> ModelConfig:
    """The five-stage recipe: high-resolution stem, IRDS-a, a, b, b
    downsamplers, BN before every (C)FFN and LN before attention."""
    stages = [StageSpec(kind=kind, depth=depth, channels=channels,
                        expansion=expansion, heads=heads,
                        sr_ratio=sr_ratios.get(i, 1), norm="bn", attn_norm="ln")
              for i, (kind, depth, channels, expansion, heads) in enumerate(table)]
    cfg = ModelConfig(
        name=name,
        resolution=(resolution, resolution),
        num_classes=num_classes,
        stem="hr",
        stages=stages,
        downsamplers=["irds_a", "irds_a", "irds_b", "irds_b"],
        head_hidden=head_hidden,
        anchor_resolution=anchor_resolution,
    )
    cfg.validate()
    return cfg


def hiri_config(variant: str, resolution: int = REFERENCE_RESOLUTION,
                num_classes: int = 1000) -> ModelConfig:
    if variant not in HIRI_VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; expected one of S, B, L")
    return _five_stage_config(f"hiri_{variant.lower()}", HIRI_VARIANTS[variant],
                              SR_RATIOS, resolution, num_classes, HEAD_HIDDEN,
                              REFERENCE_RESOLUTION)


def build_hiri_vit(variant: str, resolution: int = REFERENCE_RESOLUTION,
                   num_classes: int = 1000, seed: int = 0):
    """Build a published variant; returns (model, parameter tree)."""
    cfg = hiri_config(variant, resolution, num_classes)
    return build_model(cfg, seed)


def hiri_micro_config(resolution: int = 64, num_classes: int = 2) -> ModelConfig:
    """Five-stage miniature for smoke tests and training demos."""
    table = [("hr", 1, 8, 4, None), ("hr", 1, 16, 4, None),
             ("cffn", 1, 24, 4, None), ("transformer", 1, 32, 4, 2),
             ("transformer", 1, 40, 4, 4)]
    return _five_stage_config("hiri_micro", table, {}, resolution, num_classes,
                              None, None)


# ---------------------------------------------------------------------------
# four-stage baseline ladder
# ---------------------------------------------------------------------------

MVIT_CHANNELS = (64, 128, 320, 512)
MVIT_HEADS = (1, 2, 5, 8)
MVIT_EXPANSIONS = (8, 8, 4, 4)
MVIT_DEPTHS = (3, 4, 3, 8)
MVIT_SR = (8, 4, 1, 1)
MVIT_WIDE_EXPANSION = 10          # replaces E in stages 1-2 once MHA is removed

MVIT_ROW_NAMES = {
    1: "baseline",
    2: "cffn",
    3: "no_early_mha",
    4: "batch_norm",
    5: "conv_stem",
    6: "irds",
}


def mvit_config(row: int = 6, resolution: int = 224,
                num_classes: int = 1000) -> ModelConfig:
    """Ablation-ladder configuration; ``row`` selects the upgrade level."""
    if row not in MVIT_ROW_NAMES:
        raise ConfigError(f"ladder row must be 1..6, got {row}")
    use_cffn = row >= 2
    early_mha = row < 3
    norm = "bn" if row >= 4 else "ln"
    stem = "conv" if row >= 5 else "vit"
    ds = ["irds_a", "irds_a", "irds_b"] if row >= 6 else ["conv", "conv", "conv"]

    stages = []
    for i in range(4):
        if i < 2 and not early_mha:
            stages.append(StageSpec(
                kind="cffn", depth=MVIT_DEPTHS[i], channels=MVIT_CHANNELS[i],
                expansion=MVIT_WIDE_EXPANSION, norm=norm))
        else:
            stages.append(StageSpec(
                kind="transformer", depth=MVIT_DEPTHS[i], channels=MVIT_CHANNELS[i],
                expansion=MVIT_EXPANSIONS[i], heads=MVIT_HEADS[i],
                sr_ratio=MVIT_SR[i], norm=norm, attn_norm="ln",
                use_cffn=use_cffn, kv_reduce="conv" if MVIT_SR[i] > 1 else "none"))
    cfg = ModelConfig(
        name=f"mvit_row{row}_{MVIT_ROW_NAMES[row]}",
        resolution=(resolution, resolution),
        num_classes=num_classes,
        stem=stem,
        stages=stages,
        downsamplers=ds,
        head_hidden=None,
        anchor_resolution=None,
    )
    cfg.validate()
    return cfg


def build_mvit_baseline(row: int = 6, resolution: int = 224,
                        num_classes: int = 1000, seed: int = 0):
    """Build one ablation-ladder row 1..6; returns (model, parameter tree)."""
    return build_model(mvit_config(row, resolution, num_classes), seed)
