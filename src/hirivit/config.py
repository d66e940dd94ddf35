"""Declarative model configuration and its text file format.

The config file is line-oriented key/value text with one ``[stage N]``
section per stage, e.g.::

    [model]
    name = hiri_s
    resolution = 448x448
    num_classes = 1000
    stem = hr
    downsamplers = irds_a, irds_a, irds_b, irds_b
    head_hidden = 2048
    anchor_resolution = 448

    [stage 1]
    kind = hr
    depth = 2
    channels = 32
    expansion = 4

Unknown keys are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import ConfigError

STAGE_KINDS = ("hr", "ffn", "cffn", "transformer")
STEM_KINDS = ("hr", "conv", "vit")
DOWNSAMPLER_KINDS = ("irds_a", "irds_b", "conv")
NORM_KINDS = ("bn", "ln")
KV_REDUCE_KINDS = ("pool", "conv", "none")


def _check_positive(where: str, **values):
    for key, val in values.items():
        if val is not None and val < 1:
            raise ConfigError(f"{where}{key} must be >= 1, got {val}")


@dataclass
class StageSpec:
    kind: str
    depth: int
    channels: int
    expansion: int
    heads: int | None = None
    sr_ratio: int = 1
    norm: str = "bn"          # pre-norm of the (C)FFN path
    attn_norm: str = "ln"     # pre-norm of the attention path
    use_cffn: bool = True     # transformer stages: CFFN vs plain FFN
    kv_reduce: str = "pool"   # "pool" | "conv" | "none"

    def validate(self, idx: int):
        if self.kind not in STAGE_KINDS:
            raise ConfigError(f"stage {idx}: unknown kind {self.kind!r}")
        for key, kinds in (("norm", NORM_KINDS), ("attn_norm", NORM_KINDS),
                           ("kv_reduce", KV_REDUCE_KINDS)):
            if getattr(self, key) not in kinds:
                raise ConfigError(f"stage {idx}: unknown {key} {getattr(self, key)!r};"
                                  f" expected one of {', '.join(kinds)}")
        _check_positive(f"stage {idx}: ", depth=self.depth, channels=self.channels,
                        expansion=self.expansion, heads=self.heads,
                        sr_ratio=self.sr_ratio)
        if self.kind == "transformer":
            if self.heads is None:
                raise ConfigError(f"stage {idx}: transformer stage needs heads")
            if self.channels % self.heads:
                raise ConfigError(
                    f"stage {idx}: channels {self.channels} not divisible by"
                    f" heads {self.heads}")
        elif self.heads is not None:
            raise ConfigError(f"stage {idx}: heads only valid for transformer stages")


@dataclass
class ModelConfig:
    name: str
    resolution: tuple[int, int]
    num_classes: int
    stem: str
    stages: list[StageSpec] = field(default_factory=list)
    downsamplers: list[str] = field(default_factory=list)
    head_hidden: int | None = None
    anchor_resolution: int | None = None

    def validate(self):
        if self.stem not in STEM_KINDS:
            raise ConfigError(f"unknown stem kind {self.stem!r}")
        if not self.stages:
            raise ConfigError("config has no stages")
        if len(self.downsamplers) != len(self.stages) - 1:
            raise ConfigError(
                f"{len(self.stages)} stages need {len(self.stages) - 1} downsamplers,"
                f" got {len(self.downsamplers)}")
        for ds in self.downsamplers:
            if ds not in DOWNSAMPLER_KINDS:
                raise ConfigError(f"unknown downsampler kind {ds!r}")
        h, w = self.resolution
        if h < 1 or w < 1:
            raise ConfigError(f"resolution must be at least 1x1, got {h}x{w}")
        _check_positive("", head_hidden=self.head_hidden,
                        anchor_resolution=self.anchor_resolution)
        div = 4 * 2 ** max(len(self.stages) - 2, 0)
        if h % div or w % div:
            raise ConfigError(
                f"resolution {h}x{w} must be divisible by {div} for"
                f" {len(self.stages)} stages")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        grids = self.stage_grids()
        for i in range(1, len(grids)):
            if grids[i] > grids[i - 1]:
                raise ConfigError(
                    f"resolution {h}x{w} is below what anchor_resolution"
                    f" {self.anchor_resolution} supports: stage {i + 1} keeps the"
                    f" anchor's {grids[i]}x{grids[i]} grid, but stage {i} is only"
                    f" {grids[i - 1]}x{grids[i - 1]}")
        for i, s in enumerate(self.stages, 1):
            s.validate(i)

    def stage_grids(self, resolution: int | None = None) -> list[int]:
        """Per-stage computational grid sizes for a build at ``resolution``.

        Early stages always follow the /4, /8 divisor ladder. From the third
        stage on, a build for inputs smaller than ``anchor_resolution`` keeps
        the grids of the anchor-resolution reference, which is what holds the
        heavy-stage cost flat across input sizes.
        """
        res = resolution if resolution is not None else self.resolution[0]
        grids = []
        for i in range(len(self.stages)):
            div = 4 * 2 ** i
            g = -(-res // div)
            if self.anchor_resolution is not None and i >= 2:
                g = max(g, self.anchor_resolution // div)
            grids.append(g)
        return grids


# ---------------------------------------------------------------------------
# text serialization
# ---------------------------------------------------------------------------

_MODEL_KEYS = ("name", "resolution", "num_classes", "stem", "downsamplers",
               "head_hidden", "anchor_resolution")
_STAGE_KEYS = tuple(f.name for f in fields(StageSpec))
_STAGE_DEFAULTS = {f.name: f.default for f in fields(StageSpec)}


def serialize_config(cfg: ModelConfig) -> str:
    lines = ["[model]",
             f"name = {cfg.name}",
             f"resolution = {cfg.resolution[0]}x{cfg.resolution[1]}",
             f"num_classes = {cfg.num_classes}",
             f"stem = {cfg.stem}",
             f"downsamplers = {', '.join(cfg.downsamplers)}"]
    if cfg.head_hidden is not None:
        lines.append(f"head_hidden = {cfg.head_hidden}")
    if cfg.anchor_resolution is not None:
        lines.append(f"anchor_resolution = {cfg.anchor_resolution}")
    for i, s in enumerate(cfg.stages, 1):
        lines.append("")
        lines.append(f"[stage {i}]")
        lines.append(f"kind = {s.kind}")
        lines.append(f"depth = {s.depth}")
        lines.append(f"channels = {s.channels}")
        lines.append(f"expansion = {s.expansion}")
        if s.heads is not None:
            lines.append(f"heads = {s.heads}")
        for key in ("sr_ratio", "norm", "attn_norm", "use_cffn", "kv_reduce"):
            val = getattr(s, key)
            if val != _STAGE_DEFAULTS[key]:
                lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(raw)


def _parse_hw(raw: str) -> tuple[int, int]:
    h, w = raw.lower().split("x")
    return int(h), int(w)


_INT = (int, "an integer")
_CONVERTERS = {  # key -> (text to value, what the text must be); others stay text
    "resolution": (_parse_hw, "HxW with integer sides"), "num_classes": _INT,
    "head_hidden": _INT, "anchor_resolution": _INT, "depth": _INT,
    "channels": _INT, "expansion": _INT, "heads": _INT, "sr_ratio": _INT,
    "use_cffn": (_parse_bool, "a boolean"),
}


def _values(entries: dict) -> dict:
    """Convert ``key -> (text, line)`` entries; a bad value names line and key."""
    out = {}
    for key, (raw, lineno) in entries.items():
        convert, expected = _CONVERTERS.get(key, (str, ""))
        try:
            out[key] = convert(raw)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: {key}: expected {expected}, got {raw!r}") from None
    return out


def parse_config(text: str) -> ModelConfig:
    section = None
    model: dict = {}
    stages: dict[int, dict] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header {raw!r}")
            head = line[1:-1].strip()
            if head == "model":
                section = ("model", None)
            elif head.startswith("stage"):
                try:
                    idx = int(head.split()[1])
                except (IndexError, ValueError):
                    raise ConfigError(f"line {lineno}: bad stage header {raw!r}")
                stages.setdefault(idx, {})
                section = ("stage", idx)
            else:
                raise ConfigError(f"line {lineno}: unknown section {head!r}")
            continue
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, raw_val = line.partition("=")
        key = key.strip()
        val = raw_val.strip()
        if section[0] == "model":
            if key not in _MODEL_KEYS:
                raise ConfigError(f"line {lineno}: unknown model key {key!r}")
            model[key] = (val, lineno)
        else:
            if key not in _STAGE_KEYS:
                raise ConfigError(f"line {lineno}: unknown stage key {key!r}")
            stages[section[1]][key] = (val, lineno)

    for req in ("name", "resolution", "num_classes", "stem", "downsamplers"):
        if req not in model:
            raise ConfigError(f"missing model key {req!r}")
    model = _values(model)
    downs = [d.strip() for d in model.pop("downsamplers").split(",") if d.strip()]

    specs = []
    for idx in sorted(stages):
        if idx != len(specs) + 1:
            raise ConfigError(f"stage sections must be contiguous from 1, got {idx}")
        sd = stages[idx]
        for req in ("kind", "depth", "channels", "expansion"):
            if req not in sd:
                raise ConfigError(f"stage {idx}: missing key {req!r}")
        specs.append(StageSpec(**_values(sd)))

    cfg = ModelConfig(stages=specs, downsamplers=downs, **model)
    cfg.validate()
    return cfg
