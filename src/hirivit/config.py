"""Declarative model configuration and its text file format.

The dataclass fields are the schema of the text format: ``[model]`` holds
the fields of :class:`ModelConfig` but ``stages``, and each ``[stage N]``
section, numbered from 1, those of one :class:`StageSpec`, in field order.
A field without a default is a required key, and its annotation picks its
value form in ``_FORMS``. ``serialize_config`` leaves out the optional keys
that hold their default, e.g.::

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

Unknown keys, missing required keys, and a key or section given twice are
rejected; each error names its line or section and the key.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

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
    stages: list[StageSpec]
    downsamplers: list[str]
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

def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(raw)


def _parse_hw(raw: str) -> tuple[int, int]:
    h, w = raw.lower().split("x")
    return int(h), int(w)


_INT = (int, str, "an integer")
# field annotation -> (text to value, value to text, what the text must be)
_FORMS = {
    "str": (str, str, "text"),
    "int": _INT,
    "int | None": _INT,
    "tuple[int, int]": (_parse_hw, lambda hw: f"{hw[0]}x{hw[1]}", "HxW with integer sides"),
    "bool": (_parse_bool, str, "a boolean"),
    "list[str]": (lambda raw: [v.strip() for v in raw.split(",") if v.strip()],
                  ", ".join, "a comma-separated list"),
}


def _keys(cls) -> dict:
    """Key -> field of a ``cls`` section; ``stages`` are the stage sections."""
    return {f.name: f for f in fields(cls) if f.name != "stages"}


def _lines(obj) -> list[str]:
    """``key = value`` lines of the required keys and of non-default optional ones."""
    return [f"{key} = {_FORMS[f.type][1](getattr(obj, key))}"
            for key, f in _keys(type(obj)).items()
            if f.default is MISSING or getattr(obj, key) != f.default]


def serialize_config(cfg: ModelConfig) -> str:
    lines = ["[model]", *_lines(cfg)]
    for i, s in enumerate(cfg.stages, 1):
        lines += ["", f"[stage {i}]", *_lines(s)]
    return "\n".join(lines) + "\n"


def _values(cls, entries: dict, missing: str) -> dict:
    """Convert ``key -> (text, line)`` entries of a ``cls`` section; a bad
    value names its line and key, an absent required key follows ``missing``."""
    keys = _keys(cls)
    for key, f in keys.items():
        if f.default is MISSING and key not in entries:
            raise ConfigError(f"{missing} {key!r}")
    out = {}
    for key, (raw, lineno) in entries.items():
        convert, _, expected = _FORMS[keys[key].type]
        try:
            out[key] = convert(raw)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: {key}: expected {expected}, got {raw!r}") from None
    return out


def parse_config(text: str) -> ModelConfig:
    section = None
    headers: dict = {}             # section -> line of its header
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
                words = head.split()       # exactly "stage" and an integer
                if len(words) != 2 or words[0] != "stage" or not words[1].isdecimal():
                    raise ConfigError(f"line {lineno}: bad stage header {raw!r}")
                idx = int(words[1])
                stages[idx] = {}
                section = ("stage", idx)
            else:
                raise ConfigError(f"line {lineno}: unknown section {head!r}")
            if section in headers:
                raise ConfigError(f"line {lineno}: section [{head}] repeats the one"
                                  f" on line {headers[section]}")
            headers[section] = lineno
            continue
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, raw_val = line.partition("=")
        key = key.strip()
        val = raw_val.strip()
        cls, values = ((ModelConfig, model) if section[0] == "model"
                       else (StageSpec, stages[section[1]]))
        if key not in _keys(cls):
            raise ConfigError(f"line {lineno}: unknown {section[0]} key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: key {key!r} repeats the one on line"
                              f" {values[key][1]}")
        values[key] = (val, lineno)

    model = _values(ModelConfig, model, "missing model key")

    specs = []
    for idx in sorted(stages):
        if idx != len(specs) + 1:
            raise ConfigError(f"stage sections must be contiguous from 1, got {idx}")
        specs.append(StageSpec(**_values(StageSpec, stages[idx],
                                         f"stage {idx}: missing key")))

    cfg = ModelConfig(stages=specs, **model)
    cfg.validate()
    return cfg
