"""Static, data-free parameter and FLOP accounting.

Costs come from :meth:`hirivit.blocks.Module.trace`, which runs the model's
own ``forward`` on an empty batch through the real kernels, which then do no
arithmetic, and charges every op result, scaled to the requested batch, to
the innermost module call. Conventions (fixed for this package):
  * ``macs``  -- multiply-accumulates of conv2d / linear / matmul, the two
                 attention contractions included: output elements times the
                 contraction length (Cin/groups x kh x kw for a conv); bias
                 additions are not MACs.
  * ``elementwise`` -- one op per output element of every other op
                 (normalization, activation, residual add, pooling,
                 upsampling, softmax); reshape, transpose, scale and
                 attention's key gather (``take_rows``) are free.
  * ``flops`` -- macs + elementwise. This matches the mac-denominated
                 "GFLOPs" figures customarily reported for vision backbones
                 (the elementwise share is about one percent).
  * ``activations`` -- one per output element of every non-free op, an
                 activation-memory proxy.

The loop-instrumented :func:`mac_counting_oracle` executes a block with
scalar kernels that increment a counter per multiply-accumulate; on any
config it must agree exactly with the static ``macs`` column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import CostRecord, Module, eval_mode
from .engine import Tensor, no_grad, ops
from .engine.reference import CountingBackend
from .errors import ConfigError


@dataclass
class CostReport:
    records: list

    # column totals over all records
    params = property(lambda self: sum(r.params for r in self.records))
    macs = property(lambda self: sum(r.macs for r in self.records))
    elementwise = property(lambda self: sum(r.elementwise for r in self.records))
    activations = property(lambda self: sum(r.activations for r in self.records))

    @property
    def flops(self) -> int:
        return self.macs + self.elementwise

    @property
    def gflops(self) -> float:
        return self.flops / 1e9

    def grouped(self, depth: int = 2) -> list:
        """Aggregate leaf records by path prefix of the given depth."""
        groups: dict[str, list] = {}
        for r in self.records:
            total = groups.setdefault(".".join(r.path.split(".")[:depth]), [0] * 4)
            total[:] = [a + b for a, b in zip(total, r[1:])]
        return [CostRecord(key, *total) for key, total in groups.items()]

    def to_csv(self, depth: int = 2) -> str:
        lines = ["path,params,flops,activations"]
        for r in self.grouped(depth):
            lines.append(f"{r.path},{r.params},{r.flops},{r.activations}")
        lines.append(f"total,{self.params},{self.flops},{self.activations}")
        return "\n".join(lines) + "\n"

    def to_table(self, depth: int = 2) -> str:
        rows = [(r.path, r.params, r.flops, r.activations) for r in self.grouped(depth)]
        rows.append(("total", self.params, self.flops, self.activations))
        return _aligned_table(("path", "params", "flops", "activations"), rows)


def _aligned_table(header, rows) -> str:
    """Columns as wide as their widest cell, two spaces apart, so each line
    splits into one field per column; only the first is left-aligned."""
    cells = [[str(v) for v in row] for row in [header, *rows]]
    widths = [max(map(len, col)) for col in zip(*cells)]
    just = [str.ljust] + [str.rjust] * (len(widths) - 1)
    return "".join("  ".join(j(v, w) for j, v, w in zip(just, row, widths)) + "\n"
                   for row in cells)


def _trace_report(model: Module, input_shape, path: str = "model") -> CostReport:
    return CostReport(model.trace(input_shape, path).records)


def count_params(model) -> CostReport:
    """Exact per-block parameter tally (resolution-independent)."""
    res = model.config.resolution if hasattr(model, "config") else None
    shape = (1, 3, res[0], res[1]) if res else None
    if shape is None:
        raise ConfigError("count_params needs a built model with a config")
    report = _trace_report(model, shape)
    tree_total = model.param_tree().total_params()
    if report.params != tree_total:
        raise AssertionError(
            f"static parameter tally {report.params} disagrees with the"
            f" parameter tree {tree_total}")
    return report


def count_flops(model, resolution: int | None = None, batch: int = 1) -> CostReport:
    """Static cost of one forward pass at the given input resolution.

    The model's structure is fixed at build time; counting a build at a
    resolution other than its own is permitted whenever the structure can
    process that input (the reference 448 build accepts any multiple of 32).
    """
    if resolution is None:
        resolution = model.config.resolution[0]
    return _trace_report(model, (batch, 3, resolution, resolution))


def mac_counting_oracle(block: Module, input_shape, seed: int = 0) -> int:
    """Execute ``block`` with scalar counting kernels; return exact MACs.

    Ground truth for ``count_flops``'s mac column on small shapes.
    """
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal(input_shape))
    backend = CountingBackend()
    with eval_mode(block), no_grad(), ops.use_backend(backend):
        block(x)
    return backend.macs


def block_macs(block: Module, input_shape) -> int:
    """Static MAC count of a bare block (the analyzer side of the oracle pair)."""
    return _trace_report(block, input_shape, "block").macs


# ---------------------------------------------------------------------------
# family-level scaling report
# ---------------------------------------------------------------------------

@dataclass
class ScalingRow:
    variant: str
    resolution: int
    params: int
    gflops: float
    ratio_to_first: float


def scaling_report(variants, resolutions, builder=None) -> list:
    """Params and FLOPs per (variant, resolution), with growth ratios.

    Each resolution is costed on the build deployed for that resolution.
    ``builder(variant, resolution)`` must return an un-initialized or built
    model; by default the published five-stage family is used.
    """
    from .zoo import Model, hiri_config

    if builder is None:
        def builder(variant, resolution):
            return Model(hiri_config(variant, resolution))

    rows = []
    for v in variants:
        base = None
        for res in resolutions:
            model = builder(v, res)
            rep = count_flops(model, res)
            g = rep.gflops
            if base is None:
                base = g
            rows.append(ScalingRow(v, res, rep.params, g, g / base))
    return rows


def scaling_table(rows) -> str:
    return _aligned_table(
        ("variant", "res", "params", "gflops", "ratio"),
        [(r.variant, r.resolution, f"{r.params:,}", f"{r.gflops:.3f}",
          f"{r.ratio_to_first:.3f}") for r in rows])


def scaling_csv(rows) -> str:
    lines = ["variant,resolution,params,gflops,ratio"]
    for r in rows:
        lines.append(f"{r.variant},{r.resolution},{r.params},{r.gflops:.6f},"
                     f"{r.ratio_to_first:.6f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# published reference figures (targets for the verification surface)
# ---------------------------------------------------------------------------

# Reported cost figures for the published five-stage family and the
# four-stage ablation ladder; tolerances are the acceptance bands.
REFERENCE_PARAMS = {"S": 34.8e6, "B": 54.4e6, "L": 94.4e6}
REFERENCE_GFLOPS = {
    ("S", 224): 4.5, ("S", 384): 4.7, ("S", 448): 5.0,
    ("B", 224): 8.2, ("B", 384): 9.3, ("B", 448): 9.9,
    ("L", 224): 17.0, ("L", 384): 18.2, ("L", 448): 19.9,
}
REFERENCE_MVIT_PARAMS = {1: 35.0e6, 6: 34.5e6}
REFERENCE_MVIT_GFLOPS = {(6, 224): 4.7, (6, 448): 21.5}
HIRI_RATIO_MAX = 1.3     # five-stage FLOPs growth bound, 448 vs 224
MVIT_RATIO_MIN = 4.0     # four-stage FLOPs growth bound, 448 vs 224


@dataclass
class CheckRow:
    label: str
    expected: float
    actual: float
    tolerance: float
    passed: bool


def _band_check(label, expected, actual, rel_tol) -> CheckRow:
    ok = abs(actual - expected) <= rel_tol * expected
    return CheckRow(label, expected, actual, rel_tol, ok)


def verify_reference_costs(tol_params: float = 0.03, tol_flops: float = 0.10) -> list:
    """Rebuild the family and compare against the published reference costs."""
    from .zoo import Model, hiri_config, mvit_config

    checks = []
    flops_by_key = {}
    for v in ("S", "B", "L"):
        for res in (224, 384, 448):
            model = Model(hiri_config(v, res))
            rep = count_flops(model, res)
            if res == 224:
                checks.append(_band_check(
                    f"{v}: params", REFERENCE_PARAMS[v], rep.params, tol_params))
            flops_by_key[(v, res)] = rep.gflops
            checks.append(_band_check(
                f"{v}@{res}: gflops", REFERENCE_GFLOPS[(v, res)], rep.gflops,
                tol_flops))
    ratio = flops_by_key[("S", 448)] / flops_by_key[("S", 224)]
    checks.append(CheckRow("S: flops ratio 448/224 <= bound", HIRI_RATIO_MAX,
                           ratio, 0.0, ratio <= HIRI_RATIO_MAX))

    mvit_flops = {}
    for row in (1, 6):
        model = Model(mvit_config(row, 224))
        rep = count_flops(model, 224)
        checks.append(_band_check(
            f"ladder row {row}: params", REFERENCE_MVIT_PARAMS[row], rep.params,
            tol_params))
        mvit_flops[(row, 224)] = rep.gflops
    model = Model(mvit_config(6, 448))
    mvit_flops[(6, 448)] = count_flops(model, 448).gflops
    for key, expected in REFERENCE_MVIT_GFLOPS.items():
        checks.append(_band_check(
            f"ladder row {key[0]}@{key[1]}: gflops", expected, mvit_flops[key],
            tol_flops))
    mratio = mvit_flops[(6, 448)] / mvit_flops[(6, 224)]
    checks.append(CheckRow("ladder row 6: flops ratio 448/224 >= bound",
                           MVIT_RATIO_MIN, mratio, 0.0, mratio >= MVIT_RATIO_MIN))
    checks.append(CheckRow(
        "five-stage S@448 cheaper than four-stage ladder@448",
        mvit_flops[(6, 448)], flops_by_key[("S", 448)], 0.0,
        flops_by_key[("S", 448)] < mvit_flops[(6, 448)]))
    return checks
