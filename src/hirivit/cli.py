"""Command-line harness: analyze, gradcheck, train, verify-tables.

Exit codes: 0 success, 1 verification failure or diverged training, 2 usage
or config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import os
import sys

import numpy as np

from .analyzer import (count_flops, scaling_csv, scaling_report, scaling_table,
                       verify_reference_costs)
from .config import parse_config
from .engine import Tensor, grad_check, ops
from .errors import ConfigError, ResolutionError, ShapeError
from .params import init_tree, save_checkpoint
from .train import (METRICS_HEADER, SyntheticQuadrants, TrainConfig, TrainingDiverged,
                    train_loop)
from .zoo import REFERENCE_RESOLUTION, Model, build_model, hiri_config, hiri_micro_config

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _load_config(args, default=None):
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8-sig") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{args.config} is not a text config file: {exc}") from exc
        return parse_config(text)
    if getattr(args, "variant", None):
        res = args.res[0] if getattr(args, "res", None) else REFERENCE_RESOLUTION
        return hiri_config(args.variant, res)
    if default is not None:
        return default
    raise ConfigError("pass --variant or --config")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    resolutions = args.res or [224, 384, 448]
    cfg = _load_config(args)
    name = cfg.name if args.config else args.variant

    def builder(_name, res):
        return Model(dataclasses.replace(cfg, resolution=(res, res)))

    rows = scaling_report([name], resolutions, builder=builder)
    text = scaling_csv(rows) if args.format == "csv" else scaling_table(rows)
    if args.detail:
        res = resolutions[0]
        rep = count_flops(builder(name, res), res)
        detail = rep.to_csv(depth=2) if args.format == "csv" else rep.to_table(depth=2)
        text += "\nper-block breakdown @" + str(res) + "\n" + detail
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def _gradcheck_cases():
    from .blocks import (Attention, ClassifierHead, ConvFFNBlock, DownsampleA,
                         DownsampleB, HighResBlock, HighResStem,
                         TransformerBlock)
    # instance sizes are chosen so train-mode BN statistics are well enough
    # conditioned for central differences at h=1e-5
    return {
        "hr_stem": (lambda: HighResStem(3, 8), (1, 3, 16, 16)),
        "hr_block": (lambda: HighResBlock(8, 2), (1, 8, 4, 4)),
        "irds_a": (lambda: DownsampleA(4, 6), (1, 4, 4, 4)),
        "irds_b": (lambda: DownsampleB(4, 6), (1, 4, 4, 4)),
        "cffn": (lambda: ConvFFNBlock(6, 2), (1, 6, 4, 4)),
        "mha": (lambda: Attention(8, 2, 1), (1, 8, 2, 2)),
        "transformer": (lambda: TransformerBlock(8, 2, 2, 1), (1, 8, 2, 2)),
        "classifier": (lambda: ClassifierHead(6, 3, hidden=5), (1, 6, 3, 3)),
    }


def _defaults(fn) -> dict:
    """The default values that ``fn`` declares, by parameter name."""
    return {k: p.default for k, p in inspect.signature(fn).parameters.items()
            if p.default is not p.empty}


def check_block_gradients(name: str, tol: float = _defaults(grad_check)["tol"], seed: int = 0):
    """Finite-difference check of one block; returns a GradCheckReport."""
    make, shape = _gradcheck_cases()[name]
    block = make()
    rng = np.random.default_rng(seed)
    tree = block.param_tree()
    init_tree(tree, seed)
    # perturb affine identities so gradients are generic
    for path, t in tree.items():
        leaf = path.rsplit(".", 1)[-1]
        if leaf in ("gamma",):
            t.data += rng.standard_normal(t.shape) * 0.05
        elif leaf in ("beta", "bias"):
            t.data[...] = rng.standard_normal(t.shape) * 0.05
    x = Tensor(rng.standard_normal(shape), requires_grad=True)
    weight = Tensor(rng.standard_normal(block.out_shape(shape)))
    tensors = {"input": x}
    tensors.update({p: t for p, t in tree.trainable_items()})

    def f():
        return ops.tsum(ops.mul(block(x), weight))

    return grad_check(f, tensors, h=1e-5, tol=tol)


def cmd_gradcheck(args) -> int:
    cases = _gradcheck_cases()
    names = [args.block] if args.block else sorted(cases)
    for name in names:
        if name not in cases:
            raise ConfigError(
                f"unknown block {name!r}; choose from {', '.join(sorted(cases))}")
    worst_overall = 0.0
    ok = True
    for name in names:
        report = check_block_gradients(name, tol=args.tol, seed=args.seed)
        status = "PASS" if report.passed else "FAIL"
        print(f"{status}  {name:<12} max rel err {report.max_rel_err:.3e}"
              f"  (worst: {report.worst})")
        ok &= report.passed
        worst_overall = max(worst_overall, report.max_rel_err)
    print(f"worst offender overall: {worst_overall:.3e} (tol {args.tol:g})")
    return EXIT_OK if ok else EXIT_FAILURE


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = _load_config(args, default=hiri_micro_config())
    height, width = cfg.resolution
    if height != width:     # the synthetic images are square
        raise ConfigError(f"training needs a square resolution, got {height}x{width}")
    tc = TrainConfig(steps=args.steps, alpha=args.alpha,    # checks every value
                     ema_decay=args.ema_decay, seed=args.seed)
    model, _ = build_model(cfg, seed=args.seed)
    teacher = Model(cfg)        # train_loop copies every student entry into it
    dataset = SyntheticQuadrants(image_size=height,
                                 num_classes=cfg.num_classes, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    metrics_path = os.path.join(args.out, "metrics.csv")
    with open(metrics_path, "w") as stream:
        stream.write(METRICS_HEADER)
        try:
            records, tree, ema = train_loop(model, dataset, tc,
                                            teacher_model=teacher,
                                            metrics_stream=stream)
        except TrainingDiverged as exc:     # the rows written so far stay
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FAILURE
    save_checkpoint(tree, os.path.join(args.out, "student.hiri"))
    save_checkpoint(ema.tree, os.path.join(args.out, "teacher.hiri"))
    final = records[-1]
    print(f"trained {len(records)} steps; final loss {final.loss:.4f},"
          f" train acc {final.train_acc:.3f}")
    print(f"wrote {metrics_path}, student.hiri, teacher.hiri")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-tables
# ---------------------------------------------------------------------------

def cmd_verify_tables(args) -> int:
    checks = verify_reference_costs(args.tol_params, args.tol_flops)
    all_ok = True
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        tol = f" +-{c.tolerance:.0%}" if c.tolerance else ""
        print(f"{status}  {c.label:<52} expected {c.expected:>12,.4g}{tol}"
              f"  actual {c.actual:,.4g}")
        all_ok &= c.passed
    print("all reference checks passed" if all_ok
          else "reference checks FAILED")
    return EXIT_OK if all_ok else EXIT_FAILURE


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _non_negative(convert):
    """An argparse type: ``convert`` the text, rejecting a negative value or NaN."""
    def parse(text):
        if not (value := convert(text)) >= 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
        return value
    parse.__name__ = convert.__name__      # argparse's "invalid int value" wording
    return parse


def _resolutions(text):
    return [int(r) for r in text.split(",")]


_resolutions.__name__ = "comma-separated list of integers"  # argparse's "invalid ... value"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hirivit",
        description="Five-stage backbone toolkit: cost analysis, gradient "
                    "checks, EMA-distillation training, reference verification.")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="parameter/FLOP report per resolution")
    pa.add_argument("--variant", choices=["S", "B", "L"])
    pa.add_argument("--config", help="model config file")
    pa.add_argument("--res", type=_resolutions,
                    help="comma-separated input resolutions")
    pa.add_argument("--format", choices=["table", "csv"], default="table")
    pa.add_argument("--detail", action="store_true",
                    help="append a per-block cost breakdown at the first resolution")
    pa.add_argument("--out", help="write report to this file")
    pa.set_defaults(fn=cmd_analyze)

    pg = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    pg.add_argument("--block", help="single block name (default: all)")
    pg.add_argument("--tol", type=_non_negative(float))
    pg.add_argument("--seed", type=_non_negative(int))
    pg.set_defaults(fn=cmd_gradcheck, **_defaults(check_block_gradients))

    pt = sub.add_parser("train", help="train on the synthetic dataset")
    pt.add_argument("--config", help="model config file (default: micro variant)")
    pt.add_argument("--variant", choices=["S", "B", "L"])
    pt.add_argument("--seed", type=_non_negative(int), default=TrainConfig.seed)
    pt.add_argument("--steps", type=int, default=TrainConfig.steps)
    pt.add_argument("--alpha", type=float, default=TrainConfig.alpha)
    pt.add_argument("--ema-decay", type=float, default=TrainConfig.ema_decay)
    pt.add_argument("--out", default="train_out")
    pt.set_defaults(fn=cmd_train)

    pv = sub.add_parser("verify-tables",
                        help="check built models against published costs")
    pv.add_argument("--tol-params", type=_non_negative(float))
    pv.add_argument("--tol-flops", type=_non_negative(float))
    pv.set_defaults(fn=cmd_verify_tables, **_defaults(verify_reference_costs))
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ShapeError, ResolutionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
