"""hirivit benchmark: one workload per process, checked outputs, one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload eval_s448 --seed 1 --seconds 22 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the same loop twice, first untraced and then with spans
around the program's entry points, and reports the per-layer metrics, the
tracing overhead and the analyzer join. Both modes print human-readable
lines, then one JSON object as the last line of standard output, and write
the full result to ``.bench_build/perfbench/results/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(root):
    import numpy as np
    import scipy

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "unknown",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": "unknown (not a git checkout)",
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next(ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        pass
    env["blas_threads"] = _openblas_threads() or env["blas_threads"]
    if os.path.isdir(os.path.join(root, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
        if out.returncode == 0:
            env["commit"] = out.stdout.strip()
    return env


def _openblas_threads():
    """Thread count reported by the OpenBLAS that NumPy loaded, if found."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hirivit", "__init__.py")):
        print(f"error: {root} holds no src/hirivit; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    # the BLAS thread cap must be set before NumPy loads (workloads imports it)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)

    import stats
    import tracing
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(W.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = W.WORKLOADS[args.workload]
    workdir = os.path.join(root, ".bench_build", "perfbench")
    for sub in ("results", "traces", "counts"):
        os.makedirs(os.path.join(workdir, sub), exist_ok=True)
    reference = W.load_reference()
    import_s = time.perf_counter() - T_START

    setups = []
    for k in range(W.SETUPS):
        s = wl.setup(args.seed if k == W.SETUPS - 1 else W.DEFAULT_SEED,
                     workdir, reference)
        setups.append(s)
        # train_micro keeps the first (default-seed) set-up for the
        # reference trajectory; other non-final set-ups are dropped
        if not (k == W.SETUPS - 1 or (wl.kind == "train" and k == 0)):
            s.model = s.teacher = s.tree = None
        gc.collect()
    final = setups[-1]
    attempted = len(setups)
    failed = sum(not s.ok for s in setups)
    notes = []
    if failed:
        notes.append(f"{failed} set-up(s) failed the checkpoint round trip or "
                     "the warm-up output check")
    info = {"import_s": import_s,
            "setup_s_each": [import_s + s.seconds for s in setups],
            "setup_phases": [s.phases for s in setups]}

    if args.trace == 0:
        with W.RssPeak() as rss:
            loop = wl.run(final, args.seed, args.seconds, W.Loop())
        attempted += loop.attempted
        failed += loop.failed
        lat = loop.latencies
        if len(lat) > stats.TAIL_BEYOND:
            tail_v, tail_pct, tail_n = stats.tail(lat)
        else:                        # only when operations failed
            tail_v, tail_pct, tail_n = max(lat, default=0.0), 100.0, 0
            notes.append("too few successful operations for the tail percentile")
        metrics = {
            "latency_ms_p50": median(lat) * 1e3,
            "latency_ms_tail": tail_v * 1e3,
            "images_per_s": loop.images / loop.wall,
            "setup_s": import_s + median([s.seconds for s in setups]),
            "peak_rss_mb": rss.peak / 1e6,
        }
        info.update(samples=len(lat), tail_percentile=tail_pct, tail_beyond=tail_n,
                    wall_s=loop.wall, vm_hwm_mb=W.vm_hwm_bytes() / 1e6,
                    latencies_ms=[v * 1e3 for v in lat])
        declared = spec["end_to_end"]
    else:
        metrics, extra_attempted, extra_failed, tinfo = traced_run(
            W, tracing, wl, final, setups, args, workdir, notes)
        attempted += extra_attempted
        failed += extra_failed
        info.update(tinfo)
        declared = spec["per_layer"]

    if wl.kind == "train":
        # untimed: the default-seed set-up replays the stored trajectory
        ref_losses = wl.chunk(setups[0], W.DEFAULT_SEED, W.CHUNK_STEPS)
        attempted += len(ref_losses)
        if not wl.matches_reference(ref_losses, reference):
            failed += 1
            notes.append("default-seed loss trajectory left the stored reference")

    fail_frac = failed / attempted
    out_metrics = {m["name"]: {"value": float(metrics.get(m["name"], 0.0)),
                               "unit": m["unit"]} for m in declared}
    absent = [m["name"] for m in declared if m["name"] not in metrics]
    if absent:
        notes.append(f"{len(absent)} metrics have no layer to measure on this "
                     f"workload and read 0: {', '.join(absent)}")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"({attempted} checked operations, {failed} failed)")
    for name, v in out_metrics.items():
        extra = ""
        if name == "latency_ms_tail":
            extra = (f"   (p{info['tail_percentile']:.0f}, {info['tail_beyond']} of "
                     f"{info['samples']} samples beyond)")
        elif name == "setup_s":
            extra = f"   (median of {len(setups)} set-ups; imports {import_s:.2f} s)"
        print(f"  {name:<44} {v['value']:>14.6g} {v['unit']}{extra}")
    print(f"  {'fail_frac':<44} {fail_frac:>14.6g} frac")
    for note in notes:
        print(f"  note: {note}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": out_metrics}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, fail_frac=fail_frac, notes=notes,
                  info=info, env=environment(root))
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    with open(os.path.join(workdir, "results", stamp + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


def traced_run(W, tracing, wl, final, setups, args, workdir, notes):
    """Untraced then traced loop over the same inputs; per-layer metrics."""
    from hirivit.analyzer import count_flops

    half = args.seconds / 2
    min_ops = W.EVAL_IMAGES if wl.kind == "eval" else 1
    t_flops = []
    for _ in range(5):
        t = time.perf_counter()
        report = count_flops(final.model, wl.resolution, wl.batch)
        t_flops.append(time.perf_counter() - t)

    plain = wl.run(final, args.seed, half, W.Loop(), min_ops=min_ops)
    tr = tracing.Tracer()
    roots, tr.watch = wl.trace_roots(final)
    all_paths = set()
    for root in roots:
        paths = tracing.module_paths(root)
        tr.paths.update(paths)
        all_paths.update(paths.values())

    def on_op(i):
        tr.op_id = i

    def dataset_hook(data):
        tr.trace_phase(data, "sample", "train.sample")

    tr.install(train=wl.kind == "train")
    try:
        traced = wl.run(final, args.seed, half, W.Loop(), expect=plain.outputs,
                        on_op=on_op, dataset_hook=dataset_hook, min_ops=min_ops)
    finally:
        tr.remove()
    attempted = plain.attempted + traced.attempted + 2   # + join and count checks
    failed = plain.failed + traced.failed
    if traced.failed:
        notes.append(f"{traced.failed} traced outputs differ from the untraced ones")
    if tr.missing:
        notes.append("entry points not found, so not traced: " + ", ".join(tr.missing))

    n_ops = len(traced.latencies)
    metrics, counts, unmatched = tracing.summarize(
        tr.spans, n_ops, report.records, all_paths)
    if unmatched:
        failed += 1
        notes.append("analyzer paths with no timed module span: " + ", ".join(unmatched))

    # exact counts: the same in every operation (eval) or chunk (train) of
    # this run, and the same as in earlier runs of this workload and seed
    per_unit = collections.defaultdict(collections.Counter)
    unit_of = (lambda i: i) if wl.kind == "eval" else (lambda i: i // W.CHUNK_STEPS)
    for s in tr.spans:
        if s[tracing.KIND] in ("op", "bwd"):
            per_unit[unit_of(s[tracing.OP])][f"{s[tracing.KIND]}.{s[tracing.NAME]}"] += 1
    units = list(per_unit.values())
    repeat_ok = all(u == units[0] for u in units)
    exact = {k: metrics[k] for k in sorted(metrics)
             if k.endswith((".calls", "tape_nodes", "bytes_materialized", "im2col_bytes",
                            "teacher_forwards_per_step", "teacher_images"))}
    exact["analyzer.flops"] = counts["analyzer.flops"]
    fp_path = os.path.join(workdir, "counts", f"{args.workload}-seed{args.seed}.json")
    if os.path.exists(fp_path):
        with open(fp_path) as fh:
            repeat_ok = repeat_ok and json.load(fh) == exact
    else:
        with open(fp_path, "w") as fh:
            json.dump(exact, fh, indent=1, sort_keys=True)
    if not repeat_ok:
        failed += 1
        notes.append("exact counts differ between operations or from an earlier run "
                     f"of this seed ({os.path.relpath(fp_path)})")

    phases = [s.phases for s in setups]
    load_s = median([p["load"] for p in phases])
    mb = final.ckpt_bytes / 1e6
    metrics.update({
        "params.init_s": median([p["init"] for p in phases]),
        "params.save_s": median([p["save"] for p in phases]),
        "params.load_s": load_s,
        "params.ckpt_mb": mb,
        "params.load_mb_per_s": mb / load_s,
        "analyzer.count_flops_s": median(t_flops),
    })
    base, with_trace = median(plain.latencies), median(traced.latencies)
    metrics["trace.overhead_ms"] = (with_trace - base) * 1e3
    metrics["trace.overhead_frac"] = (with_trace - base) / base

    spans_file = os.path.join(workdir, "traces", f"{args.workload}-seed{args.seed}-"
                              f"{time.time_ns()}.csv.gz")
    tr.write(spans_file)
    info = {"untraced_ms": [v * 1e3 for v in plain.latencies],
            "traced_ms": [v * 1e3 for v in traced.latencies],
            "traced_ops": n_ops, "spans": len(tr.spans), "spans_file": spans_file,
            "unmatched_paths": unmatched, "exact_counts": exact,
            "all_layer_metrics": metrics}
    return metrics, attempted, failed, info


if __name__ == "__main__":
    sys.exit(main())
