"""Compare two sets of benchmark results, one row per workload and metric.

    python3 perfbench/compare.py BASE HEAD

BASE and HEAD are result files, or directories of them, as ``run.py``
writes them to ``.bench_build/perfbench/results/``: BASE from the parent
commit, HEAD from the change, made with the same benchmark and settings.
Only untraced runs count. Runs pair up by seed. Each row gives both medians
with their quartiles, the share of pairs the change won and a verdict
(improved, unchanged, worse or unresolved) by the rule in ``stats.verdict``
and the bounds in BENCHMARK.json.

Exit code: 0, or 1 when a verdict is worse or unresolved, or when the
change fails more operations than the parent.
"""

from __future__ import annotations

import glob
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


def load(where):
    files = sorted(glob.glob(os.path.join(where, "*.json"))) if os.path.isdir(where) \
        else [where]
    runs = {}
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        if r.get("trace") == 0:
            runs.setdefault(r["workload"], []).append(r)
    return runs


def compare(base, head, spec):
    status = 0
    hdr = (f"{'workload':<20} {'metric':<16} {'base median [q1, q3]':>32} "
           f"{'head median [q1, q3]':>32} {'pairs':>5} {'won':>5} {'worse by':>9}  verdict")
    print(hdr)
    for wl in sorted(set(base) & set(head)):
        b, h = base[wl], head[wl]
        for m in spec["end_to_end"]:
            name = m["name"]
            v = stats.verdict([r["metrics"][name]["value"] for r in b],
                              [r["metrics"][name]["value"] for r in h],
                              m["better"], m["bound"],
                              [r["seed"] for r in b], [r["seed"] for r in h])
            fmt = "{1:.5g} [{0:.5g}, {2:.5g}]"
            print(f"{wl:<20} {name:<16} {fmt.format(*v['base']):>32} "
                  f"{fmt.format(*v['head']):>32} {v['pairs']:>5} {v['won']:>5.0%} "
                  f"{v['worse_by']:>+9.2%}  {v['verdict']}")
            if v["verdict"] in ("worse", "unresolved"):
                status = 1
        fb, fh = sum(r["failed"] for r in b), sum(r["failed"] for r in h)
        print(f"{wl:<20} {'failed ops':<16} {fb:>32} {fh:>32}")
        if fh > fb:
            status = 1
    for wl in sorted(set(base) ^ set(head)):
        print(f"{wl}: results on one side only")
    return status


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    return compare(load(argv[0]), load(argv[1]), spec)


if __name__ == "__main__":
    sys.exit(main())
