"""Write reference.json: each workload's outputs for the default seed.

Run from the repository root only when the program's numerics change on
purpose; the benchmark compares every run against this file.

    python3 perfbench/make_reference.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)
    import workloads as W

    workdir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(workdir, exist_ok=True)
    out = {"default_seed": W.DEFAULT_SEED}
    for name, wl in W.WORKLOADS.items():
        setup = wl.setup(W.DEFAULT_SEED, workdir, None)
        out[name] = wl.reference_record(setup)
        print(f"{name}: recorded", file=sys.stderr)
    with open(W.REFERENCE_FILE, "w") as fh:
        json.dump(out, fh)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
