"""The cost records, record for record.

The reference cost numbers are part of the contract, and the bands of
``verify_reference_costs`` cannot see one miscounted op. So one digest pins
every ``count_flops`` record and the stage boundary shapes of each build of
``golden_configs/``, each at its own resolution. A kernel that changes how an
op computes must not change what the trace charges for it.
"""

import hashlib
from pathlib import Path

from hirivit.analyzer import count_flops
from hirivit.config import parse_config
from hirivit.zoo import Model

GOLDEN = Path(__file__).parent / "golden_configs"

# sha256 over every build, in file-name order: its name, one
# "path params macs elementwise activations" line per record, and one line
# per stage boundary shape
RECORDS_DIGEST = "c62b917618402c1004b388436409996e3b157a272f2905021ae2cef0bd22e99e"


def test_cost_records_match_the_golden_digest():
    h = hashlib.sha256()
    paths = sorted(GOLDEN.glob("*.cfg"))
    assert len(paths) == 22
    for path in paths:
        model = Model(parse_config(path.read_text()))
        res = model.config.resolution
        h.update(f"{path.stem}\n".encode())
        for r in count_flops(model, res[0]).records:
            h.update(f"{r.path} {r.params} {r.macs} {r.elementwise} {r.activations}\n".encode())
        for shape in model.stage_boundary_shapes((1, 3, *res)):
            h.update(f"{'x'.join(map(str, shape))}\n".encode())
    assert h.hexdigest() == RECORDS_DIGEST
