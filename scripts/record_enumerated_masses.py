#!/usr/bin/env python3
"""Record digests of the enumerated subset masses as a golden file of tests/test_branch_engine.py.

Usage: PYTHONPATH=src python scripts/record_enumerated_masses.py > tests/golden/enumerated_masses.json

Each case is one ``noise._enumerated_combos(cfg, order)``: the event rate
indices, the (S, order) padded event-index matrix and the (S, 5) outcome-bin
mass matrix, whose stratum sums (``noise._strata``) every ``enumerate_faults``
call re-weights.  A subset's masses are the row of its frame code's statistic
in the closed-form mass table (``gadget._statistic_masses``); at these configs
they equal, bit for bit, the code's noiseless rows binned and summed in row
order, as the file's ``about`` text says of the build it was recorded with.
Each array is kept as ``dtype[shape] sha256``, so the masses are pinned bit for
bit.  The cases are the n=3 T gadget at r=1 and r=3 and the n=3 |+i> gadget at
r=1, each at orders 1 and 2.  Re-record only when a mass is meant to change.
"""

import hashlib
import json
import sys

import numpy as np

from biasforge import gadget as gd
from biasforge import noise as nz

CONFIGS = {  # name -> n=3 config
    "T-r1": gd.GadgetConfig.t_state(3, r=1),
    "T-r3": gd.GadgetConfig.t_state(3, r=3),
    "plusI-r1": gd.GadgetConfig.plus_i(3, r=1),
}


def digest(array: np.ndarray) -> str:
    return f"{array.dtype}{list(array.shape)} {hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()}"


def record():
    out = []
    for name, cfg in CONFIGS.items():
        for order in (1, 2):
            rates, index, masses = nz._enumerated_combos(cfg, order)
            arrays = {"rates": rates, "index": index, "masses": masses}
            out.append({"gadget": name, "order": order, "arrays": {k: digest(a) for k, a in arrays.items()}})
    return out


if __name__ == "__main__":
    doc = {
        "about": "SHA-256 of the (rates, index, masses) arrays of noise._enumerated_combos(cfg, order), as "
        "dtype[shape] digest. A subset's masses are its frame code's noiseless rows binned and summed in "
        "row order (noise._frame_masses).",
        "command": "PYTHONPATH=src python scripts/record_enumerated_masses.py > tests/golden/enumerated_masses.json",
        "cases": record(),
    }
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")
