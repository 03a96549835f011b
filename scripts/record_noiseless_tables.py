#!/usr/bin/env python3
"""Record digests of the noiseless branch tables as a golden file of tests/test_branch_engine.py.

Usage: PYTHONPATH=src python scripts/record_noiseless_tables.py > tests/golden/noiseless_tables.json

Each case is one ``gadget._noiseless_table(cfg)``: the (B, M) records, the
(B,) branch probabilities and the (B, 2^n) normalised block-3 states of the
noiseless circuit's measurement branches, which every faulted enumeration
and Monte Carlo trial reads through its Pauli frame.  Each array is kept as
``dtype[shape] sha256``, so the table is pinned bit for bit.  The cases are
the T and |+i> gadgets at n=3 with r=1 and r=3, and at n=5 and n=7 with
r=1; n=7 is the only size whose stack exceeds ``gadget._MAX_AMPS`` and so
is advanced in parts.  Re-record only when a table is meant to change.
"""

import hashlib
import json
import sys

import numpy as np

from biasforge import gadget as gd

MAKE = {"T": gd.GadgetConfig.t_state, "plusI": gd.GadgetConfig.plus_i}
SIZES = [(3, 1), (3, 3), (5, 1), (7, 1)]  # (n, r)


def digest(array: np.ndarray) -> str:
    return f"{array.dtype}{list(array.shape)} {hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()}"


def record():
    out = []
    for target, make in MAKE.items():
        for n, r in SIZES:
            branches = gd._noiseless_table(make(n, r))
            arrays = {"records": branches.records, "probabilities": branches.probabilities, "states": branches.states}
            out.append({"target": target, "n": n, "r": r, "arrays": {k: digest(a) for k, a in arrays.items()}})
    return out


if __name__ == "__main__":
    doc = {
        "about": "SHA-256 of the (records, probabilities, states) arrays of gadget._noiseless_table(cfg), as "
        "dtype[shape] digest. The digests were first recorded with the compiled-program engine that the "
        "per-build list of stack operations replaced. n=7 is the only size whose stack exceeds _MAX_AMPS, so "
        "only it is advanced in parts.",
        "command": "PYTHONPATH=src python scripts/record_noiseless_tables.py > tests/golden/noiseless_tables.json",
        "cases": record(),
    }
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")
