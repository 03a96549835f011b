#!/usr/bin/env python3
"""Convergence check: Monte Carlo rates against exact order-2 enumeration.

Usage: python scripts/mc_vs_enumeration.py [--trials N] [--seed S]

Runs the n=3, r=1 T-state gadget at p_z = 1e-3 for a few bias values and
prints both estimates side by side with the half-width of the Monte Carlo
95% Wilson score interval that the estimate reports (``ci95_e_x``,
``ci95_e_z``); it is not zero at a zero count.  A Monte Carlo rate further
than 3 half-widths from the enumerated rate is flagged, and any flag makes
the script exit 1.
"""

import argparse
import sys

from biasforge import gadget as gd
from biasforge import noise as nz


parser = argparse.ArgumentParser()
parser.add_argument("--trials", type=int, default=200_000)
parser.add_argument("--seed", type=int, default=1)
args = parser.parse_args()

cfg = gd.GadgetConfig.t_state(3, r=1)
print(f"n=3 r=1 T gadget, p_z=1e-3, {args.trials} trials, seed {args.seed}")
print(f"{'eta':>6} {'channel':>8} {'monte carlo':>24} {'enumeration':>14}")
flags = 0
for eta in (10.0, 100.0, 1000.0):
    params = nz.NoiseParams.from_bias(1e-3, eta)
    mc = nz.estimate_rates_mc(cfg, params, trials=args.trials, seed=args.seed)
    en = nz.enumerate_faults(cfg, params, max_order=2)
    for name, m, e, ci in (("e_x", mc.e_x, en.e_x, mc.ci95_e_x), ("e_z", mc.e_z, en.e_z, mc.ci95_e_z)):
        flagged = abs(m - e) > 3 * ci
        flags += flagged
        flag = "  <-- outside 3x CI" if flagged else ""
        print(f"{eta:>6.0f} {name:>8} {m:>14.5e} +-{ci:.1e} {e:>14.5e}{flag}")
sys.exit(1 if flags else 0)
