#!/usr/bin/env python3
"""Record per-bin Monte Carlo counts as the golden file of tests/test_noise.py.

Usage: PYTHONPATH=src python scripts/record_mc_counts.py > tests/golden/mc_counts.json

Each case is one ``noise._mc_counts`` call over trials 0..trials-1: the six
outcome-bin counts (I, XL, ZL, YL, rejected, anomaly) that
``estimate_rates_mc`` turns into rates.  Each block of ``noise._BLOCK``
trials draws from its own generator: for each rate kind (z, x, zz) a
binomial count of fired (trial, event) cells and a uniform set of that
many cells (``noise._sample_fires``, which returns the fired (trial, event)
cells in trial order), then one double per trial, in trial order, which
picks the trial's noiseless row by its probability.  A faulted trial reads
that row through its frame, the XOR of its fired events' integer frame
codes (``noise._event_table``: readout flips in the low bits, the block-3
Pauli above them).  So the counts are those of the one-draw block sampler,
with no other engine behind them.  The cases are the nine of
``test_monte_carlo_counts_match_per_trial_loop``, two in which every Z event
fires in every trial (n=5 and n=3), and 20,000-trial runs at two high noise
points.  Re-record only when a count is meant to change.

The file was last re-recorded when ``noise._BLOCK`` rose from 2,048 to
8,192 trials, to spread each generator's fixed cost over more trials.  The
nine cases of more than 2,048 trials (the three 3,000-trial anchor cases
and the six 20,000-trial cases) moved, since every trial t past the first
2,048 now draws from the generator of block t // 8,192, not t // 2,048.  The
eight cases of 2,048 trials or fewer are one block of the same generator
either way, and kept every count.

The counts are defined by numpy's ``Generator.binomial``,
``Generator.choice(replace=False)`` and ``Generator.random`` on PCG64, so a
numpy release that changed any of these streams would move them.  The CI
legs on numpy 1.24, the oldest release ``pyproject.toml`` allows, re-run
this script and ``cmp`` its output with the file; the file was recorded on
numpy 2.4.6, and those legs have not been run offline against it.
"""

import json
import sys

from biasforge import gadget as gd
from biasforge import noise as nz

CONFIGS = {  # name -> config at code length n
    "T-r1": lambda n: gd.GadgetConfig.t_state(n, r=1),
    "T-r3": lambda n: gd.GadgetConfig.t_state(n, r=3),
    "plusI-r1": lambda n: gd.GadgetConfig.plus_i(n, r=1),
}


def cases():
    for p_z, eta, trials, seed in [(1e-3, 100.0, 3000, 29), (1e-2, 10.0, 1500, 2**100 + 1), (5e-2, 3.0, 400, 7)]:
        for name in CONFIGS:
            yield name, 3, nz.NoiseParams.from_bias(p_z, eta), trials, seed
    every_z = nz.NoiseParams(p_x=0.0, p_z=1.0, p_zz=0.0)
    yield "T-r1", 5, every_z, 600, 3
    yield "T-r1", 3, every_z, 300, 3
    for p_z, eta in [(1e-2, 10.0), (5e-2, 3.0)]:
        for name in CONFIGS:
            yield name, 3, nz.NoiseParams.from_bias(p_z, eta), 20_000, 2026


def record():
    out = []
    for name, n, params, trials, seed in cases():
        counts = nz._mc_counts(CONFIGS[name](n), params, seed, range(trials))
        out.append(
            {
                "gadget": name,
                "n": n,
                "p_x": params.p_x,
                "p_z": params.p_z,
                "p_zz": params.p_zz,
                "trials": trials,
                "seed": seed,
                "counts": counts.tolist(),
            }
        )
    return out


if __name__ == "__main__":
    doc = {
        "about": "Per-bin counts (I, XL, ZL, YL, rejected, anomaly) of noise._mc_counts(cfg, params, seed, "
        "range(trials)): trial block b of noise._BLOCK draws from default_rng([seed, b]), first a binomial "
        "count and a uniform set of fired cells per rate kind z, x, zz (noise._sample_fires), then one double "
        "per trial that picks its noiseless row, which a faulted trial reads through its frame.",
        "command": "PYTHONPATH=src python scripts/record_mc_counts.py > tests/golden/mc_counts.json",
        "cases": record(),
    }
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")
