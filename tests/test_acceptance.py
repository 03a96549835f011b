"""Acceptance suite: one test per numbered criterion, each printing a
one-line PASS verdict (run with ``pytest tests/test_acceptance.py -v -s``).

Each test also asserts its own runtime budget.  Later criteria reuse the
in-process fault-enumeration caches built by earlier ones, so running the
module front to back is the cheapest order.
"""

import math
import time
from fractions import Fraction

import numpy as np

from biasforge import bounds as bd
from biasforge import distill as dst
from biasforge import gadget as gd
from biasforge import noise as nz
from classify_oracle import (
    apply_pauli,
    branch_states,
    classify,
    corrections,
    readout_flips,
    reference_events,
    state_fidelity,
    target_state,
)
from rm15_oracle import enumerators

Z95 = 1.959963984540054


def _elapsed_guard(t0: float, limit_s: float, label: str) -> None:
    dt = time.time() - t0
    assert dt < limit_s, f"{label} took {dt:.1f}s, budget {limit_s}s"


def _count_fraction(n: int, r: int = 1) -> Fraction:
    cfg = gd.GadgetConfig.t_state(n, r=r)
    branches = gd.enumerate_branches(cfg)
    assert abs(branches.probabilities.sum() - 1.0) < 1e-9
    accepted = sum(c is not None for c in corrections(cfg, branches.records))
    return Fraction(accepted, len(branches))


def test_criterion_1_acceptance_probability():
    t0 = time.time()
    assert _count_fraction(3) == Fraction(3, 4)
    assert _count_fraction(5) == Fraction(5, 8)  # 0.625
    # n=9 via the binomial counting shortcut rather than full enumeration
    assert gd.accept_probability_exact(9) == Fraction(126, 256)
    _elapsed_guard(t0, 10, "criterion 1")
    print("\nPASS criterion 1: accepted branch fractions 3/4 (n=3), 5/8 (n=5), 126/256 (n=9), exact rationals")


def test_criterion_2_ideal_correctness():
    t0 = time.time()
    checked = 0
    for make in (gd.GadgetConfig.plus_i, gd.GadgetConfig.t_state):
        for r in (1, 3):
            cfg = make(3, r=r)
            target = target_state(cfg)
            branches = gd.enumerate_branches(cfg)
            for (record, _, state), correction in zip(branch_states(cfg, branches), corrections(cfg, branches.records)):
                if correction is None:
                    assert cfg.theta == math.pi / 4  # only T rejects noiseless records
                    continue
                corrected = apply_pauli(state, 3, correction)
                fid = state_fidelity(corrected, target)
                assert fid >= 1 - 1e-8, (cfg.theta, r, record, fid)
                checked += 1
    assert checked > 100
    _elapsed_guard(t0, 30, "criterion 2")
    print(f"\nPASS criterion 2: {checked} noiseless accepted branches corrected to target with fidelity >= 1-1e-8")


def test_criterion_3_fault_distance_properties():
    t0 = time.time()
    cfg = gd.GadgetConfig.t_state(3, r=3)
    masses = {"z": {}, "x": {}, "zz": {}}
    for rate, *fault in reference_events(cfg):
        code = gd.fault_frame(cfg, [fault])
        branches = gd.enumerate_branches(cfg, readout_flips(cfg, code))
        for (_, prob, state), correction in zip(branch_states(cfg, branches, code), corrections(cfg, branches.records)):
            if correction is None:
                continue
            cls, _, _ = classify(state, correction, cfg)
            bucket = masses[rate]
            bucket[cls] = bucket.get(cls, 0.0) + prob
    bad_z = {c: m for c, m in masses["z"].items() if c != "I"}
    assert not bad_z, f"single Z faults produced logical errors: {bad_z}"
    assert masses["zz"].get("ZL", 0.0) > 0.0
    assert masses["x"].get("XL", 0.0) > 0.0
    _elapsed_guard(t0, 120, "criterion 3")
    print("\nPASS criterion 3: no accepted logical error from any single Z fault; ZZ->ZL and X->XL channels present")


def test_criterion_4_bound_domination():
    t0 = time.time()
    checked = 0
    for r in (1, 3):
        cfg = gd.GadgetConfig.t_state(3, r=r)
        for p_z in (1e-4, 3e-4, 1e-3):
            for eta in (10.0, 100.0, 1000.0):
                params = nz.NoiseParams.from_bias(p_z, eta)  # p_zz = p_x
                est = nz.enumerate_faults(cfg, params, max_order=2)
                bx = bd.e_xl_bound(3, r, params.p_x, p_z)
                bz = bd.e_zl_bound(3, r, params.p_x, p_z, params.p_zz)
                assert est.e_x <= bx, (r, p_z, eta, est.e_x, bx)
                assert est.e_z <= bz, (r, p_z, eta, est.e_z, bz)
                checked += 1
    assert checked == 18
    _elapsed_guard(t0, 600, "criterion 4")
    print("\nPASS criterion 4: order-2 enumerated rates below both bounds on all 18 grid points")


def test_criterion_5_threshold_crossing():
    t0 = time.time()
    grid = np.geomspace(1e-5, 1e-2, 400)

    def max_bound_ratio(p_z: float, eta: float) -> float:
        p_x = p_z / eta
        worst = max(
            bd.e_xl_bound(3, 3, p_x, p_z), bd.e_zl_bound(3, 3, p_x, p_z, p_x)
        )
        return worst / p_z

    # eta = 100: both bounds below bare p_z up to a crossing near 3e-3
    ratios = [max_bound_ratio(p, 100.0) for p in grid]
    below = [p for p, q in zip(grid, ratios) if q < 1.0]
    assert below, "no sub-threshold region at eta=100"
    crossing = max(below)
    assert 1.5e-3 <= crossing <= 6e-3, crossing  # within 2x of 3e-3
    assert all(q < 1.0 for p, q in zip(grid, ratios) if p <= crossing * 0.999)
    # eta = 10: never below the bare rate
    assert all(max_bound_ratio(p, 10.0) >= 1.0 for p in grid)
    _elapsed_guard(t0, 30, "criterion 5")
    print(f"\nPASS criterion 5: eta=100 crossing at p_z~{crossing:.2e} (within 2x of 3e-3); eta=10 never sub-threshold")


def test_criterion_6_rm_leading_order():
    t0 = time.time()
    out = dst.rm15_map(dst.Channel(e_x=0.0, e_z=1e-4))
    ratio = out.e_z / (1e-4) ** 3
    assert abs(ratio - 35.0) < 1.0, ratio
    d_x = int(np.flatnonzero(enumerators().x_logical)[0])  # the logical-X coset's least weight
    assert d_x > 3, d_x
    _elapsed_guard(t0, 60, "criterion 6")
    print(f"\nPASS criterion 6: out.e_z/e_z^3 = {ratio:.4f} (|.-35|<1); logical-X coset min weight {d_x} > 3")


def test_criterion_7_overhead_claims():
    t0 = time.time()
    etas = [10.0, 10.0 ** (5 / 3), 10.0 ** (7 / 3), 1000.0]  # log-spaced over eta >= 10

    def grid_pass_rate(target, pz_lo, pz_hi, want):
        pz_points = np.geomspace(pz_lo, pz_hi, 7)[1:-1]  # interior of the open interval
        results = []
        for eta in etas:
            for p_z in pz_points:
                g, b = dst.plan(target=target, p_z=float(p_z), eta=eta)
                results.append(want(g, b))
        return sum(results) / len(results), len(results)

    rate1, n1 = grid_pass_rate(
        1e-8, 1e-4, 2e-3,
        lambda g, b: g.layers == b.layers - 1 and dst.savings_factor(g, b) == 3.75,
    )
    assert n1 == 20
    assert rate1 >= 0.9, f"one-fewer-layer + 15/4 savings on only {rate1:.0%} of the 1e-8 grid"
    rate2, n2 = grid_pass_rate(
        1e-16, 4e-4, 4e-3, lambda g, b: (g.layers, b.layers) == (2, 3)
    )
    assert n2 == 20
    assert rate2 >= 0.9, f"2-vs-3 layers on only {rate2:.0%} of the 1e-16 grid"
    _elapsed_guard(t0, 60, "criterion 7")
    print(
        f"\nPASS criterion 7: savings 15/4 with one fewer layer on {rate1:.0%} of the 1e-8 grid; "
        f"2-vs-3 layers on {rate2:.0%} of the 1e-16 grid (eta >= 10)"
    )


def test_criterion_8_final_bias():
    t0 = time.time()
    params = nz.NoiseParams.from_bias(1e-3, 1000.0)

    def output_bias(r):
        out = dst.concatenate(dst.gadget_channel(3, r, params), 1)
        return out.e_z / out.e_x

    r3, r1 = output_bias(3), output_bias(1)
    assert r3 > 1e6, r3
    assert 0.05 <= r1 <= 20.0, r1
    _elapsed_guard(t0, 30, "criterion 8")
    print(f"\nPASS criterion 8: one-round pipeline bias r=3: {r3:.3g} (>1e6); r=1: {r1:.3g} (in [0.05, 20])")


def test_criterion_9_monte_carlo_consistency():
    t0 = time.time()
    cfg = gd.GadgetConfig.t_state(3, r=1)
    params = nz.NoiseParams.from_bias(1e-3, 100.0)
    en = nz.enumerate_faults(cfg, params, max_order=2)
    mc = nz.estimate_rates_mc(cfg, params, trials=1_000_000, seed=20240)
    trials = mc.trials_or_order

    def ci(mc_rate, en_rate):
        p = max(mc_rate, en_rate)
        return Z95 * math.sqrt(p * (1 - p) / trials)

    dx, dz = abs(mc.e_x - en.e_x), abs(mc.e_z - en.e_z)
    assert dx <= 3 * ci(mc.e_x, en.e_x), (mc.e_x, en.e_x)
    assert dz <= 3 * ci(mc.e_z, en.e_z), (mc.e_z, en.e_z)
    _elapsed_guard(t0, 300, "criterion 9")
    print(
        f"\nPASS criterion 9: 1e6-trial MC (e_x={mc.e_x:.4e}, e_z={mc.e_z:.4e}) within 3x CI of "
        f"order-2 enumeration (e_x={en.e_x:.4e}, e_z={en.e_z:.4e})"
    )
