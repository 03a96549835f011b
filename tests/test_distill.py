import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biasforge
from biasforge import cli
from biasforge import distill as d
from biasforge.noise import NoiseParams

# Every rm15_map call made by 200 plan queries (drawn as perfbench's
# plan_queries(2026)) and by the rm-r3 and rm-r1 sweep figures, with repr'd
# inputs and outputs, recorded with the earlier mpmath evaluation.
RM15_GRID = json.loads((Path(__file__).parent / "golden" / "rm15_grid.json").read_text())

BELOW_HALF = math.nextafter(0.5, 0.0)
MIN_NORMAL = sys.float_info.min


@pytest.fixture(scope="module")
def code():
    return d.rm15_code()


class TestCodeSanity:
    def test_generated_matrices_frozen(self, code):
        # qubit 0 leftmost; the Z checks are the X checks and their pairwise products
        x_rows = ["101010101010101", "011001100110011", "000111100001111", "000000011111111"]
        products = ["001000100010001", "000010100000101", "000000001010101",
                    "000001100000011", "000000000110011", "000000000001111"]

        def rows(matrix):
            return ["".join(map(str, row)) for row in np.atleast_2d(matrix).tolist()]

        assert rows(code.x_checks) == x_rows
        assert rows(code.z_checks) == x_rows + products
        assert rows(code.logical_x) == ["1" * 15]
        assert rows(code.logical_z) == ["111" + "0" * 12]
        assert d.rm15_code() is code

    def test_checks_commute(self, code):
        assert not (code.x_checks @ code.z_checks.T % 2).any()

    def test_logical_operators(self, code):
        # logical Z has a weight-3 representative and commutes with X checks
        assert int(code.logical_z.sum()) == 3
        assert not (code.x_checks @ code.logical_z % 2).any()
        assert not (code.z_checks @ code.logical_x % 2).any()
        # logicals anticommute
        assert int(code.logical_x @ code.logical_z % 2) == 1

    def test_distance_three_for_z_errors(self, code):
        # every weight-1 and weight-2 Z pattern triggers some X check
        n = d.N_PHYS
        for i in range(n):
            e = np.zeros(n, dtype=np.uint8)
            e[i] = 1
            assert (code.x_checks @ e % 2).any()
            for j in range(i + 1, n):
                e2 = e.copy()
                e2[j] = 1
                assert (code.x_checks @ e2 % 2).any()

    def test_syndrome_classes_partition_evenly(self, code):
        # Z-check syndromes split the 2^15 X-pattern space into 2^10
        # classes of 2^5 patterns each
        patterns = np.arange(1 << 15, dtype=np.int64)
        bits = (patterns[:, None] >> np.arange(15)) & 1
        syndromes = bits @ code.z_checks.T % 2
        keys = syndromes @ (1 << np.arange(10))
        counts = np.bincount(keys, minlength=1 << 10)
        assert counts.size == 1 << 10
        assert (counts == 32).all()

    def test_coset_weights(self, code):
        en = d._enumerators()
        assert d.logical_coset_min_weight(en.x_logical) == 7
        assert int(en.z_logical[3]) == 35
        assert int(en.x_stab.sum()) == 16 and int(en.x_logical.sum()) == 16
        assert int(en.z_stab.sum()) == 1024 and int(en.z_logical.sum()) == 1024
        # stabilizers have even weights and the logical cosets odd ones
        assert not en.x_stab[1::2].any() and not en.z_stab[1::2].any()
        assert not en.x_logical[::2].any() and not en.z_logical[::2].any()

    def test_mixed_parity_enumerator_rejected(self):
        assert d._horner(np.array([0, 0, 3, 0, 1])) == (0, (1, 3, 0))
        assert d._horner(np.array([0, 2, 0, 5])) == (1, (5, 2))
        with pytest.raises(ValueError, match="mixes even and odd"):
            d._horner(np.array([1, 0, 0, 1]))


def brute_force_side(syndrome_checks, stabilizer_rows, logical, e):
    """Direct 2^15 enumeration oracle, independent of the polynomial path.

    Accept iff the pattern commutes with every syndrome check; it flips the
    logical iff it lies in the logical coset of the stabilizer span.
    """
    n = 15
    accept = err = 0.0

    def masks(rows):
        return [int(sum(1 << j for j in range(n) if r[j])) for r in rows]

    span = {0}
    for r in masks(stabilizer_rows):
        span |= {v ^ r for v in span}
    lmask = int(sum(1 << j for j in range(n) if logical[j]))
    syndrome_masks = masks(syndrome_checks)
    for pat in range(1 << n):
        if any((pat & r).bit_count() % 2 for r in syndrome_masks):
            continue
        w = pat.bit_count()
        weight = e**w * (1 - e) ** (n - w)
        accept += weight
        if pat ^ lmask in span:
            err += weight
    return err / accept, accept


def exact_side(e: float, stab, logical) -> tuple[Fraction, Fraction]:
    """(logical rate given acceptance, acceptance probability) of one side, exactly."""
    m, den = e.as_integer_ratio()
    terms = [m**w * (den - m) ** (15 - w) for w in range(16)]
    logical_t = sum(int(c) * x for c, x in zip(logical, terms))
    accepted_t = logical_t + sum(int(c) * x for c, x in zip(stab, terms))
    return Fraction(logical_t, accepted_t), Fraction(accepted_t, den**15)


def uncapped_plan(target: float, p_z: float, eta: float):
    """plan by exhaustive search: each start is iterated with concatenate, one
    layer at a time, up to MAX_LAYERS, and r=1 wins ties with r=3."""
    params = NoiseParams.from_bias(p_z, eta)

    def search(n, r):
        """(layers, channel), or the error that ended the search."""
        try:
            ch = d.gadget_channel(n, r, params)
            for layers in range(d.MAX_LAYERS + 1):
                if max(ch.e_x, ch.e_z) <= target:
                    return layers, ch
                if layers < d.MAX_LAYERS:
                    ch = d.concatenate(ch, 1)
        except d.ChannelRangeError as exc:
            return exc
        except d.SaturationError as exc:
            return exc.__context__
        best = max(ch.e_x, ch.e_z)
        return d.FeasibilityError(f"target {target} not reached within {d.MAX_LAYERS} layers (best {best:.3e})")

    found = {r: search(3, r) for r in (1, 3)}
    reached = [(*found[r], r) for r in (1, 3) if isinstance(found[r], tuple)]
    if not reached:
        failure = found[3]
        raise failure if isinstance(failure, d.FeasibilityError) else d.FeasibilityError(str(failure))
    layers, achieved, r = min(reached, key=lambda f: (f[0], f[2]))
    gadget_plan = d.DistillPlan(True, 3, r, layers, achieved, d.overhead(True, layers))
    baseline = search(1, 1)
    if isinstance(baseline, d.ChannelRangeError):
        raise d.FeasibilityError(f"baseline channel out of range: {baseline}")
    if isinstance(baseline, Exception):
        raise baseline
    layers, achieved = baseline
    return gadget_plan, d.DistillPlan(False, 1, 1, layers, achieved, d.overhead(False, layers))


def outcome(planner, *query):
    """The plans, or the type and message of the error raised."""
    try:
        return planner(*query)
    except Exception as exc:
        return type(exc), str(exc)


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi), exclude_max=True).map(
        lambda u: min(max(math.exp(u), lo), math.nextafter(hi, 0.0))
    )


def rates():
    """Rates log-uniform over [5e-324, 0.5), plus zero, subnormals, values near
    0.5, and the bands whose X or Z output is a subnormal near 1e-308."""
    edges = st.sampled_from(
        [0.0, 5e-324, 1e-310, math.nextafter(MIN_NORMAL, 0.0), MIN_NORMAL, 0.17, 0.5 - 2**-30,
         math.nextafter(BELOW_HALF, 0.0), BELOW_HALF]
    )
    return st.one_of(
        log_uniform(5e-324, 0.5),
        edges,
        st.floats(0.0, MIN_NORMAL, exclude_max=True),
        st.floats(0.49, 0.5, exclude_max=True),
        log_uniform(4e-45, 1e-44),
        log_uniform(1e-104, 1e-103),
    )


class TestRm15Map:
    def test_identity_channel(self, code):
        out, p_acc = d.rm15_map(d.Channel(0.0, 0.0))
        assert out.e_x == 0.0 and out.e_z == 0.0 and p_acc == 1.0

    def test_leading_order_z(self):
        # out.e_z / e_z^3 -> 35 as e_z -> 0 (Richardson-style ratio check)
        ratios = []
        for e in (1e-3, 1e-4, 1e-5):
            out, _ = d.rm15_map(d.Channel(0.0, e))
            ratios.append(out.e_z / e**3)
        assert abs(ratios[1] - 35) < 1  # the frozen acceptance threshold
        # deviation from 35 shrinks linearly in e
        assert abs(ratios[2] - 35) < abs(ratios[1] - 35) < abs(ratios[0] - 35)

    def test_x_suppression_is_seventh_order(self):
        e = 1e-3
        out, _ = d.rm15_map(d.Channel(e, 0.0))
        assert abs(out.e_x / e**7 - 15.0) < 1.0  # A_7 = 15 leading coefficient

    def test_matches_brute_force_reimplementation(self, code):
        for e_x, e_z in ((3e-2, 1e-2), (1.3e-2, 6.1e-5)):
            out, p_acc = d.rm15_map(d.Channel(e_x, e_z))
            bx, px = brute_force_side(code.z_checks, code.x_checks, code.logical_x, e_x)
            bz, pz = brute_force_side(code.x_checks, code.z_checks, code.logical_z, e_z)
            assert math.isclose(out.e_x, bx, rel_tol=1e-10)
            assert math.isclose(out.e_z, bz, rel_tol=1e-10)
            assert math.isclose(p_acc, px * pz, rel_tol=1e-10)

    def test_subnormal_output_rounded_once(self):
        # the exact value is 1.37520095735409249...e-308; rounding it to 53
        # bits before scaling into the subnormal range gave ...093e-308
        out, _ = d.rm15_map(d.Channel(7.108100476404456e-45, 3.0311821330395975e-19))
        assert out.e_x == 1.3752009573540925e-308

    def test_shared_context_left_unwritten(self):
        # rm15_map rounds (the exact value of 1e-300 has 750 digits) and
        # computes in a local copy of the module context
        d.rm15_map(d.Channel(1e-300, 3e-3))
        assert not any(d._CTX.flags.values())

    @settings(max_examples=400)
    @given(rates(), rates())
    def test_bit_identical_to_exact_rational_oracle(self, code, e_x, e_z):
        en = d._enumerators()
        rate_x, acc_x = exact_side(e_x, en.x_stab, en.x_logical)
        rate_z, acc_z = exact_side(e_z, en.z_stab, en.z_logical)
        want = (float(rate_x), float(rate_z), float(acc_x * acc_z))
        if max(want[:2]) >= 0.5:
            with pytest.raises(d.ChannelRangeError):
                d.rm15_map(d.Channel(e_x, e_z))
        else:
            out, p_acc = d.rm15_map(d.Channel(e_x, e_z))
            assert (out.e_x, out.e_z, p_acc) == want

    def test_recorded_grid_reproduced(self, monkeypatch, tmp_path):
        outputs = [x for calls in (RM15_GRID["plan_calls"], *RM15_GRID["figure_calls"].values())
                   for c in calls for x in map(float, c["out"])]
        assert not any(0.0 < x < MIN_NORMAL for x in outputs)  # no subnormal was recorded
        for call in RM15_GRID["plan_calls"]:
            out, p_acc = d.rm15_map(d.Channel(*map(float, call["in"])))
            assert [repr(out.e_x), repr(out.e_z), repr(p_acc)] == call["out"]
        # plan's capped search makes fewer calls than were recorded, so its
        # plans are checked against the exhaustive search instead
        for query in RM15_GRID["plan_queries"]:
            query = tuple(map(float, query))
            assert d.plan(*query) == uncapped_plan(*query)
        calls = []
        real = d.rm15_map

        def spy(channel):
            out, p_acc = real(channel)
            calls.append({"in": [repr(channel.e_x), repr(channel.e_z)],
                          "out": [repr(out.e_x), repr(out.e_z), repr(p_acc)]})
            return out, p_acc

        monkeypatch.setattr(d, "rm15_map", spy)
        for figure, want in RM15_GRID["figure_calls"].items():
            calls.clear()
            assert cli.main(["sweep", "--figure", figure, "--out", str(tmp_path / f"{figure}.csv")]) == 0
            assert calls == want

    def test_overhead_figures_bit_identical_to_exact_rational_oracle(self, monkeypatch, tmp_path):
        # the plans behind these figures chain up to MAX_LAYERS maps, so their
        # inputs reach far below the rates that the recorded grid covers
        en = d._enumerators()
        channels = set()
        real = d.rm15_map

        def spy(channel):
            channels.add(channel)
            return real(channel)

        monkeypatch.setattr(d, "rm15_map", spy)
        for figure in ("overhead-8", "overhead-12", "overhead-16"):
            assert cli.main(["sweep", "--figure", figure, "--out", str(tmp_path / f"{figure}.csv")]) == 0
        assert min(min(ch.e_x, ch.e_z) for ch in channels) < 1e-30
        for ch in channels:
            rate_x, acc_x = exact_side(ch.e_x, en.x_stab, en.x_logical)
            rate_z, acc_z = exact_side(ch.e_z, en.z_stab, en.z_logical)
            out, p_acc = real(ch)
            assert (out.e_x, out.e_z, p_acc) == (float(rate_x), float(rate_z), float(acc_x * acc_z)), ch

    def test_out_of_range_channel(self):
        with pytest.raises(d.ChannelRangeError):
            d.Channel(0.5, 0.0)

    @given(st.floats(1e-6, 0.2), st.floats(1e-6, 0.2))
    def test_halving_never_increases_outputs(self, e_x, e_z):
        full, _ = d.rm15_map(d.Channel(e_x, e_z))
        half, _ = d.rm15_map(d.Channel(e_x / 2, e_z / 2))
        assert half.e_x <= full.e_x * (1 + 1e-12)
        assert half.e_z <= full.e_z * (1 + 1e-12)


class TestConcatenate:
    def test_zero_layers_identity(self):
        ch = d.Channel(1e-3, 2e-3)
        assert d.concatenate(ch, 0) == ch

    def test_one_layer_matches_map(self):
        ch = d.Channel(1.3e-2, 6.1e-5)
        out1 = d.concatenate(ch, 1)
        out2, _ = d.rm15_map(ch)
        assert out1 == out2
        # X dominates this input; the exact map, not leading order, decides
        assert out1.e_x > 35 * 6.1e-5**3 / 10

    def test_negative_layers_rejected(self):
        with pytest.raises(ValueError):
            d.concatenate(d.Channel(0.0, 0.0), -1)


class TestOverhead:
    def test_values(self):
        assert d.overhead(True, 1) == 60
        assert d.overhead(False, 2) == 225
        assert d.overhead(False, 0) == 1
        assert d.overhead(True, 0) == 4


class TestPlan:
    def test_paper_point_savings(self):
        gadget_plan, baseline_plan = d.plan(1e-8, 1e-3, 100.0)
        assert gadget_plan.layers == baseline_plan.layers - 1
        assert d.savings_factor(gadget_plan, baseline_plan) == 3.75

    def test_two_vs_three_layers(self):
        gadget_plan, baseline_plan = d.plan(1e-16, 1e-3, 100.0)
        assert (gadget_plan.layers, baseline_plan.layers) == (2, 3)

    def test_degenerate_target(self):
        gadget_plan, baseline_plan = d.plan(0.5, 1e-3, 100.0)
        assert gadget_plan.layers == 0 and baseline_plan.layers == 0
        assert d.savings_factor(gadget_plan, baseline_plan) == 0.25

    def test_overhead_invariant(self):
        gadget_plan, baseline_plan = d.plan(1e-12, 5e-4, 1000.0)
        assert gadget_plan.overhead == 4 * 15**gadget_plan.layers
        assert baseline_plan.overhead == 15**baseline_plan.layers

    def test_deep_target_reached_by_cubic_cascade(self):
        # e_z falls roughly cubically per round, so even 1e-300 is reached
        # within the layer cap for small inputs
        gadget_plan, baseline_plan = d.plan(1e-300, 1e-3, 1000.0)
        assert gadget_plan.layers <= 6 and baseline_plan.layers <= 6

    def test_infeasible_when_channel_above_fixed_point(self):
        # beyond e_z ~ 0.17 the round map amplifies Z noise; no layer count
        # can reach a small target
        with pytest.raises(d.FeasibilityError):
            d.plan(1e-8, 0.05, 10.0)

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            d.plan(0.0, 1e-3, 10.0)

    def test_zero_bias_is_a_value_error(self):
        with pytest.raises(ValueError, match="eta"):
            d.plan(1e-8, 1e-3, 0.0)

    def test_explicit_pzz_sets_the_gadget_channel(self):
        p_z, eta, p_zz = 1e-3, 100.0, 5e-6
        plans = d.plan(1e-12, p_z, eta, p_zz=p_zz)
        assert plans != d.plan(1e-12, p_z, eta)
        for plan in plans:
            start = d.gadget_channel(plan.n, plan.r, NoiseParams(p_z / eta, p_z, p_zz))
            assert plan.achieved == d.concatenate(start, plan.layers)

    def test_capped_search_matches_uncapped_oracle(self):
        # 7 targets x 25 p_z x 7 eta: r=1 and r=3 wins, targets out of reach
        # within MAX_LAYERS, and channels that start or end out of range
        for target in (1e-4, 1e-6, 1e-8, 1e-12, 1e-16, 1e-30, 1e-100):
            for p_z in np.geomspace(1e-5, 3e-2, 25).tolist():
                for eta in np.geomspace(1.0, 1e5, 7).tolist():
                    query = (target, p_z, eta)
                    assert outcome(d.plan, *query) == outcome(uncapped_plan, *query), query

    def test_never_dominated(self):
        # the gadget plan never has both higher overhead and higher error
        for p_z in (2e-4, 1e-3, 3e-3):
            for eta in (10.0, 100.0, 1000.0):
                g, b = d.plan(1e-12, p_z, eta)
                worse_overhead = g.overhead > b.overhead
                worse_error = max(g.achieved.e_x, g.achieved.e_z) > max(
                    b.achieved.e_x, b.achieved.e_z
                )
                assert not (worse_overhead and worse_error)


class TestFinalBias:
    def test_unit(self):
        assert d.final_bias(d.Channel(1e-3, 1e-3)) == 1.0

    def test_infinite_sentinel(self):
        assert d.final_bias(d.Channel(0.0, 1e-3)) == math.inf

    def test_r3_pipeline_strongly_biased(self):
        ch = d.gadget_channel(3, 3, NoiseParams.from_bias(1e-3, 1000.0))
        out = d.concatenate(ch, 1)
        assert d.final_bias(out) > 1e6

    def test_r1_pipeline_roughly_balanced(self):
        ch = d.gadget_channel(3, 1, NoiseParams.from_bias(1e-3, 1000.0))
        out = d.concatenate(ch, 1)
        assert 0.05 <= d.final_bias(out) <= 20.0


def test_package_imports_without_mpmath():
    src = str(Path(biasforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    check = "import sys, biasforge.cli; assert 'mpmath' not in sys.modules"
    subprocess.run([sys.executable, "-c", check], env=env, check=True)
