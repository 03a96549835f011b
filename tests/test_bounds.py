import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from biasforge import bounds as bd
from biasforge.noise import NoiseParams


def test_all_zero_rates_give_zero():
    b = bd.breakdown(3, 3, 3, NoiseParams(0.0, 0.0, 0.0))
    assert b.e_xl == 0.0 and b.e_zl == 0.0
    assert b.eps_x3 == b.eps_x_mz == b.eps_z1 == b.eps_z2 == 0.0


def test_breakdown_example_values():
    b = bd.breakdown(3, 3, 3, NoiseParams(p_x=1e-6, p_z=1e-3, p_zz=1e-6))
    assert abs(b.eps_x3 - 9e-6) < 1e-18
    assert abs(b.eps_z2 - (3e-6 + 3 * (6e-3) ** 2)) < 1e-15  # 1.11e-4


def test_e_xl_bound_values():
    # 3.3e-5 + 3*(64+25)*1e-6 = 3.00e-4
    assert abs(bd.e_xl_bound(3, 3, 1e-6, 1e-3) - (3.3e-5 + 2.67e-4)) < 1e-12
    # r=1: 1.5e-5 + 13e-3
    assert abs(bd.e_xl_bound(3, 1, 1e-6, 1e-3) - 1.3015e-2) < 1e-9
    assert bd.e_xl_bound(3, 3, 0.0, 0.0) == 0.0


def test_e_zl_bound_values():
    v = bd.e_zl_bound(3, 3, 1e-6, 1e-3, 1e-6)
    assert abs(v - (1.728e-6 + 3e-6 + 2.7e-5 + 1.08e-4)) < 1e-12
    v1 = bd.e_zl_bound(3, 1, 1e-6, 1e-3, 1e-6)
    assert abs(v1 - (5.12e-7 + 3e-6 + 9e-6 + 4.8e-5)) < 1e-12
    assert bd.e_zl_bound(3, 1, 0.0, 0.0, 0.0) == 0.0


@pytest.mark.parametrize("rates", [(0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 1, 1)])
@pytest.mark.parametrize("r_z, r_zz", [(1, 1), (3, 3), (1, 3), (411, 411)])
def test_int_rates_give_the_float_rates_results(rates, r_z, r_zz):
    # an int rate once made an int bound: a 309-digit one at r = 411, p = 1
    floats = tuple(map(float, rates))
    got = [*dataclasses.astuple(bd.breakdown(3, r_z, r_zz, NoiseParams(*rates)))]
    want = [*dataclasses.astuple(bd.breakdown(3, r_z, r_zz, NoiseParams(*floats)))]
    if r_z == r_zz:
        got += [bd.e_xl_bound(3, r_z, *rates[:2]), bd.e_zl_bound(3, r_z, *rates)]
        want += [bd.e_xl_bound(3, r_z, *floats[:2]), bd.e_zl_bound(3, r_z, *floats)]
    assert all(type(v) is float for v in got) and [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("fn", ["xl", "zl"])
def test_even_r_rejected(fn):
    with pytest.raises(bd.OddParityError):
        if fn == "xl":
            bd.e_xl_bound(3, 2, 1e-6, 1e-3)
        else:
            bd.e_zl_bound(3, 2, 1e-6, 1e-3, 1e-6)


def test_breakdown_recombines_to_combined_bounds():
    # the totals are the combined bounds bit for bit; the terms sum to them
    # in another order, a few ulp apart at most
    for n in (1, 3, 5, 7):
        for r_z in (1, 3, 5):
            for r_zz in (1, 3, 5):
                for p_z in np.geomspace(1e-4, 1e-2, 25).tolist():
                    for eta in (10.0, 100.0, 1000.0):
                        noise = NoiseParams.from_bias(p_z, eta)
                        b = bd.breakdown(n, r_z, r_zz, noise)
                        if r_z == r_zz:
                            assert b.e_xl == bd.e_xl_bound(n, r_z, noise.p_x, noise.p_z)
                            assert b.e_zl == bd.e_zl_bound(n, r_z, noise.p_x, noise.p_z, noise.p_zz)
                        assert math.isclose(b.e_xl, b.eps_x3 + b.eps_x_mzz, rel_tol=1e-15)
                        assert math.isclose(b.e_zl, b.eps_z1 + b.eps_z2, rel_tol=1e-15)


def _assert_totals_are_the_bounds(n, r, noise):
    b = bd.breakdown(n, r, r, noise)
    assert b.e_xl == bd.e_xl_bound(n, r, noise.p_x, noise.p_z), (n, r, noise)
    assert b.e_zl == bd.e_zl_bound(n, r, noise.p_x, noise.p_z, noise.p_zz), (n, r, noise)


def test_breakdown_totals_are_the_bounds_bit_for_bit():
    for n in (1, 3, 5, 7):
        for r in (1, 3, 5, 7):
            for p_z in np.geomspace(1e-6, 0.3, 400).tolist():
                for eta in (1.0, 3.0, 10.0, 100.0, 1e3, 1e6):
                    _assert_totals_are_the_bounds(n, r, NoiseParams.from_bias(p_z, eta))


def test_breakdown_totals_are_the_bounds_at_plan_queries():
    # (p_z, eta) drawn as perfbench's plan queries; the planner reads the
    # gadget at n=3, r in {1, 3} and the baseline at n=1, r=1
    rng = np.random.default_rng(2026)
    for _ in range(2000):
        p_z = 10.0 ** rng.uniform(-4.0, math.log10(4e-3))
        noise = NoiseParams.from_bias(p_z, 10.0 ** rng.uniform(1.0, 3.0))
        for n, r in ((3, 1), (3, 3), (1, 1)):
            _assert_totals_are_the_bounds(n, r, noise)


def test_e_xl_bound_past_a_float_coefficient_takes_the_term_products():
    # C(501, 251) (8^251 + 5^251) is too large for a float; the per-term
    # products C(501, 251) (8 p_z)^251 and C(501, 251) (5 p_z)^251 are not
    noise = NoiseParams(p_x=1e-5, p_z=1e-3, p_zz=1e-5)
    m = 251
    terms = math.comb(501, m) * (8e-3) ** m + math.comb(501, m) * (5e-3) ** m
    assert bd.e_xl_bound(3, 501, 1e-5, 1e-3) == 3 * 1505 * 1e-5 + terms
    assert math.isclose(bd.e_xl_bound(3, 501, 1e-5, 1e-3), 0.04515, rel_tol=1e-15)
    _assert_totals_are_the_bounds(3, 501, noise)
    # below the fallback, the integer coefficient is still the one evaluated
    assert bd.e_xl_bound(3, 401, 1e-5, 1e-3) == 3 * 1205 * 1e-5 + math.comb(401, 201) * (8**201 + 5**201) * 1e-3**201
    # at r = 2001 the powers underflow too: the exact terms are tiny beside n(3r+2) p_x
    assert bd.e_xl_bound(3, 2001, 1e-5, 1e-3) == pytest.approx(0.18015, rel=1e-15)


@pytest.mark.parametrize("r, want", [(239, 1.0674547020085839e-181), (301, 4.3470416972450236e-228)])
def test_e_xl_bound_where_the_power_underflows_takes_the_term_products(r, want):
    # 1e-3^m underflows to 0.0, which would make the bound 0; the per-term
    # products C(r, m) (8 p_z)^m + C(r, m) (5 p_z)^m do not underflow at
    # r = 239, and at r = 301, where (8e-3)^151 is subnormal and (5e-3)^151
    # is 0.0, each term is taken exactly
    m = (r + 1) // 2
    assert 1e-3**m == 0.0
    exact = math.comb(r, m) * ((8 * Fraction(1e-3)) ** m + (5 * Fraction(1e-3)) ** m)
    assert bd.e_xl_bound(3, r, 0.0, 1e-3) == want == pytest.approx(float(exact), rel=1e-15, abs=0.0)
    if r == 239:
        assert want == math.comb(r, m) * (8e-3) ** m + math.comb(r, m) * (5e-3) ** m
    _assert_totals_are_the_bounds(3, r, NoiseParams(p_x=0.0, p_z=1e-3, p_zz=0.0))
    # where the power does not underflow, the integer coefficient is still the one evaluated
    assert bd.e_xl_bound(3, 201, 0.0, 1e-3) == 2.936599364244339e-153
    assert bd.e_xl_bound(3, r, 0.0, 0.0) == 0.0


@pytest.mark.parametrize("p_z", [0.028, 0.0285])
def test_e_xl_bound_where_a_term_power_is_no_normal_float_is_exact(p_z):
    # at r = 1001 the float products would give 0.0 at p_z = 0.028 (both
    # powers underflow) and 0.44% high at 0.0285 (the subnormal
    # (8 p_z)^501 = 2.1e-322); each such term is taken exactly
    m = 501
    assert (8 * p_z) ** m < sys.float_info.min and (5 * p_z) ** m == 0.0
    exact = math.comb(1001, m) * ((8 * Fraction(p_z)) ** m + (5 * Fraction(p_z)) ** m)
    assert bd.e_xl_bound(3, 1001, 0.0, p_z) == float(exact) > 0.0
    _assert_totals_are_the_bounds(3, 1001, NoiseParams(p_x=0.0, p_z=p_z, p_zz=0.0))


@pytest.mark.parametrize("r_z, r_zz", [(205, 205), (213, 213), (201, 213), (213, 201), (213, 239), (239, 213)])
def test_e_xl_where_a_power_is_subnormal_keeps_its_bits(r_z, r_zz):
    # 1e-3^m is subnormal at m = 103..107 and 0.0 from m = 108: it holds a
    # few bits or none, which the integer coefficient would scale back up,
    # and at (213, 239) the zero r_zz power is the larger term
    p_z, m_z, m_zz = 1e-3, (r_z + 1) // 2, (r_zz + 1) // 2
    assert min(p_z**m_z, p_z**m_zz) < sys.float_info.min
    exact = math.comb(r_zz, m_zz) * (8 * Fraction(p_z)) ** m_zz + math.comb(r_z, m_z) * (5 * Fraction(p_z)) ** m_z
    got = bd.breakdown(3, r_z, r_zz, NoiseParams(p_x=0.0, p_z=p_z, p_zz=0.0)).e_xl
    assert got == pytest.approx(float(exact), rel=1e-14, abs=0.0)
    if r_z == r_zz:
        assert bd.e_xl_bound(3, r_z, 0.0, p_z) == got


@pytest.mark.parametrize("counts", [(2, 3, 3), (3, 2, 3), (3, 3, 4), (3, 0, 3)])
def test_breakdown_rejects_even_counts(counts):
    with pytest.raises(bd.OddParityError):
        bd.breakdown(*counts, NoiseParams(p_x=1e-6, p_z=1e-3, p_zz=1e-6))


def test_distinct_repetition_counts_kept_apart():
    noise = NoiseParams(p_x=1e-6, p_z=1e-3, p_zz=1e-6)
    b = bd.breakdown(3, 1, 3, noise)
    # eps_x_mz uses r_z only, eps_x3 uses r_zz only
    assert b.eps_x3 == 3 * 3 * 1e-6
    assert abs(b.eps_x_mz - (3 * 2 * 1e-6 + 5e-3)) < 1e-12


grid = st.sampled_from([0.0, 1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.1])


@given(grid, grid, grid, st.sampled_from([1, 3, 5]))
def test_monotone_in_each_rate(p_x, p_z, p_zz, r):
    base_x = bd.e_xl_bound(3, r, min(p_x, p_z), p_z)
    base_z = bd.e_zl_bound(3, r, min(p_x, p_z), p_z, p_zz)
    bump = 1e-3
    assert bd.e_xl_bound(3, r, min(p_x, p_z) + bump, p_z) >= base_x
    assert bd.e_xl_bound(3, r, min(p_x, p_z), p_z + bump) >= base_x
    assert bd.e_zl_bound(3, r, min(p_x, p_z), p_z + bump, p_zz) >= base_z
    assert bd.e_zl_bound(3, r, min(p_x, p_z), p_z, p_zz + bump) >= base_z


def test_r_tradeoff_at_high_bias():
    # more repetitions help X, hurt Z
    p_z, eta = 1e-3, 1000.0
    p_x = p_z / eta
    assert bd.e_xl_bound(3, 3, p_x, p_z) < bd.e_xl_bound(3, 1, p_x, p_z)
    assert bd.e_zl_bound(3, 1, p_x, p_z, p_x) < bd.e_zl_bound(3, 3, p_x, p_z, p_x)


def test_bounds_may_exceed_one_unclamped():
    assert bd.e_zl_bound(3, 3, 0.1, 0.1, 0.1) > 1.0
