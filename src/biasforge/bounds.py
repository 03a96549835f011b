"""Closed-form upper bounds on the gadget's logical error rates.

All expressions are polynomial in the physical rates and are evaluated
raw: a bound may exceed 1 at large p (it is an upper bound, not a
probability); callers that care can check ``value > 1`` themselves.

Repetition counts must be odd (majority votes and the m = (r+1)/2
suppression exponent assume it); even values raise OddParityError rather
than interpolating.

Each total is one polynomial in (n, r_z, r_zz), evaluated in one order:
``breakdown`` reports it beside its channel terms, and ``e_xl_bound`` /
``e_zl_bound`` are its r_z = r_zz = r case, bit for bit.  The rates are
taken as floats, so int rates give the float rates' results.

The module evaluates one noise point at a time; the bound-curve figures
are sweeps of ``e_xl_bound`` / ``e_zl_bound`` over the p_z grids of the
``cli`` figure table.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .noise import NoiseParams


_NORMAL_MIN = sys.float_info.min  # a smaller nonzero float is subnormal: it holds fewer bits


class OddParityError(ValueError):
    """n and the repetition counts must be odd."""


def _check_odd(name: str, value: int) -> None:
    if value < 1 or value % 2 == 0:
        raise OddParityError(f"{name}={value} must be odd and >= 1")


@dataclass(frozen=True)
class BoundBreakdown:
    """Individual failure-channel terms; the x terms nest cumulatively."""

    eps_x3: float
    eps_x_mzz: float
    eps_x2: float
    eps_x_mz: float
    eps_z1: float
    eps_z2: float
    e_xl: float
    e_zl: float


def _term(c: int, k: int, m: int, p_z: float) -> float:
    """One p_z term c (k p_z)^m of e_xl, c = C(r, m): the float product, or,
    where the power (k p_z)^m is no normal float while p_z > 0, the product
    in exact rationals, converted once."""
    power = (k * p_z) ** m
    return float(c * (k * Fraction(p_z)) ** m) if p_z > 0 and power < _NORMAL_MIN else c * power


def _e_xl(n: int, r_z: int, r_zz: int, p_x: float, p_z: float) -> float:
    """n(r_z + 2 r_zz + 2) p_x + C(r_zz,m_zz) (2n+2)^m_zz p_z^m_zz + C(r_z,m_z) (n+2)^m_z p_z^m_z
    with m = (r+1)/2.  The int coefficients of equal powers of p_z are added
    before the float multiply.  Where one is past the largest float (r = 501
    at n = 3), or a power p_z^m is no normal float (0, or subnormal with
    lost bits, as at r >= 205, n = 3, p_z = 1e-3), the p_z terms are taken
    one by one (:func:`_term`)."""
    m_z, m_zz = (r_z + 1) // 2, (r_zz + 1) // 2
    c_z, c_zz = math.comb(r_z, m_z), math.comb(r_zz, m_zz)
    linear = n * (r_z + 2 * r_zz + 2) * p_x
    power_z, power_zz = p_z**m_z, p_z**m_zz
    if power_z >= _NORMAL_MIN and power_zz >= _NORMAL_MIN:
        try:
            if r_z == r_zz:
                return linear + c_z * ((2 * n + 2) ** m_z + (n + 2) ** m_z) * power_z
            return linear + (c_zz * (2 * n + 2) ** m_zz * power_zz + c_z * (n + 2) ** m_z * power_z)
        except OverflowError:  # int too large to convert to float
            pass
    return linear + (_term(c_zz, 2 * n + 2, m_zz, p_z) + _term(c_z, n + 2, m_z, p_z))


def _e_zl(n: int, r_z: int, r_zz: int, p_x: float, p_z: float, p_zz: float) -> float:
    """((r_z + r_zz + 6) p_z)^n + n p_zz + n(r_z + 2 r_zz) p_x + n((r_z+3) p_z)^2."""
    return ((r_z + r_zz + 6) * p_z) ** n + n * p_zz + n * (r_z + 2 * r_zz) * p_x + n * ((r_z + 3) * p_z) ** 2


def breakdown(n: int, r_z: int, r_zz: int, noise: NoiseParams) -> BoundBreakdown:
    """Evaluate every channel term, keeping r_z and r_zz distinct.

    eps_x_mz and eps_x2 feed into eps_x_mzz, so e_xl is the polynomial
    eps_x3 + eps_x_mzz and e_zl the polynomial eps_z1 + eps_z2.  The terms
    explain the totals; each total is its polynomial evaluated once, as
    ``e_xl_bound`` / ``e_zl_bound`` evaluate it at r_z = r_zz.
    """
    _check_odd("n", n)
    _check_odd("r_z", r_z)
    _check_odd("r_zz", r_zz)
    p_x, p_z, p_zz = float(noise.p_x), float(noise.p_z), float(noise.p_zz)
    m_z = (r_z + 1) // 2
    m_zz = (r_zz + 1) // 2
    eps_x_mz = n * (r_z + 1) * p_x + _term(math.comb(r_z, m_z), n + 2, m_z, p_z)
    eps_x2 = n * (r_zz + 1) * p_x + eps_x_mz
    eps_x_mzz = _term(math.comb(r_zz, m_zz), 2 * n + 2, m_zz, p_z) + eps_x2
    return BoundBreakdown(
        eps_x3=r_zz * n * p_x,
        eps_x_mzz=eps_x_mzz,
        eps_x2=eps_x2,
        eps_x_mz=eps_x_mz,
        eps_z1=(((r_z + 3) + (r_zz + 3)) * p_z) ** n + n * (r_z + 2 * r_zz) * p_x,
        eps_z2=n * p_zz + n * ((r_z + 3) * p_z) ** 2,
        e_xl=_e_xl(n, r_z, r_zz, p_x, p_z),
        e_zl=_e_zl(n, r_z, r_zz, p_x, p_z, p_zz),
    )


def e_xl_bound(n: int, r: int, p_x: float, p_z: float) -> float:
    """n(3r+2) p_x + C(r,m) [(2(n+1))^m + (n+2)^m] p_z^m with m = (r+1)/2."""
    _check_odd("n", n)
    _check_odd("r", r)
    return _e_xl(n, r, r, float(p_x), float(p_z))


def e_zl_bound(n: int, r: int, p_x: float, p_z: float, p_zz: float) -> float:
    """(2(r+3) p_z)^n + n p_zz + 3 n r p_x + n ((r+3) p_z)^2."""
    _check_odd("n", n)
    _check_odd("r", r)
    return _e_zl(n, r, r, float(p_x), float(p_z), float(p_zz))
