"""Weight enumerators of the 15-qubit Reed-Muller code, and exact side masses.

``distill`` evaluates each side of a round in closed form.  This module
rebuilds the four pattern classes from ``rm15_code``'s matrices by listing
each GF(2) span (16 X-side and 1,024 Z-side patterns per class), and sums
their full 16-term enumerators in exact rational arithmetic: the oracle the
closed forms, the output rates and the acceptance are checked against.
"""

import functools
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from biasforge import distill as d


class Enumerators(NamedTuple):
    x_stab: np.ndarray  # trivial-syndrome, harmless X patterns
    x_logical: np.ndarray  # trivial-syndrome logical-X coset
    z_stab: np.ndarray
    z_logical: np.ndarray


def row_masks(rows: np.ndarray) -> list[int]:
    return [int(sum(1 << j for j in range(d.N_PHYS) if row[j])) for row in rows]


def span_weights(generator_masks: list[int], offset: int = 0) -> np.ndarray:
    """Weight histogram of {offset XOR span(generators)} over GF(2)."""
    span = [offset]
    for g in generator_masks:
        span += [v ^ g for v in span]
    return np.bincount([v.bit_count() for v in span], minlength=d.N_PHYS + 1)


@functools.cache
def enumerators() -> Enumerators:
    """The weight histograms of the four classes of rm15_code."""
    code = d.rm15_code()
    x_gen = row_masks(code.x_checks)
    z_gen = row_masks(code.z_checks)
    lx, lz = row_masks(np.array([code.logical_x, code.logical_z]))
    return Enumerators(
        x_stab=span_weights(x_gen),
        x_logical=span_weights(x_gen, offset=lx),
        z_stab=span_weights(z_gen),
        z_logical=span_weights(z_gen, offset=lz),
    )


def side_masses(e: float, stab, logical) -> tuple[Fraction, Fraction]:
    """(logical mass, accepted mass) of one side, each its full sum over
    weights 0..15 of count * e^w (1 - e)^(15 - w), exactly."""
    m, den = e.as_integer_ratio()
    terms = [m**w * (den - m) ** (15 - w) for w in range(16)]
    logical_t = sum(int(c) * x for c, x in zip(logical, terms))
    accepted_t = logical_t + sum(int(c) * x for c, x in zip(stab, terms))
    return Fraction(logical_t, den**15), Fraction(accepted_t, den**15)


def exact_side(e: float, stab, logical) -> tuple[Fraction, Fraction]:
    """(logical rate given acceptance, acceptance probability) of one side, exactly."""
    logical_mass, accepted_mass = side_masses(e, stab, logical)
    return logical_mass / accepted_mass, accepted_mass
