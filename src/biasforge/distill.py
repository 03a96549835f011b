"""Exact 15-qubit Reed-Muller error-detection distillation and planning.

Model: Clifford operations inside the distillation round are ideal and
free; the only noise is the independent X / Z channel on the 15 input
copies.  A round post-selects on a trivial syndrome:

* X-error patterns are checked against the 10 Z-type stabilizer
  generators; accepted patterns with trivial syndrome either lie in the
  X-stabilizer group (harmless) or in the logical-X coset (undetected
  logical X flip).
* Z-error patterns are checked against the 4 X-type generators likewise.

Both sides reduce to the weight enumerators of their stabilizer group
and logical coset: a weight-w pattern has probability e^w (1 - e)^(15 - w).
A double rate is e = m / 2^k exactly (``float.as_integer_ratio``), so with
b = 2^k - m each side's accepted and logical masses are Python ints over a
power of two, computed exactly.  The X side's two 16-pattern classes give
a four-term enumerator in closed form.  The Z side's 2,048 accepted
patterns are the dual of the 16-word span(x_checks), so the MacWilliams
identity gives their enumerator in two terms, and its logical coset (the
odd weights) from the same identity at -m.  Each output rate is one int
true division, logical mass over accepted mass, which CPython rounds
correctly (to nearest, ties to even, subnormals included): every output is
the exact rate correctly rounded to a double, and the tests check it bit
for bit against exact rational arithmetic.  Concatenated rates below about
1e-308 are subnormal and lose precision, and values below about 5e-324
round to 0.0, which the planner never reaches for practical targets.  The
ints grow with k, so ``rm15_map`` does not build a side whose rate must
round to 0.0 (e_x < 2^-156, e_z < 2^-363); ``rm15_acceptance`` always
builds both.

The check matrices are the punctured Reed-Muller construction: X-check
row i marks the columns (1..15) whose bit i is set; the 10 Z-check rows
are those 4 rows plus their 6 pairwise AND products.  ``rm15_code``
builds them anew on each call, so no caller can change another's.  The
map does not read them: its closed forms encode the weights of
span(x_checks) (0 and 8), and the tests rebuild all four enumerators from
these matrices and check the closed forms against them.

Overheads count non-Clifford gates only: the n=3 gadget feeding l rounds
costs 4 * 15^l per output state, bare preparation feeding l' rounds costs
15^l'.  The planner's baseline is an unencoded (n=1) gadget preparation
with the same noise parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds as bd
from .noise import NoiseParams

N_PHYS = 15
MAX_LAYERS = 6


class ChannelRangeError(ValueError):
    """Channel rates must lie in [0, 1/2)."""


class SaturationError(RuntimeError):
    """Concatenation produced a channel outside [0, 1/2)."""

    def __init__(self, message: str, layer: int):
        super().__init__(message)
        self.layer = layer


class FeasibilityError(RuntimeError):
    """No layer count within the cap reaches the target."""


@dataclass(frozen=True)
class Channel:
    """Independent per-copy marginal rates; Y occurs as the e_x * e_z joint."""

    e_x: float
    e_z: float

    def __post_init__(self):
        for name, v in (("e_x", self.e_x), ("e_z", self.e_z)):
            if not 0.0 <= v < 0.5:
                raise ChannelRangeError(f"{name}={v} outside [0, 0.5)")


@dataclass(frozen=True, eq=False)
class CssCode:
    """Check and logical matrices on N_PHYS qubits; arrays, so compared by identity."""

    x_checks: np.ndarray  # (4, 15) uint8
    z_checks: np.ndarray  # (10, 15) uint8
    logical_x: np.ndarray  # (15,) uint8
    logical_z: np.ndarray  # (15,) uint8


@dataclass(frozen=True)
class DistillPlan:
    use_gadget: bool
    n: int
    r: int
    layers: int
    achieved: Channel
    overhead: int


def rm15_code() -> CssCode:
    """The punctured [[15,1,3]] Reed-Muller code, built anew on each call."""
    cols = np.arange(1, 16, dtype=np.uint8)
    x_checks = np.array([(cols >> i) & 1 for i in range(4)], dtype=np.uint8)
    products = [x_checks[i] & x_checks[j] for i in range(4) for j in range(i + 1, 4)]
    logical_z = np.zeros(N_PHYS, dtype=np.uint8)
    logical_z[:3] = 1  # columns 1,2,3 form a closed line: weight-3 representative
    return CssCode(
        x_checks=x_checks,
        z_checks=np.concatenate([x_checks, np.array(products, dtype=np.uint8)]),
        logical_x=np.ones(N_PHYS, dtype=np.uint8),
        logical_z=logical_z,
    )


# ---------------------------------------------------------------------------
# Exact side masses.  A side at rate e = m / 2^k gives (logical, accepted,
# shift): its logical-flip and accepted masses are the ints over 2^shift.


def _x_side(e: float) -> tuple[int, int, int]:
    """The X side's masses at rate ``e``.  Its stabilizer group has weights
    0 and 8 (1 and 15 patterns) and its logical coset, the complement,
    weights 15 and 7.  With b = 2^k - m the accepted enumerator is
    b^15 + 15 m^7 b^8 + 15 m^8 b^7 + m^15, over 2^(15k), and the logical
    coset is its odd part 15 m^7 b^8 + m^15."""
    m, d = e.as_integer_ratio()
    b = d - m
    m7, b7 = m**7, b**7
    m8, b8 = m7 * m, b7 * b
    logical = m7 * (15 * b8 + m8)
    return logical, logical + b7 * (b8 + 15 * m8), 15 * (d.bit_length() - 1)


def _z_side(e: float) -> tuple[int, int, int]:
    """The Z side's masses at rate ``e``, by MacWilliams from the 16-word
    dual span(x_checks) (weights 0 and 8).  With d = 2^k and g = d - 2m the
    accepted enumerator is 16 A(b, m) = d^15 + 15 d^7 g^8 over 2^(15k + 4).
    Its logical coset holds the odd weights, so it is half the difference
    of that and 16 A(b, -m) = g^15 + 15 g^7 d^8.  Every power of d is a
    shift."""
    m, d = e.as_integer_ratio()
    k = d.bit_length() - 1
    g = d - 2 * m
    g7 = g**7
    g8 = g7 * g
    accepted = (1 << 15 * k) + (15 * g8 << 7 * k)
    return (accepted - g7 * g8 - (15 * g7 << 8 * k)) >> 1, accepted, 15 * k + 4


def rm15_map(channel: Channel) -> Channel:
    """One error-detection round: the output rates given a trivial syndrome,
    each the correctly rounded quotient of its side's logical and accepted
    masses.  Raises ChannelRangeError if an output reaches 1/2.

    A side's rate is 0.0 without building its ints when e_x < 2^-156 or
    e_z < 2^-363.  With r = e / (1 - e) < 1, the accepted mass is at least
    the empty pattern's (1 - e)^15, and the logical coset has 16 patterns of
    weight >= 7 (X) or 1,024 of weight >= 3 (Z), so the rate is below
    16 r^7 or 1024 r^3: below 2^-1075 under the cut, which rounds to 0.0."""
    x_logical, x_accepted, _ = _x_side(channel.e_x) if channel.e_x >= 2.0**-156 else (0, 1, 0)
    z_logical, z_accepted, _ = _z_side(channel.e_z) if channel.e_z >= 2.0**-363 else (0, 1, 0)
    return Channel(e_x=x_logical / x_accepted, e_z=z_logical / z_accepted)


def rm15_acceptance(channel: Channel) -> float:
    """The probability that a round sees a trivial syndrome: the product of
    the independent X- and Z-side accepted masses, correctly rounded."""
    _, x_accepted, x_shift = _x_side(channel.e_x)
    _, z_accepted, z_shift = _z_side(channel.e_z)
    return x_accepted * z_accepted / (1 << x_shift + z_shift)


def concatenate(start: Channel, layers: int) -> Channel:
    """Iterate rm15_map ``layers`` times; layers = 0 is the identity."""
    if layers < 0:
        raise ValueError("layers must be >= 0")
    ch = start
    for layer in range(layers):
        try:
            ch = rm15_map(ch)
        except ChannelRangeError as exc:
            raise SaturationError(f"channel left [0, 1/2) at layer {layer + 1}: {exc}", layer + 1)
    return ch


def overhead(use_gadget: bool, layers: int) -> int:
    """Average non-Clifford gate count: 4 * 15^l with the gadget, else 15^l."""
    if layers < 0:
        raise ValueError("layers must be >= 0")
    base = 15**layers
    return 4 * base if use_gadget else base


def _min_layers(start: Channel, target: float, cap: int = MAX_LAYERS) -> tuple[int, Channel]:
    """Fewest layers, at most ``cap``, that bring ``start`` to ``target``."""
    ch = start
    for layers in range(cap + 1):
        if max(ch.e_x, ch.e_z) <= target:
            return layers, ch
        if layers < cap:
            ch = rm15_map(ch)
    raise FeasibilityError(
        f"target {target} not reached within {cap} layers (best {max(ch.e_x, ch.e_z):.3e})"
    )


def gadget_channel(n: int, r: int, params: NoiseParams) -> Channel:
    """Bound-level output channel of the n-qubit gadget."""
    return Channel(
        e_x=bd.e_xl_bound(n, r, params.p_x, params.p_z),
        e_z=bd.e_zl_bound(n, r, params.p_x, params.p_z, params.p_zz),
    )


def plan(target: float, p_z: float, eta: float, p_zz: float | None = None) -> tuple[DistillPlan, DistillPlan]:
    """Cheapest (r, layers) for the n=3 gadget vs the unencoded baseline at
    NoiseParams.from_bias(p_z, eta, p_zz) (see :func:`_plan`)."""
    return _plan(target, NoiseParams.from_bias(p_z, eta, p_zz))


def _plan(target: float, params: NoiseParams) -> tuple[DistillPlan, DistillPlan]:
    """:func:`plan` at the noise ``params`` itself.  The gadget searches
    r in {1, 3} (n is fixed to 3, the paper's choice) for the
    minimal layer count, tie-broken toward smaller r, so r=3 is searched
    only below r=1's count (up to MAX_LAYERS if r=1 fails).  The baseline
    is the n=1 preparation: no repetition encoding, r = 1, unit
    non-Clifford cost, channel given by the same bound formulas at n=1.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must be in (0, 1), got {target}")
    best = None  # (layers, achieved, r)
    for r in (1, 3):
        cap = MAX_LAYERS if best is None else best[0] - 1
        try:
            best = (*_min_layers(gadget_channel(3, r, params), target, cap), r)
        except FeasibilityError as exc:
            failure = exc
        except ChannelRangeError as exc:
            failure = FeasibilityError(str(exc))
    if best is None:
        raise failure
    layers, achieved, r = best
    gadget_plan = DistillPlan(
        use_gadget=True,
        n=3,
        r=r,
        layers=layers,
        achieved=achieved,
        overhead=overhead(True, layers),
    )

    try:
        layers, achieved = _min_layers(gadget_channel(1, 1, params), target)
    except ChannelRangeError as exc:
        raise FeasibilityError(f"baseline channel out of range: {exc}")
    baseline_plan = DistillPlan(
        use_gadget=False,
        n=1,
        r=1,
        layers=layers,
        achieved=achieved,
        overhead=overhead(False, layers),
    )
    return gadget_plan, baseline_plan


def savings_factor(gadget_plan: DistillPlan, baseline_plan: DistillPlan) -> float:
    return baseline_plan.overhead / gadget_plan.overhead
