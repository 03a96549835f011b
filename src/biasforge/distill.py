"""Exact 15-qubit Reed-Muller error-detection distillation and planning.

Model: Clifford operations inside the distillation round are ideal and
free; the only noise is the independent X / Z channel on the 15 input
copies.  A round post-selects on a trivial syndrome:

* X-error patterns are checked against the 10 Z-type stabilizer
  generators; accepted patterns with trivial syndrome either lie in the
  X-stabilizer group (harmless) or in the logical-X coset (undetected
  logical X flip).
* Z-error patterns are checked against the 4 X-type generators likewise.

Both sides reduce to weight-enumerator polynomials of the four pattern
classes, computed once by listing each GF(2) span (16 X-side and 1,024
Z-side patterns per class).  With
t = e / (1 - e) a weight-w pattern has probability (1 - e)^15 t^w, so a
side with stabilizer enumerator S and logical-coset enumerator L accepts
with probability (1 - e)^15 (S(t) + L(t)) and flips the logical with
probability L(t) / (S(t) + L(t)) given acceptance.  S has even weights and
L odd ones, so each is t^s P(t^2) with s its parity, and P is evaluated by
Horner's rule in t^2 (half the steps of a rule in t) in the standard
library's ``decimal`` at 34 significant digits (IEEE decimal128, two
machine words a value) with an effectively unbounded exponent range, so
concatenated output rates far below double-precision underflow stay
meaningful.  Each input rate is first rounded to 34 digits (a relative
change of at most 5e-34).  Every term of a side is positive, so nothing
cancels: the roughly 60 roundings of a side leave a relative error of
about 1e-31, against the 1.1e-16 half-ulp of a double.  Outputs are
returned as floats, correctly rounded unless the exact value lies within
that 1e-31 of a rounding midpoint; the tests check them bit for bit
against exact rational arithmetic.  Values below about 1e-308 are
subnormal and lose precision, and values below about 5e-324 underflow to
0.0, which the planner never reaches for practical targets.

The check matrices are the punctured Reed-Muller construction: X-check
row i marks the columns (1..15) whose bit i is set; the 10 Z-check rows
are those 4 rows plus their 6 pairwise AND products.  ``rm15_code``
generates them on first use; the generator is the code's only
description.

Overheads count non-Clifford gates only: the n=3 gadget feeding l rounds
costs 4 * 15^l per output state, bare preparation feeding l' rounds costs
15^l'.  The planner's baseline is an unencoded (n=1) gadget preparation
with the same noise parameters.
"""

from __future__ import annotations

import decimal
import functools
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from . import bounds as bd
from .noise import NoiseParams

N_PHYS = 15
MAX_LAYERS = 6
_CTX = decimal.Context(prec=34, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)
_Split = tuple[int, tuple[Decimal, ...]]  # (s, P): the polynomial t^s P(t^2)


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


_rm15: CssCode | None = None


def rm15_code() -> CssCode:
    """The punctured [[15,1,3]] Reed-Muller code, generated once."""
    global _rm15
    if _rm15 is None:
        cols = np.arange(1, 16, dtype=np.uint8)
        x_checks = np.array([(cols >> i) & 1 for i in range(4)], dtype=np.uint8)
        products = [x_checks[i] & x_checks[j] for i in range(4) for j in range(i + 1, 4)]
        logical_z = np.zeros(N_PHYS, dtype=np.uint8)
        logical_z[:3] = 1  # columns 1,2,3 form a closed line: weight-3 representative
        _rm15 = CssCode(
            x_checks=x_checks,
            z_checks=np.concatenate([x_checks, np.array(products, dtype=np.uint8)]),
            logical_x=np.ones(N_PHYS, dtype=np.uint8),
            logical_z=logical_z,
        )
    return _rm15


# ---------------------------------------------------------------------------
# Weight enumerators of the four relevant pattern classes.


def _row_masks(rows: np.ndarray) -> list[int]:
    return [int(sum(1 << j for j in range(N_PHYS) if row[j])) for row in rows]


def _span_weights(generator_masks: list[int], offset: int = 0) -> np.ndarray:
    """Weight histogram of {offset XOR span(generators)} over GF(2)."""
    span = [offset]
    for g in generator_masks:
        span += [v ^ g for v in span]
    return np.bincount([v.bit_count() for v in span], minlength=N_PHYS + 1)


@dataclass(frozen=True)
class _Enumerators:
    x_stab: np.ndarray  # trivial-syndrome, harmless X patterns
    x_logical: np.ndarray  # trivial-syndrome logical-X coset
    z_stab: np.ndarray
    z_logical: np.ndarray
    # per side, S and L split by weight parity
    x_horner: tuple[_Split, _Split]
    z_horner: tuple[_Split, _Split]


def _horner(counts: np.ndarray) -> _Split:
    """sum_w counts[w] t^w as t^s P(t^2), P highest power first; raises
    ValueError unless all weights in counts have the parity s."""
    s = int(np.flatnonzero(counts)[0]) % 2
    if counts[1 - s :: 2].any():
        raise ValueError(f"weight enumerator {counts.tolist()} mixes even and odd weights")
    return s, tuple(Decimal(int(c)) for c in np.trim_zeros(counts[s::2], "b")[::-1])


@functools.cache
def _enumerators() -> _Enumerators:
    """The enumerators of rm15_code, built on the first rm15_map call."""
    code = rm15_code()
    x_gen = _row_masks(code.x_checks)
    z_gen = _row_masks(code.z_checks)
    lx, lz = _row_masks(np.array([code.logical_x, code.logical_z]))
    x_stab, x_logical = _span_weights(x_gen), _span_weights(x_gen, offset=lx)
    z_stab, z_logical = _span_weights(z_gen), _span_weights(z_gen, offset=lz)
    return _Enumerators(
        x_stab=x_stab,
        x_logical=x_logical,
        z_stab=z_stab,
        z_logical=z_logical,
        x_horner=(_horner(x_stab), _horner(x_logical)),
        z_horner=(_horner(z_stab), _horner(z_logical)),
    )


def _polyval(split: _Split, t: Decimal, u: Decimal) -> Decimal:
    """t^s P(u) at u = t^2 by Horner's rule in u.  A zero coefficient costs
    only its multiply by u: adding an exact zero would round nothing."""
    s, coeffs = split
    total = coeffs[0]
    for c in coeffs[1:]:
        total *= u
        if c:
            total += c
    return total * t if s else total


def _side(e: float, horner: tuple[_Split, _Split]) -> tuple[Decimal, Decimal]:
    """(logical rate given acceptance, acceptance probability) of one side."""
    e = decimal.getcontext().create_decimal_from_float(e)
    keep = 1 - e
    t = e / keep
    u = t * t
    logical = _polyval(horner[1], t, u)
    accepted = _polyval(horner[0], t, u) + logical
    return logical / accepted, keep**N_PHYS * accepted


def rm15_map(channel: Channel) -> tuple[Channel, float]:
    """One error-detection round: post-select trivial syndrome, exact rates.

    Returns the accepted-output channel and the acceptance probability
    (product of the independent X-side and Z-side acceptance factors).
    """
    en = _enumerators()
    with decimal.localcontext(_CTX):
        out_x, acc_x = _side(channel.e_x, en.x_horner)
        out_z, acc_z = _side(channel.e_z, en.z_horner)
        p_accept = acc_x * acc_z
    return Channel(e_x=float(out_x), e_z=float(out_z)), float(p_accept)


def concatenate(start: Channel, layers: int) -> Channel:
    """Iterate rm15_map ``layers`` times; layers = 0 is the identity."""
    if layers < 0:
        raise ValueError("layers must be >= 0")
    ch = start
    for layer in range(layers):
        try:
            ch, _ = rm15_map(ch)
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
            ch, _ = rm15_map(ch)
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
