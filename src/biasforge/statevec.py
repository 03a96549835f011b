"""Dense state-vector simulation of small qubit registers.

Everything downstream (fault coordinates, decoding tables, frozen test
values) depends on the conventions fixed here:

* Amplitude indexing is little-endian: bit ``p`` of a basis-state index
  holds the computational-basis value of qubit ``p``, so ``|q1 q0> = |11>``
  is amplitude index 3.
* ``apply_cz_theta`` implements ``exp(-i theta/2 * Z_i Z_j)``: basis states
  whose bits agree on the pair pick up ``exp(-i theta/2)``, states whose
  bits differ pick up ``exp(+i theta/2)``.  CPHASE = diag(1, 1, 1, -1).
* A Pauli string acts as ``i**k * (X part) * (Z part)`` where ``k`` is the
  number of qubits carrying both an X and a Z (i.e. Y = iXZ).  Global phase
  is irrelevant to every consumer (states are compared through fidelity)
  but the convention is kept fixed.
* Operations are value-like: public functions return a fresh StateVector
  and never mutate their argument, so independent simulations can share
  states freely across threads.

The register is capped at MAX_QUBITS = 22 (a 64 MiB amplitude array).
Callers that need many ancillas are expected to allocate, measure and drop
them one at a time; helpers for that live at the bottom of the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 22

_SQRT_HALF = math.sqrt(0.5)


class QubitCountError(ValueError):
    """Register size out of range, or size mismatch between states."""


class AddressingError(ValueError):
    """An operation addressed a qubit that does not exist or a repeated pair."""


class BranchError(ValueError):
    """A forced measurement outcome has (numerically) zero probability."""


@dataclass(frozen=True)
class PauliString:
    """Pauli operator as X/Z support bitmasks (bit p = qubit p)."""

    xs: int = 0
    zs: int = 0

    @classmethod
    def single(cls, qubit: int, axis: str) -> "PauliString":
        bit = 1 << qubit
        if axis == "X":
            return cls(xs=bit)
        if axis == "Z":
            return cls(zs=bit)
        if axis == "Y":
            return cls(xs=bit, zs=bit)
        raise ValueError(f"unknown Pauli axis {axis!r}")

    @classmethod
    def z_on(cls, qubits) -> "PauliString":
        mask = 0
        for q in qubits:
            mask |= 1 << q
        return cls(zs=mask)

    @classmethod
    def x_on(cls, qubits) -> "PauliString":
        mask = 0
        for q in qubits:
            mask |= 1 << q
        return cls(xs=mask)

    def compose(self, other: "PauliString") -> "PauliString":
        """Product up to global phase (supports XOR)."""
        return PauliString(self.xs ^ other.xs, self.zs ^ other.zs)

    def commutes_with(self, other: "PauliString") -> bool:
        overlap = (self.xs & other.zs).bit_count() + (self.zs & other.xs).bit_count()
        return overlap % 2 == 0

    @property
    def is_identity(self) -> bool:
        return self.xs == 0 and self.zs == 0

    @property
    def support(self) -> int:
        return self.xs | self.zs

    @property
    def weight(self) -> int:
        return (self.xs | self.zs).bit_count()

    def qubits(self) -> list[int]:
        mask, out = self.support, []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def mapped(self, position_of: dict[int, int]) -> "PauliString":
        """Relabel qubits through a {qubit: new_index} mapping."""
        xs = zs = 0
        for q in self.qubits():
            p = position_of[q]
            if (self.xs >> q) & 1:
                xs |= 1 << p
            if (self.zs >> q) & 1:
                zs |= 1 << p
        return PauliString(xs, zs)


@dataclass(frozen=True)
class MeasurementOutcome:
    value: int  # +1 or -1
    probability: float


@dataclass
class StateVector:
    num_qubits: int
    amplitudes: np.ndarray

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _check_qubit(s: StateVector, i: int) -> None:
    if not 0 <= i < s.num_qubits:
        raise AddressingError(f"qubit {i} outside register of {s.num_qubits}")


def new_plus_state(q: int) -> StateVector:
    """|+>^q: all 2^q amplitudes equal to 2^(-q/2)."""
    if not 1 <= q <= MAX_QUBITS:
        raise QubitCountError(f"qubit count {q} outside [1, {MAX_QUBITS}]")
    amps = np.full(1 << q, 2.0 ** (-q / 2), dtype=np.complex128)
    return StateVector(q, amps)


# ---------------------------------------------------------------------------
# Kernels, shared with the batched branch engine in ``gadget``.  They return
# fresh arrays; qubit p is bit p of an amplitude index.


def _cz_theta_diagonal(num_qubits: int, i: int, j: int, theta: float) -> np.ndarray:
    index = np.arange(1 << num_qubits)
    same = ((index >> i) & 1) == ((index >> j) & 1)
    return np.where(same, np.exp(-0.5j * theta), np.exp(0.5j * theta))


def _cphase_diagonal(num_qubits: int, i: int, j: int) -> np.ndarray:
    index = np.arange(1 << num_qubits)
    return np.where((index >> i) & (index >> j) & 1, -1.0 + 0j, 1.0 + 0j)


def _pauli_action(num_qubits: int, xs: int, zs: int) -> tuple[np.ndarray, np.ndarray]:
    """(source, phase) with (P a)[..., i] = phase[i] * a[..., source[i]]."""
    source = np.arange(1 << num_qubits) ^ xs
    parity = np.zeros_like(source)
    for p in range(num_qubits):
        parity ^= ((source & zs) >> p) & 1
    return source, (1j ** (xs & zs).bit_count()) * (1 - 2 * parity)


def _x_split(amps: np.ndarray, p: int) -> np.ndarray:
    """Unnormalized X-readout components of bit p for a (B, 2^q) stack:
    row b becomes rows 2b (+1) and 2b+1 (-1) of a (2B, 2^(q-1)) array,
    with qubit p removed."""
    rows = len(amps)
    v = amps.reshape(rows, -1, 2, 1 << p)
    a0, a1 = v[:, :, 0], v[:, :, 1]
    out = np.empty((rows, 2) + a0.shape[1:], dtype=np.complex128)
    np.add(a0, a1, out=out[:, 0])
    np.subtract(a0, a1, out=out[:, 1])
    out = out.reshape(2 * rows, -1)
    out *= _SQRT_HALF
    return out


# ---------------------------------------------------------------------------
# Public operations.


def apply_cz_theta(s: StateVector, i: int, j: int, theta: float) -> StateVector:
    """exp(-i theta/2 Z_i Z_j); unitary and diagonal, norm preserved."""
    _check_qubit(s, i)
    _check_qubit(s, j)
    if i == j:
        raise AddressingError("cz_theta requires two distinct qubits")
    return StateVector(s.num_qubits, s.amplitudes * _cz_theta_diagonal(s.num_qubits, i, j, theta))


def apply_cphase(s: StateVector, i: int, j: int) -> StateVector:
    """diag(1,1,1,-1) on the pair: negates amplitudes with both bits set."""
    _check_qubit(s, i)
    _check_qubit(s, j)
    if i == j:
        raise AddressingError("cphase requires two distinct qubits")
    return StateVector(s.num_qubits, s.amplitudes * _cphase_diagonal(s.num_qubits, i, j))


def apply_pauli(s: StateVector, p: PauliString) -> StateVector:
    if p.support >> s.num_qubits:
        raise AddressingError("Pauli support outside register")
    source, phase = _pauli_action(s.num_qubits, p.xs, p.zs)
    return StateVector(s.num_qubits, np.asarray(s.amplitudes)[source] * phase)


def measure_x(
    s: StateVector,
    i: int,
    forced: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[MeasurementOutcome, StateVector]:
    """Project qubit i onto (I +/- X_i)/2 and renormalize.

    With ``forced`` the named branch is taken deterministically (used to
    enumerate outcome branches); forcing a branch of probability below
    1e-12 raises BranchError.  Without ``forced`` the branch is sampled
    from ``rng`` (a fresh generator if none is given).
    """
    _check_qubit(s, i)
    plus, minus = _x_split(np.asarray(s.amplitudes).reshape(1, -1), i)
    p_plus = float(np.vdot(plus, plus).real)
    p_minus = float(np.vdot(minus, minus).real)
    if forced is not None:
        if forced not in (+1, -1):
            raise ValueError("forced outcome must be +1 or -1")
        value = forced
        prob = p_plus if forced == +1 else p_minus
        if prob <= 1e-12:
            raise BranchError(f"forced X outcome {forced} on qubit {i} has probability {prob:.3e}")
    else:
        if rng is None:
            rng = np.random.default_rng()
        value = +1 if rng.random() < p_plus else -1
        prob = p_plus if value == +1 else p_minus
    comp = plus if value == +1 else minus
    comp = comp.astype(np.complex128) / math.sqrt(prob)
    # Reassemble with qubit i in the observed |+-> eigenstate.
    v = comp.reshape(1 << (s.num_qubits - 1 - i), 1 << i)
    out = np.empty(s.amplitudes.size, dtype=np.complex128).reshape(
        1 << (s.num_qubits - 1 - i), 2, 1 << i
    )
    out[:, 0, :] = v * _SQRT_HALF
    out[:, 1, :] = v * (_SQRT_HALF * value)
    return (
        MeasurementOutcome(value=value, probability=prob),
        StateVector(s.num_qubits, out.reshape(-1)),
    )


def fidelity(s: StateVector, t: StateVector) -> float:
    """|<s|t>|^2."""
    if s.num_qubits != t.num_qubits:
        raise QubitCountError("fidelity requires equal qubit counts")
    return float(abs(np.vdot(s.amplitudes, t.amplitudes)) ** 2)


def append_plus_qubit(s: StateVector) -> StateVector:
    """Grow the register by one qubit in |+>, placed at the top position."""
    if s.num_qubits >= MAX_QUBITS:
        raise QubitCountError(f"cannot grow past {MAX_QUBITS} qubits")
    amps = np.concatenate([s.amplitudes, s.amplitudes]) * _SQRT_HALF
    return StateVector(s.num_qubits + 1, amps)
