"""Magic-state preparation on the phase-flip repetition code.

The gadget prepares a logical phase state (|0>_L + e^{i theta}|1>_L)/sqrt(2)
on an n-qubit repetition code (stabilizers X_j X_{j+1}, X_L = X_1,
Z_L = Z^n).  theta = pi/2 gives |+i>_L, theta = pi/4 gives |T>_L.

Circuit structure, in location order (qubit ids in parentheses):

1. PrepX on block 1 (0..n-1) and block 2 (n..2n-1).
2. n CZ(theta) gates pairing block-1 qubit i with block-2 qubit i.
3. r_z rounds of an ancilla-mediated Z-parity measurement of block 1
   (PrepX ancilla, CPHASE ancilla<->each block-1 qubit, MeasX ancilla).
4. MeasX on every block-1 qubit.
5. PrepX on block 3 (2n..3n-1).
6. r_zz rounds of the joint Z-parity measurement of blocks 2 and 3
   (PrepX ancilla, CPHASE to block-2 qubits 0..n-1 then block-3 qubits
   0..n-1, MeasX ancilla).
7. MeasX on every block-2 qubit.

Each parity round gets a fresh ancilla id (3n, 3n+1, ...).  Location count
is 2n + n + r_z(n+2) + n + n + r_zz(2n+2) + n.

Decoding: the r_z (r_zz) ancilla readings are majority-voted into the
block-1 parity and the joint parity bit b; the block-1 and block-2 X
records must be perfectly correlated or perfectly anticorrelated; the
required Pauli correction on block 3 is read from a table keyed on
(parity bit, b, number of +1 block-2 outcomes).  The table is derived
numerically, once per (n, theta), by enumerating every noiseless branch
and finding the logical Pauli that maps its output to the target state;
record keys whose branches admit no such Pauli (e.g. |alpha| in {0, n}
for theta = pi/4) are rejected, which reproduces the
n - |alpha| = |alpha| +/- 1 acceptance rule.

A fault is a (location index, PauliString-on-global-ids) pair, applied
after its location executes, or before readout at a MeasX location, on
qubits live there.  It reaches the branch functions only as the frame
code (below) that :func:`fault_frame` makes of a fault list: the XOR of
the codes of its single-qubit Z and X parts, read from one table per
config (:func:`_frame_table`) that a backward pass over the locations
builds.  A location outside the circuit, a qubit not live at its
location and an X part that would reach a CZ(theta) are refused, in that
order.

Execution: state vectors run only the noiseless circuit, once per config,
with every live measurement branch a row of one amplitude stack
(:func:`_stack_ops`, :func:`_noiseless_table`).  Faults run none.  Every
location a fault event meets after it fires is Clifford: Z parts commute
with the diagonal gates, and the X events the noise model emits fire after
a qubit's only CZ(theta).  So a fault is a Pauli frame of readout flips
and a block-3 Pauli (:func:`fault_frame`), and a faulted branch is a
noiseless row read through its frame; no branch's state is formed.
:func:`enumerate_branches` lists a frame's branches, whose rows and
probabilities depend only on the readout flips, and Monte Carlo and
enumeration alike classify (row, frame code) pairs with :func:`frame_bins`:
a row's readouts are one packed word, the code's readout flips are XORed
into it, and the decode reads the word's bit fields.  A branch's class is
then one lookup at its row's state and the Pauli its correction and frame
leave on block 3.  The decoder build (:func:`_decoder`) makes the words,
the correction lookup and the class table once per config.
"""

from __future__ import annotations

import enum
import functools
import math
import types
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import statevec as sv
from .statevec import PauliString

SIM_MAX_N = 7  # largest simulated n: the live register peaks at 2n+1 qubits
FRAME_BITS = 63  # a frame code (M readout flips, then a 2n-bit block-3 Pauli) is one int64


class ConfigError(ValueError):
    """Invalid gadget configuration."""


class FrameError(ValueError):
    """A fault's X part would reach a non-Clifford CZ(theta) gate, so it has
    no Pauli frame and no engine runs it."""


class LocationKind(enum.Enum):
    PREP_X = "prep_x"
    MEAS_X = "meas_x"
    CZ_THETA = "cz_theta"
    CPHASE = "cphase"


class LogicalClass(enum.Enum):
    I = "I"
    XL = "XL"
    ZL = "ZL"
    YL = "YL"


@dataclass(frozen=True)
class GadgetConfig:
    n: int
    theta: float
    r_z: int
    r_zz: int

    def __post_init__(self):
        import operator

        for name in ("n", "r_z", "r_zz"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ConfigError(f"{name}={value!r} must be an integer") from None
        if self.n < 1 or self.n % 2 == 0:
            raise ConfigError(f"code length n={self.n} must be odd and >= 1")
        if not math.isfinite(self.theta):
            raise ConfigError(f"theta={self.theta!r} must be finite")
        if self.n > SIM_MAX_N:
            raise ConfigError(f"code length n={self.n} exceeds SIM_MAX_N={SIM_MAX_N} (the simulator holds 2n+1 qubits)")
        for name, r in (("r_z", self.r_z), ("r_zz", self.r_zz)):
            if r < 1 or r % 2 == 0:
                raise ConfigError(f"{name}={r} must be odd and >= 1 (majority votes need odd counts)")
        if self.num_measurements + 2 * self.n > FRAME_BITS:
            raise ConfigError(
                f"r_z + r_zz + 4n = {self.num_measurements + 2 * self.n} exceeds FRAME_BITS={FRAME_BITS} "
                "(a Pauli frame holds M readout flips and a 2n-bit block-3 Pauli in one int64)"
            )

    @classmethod
    def plus_i(cls, n: int, r: int = 1, r_zz: int | None = None) -> "GadgetConfig":
        return cls.custom(n, math.pi / 2, r, r_zz)

    @classmethod
    def t_state(cls, n: int, r: int = 1, r_zz: int | None = None) -> "GadgetConfig":
        return cls.custom(n, math.pi / 4, r, r_zz)

    @classmethod
    def custom(cls, n: int, theta: float, r: int = 1, r_zz: int | None = None) -> "GadgetConfig":
        return cls(n=n, theta=theta, r_z=r, r_zz=r if r_zz is None else r_zz)

    @property
    def num_measurements(self) -> int:
        return self.r_z + self.r_zz + 2 * self.n


@dataclass(frozen=True)
class Location:
    kind: LocationKind
    qubits: tuple[int, ...]

    def __post_init__(self):
        want = 2 if self.kind in (LocationKind.CZ_THETA, LocationKind.CPHASE) else 1
        if len(self.qubits) != want or len(set(self.qubits)) != len(self.qubits):
            raise ConfigError(f"{self.kind.value} location needs {want} distinct qubit(s)")


@dataclass(frozen=True)
class Circuit:
    n: int
    r_z: int
    r_zz: int
    locations: tuple[Location, ...]

    @property
    def num_locations(self) -> int:
        return len(self.locations)


def block1_qubits(n: int) -> range:
    return range(0, n)


def block2_qubits(n: int) -> range:
    return range(n, 2 * n)


def block3_qubits(n: int) -> range:
    return range(2 * n, 3 * n)


@functools.lru_cache(maxsize=64)
def build_circuit(cfg: GadgetConfig) -> Circuit:
    n, r_z, r_zz = cfg.n, cfg.r_z, cfg.r_zz
    locs: list[Location] = []

    def add(kind, qubits):
        locs.append(Location(kind=kind, qubits=tuple(qubits)))

    for q in block1_qubits(n):
        add(LocationKind.PREP_X, (q,))
    for q in block2_qubits(n):
        add(LocationKind.PREP_X, (q,))
    for i in range(n):
        add(LocationKind.CZ_THETA, (i, n + i))

    for anc in range(3 * n, 3 * n + r_z):
        add(LocationKind.PREP_X, (anc,))
        for q in block1_qubits(n):
            add(LocationKind.CPHASE, (q, anc))
        add(LocationKind.MEAS_X, (anc,))

    for q in block1_qubits(n):
        add(LocationKind.MEAS_X, (q,))
    for q in block3_qubits(n):
        add(LocationKind.PREP_X, (q,))

    for anc in range(3 * n + r_z, 3 * n + r_z + r_zz):
        add(LocationKind.PREP_X, (anc,))
        for q in block2_qubits(n):
            add(LocationKind.CPHASE, (q, anc))
        for q in block3_qubits(n):
            add(LocationKind.CPHASE, (q, anc))
        add(LocationKind.MEAS_X, (anc,))

    for q in block2_qubits(n):
        add(LocationKind.MEAS_X, (q,))

    expected = 2 * n + n + r_z * (n + 2) + n + n + r_zz * (2 * n + 2) + n
    assert len(locs) == expected, (len(locs), expected)
    return Circuit(n=n, r_z=r_z, r_zz=r_zz, locations=tuple(locs))


# ---------------------------------------------------------------------------
# Execution engine: the stacked branches run the noiseless circuit together
# (see the module docstring).


def _stack_ops(cfg: GadgetConfig) -> list[np.ndarray | int]:
    """The noiseless circuit of ``cfg`` as operations on a (B, 2^q) stack.

    A readout is the int bit position of its qubit.  A run of PrepX and
    gate locations before a readout, k PrepX among them, is one (2^k, 2^q)
    array f: the stack becomes (amps[:, None, :] * f).reshape(B, -1), the
    new qubits taking the top bits in |+>.
    """
    order: list[int] = []  # qubit id by bit position
    ops: list[np.ndarray | int] = []
    grow, diagonals = 0, []
    for loc in build_circuit(cfg).locations:
        if loc.kind is LocationKind.PREP_X:
            order.append(loc.qubits[0])
            grow += 1
        elif loc.kind is LocationKind.CZ_THETA:
            diagonals.append(sv.cz_theta_diagonal(len(order), *map(order.index, loc.qubits), cfg.theta))
        elif loc.kind is LocationKind.CPHASE:
            diagonals.append(sv.cphase_diagonal(len(order), *map(order.index, loc.qubits)))
        else:
            if grow or diagonals:
                f = np.full(1 << len(order), sv._SQRT_HALF**grow, dtype=np.complex128)
                for diagonal in diagonals:
                    f *= np.tile(diagonal, len(f) // len(diagonal))
                ops.append(f.reshape(1 << grow, -1))
                grow, diagonals = 0, []
            ops.append(order.index(loc.qubits[0]))
            order.remove(loc.qubits[0])
    if grow or diagonals or order != list(block3_qubits(cfg.n)):
        raise AssertionError(f"circuit does not end on block 3 after a readout: register {order}")
    return ops


@dataclass(frozen=True, eq=False)
class Branches:
    """Measurement branches stacked as rows: all branches of one execution
    in depth-first (+1 outcome first) order, or one row per sampled run.
    A branch is its record, its probability, the noiseless table row it is
    read from and its block-3 frame Pauli; its block-3 state is that row's
    state under the Pauli, which no engine forms."""

    records: np.ndarray  # (B, num_measurements) int8 entries +1 / -1
    probabilities: np.ndarray  # (B,)
    rows: np.ndarray  # (B,) the noiseless table row each branch is read from
    paulis: np.ndarray  # (B,) block-3 frame Pauli, X mask << n | Z mask

    @functools.cached_property
    def _keys(self) -> np.ndarray:
        """(B,) read-only sort keys: each row's -1 readouts packed into one
        integer, readout 0 the most significant bit, so depth-first order
        is ascending key order."""
        num = self.records.shape[1]
        keys = (self.records < 0) @ (1 << np.arange(num - 1, -1, -1))
        keys.flags.writeable = False
        return keys

    def __len__(self) -> int:
        return len(self.probabilities)


_BRANCH_EPS = 1e-12  # outcome probabilities below this are treated as zero
_MAX_AMPS = 1 << 20  # a larger stack advances in chunks of at most this many amplitudes (or one row)


def _measure(amps, bits, probs, position, m):
    """Split every row on an X readout of bit ``position`` into children 2b
    (+1) and 2b+1 (-1), so rows stay in depth-first (+1 first) order, and
    keep those of conditional probability above _BRANCH_EPS.  Rows stay
    unnormalized: a row's squared norm is the probability of its record so
    far, kept in ``probs``."""
    children = sv.x_split(amps, position)
    parts = children.view(np.float64)
    mass = np.einsum("ij,ij->i", parts, parts)
    kept = np.flatnonzero(mass / probs.repeat(2) > _BRANCH_EPS)
    bits = bits[kept >> 1]
    bits[:, m] = kept & 1
    return children[kept], bits, mass[kept]


def _advance(ops, i, m, amps, bits, probs):
    """Run stack operations i.. (see :func:`_stack_ops`) on a stack whose
    rows have outcome bits (0 for +1) and probabilities for the first m
    readouts; return the final (amps, bits, probs).  A stack over
    _MAX_AMPS amplitudes runs on in consecutive chunks of
    max(1, _MAX_AMPS // width) rows, one at a time, which bounds memory;
    no operation mixes rows, so the chunks concatenate to the whole."""
    while i < len(ops):
        if len(amps) > 1 and amps.size > _MAX_AMPS:
            step = max(1, _MAX_AMPS // amps.shape[1])
            chunks = [slice(a, a + step) for a in range(0, len(amps), step)]
            parts = [_advance(ops, i, m, amps[c], bits[c], probs[c]) for c in chunks]
            return tuple(np.concatenate(arrays) for arrays in zip(*parts))
        op = ops[i]
        if isinstance(op, int):
            amps, bits, probs = _measure(amps, bits, probs, op, m)
            m += 1
        else:
            amps = (amps[:, None, :] * op).reshape(len(amps), -1)
        i += 1
    return amps, bits, probs


@functools.lru_cache(maxsize=64)
def _noiseless_table(cfg: GadgetConfig) -> tuple[Branches, np.ndarray]:
    """(branches, states), read-only: the branches of the noiseless circuit
    on the state-vector path, which every faulted enumeration, sampled run
    and table built from the noiseless circuit reads, and their (B, 2^n)
    normalised block-3 states in canonical qubit order, which only the
    decoder build (:func:`_decoder`) reads."""
    start = np.ones((1, 1), dtype=np.complex128), np.zeros((1, cfg.num_measurements), dtype=np.int8), np.ones(1)
    amps, bits, probs = _advance(_stack_ops(cfg), 0, 0, *start)
    records, states = 1 - 2 * bits, amps / np.sqrt(probs)[:, None]
    rows, paulis = np.arange(len(probs)), np.zeros(len(probs), dtype=np.intp)
    for array in (records, probs, rows, paulis, states):
        array.flags.writeable = False
    return Branches(records, probs, rows, paulis), states


@functools.lru_cache(maxsize=64)
def _frame_table(cfg: GadgetConfig) -> tuple[types.MappingProxyType, ...]:
    """One read-only row per location of ``build_circuit(cfg)``: each qubit
    live there maps to the frame codes (:func:`fault_frame`) of a Z and of
    an X injected there, after the location executes or before readout at
    a MeasX.  The X code is None where that X would reach a CZ(theta).

    One backward pass builds it.  After the last location a Z (X) on the
    j-th block-3 qubit is bit M + j (M + n + j).  Stepping back through a
    MeasX sets its qubit's Z code to its readout bit and its X code to 0,
    a CPHASE XORs each qubit's Z code into its partner's X code (X on one
    qubit leaves it as X on it and Z on the other), and a CZ(theta) makes
    its qubits' X codes None.
    """
    n, m, table = cfg.n, cfg.num_measurements, []  # m: the readouts before the walk's place
    z = {q: 1 << m + j for j, q in enumerate(block3_qubits(n))}
    x = {q: 1 << m + n + j for j, q in enumerate(block3_qubits(n))}
    for loc in reversed(build_circuit(cfg).locations):
        kind, qubits = loc.kind, loc.qubits
        if kind is LocationKind.MEAS_X:
            m -= 1
            z[qubits[0]], x[qubits[0]] = 1 << m, 0
        table.append(types.MappingProxyType({q: (z[q], x[q]) for q in z}))
        if kind is LocationKind.PREP_X:
            del z[qubits[0]], x[qubits[0]]
        elif kind is LocationKind.CZ_THETA:
            x.update(dict.fromkeys(qubits))
        elif kind is LocationKind.CPHASE:  # all CPHASEs follow every CZ(theta): no X code here is None
            a, b = qubits
            x[a], x[b] = x[a] ^ z[b], x[b] ^ z[a]
    return tuple(reversed(table))


def fault_frame(cfg: GadgetConfig, faults) -> int:
    """The frame code of a list of (location index, PauliString) faults on
    ``build_circuit(cfg)``: bit m < M flips readout m, and code >> M is the
    block-3 Pauli, X mask << n | Z mask.

    A fault is pushed through every later location (a MeasX fault fires
    before its own readout): a CPHASE turns X on one qubit into X on it and
    Z on the other, a MeasX flips its readout when its qubit carries Z and
    then drops the qubit.  What is left sits on block 3, in its local qubit
    order.  Every step is linear, so a fault's code is the XOR of the codes
    of its single-qubit Z and X parts, read from :func:`_frame_table`, and
    the frame of a union of fault lists is the XOR of theirs.  Faults are
    checked in list order: a location outside [0, L) raises ValueError, a
    fault touching any qubit not live at its location KeyError, and then
    one whose X part would reach a CZ(theta) FrameError.
    """
    table, code = _frame_table(cfg), 0
    for location, pauli in faults:
        if not 0 <= location < len(table):
            raise ValueError(f"fault location {location} is outside the circuit's locations 0..{len(table) - 1}")
        live, qubits = table[location], pauli.qubits()
        if any(q not in live for q in qubits):
            raise KeyError(f"fault {pauli} at location {location} touches a qubit not live there")
        for q in qubits:
            z, x = live[q]
            if (pauli.xs >> q) & 1:
                if x is None:
                    raise FrameError(f"X part of fault {pauli} at location {location} reaches a CZ(theta)")
                code ^= x
            if (pauli.zs >> q) & 1:
                code ^= z
    return code


@functools.lru_cache(maxsize=4096)
def _flipped(cfg: GadgetConfig, flips: int) -> Branches:
    """The branches under the frame code ``flips`` < 2^M, read-only: the
    noiseless rows with the readouts in the mask ``flips`` negated, sorted
    back into depth-first order, each with its row's probability.

    Negating readout m flips bit M-1-m of a row's sort key
    (:attr:`Branches._keys`), so the flipped rows' keys are the noiseless
    keys XOR the bit-reversed mask, and one argsort restores the order."""
    table, num = _noiseless_table(cfg)[0], cfg.num_measurements
    rows = np.argsort(table._keys ^ int(f"{flips:0{num}b}"[::-1], 2), kind="stable")
    # -r is r ^ -2 for a readout r = +1 / -1
    records = table.records[rows] ^ np.array([-2 * (flips >> m & 1) for m in range(num)], dtype=np.int8)
    probabilities = table.probabilities[rows]
    for array in (records, probabilities, rows):
        array.flags.writeable = False
    # the noiseless table's all-zero paulis are read-only and of the same length
    return Branches(records, probabilities, rows, table.paulis)


def enumerate_branches(cfg: GadgetConfig, frame: int = 0) -> Branches:
    """All measurement branches of the circuit of ``cfg`` under the frame
    code ``frame`` (:func:`fault_frame`) with probability > ~1e-12, in
    depth-first (+1 first) order.

    Under frame 0 they are the noiseless branch table, enumerated once per
    config on the state-vector path and kept read-only.  Otherwise the code
    splits into its readout flips and its block-3 Pauli, and the branches
    are the noiseless rows with those readouts negated, sorted back into
    depth-first order (kept read-only per flip mask), each with its row's
    probability and the Pauli.  A code outside [0, 2^(M + 2n)) raises
    ValueError.
    """
    num = cfg.num_measurements
    if not 0 <= frame < 1 << num + 2 * cfg.n:
        raise ValueError(f"frame code {frame} is not a code of {num} readouts and a {cfg.n}-qubit block-3 Pauli")
    flips, pauli = frame & ((1 << num) - 1), frame >> num
    base = _flipped(cfg, flips) if flips else _noiseless_table(cfg)[0]
    if not pauli:
        return base
    return Branches(base.records, base.probabilities, base.rows, np.full(len(base.rows), pauli))


# ---------------------------------------------------------------------------
# Targets, the Pauli spectrum, the decoder build (row words, correction and
# class tables), decoding.  _word_fields holds the decoding rule, which the
# decoder build and frame_bins both read.


def target_state(cfg: GadgetConfig) -> np.ndarray:
    """(|0>_L + e^{i theta} |1>_L)/sqrt(2) as a 2^n amplitude array: |0>_L
    (|1>_L) is the even (odd) parity half of |+>^n, renormalized."""
    odd = np.array([int(z).bit_count() & 1 for z in range(1 << cfg.n)], dtype=bool)
    return np.where(odd, np.exp(1j * cfg.theta), 1.0) * 2.0 ** (-cfg.n / 2)


# Outcome bins shared by enumeration and Monte Carlo: the accepted classes I,
# XL, ZL, YL (in the order of _logical_masks), then rejected records, then
# accepted anomalies.
BIN_XL, BIN_ZL, BIN_YL = 1, 2, 3
BIN_REJECTED, BIN_ANOMALY = 4, 5
N_BINS = 6

_CLASS_FIDELITY = 0.99  # an output reaches a class above this fidelity
_ANOMALY_FIDELITY = 0.5  # an output below this to every class is an anomaly


class CorrectionTableError(RuntimeError):
    """The noiseless branch set admits no consistent correction or class table."""


def _logical_masks(n: int) -> np.ndarray:
    """The logical Paulis I, X_L = X_1, Z_L = Z^n and Y_L = X_L Z_L of the
    n-qubit code, indexed by outcome bin, packed as X mask << n | Z mask."""
    x_l, z_l = 1 << n, (1 << n) - 1
    return np.array([0, x_l, z_l, x_l | z_l])


def _pauli_spectrum(cfg: GadgetConfig) -> tuple[np.ndarray, np.ndarray]:
    """(state, spectrum): the index of each noiseless row's block-3 state
    among the distinct ones (equal up to global phase), and
    spectrum[s, a << n | b] = |<t| X^a Z^b |s>|^2 of distinct state s
    against the target t.  The rows hold few distinct states (8, 12 and 16
    for T at n = 3, 5 and 7; 2 for +i).  For one X part a,
    <t| X^a Z^b |s> = sum_y (-1)^(b.y) conj(t[y ^ a]) s[y] is a
    Walsh-Hadamard transform over y, run as n butterfly passes."""
    n = cfg.n
    states = _noiseless_table(cfg)[1]
    state, distinct = np.full(len(states), -1), []
    while (left := np.flatnonzero(state < 0)).size:
        rep = states[left[0]]
        overlap = states[left] @ rep.conj()
        aligned = states[left] * (overlap.conj() / np.maximum(np.abs(overlap), 1e-300))[:, None]
        state[left[np.abs(aligned - rep).max(axis=1) < 1e-12]] = len(distinct)
        distinct.append(rep)
    y = np.arange(1 << n)
    v = target_state(cfg).conj()[y[:, None] ^ y] * np.array(distinct)[:, None, :]  # [s, a, y]
    for k in range(n):  # bit k of y, then of b, is the middle axis
        v = v.reshape(-1, 2, 1 << k)
        v = np.stack((v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]), axis=1)
    return state, np.abs(v.reshape(len(distinct), -1)) ** 2


@functools.lru_cache(maxsize=64)
def _decoder(cfg: GadgetConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(state, table, lookup, words), read-only, built once per config from
    the noiseless rows: their Pauli spectrum (:func:`_pauli_spectrum`) and
    their records.

    ``state`` maps each noiseless row to its distinct block-3 state s, and
    table[s, q] is the outcome bin of an accepted output that is s under
    q = (correction times frame Pauli, X mask << n | Z mask).  A class is
    the target hit with its logical Pauli and any correctable (weight <=
    (n-1)/2) Z pattern, so a stray correctable Z is I, not ZL; (n-1)/2
    rounds that each add one Z bit maximize the spectrum over them.  The
    first class in bin order above fidelity 0.99 wins.  An output reaching
    none is a wrong-angle output (a logical-Z-axis rotation, e.g. a
    correlated ZZ fault steering a record into acceptance), booked ZL as
    the analytic Z_L budget does; for T its best fidelity goes down to 0.9
    at n=3, 0.862 at n=5 and 0.855 at n=7.  An output below fidelity 0.5
    to every class is BIN_ANOMALY.  A fidelity within 1e-9 of either
    threshold would leave the bin to rounding: CorrectionTableError.

    lookup[zl_bit, b, alpha] is the correction of a record key, an index
    into :func:`_logical_masks`, -1 where the key is not correctable.  A
    noiseless row's correction is the first logical Pauli L in bin order
    with |<t| L |s>|^2 > 1 - 1e-9 on its state s (-1 for none); the rows
    of one key must agree, else CorrectionTableError.  The keys are the
    fields (:func:`_word_fields`) of ``words``, one int64 per noiseless row
    with bit m set where readout m reads -1.
    """
    n, masks = cfg.n, _logical_masks(cfg.n)
    state, spectrum = _pauli_spectrum(cfg)
    best_z = spectrum.reshape(-1, 1 << n)  # the Z part b is the last axis
    for _ in range((n - 1) // 2):
        grown = best_z.copy()
        for j in range(n):
            out = grown.reshape(-1, 2, 1 << j)
            np.maximum(out, best_z.reshape(-1, 2, 1 << j)[:, ::-1], out=out)
        best_z = grown
    fid = best_z.reshape(len(spectrum), -1)[:, np.arange(1 << 2 * n) ^ masks[:, None]]  # [s, class, q]
    best = fid.max(axis=1)
    for name, values, threshold in (("class", fid, _CLASS_FIDELITY), ("best", best, _ANOMALY_FIDELITY)):
        if np.any(np.abs(values - threshold) < 1e-9):
            raise CorrectionTableError(f"a {name} fidelity at theta={cfg.theta} lies within 1e-9 of {threshold}")
    above = fid > _CLASS_FIDELITY
    cls = np.where(above.any(axis=1), above.argmax(axis=1), BIN_ZL)
    table = np.where(best < _ANOMALY_FIDELITY, BIN_ANOMALY, cls).astype(np.int8)

    records = _noiseless_table(cfg)[0].records
    words = (records < 0) @ (1 << np.arange(records.shape[1]))
    zl_bits, bs, correlated, alphas = _word_fields(cfg, words)
    if not correlated.all():
        raise CorrectionTableError("noiseless branch with mismatched X records")
    hits = spectrum[state[:, None], masks] > 1 - 1e-9
    found = np.where(hits.any(axis=1), hits.argmax(axis=1), -1)
    if np.all(found < 0):
        raise CorrectionTableError("no branch is Pauli-correctable to the target")
    lookup, keys = np.full((2, 2, n + 1), -1, dtype=np.int8), (zl_bits, bs, alphas)
    lookup[keys] = found  # a key whose rows disagree keeps one of them
    if (clash := np.flatnonzero(lookup[keys] != found)).size:
        key = tuple(int(k[clash[0]]) for k in keys)
        raise CorrectionTableError(f"the noiseless rows of branch key {key} need different corrections")
    for array in (state, table, lookup, words):
        array.flags.writeable = False
    return state, table, lookup, words


def correction_table(cfg: GadgetConfig) -> dict[tuple[int, int, int], PauliString]:
    """(zl_bit, b, alpha_count) -> block-3 correction, derived numerically.

    Built from the noiseless branch table of ``cfg`` itself: every key of
    a correctable branch maps to the logical Pauli that takes the branch's
    output to the target.  Keys absent from the table are not
    Pauli-correctable to the target and are rejected by the decoder.  A
    dict view of the lookup array of :func:`_decoder`.
    """
    n, masks = cfg.n, _logical_masks(cfg.n).tolist()
    return {
        key: PauliString(xs=masks[c] >> n, zs=masks[c] & ((1 << n) - 1))
        for key, c in np.ndenumerate(_decoder(cfg)[2])
        if c >= 0
    }


_POPCOUNT = np.array([byte.bit_count() for byte in range(256)])


def _popcount(field: np.ndarray, width: int) -> np.ndarray:
    """The set bits of non-negative words below 2^width, a byte at a time."""
    count = _POPCOUNT[field & 255]
    for shift in range(8, width, 8):
        count = count + _POPCOUNT[(field >> shift) & 255]
    return count


def _word_fields(cfg: GadgetConfig, words: np.ndarray):
    """(zl_bit, b, correlated, alpha) arrays of packed records (bit m set
    where readout m reads -1): the majority-voted parity bits, whether the
    block-1 and block-2 X readouts agree everywhere or nowhere, and the
    block-2 +1 count.  The fields, from bit 0: r_z Z_L readouts, block 1,
    r_zz joint readouts, block 2."""
    n, r_z, r_zz = cfg.n, cfg.r_z, cfg.r_zz
    block1, block2 = (words >> r_z) & ((1 << n) - 1), words >> (r_z + n + r_zz)
    zl_bit = _popcount(words & ((1 << r_z) - 1), r_z) > r_z // 2
    b = _popcount((words >> (r_z + n)) & ((1 << r_zz) - 1), r_zz) > r_zz // 2
    differ = block1 ^ block2
    correlated = (differ == 0) | (differ == (1 << n) - 1)
    return zl_bit.astype(np.intp), b.astype(np.intp), correlated, n - _popcount(block2, n)


def frame_bins(cfg: GadgetConfig, rows: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The outcome bin of noiseless table row ``rows[g]`` read through the
    frame code ``codes[g]`` (:func:`fault_frame`), one per entry: the class
    index in (I, XL, ZL, YL) of an accepted branch, BIN_ANOMALY for an
    accepted anomaly, BIN_REJECTED for a rejected record.

    The row's packed record (:func:`_decoder`'s words) XOR the code's low M
    bits is the branch's record, whose fields give its correction; the class
    table is read at the row's state and the correction times the block-3
    Pauli code >> M.  A row outside [0, B) or a code outside
    [0, 2^(M + 2n)) raises ValueError.
    """
    state, table, lookup, words = _decoder(cfg)
    num, bits = cfg.num_measurements, cfg.num_measurements + 2 * cfg.n
    if len(rows) and not (
        0 <= rows.min() <= rows.max() < len(words) and 0 <= codes.min() <= int(codes.max()) < 1 << bits
    ):
        raise ValueError(f"rows must lie in [0, {len(words)}) and frame codes in [0, 2^{bits})")
    zl_bit, b, correlated, alpha = _word_fields(cfg, words[rows] ^ (codes & ((1 << num) - 1)))
    corrections = np.where(correlated, lookup[zl_bit, b, alpha], -1)
    bins = table[state[rows], _logical_masks(cfg.n)[corrections] ^ (codes >> num)]
    return np.where(corrections >= 0, bins, BIN_REJECTED)


def accept_probability_exact(n: int) -> Fraction:
    """Exact acceptance probability 2^(1-n) C(n, (n-1)/2) of the theta=pi/4 gadget."""
    if n < 1 or n % 2 == 0:
        raise ConfigError(f"acceptance probability is defined for odd n, got {n}")
    return Fraction(2 * math.comb(n, (n - 1) // 2), 2**n)
