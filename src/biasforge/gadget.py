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
code (below) that :func:`fault_frame` makes of a fault list.

Execution: state vectors run only the noiseless circuit, once per config.
Each build turns the circuit into a list of stack operations on a live
register that puts a qubit on the top bit at PrepX and drops it at MeasX
(at most 2n+1 qubits).  All live measurement branches form one (B, 2^q)
amplitude stack with (B, M) records.  Each run of PrepX and (diagonal)
gate locations before a readout is one factor that grows and phases
every row at once; a readout splits every row into its +1 and -1
children, interleaved so rows stay in depth-first (+1 first) order, and
keeps the children of conditional probability above 1e-12.  The result
is the read-only noiseless branch table.

Faults run no state vectors.  Every location a fault event meets after it
fires is Clifford: Z parts commute with the diagonal gates, and the X
events the noise model emits fire after a qubit's only CZ(theta).  So a
fault is a Pauli frame: pushed through the CPHASEs (X on one qubit adds Z
on the other) it flips each readout whose qubit carries a Z part and
leaves a Pauli on block 3.  The faulted branches are the noiseless ones
with those readouts negated, the same probabilities and the block-3 Pauli
on top.  A fault whose X part would reach a CZ(theta) raises FrameError.
A frame is one integer code: bit m < M flips readout m, and code >> M is
the block-3 Pauli packed as X mask << n | Z mask, so frames combine by
XOR and a code fits an int64 while M + 2n <= 63.  A branch is held as its
record, its probability, its noiseless row and its block-3 frame Pauli;
no branch's state is formed.  Only the noiseless build keeps its rows'
block-3 states, for the Pauli spectrum below.  Decoding and
classification act on whole stacks.

Classification: a corrected output is a noiseless row's state s under the
Pauli q = correction x frame Pauli, so its class is a function of (s, q).
The rows hold few distinct states up to global phase (8, 12 and 16 for T
at n = 3, 5 and 7; 2 for +i).  Their Pauli spectra against the target,
maximized over correctable Z patterns, give one int8 table of outcome bins
per config, and classifying a branch is one lookup (:func:`_class_table`).

Sampling: a faulted run's record is a noiseless row's record under its
frame, with that row's probability, so a run of any frame draws its row
from the noiseless probabilities and reads it through the frame, as
enumeration does.  :func:`rows_under_frames` reads many rows at once, each
under its own frame.
"""

from __future__ import annotations

import enum
import functools
import math
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
_MAX_AMPS = 1 << 20  # larger stacks are advanced in halves, bounding memory


def _measure(amps, bits, path, position, m):
    """Split every row on an X readout of bit ``position`` into children 2b
    (+1) and 2b+1 (-1) and keep those of conditional probability above
    _BRANCH_EPS.  Rows stay unnormalized: a row's squared norm is the
    probability of its record so far, kept in column m+1 of ``path``."""
    children = sv.x_split(amps, position)
    parts = children.view(np.float64)
    mass = np.einsum("ij,ij->i", parts, parts)
    kept = np.flatnonzero(mass / path[:, m].repeat(2) > _BRANCH_EPS)
    bits, path = bits[kept >> 1], path[kept >> 1]
    bits[:, m] = kept & 1
    path[:, m + 1] = mass[kept]
    return children[kept], bits, path


def _halves(a: int, b: int, width: int) -> list[tuple[int, int]]:
    """Rows a..b-1 of a stack ``width`` amplitudes wide as row ranges,
    halved and halved again until each has at most _MAX_AMPS amplitudes or
    one row."""
    if b - a == 1 or (b - a) * width <= _MAX_AMPS:
        return [(a, b)]
    half = a + (b - a) // 2
    return _halves(a, half, width) + _halves(half, b, width)


def _advance(ops, i, m, amps, bits, path):
    """Run stack operations i.. (see :func:`_stack_ops`) on a stack whose
    rows have outcome bits (0 for +1) and prefix probabilities for the
    first m readouts; return the final (amps, bits, path).  A stack over
    _MAX_AMPS amplitudes runs on in parts (:func:`_halves`), one at a time,
    which bounds memory."""
    while i < len(ops):
        if len(amps) > 1 and amps.size > _MAX_AMPS:
            parts = [_advance(ops, i, m, amps[a:b], bits[a:b], path[a:b]) for a, b in _halves(0, *amps.shape)]
            return tuple(np.concatenate(arrays) for arrays in zip(*parts))
        op = ops[i]
        if isinstance(op, int):
            amps, bits, path = _measure(amps, bits, path, op, m)
            m += 1
        else:
            amps = (amps[:, None, :] * op).reshape(len(amps), -1)
        i += 1
    return amps, bits, path


@functools.lru_cache(maxsize=64)
def _noiseless_table(cfg: GadgetConfig) -> tuple[Branches, np.ndarray]:
    """(branches, states), read-only: the branches of the noiseless circuit
    on the state-vector path, which every faulted enumeration, sampled run
    and table built from the noiseless circuit reads, and their (B, 2^n)
    normalised block-3 states in canonical qubit order, which only
    :func:`_pauli_spectrum` reads."""
    num = cfg.num_measurements
    start = np.ones((1, 1), dtype=np.complex128), np.zeros((1, num), dtype=np.int8), np.ones((1, num + 1))
    amps, bits, path = _advance(_stack_ops(cfg), 0, 0, *start)
    probs = path[:, num].copy()
    records, states = 1 - 2 * bits, amps / np.sqrt(probs)[:, None]
    rows, paulis = np.arange(len(probs)), np.zeros(len(probs), dtype=np.intp)
    for array in (records, probs, rows, paulis, states):
        array.flags.writeable = False
    return Branches(records, probs, rows, paulis), states


def fault_frame(cfg: GadgetConfig, faults) -> int:
    """The frame code of a list of (location index, PauliString) faults on
    ``build_circuit(cfg)``: bit m < M flips readout m, and code >> M is the
    block-3 Pauli, X mask << n | Z mask.

    Each fault is pushed through every later location (a MeasX fault fires
    before its own readout): a CPHASE turns X on one qubit into X on it and
    Z on the other, a MeasX flips its readout when its qubit carries Z and
    then drops the qubit.  What is left sits on block 3, in its local qubit
    order.  The code of the list is the XOR of its faults' codes, so the
    frame of a union of fault lists is the XOR of theirs.  A fault on a
    qubit not live at its location raises KeyError, and one whose X part
    would reach a CZ(theta) raises FrameError.
    """
    locations, n, code = build_circuit(cfg).locations, cfg.n, 0
    for location, pauli in faults:
        live = {loc.qubits[0] for loc in locations[: location + 1] if loc.kind is LocationKind.PREP_X}
        live -= {loc.qubits[0] for loc in locations[:location] if loc.kind is LocationKind.MEAS_X}
        if any(q not in live for q in pauli.qubits()):
            raise KeyError(f"fault {pauli} at location {location} touches a qubit not live there")
        start = location if locations[location].kind is LocationKind.MEAS_X else location + 1
        m = sum(loc.kind is LocationKind.MEAS_X for loc in locations[:start])
        xs, zs, flips = pauli.xs, pauli.zs, 0
        for t in range(start, len(locations)):
            kind, qubits = locations[t].kind, locations[t].qubits
            if kind is LocationKind.CZ_THETA:
                if any((xs >> q) & 1 for q in qubits):
                    raise FrameError(f"X part of fault {pauli} at location {location} reaches CZ(theta) at {t}")
            elif kind is LocationKind.CPHASE:
                a, b = qubits
                zs ^= (((xs >> a) & 1) << b) | (((xs >> b) & 1) << a)
            elif kind is LocationKind.MEAS_X:
                q = qubits[0]
                flips |= ((zs >> q) & 1) << m
                xs &= ~(1 << q)
                zs &= ~(1 << q)
                m += 1
        code ^= flips | (xs >> 2 * n << n | zs >> 2 * n) << cfg.num_measurements
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


def rows_under_frames(cfg: GadgetConfig, rows: np.ndarray, frames: np.ndarray) -> Branches:
    """Noiseless table row ``rows[g]`` read through the frame code
    ``frames[g]`` (see :func:`fault_frame`), one branch per entry, in entry
    order: the code's low M bits negate readouts, code >> M is the block-3
    Pauli, and the probability is the row's own.  Each is the branch that
    :func:`enumerate_branches` gives for that row under that frame."""
    table, num = _noiseless_table(cfg)[0], cfg.num_measurements
    # -r is r ^ -2 for a readout r = +1 / -1, as in _flipped
    records = table.records[rows] ^ ((frames[:, None] >> np.arange(num)) & 1).astype(np.int8) * np.int8(-2)
    return Branches(records, table.probabilities[rows], rows, frames >> num)


# ---------------------------------------------------------------------------
# Targets, the Pauli spectrum, correction and class tables, decoding.  The
# batch functions _decode_records and outcome_bins hold the decoding rule
# and read the class table; a single record is decoded as a one-row batch.


def target_state(cfg: GadgetConfig) -> np.ndarray:
    """(|0>_L + e^{i theta} |1>_L)/sqrt(2) as a 2^n amplitude array: |0>_L
    (|1>_L) is the even (odd) parity half of |+>^n, renormalized."""
    odd = np.array([int(z).bit_count() & 1 for z in range(1 << cfg.n)], dtype=bool)
    return np.where(odd, np.exp(1j * cfg.theta), 1.0) * 2.0 ** (-cfg.n / 2)


@functools.lru_cache(maxsize=None)
def _logical_paulis(n: int) -> dict[LogicalClass, PauliString]:
    return {
        LogicalClass.I: PauliString(),
        LogicalClass.XL: PauliString.x_on([0]),
        LogicalClass.ZL: PauliString.z_on(range(n)),
        LogicalClass.YL: PauliString.x_on([0]).compose(PauliString.z_on(range(n))),
    }


_CLASS_ORDER = (LogicalClass.I, LogicalClass.XL, LogicalClass.ZL, LogicalClass.YL)

# Outcome bins shared by enumeration and Monte Carlo: the accepted classes in
# _CLASS_ORDER (I, XL, ZL, YL), then rejected records, then accepted anomalies.
BIN_XL, BIN_ZL, BIN_YL = 1, 2, 3
BIN_REJECTED, BIN_ANOMALY = 4, 5
N_BINS = 6

_CLASS_FIDELITY = 0.99  # an output reaches a class above this fidelity
_ANOMALY_FIDELITY = 0.5  # an output below this to every class is an anomaly


class CorrectionTableError(RuntimeError):
    """The noiseless branch set admits no consistent correction or class table."""


@functools.lru_cache(maxsize=None)
def _logical_masks(n: int) -> np.ndarray:
    """The logical Paulis in _CLASS_ORDER packed as X mask << n | Z mask."""
    paulis = [_logical_paulis(n)[cls] for cls in _CLASS_ORDER]
    return np.array([p.xs << n | p.zs for p in paulis])


@functools.lru_cache(maxsize=64)
def _pauli_spectrum(cfg: GadgetConfig) -> tuple[np.ndarray, np.ndarray]:
    """(state, spectrum), read-only: the index of each noiseless row's
    block-3 state among the distinct ones (equal up to global phase), and
    spectrum[s, a << n | b] = |<t| X^a Z^b |s>|^2 of distinct state s
    against the target t, which the correction and class tables read.  For
    one X part a, <t| X^a Z^b |s> = sum_y (-1)^(b.y) conj(t[y ^ a]) s[y] is
    a Walsh-Hadamard transform over y, run as n butterfly passes."""
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
    spectrum = np.abs(v.reshape(len(distinct), -1)) ** 2
    state.flags.writeable = spectrum.flags.writeable = False
    return state, spectrum


@functools.lru_cache(maxsize=64)
def _class_table(cfg: GadgetConfig) -> tuple[np.ndarray, np.ndarray]:
    """(state, table), read-only: ``state`` as in :func:`_pauli_spectrum`,
    and the outcome bin table[s, q] of an accepted output that is distinct
    state s under q = (correction times frame Pauli, X mask << n | Z mask).

    A class is the target hit with its logical Pauli and any correctable
    (weight <= (n-1)/2) Z pattern, so a stray correctable Z is I, not ZL;
    (n-1)/2 rounds that each add one Z bit maximize the spectrum over them.
    The first class in _CLASS_ORDER above fidelity 0.99 wins.  An output
    reaching none is a wrong-angle output (a logical-Z-axis rotation, e.g.
    a correlated ZZ fault steering a record into acceptance), booked ZL as
    the analytic Z_L budget does; for T its best fidelity goes down to 0.9
    at n=3, 0.862 at n=5 and 0.855 at n=7.  An output below fidelity 0.5
    to every class is BIN_ANOMALY.  A fidelity within 1e-9 of either
    threshold would leave the bin to rounding: CorrectionTableError.
    """
    n = cfg.n
    state, spectrum = _pauli_spectrum(cfg)
    best_z = spectrum.reshape(-1, 1 << n)  # the Z part b is the last axis
    for _ in range((n - 1) // 2):
        grown = best_z.copy()
        for j in range(n):
            out = grown.reshape(-1, 2, 1 << j)
            np.maximum(out, best_z.reshape(-1, 2, 1 << j)[:, ::-1], out=out)
        best_z = grown
    q = np.arange(1 << 2 * n)
    fid = best_z.reshape(len(spectrum), -1)[:, q ^ _logical_masks(n)[:, None]]  # [s, class, q]
    best = fid.max(axis=1)
    for name, values, threshold in (("class", fid, _CLASS_FIDELITY), ("best", best, _ANOMALY_FIDELITY)):
        if np.any(np.abs(values - threshold) < 1e-9):
            raise CorrectionTableError(f"a {name} fidelity at theta={cfg.theta} lies within 1e-9 of {threshold}")
    above = fid > _CLASS_FIDELITY
    cls = np.where(above.any(axis=1), above.argmax(axis=1), _CLASS_ORDER.index(LogicalClass.ZL))
    table = np.where(best < _ANOMALY_FIDELITY, BIN_ANOMALY, cls).astype(np.int8)
    table.flags.writeable = False
    return state, table


def correction_table(cfg: GadgetConfig) -> dict[tuple[int, int, int], PauliString]:
    """(zl_bit, b, alpha_count) -> block-3 correction, derived numerically.

    Built from the noiseless branch table of ``cfg`` itself: every key of
    a correctable branch maps to the logical Pauli that takes the branch's
    output to the target.  Keys absent from the table are not
    Pauli-correctable to the target and are rejected by the decoder.
    """
    return _correction_tables(cfg)[0]


@functools.lru_cache(maxsize=None)
def _correction_tables(cfg: GadgetConfig) -> tuple[dict, np.ndarray]:
    """The correction table and its (zl_bit, b, alpha) -> class-index lookup
    array (-1 where not correctable).  A noiseless row's correction is the
    first logical Pauli L in _CLASS_ORDER with |<t| L |s>|^2 > 1 - 1e-9 on
    its state s, read from the Pauli spectrum."""
    branches = _noiseless_table(cfg)[0]
    zl_bits, bs, correlated, alphas = _record_fields(cfg, branches.records)
    if not correlated.all():
        raise CorrectionTableError("noiseless branch with mismatched X records")
    state, spectrum = _pauli_spectrum(cfg)
    hits = spectrum[state[:, None], _logical_masks(cfg.n)] > 1 - 1e-9
    found = np.where(hits.any(axis=1), hits.argmax(axis=1), -1)
    chosen: dict[tuple[int, int, int], int] = {}
    for k, cls in zip(zip(zl_bits.tolist(), bs.tolist(), alphas.tolist()), found.tolist()):
        if cls < 0:
            if k in chosen:
                raise CorrectionTableError(f"branch key {k} is correctable on some branches only")
            continue
        if k in chosen and chosen[k] != cls:
            raise CorrectionTableError(f"inconsistent corrections for key {k}")
        chosen[k] = cls
    if not chosen:
        raise CorrectionTableError("no branch is Pauli-correctable to the target")
    lookup = np.full((2, 2, cfg.n + 1), -1, dtype=np.int8)
    for k, cls in chosen.items():
        lookup[k] = cls
    return {k: _logical_paulis(cfg.n)[_CLASS_ORDER[cls]] for k, cls in chosen.items()}, lookup


def _record_fields(cfg: GadgetConfig, records: np.ndarray):
    """(zl_bit, b, correlated, alpha) arrays of (B, M) +/-1 records: the
    majority-voted parity bits, whether the block-1 and block-2 X records
    are perfectly (anti)correlated, and the block-2 +1 count."""
    n, r_z, r_zz = cfg.n, cfg.r_z, cfg.r_zz
    block1 = records[:, r_z : r_z + n]
    block2 = records[:, r_z + n + r_zz :]
    zl_bit = (records[:, :r_z].sum(axis=1) < 0).astype(np.intp)
    b = (records[:, r_z + n : r_z + n + r_zz].sum(axis=1) < 0).astype(np.intp)
    correlated = np.abs((block1 * block2).sum(axis=1)) == n
    return zl_bit, b, correlated, (block2 > 0).sum(axis=1)


def _decode_records(cfg: GadgetConfig, records: np.ndarray):
    """(zl_bit, b, correction): the correction is an index into _CLASS_ORDER
    (the logical Pauli applied to block 3), -1 for a rejected record."""
    zl_bit, b, correlated, alpha = _record_fields(cfg, records)
    lookup = _correction_tables(cfg)[1]
    return zl_bit, b, np.where(correlated, lookup[zl_bit, b, alpha], -1)


def outcome_bins(cfg: GadgetConfig, branches: Branches) -> np.ndarray:
    """Per-branch outcome bin: the class index in (I, XL, ZL, YL) of an
    accepted branch, BIN_ANOMALY for an accepted anomaly, BIN_REJECTED for
    a rejected record: the class table read at the branch's noiseless
    state and its correction times its frame Pauli."""
    corrections = _decode_records(cfg, branches.records)[2]
    state, table = _class_table(cfg)
    bins = table[state[branches.rows], _logical_masks(cfg.n)[corrections] ^ branches.paulis]
    return np.where(corrections >= 0, bins, BIN_REJECTED)


def accept_probability_exact(n: int) -> Fraction:
    """Exact acceptance probability 2^(1-n) C(n, (n-1)/2) of the theta=pi/4 gadget."""
    if n < 1 or n % 2 == 0:
        raise ConfigError(f"acceptance probability is defined for odd n, got {n}")
    return Fraction(2 * math.comb(n, (n - 1) // 2), 2**n)
