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

Faults are (location index, PauliString-on-global-ids) pairs, applied
after their location executes, except at MeasX locations where they are
applied before readout.  Fault Paulis may touch any qubit that is live at
that point in the circuit.

Execution: state vectors run only the noiseless circuit, once per config.
Each build turns the circuit into a list of stack operations on a live
register that puts a qubit on the top bit at PrepX and drops it at MeasX
(at most 2n+1 qubits).  All live measurement branches form one (B, 2^q)
amplitude stack with (B, M) records.  Each run of PrepX and (diagonal)
gate locations before a readout is one factor that grows and phases
every row at once; a readout splits every row into its +1 and -1
children, interleaved so rows stay in depth-first (+1 first) order, and
keeps the children of conditional probability above 1e-12.  The result
is the read-only noiseless branch table, with the probability of every
row's record prefix.

Faults run no state vectors.  Every location a fault event meets after it
fires is Clifford: Z parts commute with the diagonal gates, and the X
events the noise model emits fire after a qubit's only CZ(theta).  So a
fault is a Pauli frame: pushed through the CPHASEs (X on one qubit adds Z
on the other) it flips each readout whose qubit carries a Z part and
leaves a Pauli on block 3.  The faulted branches are the noiseless ones
with those readouts negated, the same probabilities and the block-3 Pauli
applied.  A fault whose X part would reach a CZ(theta) raises FrameError.
Decoding and classification act on whole stacks.

Sampling: a run draws one uniform per readout and reads +1 when the draw
is below the conditional probability of +1 given its earlier readouts.
Under a frame that flips readouts f, that is the noiseless probability
that readout m equals +1 xor f_m given that the earlier noiseless
readouts equal the faulted ones xor f, a ratio of two prefix
probabilities of the table.  ``sample_branches`` walks the table this way
for many runs at once, each with its own frame and draws; ``run`` is one
such walk.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import statevec as sv
from .statevec import BranchError, PauliString

SIM_MAX_N = 7  # largest simulated n: the live register peaks at 2n+1 qubits


class ConfigError(ValueError):
    """Invalid gadget configuration."""


class RecordError(ValueError):
    """Measurement record does not match the circuit layout."""


class FrameError(ValueError):
    """A fault's X part would reach a non-Clifford CZ(theta) gate, so it has
    no Pauli frame and no engine runs it."""


class Target(enum.Enum):
    PLUS_I = "plusI"
    T = "T"
    CUSTOM = "custom"


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
    REJECTED = "rejected"


@dataclass(frozen=True)
class GadgetConfig:
    n: int
    theta: float
    r_z: int
    r_zz: int

    def __post_init__(self):
        if self.n < 1 or self.n % 2 == 0:
            raise ConfigError(f"code length n={self.n} must be odd and >= 1")
        if self.n > SIM_MAX_N:
            raise ConfigError(f"code length n={self.n} exceeds SIM_MAX_N={SIM_MAX_N} (the simulator holds 2n+1 qubits)")
        for name, r in (("r_z", self.r_z), ("r_zz", self.r_zz)):
            if r < 1 or r % 2 == 0:
                raise ConfigError(f"{name}={r} must be odd and >= 1 (majority votes need odd counts)")

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
    def target(self) -> Target:
        """The state theta names: T at pi/4, plusI at pi/2, else custom.
        Derived, so the config is hashed on plain numbers alone."""
        if math.isclose(self.theta, math.pi / 4):
            return Target.T
        if math.isclose(self.theta, math.pi / 2):
            return Target.PLUS_I
        return Target.CUSTOM

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
    block_map: dict[int, str]  # qubit id -> "block1"/"block2"/"block3"/"ancilla<k>"

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
    block_map: dict[int, str] = {}

    def add(kind, qubits):
        locs.append(Location(kind=kind, qubits=tuple(qubits)))

    for q in block1_qubits(n):
        block_map[q] = "block1"
        add(LocationKind.PREP_X, (q,))
    for q in block2_qubits(n):
        block_map[q] = "block2"
        add(LocationKind.PREP_X, (q,))
    for i in range(n):
        add(LocationKind.CZ_THETA, (i, n + i))

    next_ancilla = 3 * n
    for _ in range(r_z):
        anc = next_ancilla
        next_ancilla += 1
        block_map[anc] = f"ancilla{anc - 3 * n}"
        add(LocationKind.PREP_X, (anc,))
        for q in block1_qubits(n):
            add(LocationKind.CPHASE, (q, anc))
        add(LocationKind.MEAS_X, (anc,))

    for q in block1_qubits(n):
        add(LocationKind.MEAS_X, (q,))
    for q in block3_qubits(n):
        block_map[q] = "block3"
        add(LocationKind.PREP_X, (q,))

    for _ in range(r_zz):
        anc = next_ancilla
        next_ancilla += 1
        block_map[anc] = f"ancilla{anc - 3 * n}"
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
    return Circuit(n=n, r_z=r_z, r_zz=r_zz, locations=tuple(locs), block_map=block_map)


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


# block-3 frame Paulis and class representatives recur across calls
_pauli_action = functools.lru_cache(maxsize=1024)(sv.pauli_action)


def _apply_local_pauli(state: np.ndarray, n: int, p: PauliString) -> np.ndarray:
    source, phase = _pauli_action(n, p.xs, p.zs)
    return state[..., source] * phase


@dataclass(frozen=True)
class Branch:
    record: tuple[int, ...]
    probability: float
    state: np.ndarray  # block-3 amplitudes, canonical qubit order


@dataclass(frozen=True, eq=False)
class Branches:
    """Measurement branches stacked as rows: all branches of one execution
    in depth-first (+1 outcome first) order, or one row per sampled run;
    iterating yields :class:`Branch` rows."""

    records: np.ndarray  # (B, num_measurements) int8 entries +1 / -1
    probabilities: np.ndarray  # (B,)
    states: np.ndarray  # (B, 2^n) block-3 amplitudes, canonical qubit order

    def __len__(self) -> int:
        return len(self.probabilities)

    def __getitem__(self, i: int) -> Branch:
        return Branch(tuple(self.records[i].tolist()), float(self.probabilities[i]), self.states[i])


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
def _noiseless_table(cfg: GadgetConfig) -> tuple[Branches, np.ndarray, np.ndarray]:
    """(branches, path, plus_before) of the noiseless circuit, read-only.

    ``branches`` are the noiseless branches on the state-vector path: every
    faulted enumeration, sampled run and table built from the noiseless
    circuit reads them.  ``path[i, m]`` is the probability of the first m
    readouts of row i (1 at m = 0), with a padding row of ones at i = B;
    ``plus_before[i, m]`` counts the rows before row i that read +1 at
    readout m.  As the rows are depth-first, the rows that share a record
    prefix are contiguous, so these two arrays give every node of the
    branch tree its probability and the split between its children.
    """
    num = cfg.num_measurements
    start = np.ones((1, 1), dtype=np.complex128), np.zeros((1, num), dtype=np.int8), np.ones((1, num + 1))
    amps, bits, path = _advance(_stack_ops(cfg), 0, 0, *start)
    probs = path[:, num].copy()
    branches = Branches(1 - 2 * bits, probs, amps / np.sqrt(probs)[:, None])
    path = np.vstack([path, np.ones(num + 1)])
    plus_before = np.vstack([np.zeros(num, dtype=np.intp), np.cumsum(bits == 0, axis=0)])
    for array in (branches.records, branches.probabilities, branches.states, path, plus_before):
        array.flags.writeable = False
    return branches, path, plus_before


@functools.lru_cache(maxsize=4096)
def _frame(cfg: GadgetConfig, location: int, pauli: PauliString) -> tuple[int, PauliString]:
    """(record flip mask, block-3 Pauli) of a Pauli fault at ``location``.

    Bit m of the mask flips readout m.  The fault is pushed through every
    later location (a MeasX fault fires before its own readout): a CPHASE
    turns X on one qubit into X on it and Z on the other, a MeasX flips its
    readout when its qubit carries Z and then drops the qubit.  What is
    left sits on block 3, returned in its local qubit order.
    """
    locations = build_circuit(cfg).locations
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
    offset = 2 * cfg.n
    return flips, PauliString(xs >> offset, zs >> offset)


def _combined_frame(cfg: GadgetConfig, faults) -> tuple[int, PauliString]:
    """The frame of a fault list: the XOR of its faults' frames."""
    flips, out = 0, PauliString()
    for t, pauli in faults:
        mask, frame = _frame(cfg, t, pauli)
        flips ^= mask
        out = out.compose(frame)
    return flips, out


def fault_frame(cfg: GadgetConfig, faults) -> np.ndarray:
    """The Pauli frame of a fault list as one GF(2) row of M + 2n bits: the
    M readout flips, then the X and the Z mask of the block-3 Pauli.  Frames
    combine by XOR, so the frame of a union of fault lists is the sum mod 2
    of their rows.  A fault whose X part would reach a CZ(theta) raises
    FrameError."""
    flips, out = _combined_frame(cfg, faults)
    num = cfg.num_measurements
    bits = flips | out.xs << num | out.zs << (num + cfg.n)
    return np.array([(bits >> k) & 1 for k in range(num + 2 * cfg.n)], dtype=np.uint8)


@functools.lru_cache(maxsize=4096)
def _flipped(cfg: GadgetConfig, flips: int) -> tuple[np.ndarray, np.ndarray]:
    """(records, order): the noiseless records with the readouts in the
    mask ``flips`` negated, read-only and sorted depth-first, and the
    noiseless row each sorted record comes from."""
    records = _noiseless_table(cfg)[0].records
    flip = np.array([(flips >> m) & 1 for m in range(cfg.num_measurements)], dtype=bool)
    records = np.where(flip, -records, records)
    order = np.lexsort((records < 0).T[::-1])  # readout 0 is the primary key
    records = records[order]
    records.flags.writeable = False
    return records, order


def enumerate_branches(cfg: GadgetConfig, faults=()) -> Branches:
    """All measurement branches of the circuit of ``cfg`` with probability
    > ~1e-12, in depth-first (+1 first) order.

    ``faults`` is an iterable of (location index, PauliString) pairs on
    ``build_circuit(cfg)``.  The noiseless branches are enumerated once per
    config on the state-vector path and kept read-only; with no fault they
    are returned as they are.
    Otherwise the Pauli frames of the faults (:func:`_frame`) combine by
    XOR, and the faulted branches are the noiseless ones with the frame's
    readouts negated, the same probabilities and the frame's block-3 Pauli
    applied to their states, sorted back into depth-first order.  A fault
    whose X part would reach a CZ(theta) gate raises FrameError.
    """
    flips, out = _combined_frame(cfg, faults)
    table = _noiseless_table(cfg)[0]
    if not flips and out.is_identity:
        return table
    records, probabilities, states = table.records, table.probabilities, table.states
    if flips:
        records, order = _flipped(cfg, flips)
        probabilities, states = probabilities[order], states[order]
    if not out.is_identity:
        states = _apply_local_pauli(states, cfg.n, out)
    return Branches(records, probabilities, states)


def sample_branches(cfg: GadgetConfig, frames: np.ndarray, uniforms: np.ndarray) -> Branches:
    """One sampled run per row: run g carries the Pauli frame ``frames[g]``
    (see :func:`fault_frame`) and draws ``uniforms[g, m]`` at readout m.

    Readout m reads +1 iff its draw is below the conditional probability
    of +1 given the run's earlier readouts.  Under the frame's flips f that
    is the noiseless probability that readout m equals +1 xor f_m given
    that the earlier noiseless readouts equal the run's xor f, read from
    the prefix probabilities of the noiseless table.  The walk keeps, for
    every run, the range of table rows that share its noiseless prefix, so
    each readout costs a few array lookups whatever the frames.  A draw
    below 0 forces +1 and one of 1 or more forces -1; a forced outcome of
    probability <= 1e-12 raises BranchError.  The result holds the runs'
    faulted records, their branch probabilities and their block-3 states
    under the frames' Paulis, in run order.
    """
    table, path, plus_before = _noiseless_table(cfg)
    num, n = cfg.num_measurements, cfg.n
    frames = np.asarray(frames, dtype=np.intp)
    flips = frames[:, :num].astype(bool)
    lo = np.zeros(len(frames), dtype=np.intp)
    hi = np.full(len(frames), len(table), dtype=np.intp)
    for m in range(num):
        # the node's children are rows [lo, split) (+1) and [split, hi) (-1)
        split = lo + plus_before[hi, m] - plus_before[lo, m]
        f = flips[:, m]
        a, b = np.where(f, split, lo), np.where(f, hi, split)  # the child read as +1
        cond = np.where(a < b, path[a, m + 1] / path[lo, m], 0.0)
        minus_child = f == (uniforms[:, m] < cond)
        lo, hi = np.where(minus_child, split, lo), np.where(minus_child, hi, split)
    if np.any(lo == hi):
        raise BranchError(f"a forced readout outcome has probability <= {_BRANCH_EPS:g} under its frame")
    weights = 1 << np.arange(n)
    xs, zs = frames[:, num : num + n] @ weights, frames[:, num + n :] @ weights
    source, phase = sv.pauli_action(n, xs[:, None], zs[:, None])
    return Branches(
        np.where(flips, -table.records[lo], table.records[lo]),
        table.probabilities[lo],
        np.take_along_axis(table.states[lo], source, axis=1) * phase,
    )


# ---------------------------------------------------------------------------
# Targets, correction tables, decoding, classification.  The batch functions
# (_decode_records, _classify_states, outcome_bins) hold the decoding rule;
# decode and classify_logical wrap them for one record or state.


def target_state(cfg: GadgetConfig) -> np.ndarray:
    """(|0>_L + e^{i theta} |1>_L)/sqrt(2) as a 2^n amplitude array."""
    n = cfg.n
    dim = 1 << n
    plus_l = np.full(dim, 2.0 ** (-n / 2), dtype=np.complex128)
    signs = np.array([(-1) ** (int(z).bit_count()) for z in range(dim)])
    minus_l = plus_l * signs
    zero_l = (plus_l + minus_l) / math.sqrt(2)
    one_l = (plus_l - minus_l) / math.sqrt(2)
    return (zero_l + np.exp(1j * cfg.theta) * one_l) / math.sqrt(2)


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


def _state_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)) ** 2)


class CorrectionTableError(RuntimeError):
    """The noiseless branch set admits no consistent correction table."""


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
    array (-1 where not correctable)."""
    target = target_state(cfg)
    paulis = _logical_paulis(cfg.n)
    branches = _noiseless_table(cfg)[0]
    zl_bits, bs, correlated, alphas = _record_fields(cfg, branches.records)
    if not correlated.all():
        raise CorrectionTableError("noiseless branch with mismatched X records")
    chosen: dict[tuple[int, int, int], LogicalClass] = {}
    for k, state in zip(zip(zl_bits.tolist(), bs.tolist(), alphas.tolist()), branches.states):
        found = None
        for cls in _CLASS_ORDER:
            if _state_fidelity(_apply_local_pauli(state, cfg.n, paulis[cls]), target) > 1 - 1e-9:
                found = cls
                break
        if found is None:
            if k in chosen:
                raise CorrectionTableError(f"branch key {k} is correctable on some branches only")
            continue
        if k in chosen and chosen[k] is not found:
            raise CorrectionTableError(f"inconsistent corrections for key {k}")
        chosen[k] = found
    if not chosen:
        raise CorrectionTableError("no branch is Pauli-correctable to the target")
    lookup = np.full((2, 2, cfg.n + 1), -1, dtype=np.int8)
    for k, cls in chosen.items():
        lookup[k] = _CLASS_ORDER.index(cls)
    return {k: paulis[cls] for k, cls in chosen.items()}, lookup


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


@functools.lru_cache(maxsize=None)
def _class_candidates(cfg: GadgetConfig) -> np.ndarray:
    """(2^n, correction, class, z-pattern) conjugated candidate amplitudes.

    Each class is represented by the target hit with that logical Pauli
    and each correctable-weight (<= (n-1)/2) physical Z pattern on the
    output block.  The correction is folded in: <c|C s> = <C c|s> up to
    phase, since a Pauli is its own inverse up to phase.
    """
    n = cfg.n
    target = target_state(cfg)
    paulis = [_logical_paulis(n)[cls] for cls in _CLASS_ORDER]
    z_masks = [m for m in range(1 << n) if int(m).bit_count() <= (n - 1) // 2]
    cand = np.array([[_apply_local_pauli(target, n, p.compose(PauliString(zs=m))) for m in z_masks] for p in paulis])
    folded = np.stack([_apply_local_pauli(cand, n, corr) for corr in paulis])
    return np.ascontiguousarray(np.moveaxis(folded.conj(), -1, 0))


def _classify_states(cfg: GadgetConfig, states: np.ndarray, corrections: np.ndarray):
    """(class index, fidelity, anomaly) of (B, 2^n) accepted output states
    under their correction indices: the first class in _CLASS_ORDER with
    fidelity > 0.99 wins; otherwise the state is booked ZL with its best
    fidelity, and flagged an anomaly when that is below 0.5."""
    cand = _class_candidates(cfg)
    overlaps = np.abs(states @ cand.reshape(cand.shape[0], -1)) ** 2
    rows = np.arange(len(states))
    fid = overlaps.reshape(len(states), *cand.shape[1:])[rows, corrections].max(axis=2)
    first = (fid > 0.99).argmax(axis=1)
    found = fid[rows, first] > 0.99
    best = fid.max(axis=1)
    cls = np.where(found, first, _CLASS_ORDER.index(LogicalClass.ZL))
    return cls, np.where(found, fid[rows, first], best), best < 0.5


def outcome_bins(cfg: GadgetConfig, branches: Branches) -> np.ndarray:
    """Per-branch outcome bin: the class index in (I, XL, ZL, YL) of an
    accepted branch, BIN_ANOMALY for an accepted anomaly, BIN_REJECTED for
    a rejected record."""
    _, _, corrections = _decode_records(cfg, branches.records)
    bins = np.full(len(branches), BIN_REJECTED)
    accepted = corrections >= 0
    cls, _, anomaly = _classify_states(cfg, branches.states[accepted], corrections[accepted])
    bins[accepted] = np.where(anomaly, BIN_ANOMALY, cls)
    return bins


@dataclass
class GadgetOutcome:
    accepted: bool
    b: int
    zl_parity: int
    block1_x: tuple[int, ...]
    block2_x: tuple[int, ...]
    correction: PauliString | None
    logical_class: LogicalClass
    output_state: np.ndarray | None = None
    class_fidelity: float | None = None
    anomaly: bool = False
    probability: float | None = None

    @property
    def bin(self) -> int:
        """The outcome bin (see outcome_bins)."""
        if not self.accepted:
            return BIN_REJECTED
        return BIN_ANOMALY if self.anomaly else _CLASS_ORDER.index(self.logical_class)


def decode(cfg: GadgetConfig, raw_measurements) -> GadgetOutcome:
    """Classical decoding of a complete measurement record.

    Majority-votes the repeated parity readings, applies the block-1/2
    correlation test, and looks up the block-3 correction; records whose
    (parity, b, alpha) key is not correctable are rejected.
    """
    record = tuple(raw_measurements)
    if len(record) != cfg.num_measurements:
        raise RecordError(f"record length {len(record)} != {cfg.num_measurements}")
    if any(v not in (+1, -1) for v in record):
        raise RecordError("record entries must be +1 or -1")
    zl_bit, b, corrections = _decode_records(cfg, np.array([record], dtype=np.int8))
    return _outcome(cfg, record, zl_bit[0], b[0], corrections[0])


def _outcome(cfg: GadgetConfig, record: tuple[int, ...], zl_bit, b, correction) -> GadgetOutcome:
    """The decoded outcome of one record whose correction index (into
    _CLASS_ORDER, -1 when rejected) is known."""
    accepted = bool(correction >= 0)
    pauli = None
    if accepted:
        local = _logical_paulis(cfg.n)[_CLASS_ORDER[correction]]
        offset = 2 * cfg.n
        pauli = PauliString(xs=local.xs << offset, zs=local.zs << offset)
    n, r_z, r_zz = cfg.n, cfg.r_z, cfg.r_zz
    return GadgetOutcome(
        accepted=accepted,
        b=int(b),
        zl_parity=int(zl_bit),
        block1_x=record[r_z : r_z + n],
        block2_x=record[r_z + n + r_zz :],
        correction=pauli,
        logical_class=LogicalClass.I if accepted else LogicalClass.REJECTED,
    )


def classify_logical(
    output_state: np.ndarray, correction: PauliString | None, cfg: GadgetConfig
) -> tuple[LogicalClass, float, bool]:
    """Classify an accepted output against {I, XL, ZL, YL} x target.

    The correction (global qubit ids on block 3) is applied first; each
    class is represented by the target hit with that logical Pauli and any
    correctable-weight physical Z pattern, so a stray correctable Z on the
    output block classifies as I rather than ZL.

    Returns (class, fidelity, anomaly).  An accepted state reaching no
    class at fidelity > 0.99 is a wrong-angle output (a logical-Z-axis
    rotation error, e.g. from a correlated ZZ fault shifting the record
    into acceptance); those are booked as ZL with the best fidelity
    recorded, the same convention the analytic Z_L budget uses.  States
    below fidelity 0.5 to every class are flagged as anomalies.
    """
    n = cfg.n
    state = np.asarray(output_state, dtype=np.complex128)
    if state.size != (1 << n):
        raise RecordError(f"output state has {state.size} amplitudes, expected {1 << n}")
    if correction is not None and not correction.is_identity:
        offset = 2 * n
        local = PauliString(xs=correction.xs >> offset, zs=correction.zs >> offset)
        if (local.xs << offset != correction.xs) or (local.zs << offset != correction.zs):
            raise RecordError("correction acts outside block 3")
        state = _apply_local_pauli(state, n, local)
    cls, fid, anomaly = _classify_states(cfg, state.reshape(1, -1), np.zeros(1, dtype=np.intp))
    return _CLASS_ORDER[cls[0]], float(fid[0]), bool(anomaly[0])


def run(
    cfg: GadgetConfig,
    faults=(),
    forced_outcomes=None,
    rng: np.random.Generator | None = None,
) -> GadgetOutcome:
    """Execute one (possibly faulty) pass of the gadget of ``cfg`` and
    decode it.

    The run is one walk of :func:`sample_branches` under the Pauli frame of
    ``faults``, an iterable of (location index, PauliString) pairs on
    ``build_circuit(cfg)``; a fault whose X part would reach a CZ(theta)
    raises FrameError.
    ``forced_outcomes`` may fix any subset of the measurement outcomes
    (entries of +1/-1, with None meaning "sample"); forcing an outcome of
    zero branch probability raises BranchError.  Each sampled readout draws
    exactly one ``rng.random()``, in measurement order, so a seeded
    generator replays the same run.  ``output_state`` on the returned
    outcome is the raw block-3 state; applying ``correction`` maps it to
    the target on accepted noiseless runs.
    """
    n_meas = cfg.num_measurements
    forced: list[int | None]
    if forced_outcomes is None:
        forced = [None] * n_meas
    else:
        forced = list(forced_outcomes)
        if len(forced) != n_meas:
            raise RecordError(f"forced outcome list has length {len(forced)}, expected {n_meas}")
        if any(v not in (None, +1, -1) for v in forced):
            raise RecordError("forced outcomes must be +1, -1 or None")
    sampler = rng if rng is not None else np.random.default_rng()
    # a draw below 0 forces +1, one above 1 forces -1
    uniforms = np.array([{None: 0.0, +1: -1.0, -1: 2.0}[v] for v in forced])
    free = [m for m, v in enumerate(forced) if v is None]
    uniforms[free] = sampler.random(len(free))
    branches = sample_branches(cfg, fault_frame(cfg, faults)[None], uniforms[None])
    zl_bit, b, corrections = _decode_records(cfg, branches.records)
    outcome = _outcome(cfg, tuple(branches.records[0].tolist()), zl_bit[0], b[0], corrections[0])
    outcome.probability = float(branches.probabilities[0])
    if outcome.accepted:
        outcome.output_state = branches.states[0]
        cls, fid, anomaly = _classify_states(cfg, branches.states, corrections)
        outcome.logical_class = _CLASS_ORDER[cls[0]]
        outcome.class_fidelity = float(fid[0])
        outcome.anomaly = bool(anomaly[0])
    return outcome


def accept_probability_exact(n: int) -> Fraction:
    """Exact acceptance probability 2^(1-n) C(n, (n-1)/2) of the theta=pi/4 gadget."""
    if n < 1 or n % 2 == 0:
        raise ConfigError(f"acceptance probability is defined for odd n, got {n}")
    return Fraction(2 * math.comb(n, (n - 1) // 2), 2**n)
