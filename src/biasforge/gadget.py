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
(parity bit, b, number of +1 block-2 outcomes).  Every noiseless branch
leaves block 3 in the code space, as u|+>^n + v|->^n, so the table is
read, once per config, from four closed-form fidelities per branch, of
its output under I, X_L, Z_L and Y_L to the target state: a key maps to
the logical Pauli that takes its branches' outputs to the target, and
record keys whose branches admit no such Pauli (e.g. |alpha| in {0, n}
for theta = pi/4) are rejected, which reproduces the
n - |alpha| = |alpha| +/- 1 acceptance rule.  A branch lands in one of
five outcome bins: rejected, or the class I, X_L, Z_L or Y_L of its
corrected output.  A code-space output's four class fidelities sum to 2,
so its best one is at least 1/2; one that reaches no class above 0.99
is a wrong-angle output, booked Z_L (:func:`_decoder`).

A fault is a (location index, X mask, Z mask) triple, a Pauli on global
qubit ids (bit q for qubit q), applied after its location executes, or
before readout at a MeasX location, on qubits live there.  It reaches the
branch functions only as the frame code (below) that :func:`fault_frame`
makes of a fault list: the XOR of the codes of its single-qubit Z and X
parts, read from one table per config (:func:`_frame_table`) that a
backward pass over the locations builds.  A location outside the circuit,
a negative mask, a qubit not live at its location and an X part that
would reach a CZ(theta) are refused, in that order.

Execution: no engine runs the circuit.  The noiseless circuit is Clifford
after its CZ(theta) gates, so its branch table, each row a record, its
probability and its block-3 amplitudes (u, v), is built in closed form,
once per config (:func:`_noiseless_table`).  Faults run nothing either.  Every
location a fault event meets after it fires is Clifford: Z parts commute
with the diagonal gates, and the X events the noise model emits fire after
a qubit's only CZ(theta).  So a fault is a Pauli frame of readout flips
and a block-3 Pauli (:func:`fault_frame`), and a faulted branch is a
noiseless row read through its frame; no branch's state is formed.  A
record is stored one way: a packed readout word, an int64 with bit m set
where readout m reads -1.  :func:`enumerate_branches` lists the branches
under a readout-flip mask, the noiseless rows with the mask XORed into
their words, since rows and probabilities depend only on the readout
flips; the block-3 Pauli, code >> M, is no property of a branch.
:func:`frame_bins` classifies (row, frame code) pairs: the code's readout
flips are XORed into the row's word, and the decode reads the word's bit
fields.  A branch's class is then one lookup at its row and the logical
image of the Pauli its correction and frame leave on block 3, which on
the code space is fixed by the parity of the Pauli's X mask and the
majority of its Z mask.  The decoder build (:func:`_decoder`) makes the
correction lookup, the (B, 4) class table and the logical image of every
block-3 Pauli once per config.  A code's masses over the rows depend on
it only through one of 16n + 17 statistics of its decode fields and
logical image (:func:`_frame_statistics`), so both estimators read one
table of the masses of one code per statistic (:func:`_statistic_codes`),
binned once per config with :func:`frame_bins`.
"""

from __future__ import annotations

import enum
import functools
import math
import types
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# largest simulated n: _decoder holds a 2^(2n)-entry logical-image array, and the
# state-vector oracles the tables are checked against reach n = 7
SIM_MAX_N = 7
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
            raise ConfigError(
                f"code length n={self.n} exceeds SIM_MAX_N={SIM_MAX_N} "
                "(the decoder build holds a 2^(2n)-entry logical-image array, and the state-vector "
                "oracles that check the tables reach n=7)"
            )
        for name, r in (("r_z", self.r_z), ("r_zz", self.r_zz)):
            if r < 1 or r % 2 == 0:
                raise ConfigError(f"{name}={r} must be odd and >= 1 (majority votes need odd counts)")
        # the readout count M: stored, since every enumerate_branches range check reads it
        object.__setattr__(self, "num_measurements", self.r_z + self.r_zz + 2 * self.n)
        if self.num_measurements + 2 * self.n > FRAME_BITS:
            raise ConfigError(
                f"r_z + r_zz + 4n = {self.num_measurements + 2 * self.n} exceeds FRAME_BITS={FRAME_BITS} "
                "(a Pauli frame holds M readout flips and a 2n-bit block-3 Pauli in one int64)"
            )
        # every lru_cache lookup hashes the config: build the field tuple once
        object.__setattr__(self, "_hash", hash((self.n, self.theta, self.r_z, self.r_zz)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def plus_i(cls, n: int, r: int = 1, r_zz: int | None = None) -> "GadgetConfig":
        return cls.custom(n, math.pi / 2, r, r_zz)

    @classmethod
    def t_state(cls, n: int, r: int = 1, r_zz: int | None = None) -> "GadgetConfig":
        return cls.custom(n, math.pi / 4, r, r_zz)

    @classmethod
    def custom(cls, n: int, theta: float, r: int = 1, r_zz: int | None = None) -> "GadgetConfig":
        return cls(n=n, theta=theta, r_z=r, r_zz=r if r_zz is None else r_zz)


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
# The noiseless branch table in closed form, and the Pauli frames that read
# it (see the module docstring).


@dataclass(frozen=True, eq=False)
class Branches:
    """Measurement branches stacked as rows: all branches of one readout-flip
    mask.  The noiseless rows are in the depth-first (+1 outcome first)
    order of their records, and a view under a mask keeps that row order,
    so branch i is read from noiseless row i.  A branch is its packed
    record and its probability; its block-3 state is its row's state under
    a frame code's Pauli, which no engine forms."""

    words: np.ndarray  # (B,) int64 packed records, bit m set where readout m reads -1
    probabilities: np.ndarray  # (B,)
    num_measurements: int

    @functools.cached_property
    def records(self) -> np.ndarray:
        """(B, num_measurements) read-only int8 records, +1 / -1, unpacked
        from the words."""
        records = (1 - 2 * ((self.words[:, None] >> np.arange(self.num_measurements)) & 1)).astype(np.int8)
        records.flags.writeable = False
        return records

    def __len__(self) -> int:
        return len(self.probabilities)


@functools.lru_cache(maxsize=64)
def _noiseless_table(cfg: GadgetConfig) -> tuple[Branches, np.ndarray]:
    """(branches, amplitudes), read-only: the branches of the noiseless
    circuit in closed form, which every faulted enumeration, sampled run and
    table built from the noiseless circuit reads, and each row's block-3
    state u|+>^n + v|->^n as a (B, 2) complex array of its unnormalised
    (u, v), |u|^2 + |v|^2 = 16 times the row's probability, which only the
    decoder build (:func:`_decoder`) reads.

    Everything after the CZ(theta) gates is Clifford, so each branch is a
    stabilizer computation on the product phase state they make.  In the X
    basis (bit 1 for |->) that state is sum_x A_x |x>|x> on blocks 1 and
    2, A_x = cos(theta/2)^(n-h) (-i sin(theta/2))^h with h = |x|.  The
    Z-parity readout zl of block 1 (Z^n flips every X bit) and the block-1
    readout x leave block 2 in A|x> + A'|~x>, A = A_x and A' = (-1)^zl
    A_~x.  The joint readout b and the block-2 readout y, x or ~x, leave
    block 3 in u|+>^n + v|->^n, (u, v) = (A, (-1)^b A') if y = x, else
    (A', (-1)^b A).  A row's probability is (|A|^2 + |A'|^2) / 16, taken
    as (c^(n-h) s^h + c^h s^(n-h)) / 16 with c = (1 + cos theta)/2 and
    s = 1 - c, which makes every |+i> row exactly 2^-(n+3).

    Row index bits, most significant first, are zl, x_0 .. x_(n-1), b and
    y_0, the depth-first (+1 first) order of the records; the r_z (r_zz)
    repeated parity readouts all read zl (b).  Rows of probability 0 are
    left out: at theta = 0 or pi, 16 rows remain.
    """
    n, r_z, r_zz = cfg.n, cfg.r_z, cfg.r_zz
    index = np.arange(8 << n)
    zl, b, y_0 = index >> n + 2, index >> 1 & 1, index & 1
    x = sum((index >> n + 1 - j & 1) << j for j in range(n))
    same = y_0 == x & 1  # y = x, else y = ~x
    y = np.where(same, x, x ^ (1 << n) - 1)
    words = zl * ((1 << r_z) - 1) | x << r_z | b * ((1 << r_zz) - 1) << r_z + n | y << r_z + n + r_zz
    h = _popcount(x, n)
    c = (1 + math.cos(cfg.theta)) / 2
    s = 1 - c
    probs = (c ** (n - h) * s**h + c**h * s ** (n - h)) / 16
    cos_half, sin_half, phase = math.cos(cfg.theta / 2), math.sin(cfg.theta / 2), np.array([1, -1j, -1, 1j])
    a = cos_half ** (n - h) * sin_half**h * phase[h % 4]  # phase[k] = (-i)^k
    a_bar = (1 - 2 * zl) * cos_half**h * sin_half ** (n - h) * phase[(n - h) % 4]
    u, v = np.where(same, a, a_bar), (1 - 2 * b) * np.where(same, a_bar, a)
    kept = np.flatnonzero(probs > 0)
    words, probs, amplitudes = words[kept], probs[kept], np.stack((u, v), axis=1)[kept]
    for array in (words, probs, amplitudes):
        array.flags.writeable = False
    return Branches(words, probs, cfg.num_measurements), amplitudes


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
    """The frame code of a list of (location index, X mask, Z mask) faults
    on ``build_circuit(cfg)``: bit m < M flips readout m, and code >> M is
    the block-3 Pauli, X mask << n | Z mask.

    A fault is pushed through every later location (a MeasX fault fires
    before its own readout): a CPHASE turns X on one qubit into X on it and
    Z on the other, a MeasX flips its readout when its qubit carries Z and
    then drops the qubit.  What is left sits on block 3, in its local qubit
    order.  Every step is linear, so a fault's code is the XOR of the codes
    of its single-qubit Z and X parts, read from :func:`_frame_table`, and
    the frame of a union of fault lists is the XOR of theirs.  Faults are
    checked in list order: a location outside [0, L) or a negative mask
    raises ValueError, a fault touching any qubit not live at its location
    KeyError, and then one whose X part would reach a CZ(theta) FrameError.
    """
    table, code = _frame_table(cfg), 0
    for location, xs, zs in faults:
        if not 0 <= location < len(table):
            raise ValueError(f"fault location {location} is outside the circuit's locations 0..{len(table) - 1}")
        if xs < 0 or zs < 0:
            raise ValueError(f"fault masks x={xs:#x} z={zs:#x} at location {location} must be non-negative")
        live = table[location]
        if (xs | zs) & ~sum(1 << q for q in live):
            raise KeyError(f"fault x={xs:#x} z={zs:#x} at location {location} touches a qubit not live there")
        for q, (z, x) in live.items():
            if xs >> q & 1:
                if x is None:
                    raise FrameError(f"X part of fault x={xs:#x} at location {location} reaches a CZ(theta)")
                code ^= x
            if zs >> q & 1:
                code ^= z
    return code


@functools.lru_cache(maxsize=4096)
def _flipped(cfg: GadgetConfig, flips: int) -> Branches:
    """The branches under the readout-flip mask ``flips`` < 2^M, read-only:
    the noiseless table in its own row order with ``flips`` XORed into its
    words.  Only the words are new; the probabilities are the table's own
    array."""
    table = _noiseless_table(cfg)[0]
    words = table.words ^ flips
    words.flags.writeable = False
    return Branches(words, table.probabilities, cfg.num_measurements)


def enumerate_branches(cfg: GadgetConfig, flips: int = 0) -> Branches:
    """All measurement branches of the circuit of ``cfg`` under the
    readout-flip mask ``flips`` (the low M bits of a frame code,
    :func:`fault_frame`) with positive probability, read-only.

    Under mask 0 they are the noiseless branch table, built once per
    config in closed form (:func:`_noiseless_table`), its rows in the
    depth-first (+1 first) order of their records.  Otherwise they are the
    noiseless rows, in that same row order, with the readouts in the mask
    negated (kept per mask), each with its row's probability.  A frame
    code's block-3 Pauli, code >> M, leaves rows and probabilities as they
    are and is no part of a branch: a caller that needs it takes it from
    the code, as :func:`frame_bins` does.  A mask outside [0, 2^M), a code
    with block-3 Pauli bits among them, raises ValueError.
    """
    if not 0 <= flips < 1 << cfg.num_measurements:
        raise ValueError(f"readout-flip mask {flips} is outside [0, 2^{cfg.num_measurements}): no block-3 Pauli bits")
    return _flipped(cfg, flips) if flips else _noiseless_table(cfg)[0]


# ---------------------------------------------------------------------------
# The logical fidelities, the decoder build (correction and class tables),
# decoding.  _word_fields holds the decoding rule, which the decoder build
# and frame_bins both read.

# Outcome bins shared by enumeration and Monte Carlo: the accepted classes I,
# XL, ZL, YL (in the order of _logical_masks), then rejected records.
BIN_XL, BIN_ZL, BIN_YL = 1, 2, 3
BIN_REJECTED = 4
N_BINS = 5

_CLASS_FIDELITY = 0.99  # an output reaches a class above this fidelity


class CorrectionTableError(RuntimeError):
    """The noiseless branch set admits no consistent correction or class table."""


def _logical_masks(n: int) -> np.ndarray:
    """The logical Paulis I, X_L = X_1, Z_L = Z^n and Y_L = X_L Z_L of the
    n-qubit code, indexed by outcome bin, packed as X mask << n | Z mask."""
    x_l, z_l = 1 << n, (1 << n) - 1
    return np.array([0, x_l, z_l, x_l | z_l])


def _logical_fidelities(cfg: GadgetConfig) -> np.ndarray:
    """(B, 4) fid[row, L] = |<t| L |s>|^2 of each noiseless row's block-3
    state s against the target t, for L in (I, XL, ZL, YL), in closed form.

    Both lie in the code space.  In its basis (|+>^n, |->^n), s is the
    row's (u, v) normalised (:func:`_noiseless_table`) and t, (|0>_L +
    e^{i theta}|1>_L)/sqrt(2) with |0>_L (|1>_L) the even (odd) parity half
    of |+>^n, is ((1 + e^{i theta})/2, (1 - e^{i theta})/2); X_L = X_1
    negates |->^n and Z_L = Z^n swaps the two.
    """
    amplitudes = _noiseless_table(cfg)[1]
    s = amplitudes / np.sqrt((abs(amplitudes) ** 2).sum(axis=1, keepdims=True))
    phase = np.exp(1j * cfg.theta)
    t = np.conj([[1 + phase, 1 + phase], [1 - phase, phase - 1]]) / 2  # columns: t, X_L t
    return abs(np.concatenate((s @ t, s[:, ::-1] @ t), axis=1)) ** 2  # I, XL, then ZL, YL on Z_L s


@functools.lru_cache(maxsize=64)
def _decoder(cfg: GadgetConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(table, logical, lookup), read-only, built once per config from
    the noiseless rows: their logical fidelities (:func:`_logical_fidelities`)
    and their packed records.

    Every row's block-3 state lies in the code space, so a block-3 Pauli q
    (X mask << n | Z mask) meets it only as its logical image logical[q],
    an index into (I, XL, ZL, YL): every X_j is X_L times stabilizers, so
    the X part reads as X_L^(its parity); a Z mask b other than 0 and ~0
    leaves the code space, and of b and ~b = b Z_L exactly one is a
    correctable (weight <= (n-1)/2) Z pattern, so the Z part reads as Z_L
    where b has majority weight.

    table[row, L] is the outcome bin of an accepted output that is the
    row's state under a Pauli of logical image L (correction times frame
    Pauli).  A class is the target hit with its logical Pauli and any
    correctable Z pattern, so a stray correctable Z is I, not ZL, and
    class c reaches fidelity fid[row, L ^ c].  The first class in bin
    order above fidelity 0.99 wins.  An output reaching none is a
    wrong-angle output (a logical-Z-axis rotation, e.g. a correlated ZZ
    fault steering a record into acceptance), booked ZL as the analytic
    Z_L budget does; for T its best fidelity goes down to 0.9 at n=3, 0.862
    at n=5 and 0.855 at n=7.  A row's four fidelities sum to 2, so every
    output is at fidelity at least 1/2 to some class and has a class bin.
    A fidelity within 1e-9 of 0.99 would leave the bin to rounding:
    CorrectionTableError.

    The rule is meant for theta away from 0 and pi.  Near them rows of
    probability about 1e-16 have states within 1e-9 of the target, so at
    n=3 it accepts 16 record keys at theta = 1e-5, 1e-7 and pi - 1e-7
    against 8 at 1e-3.  No figure, golden or plan reads such an angle.

    lookup[zl_bit, b, alpha] is the correction of a record key, an index
    into :func:`_logical_masks`, -1 where the key is not correctable.  A
    noiseless row's correction is the first logical Pauli L in bin order
    with fid[row, L] > 1 - 1e-9 (-1 for none); the rows of one key must
    agree, else CorrectionTableError.  The keys are the fields
    (:func:`_word_fields`) of the noiseless rows' packed records
    (:attr:`Branches.words`).
    """
    n, fid = cfg.n, _logical_fidelities(cfg)
    if np.any(np.abs(fid - _CLASS_FIDELITY) < 1e-9):
        raise CorrectionTableError(f"a class fidelity at theta={cfg.theta} lies within 1e-9 of {_CLASS_FIDELITY}")
    paulis = np.arange(4)
    above = fid[:, paulis[:, None] ^ paulis] > _CLASS_FIDELITY  # [row, L, class]
    table = np.where(above.any(axis=2), above.argmax(axis=2), BIN_ZL).astype(np.int8)
    q = np.arange(1 << 2 * n)
    logical = ((_popcount(q >> n, n) & 1) | (_popcount(q & (1 << n) - 1, n) > n // 2) << 1).astype(np.int8)

    zl_bits, bs, correlated, alphas = _word_fields(cfg, _noiseless_table(cfg)[0].words)
    if not correlated.all():
        raise CorrectionTableError("noiseless branch with mismatched X records")
    hits = fid > 1 - 1e-9
    found = np.where(hits.any(axis=1), hits.argmax(axis=1), -1)
    if np.all(found < 0):
        raise CorrectionTableError("no branch is Pauli-correctable to the target")
    lookup, keys = np.full((2, 2, n + 1), -1, dtype=np.int8), (zl_bits, bs, alphas)
    lookup[keys] = found  # a key whose rows disagree keeps one of them
    if (clash := np.flatnonzero(lookup[keys] != found)).size:
        key = tuple(int(k[clash[0]]) for k in keys)
        raise CorrectionTableError(f"the noiseless rows of branch key {key} need different corrections")
    for array in (table, logical, lookup):
        array.flags.writeable = False
    return table, logical, lookup


def correction_table(cfg: GadgetConfig) -> dict[tuple[int, int, int], int]:
    """(zl_bit, b, alpha_count) -> block-3 correction, packed as X mask << n
    | Z mask (the form of :func:`_logical_masks`).

    Built from the noiseless branch table of ``cfg`` itself: every key of
    a correctable branch maps to the logical Pauli that takes the branch's
    output to the target, the first in (I, XL, ZL, YL) whose logical
    fidelity (:func:`_logical_fidelities`) is 1 within 1e-9.  Keys absent
    from the table are not Pauli-correctable to the target and are rejected
    by the decoder.  A dict view of the lookup array of :func:`_decoder`.
    """
    masks = _logical_masks(cfg.n).tolist()
    return {key: masks[c] for key, c in np.ndenumerate(_decoder(cfg)[2]) if c >= 0}


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
    index in (I, XL, ZL, YL) of an accepted branch, BIN_REJECTED for a
    rejected record.

    The row's packed record (:attr:`Branches.words`) XOR the code's low M
    bits is the branch's record, whose fields give its correction; the class
    table is read at the row and the logical image of the correction times
    the block-3 Pauli code >> M, the correction's index XOR the Pauli's
    logical image (:func:`_decoder`).  A row outside [0, B) or a code
    outside [0, 2^(M + 2n)) raises ValueError.
    """
    table, logical, lookup = _decoder(cfg)
    words = _noiseless_table(cfg)[0].words
    num, bits = cfg.num_measurements, cfg.num_measurements + 2 * cfg.n
    if len(rows) and not (
        0 <= rows.min() <= rows.max() < len(words) and 0 <= codes.min() <= int(codes.max()) < 1 << bits
    ):
        raise ValueError(f"rows must lie in [0, {len(words)}) and frame codes in [0, 2^{bits})")
    zl_bit, b, correlated, alpha = _word_fields(cfg, words[rows] ^ (codes & ((1 << num) - 1)))
    corrections = np.where(correlated, lookup[zl_bit, b, alpha], -1)
    bins = table[rows, corrections ^ logical[codes >> num]]
    return np.where(corrections >= 0, bins, BIN_REJECTED)


def _frame_statistics(cfg: GadgetConfig, codes: np.ndarray) -> np.ndarray:
    """The statistic of each frame code in [0, 2^(M + 2n)), one of 16n + 17
    values: two codes of one statistic give the noiseless rows the same
    masses in every bin, up to summation order.

    It reads the decoder's own fields of the code's readout flips
    (:func:`_word_fields`) and the logical image of its block-3 Pauli
    (:func:`_decoder`): ((zl_bit * 2 + b) * (n + 1) + alpha) * 4 + image,
    or 16(n + 1) where the block-1 and block-2 flips F_1 and F_2 are
    uncorrelated.  That suffices.  A row repeats each parity readout, so
    the flips' majority votes XOR into the row's.  Its blocks 1 and 2 read
    x and either x or ~x, so its flipped records are correlated iff
    F_1 ^ F_2 is 0 or ~0; else every row is rejected.  Its probability and
    fidelities depend on h = |x|, not on which x, and C(w, j) C(n - w,
    h - j) rows of weight h meet w = |F_2| = n - alpha in j bits, which
    sets the alpha of their flipped records.  The Pauli meets a class only
    through its logical image.
    """
    num = cfg.num_measurements
    zl_bit, b, correlated, alpha = _word_fields(cfg, codes & (1 << num) - 1)
    stats = ((zl_bit * 2 + b) * (cfg.n + 1) + alpha) * 4 + _decoder(cfg)[1][codes >> num]
    return np.where(correlated, stats, 16 * (cfg.n + 1))


def _statistic_codes(cfg: GadgetConfig) -> np.ndarray:
    """One frame code of each statistic of :func:`_frame_statistics`, in
    statistic order, which that function maps back to arange(16n + 17).

    A correlated statistic's code flips every parity readout of its set
    zl_bit and b, the first n - alpha readouts of block 1 and of block 2,
    and carries X_1 for an odd X parity and Z^n for a Z majority.  The
    uncorrelated code 1 << r_z, block 1's first readout alone, comes last;
    at n = 1 it is correlated, as every code is, and no code takes that
    statistic.
    """
    n, r_z, r_zz = cfg.n, cfg.r_z, cfg.r_zz
    zl_bit, b, alpha, image = np.unravel_index(np.arange(16 * (n + 1)), (2, 2, n + 1, 4))
    votes = zl_bit * ((1 << r_z) - 1) | b * ((1 << r_zz) - 1) << r_z + n
    flips = ((1 << n - alpha) - 1) * (1 + (1 << n + r_zz)) << r_z  # blocks 1 and 2 alike
    pauli = (image & 1) << n | (image >> 1) * ((1 << n) - 1)
    return np.append(votes | flips | pauli << cfg.num_measurements, 1 << r_z)


def accept_probability_exact(n: int) -> Fraction:
    """Exact acceptance probability 2^(1-n) C(n, (n-1)/2) of the theta=pi/4 gadget."""
    if n < 1 or n % 2 == 0:
        raise ConfigError(f"acceptance probability is defined for odd n, got {n}")
    return Fraction(2 * math.comb(n, (n - 1) // 2), 2**n)
