"""Reference states and classifier of gadget outputs, one state vector at a time.

The package never forms a branch's block-3 state: a branch is a noiseless
row read through a frame, and outputs are classified from the Pauli class
table of the one decoder build per config (``gadget._decoder``).  This
module forms the states and states the same rule on them, by their overlaps
with the target's Pauli images, and is the oracle the tests check the table
and the engine against.

It also keeps a record-matrix classifier, the oracle of
``gadget.frame_bins``, which decodes packed readout words by bit fields:

* ``rows_under_frames`` reads noiseless rows through frame codes as
  (G, M) +/-1 record matrices;
* ``record_fields`` and ``decode_records`` decode the records by sums over
  their columns;
* ``record_bins`` reads the decoder's class table at each branch's state
  and its correction times its frame Pauli.

It keeps the forward walk of fault frames, the oracle of
``gadget.fault_frame``: ``forward_frame`` pushes each fault through every
later location, where the package reads one backward table
(``gadget._frame_table``).

* ``pauli_action`` applies a Pauli string to amplitudes as
  ``i**k * (X part) * (Z part)``, where ``k`` counts the qubits carrying
  both an X and a Z (i.e. Y = iXZ).  Global phase is irrelevant to every
  check (states are compared through fidelity), but the convention is kept
  fixed.
* ``branch_states`` gives each branch its block-3 state: its noiseless
  row's state under its frame Pauli.
* The code's logical Paulis are stated here, not read from the package:
  X_L = X on qubit 0, Z_L = Z on every qubit and Y_L = X_L Z_L.
* Each class in (I, XL, ZL, YL) is represented by the target hit with that
  logical Pauli and any correctable-weight (<= (n-1)/2) physical Z pattern
  on the output block.  The first class reached at fidelity > 0.99 wins; an
  output reaching none is a wrong-angle output, booked ZL with its best
  fidelity, and one below fidelity 0.5 to every class is an anomaly.
"""

import functools

import numpy as np

from biasforge import gadget as gd
from biasforge.statevec import PauliString

CLASS_ORDER = (gd.LogicalClass.I, gd.LogicalClass.XL, gd.LogicalClass.ZL, gd.LogicalClass.YL)


def logical_paulis(n: int) -> dict[gd.LogicalClass, PauliString]:
    """The logical Paulis of the n-qubit phase-flip repetition code."""
    x_l, z_l = PauliString.x_on([0]), PauliString.z_on(range(n))
    return dict(zip(CLASS_ORDER, (PauliString(), x_l, z_l, x_l.compose(z_l))))


def state_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)) ** 2)


def pauli_action(num_qubits: int, xs, zs) -> tuple[np.ndarray, np.ndarray]:
    """(source, phase) with (P a)[..., i] = phase[i] * a[..., source[i]].

    ``xs`` and ``zs`` are integer masks, or arrays of them that broadcast
    against the amplitude index (a (G, 1) column gives one row per Pauli).
    """
    source = np.arange(1 << num_qubits) ^ xs
    parity = np.zeros_like(source)
    ys = 0  # qubits carrying Y
    for p in range(num_qubits):
        parity ^= ((source & zs) >> p) & 1
        ys = ys + (((xs & zs) >> p) & 1)
    return source, (1j**ys) * (1 - 2 * parity)


def apply_pauli(states: np.ndarray, n: int, pauli: PauliString) -> np.ndarray:
    """``pauli`` (local qubit ids 0..n-1) applied along the last axis."""
    source, phase = pauli_action(n, pauli.xs, pauli.zs)
    return states[..., source] * phase


def branch_states(cfg: gd.GadgetConfig, branches: gd.Branches) -> list[tuple[tuple[int, ...], float, np.ndarray]]:
    """(record, probability, block-3 state) of each branch, in branch order:
    the state is its noiseless row's state under its frame Pauli (X mask << n
    | Z mask), in canonical qubit order."""
    n = cfg.n
    column = branches.paulis[:, None]
    source, phase = pauli_action(n, column >> n, column & ((1 << n) - 1))
    states = np.take_along_axis(gd._noiseless_table(cfg)[1][branches.rows], source, axis=1) * phase
    return list(zip(map(tuple, branches.records.tolist()), branches.probabilities.tolist(), states))


def rows_under_frames(cfg: gd.GadgetConfig, rows: np.ndarray, frames: np.ndarray) -> gd.Branches:
    """Noiseless table row ``rows[g]`` read through the frame code
    ``frames[g]`` (see gadget.fault_frame), one branch per entry, in entry
    order: the code's low M bits negate readouts, code >> M is the block-3
    Pauli, and the probability is the row's own.  Each is the branch that
    gadget.enumerate_branches gives for that row under that frame."""
    table, num = gd._noiseless_table(cfg)[0], cfg.num_measurements
    # -r is r ^ -2 for a readout r = +1 / -1
    records = table.records[rows] ^ ((frames[:, None] >> np.arange(num)) & 1).astype(np.int8) * np.int8(-2)
    return gd.Branches(records, table.probabilities[rows], rows, frames >> num)


def record_fields(cfg: gd.GadgetConfig, records: np.ndarray):
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


def decode_records(cfg: gd.GadgetConfig, records: np.ndarray):
    """(zl_bit, b, correction): the correction is an index into
    gadget._logical_masks (the logical Pauli applied to block 3), -1 for a
    rejected record."""
    zl_bit, b, correlated, alpha = record_fields(cfg, records)
    return zl_bit, b, np.where(correlated, gd._decoder(cfg)[2][zl_bit, b, alpha], -1)


def record_bins(cfg: gd.GadgetConfig, branches: gd.Branches) -> np.ndarray:
    """Per-branch outcome bin: the class index in (I, XL, ZL, YL) of an
    accepted branch, BIN_ANOMALY for an accepted anomaly, BIN_REJECTED for
    a rejected record: the class table read at the branch's noiseless
    state and its correction times its frame Pauli."""
    corrections = decode_records(cfg, branches.records)[2]
    state, table = gd._decoder(cfg)[:2]
    bins = table[state[branches.rows], gd._logical_masks(cfg.n)[corrections] ^ branches.paulis]
    return np.where(corrections >= 0, bins, gd.BIN_REJECTED)


def corrections(cfg: gd.GadgetConfig, records) -> list[PauliString | None]:
    """The decoder's block-3 correction (local qubit ids 0..n-1) of each
    +/-1 record, None where the record is rejected."""
    found = decode_records(cfg, np.asarray(records, dtype=np.int8))[2]
    logical = logical_paulis(cfg.n)
    return [logical[CLASS_ORDER[c]] if c >= 0 else None for c in found.tolist()]


@functools.lru_cache(maxsize=None)
def _representatives(cfg: gd.GadgetConfig) -> tuple[np.ndarray, int]:
    """(2^n, class x Z pattern) conjugated class representatives, and the
    number of Z patterns per class."""
    n = cfg.n
    target = gd.target_state(cfg)
    patterns = [m for m in range(1 << n) if bin(m).count("1") <= (n - 1) // 2]
    logical = logical_paulis(n)
    reps = [apply_pauli(target, n, logical[cls].compose(PauliString(zs=m))) for cls in CLASS_ORDER for m in patterns]
    return np.array(reps).conj().T, len(patterns)


def classify_states(states: np.ndarray, cfg: gd.GadgetConfig):
    """(class index into CLASS_ORDER, fidelity, anomaly) arrays of a (K, 2^n)
    stack of corrected outputs."""
    reps, patterns = _representatives(cfg)
    fid = (np.abs(states @ reps) ** 2).reshape(len(states), len(CLASS_ORDER), patterns).max(axis=2)
    rows = np.arange(len(states))
    first = (fid > 0.99).argmax(axis=1)
    found = fid[rows, first] > 0.99
    best = fid.max(axis=1)
    cls = np.where(found, first, CLASS_ORDER.index(gd.LogicalClass.ZL))
    return cls, np.where(found, fid[rows, first], best), best < 0.5


def outcome_bins(states: np.ndarray, cfg: gd.GadgetConfig) -> np.ndarray:
    """The outcome bins (gadget.BIN_*) of a stack of corrected accepted outputs."""
    cls, _, anomaly = classify_states(states, cfg)
    return np.where(anomaly, gd.BIN_ANOMALY, cls)


def classify(state: np.ndarray, correction: PauliString | None, cfg: gd.GadgetConfig):
    """(class, fidelity, anomaly) of one accepted output under its
    correction (local qubit ids on block 3, or None)."""
    state = np.asarray(state, dtype=np.complex128)
    if correction is not None:
        state = apply_pauli(state, cfg.n, correction)
    cls, fid, anomaly = classify_states(state[None], cfg)
    return CLASS_ORDER[cls[0]], float(fid[0]), bool(anomaly[0])


def forward_frame(cfg: gd.GadgetConfig, faults) -> int:
    """The frame code (gadget.fault_frame) of a list of (location index,
    PauliString) faults, each pushed forward through every later location
    (a MeasX fault fires before its own readout): a CPHASE turns X on one
    qubit into X on it and Z on the other, a MeasX flips its readout when
    its qubit carries Z and then drops the qubit, and what is left sits on
    block 3.  Raises as fault_frame does: ValueError for a location outside
    [0, L), KeyError for a fault on a qubit not live at its location and
    gadget.FrameError for an X part that reaches a CZ(theta)."""
    locations, n, code = gd.build_circuit(cfg).locations, cfg.n, 0
    for location, pauli in faults:
        if not 0 <= location < len(locations):
            raise ValueError(f"fault location {location} is outside the circuit's locations 0..{len(locations) - 1}")
        live = {loc.qubits[0] for loc in locations[: location + 1] if loc.kind is gd.LocationKind.PREP_X}
        live -= {loc.qubits[0] for loc in locations[:location] if loc.kind is gd.LocationKind.MEAS_X}
        if any(q not in live for q in pauli.qubits()):
            raise KeyError(f"fault {pauli} at location {location} touches a qubit not live there")
        start = location if locations[location].kind is gd.LocationKind.MEAS_X else location + 1
        m = sum(loc.kind is gd.LocationKind.MEAS_X for loc in locations[:start])
        xs, zs, flips = pauli.xs, pauli.zs, 0
        for t in range(start, len(locations)):
            kind, qubits = locations[t].kind, locations[t].qubits
            if kind is gd.LocationKind.CZ_THETA:
                if any((xs >> q) & 1 for q in qubits):
                    raise gd.FrameError(f"X part of fault {pauli} at location {location} reaches CZ(theta) at {t}")
            elif kind is gd.LocationKind.CPHASE:
                a, b = qubits
                zs ^= (((xs >> a) & 1) << b) | (((xs >> b) & 1) << a)
            elif kind is gd.LocationKind.MEAS_X:
                q = qubits[0]
                flips |= ((zs >> q) & 1) << m
                xs &= ~(1 << q)
                zs &= ~(1 << q)
                m += 1
        code ^= flips | (xs >> 2 * n << n | zs >> 2 * n) << cfg.num_measurements
    return code
