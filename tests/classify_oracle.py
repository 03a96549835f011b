"""Reference states and classifier of gadget outputs, one state vector at a time.

The package never forms a branch's block-3 state: a branch is a noiseless
row read through a frame, its noiseless state is two code-space amplitudes,
and outputs are classified from the (row, logical Pauli) class table of the
one decoder build per config (``gadget._decoder``).  This module forms the
2^n states (``target_state``, ``expand_states``) and states the same rule
on them, by their overlaps with the target's Pauli images under every
correctable Z pattern, and is the oracle the tests check the table and the
engine against.

It also keeps a record-matrix classifier, the oracle of
``gadget.frame_bins``, which decodes packed readout words by bit fields:

* ``rows_under_frames`` reads noiseless rows through the readout flips of
  frame codes as (G, M) +/-1 record matrices, ``Runs`` that name the row
  each run is read from (a branch of ``gadget.enumerate_branches`` is read
  from its own index, ``source_rows``);
* ``record_fields`` and ``decode_records`` decode the records by sums over
  their columns;
* ``record_bins`` reads the decoder's class table at each branch's row
  and the logical image of its correction times the block-3 Pauli of its
  frame code.

A branch carries no Pauli: ``gadget.enumerate_branches`` takes a
readout-flip mask (``readout_flips`` of a frame code), and the helpers
that need the block-3 Pauli take it from the code, code >> M.

It keeps the forward walk of fault frames, the oracle of
``gadget.fault_frame``: ``forward_frame`` pushes each fault through every
later location, where the package reads one backward table
(``gadget._frame_table``).  ``reference_events`` lists the noise model's
fault events, the oracle of the events of ``noise._event_table``.

* A Pauli is an (X mask, Z mask) pair of ints, bit q for qubit q
  (``mask``), and a fault a (location, X mask, Z mask) triple.
* ``pauli_action`` applies a Pauli to amplitudes as
  ``i**k * (X part) * (Z part)``, where ``k`` counts the qubits carrying
  both an X and a Z (i.e. Y = iXZ).  Global phase is irrelevant to every
  check (states are compared through fidelity), but the convention is kept
  fixed.
* ``branch_states`` gives each branch its block-3 state: its noiseless
  row's state, expanded from the row's amplitudes, under the block-3 Pauli
  of its frame code.
* The code's logical Paulis are stated here, not read from the package:
  X_L = X on qubit 0, Z_L = Z on every qubit and Y_L = X_L Z_L.
* Each class in (I, XL, ZL, YL) is represented by the target hit with that
  logical Pauli and any correctable-weight (<= (n-1)/2) physical Z pattern
  on the output block.  The first class reached at fidelity > 0.99 wins; an
  output reaching none is a wrong-angle output, booked ZL with its best
  fidelity, and one below fidelity 0.5 to every class is an anomaly.  A
  code-space output is never one (its four class fidelities sum to 2), so
  ``outcome_bins``, which has no bin for it, refuses one; ``classify``
  still flags it, e.g. on |0...0>, outside the code space.
"""

import functools
from dataclasses import dataclass

import numpy as np

from biasforge import gadget as gd

CLASS_ORDER = ("I", "XL", "ZL", "YL")
RATE_KINDS = ("z", "x", "zz")  # in the order of noise's rate indices


def mask(qubits) -> int:
    return sum(1 << q for q in set(qubits))


def logical_paulis(n: int) -> dict[str, tuple[int, int]]:
    """The (X mask, Z mask) logical Paulis of the n-qubit phase-flip
    repetition code, by class name."""
    x_l, z_l = mask([0]), mask(range(n))
    return dict(zip(CLASS_ORDER, ((0, 0), (x_l, 0), (0, z_l), (x_l, z_l))))


def target_state(cfg: gd.GadgetConfig) -> np.ndarray:
    """(|0>_L + e^{i theta} |1>_L)/sqrt(2) as a 2^n amplitude array: |0>_L
    (|1>_L) is the even (odd) parity half of |+>^n, renormalized."""
    odd = np.array([int(z).bit_count() & 1 for z in range(1 << cfg.n)], dtype=bool)
    return np.where(odd, np.exp(1j * cfg.theta), 1.0) * 2.0 ** (-cfg.n / 2)


def expand_states(n: int, amplitudes: np.ndarray) -> np.ndarray:
    """The (B, 2^n) normalised block-3 states u|+>^n + v|->^n, in canonical
    qubit order, of the (B, 2) amplitudes (u, v) of gadget._noiseless_table."""
    u, v = amplitudes[:, :1], amplitudes[:, 1:]
    signs = 1 - 2 * np.array([z.bit_count() & 1 for z in range(1 << n)])  # |->^n is signs * |+>^n
    return (u + v * signs) / np.sqrt(2**n * (abs(u) ** 2 + abs(v) ** 2))


def noiseless_states(cfg: gd.GadgetConfig) -> np.ndarray:
    """The (B, 2^n) normalised block-3 states of the noiseless rows of ``cfg``."""
    return expand_states(cfg.n, gd._noiseless_table(cfg)[1])


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


def apply_pauli(states: np.ndarray, n: int, pauli: tuple[int, int]) -> np.ndarray:
    """``pauli`` (X mask, Z mask on local qubit ids 0..n-1) applied along
    the last axis."""
    source, phase = pauli_action(n, *pauli)
    return states[..., source] * phase


def readout_flips(cfg: gd.GadgetConfig, code: int) -> int:
    """The readout-flip mask of a frame code, its low M bits: the argument
    gadget.enumerate_branches takes."""
    return code & ((1 << cfg.num_measurements) - 1)


@dataclass(frozen=True, eq=False)
class Runs(gd.Branches):
    """Branches read from any noiseless rows, in any order: ``rows[g]`` is
    the row that branch g is read from."""

    rows: np.ndarray


def source_rows(branches: gd.Branches) -> np.ndarray:
    """The noiseless row each branch is read from: a run's own row, or row
    i for branch i of gadget.enumerate_branches, which keeps the row
    order."""
    return branches.rows if isinstance(branches, Runs) else np.arange(len(branches))


def branch_states(
    cfg: gd.GadgetConfig, branches: gd.Branches, codes=0
) -> list[tuple[tuple[int, ...], float, np.ndarray]]:
    """(record, probability, block-3 state) of each branch, in branch order:
    the state is its noiseless row's state under the block-3 Pauli (X mask
    << n | Z mask) of its frame code, ``codes`` one for all branches or one
    per branch, in canonical qubit order."""
    n = cfg.n
    column = np.broadcast_to(codes, len(branches))[:, None] >> cfg.num_measurements
    source, phase = pauli_action(n, column >> n, column & ((1 << n) - 1))
    states = np.take_along_axis(noiseless_states(cfg)[source_rows(branches)], source, axis=1) * phase
    return list(zip(map(tuple, branches.records.tolist()), branches.probabilities.tolist(), states))


def rows_under_frames(cfg: gd.GadgetConfig, rows: np.ndarray, frames: np.ndarray) -> Runs:
    """Noiseless table row ``rows[g]`` read through the frame code
    ``frames[g]`` (see gadget.fault_frame), one branch per entry, in entry
    order: the code's low M bits negate readouts, and the probability is
    the row's own.  Each is the branch that gadget.enumerate_branches gives
    for that row under the code's readout flips; the block-3 Pauli, code >>
    M, is read from the codes by ``branch_states`` and ``record_bins``."""
    table, num = gd._noiseless_table(cfg)[0], cfg.num_measurements
    # -r is r ^ -2 for a readout r = +1 / -1
    records = table.records[rows] ^ ((frames[:, None] >> np.arange(num)) & 1).astype(np.int8) * np.int8(-2)
    return Runs((records < 0) @ (1 << np.arange(num)), table.probabilities[rows], num, rows)


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


def record_bins(cfg: gd.GadgetConfig, branches: gd.Branches, codes=0) -> np.ndarray:
    """Per-branch outcome bin: the class index in (I, XL, ZL, YL) of an
    accepted branch, BIN_REJECTED for a rejected record: the class table
    read at the branch's noiseless row and the logical image of its
    correction times the block-3 Pauli of its frame code, ``codes`` one
    for all branches or one per branch."""
    corrections = decode_records(cfg, branches.records)[2]
    table, logical = gd._decoder(cfg)[:2]
    paulis = np.asarray(codes) >> cfg.num_measurements
    bins = table[source_rows(branches), logical[gd._logical_masks(cfg.n)[corrections] ^ paulis]]
    return np.where(corrections >= 0, bins, gd.BIN_REJECTED)


def corrections(cfg: gd.GadgetConfig, records) -> list[tuple[int, int] | None]:
    """The decoder's block-3 correction (X mask, Z mask on local qubit ids
    0..n-1) of each +/-1 record, None where the record is rejected."""
    found = decode_records(cfg, np.asarray(records, dtype=np.int8))[2]
    logical = logical_paulis(cfg.n)
    return [logical[CLASS_ORDER[c]] if c >= 0 else None for c in found.tolist()]


@functools.lru_cache(maxsize=None)
def _representatives(cfg: gd.GadgetConfig) -> tuple[np.ndarray, int]:
    """(2^n, class x Z pattern) conjugated class representatives, and the
    number of Z patterns per class."""
    n = cfg.n
    target = target_state(cfg)
    patterns = [m for m in range(1 << n) if bin(m).count("1") <= (n - 1) // 2]
    logical = logical_paulis(n)
    reps = [apply_pauli(target, n, (logical[cls][0], logical[cls][1] ^ m)) for cls in CLASS_ORDER for m in patterns]
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
    cls = np.where(found, first, CLASS_ORDER.index("ZL"))
    return cls, np.where(found, fid[rows, first], best), best < 0.5


def outcome_bins(states: np.ndarray, cfg: gd.GadgetConfig) -> np.ndarray:
    """The outcome bins (gadget.BIN_*) of a stack of corrected accepted
    outputs, each the class index of the output.  The outputs must lie in
    the code space, where every one is at fidelity at least 1/2 to some
    class: an anomaly among them fails the call."""
    cls, _, anomaly = classify_states(states, cfg)
    assert not anomaly.any(), "an accepted output below fidelity 0.5 to every class"
    return cls


def classify(state: np.ndarray, correction: tuple[int, int] | None, cfg: gd.GadgetConfig):
    """(class name, fidelity, anomaly) of one accepted output under its
    correction (X mask, Z mask on local qubit ids of block 3, or None)."""
    state = np.asarray(state, dtype=np.complex128)
    if correction is not None:
        state = apply_pauli(state, cfg.n, correction)
    cls, fid, anomaly = classify_states(state[None], cfg)
    return CLASS_ORDER[cls[0]], float(fid[0]), bool(anomaly[0])


def reference_events(cfg: gd.GadgetConfig) -> list[tuple[str, int, int, int]]:
    """The elementary fault events of ``cfg``'s circuit, in location order,
    as (rate kind, location, X mask, Z mask): a Z (kind z) at each PrepX
    and MeasX, and at each two-qubit gate on (a, b) Z_a and Z_b (z), X_a
    and X_b (x) and Z_a Z_b (zz)."""
    events = []
    for t, loc in enumerate(gd.build_circuit(cfg).locations):
        if loc.kind in (gd.LocationKind.PREP_X, gd.LocationKind.MEAS_X):
            events.append(("z", t, 0, mask(loc.qubits)))
        else:
            a, b = (mask([q]) for q in loc.qubits)
            events += [("z", t, 0, a), ("z", t, 0, b), ("x", t, a, 0), ("x", t, b, 0), ("zz", t, 0, a | b)]
    return events


def forward_frame(cfg: gd.GadgetConfig, faults) -> int:
    """The frame code (gadget.fault_frame) of a list of (location index,
    X mask, Z mask) faults, each pushed forward through every later
    location (a MeasX fault fires before its own readout): a CPHASE turns X
    on one qubit into X on it and Z on the other, a MeasX flips its readout
    when its qubit carries Z and then drops the qubit, and what is left
    sits on block 3.  Raises as fault_frame does: ValueError for a location
    outside [0, L) or a negative mask, KeyError for a fault on a qubit not
    live at its location and gadget.FrameError for an X part that reaches
    a CZ(theta)."""
    locations, n, code = gd.build_circuit(cfg).locations, cfg.n, 0
    for location, xs, zs in faults:
        if not 0 <= location < len(locations):
            raise ValueError(f"fault location {location} is outside the circuit's locations 0..{len(locations) - 1}")
        if xs < 0 or zs < 0:
            raise ValueError(f"fault masks x={xs} z={zs} at location {location} must be non-negative")
        live = {loc.qubits[0] for loc in locations[: location + 1] if loc.kind is gd.LocationKind.PREP_X}
        live -= {loc.qubits[0] for loc in locations[:location] if loc.kind is gd.LocationKind.MEAS_X}
        if (xs | zs) & ~mask(live):
            raise KeyError(f"fault x={xs} z={zs} at location {location} touches a qubit not live there")
        start = location if locations[location].kind is gd.LocationKind.MEAS_X else location + 1
        m = sum(loc.kind is gd.LocationKind.MEAS_X for loc in locations[:start])
        flips = 0
        for t in range(start, len(locations)):
            kind, qubits = locations[t].kind, locations[t].qubits
            if kind is gd.LocationKind.CZ_THETA:
                if any((xs >> q) & 1 for q in qubits):
                    raise gd.FrameError(f"X part of fault x={xs} at location {location} reaches CZ(theta) at {t}")
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
