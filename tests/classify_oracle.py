"""Reference states and classifier of gadget outputs, one state vector at a time.

The package never forms a branch's block-3 state: a branch is a noiseless
row read through a frame, and outputs are classified from one Pauli class
table per config (``gadget._class_table``).  This module forms the states
and states the same rule on them, by their overlaps with the target's Pauli
images, and is the oracle the tests check the table and the engine against.

* ``pauli_action`` applies a Pauli string to amplitudes as
  ``i**k * (X part) * (Z part)``, where ``k`` counts the qubits carrying
  both an X and a Z (i.e. Y = iXZ).  Global phase is irrelevant to every
  check (states are compared through fidelity), but the convention is kept
  fixed.
* ``branch_states`` gives each branch its block-3 state: its noiseless
  row's state under its frame Pauli.
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


def corrections(cfg: gd.GadgetConfig, records) -> list[PauliString | None]:
    """The decoder's block-3 correction (local qubit ids 0..n-1) of each
    +/-1 record, None where the record is rejected."""
    found = gd._decode_records(cfg, np.asarray(records, dtype=np.int8))[2]
    logical = gd._logical_paulis(cfg.n)
    return [logical[CLASS_ORDER[c]] if c >= 0 else None for c in found.tolist()]


@functools.lru_cache(maxsize=None)
def _representatives(cfg: gd.GadgetConfig) -> tuple[np.ndarray, int]:
    """(2^n, class x Z pattern) conjugated class representatives, and the
    number of Z patterns per class."""
    n = cfg.n
    target = gd.target_state(cfg)
    patterns = [m for m in range(1 << n) if bin(m).count("1") <= (n - 1) // 2]
    logical = gd._logical_paulis(n)
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
