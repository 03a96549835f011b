"""Reference classifier of accepted gadget outputs, one state vector at a time.

The package classifies outputs from one Pauli class table per config
(``gadget._class_table``).  This module states the same rule on the states
themselves, by their overlaps with the target's Pauli images, and is the
oracle the tests check the table and the engine against.  Each class in
(I, XL, ZL, YL) is represented by the target hit with that logical Pauli
and any correctable-weight (<= (n-1)/2) physical Z pattern on the output
block.  The first class reached at fidelity > 0.99 wins; an output reaching
none is a wrong-angle output, booked ZL with its best fidelity, and one
below fidelity 0.5 to every class is an anomaly.
"""

import functools

import numpy as np

from biasforge import gadget as gd
from biasforge import statevec as sv
from biasforge.statevec import PauliString

CLASS_ORDER = (gd.LogicalClass.I, gd.LogicalClass.XL, gd.LogicalClass.ZL, gd.LogicalClass.YL)


def state_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)) ** 2)


def apply_pauli(states: np.ndarray, n: int, pauli: PauliString) -> np.ndarray:
    """``pauli`` (local qubit ids 0..n-1) applied along the last axis."""
    source, phase = sv.pauli_action(n, pauli.xs, pauli.zs)
    return states[..., source] * phase


def local(correction: PauliString, n: int) -> PauliString:
    """A block-3 correction on global qubit ids, moved to local ids."""
    return PauliString(correction.xs >> 2 * n, correction.zs >> 2 * n)


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
    correction (global qubit ids on block 3, or None)."""
    state = np.asarray(state, dtype=np.complex128)
    if correction is not None:
        state = apply_pauli(state, cfg.n, local(correction, cfg.n))
    cls, fid, anomaly = classify_states(state[None], cfg)
    return CLASS_ORDER[cls[0]], float(fid[0]), bool(anomaly[0])
