"""Dense state-vector engine of the noiseless circuit, the oracle of
``gadget._noiseless_table``.

The package builds the noiseless branch table in closed form.  This module
runs the circuit instead: every live measurement branch is one row of a
(B, 2^q) amplitude stack, advanced gate by gate and split at every X
readout.  The tests check the closed form against it, and check its
kernels against hand-built states.

Its conventions:

* Amplitude indexing is little-endian: bit ``p`` of a basis-state index
  holds the computational-basis value of qubit ``p``, so ``|q1 q0> = |11>``
  is amplitude index 3.
* ``cz_theta_diagonal`` is the diagonal of ``exp(-i theta/2 * Z_i Z_j)``:
  basis states whose bits agree on the pair pick up ``exp(-i theta/2)``,
  states whose bits differ pick up ``exp(+i theta/2)``.  CPHASE is
  diag(1, 1, 1, -1).
* Kernels return fresh arrays and never mutate their arguments.
* ``noiseless_table`` returns (words, probabilities, states) in the form
  of the package's table: packed records (bit m set where readout m reads
  -1), rows in depth-first (+1 first) order, rows of conditional
  probability at most ``_BRANCH_EPS`` pruned, and normalised block-3
  states in canonical qubit order, the form the package's (u, v)
  amplitudes take under ``classify_oracle.expand_states``.
"""

from __future__ import annotations

import math

import numpy as np

from biasforge.gadget import GadgetConfig, LocationKind, block3_qubits, build_circuit

_SQRT_HALF = math.sqrt(0.5)


def cz_theta_diagonal(num_qubits: int, i: int, j: int, theta: float) -> np.ndarray:
    """Diagonal of exp(-i theta/2 Z_i Z_j) over a num_qubits register."""
    index = np.arange(1 << num_qubits)
    same = ((index >> i) & 1) == ((index >> j) & 1)
    return np.where(same, np.exp(-0.5j * theta), np.exp(0.5j * theta))


def cphase_diagonal(num_qubits: int, i: int, j: int) -> np.ndarray:
    """Diagonal of CPHASE on the pair: -1 where both bits are set."""
    index = np.arange(1 << num_qubits)
    return np.where((index >> i) & (index >> j) & 1, -1.0 + 0j, 1.0 + 0j)


def x_split(amps: np.ndarray, p: int) -> np.ndarray:
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
            diagonals.append(cz_theta_diagonal(len(order), *map(order.index, loc.qubits), cfg.theta))
        elif loc.kind is LocationKind.CPHASE:
            diagonals.append(cphase_diagonal(len(order), *map(order.index, loc.qubits)))
        else:
            if grow or diagonals:
                f = np.full(1 << len(order), _SQRT_HALF**grow, dtype=np.complex128)
                for diagonal in diagonals:
                    f *= np.tile(diagonal, len(f) // len(diagonal))
                ops.append(f.reshape(1 << grow, -1))
                grow, diagonals = 0, []
            ops.append(order.index(loc.qubits[0]))
            order.remove(loc.qubits[0])
    if grow or diagonals or order != list(block3_qubits(cfg.n)):
        raise AssertionError(f"circuit does not end on block 3 after a readout: register {order}")
    return ops


_BRANCH_EPS = 1e-12  # outcome probabilities below this are treated as zero
_MAX_AMPS = 1 << 20  # a larger stack advances in chunks of at most this many amplitudes (or one row)


def _advance(ops, start, m, amps, words, probs):
    """Run stack operations start.. (see :func:`_stack_ops`) on a stack
    whose rows have packed records (bit k set where readout k reads -1) and
    probabilities for the first m readouts; return the final (amps, words,
    probs).

    A readout splits every row into children 2b (+1) and 2b+1 (-1), so
    rows stay in depth-first (+1 first) order, keeps those of conditional
    probability above _BRANCH_EPS and sets bit m in a -1 child's word.
    Rows stay unnormalized: a row's squared norm is the probability of its
    record so far, kept in ``probs``.  A stack over _MAX_AMPS amplitudes
    runs on in consecutive chunks of max(1, _MAX_AMPS // width) rows, one
    at a time, which bounds memory; no operation mixes rows, so the chunks
    concatenate to the whole."""
    for i, op in enumerate(ops[start:], start):
        if len(amps) > 1 and amps.size > _MAX_AMPS:
            step = max(1, _MAX_AMPS // amps.shape[1])
            chunks = [slice(a, a + step) for a in range(0, len(amps), step)]
            parts = [_advance(ops, i, m, amps[c], words[c], probs[c]) for c in chunks]
            return tuple(np.concatenate(arrays) for arrays in zip(*parts))
        if isinstance(op, int):
            children = x_split(amps, op)
            halves = children.view(np.float64)
            mass = np.einsum("ij,ij->i", halves, halves)
            kept = np.flatnonzero(mass / probs.repeat(2) > _BRANCH_EPS)
            amps, words, probs = children[kept], words[kept >> 1] | (kept & 1) << m, mass[kept]
            m += 1
        else:
            amps = (amps[:, None, :] * op).reshape(len(amps), -1)
    return amps, words, probs


def noiseless_table(cfg: GadgetConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(words, probabilities, states) of the noiseless circuit of ``cfg``,
    run on the amplitude stack from the empty register."""
    start = np.ones((1, 1), dtype=np.complex128), np.zeros(1, dtype=np.int64), np.ones(1)
    amps, words, probs = _advance(_stack_ops(cfg), 0, 0, *start)
    return words, probs, amps / np.sqrt(probs)[:, None]
