"""Dense state-vector kernels of the branch engine in ``gadget``.

Everything downstream (fault coordinates, decoding tables, frozen test
values) depends on the conventions fixed here:

* Amplitude indexing is little-endian: bit ``p`` of a basis-state index
  holds the computational-basis value of qubit ``p``, so ``|q1 q0> = |11>``
  is amplitude index 3.
* ``cz_theta_diagonal`` is the diagonal of ``exp(-i theta/2 * Z_i Z_j)``:
  basis states whose bits agree on the pair pick up ``exp(-i theta/2)``,
  states whose bits differ pick up ``exp(+i theta/2)``.  CPHASE is
  diag(1, 1, 1, -1).
* A Pauli is a pair of int X and Z support masks, bit ``p`` for qubit
  ``p``.  No kernel applies one to amplitudes: the engine pushes Paulis
  through the circuit as frame codes (``gadget.fault_frame``), and the
  Pauli spectrum of the noiseless states against the target scores every
  Pauli image of them in the decoder build (``gadget._decoder``).
* Kernels return fresh arrays and never mutate their arguments.

The engine holds every live measurement branch as one (B, 2^q) amplitude
stack; ``gadget.SIM_MAX_N`` bounds the register it builds.
"""

from __future__ import annotations

import math

import numpy as np

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
