"""biasforge: biased-noise magic-state gadget simulation and overhead analysis.

Layers, bottom up:

* ``statevec``  dense state-vector kernels (gate diagonals, X-readout
                split) and the PauliString type.
* ``gadget``    the repetition-code magic-state preparation circuit, its
                noiseless branch table from one exact state-vector
                execution, and one batch path over it: the table read
                through one Pauli frame code (``enumerate_branches``) or a
                code per sampled row (``rows_under_frames``), then
                ``outcome_bins``, which decodes the records and reads one
                Pauli class table per config.
* ``noise``     biased Pauli fault model: its events as frame codes
                (``gadget.fault_frame``), exhaustive low-order fault
                enumeration and block Monte Carlo over the gadget.
* ``bounds``    closed-form logical error bounds at one noise point.
* ``distill``   exact 15-qubit Reed-Muller error-detection distillation,
                concatenation, and overhead planning.
* ``cli``       reproducible command-line experiments over all of the above,
                and the figure sweeps over bias and p_z.
"""

__version__ = "0.1.0"

from .statevec import PauliString  # noqa: F401
from .gadget import (  # noqa: F401
    Circuit,
    GadgetConfig,
    LogicalClass,
    accept_probability_exact,
    build_circuit,
    enumerate_branches,
)
