"""biasforge: biased-noise magic-state gadget simulation and overhead analysis.

Layers, bottom up:

* ``gadget``    the repetition-code magic-state preparation circuit, its
                noiseless branch table in closed form (the circuit is
                Clifford after its CZ(theta) gates) over 8(n + 1) row
                classes, each with two code-space amplitudes, its records
                stored only as packed readout words, and the table read
                through Pauli frame codes: the branches of a code's
                readout flips (``enumerate_branches``), and the
                outcome-bin masses of each statistic of a code's decode
                fields and logical image, summed in closed form over the
                row classes with one (row class, logical Pauli) class
                table per config.
* ``noise``     biased Pauli fault model: its events as frame codes
                (``gadget.fault_frame``), exhaustive low-order fault
                enumeration and block Monte Carlo over the gadget, both
                reading the gadget's statistic mass table.
* ``bounds``    closed-form logical error bounds at one noise point.
* ``distill``   exact 15-qubit Reed-Muller error-detection distillation,
                concatenation, and overhead planning.
* ``cli``       reproducible command-line experiments over all of the above,
                and the figure sweeps over bias and p_z.
"""

__version__ = "0.1.0"

from .gadget import (  # noqa: F401
    Circuit,
    GadgetConfig,
    accept_probability_exact,
    build_circuit,
    enumerate_branches,
)
