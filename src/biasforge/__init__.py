"""biasforge: biased-noise magic-state gadget simulation and overhead analysis.

Layers, bottom up:

* ``gadget``    the repetition-code magic-state preparation circuit, its
                noiseless branch table in closed form (the circuit is
                Clifford after its CZ(theta) gates), its records stored
                only as packed readout words and its block-3 outputs as
                two code-space amplitudes, and the table read through
                Pauli frame codes: the branches of a code's readout flips
                (``enumerate_branches``), and the outcome bins of (row,
                code) pairs (``frame_bins``), which XORs each code's flips
                into its row's word, decodes it and reads one (row,
                logical Pauli) class table per config at the logical
                image of the code's block-3 Pauli.
* ``noise``     biased Pauli fault model: its events as frame codes
                (``gadget.fault_frame``), exhaustive low-order fault
                enumeration, which sums one code per statistic of its
                decode fields, and block Monte Carlo over the gadget.
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
