"""The state-vector oracle's kernels and the conventions they build on.

The kernels act on plain amplitude arrays; the oracle engine
(``statevec_oracle``), which the closed-form noiseless table of ``gadget``
is checked against, prepares |+> qubits in the factors of its stack
operations (``statevec_oracle._stack_ops``), so that is tested here as
well, and so are the state fidelity the tests compare states by and the
Pauli action (Y = iXZ) the tests apply to states (``classify_oracle``).
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from biasforge import gadget as gd
from classify_oracle import mask, pauli_action, state_fidelity
import statevec_oracle as sv

SQ2 = math.sqrt(2.0)


def basis(num_qubits: int, index: int) -> np.ndarray:
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return amps


def from_amps(amps) -> np.ndarray:
    arr = np.asarray(amps, dtype=np.complex128)
    return arr / np.linalg.norm(arr)


def plus(num_qubits: int) -> np.ndarray:
    return np.full(1 << num_qubits, 2.0 ** (-num_qubits / 2), dtype=np.complex128)


def theta_ket(theta: float) -> np.ndarray:
    return from_amps([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])


def width(amps: np.ndarray) -> int:
    return int(round(math.log2(amps.size)))


def cz(amps, i, j, theta):
    return amps * sv.cz_theta_diagonal(width(amps), i, j, theta)


def cphase(amps, i, j):
    return amps * sv.cphase_diagonal(width(amps), i, j)


def pauli(amps, p: tuple[int, int]):
    """``amps`` under the Pauli p = (X mask, Z mask)."""
    source, phase = pauli_action(width(amps), *p)
    return amps[source] * phase


def split(amps, p):
    """(+1, -1) unnormalized readout components of qubit p."""
    plus_part, minus_part = sv.x_split(amps.reshape(1, -1), p)
    return plus_part, minus_part


def mass(amps) -> float:
    return float(np.vdot(amps, amps).real)


def factors(cfg) -> list[np.ndarray]:
    """The factors among the oracle engine's stack operations for cfg, in order."""
    return [op for op in sv._stack_ops(cfg) if not isinstance(op, int)]


def grown(amps, factor) -> np.ndarray:
    """One stack row advanced through a factor."""
    return (amps[None, None, :] * factor).reshape(-1)


class TestNewPlusState:
    def test_single_qubit(self):
        # each later Z-parity round of n=1, r=3 prepares one ancilla (bit 2)
        # next to the live qubits 0 and 1, then a CPHASE from qubit 0
        factor = factors(gd.GadgetConfig.t_state(1, r=3))[1]
        assert factor.shape == (2, 4)
        s = from_amps(np.arange(1, 5) * 1j + 1)
        np.testing.assert_allclose(grown(s, factor), cphase(np.kron(plus(1), s), 0, 2), atol=1e-15)

    def test_two_qubits(self):
        # n=1 prepares block 3 (bit 1) and an ancilla (bit 2) next to the
        # live block-2 qubit, then CPHASEs from both to the ancilla
        factor = factors(gd.GadgetConfig.t_state(1))[1]
        assert factor.shape == (4, 2)
        s = from_amps([0.6, 0.8j])
        want = cphase(cphase(np.kron(plus(2), s), 0, 2), 1, 2)
        np.testing.assert_allclose(grown(s, factor), want, atol=1e-15)

    def test_first_factor_uniform_unit_norm(self):
        # n=5 prepares 2n+1 qubits before its first readout; the gates up
        # to it only add phases
        s = factors(gd.GadgetConfig.t_state(5))[0].reshape(-1)
        assert s.size == 1 << 11
        assert abs(np.linalg.norm(s) - 1) < 1e-10
        assert np.allclose(np.abs(s), 2 ** (-11 / 2))

    def test_cap_admits_sim_max_n(self):
        cfg = gd.GadgetConfig.t_state(gd.SIM_MAX_N)
        live = peak = 0
        for loc in gd.build_circuit(cfg).locations:
            live += {gd.LocationKind.PREP_X: 1, gd.LocationKind.MEAS_X: -1}.get(loc.kind, 0)
            peak = max(peak, live)
        assert peak == 2 * gd.SIM_MAX_N + 1

    @pytest.mark.parametrize("q", [0, -1, 23])
    def test_out_of_range(self, q):
        with pytest.raises(gd.ConfigError):
            gd.GadgetConfig.t_state(q)


class TestCzTheta:
    def test_plus_plus_matches_ii_plus_xx_form(self):
        # oracle built by hand: (II + XX)|0>|theta> with |theta> unnormalized
        theta = 0.7321
        got = cz(plus(2), 0, 1, theta)
        th = np.array([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
        oracle = np.zeros(4, dtype=np.complex128)
        # |0>|theta>: qubit 0 is the |0>, qubit 1 carries |theta>
        oracle[0b00] += th[0]
        oracle[0b10] += th[1]
        # XX|0>|theta>
        oracle[0b01] += th[1]
        oracle[0b11] += th[0]
        assert state_fidelity(got, from_amps(oracle)) > 1 - 1e-12

    def test_theta_zero_is_identity(self):
        rng = np.random.default_rng(3)
        s = from_amps(rng.normal(size=8) + 1j * rng.normal(size=8))
        np.testing.assert_allclose(cz(s, 0, 2, 0.0), s, atol=1e-14)

    def test_pi_half_plus_local_corrections_is_cphase(self):
        # CZ(pi/2) equals CPHASE up to a global phase and one local Z
        # rotation per qubit.  Under the adopted exp(-i theta/2 ZZ) sign
        # the correction is e^{-i pi/4} e^{+i pi/4 Z_0} e^{+i pi/4 Z_1}
        # (the conjugate of the +theta/2-convention form).
        s = plus(2)
        rotated = cz(s, 0, 1, math.pi / 2)
        phase = np.exp(-1j * math.pi / 4) * np.array(
            [
                np.exp(1j * math.pi / 4 * ((-1) ** ((k >> 0) & 1) + (-1) ** ((k >> 1) & 1)))
                for k in range(4)
            ]
        )
        target = cphase(s, 0, 1)
        np.testing.assert_allclose(rotated * phase, target, atol=1e-12)
        np.testing.assert_allclose(target, [0.5, 0.5, 0.5, -0.5], atol=1e-12)

    def test_same_qubit_rejected(self):
        # the kernels take any pair; the circuit refuses a gate on one qubit
        with pytest.raises(gd.ConfigError):
            gd.Location(gd.LocationKind.CZ_THETA, (1, 1))

    @given(
        st.floats(-6.0, 6.0),
        st.floats(-6.0, 6.0),
    )
    def test_composition_adds_angles(self, t1, t2):
        s = from_amps(np.arange(1, 9))
        twice = cz(cz(s, 0, 2, t1), 0, 2, t2)
        once = cz(s, 0, 2, t1 + t2)
        assert state_fidelity(twice, once) > 1 - 1e-10

    def test_commutes_with_z_never_with_x(self):
        rng = np.random.default_rng(11)
        s = from_amps(rng.normal(size=8) + 1j * rng.normal(size=8))
        theta = 0.83
        for axis_op in ((0, mask([0])), (0, mask([2]))):
            a = pauli(cz(s, 0, 2, theta), axis_op)
            b = cz(pauli(s, axis_op), 0, 2, theta)
            assert state_fidelity(a, b) > 1 - 1e-10
        x0 = (mask([0]), 0)
        a = pauli(cz(s, 0, 2, theta), x0)
        b = cz(pauli(s, x0), 0, 2, theta)
        assert state_fidelity(a, b) < 1 - 1e-3


class TestCphase:
    def test_flips_one_one(self):
        np.testing.assert_allclose(cphase(basis(2, 0b11), 0, 1), [0, 0, 0, -1], atol=1e-15)

    def test_plus_zero_unchanged(self):
        s = from_amps([1, 1, 0, 0])  # |+> on qubit 0, |0> on qubit 1
        np.testing.assert_allclose(cphase(s, 0, 1), s, atol=1e-15)

    def test_squares_to_identity(self):
        rng = np.random.default_rng(7)
        s = from_amps(rng.normal(size=16) + 1j * rng.normal(size=16))
        assert state_fidelity(cphase(cphase(s, 1, 3), 1, 3), s) > 1 - 1e-10


class TestPauli:
    # the oracle's Pauli action, which the tests apply to states
    def test_x_flips_zero(self):
        np.testing.assert_allclose(pauli(basis(1, 0), (mask([0]), 0)), [0, 1], atol=1e-15)

    def test_z_on_plus_gives_minus(self):
        np.testing.assert_allclose(pauli(plus(1), (0, mask([0]))), [1 / SQ2, -1 / SQ2], atol=1e-15)

    def test_zzz_is_involution(self):
        rng = np.random.default_rng(5)
        s = from_amps(rng.normal(size=8) + 1j * rng.normal(size=8))
        z3 = (0, mask([0, 1, 2]))
        assert state_fidelity(pauli(pauli(s, z3), z3), s) > 1 - 1e-12

    def test_y_convention(self):
        # Y = iXZ on |0> gives i|1>
        np.testing.assert_allclose(pauli(basis(1, 0), (1, 1)), [0, 1j], atol=1e-15)

    def test_one_pauli_per_row(self):
        # column masks give one Pauli per row, as branch_states applies frame Paulis
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(16, 8)) + 1j * rng.normal(size=(16, 8))
        xs, zs = np.arange(16) % 8, np.arange(16) // 2
        source, phase = pauli_action(3, xs[:, None], zs[:, None])
        got = np.take_along_axis(rows, source, axis=1) * phase
        for row, x, z, g in zip(rows, xs.tolist(), zs.tolist(), got):
            assert np.array_equal(g, pauli(row, (x, z)))

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_commutation_parity(self, x1, z1, x2, z2):
        # PQ = (-1)^overlap QP
        p, q = (x1, z1), (x2, z2)
        s = from_amps(np.random.default_rng(17).normal(size=256))
        sign = (-1) ** ((x1 & z2).bit_count() + (z1 & x2).bit_count())
        np.testing.assert_allclose(pauli(pauli(s, q), p), sign * pauli(pauli(s, p), q), atol=1e-12)


class TestMeasureX:
    def test_plus_is_deterministic(self):
        # |psi> on qubit 1, |+> on qubit 0: the readout of qubit 0 is +1 and
        # leaves |psi>
        psi = from_amps([0.6, 0.8j])
        plus_part, minus_part = split(np.kron(psi, plus(1)), 0)
        assert abs(mass(plus_part) - 1) < 1e-12 and mass(minus_part) < 1e-30
        assert state_fidelity(plus_part, psi) > 1 - 1e-12

    def test_zero_is_unbiased(self):
        plus_part, minus_part = split(basis(1, 0), 0)
        assert abs(mass(plus_part) - 0.5) < 1e-12
        assert abs(mass(minus_part) - 0.5) < 1e-12

    def test_theta_state_plus_probability(self):
        # oracle: |<+|theta>|^2 computed directly from the amplitudes
        th = theta_ket(math.pi / 4)
        expect = abs(np.vdot(plus(1), th)) ** 2
        assert abs(expect - (2 + SQ2) / 4) < 1e-12  # = cos^2(pi/8)
        plus_part, _ = split(th, 0)
        assert abs(mass(plus_part) - expect) < 1e-12

    def test_forced_zero_probability_branch(self):
        _, minus_part = split(plus(1), 0)
        assert mass(minus_part) == 0.0
        cfg = gd.GadgetConfig.t_state(3)
        # anticorrelating one position of blocks 1 and 2 has probability 0,
        # so whatever the parity readings (0 and 4), no noiseless row holds it
        blocks = gd.enumerate_branches(cfg).records[:, [1, 2, 3, 5, 6, 7]]
        assert np.any(np.all(blocks == [1, 1, 1, 1, 1, 1], axis=1))
        assert not np.any(np.all(blocks == [1, 1, 1, -1, 1, 1], axis=1))

    def test_post_state_renormalized(self):
        # each renormalized component, with qubit 1 put back in the observed
        # X eigenstate, is the projection (I +/- X_1)/2 |s>, normalized
        rng = np.random.default_rng(9)
        s = from_amps(rng.normal(size=8) + 1j * rng.normal(size=8))
        parts = split(s, 1)
        assert abs(mass(parts[0]) + mass(parts[1]) - 1) < 1e-12
        for value, part in zip((+1, -1), parts):
            post = part / math.sqrt(mass(part))
            assert abs(np.linalg.norm(post) - 1) < 1e-12
            rebuilt = np.empty((2, 2, 2), dtype=np.complex128)
            rebuilt[:, 0, :] = post.reshape(2, 2) / SQ2
            rebuilt[:, 1, :] = post.reshape(2, 2) * value / SQ2
            projected = from_amps(s + value * pauli(s, (mask([1]), 0)))
            assert state_fidelity(rebuilt.reshape(-1), projected) > 1 - 1e-12


class TestFidelity:
    def test_self_is_one(self):
        s = plus(3)
        assert abs(state_fidelity(s, s) - 1) < 1e-12

    def test_orthogonal_is_zero(self):
        assert state_fidelity(basis(2, 0), basis(2, 3)) < 1e-15

    def test_plus_i_vs_t(self):
        # CZ(theta) with a |0> spectator on qubit 1 turns |+> into the
        # theta-state: |+i> at pi/2, |T> at pi/4
        def theta_state(theta):
            return cz(np.kron(basis(1, 0), plus(1)), 0, 1, theta)[:2]

        plus_i, t = theta_state(math.pi / 2), theta_state(math.pi / 4)
        # direct inner product: |(1 + e^{-i pi/4})/2|^2 = (2+sqrt2)/4
        expect = abs((1 + np.exp(-1j * math.pi / 4)) / 2) ** 2
        assert abs(expect - (2 + SQ2) / 4) < 1e-14
        assert abs(state_fidelity(plus_i, t) - expect) < 1e-12

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            state_fidelity(plus(1), plus(2))


class TestIdentities:
    @pytest.mark.parametrize("alpha", [+1, -1])
    @pytest.mark.parametrize("beta", [+1, -1])
    def test_phase_rotation_matrix_element(self, alpha, beta):
        # <alpha| e^{i theta Z / 2} |beta> = (e^{i theta/2} + alpha beta e^{-i theta/2})/2
        theta = 1.234
        rot = np.array([np.exp(1j * theta / 2), np.exp(-1j * theta / 2)])
        a = np.array([1, alpha]) / SQ2
        b = np.array([1, beta]) / SQ2
        got = np.vdot(a, rot * b)
        want = (np.exp(1j * theta / 2) + alpha * beta * np.exp(-1j * theta / 2)) / 2
        assert abs(got - want) < 1e-12
        # and the same element realized through the two-qubit gate:
        # CZ(-theta) with a spectator |0> acts as e^{i theta Z/2} on the target
        s = np.concatenate([b, [0, 0]]).astype(np.complex128)  # qubit 1 = |0>
        got_gate = np.vdot(a, cz(s, 0, 1, -theta)[:2])
        assert abs(got_gate - want) < 1e-12

    @pytest.mark.parametrize("alpha", [+1, -1])
    @pytest.mark.parametrize("beta", [+1, -1])
    def test_projector_identity(self, alpha, beta):
        # <alpha|<beta| (II + XX) = 2 <alpha|<beta| iff alpha == beta else 0
        rng = np.random.default_rng(13)
        psi = from_amps(rng.normal(size=4) + 1j * rng.normal(size=4))
        total = psi + pauli(psi, (mask([0, 1]), 0))
        bra = np.kron(np.array([1, beta]) / SQ2, np.array([1, alpha]) / SQ2)
        got = np.vdot(bra, total)
        want = 2 * np.vdot(bra, psi) if alpha == beta else 0.0
        assert abs(got - want) < 1e-12


def test_norm_preserved_over_random_circuits():
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        q = int(rng.integers(2, 5))
        s = plus(q)
        for _ in range(int(rng.integers(2, 6))):
            kind = rng.integers(0, 3)
            if kind == 0:
                i, j = rng.choice(q, size=2, replace=False)
                s = cz(s, int(i), int(j), float(rng.normal()))
            elif kind == 1:
                i, j = rng.choice(q, size=2, replace=False)
                s = cphase(s, int(i), int(j))
            else:
                xs = int(rng.integers(1, 1 << q))
                s = pauli(s, (xs, int(rng.integers(0, 1 << q))))
        assert abs(np.linalg.norm(s) - 1) < 1e-10


def test_append_plus_qubit():
    # each PrepX takes the next bit in |+>: n=1 prepares qubits 0 and 1 and
    # the first ancilla (bits 0, 1, 2) from the empty register, with the
    # CZ(theta) and the CPHASE between them
    cfg = gd.GadgetConfig.t_state(1)
    factor = factors(cfg)[0]
    assert factor.shape == (8, 1)
    want = cphase(cz(plus(3), 0, 1, cfg.theta), 0, 2)
    np.testing.assert_allclose(grown(np.ones(1), factor), want, atol=1e-15)
