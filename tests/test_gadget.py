import math
from fractions import Fraction

import numpy as np
import pytest

from biasforge import gadget as gd
from biasforge import statevec as sv
from biasforge.statevec import PauliString
from classify_oracle import apply_pauli, classify, local, state_fidelity


def branch_masses(cfg, faults=()):
    """(accepted mass, rejected mass, {class: mass}) over all branches."""
    acc = rej = 0.0
    classes = {}
    for b in gd.enumerate_branches(cfg, faults=faults):
        o = gd.decode(cfg, b.record)
        if o.accepted:
            acc += b.probability
            cls, _, _ = classify(b.state, o.correction, cfg)
            classes[cls] = classes.get(cls, 0.0) + b.probability
        else:
            rej += b.probability
    return acc, rej, classes


class TestConfig:
    def test_even_n_rejected(self):
        with pytest.raises(gd.ConfigError):
            gd.GadgetConfig.t_state(4)

    def test_even_r_rejected(self):
        with pytest.raises(gd.ConfigError):
            gd.GadgetConfig.t_state(3, r=2)

    def test_n_above_sim_max_rejected(self):
        gd.GadgetConfig.t_state(gd.SIM_MAX_N)
        with pytest.raises(gd.ConfigError, match="SIM_MAX_N"):
            gd.GadgetConfig.t_state(gd.SIM_MAX_N + 2)
        with pytest.raises(gd.ConfigError):
            gd.GadgetConfig.custom(9, 0.3)

    def test_frame_code_fits_in_63_bits(self):
        # a frame code holds M readout flips and a 2n-bit block-3 Pauli
        cfg = gd.GadgetConfig.t_state(3, r=25)
        assert cfg.num_measurements + 2 * cfg.n == 62 <= gd.FRAME_BITS
        with pytest.raises(gd.ConfigError, match="FRAME_BITS"):
            gd.GadgetConfig(n=3, theta=math.pi / 4, r_z=25, r_zz=27)
        with pytest.raises(gd.ConfigError, match="FRAME_BITS"):
            gd.GadgetConfig.t_state(7, r=19)

    def test_target_theta_coupling(self):
        cfg = gd.GadgetConfig.custom(3, 0.3)
        assert cfg.target is gd.Target.CUSTOM

    def test_custom_named_angle_is_the_named_config(self):
        custom, named = gd.GadgetConfig.custom(3, math.pi / 4), gd.GadgetConfig.t_state(3)
        assert custom == named and hash(custom) == hash(named)
        assert custom.target is named.target is gd.Target.T
        assert gd.GadgetConfig.custom(3, math.pi / 2).target is gd.Target.PLUS_I
        misses = gd._noiseless_table.cache_info().misses
        assert gd._noiseless_table(custom) is gd._noiseless_table(named)
        assert gd._noiseless_table.cache_info().misses - misses <= 1


class TestBuildCircuit:
    @pytest.mark.parametrize(
        "n,r,total",
        [
            (3, 3, 57),  # 6 + 3 + 15 + 3 + 3 + 24 + 3
            (1, 1, 13),  # 2 + 1 + 3 + 1 + 1 + 4 + 1
            (5, 1, 49),  # 10 + 5 + 7 + 5 + 5 + 12 + 5
        ],
    )
    def test_location_count_formula(self, n, r, total):
        cfg = gd.GadgetConfig.t_state(n, r=r)
        circ = gd.build_circuit(cfg)
        formula = 2 * n + n + r * (n + 2) + n + n + r * (2 * n + 2) + n
        assert circ.num_locations == formula == total

    def test_ancilla_measured_after_its_gates(self):
        circ = gd.build_circuit(gd.GadgetConfig.t_state(3, r=3))
        last_gate = {}
        measured_at = {}
        for t, loc in enumerate(circ.locations):
            if loc.kind is gd.LocationKind.CPHASE:
                last_gate[loc.qubits[1]] = t
            elif loc.kind is gd.LocationKind.MEAS_X and circ.block_map[loc.qubits[0]].startswith("ancilla"):
                measured_at[loc.qubits[0]] = t
        assert measured_at
        for anc, t_meas in measured_at.items():
            assert t_meas > last_gate[anc]

    def test_lifetimes(self):
        # block 1/2 prepared then measured exactly once; block 3 never measured
        circ = gd.build_circuit(gd.GadgetConfig.t_state(3, r=3))
        prepped, measured = {}, {}
        for loc in circ.locations:
            if loc.kind is gd.LocationKind.PREP_X:
                prepped[loc.qubits[0]] = prepped.get(loc.qubits[0], 0) + 1
            if loc.kind is gd.LocationKind.MEAS_X:
                measured[loc.qubits[0]] = measured.get(loc.qubits[0], 0) + 1
        for q, name in circ.block_map.items():
            assert prepped[q] == 1
            if name == "block3":
                assert q not in measured
            else:
                assert measured[q] == 1


class TestAcceptProbabilityExact:
    def test_values(self):
        assert gd.accept_probability_exact(3) == Fraction(3, 4)
        assert gd.accept_probability_exact(9) == Fraction(126, 256)
        assert gd.accept_probability_exact(1) == 1

    def test_even_n(self):
        with pytest.raises(gd.ConfigError):
            gd.accept_probability_exact(4)


class TestCorrectionTable:
    def test_t_table_matches_hand_derivation(self):
        # Derived from the exact output state
        #   cos^{a}(th/2) (-i sin(th/2))^{n-a} |+>_L
        #     + s*t cos^{n-a} (-i sin)^{a} |->_L:
        # with s*t = +1 (zl_bit XOR b = 0): a=2 -> I, a=1 -> ZL;
        # with s*t = -1: a=2 -> XL, a=1 -> YL; a in {0,3} not correctable.
        cfg = gd.GadgetConfig.t_state(3)
        table = gd.correction_table(cfg)
        paulis = gd._logical_paulis(3)
        expect = {}
        for zl in (0, 1):
            for b in (0, 1):
                same = (zl + b) % 2 == 0
                expect[(zl, b, 2)] = paulis[gd.LogicalClass.I if same else gd.LogicalClass.XL]
                expect[(zl, b, 1)] = paulis[gd.LogicalClass.ZL if same else gd.LogicalClass.YL]
        assert table == expect

    def test_plus_i_table_matches_hand_derivation(self):
        # theta = pi/2: output is |+>_L + s*t (-1)^a (-i) |->_L (n=3), so
        # correction is I iff zl_bit XOR b XOR (a mod 2) == 0 else XL,
        # and every a in 0..3 is correctable (deterministic preparation).
        cfg = gd.GadgetConfig.plus_i(3)
        table = gd.correction_table(cfg)
        paulis = gd._logical_paulis(3)
        assert len(table) == 16
        for (zl, b, a), pauli in table.items():
            same = (zl + b + a) % 2 == 0
            assert pauli == paulis[gd.LogicalClass.I if same else gd.LogicalClass.XL]

    def test_t_acceptance_rule_emerges(self):
        # keys present exactly for alpha with n - alpha = alpha +/- 1
        for n in (3, 5):
            table = gd.correction_table(gd.GadgetConfig.t_state(n))
            alphas = {a for (_, _, a) in table}
            assert alphas == {(n - 1) // 2, (n + 1) // 2}


class TestNoiselessRuns:
    def test_branch_completeness_and_count_fraction(self):
        for n, r in ((3, 1), (3, 3)):
            cfg = gd.GadgetConfig.t_state(n, r=r)
            branches = gd.enumerate_branches(cfg)
            assert abs(sum(b.probability for b in branches) - 1) < 1e-9
            accepted = sum(1 for b in branches if gd.decode(cfg, b.record).accepted)
            assert Fraction(accepted, len(branches)) == gd.accept_probability_exact(n)

    def test_physical_acceptance_mass_t3(self):
        # The +1 outcome of each block-2 X readout carries cos^2(pi/8), so
        # the probability-weighted acceptance is 3 cos^2 sin^2 (pi/8) = 3/8,
        # below the 3/4 record-counting fraction.
        acc, rej, classes = branch_masses(gd.GadgetConfig.t_state(3))
        assert abs(acc - 3 / 8) < 1e-12
        assert abs(rej - 5 / 8) < 1e-12
        assert set(classes) == {gd.LogicalClass.I}

    def test_plus_i_deterministic(self):
        cfg = gd.GadgetConfig.plus_i(3, r=3)
        target = gd.target_state(cfg)
        total = 0.0
        for b in gd.enumerate_branches(cfg):
            o = gd.decode(cfg, b.record)
            assert o.accepted
            corrected = apply_pauli(b.state, 3, gd._logical_paulis(3)[_cls_of(o.correction, 3)])
            assert state_fidelity(corrected, target) > 1 - 1e-8
            total += b.probability
        assert abs(total - 1) < 1e-9

    def test_t_accepted_branches_hit_target(self):
        cfg = gd.GadgetConfig.t_state(3, r=3)
        for b in gd.enumerate_branches(cfg):
            o = gd.decode(cfg, b.record)
            if not o.accepted:
                continue
            cls, fid, anomaly = classify(b.state, o.correction, cfg)
            assert cls is gd.LogicalClass.I and fid > 1 - 1e-8 and not anomaly


def _cls_of(correction: PauliString, n: int) -> gd.LogicalClass:
    local = PauliString(xs=correction.xs >> (2 * n), zs=correction.zs >> (2 * n))
    for cls, p in gd._logical_paulis(n).items():
        if p == local:
            return cls
    raise AssertionError("unknown correction")


class TestRun:
    def test_noiseless_accepted_run_reaches_target(self):
        cfg = gd.GadgetConfig.t_state(3, r=3)
        rng = np.random.default_rng(42)
        seen_accept = False
        for _ in range(12):
            o = gd.run(cfg, rng=rng)
            if o.accepted:
                seen_accept = True
                assert o.logical_class is gd.LogicalClass.I
                assert classify(o.output_state, o.correction, cfg)[1] > 1 - 1e-8
                assert o.correction is not None
            else:
                assert o.logical_class is gd.LogicalClass.REJECTED
                assert o.correction is None
        assert seen_accept

    def test_forced_all_plus_block2_rejected_for_t(self):
        # |alpha| = 3 violates n - |alpha| = |alpha| +/- 1: the wrong-angle
        # channel, rejected whatever the parity readings turn out to be.
        # (Block 1 must be forced to a correlation-compatible pattern or the
        # all-plus block-2 branch has zero probability.)
        cfg = gd.GadgetConfig.t_state(3)
        forced = [None, +1, +1, +1, None, +1, +1, +1]
        rng = np.random.default_rng(0)
        for _ in range(6):
            o = gd.run(cfg, forced_outcomes=forced, rng=rng)
            assert not o.accepted
            assert o.block2_x == (1, 1, 1)
            assert o.logical_class is gd.LogicalClass.REJECTED

    def test_forced_alpha_two_accepted_to_t(self):
        cfg = gd.GadgetConfig.t_state(3)
        target = gd.target_state(cfg)
        # force x = alpha = (+,+,-) on both blocks, parity readings free
        forced = [None, +1, +1, -1, None, +1, +1, -1]
        rng = np.random.default_rng(1)
        for _ in range(4):
            o = gd.run(cfg, forced_outcomes=forced, rng=rng)
            assert o.accepted
            corrected = apply_pauli(o.output_state, 3, local(o.correction, 3))
            assert state_fidelity(corrected, target) > 1 - 1e-8

    def test_forced_impossible_branch_raises(self):
        cfg = gd.GadgetConfig.t_state(3)
        # anticorrelating a single position between blocks 1 and 2 is a
        # zero-probability branch of the noiseless circuit
        forced = [None, +1, +1, +1, None, -1, +1, +1]
        with pytest.raises(sv.BranchError):
            for _ in range(4):
                gd.run(cfg, forced_outcomes=forced, rng=np.random.default_rng(2))

    def test_forced_length_checked(self):
        cfg = gd.GadgetConfig.t_state(3)
        with pytest.raises(gd.RecordError):
            gd.run(cfg, forced_outcomes=[+1, +1])


class TestDecode:
    def test_reference_record_accepted(self):
        cfg = gd.GadgetConfig.plus_i(3, r=3)
        rec = [+1] * 3 + [+1, +1, +1] + [+1] * 3 + [+1, +1, +1]
        o = gd.decode(cfg, rec)
        assert o.accepted and o.b == 0 and o.zl_parity == 0

    def test_single_position_mismatch_rejected(self):
        cfg = gd.GadgetConfig.plus_i(3, r=3)
        rec = [+1] * 3 + [+1, +1, +1] + [+1] * 3 + [+1, -1, +1]
        assert not gd.decode(cfg, rec).accepted

    def test_anticorrelated_accepted(self):
        cfg = gd.GadgetConfig.plus_i(3, r=3)
        rec = [+1] * 3 + [+1, -1, +1] + [+1] * 3 + [-1, +1, -1]
        assert gd.decode(cfg, rec).accepted

    def test_t_alpha_rule(self):
        cfg = gd.GadgetConfig.t_state(3, r=1)
        for alpha_pattern, want in [
            ((+1, -1, -1), True),
            ((+1, +1, -1), True),
            ((-1, -1, -1), False),
            ((+1, +1, +1), False),
        ]:
            rec = [+1] + list(alpha_pattern) + [+1] + list(alpha_pattern)
            assert gd.decode(cfg, rec).accepted is want

    def test_majority_vote_tolerates_minority_flips(self):
        cfg = gd.GadgetConfig.plus_i(3, r=3)
        rec = [+1, -1, +1] + [+1, +1, +1] + [-1, +1, +1] + [+1, +1, +1]
        o = gd.decode(cfg, rec)
        assert o.accepted and o.zl_parity == 0 and o.b == 0

    def test_record_length_mismatch(self):
        cfg = gd.GadgetConfig.t_state(3, r=3)
        with pytest.raises(gd.RecordError):
            gd.decode(cfg, [+1] * 5)


class TestFaultInjection:
    def test_no_fault_classifies_identity(self):
        cfg = gd.GadgetConfig.t_state(3)
        acc, rej, classes = branch_masses(cfg)
        assert set(classes) == {gd.LogicalClass.I}

    def test_single_z_faults_never_logical(self):
        # distance property at r=3: any single Z is corrected or rejected
        cfg = gd.GadgetConfig.t_state(3, r=3)
        circ = gd.build_circuit(cfg)
        for t, loc in enumerate(circ.locations):
            for q in loc.qubits:
                _, _, classes = branch_masses(cfg, faults=[(t, PauliString.z_on([q]))])
                assert set(classes) <= {gd.LogicalClass.I}, (t, q, classes)

    def test_correlated_zz_fault_accepted_as_zl(self):
        cfg = gd.GadgetConfig.t_state(3, r=3)
        circ = gd.build_circuit(cfg)
        cz_locs = [t for t, loc in enumerate(circ.locations) if loc.kind is gd.LocationKind.CZ_THETA]
        found = 0.0
        for t in cz_locs:
            loc = circ.locations[t]
            _, _, classes = branch_masses(cfg, faults=[(t, PauliString.z_on(loc.qubits))])
            found += classes.get(gd.LogicalClass.ZL, 0.0)
        assert found > 0.0

    def test_x_fault_on_output_block_accepted_as_xl(self):
        cfg = gd.GadgetConfig.t_state(3, r=3)
        circ = gd.build_circuit(cfg)
        last = circ.num_locations - 1
        _, _, classes = branch_masses(cfg, faults=[(last, PauliString.x_on([6]))])
        assert classes.get(gd.LogicalClass.XL, 0.0) > 0.0
        assert gd.LogicalClass.ZL not in classes

    def test_two_x_faults_on_output_block_are_stabilizer(self):
        # X_i X_j on the output block is a stabilizer: classifies as I
        cfg = gd.GadgetConfig.t_state(3, r=3)
        circ = gd.build_circuit(cfg)
        last = circ.num_locations - 1
        _, _, classes = branch_masses(cfg, faults=[(last, PauliString.x_on([6, 7]))])
        assert set(classes) == {gd.LogicalClass.I}

    def test_logical_z_across_block2_is_zl(self):
        cfg = gd.GadgetConfig.t_state(3, r=3)
        circ = gd.build_circuit(cfg)
        prep3 = max(
            t
            for t, loc in enumerate(circ.locations)
            if loc.kind is gd.LocationKind.PREP_X and circ.block_map[loc.qubits[0]] == "block3"
        )
        acc, rej, classes = branch_masses(cfg, faults=[(prep3, PauliString.z_on([3, 4, 5]))])
        assert classes.get(gd.LogicalClass.ZL, 0.0) > 0.0
        assert acc > 0.0 and set(classes) == {gd.LogicalClass.ZL}

    def test_single_residual_z_on_output_is_correctable(self):
        cfg = gd.GadgetConfig.t_state(3, r=3)
        circ = gd.build_circuit(cfg)
        last = circ.num_locations - 1
        _, _, classes = branch_masses(cfg, faults=[(last, PauliString.z_on([7]))])
        assert set(classes) == {gd.LogicalClass.I}


class TestClassify:
    def test_wrong_angle_outputs_booked_as_zl(self):
        # A correlated ZZ fault at a CZ(theta) gate flips one (x_i, alpha_i)
        # pair, steering wrong-angle branches into acceptance.  Their states
        # are rotation errors (no class reaches fidelity 0.99) and follow
        # the Z_L accounting convention of the analytic bounds.
        cfg = gd.GadgetConfig.t_state(3, r=1)
        circ = gd.build_circuit(cfg)
        cz0 = next(t for t, loc in enumerate(circ.locations) if loc.kind is gd.LocationKind.CZ_THETA)
        pair = circ.locations[cz0].qubits
        seen_band = False
        for b in gd.enumerate_branches(cfg, faults=[(cz0, PauliString.z_on(pair))]):
            o = gd.decode(cfg, b.record)
            if not o.accepted:
                continue
            cls, fid, anomaly = classify(b.state, o.correction, cfg)
            if fid <= 0.99:
                assert cls is gd.LogicalClass.ZL and not anomaly and fid >= 0.5
                seen_band = True
        assert seen_band

    def test_class_table_refuses_a_fidelity_on_a_threshold(self):
        # The best fidelity of the n=3 wrong-angle output rises towards 1 as
        # theta falls (0.9 at pi/4, 0.979 at 0.3).  Where it crosses 0.99
        # its class would be left to rounding, so the table build raises.
        def reaches_a_class(theta):
            cfg = gd.GadgetConfig.custom(3, theta)
            branches = gd._noiseless_table.__wrapped__(cfg)[0]  # keeps the cache for the named configs
            row = next(i for i, rec in enumerate(branches.records.tolist()) if sum(rec[-3:]) == 3)  # alpha = n
            return classify(branches.states[row], None, cfg)[1] > 0.99

        lo, hi = 0.1, 0.3
        assert reaches_a_class(lo) and not reaches_a_class(hi)
        while hi - lo > 1e-13:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if reaches_a_class(mid) else (lo, mid)
        with pytest.raises(gd.CorrectionTableError, match="within 1e-9 of 0.99"):
            gd._class_table(gd.GadgetConfig.custom(3, lo))
        for n in (1, 3, 5, 7):
            for cfg in (gd.GadgetConfig.t_state(n), gd.GadgetConfig.plus_i(n)):
                gd._class_table(cfg)

    def test_anomaly_flagged_for_garbage(self):
        cfg = gd.GadgetConfig.t_state(3)
        state = np.zeros(8, dtype=np.complex128)
        state[0] = 1.0  # |000> has fidelity < 1/2 to every Pauli image of |T>_L
        cls, fid, anomaly = classify(state, None, cfg)
        assert anomaly and fid < 0.5


def test_custom_theta_round_trip():
    # a generic angle still prepares (|0>_L + e^{i theta}|1>_L)/sqrt(2)
    cfg = gd.GadgetConfig.custom(3, theta=math.pi / 3)
    acc, rej, classes = branch_masses(cfg)
    assert acc > 0.1
    assert set(classes) == {gd.LogicalClass.I}
