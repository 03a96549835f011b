import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from biasforge import gadget as gd
from classify_oracle import (
    CLASS_ORDER,
    apply_pauli,
    branch_states,
    classify,
    corrections,
    decode_records,
    expand_states,
    logical_paulis,
    mask,
    readout_flips,
    record_bins,
    rows_under_frames,
    state_fidelity,
    target_state,
)


def branch_masses(cfg, faults=()):
    """(accepted mass, rejected mass, {class: mass}) over all branches."""
    acc = rej = 0.0
    classes = {}
    code = gd.fault_frame(cfg, faults)
    branches = gd.enumerate_branches(cfg, readout_flips(cfg, code))
    states = branch_states(cfg, branches, code)
    for (_, probability, state), correction in zip(states, corrections(cfg, branches.records)):
        if correction is not None:
            acc += probability
            cls, _, _ = classify(state, correction, cfg)
            classes[cls] = classes.get(cls, 0.0) + probability
        else:
            rej += probability
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

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, theta):
        with pytest.raises(gd.ConfigError, match="finite"):
            gd.GadgetConfig.custom(3, theta)

    def test_frame_code_fits_in_63_bits(self):
        # a frame code holds M readout flips and a 2n-bit block-3 Pauli
        cfg = gd.GadgetConfig.t_state(3, r=25)
        assert cfg.num_measurements + 2 * cfg.n == 62 <= gd.FRAME_BITS
        with pytest.raises(gd.ConfigError, match="FRAME_BITS"):
            gd.GadgetConfig(n=3, theta=math.pi / 4, r_z=25, r_zz=27)
        with pytest.raises(gd.ConfigError, match="FRAME_BITS"):
            gd.GadgetConfig.t_state(7, r=19)

    def test_sizes_must_be_integers(self):
        # a float size would build a config that build_circuit cannot use
        sizes = {"n": 3, "r_z": 1, "r_zz": 1}
        for name in sizes:
            for bad in (1.5, 3.0):
                with pytest.raises(gd.ConfigError, match=f"^{name}="):
                    gd.GadgetConfig(theta=math.pi / 4, **{**sizes, name: bad})
        cfg = gd.GadgetConfig(n=np.int64(3), theta=math.pi / 4, r_z=np.int64(1), r_zz=1)
        assert cfg == gd.GadgetConfig.t_state(3) and type(cfg.n) is type(cfg.r_z) is int
        assert len(gd.build_circuit(cfg).locations) == 31

    def test_custom_named_angle_is_the_named_config(self):
        custom, named = gd.GadgetConfig.custom(3, math.pi / 4), gd.GadgetConfig.t_state(3)
        assert custom == named and hash(custom) == hash(named)
        misses = gd._noiseless_table.cache_info().misses
        assert gd._noiseless_table(custom) is gd._noiseless_table(named)
        assert gd._noiseless_table.cache_info().misses - misses <= 1

    def test_hash_is_cached_and_matches_the_plain_config(self):
        # the hash is built once, after the fields become ints, so a config
        # given np.int64 sizes hits the plain config's cache entries
        wide = gd.GadgetConfig(n=np.int64(3), theta=math.pi / 4, r_z=np.int64(3), r_zz=np.int64(3))
        plain = gd.GadgetConfig.t_state(3, r=3)
        assert hash(wide) == hash(plain) == hash((3, math.pi / 4, 3, 3))
        assert wide == plain and repr(wide) == repr(plain)
        assert [f.name for f in dataclasses.fields(wide)] == ["n", "theta", "r_z", "r_zz"]
        misses = gd._noiseless_table.cache_info().misses
        assert gd._noiseless_table(wide) is gd._noiseless_table(plain)
        assert gd._noiseless_table.cache_info().misses - misses <= 1
        probe = gd.GadgetConfig.t_state(3)
        object.__setattr__(probe, "r_z", 5)  # past the frozen guard: the built hash stays
        assert hash(probe) == hash(gd.GadgetConfig.t_state(3))


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
        assert len(circ.locations) == formula == total

    def test_ancilla_measured_after_its_gates(self):
        circ = gd.build_circuit(gd.GadgetConfig.t_state(3, r=3))
        last_gate = {}
        measured_at = {}
        for t, loc in enumerate(circ.locations):
            if loc.kind is gd.LocationKind.CPHASE:
                last_gate[loc.qubits[1]] = t
            elif loc.kind is gd.LocationKind.MEAS_X and loc.qubits[0] >= 3 * circ.n:  # an ancilla
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
        assert sorted(prepped) == list(range(3 * 3 + 3 + 3))  # three blocks, then six ancillas
        for q in prepped:
            assert prepped[q] == 1
            if q in gd.block3_qubits(3):
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
        packed = {cls: xs << 3 | zs for cls, (xs, zs) in logical_paulis(3).items()}
        expect = {}
        for zl in (0, 1):
            for b in (0, 1):
                same = (zl + b) % 2 == 0
                expect[(zl, b, 2)] = packed["I" if same else "XL"]
                expect[(zl, b, 1)] = packed["ZL" if same else "YL"]
        assert table == expect

    def test_plus_i_table_matches_hand_derivation(self):
        # theta = pi/2: output is |+>_L + s*t (-1)^a (-i) |->_L (n=3), so
        # correction is I iff zl_bit XOR b XOR (a mod 2) == 0 else XL,
        # and every a in 0..3 is correctable (deterministic preparation).
        cfg = gd.GadgetConfig.plus_i(3)
        table = gd.correction_table(cfg)
        packed = {cls: xs << 3 | zs for cls, (xs, zs) in logical_paulis(3).items()}
        assert len(table) == 16
        for (zl, b, a), pauli in table.items():
            same = (zl + b + a) % 2 == 0
            assert pauli == packed["I" if same else "XL"]

    def test_t_acceptance_rule_emerges(self):
        # keys present exactly for alpha with n - alpha = alpha +/- 1
        for n in (3, 5):
            table = gd.correction_table(gd.GadgetConfig.t_state(n))
            alphas = {a for (_, _, a) in table}
            assert alphas == {(n - 1) // 2, (n + 1) // 2}

    @pytest.mark.parametrize("uncorrectable_first", [True, False], ids=["uncorrectable-first", "target-first"])
    def test_rows_of_one_key_needing_different_corrections_are_refused(self, monkeypatch, uncorrectable_first):
        # The row classes (zl, h, b, same) = (0, 0, 0, same) and (0, 3, 0,
        # ~same), classes 1 and 12, both read the all +1 key (0, 0, 3).  One
        # holds the target; the other (|0>_L + 0.3|1>_L)/norm, which no
        # logical Pauli takes to it and which lies off both class fidelity
        # thresholds.  The key has no one correction, in either class order.
        # Each class is its (u, v) on |+>^3 and |->^3, |u|^2 + |v|^2 = 16 x
        # its probability; the other classes keep the T gadget's own.
        cfg = gd.GadgetConfig.t_state(3)
        probs, amplitudes = gd._row_classes(cfg)
        phase = np.exp(1j * cfg.theta)
        target = np.array([1 + phase, 1 - phase]) * np.sqrt(4 * probs[1])  # |0>_L (|1>_L): (|+>^3 +- |->^3)/sqrt(2)
        stray = np.array([1.3, 0.7]) * np.sqrt(16 * probs[12] / 2.18)
        amplitudes = amplitudes.copy()
        amplitudes[[1, 12]] = [stray, target] if uncorrectable_first else [target, stray]
        monkeypatch.setattr(gd, "_row_classes", lambda _: (probs, amplitudes))
        gd._decoder.cache_clear()
        try:
            with pytest.raises(gd.CorrectionTableError, match=r"key \(0, 0, 3\)"):
                gd.correction_table(cfg)
        finally:
            gd._decoder.cache_clear()

    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_logical_masks_pack_the_code_logicals(self, n):
        # the masks are indexed by outcome bin, I, XL, ZL, YL as in CLASS_ORDER
        paulis = logical_paulis(n)
        assert gd._logical_masks(n).tolist() == [paulis[cls][0] << n | paulis[cls][1] for cls in CLASS_ORDER]


class TestNoiselessRuns:
    def test_branch_completeness_and_count_fraction(self):
        for n, r in ((3, 1), (3, 3)):
            cfg = gd.GadgetConfig.t_state(n, r=r)
            branches = gd.enumerate_branches(cfg)
            assert abs(branches.probabilities.sum() - 1) < 1e-9
            accepted = sum(c is not None for c in corrections(cfg, branches.records))
            assert Fraction(accepted, len(branches)) == gd.accept_probability_exact(n)

    def test_physical_acceptance_mass_t3(self):
        # The +1 outcome of each block-2 X readout carries cos^2(pi/8), so
        # the probability-weighted acceptance is 3 cos^2 sin^2 (pi/8) = 3/8,
        # below the 3/4 record-counting fraction.
        acc, rej, classes = branch_masses(gd.GadgetConfig.t_state(3))
        assert abs(acc - 3 / 8) < 1e-12
        assert abs(rej - 5 / 8) < 1e-12
        assert set(classes) == {"I"}

    def test_plus_i_deterministic(self):
        cfg = gd.GadgetConfig.plus_i(3, r=3)
        target = target_state(cfg)
        total = 0.0
        branches = gd.enumerate_branches(cfg)
        for (_, prob, state), correction in zip(branch_states(cfg, branches), corrections(cfg, branches.records)):
            assert correction is not None
            corrected = apply_pauli(state, 3, correction)
            assert state_fidelity(corrected, target) > 1 - 1e-8
            total += prob
        assert abs(total - 1) < 1e-9

    def test_t_accepted_branches_hit_target(self):
        cfg = gd.GadgetConfig.t_state(3, r=3)
        branches = gd.enumerate_branches(cfg)
        for (_, _, state), correction in zip(branch_states(cfg, branches), corrections(cfg, branches.records)):
            if correction is None:
                continue
            cls, fid, anomaly = classify(state, correction, cfg)
            assert cls == "I" and fid > 1 - 1e-8 and not anomaly


def _rows_with(cfg, forced):
    """The noiseless branches whose records read +1 or -1 where ``forced``
    does, whatever they read where it holds 0, each read through the empty
    frame as a sampled run."""
    records = gd.enumerate_branches(cfg).records
    forced = np.asarray(forced)
    rows = np.flatnonzero(np.all((forced == 0) | (records == forced), axis=1))
    return rows_under_frames(cfg, rows, np.zeros(len(rows), dtype=np.int64))


def _bins(cfg, runs):
    """The outcome bins of runs under the empty frame: the decoder's class
    table and correction lookup, read by the record oracle."""
    return record_bins(cfg, runs)


class TestRun:
    # a run is a noiseless row read through its frame, here the empty one

    def test_noiseless_accepted_run_reaches_target(self):
        cfg = gd.GadgetConfig.t_state(3, r=3)
        runs = _rows_with(cfg, [0] * cfg.num_measurements)
        assert len(runs) == len(gd.enumerate_branches(cfg))
        found = corrections(cfg, runs.records)
        for (_, _, state), got, correction in zip(branch_states(cfg, runs), _bins(cfg, runs), found):
            if correction is None:
                assert got == gd.BIN_REJECTED
            else:
                assert got == 0  # class I
                assert classify(state, correction, cfg)[1] > 1 - 1e-8
        assert any(c is not None for c in found)

    def test_forced_all_plus_block2_rejected_for_t(self):
        # |alpha| = 3 violates n - |alpha| = |alpha| +/- 1: the wrong-angle
        # channel, rejected whatever the parity readings turn out to be.
        # (Block 1 must be forced to a correlation-compatible pattern or the
        # all-plus block-2 branch has zero probability.)
        cfg = gd.GadgetConfig.t_state(3)
        runs = _rows_with(cfg, [0, +1, +1, +1, 0, +1, +1, +1])
        assert len(runs) == 4  # both parity readings free
        assert np.all(runs.records[:, 5:] == 1)  # block 2
        assert np.all(_bins(cfg, runs) == gd.BIN_REJECTED)
        assert corrections(cfg, runs.records) == [None] * 4

    def test_forced_alpha_two_accepted_to_t(self):
        cfg = gd.GadgetConfig.t_state(3)
        target = target_state(cfg)
        # force x = alpha = (+,+,-) on both blocks, parity readings free
        runs = _rows_with(cfg, [0, +1, +1, -1, 0, +1, +1, -1])
        assert len(runs) > 0
        for (_, _, state), correction in zip(branch_states(cfg, runs), corrections(cfg, runs.records)):
            assert correction is not None
            corrected = apply_pauli(state, 3, correction)
            assert state_fidelity(corrected, target) > 1 - 1e-8

    def test_forced_impossible_record_absent_from_the_table(self):
        cfg = gd.GadgetConfig.t_state(3)
        # anticorrelating a single position between blocks 1 and 2 is a
        # zero-probability branch of the noiseless circuit, so no row holds it
        assert len(_rows_with(cfg, [0, +1, +1, +1, 0, +1, +1, +1])) > 0
        assert len(_rows_with(cfg, [0, +1, +1, +1, 0, -1, +1, +1])) == 0


def _decode(cfg, record):
    """(zl_bit, b, correction index into (I, XL, ZL, YL) or -1 if rejected)
    of one +/-1 record: packed into a word (bit m set where readout m reads
    -1) and decoded by the package's field rule and correction lookup, which
    must agree with the oracle's decode of the record matrix."""
    word = np.array([sum(1 << m for m, readout in enumerate(record) if readout < 0)])
    zl_bit, b, correlated, alpha = (int(field[0]) for field in gd._word_fields(cfg, word))
    got = zl_bit, b, int(gd._decoder(cfg)[1][zl_bit, b, alpha]) if correlated else -1
    assert got == tuple(int(a[0]) for a in decode_records(cfg, np.array([record], dtype=np.int8)))
    return got


class TestDecode:
    def test_reference_record_accepted(self):
        cfg = gd.GadgetConfig.plus_i(3, r=3)
        rec = [+1] * 3 + [+1, +1, +1] + [+1] * 3 + [+1, +1, +1]
        zl_bit, b, correction = _decode(cfg, rec)
        assert correction >= 0 and b == 0 and zl_bit == 0

    def test_single_position_mismatch_rejected(self):
        cfg = gd.GadgetConfig.plus_i(3, r=3)
        rec = [+1] * 3 + [+1, +1, +1] + [+1] * 3 + [+1, -1, +1]
        assert _decode(cfg, rec)[2] == -1

    def test_anticorrelated_accepted(self):
        cfg = gd.GadgetConfig.plus_i(3, r=3)
        rec = [+1] * 3 + [+1, -1, +1] + [+1] * 3 + [-1, +1, -1]
        assert _decode(cfg, rec)[2] >= 0

    def test_t_alpha_rule(self):
        cfg = gd.GadgetConfig.t_state(3, r=1)
        for alpha_pattern, want in [
            ((+1, -1, -1), True),
            ((+1, +1, -1), True),
            ((-1, -1, -1), False),
            ((+1, +1, +1), False),
        ]:
            rec = [+1] + list(alpha_pattern) + [+1] + list(alpha_pattern)
            assert (_decode(cfg, rec)[2] >= 0) is want

    def test_majority_vote_tolerates_minority_flips(self):
        cfg = gd.GadgetConfig.plus_i(3, r=3)
        rec = [+1, -1, +1] + [+1, +1, +1] + [-1, +1, +1] + [+1, +1, +1]
        zl_bit, b, correction = _decode(cfg, rec)
        assert correction >= 0 and zl_bit == 0 and b == 0


class TestFaultInjection:
    def test_no_fault_classifies_identity(self):
        cfg = gd.GadgetConfig.t_state(3)
        acc, rej, classes = branch_masses(cfg)
        assert set(classes) == {"I"}

    def test_single_z_faults_never_logical(self):
        # distance property at r=3: any single Z is corrected or rejected
        cfg = gd.GadgetConfig.t_state(3, r=3)
        circ = gd.build_circuit(cfg)
        for t, loc in enumerate(circ.locations):
            for q in loc.qubits:
                _, _, classes = branch_masses(cfg, faults=[(t, 0, mask([q]))])
                assert set(classes) <= {"I"}, (t, q, classes)

    def test_correlated_zz_fault_accepted_as_zl(self):
        cfg = gd.GadgetConfig.t_state(3, r=3)
        circ = gd.build_circuit(cfg)
        cz_locs = [t for t, loc in enumerate(circ.locations) if loc.kind is gd.LocationKind.CZ_THETA]
        found = 0.0
        for t in cz_locs:
            loc = circ.locations[t]
            _, _, classes = branch_masses(cfg, faults=[(t, 0, mask(loc.qubits))])
            found += classes.get("ZL", 0.0)
        assert found > 0.0

    def test_x_fault_on_output_block_accepted_as_xl(self):
        cfg = gd.GadgetConfig.t_state(3, r=3)
        circ = gd.build_circuit(cfg)
        last = len(circ.locations) - 1
        _, _, classes = branch_masses(cfg, faults=[(last, mask([6]), 0)])
        assert classes.get("XL", 0.0) > 0.0
        assert "ZL" not in classes

    def test_two_x_faults_on_output_block_are_stabilizer(self):
        # X_i X_j on the output block is a stabilizer: classifies as I
        cfg = gd.GadgetConfig.t_state(3, r=3)
        circ = gd.build_circuit(cfg)
        last = len(circ.locations) - 1
        _, _, classes = branch_masses(cfg, faults=[(last, mask([6, 7]), 0)])
        assert set(classes) == {"I"}

    def test_logical_z_across_block2_is_zl(self):
        cfg = gd.GadgetConfig.t_state(3, r=3)
        circ = gd.build_circuit(cfg)
        prep3 = max(
            t
            for t, loc in enumerate(circ.locations)
            if loc.kind is gd.LocationKind.PREP_X and loc.qubits[0] in gd.block3_qubits(3)
        )
        acc, rej, classes = branch_masses(cfg, faults=[(prep3, 0, mask([3, 4, 5]))])
        assert classes.get("ZL", 0.0) > 0.0
        assert acc > 0.0 and set(classes) == {"ZL"}

    def test_single_residual_z_on_output_is_correctable(self):
        cfg = gd.GadgetConfig.t_state(3, r=3)
        circ = gd.build_circuit(cfg)
        last = len(circ.locations) - 1
        _, _, classes = branch_masses(cfg, faults=[(last, 0, mask([7]))])
        assert set(classes) == {"I"}


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
        code = gd.fault_frame(cfg, [(cz0, 0, mask(pair))])
        branches = gd.enumerate_branches(cfg, readout_flips(cfg, code))
        for (_, _, state), correction in zip(branch_states(cfg, branches, code), corrections(cfg, branches.records)):
            if correction is None:
                continue
            cls, fid, anomaly = classify(state, correction, cfg)
            if fid <= 0.99:
                assert cls == "ZL" and not anomaly and fid >= 0.5
                seen_band = True
        assert seen_band

    def test_class_table_refuses_a_fidelity_on_a_threshold(self):
        # The best fidelity of the n=3 wrong-angle output rises towards 1 as
        # theta falls (0.9 at pi/4, 0.979 at 0.3).  Where it crosses 0.99
        # its class would be left to rounding, so the table build raises.
        def reaches_a_class(theta):
            cfg = gd.GadgetConfig.custom(3, theta)
            branches, amplitudes = gd._noiseless_table.__wrapped__(cfg)  # keeps the cache for the named configs
            row = next(i for i, rec in enumerate(branches.records.tolist()) if sum(rec[-3:]) == 3)  # alpha = n
            return classify(expand_states(3, amplitudes)[row], None, cfg)[1] > 0.99

        lo, hi = 0.1, 0.3
        assert reaches_a_class(lo) and not reaches_a_class(hi)
        while hi - lo > 1e-13:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if reaches_a_class(mid) else (lo, mid)
        with pytest.raises(gd.CorrectionTableError, match="within 1e-9 of 0.99"):
            gd._decoder(gd.GadgetConfig.custom(3, lo))
        for n in (1, 3, 5, 7):
            for cfg in (gd.GadgetConfig.t_state(n), gd.GadgetConfig.plus_i(n)):
                gd._decoder(cfg)

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
    assert set(classes) == {"I"}
