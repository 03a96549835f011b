"""Regression tests for the batched branch engine.

* ``golden/enumerate_grid.json`` holds every RateEstimate field of order-1
  and order-2 ``enumerate_faults`` on the 18 criterion-4 points, recorded
  with the recursive depth-first engine the batched one replaced.
* The Monte Carlo estimate below is re-recorded, in a labelled change,
  whenever the sampler's definition of the counts changes (last when a
  block began to draw its bins in one multinomial over frame
  statistics); a seeded run must reproduce it exactly.
* A dense reference simulator, written independently of the package's
  engine, replays every enumerated branch of random fault subsets, drawn
  from the fault events and from Z faults on idle live qubits.
* Faulted enumeration and sampled runs both read the noiseless branches
  through Pauli frames; every enumerated branch is read again from its
  noiseless row by ``classify_oracle.rows_under_frames`` and checked
  against the dense reference, and rows drawn by inverse CDF over their
  probabilities, a draw inside a row's slice picking that row, land on
  the enumerated branches.
* ``gadget._statistic_masses`` sums each frame statistic's masses in
  closed form over the 8(n + 1) row classes; the masses of every
  statistic and of seeded raw codes, at n = 1 to 7 and five theta
  including 1e-7 and pi - 1e-7, and of random codes and every single
  fault event's code, must lie within 1e-13 relative of the record-matrix
  oracle's row-order binning (``classify_oracle.record_bins`` summed in
  row order), with the same zeros, and bit for bit at n=3 T and +i.
* ``gadget.fault_frame`` reads one backward frame table per config; for
  every single-qubit Z, X and Y at every location and on every qubit, and
  for random fault lists, it must give the code of the forward walk
  ``classify_oracle.forward_frame``, or raise the same exception class.
* Each of the n + 3 independent kernel directions of the frame codes must
  leave every code's masses as they are, up to summation order: on all
  codes at n=3, r=1, and on seeded codes at other n, r and theta.
* ``gadget._frame_statistics`` maps a frame code to one of 16n + 17
  statistics of its decode fields and logical image; all codes at n=3,
  r=1 must take all 65 statistics, and the oracle test's one code per
  statistic must map to it, in statistic order, at n = 1 to 7.
* ``golden/enumerated_masses.json`` holds a SHA-256 of the rate, subset
  and mass arrays of ``noise._enumerated_combos``; they must stay
  bit-identical.  Every subset's masses must equal, bit for bit, its frame
  code's noiseless rows binned by the record oracle and summed in row
  order.
* ``golden/noiseless_tables.json`` holds a SHA-256 of the records,
  probabilities and states of the closed-form noiseless branch table, the
  states expanded from its (u, v) amplitudes; they must stay bit-identical
  (``scripts/record_noiseless_tables.py`` writes the file).  The table
  must match the state-vector oracle ``statevec_oracle`` at n = 1 to 7:
  the same packed words in the same order, probabilities within 1e-14
  relative, |u|^2 + |v|^2 within 1e-14 relative of 16 times the
  probability, and states within 1e-14 up to global phase.
* Outputs are classified from one class table per config, keyed on the
  row class and the logical image of the block-3 Pauli q = correction
  times frame Pauli, its X parity and Z majority.  At every (noiseless
  row, q), or at a seeded sample of them at n=7, the record oracle must
  give the bin of the fidelity rule that ``classify_oracle`` evaluates on
  the row's state under its correction times q, and the table at the
  row's class that rule's bin on the row's state under q.  The four
  logical fidelities of every row class must sum to 2, and those of a
  correctable T row read 1 at its correction and 1/2 at its XL and YL
  neighbours.  On a grid of angles, 1e-7 from 0 and pi among them, every
  row's best must exceed 1/2 and every class-table entry must be one of
  the four classes.
"""

import dataclasses
import hashlib
import inspect
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from biasforge import gadget as gd
from biasforge import noise as nz
from classify_oracle import (
    CLASS_ORDER,
    apply_pauli,
    branch_states,
    classify,
    corrections,
    decode_records,
    expand_states,
    forward_frame,
    logical_images,
    mask,
    noiseless_states,
    readout_flips,
    record_bins,
    reference_events,
    row_classes,
    rows_under_frames,
)
from classify_oracle import outcome_bins as oracle_bins
import statevec_oracle as sv

GOLDEN = json.loads((Path(__file__).parent / "golden" / "enumerate_grid.json").read_text())
TABLES = json.loads((Path(__file__).parent / "golden" / "noiseless_tables.json").read_text())
MASSES = json.loads((Path(__file__).parent / "golden" / "enumerated_masses.json").read_text())
ENUMERATED = {  # name -> config, as in scripts/record_enumerated_masses.py
    "T-r1": gd.GadgetConfig.t_state(3, r=1),
    "T-r3": gd.GadgetConfig.t_state(3, r=3),
    "plusI-r1": gd.GadgetConfig.plus_i(3, r=1),
}


@pytest.mark.parametrize("order", (1, 2))
@pytest.mark.parametrize("r", (1, 3))
def test_enumerate_grid_matches_golden(r, order):
    points = [p for p in GOLDEN["points"] if p["r"] == r and p["order"] == order]
    assert len(points) == 9
    cfg = gd.GadgetConfig.t_state(3, r=r)
    for p in points:
        est = dataclasses.asdict(nz.enumerate_faults(cfg, nz.NoiseParams.from_bias(p["p_z"], p["eta"]), order))
        assert est.keys() == p["estimate"].keys()
        for field, want in p["estimate"].items():
            assert est[field] == pytest.approx(want, rel=1e-12, abs=1e-15), (p["p_z"], p["eta"], field)


def test_monte_carlo_reproduces_recorded_estimate():
    est = nz.estimate_rates_mc(
        gd.GadgetConfig.t_state(3, 1), nz.NoiseParams.from_bias(1e-2, 10), trials=3000, seed=11
    )
    assert est == nz.RateEstimate(
        e_x=0.03333333333333333,
        e_z=0.004333333333333333,
        e_y=0.0,
        reject_rate=0.708,
        trials_or_order=3000,
        ci95_e_x=0.006446977072039044,
        ci95_e_z=0.002432996327725757,
        ci95_e_y=0.0006394243626629813,
        accepted_weight=0.292,
        e_x_given_accept=0.1141552511415525,
        e_z_given_accept=0.014840182648401826,
        e_y_given_accept=0.0,
    )


def test_certain_event_rejected_by_enumeration():
    with pytest.raises(ValueError):
        nz.enumerate_faults(gd.GadgetConfig.t_state(3, 1), nz.NoiseParams(p_x=0.0, p_z=1.0, p_zz=0.0), 1)


# ---------------------------------------------------------------------------
# Dense reference: every qubit of the circuit held at once, one record at a
# time, each readout replayed as an X-basis projector.


def _dense_branch(cfg, circuit, faults, record):
    """(probability, normalised block-3 state) of one measurement record."""
    num = 3 * cfg.n + cfg.r_z + cfg.r_zz
    index = np.arange(1 << num)

    def bit(q):
        return (index >> q) & 1

    def pauli(amps, p):
        xs, zs = p
        for q in range(num):
            if (zs >> q) & 1:
                amps = amps * (1 - 2 * bit(q))
            if (xs >> q) & 1:
                amps = amps[index ^ (1 << q)]
        return amps

    # every qubit starts in |+>: nothing touches a qubit before its PrepX
    amps = np.full(1 << num, 2.0 ** (-num / 2), dtype=np.complex128)
    merged = {}  # location -> the product of its faults, up to phase
    for t, xs, zs in faults:
        x0, z0 = merged.get(t, (0, 0))
        merged[t] = (x0 ^ xs, z0 ^ zs)
    m = 0
    for t, loc in enumerate(circuit.locations):
        fault = merged.get(t)
        if loc.kind is gd.LocationKind.MEAS_X:
            if fault is not None:
                amps = pauli(amps, fault)
            q = loc.qubits[0]
            amps = (amps + record[m] * amps[index ^ (1 << q)]) / 2
            m += 1
            continue
        if loc.kind is gd.LocationKind.CZ_THETA:
            i, j = loc.qubits
            amps = amps * np.exp(np.where(bit(i) == bit(j), -0.5j, 0.5j) * cfg.theta)
        elif loc.kind is gd.LocationKind.CPHASE:
            i, j = loc.qubits
            amps = amps * (1 - 2 * (bit(i) & bit(j)))
        if fault is not None:
            amps = pauli(amps, fault)
    prob = float(np.vdot(amps, amps).real)
    # measured qubits sit in |+-> states, whose |0> amplitude is 1/sqrt(2)
    local = np.arange(1 << cfg.n)
    block3 = sum(((local >> k) & 1) << (2 * cfg.n + k) for k in range(cfg.n))
    state = amps[block3]
    return prob, state / np.linalg.norm(state)


_DENSE_CONFIGS = (
    gd.GadgetConfig.t_state(3, 1),
    gd.GadgetConfig.plus_i(3, 1),
    gd.GadgetConfig.t_state(3, 1, r_zz=3),
    gd.GadgetConfig.t_state(1, 3),
    gd.GadgetConfig.plus_i(1, 3),
)


def _fault_sites(cfg):
    """(location, X mask, Z mask) of every fault event, and of a Z at each
    location on every live qubit that the location leaves idle."""
    sites = [tuple(event[1:]) for event in reference_events(cfg)]
    live = set()
    for t, loc in enumerate(gd.build_circuit(cfg).locations):
        sites += [(t, 0, mask([q])) for q in sorted(live - set(loc.qubits))]
        if loc.kind is gd.LocationKind.PREP_X:
            live.add(loc.qubits[0])
        elif loc.kind is gd.LocationKind.MEAS_X:
            live.discard(loc.qubits[0])
    return sorted(sites, key=lambda site: site[0])


@st.composite
def _faulted_gadget(draw):
    cfg = draw(st.sampled_from(_DENSE_CONFIGS))
    circuit = gd.build_circuit(cfg)
    sites = _fault_sites(cfg)
    chosen = draw(st.lists(st.integers(0, len(sites) - 1), max_size=3, unique=True))
    return cfg, circuit, [sites[i] for i in chosen]


@given(_faulted_gadget())
def test_enumerate_branches_matches_dense_reference(case):
    cfg, circuit, faults = case
    code = gd.fault_frame(cfg, faults)
    branches = gd.enumerate_branches(cfg, readout_flips(cfg, code))
    assert abs(branches.probabilities.sum() - 1.0) < 1e-9
    for record, probability, state in branch_states(cfg, branches, code):
        prob, dense = _dense_branch(cfg, circuit, faults, record)
        assert probability == pytest.approx(prob, rel=1e-9, abs=1e-14)
        assert abs(np.vdot(dense, state)) == pytest.approx(1.0, abs=1e-9)


@given(_faulted_gadget())
def test_frame_branches_match_state_vector_runs(case):
    # each enumerated branch, read again from its noiseless row through the
    # frame, has its record, probability, state and bin
    cfg, circuit, faults = case
    code = gd.fault_frame(cfg, faults)
    branches = gd.enumerate_branches(cfg, readout_flips(cfg, code))
    rows, frames = np.arange(len(branches)), np.full(len(branches), code)
    runs = rows_under_frames(cfg, rows, frames)
    assert np.array_equal(runs.records, branches.records)
    assert np.array_equal(runs.probabilities, branches.probabilities)
    assert np.array_equal(record_bins(cfg, runs, frames), record_bins(cfg, branches, code))
    _assert_table_matches_the_record_oracle(cfg, np.array([code]))
    run_states = branch_states(cfg, runs, frames)
    assert all(np.array_equal(run[2], branch[2]) for run, branch in zip(run_states, branch_states(cfg, branches, code)))
    for record, probability, state in run_states:
        prob, dense = _dense_branch(cfg, circuit, faults, record)
        assert probability == pytest.approx(prob, rel=1e-9, abs=1e-14)
        assert abs(np.vdot(dense, state)) == pytest.approx(1.0, abs=1e-9)


def _inverse_cdf(cfg, draws):
    """The noiseless rows that uniform doubles ``draws`` pick by their
    probabilities: row i takes the draws in (cum[i-1], cum[i]] / cum[-1],
    and a draw that rounds past the last row takes it."""
    cum = np.cumsum(gd.enumerate_branches(cfg).probabilities)
    return np.minimum(np.searchsorted(cum, draws * cum[-1]), len(cum) - 1)


def _sampled_runs(cfg, code, runs, seed):
    """``runs`` sampled runs under one frame code: rows drawn by their
    probabilities (``_inverse_cdf``), read through the frame."""
    rows = _inverse_cdf(cfg, np.random.default_rng(seed).random(runs))
    return rows_under_frames(cfg, rows, np.full(runs, code))


def _assert_on_enumerated_branches(cfg, code, sampled):
    # the sampled runs under ``code`` land on the branches of its readout flips
    branches = gd.enumerate_branches(cfg, readout_flips(cfg, code))
    by_record = {b[0]: (row, b) for row, b in enumerate(branch_states(cfg, branches, code))}
    for row, (record, probability, state) in zip(sampled.rows.tolist(), branch_states(cfg, sampled, code)):
        want_row, (_, want_probability, want_state) = by_record[record]
        assert row == want_row
        assert probability == want_probability
        assert np.array_equal(state, want_state)


@given(_faulted_gadget(), st.integers(0, 2**32 - 1))
def test_sampled_runs_land_on_enumerated_branches(case, seed):
    cfg, circuit, faults = case
    code = gd.fault_frame(cfg, faults)
    _assert_on_enumerated_branches(cfg, code, _sampled_runs(cfg, code, 64, seed))


def test_frame_code_top_bit_at_the_widest_config():
    # r_z + r_zz + 4n = 62 at n=3, r=25: X on the last block-3 qubit sets
    # the code's top bit, and sampled runs read it as enumeration does
    cfg = gd.GadgetConfig.t_state(3, 25)
    qubit = 3 * cfg.n - 1
    prep = gd.build_circuit(cfg).locations.index(gd.Location(gd.LocationKind.PREP_X, (qubit,)))
    faults = [(prep, mask([qubit]), 0)]
    code = gd.fault_frame(cfg, faults)
    assert code.bit_length() == cfg.num_measurements + 2 * cfg.n
    assert code >> cfg.num_measurements == 1 << 2 * cfg.n - 1  # X on the last block-3 qubit, and no readout flip
    _assert_on_enumerated_branches(cfg, code, _sampled_runs(cfg, code, 32, 1))


@pytest.mark.parametrize("cfg", [gd.GadgetConfig.t_state(3, 1), gd.GadgetConfig.plus_i(3, 1)], ids=["T", "plusI"])
def test_midpoint_draws_pick_their_rows_under_every_single_event_frame(cfg):
    # a draw at the middle of row i's slice (cum[i-1], cum[i]] picks row i;
    # read through any one event's frame, it is row i's enumerated branch,
    # branch i under the code's readout flips
    cum = np.cumsum(gd.enumerate_branches(cfg).probabilities)
    middle = (np.append(0.0, cum[:-1]) + cum) / 2 / cum[-1]
    rows = _inverse_cdf(cfg, middle)
    assert np.array_equal(rows, np.arange(len(cum)))
    codes = np.unique(nz._event_table(cfg)[1])
    for code in codes:
        frames = np.full(len(rows), code)
        runs = rows_under_frames(cfg, rows, frames)
        branches = gd.enumerate_branches(cfg, readout_flips(cfg, int(code)))
        assert np.array_equal(runs.records, branches.records)
        assert np.array_equal(runs.probabilities, branches.probabilities)
        assert np.array_equal(record_bins(cfg, runs, frames), record_bins(cfg, branches, code))
    _assert_table_matches_the_record_oracle(cfg, codes)


def _frame_or_refusal(frame, cfg, faults):
    """The frame code of ``faults``, or the class of the exception raised."""
    try:
        return frame(cfg, faults)
    except (ValueError, KeyError) as error:
        return type(error)


_FRAME_CONFIGS = [gd.GadgetConfig.t_state(n, r) for n in (1, 3, 5, 7) for r in (1, 3, 5)] + [
    gd.GadgetConfig.plus_i(3),
    gd.GadgetConfig.custom(3, 1.0, 1, 3),
    gd.GadgetConfig.custom(3, 1.0, 3, 1),
]


@pytest.mark.parametrize("cfg", _FRAME_CONFIGS, ids=lambda c: f"theta{c.theta:.3f}-n{c.n}-rz{c.r_z}-rzz{c.r_zz}")
def test_frame_table_matches_the_forward_walk(cfg):
    circuit = gd.build_circuit(cfg)
    qubits = 3 * cfg.n + cfg.r_z + cfg.r_zz
    for t in range(len(circuit.locations)):
        for q in range(qubits):
            for xs, zs in ((0, 1 << q), (1 << q, 0), (1 << q, 1 << q)):
                want = _frame_or_refusal(forward_frame, cfg, [(t, xs, zs)])
                assert _frame_or_refusal(gd.fault_frame, cfg, [(t, xs, zs)]) == want, (t, xs, zs)
    # lists of up to four faults, mostly on qubits live at their location
    # and now and then at a location outside the circuit
    sites = _fault_sites(cfg)
    rng = np.random.default_rng(cfg.n * 100 + cfg.r_z * 10 + cfg.r_zz)
    for _ in range(64):
        faults = []
        for _ in range(rng.integers(1, 5)):
            t, site_xs, site_zs = sites[rng.integers(len(sites))]
            if rng.random() < 0.05:
                t = int(rng.choice([-1, len(circuit.locations)]))
            support = site_xs | site_zs | (1 << int(rng.integers(qubits)) if rng.random() < 0.1 else 0)
            xs, zs = (int(rng.integers(1 << qubits)) & support for _ in range(2))
            faults.append((t, xs, zs if xs | zs else support))
        assert _frame_or_refusal(gd.fault_frame, cfg, faults) == _frame_or_refusal(forward_frame, cfg, faults), faults
    # a negative mask is refused after the location check, before the
    # liveness and CZ(theta) checks
    for t, xs, zs in ((0, -1, 0), (0, 0, -1), (len(circuit.locations) - 1, -(1 << qubits), 1)):
        for frame in (gd.fault_frame, forward_frame):
            with pytest.raises(ValueError, match="must be non-negative"):
                frame(cfg, [(t, xs, zs)])
    with pytest.raises(ValueError, match="is outside"):
        gd.fault_frame(cfg, [(-1, -1, 0)])


def test_fault_on_a_qubit_not_live_is_refused():
    cfg = gd.GadgetConfig.t_state(3, 1)
    faults = [(0, 0, mask([2 * cfg.n]))]  # block 3 is prepared after block 1 is read
    # both engines take their frame codes from fault_frame, which refuses it
    with pytest.raises(KeyError):
        gd.fault_frame(cfg, faults)


def test_a_qubit_not_live_is_refused_before_an_x_that_reaches_cz_theta():
    # X on qubit 0 after its PrepX reaches CZ(theta); block 3 is not live yet
    cfg = gd.GadgetConfig.t_state(3, 1)
    faults = [(0, 1, 1 << 2 * cfg.n)]
    with pytest.raises(gd.FrameError):
        gd.fault_frame(cfg, [(0, mask([0]), 0)])
    with pytest.raises(KeyError):
        gd.fault_frame(cfg, faults)


@pytest.mark.parametrize("location", [17 - 31, 31], ids=["negative", "past-the-end"])
def test_fault_location_outside_the_circuit_is_refused(location):
    # Python indexing would read location 17 - 31 as 17 and push the fault
    # through the circuit twice (code 6160, not 2064); 31 is one past the end
    cfg = gd.GadgetConfig.t_state(3, 1)
    assert len(gd.build_circuit(cfg).locations) == 31
    with pytest.raises(ValueError, match=f"fault location {location} is outside"):
        gd.fault_frame(cfg, [(location, mask([6]), 0)])


def test_x_fault_before_cz_theta_has_no_frame():
    cfg = gd.GadgetConfig.t_state(3, 1)
    circuit = gd.build_circuit(cfg)
    prep = circuit.locations.index(gd.Location(gd.LocationKind.PREP_X, (0,)))
    faults = [(prep, mask([0]), 0)]
    # both engines take their frame codes from fault_frame, which refuses it
    with pytest.raises(gd.FrameError):
        gd.fault_frame(cfg, faults)


@pytest.mark.parametrize("cfg", [gd.GadgetConfig.t_state(3, 1), gd.GadgetConfig.t_state(3, 25)], ids=["r1", "r25"])
def test_frame_codes_outside_the_code_space_are_refused(cfg):
    num = cfg.num_measurements
    assert len(gd.enumerate_branches(cfg, (1 << num) - 1)) == len(gd.enumerate_branches(cfg))
    for code in (-1, 1 << num, 1 << num + 2 * cfg.n):
        with pytest.raises(ValueError):
            gd.enumerate_branches(cfg, code)


@pytest.mark.parametrize("cfg", [gd.GadgetConfig.t_state(3, 1), gd.GadgetConfig.t_state(3, 25)], ids=["r1", "r25"])
def test_codes_with_block3_pauli_bits_are_refused(cfg):
    # a branch is only its readout flips: the frame code of every fault
    # event that leaves a block-3 Pauli is refused, with or without readout
    # flips beside it, and its readout flips alone are not
    num, codes = cfg.num_measurements, nz._event_table(cfg)[1].tolist()
    paulis = [code for code in codes if code >> num]
    assert any(readout_flips(cfg, code) for code in paulis) and any(not readout_flips(cfg, code) for code in paulis)
    for code in paulis + [(1 << num + 2 * cfg.n) - 1]:
        with pytest.raises(ValueError, match="no block-3 Pauli bits"):
            gd.enumerate_branches(cfg, code)
        assert len(gd.enumerate_branches(cfg, readout_flips(cfg, code))) == len(gd.enumerate_branches(cfg))


def _oracle_masses(cfg, codes):
    """The (len(codes), N_BINS) masses of the record oracle: every
    noiseless row read through each frame code, its probability summed
    into its ``record_bins`` bin in row order."""
    probs = gd.enumerate_branches(cfg).probabilities
    rows, frames = np.tile(np.arange(len(probs)), len(codes)), np.repeat(codes, len(probs))
    bins = record_bins(cfg, rows_under_frames(cfg, rows, frames), frames)
    slots = bins + gd.N_BINS * np.arange(len(codes)).repeat(len(probs))  # code c's bin j is slot c * N_BINS + j
    return np.bincount(slots, np.tile(probs, len(codes)), len(codes) * gd.N_BINS).reshape(-1, gd.N_BINS)


def _assert_table_matches_the_record_oracle(cfg, codes):
    """The mass table's rows at the statistics of ``codes`` lie within
    1e-13 relative of the record oracle's row-order masses, with the same
    zeros; returns the oracle's masses."""
    want = _oracle_masses(cfg, codes)
    got = gd._statistic_masses(cfg)[gd._frame_statistics(cfg, codes)]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    assert np.array_equal(got == 0, want == 0)
    return want


_FRAME_BIN_CASES = [
    *(gd.GadgetConfig.t_state(n, r) for n in (1, 3, 5, 7) for r in (1, 3, 5)),
    gd.GadgetConfig.plus_i(3),
    gd.GadgetConfig.custom(3, 1.0, 1, 3),
    gd.GadgetConfig.custom(3, 1.0, 3, 1),
    gd.GadgetConfig.t_state(1, 29),  # M = 60: the widest n=1 config under FRAME_BITS
]


@pytest.mark.parametrize(
    "cfg", _FRAME_BIN_CASES, ids=lambda c: f"{_THETA_NAMES.get(c.theta, 'custom')}-n{c.n}-rz{c.r_z}-rzz{c.r_zz}"
)
def test_frame_bins_match_the_record_oracle(cfg):
    # a frame's bins: under the empty frame, 64 uniform frame codes and 64
    # codes of two set bits (few flips, so many records are accepted), the
    # mass table's rows are the record oracle's binning of every noiseless row
    width = cfg.num_measurements + 2 * cfg.n
    rng = np.random.default_rng(31)
    sparse = np.bitwise_xor.reduce(1 << rng.integers(width, size=(64, 2)), axis=1)
    codes = np.concatenate([[0], rng.integers(1 << width, size=64), sparse])
    want = _assert_table_matches_the_record_oracle(cfg, codes)
    assert np.count_nonzero(want.any(axis=0)) > 2


def test_faulted_branches_are_read_only():
    # the branches of a readout mask are cached and shared by every code
    # with that mask, so none of their arrays, the derived records
    # included, may be written
    cfg = gd.GadgetConfig.t_state(3, 1)
    for flips in (0, 0b101, (1 << cfg.num_measurements) - 1):
        branches = gd.enumerate_branches(cfg, flips)
        arrays = (branches.words, branches.records, branches.probabilities)
        assert not any(a.flags.writeable for a in arrays), flips
        assert branches.words.dtype == np.int64 and branches.records.dtype == np.int8


@pytest.mark.parametrize("max_amps", [64, 100])
def test_large_stacks_advance_in_parts(monkeypatch, max_amps):
    # the state-vector oracle splits stacks into chunks of rows while it
    # builds the noiseless table; at 100 amplitudes a chunk is not a power
    # of two rows
    cfg = gd.GadgetConfig.t_state(3, 1)
    whole_words, whole_probs, whole_states = sv.noiseless_table(cfg)
    advance, stacks = sv._advance, []
    signature = inspect.signature(advance)

    def recording(*args, **kwargs):
        stacks.append(signature.bind(*args, **kwargs).arguments["amps"].shape)
        return advance(*args, **kwargs)

    monkeypatch.setattr(sv, "_advance", recording)
    monkeypatch.setattr(sv, "_MAX_AMPS", max_amps)
    words, probs, states = sv.noiseless_table(cfg)
    assert len(stacks) > 1
    assert all(rows == 1 or rows * width <= max_amps for rows, width in stacks), stacks
    assert np.array_equal(whole_words, words) and words.dtype == np.int64
    np.testing.assert_allclose(probs, whole_probs, rtol=0, atol=1e-15)
    np.testing.assert_allclose(states, whole_states, rtol=0, atol=1e-15)


def _assert_table_matches_the_oracle(cfg):
    """The closed-form table of ``cfg`` against the state-vector oracle: the
    same words in the same order, probabilities within 1e-14 relative,
    |u|^2 + |v|^2 within 1e-14 relative of 16 times them, and the states
    expanded from the (u, v) amplitudes within 1e-14 once the global phase
    is aligned; it is read-only and holds no NaN."""
    branches, amplitudes = gd._noiseless_table.__wrapped__(cfg)  # keeps the cache for the named configs
    assert not any(a.flags.writeable for a in (branches.words, branches.probabilities, amplitudes))
    words, probs, oracle_states = sv.noiseless_table(cfg)
    assert np.array_equal(branches.words, words) and branches.words.dtype == np.int64
    np.testing.assert_allclose(branches.probabilities, probs, rtol=1e-14, atol=0)
    assert amplitudes.shape == (len(words), 2) and amplitudes.dtype == np.complex128
    np.testing.assert_allclose((abs(amplitudes) ** 2).sum(axis=1), 16 * branches.probabilities, rtol=1e-14, atol=0)
    states = expand_states(cfg.n, amplitudes)
    assert not np.isnan(states).any()
    overlap = np.einsum("ij,ij->i", states.conj(), oracle_states)
    np.testing.assert_allclose(states * (overlap / abs(overlap))[:, None], oracle_states, rtol=0, atol=1e-14)
    return branches


_TABLE_CASES = [  # every r pair at n <= 5; at n = 7, where an oracle build takes 0.3-0.8 s, one unequal pair
    *(
        gd.GadgetConfig.custom(n, theta, r_z, r_zz)
        for n in (1, 3, 5)
        for theta in (math.pi / 4, math.pi / 2, 1.0)
        for r_z, r_zz in ((1, 1), (1, 3), (3, 1))
    ),
    *(gd.GadgetConfig.custom(7, theta) for theta in (math.pi / 4, math.pi / 2, 1.0)),
    gd.GadgetConfig.custom(7, 1.0, 3, 1),
]


@pytest.mark.parametrize(
    "cfg", _TABLE_CASES, ids=lambda c: f"{_THETA_NAMES.get(c.theta, 'custom')}-n{c.n}-rz{c.r_z}-rzz{c.r_zz}"
)
def test_closed_form_table_matches_the_state_vector_oracle(cfg):
    branches = _assert_table_matches_the_oracle(cfg)
    assert len(branches) == 8 << cfg.n  # 0 < cos(theta) < 1: no row has probability 0
    if cfg.theta == math.pi / 2:  # c = s = 1/2 exactly
        assert np.all(branches.probabilities == 2.0 ** -(cfg.n + 3))


@pytest.mark.parametrize("theta", [0.0, math.pi], ids=["theta0", "pi"])
@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_closed_form_table_at_theta_zero_and_pi_keeps_16_rows(n, theta):
    # c or s is 0: only x = 0 and x = ~0 keep weight, under each zl, b and y_0
    assert len(_assert_table_matches_the_oracle(gd.GadgetConfig.custom(n, theta, 1, 3))) == 16


def _digest(array: np.ndarray) -> str:
    return f"{array.dtype}{list(array.shape)} {hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()}"


@pytest.mark.parametrize("case", TABLES["cases"], ids=lambda c: f"{c['target']}-n{c['n']}-r{c['r']}")
def test_noiseless_table_matches_golden_digests(case):
    make = gd.GadgetConfig.t_state if case["target"] == "T" else gd.GadgetConfig.plus_i
    cfg = make(case["n"], case["r"])
    branches = gd._noiseless_table(cfg)[0]
    arrays = {"records": branches.records, "probabilities": branches.probabilities, "states": noiseless_states(cfg)}
    assert {name: _digest(array) for name, array in arrays.items()} == case["arrays"]


_THETA_NAMES = {math.pi / 4: "T", math.pi / 2: "plusI"}
_ORACLE_CASES = [  # (config, sampled pairs or None for all)
    *((make(n), None) for n in (3, 5) for make in (gd.GadgetConfig.t_state, gd.GadgetConfig.plus_i)),
    *((gd.GadgetConfig.custom(n, 1.0), None) for n in (3, 5)),
    (gd.GadgetConfig.t_state(7), 2000),
]


@pytest.mark.parametrize(
    "cfg, sampled", _ORACLE_CASES, ids=[f"{_THETA_NAMES.get(cfg.theta, 'custom')}-n{cfg.n}" for cfg, _ in _ORACLE_CASES]
)
def test_class_table_matches_the_oracle(cfg, sampled):
    # at every (noiseless row, q), or at a seeded sample of them, the record
    # oracle's bin under the code q << M is the state-vector oracle's bin of
    # the row's state under its correction times q (BIN_REJECTED where the
    # row is rejected), and the class table at the row's class, which
    # rejected rows reach under readout flips, holds the state-vector bin of
    # the row's state under q: on every q only the X parity and the Z
    # majority matter
    n, num = cfg.n, cfg.num_measurements
    states = noiseless_states(cfg)
    found = corrections(cfg, gd.enumerate_branches(cfg).records)
    fixes = np.array([0 if c is None else c[0] << n | c[1] for c in found])
    accepted = np.array([c is not None for c in found])
    if sampled is None:
        rows, qs = np.divmod(np.arange(len(states) << 2 * n), 1 << 2 * n)
    else:
        rng = np.random.default_rng(2024)
        rows, qs = rng.integers(len(states), size=sampled), rng.integers(1 << 2 * n, size=sampled)
    # the oracle's bins under q, then under the correction times q, one call per distinct Pauli
    at, paulis = np.concatenate((rows, rows)), np.concatenate((qs, qs ^ fixes[rows]))
    order = np.argsort(paulis, kind="stable")
    distinct, starts = np.unique(paulis[order], return_index=True)
    want = np.empty(len(paulis), dtype=np.int64)
    for p, group in zip(distinct.tolist(), np.split(order, starts[1:])):
        want[group] = oracle_bins(apply_pauli(states[at[group]], n, (p >> n, p & ((1 << n) - 1))), cfg)
    table = gd._decoder(cfg)[0]
    assert np.array_equal(table[row_classes(cfg)[rows], logical_images(n, qs)], want[: len(qs)])
    fixed = np.where(accepted[rows], want[len(qs) :], gd.BIN_REJECTED)
    assert np.array_equal(record_bins(cfg, rows_under_frames(cfg, rows, qs << num), qs << num), fixed)


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_class_tables_hold_only_the_four_classes(n):
    # a row's four logical fidelities sum to 2, so its best is at least 1/2
    # and every accepted output has a class: the bins are I, XL, ZL, YL and
    # rejected, at every angle, down to 1e-7 from 0 and pi, on every class
    # with rows
    for theta in (-2.0, 0.0, 1e-7, math.pi / 4, 1.0, math.pi / 2, 2.5, math.pi - 1e-7, math.pi):
        cfg = gd.GadgetConfig.custom(n, theta)
        table = gd._decoder(cfg)[0]
        assert table.shape == (8 * (n + 1), 4), cfg
        assert np.all(gd._logical_fidelities(cfg)[row_classes(cfg)].max(axis=1) > 0.5 + 1e-9), cfg
        assert set(np.unique(table).tolist()) <= {0, gd.BIN_XL, gd.BIN_ZL, gd.BIN_YL}, cfg


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_logical_fidelities_take_their_analytic_values(n):
    # sum_P |<t|P|s>|^2 = 2 over the four Paulis of one qubit, on every row
    # class; a correctable T row reads 1 at its correction, and X_L and Y_L
    # take |T>_L to states at fidelity exactly 1/2 to it
    for cfg in (gd.GadgetConfig.t_state(n), gd.GadgetConfig.plus_i(n), gd.GadgetConfig.custom(n, 1.0)):
        fid = gd._logical_fidelities(cfg)
        assert fid.shape == (8 * (n + 1), 4), cfg
        np.testing.assert_allclose(fid.sum(axis=1), 2, rtol=0, atol=1e-12)
    cfg = gd.GadgetConfig.t_state(n)
    found = decode_records(cfg, gd.enumerate_branches(cfg).records)[2]
    rows = np.flatnonzero(found >= 0)
    assert len(rows) > 0
    fid, fixes = gd._logical_fidelities(cfg)[row_classes(cfg)[rows]], found[rows, None]
    np.testing.assert_allclose(np.take_along_axis(fid, fixes, axis=1), 1, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.take_along_axis(fid, fixes ^ [gd.BIN_XL, gd.BIN_YL], axis=1), 0.5, rtol=0, atol=1e-12)


def _kernel_directions(cfg):
    """The n + 3 frame codes no mass sees, in the frame-code layout (r_z
    readouts, block 1, r_zz readouts, block 2, then the block-3 Z and X
    masks): X_j X_(j+1) on block 3, every r_z readout with X_L = X_0, every
    r_z and r_zz readout, every block-1 readout, and every block-2 readout
    with Z_L = Z^n."""
    n, r_z, r_zz, m = cfg.n, cfg.r_z, cfg.r_zz, cfg.num_measurements
    zl, zz, block = (1 << r_z) - 1, (1 << r_zz) - 1 << r_z + n, (1 << n) - 1
    xx = [3 << m + n + j for j in range(n - 1)]
    return xx + [zl | 1 << m + n, zl | zz, block << r_z, block << r_z + n + r_zz | block << m]


def _gf2_rank(vectors):
    """The rank over GF(2) of ints read as bit vectors."""
    basis = []  # distinct leading bits, largest first
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis = sorted(basis + [v], reverse=True)
    return len(basis)


def _assert_masses_keep(cfg, codes):
    """Every kernel direction leaves the mass table's row of each code as
    it is, up to summation order: within 1e-13 relative, with the same
    zeros."""
    table = gd._statistic_masses(cfg)
    want = table[gd._frame_statistics(cfg, codes)]
    for d in _kernel_directions(cfg):
        got = table[gd._frame_statistics(cfg, codes ^ d)]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        assert np.array_equal(got == 0, want == 0)


def test_no_bin_sees_the_kernel_on_any_code_at_the_anchor():
    # all 2^14 frame codes at n=3, r=1
    cfg = gd.GadgetConfig.t_state(3, 1)
    _assert_masses_keep(cfg, np.arange(1 << cfg.num_measurements + 2 * cfg.n))


@pytest.mark.parametrize("theta", [math.pi / 4, math.pi / 2, 1.0, 1e-7, math.pi - 1e-7], ids=lambda t: f"theta{t:.3g}")
@pytest.mark.parametrize("n, r_z, r_zz", [(1, 1, 1), (3, 1, 1), (3, 3, 3), (3, 1, 3), (5, 3, 1), (7, 1, 1)])
def test_no_bin_sees_the_kernel_on_random_codes(n, r_z, r_zz, theta):
    # 4,096 seeded codes, half of them flipping blocks 1 and 2 alike so
    # that their records stay correlated and most are accepted; the n + 3
    # directions are independent
    cfg = gd.GadgetConfig(n, theta, r_z, r_zz)
    _assert_masses_keep(cfg, _seeded_codes(cfg, np.random.default_rng(1509), 4096))
    assert _gf2_rank(_kernel_directions(cfg)) == n + 3


def _seeded_codes(cfg, rng, size):
    """``size`` seeded frame codes, every other one with its block-2 flips
    copied from its block-1 flips, so that its records stay correlated."""
    n, r_z = cfg.n, cfg.r_z
    block, block2 = (1 << n) - 1, r_z + n + cfg.r_zz
    codes = rng.integers(1 << cfg.num_measurements + 2 * n, size=size)
    alike = codes & ~(block << block2) | (codes >> r_z & block) << block2
    return np.where(np.arange(size) % 2, codes, alike)


def _statistic_codes(cfg):
    """One frame code of each statistic of gadget._frame_statistics, in
    statistic order.  A correlated statistic's code flips every parity
    readout of its set zl_bit and b, the first n - alpha readouts of block
    1 and of block 2, and carries X_1 for an odd X parity and Z^n for a Z
    majority.  The uncorrelated code 1 << r_z, block 1's first readout
    alone, comes last; at n = 1 it is correlated, as every code is, and no
    code takes that statistic."""
    n, r_z, r_zz = cfg.n, cfg.r_z, cfg.r_zz
    zl_bit, b, alpha, image = np.unravel_index(np.arange(16 * (n + 1)), (2, 2, n + 1, 4))
    votes = zl_bit * ((1 << r_z) - 1) | b * ((1 << r_zz) - 1) << r_z + n
    flips = ((1 << n - alpha) - 1) * (1 + (1 << n + r_zz)) << r_z  # blocks 1 and 2 alike
    pauli = (image & 1) << n | (image >> 1) * ((1 << n) - 1)
    return np.append(votes | flips | pauli << cfg.num_measurements, 1 << r_z)


@pytest.mark.parametrize("theta", [math.pi / 4, math.pi / 2, 1.0, 1e-7, math.pi - 1e-7], ids=lambda t: f"theta{t:.3g}")
@pytest.mark.parametrize(
    "n, r_z, r_zz",
    [*((n, r_z, r_zz) for n in (1, 3, 5, 7) for r_z, r_zz in ((1, 1), (3, 1), (1, 5))), (3, 3, 3), (3, 1, 3)],
)
def test_masses_depend_only_on_the_frame_statistic(n, r_z, r_zz, theta):
    # the closed-form table against the record oracle's row-order binning:
    # one code of every statistic and 64 seeded raw codes, half of them
    # correlated, each read over every noiseless row, within 1e-13 relative
    # of its statistic's row, with the same zeros
    cfg = gd.GadgetConfig(n, theta, r_z, r_zz)
    codes = np.concatenate([_statistic_codes(cfg), _seeded_codes(cfg, np.random.default_rng(1509), 64)])
    _assert_table_matches_the_record_oracle(cfg, codes)


def test_frame_codes_take_every_statistic_at_the_anchor():
    # all 2^14 frame codes at n=3, r=1: 16(n + 1) correlated statistics and
    # the uncorrelated one
    cfg = gd.GadgetConfig.t_state(3, 1)
    codes = np.arange(1 << cfg.num_measurements + 2 * cfg.n)
    assert np.array_equal(np.unique(gd._frame_statistics(cfg, codes)), np.arange(16 * cfg.n + 17))


@pytest.mark.parametrize("theta", [math.pi / 4, math.pi / 2, 1.0], ids=lambda t: f"theta{t:.3g}")
@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_statistic_codes_invert_the_statistic(n, theta):
    # the oracle test's codes reach every row of the table: one code per
    # statistic, in statistic order; the last, uncorrelated one exists only
    # for n > 1, since at n = 1 every code is correlated
    for r_z, r_zz in ((1, 1), (3, 1), (1, 5)):
        cfg = gd.GadgetConfig(n, theta, r_z, r_zz)
        codes = _statistic_codes(cfg)
        assert codes.shape == (16 * n + 17,) and codes.dtype == np.int64
        assert 0 <= codes.min() and codes.max() < 1 << cfg.num_measurements + 2 * n
        stats = gd._frame_statistics(cfg, codes)
        count = 16 * n + 17 if n > 1 else 16 * n + 16
        assert np.array_equal(stats[:count], np.arange(count)), stats
        if n == 1:
            assert stats[-1] != 16 * n + 16


def _mass_digests(cfg, order):
    rates, index, masses = nz._enumerated_combos(cfg, order)
    return {name: _digest(array) for name, array in {"rates": rates, "index": index, "masses": masses}.items()}


@pytest.mark.parametrize("case", MASSES["cases"], ids=lambda c: f"{c['gadget']}-order{c['order']}")
def test_enumerated_masses_match_golden_digests(case):
    # recorded by scripts/record_enumerated_masses.py; every mass must not
    # move a bit
    assert _mass_digests(ENUMERATED[case["gadget"]], case["order"]) == case["arrays"]


def _subset_codes(cfg, index):
    """Each subset's frame code: the XOR of its events' codes."""
    return np.bitwise_xor.reduce(np.append(nz._event_table(cfg)[1], 0)[index], axis=1)


# the statistics (gadget._frame_statistics) of the subsets' frame codes in
# each recorded build at orders 1 and 2: the codes whose masses the cold
# build sums
STATISTIC_COUNTS = {"T-r1": (7, 24), "T-r3": (8, 23), "plusI-r1": (7, 24)}


@pytest.mark.parametrize("order", (1, 2))
@pytest.mark.parametrize("name", ["T-r1", "T-r3", "plusI-r1"])
def test_subset_masses_are_row_order_sums_of_their_frames(name, order):
    # at n=3, T and +i, a subset's masses from the closed-form table are,
    # bit for bit, its frame code's noiseless rows binned by the record
    # oracle and summed in row order
    cfg = ENUMERATED[name]
    _, index, masses = nz._enumerated_combos(cfg, order)
    codes, inverse = np.unique(_subset_codes(cfg, index), return_inverse=True)
    assert len(np.unique(gd._frame_statistics(cfg, codes))) == STATISTIC_COUNTS[name][order - 1]
    assert np.array_equal(masses, _oracle_masses(cfg, codes)[inverse])


def _counting(monkeypatch, names):
    """Wrap the gadget functions ``names`` to count their calls."""
    calls = dict.fromkeys(names, 0)

    def counting(name):
        inner = getattr(gd, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(gd, name, counting(name))
    return calls


def test_cold_enumeration_build_peaks_under_2_mb():
    # a cold order-2 build at n=3, r=3, its statistic mass table included,
    # summed in closed form over the row classes
    cfg = gd.GadgetConfig.t_state(3, r=3)
    nz._enumerated_combos(cfg, 2)  # build the noiseless, class and event tables first
    gd._flipped.cache_clear()
    gd._statistic_masses.cache_clear()
    tracemalloc.start()
    try:
        nz._enumerated_combos(cfg, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


@pytest.mark.parametrize("order, branch_calls", [(1, 80), (2, 3161)])
def test_enumeration_classifies_in_batches(monkeypatch, order, branch_calls):
    # one enumerate_branches call per subset (the benchmark counts them) but
    # one build of the statistic mass table and one fault_frame call per
    # fault event: subsets reach the gadget as XORed codes.  Each
    # enumerate_branches call, whose result is unread, gets the code's low M
    # bits, below 2^M.
    cfg = gd.GadgetConfig.t_state(3, r=1)
    codes, enumerate_branches = [], gd.enumerate_branches
    monkeypatch.setattr(gd, "enumerate_branches", lambda cfg, code: codes.append(code) or enumerate_branches(cfg, code))
    calls = _counting(monkeypatch, ["fault_frame"])
    nz._event_table.cache_clear()
    gd._statistic_masses.cache_clear()
    subsets = _subset_codes(cfg, nz._enumerated_combos(cfg, order)[1])
    assert len(np.unique(subsets)) == {1: 32, 2: 368}[order]
    assert len(codes) == branch_calls and calls == {"fault_frame": 79}
    assert gd._statistic_masses.cache_info().misses == 1
    assert 0 <= min(codes) <= max(codes) < 1 << cfg.num_measurements


@pytest.mark.parametrize("r", [1, 3])
def test_flipped_view_is_the_noiseless_table_with_its_flips_xored_in(r):
    # a mask's view keeps the noiseless row order: only its words are new,
    # and its probabilities are the table's own read-only array
    cfg = gd.GadgetConfig.t_state(3, r)
    table = gd._noiseless_table(cfg)[0]
    for flips in range(1, 1 << cfg.num_measurements):
        branches = gd.enumerate_branches(cfg, flips)
        assert np.array_equal(branches.words, table.words ^ flips), flips
        assert branches.probabilities is table.probabilities
        assert not branches.words.flags.writeable


@pytest.mark.parametrize("r", [1, 3])
def test_flipped_records_match_the_int8_construction(r):
    # for every mask an order-2 build reaches, the records unpacked from the
    # XORed words are, bit for bit, the noiseless int8 records in their row
    # order with the masked columns negated (-r is r ^ -2)
    cfg = gd.GadgetConfig.t_state(3, r)
    table, num = gd._noiseless_table(cfg)[0], cfg.num_measurements
    masks = np.unique(readout_flips(cfg, _subset_codes(cfg, nz._enumerated_combos(cfg, 2)[1])))
    assert len(masks) > 100
    for flips in masks.tolist():
        branches = gd.enumerate_branches(cfg, flips)
        want = table.records ^ np.array([-2 * (flips >> m & 1) for m in range(num)], dtype=np.int8)
        assert branches.records.dtype == want.dtype and branches.records.shape == want.shape
        assert branches.records.tobytes() == want.tobytes(), flips
        assert np.array_equal(branches.words, table.words ^ flips), flips


def test_outcome_bins_agree_with_scalar_decoding():
    cfg = gd.GadgetConfig.t_state(3, 1)
    circuit = gd.build_circuit(cfg)
    cz0 = next(t for t, loc in enumerate(circuit.locations) if loc.kind is gd.LocationKind.CZ_THETA)
    faults = [
        (cz0, 0, mask(circuit.locations[cz0].qubits)),
        (len(circuit.locations) - 1, mask([6]), 0),
    ]
    code = gd.fault_frame(cfg, faults)
    assert code >> cfg.num_measurements  # the X on qubit 6 stays on block 3
    branches = gd.enumerate_branches(cfg, readout_flips(cfg, code))
    bins = record_bins(cfg, branches, code)
    _assert_table_matches_the_record_oracle(cfg, np.array([code]))
    for (record, _, state), got in zip(branch_states(cfg, branches, code), bins):
        [correction] = corrections(cfg, [record])  # one record at a time
        if correction is None:
            assert got == gd.BIN_REJECTED
            continue
        cls, _, anomaly = classify(state, correction, cfg)
        assert not anomaly and got == CLASS_ORDER.index(cls)
    assert len(set(bins.tolist())) > 2
