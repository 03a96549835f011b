import concurrent.futures
import json
import math
from pathlib import Path

import numpy as np
import pytest

from biasforge import bounds as bd
from biasforge import gadget as gd
from biasforge import noise as nz
from biasforge.statevec import PauliString


class TestNoiseParams:
    def test_eta(self):
        p = nz.NoiseParams(p_x=1e-5, p_z=1e-3, p_zz=1e-5)
        assert abs(p.eta - 100.0) < 1e-12

    def test_eta_infinite_at_zero_px(self):
        assert nz.NoiseParams(p_x=0.0, p_z=1e-3, p_zz=0.0).eta == math.inf

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            nz.NoiseParams(p_x=1e-2, p_z=1e-3, p_zz=0.0)

    def test_from_bias_defaults_pzz_to_px(self):
        p = nz.NoiseParams.from_bias(1e-3, 1000.0)
        assert p.p_zz == p.p_x == 1e-6


class TestFaultEvents:
    def test_event_census(self):
        # r=3, n=3: 27 single-qubit Z sites; 30 two-qubit gates contribute
        # 60 Z, 60 X and 30 ZZ events
        circ = gd.build_circuit(gd.GadgetConfig.t_state(3, r=3))
        events = nz.fault_events(circ)
        by_rate = {"z": 0, "x": 0, "zz": 0}
        for ev in events:
            by_rate[ev.rate] += 1
        assert by_rate == {"z": 87, "x": 60, "zz": 30}

    def test_no_x_events_at_prep_or_meas(self):
        circ = gd.build_circuit(gd.GadgetConfig.t_state(3, r=1))
        single_q = {
            t
            for t, loc in enumerate(circ.locations)
            if loc.kind in (gd.LocationKind.PREP_X, gd.LocationKind.MEAS_X)
        }
        for ev in nz.fault_events(circ):
            if ev.location in single_q:
                assert ev.rate == "z"


def fired_matrix(cfg, cells, size):
    """The (size, E) bool matrix of a block's fired (trial, event) cells."""
    fired = np.zeros((size, len(nz._events(cfg))), dtype=bool)
    fired[cells] = True
    return fired


class TestSampleFaults:
    """Monte Carlo draws a block's fired (trial, event) cells with
    noise._sample_fires; a trial's fault list is its fired events'
    (location, Pauli) pairs, in event order."""

    def test_zero_noise_always_empty(self):
        cfg = gd.GadgetConfig.t_state(3, r=1)
        params = nz.NoiseParams(p_x=0.0, p_z=0.0, p_zz=0.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert sampled_faults(cfg, params, rng) == ()
        trial, event = nz._sample_fires(cfg, params, rng, nz._BLOCK)
        assert trial.size == event.size == 0

    def test_certain_z_everywhere(self):
        cfg = gd.GadgetConfig.t_state(3, r=1)
        circ = gd.build_circuit(cfg)
        params = nz.NoiseParams(p_x=0.0, p_z=1.0, p_zz=0.0)
        # every single-qubit Z event fires: one Z per touched qubit, nothing else
        got = sampled_faults(cfg, params, np.random.default_rng(0))
        assert len(got) == sum(len(loc.qubits) for loc in circ.locations)
        for t, loc in enumerate(circ.locations):
            paulis = [p for loc_t, p in got if loc_t == t]
            assert sorted(paulis, key=lambda p: p.zs) == [PauliString.z_on([q]) for q in sorted(loc.qubits)]

    def test_unit_p_z_fires_every_z_event_in_every_trial(self):
        cfg = gd.GadgetConfig.t_state(3, r=3)
        is_z = np.array([ev.rate == "z" for ev in nz.fault_events(gd.build_circuit(cfg))])
        rng = np.random.default_rng(4)
        for size in (1, 7, nz._BLOCK):
            trial, event = nz._sample_fires(cfg, nz.NoiseParams(p_x=0.0, p_z=1.0, p_zz=0.0), rng, size)
            assert np.array_equal(trial, np.arange(size).repeat(is_z.sum()))
            assert np.array_equal(event, np.tile(np.flatnonzero(is_z), size))
            cells = nz._sample_fires(cfg, nz.NoiseParams(p_x=0.3, p_z=1.0, p_zz=0.2), rng, size)
            assert fired_matrix(cfg, cells, size)[:, is_z].all()

    def test_zero_p_x_fires_no_x_event(self):
        cfg = gd.GadgetConfig.t_state(3, r=1)
        is_x = np.array([ev.rate == "x" for ev in nz.fault_events(gd.build_circuit(cfg))])
        params = nz.NoiseParams(p_x=0.0, p_z=0.2, p_zz=0.2)
        rng = np.random.default_rng(6)
        for _ in range(20):
            fired = fired_matrix(cfg, nz._sample_fires(cfg, params, rng, nz._BLOCK), nz._BLOCK)
            assert not fired[:, is_x].any() and fired[:, ~is_x].any()

    def test_mean_z_count_5sigma(self):
        # 43 single-Z opportunities in the r=1 circuit at p_z = 1e-3
        cfg = gd.GadgetConfig.t_state(3, r=1)
        params = nz.NoiseParams(p_x=0.0, p_z=1e-3, p_zz=0.0)
        n_z = sum(1 for ev in nz.fault_events(gd.build_circuit(cfg)) if ev.rate == "z")
        assert n_z == 43
        rng = np.random.default_rng(123)
        blocks = 50
        total = sum(len(nz._sample_fires(cfg, params, rng, nz._BLOCK)[1]) for _ in range(blocks))
        trials = blocks * nz._BLOCK
        mean = total / trials
        expect = n_z * 1e-3
        sigma_mean = math.sqrt(expect / trials)  # Poisson-ish
        assert abs(mean - expect) < 5 * sigma_mean

    def test_fire_rates_and_co_fire_rates(self):
        # each event fires at its rate; two events, of one kind or of two,
        # fire together at the product of their rates
        cfg = gd.GadgetConfig.t_state(3, r=1)
        events = nz.fault_events(gd.build_circuit(cfg))
        params = nz.NoiseParams(p_x=0.03, p_z=0.06, p_zz=0.01)
        probs = np.array([{"z": params.p_z, "x": params.p_x, "zz": params.p_zz}[ev.rate] for ev in events])
        gate = next(ev.location for ev in events if ev.rate == "x")
        z_a, z_b, x_a = [i for i, ev in enumerate(events) if ev.location == gate][:3]
        assert [events[i].rate for i in (z_a, z_b, x_a)] == ["z", "z", "x"]
        rng = np.random.default_rng(2026)
        blocks = 100
        fires = np.zeros(len(events), dtype=np.int64)
        same = cross = 0
        for _ in range(blocks):
            trial, event = nz._sample_fires(cfg, params, rng, nz._BLOCK)
            # cells come sorted by trial, then event, each at most once
            assert np.all(np.diff(trial * len(events) + event) > 0)
            fired = fired_matrix(cfg, (trial, event), nz._BLOCK)
            fires += fired.sum(axis=0)
            same += int((fired[:, z_a] & fired[:, z_b]).sum())
            cross += int((fired[:, z_a] & fired[:, x_a]).sum())
        trials = blocks * nz._BLOCK
        halfwidths = np.array([nz._wilson_halfwidth(int(k), trials) for k in fires])
        assert np.all(np.abs(fires / trials - probs) <= 4 * halfwidths)
        for k, want in ((same, probs[z_a] * probs[z_b]), (cross, probs[z_a] * probs[x_a])):
            assert abs(k / trials - want) <= 4 * nz._wilson_halfwidth(k, trials)

    def test_fired_events_in_location_order(self):
        cfg = gd.GadgetConfig.t_state(3, r=3)
        params = nz.NoiseParams(p_x=0.05, p_z=0.1, p_zz=0.05)
        faults = sampled_faults(cfg, params, np.random.default_rng(5))
        locs = [loc for loc, _ in faults]
        assert len(set(locs)) > 1 and locs == sorted(locs)


def test_event_frames_combine_by_xor():
    # a fault list's frame code is the XOR of its events' codes, so Z_a Z_b
    # and ZZ on one gate cancel, and Y on the ancilla is X times Z
    cfg = gd.GadgetConfig.t_state(3, r=1)
    circ = gd.build_circuit(cfg)
    events = nz.fault_events(circ)
    frames = nz._event_frames(cfg)
    gate = next(t for t, loc in enumerate(circ.locations) if loc.kind is gd.LocationKind.CPHASE)
    z_a, z_b, _, x_b, zz = [i for i, ev in enumerate(events) if ev.location == gate]
    assert frames.dtype == np.int64 and frames.shape == (len(events),)
    assert frames[z_a] ^ frames[z_b] ^ frames[zz] == 0
    anc = circ.locations[gate].qubits[1]
    y_anc = gd.fault_frame(cfg, [(gate, PauliString(xs=1 << anc, zs=1 << anc))])
    assert frames[x_b] ^ frames[z_b] == y_anc
    # X on the ancilla reaches the later block-1 CPHASEs of its round
    assert frames[x_b] and frames[z_b] and frames[x_b] != y_anc


class TestEnumerate:
    def test_unsupported_order(self):
        cfg = gd.GadgetConfig.t_state(3, r=1)
        with pytest.raises(nz.UnsupportedOrderError):
            nz.enumerate_faults(cfg, nz.NoiseParams.from_bias(1e-3, 100), 3)

    def test_single_z_faults_give_no_logical_error_at_r3(self):
        # pure dephasing, first order: every single Z fault is outvoted,
        # detected, or correctable, for both target angles
        for cfg in (gd.GadgetConfig.plus_i(3, r=3), gd.GadgetConfig.t_state(3, r=3)):
            est = nz.enumerate_faults(cfg, nz.NoiseParams(p_x=0.0, p_z=1e-3, p_zz=0.0), 1)
            assert est.e_z == 0.0 and est.e_x == 0.0 and est.e_y == 0.0

    def test_plus_i_first_order_e_z_vanishes(self):
        # on +i-type outputs X_L and Z_L images coincide; the classifier
        # resolves the tie toward XL, so e_z stays 0 at first order even
        # with X faults present (matching the bound's structure, where the
        # leading Z_L terms are n p_zz and p_z^2)
        cfg = gd.GadgetConfig.plus_i(3, r=3)
        est = nz.enumerate_faults(cfg, nz.NoiseParams(p_x=1e-4, p_z=1e-3, p_zz=0.0), 1)
        assert est.e_z == 0.0

    def test_k1_e_x_linear_coefficient_below_site_count(self):
        # at r=3 single Z faults never reach XL, so with p_z = p_x the
        # first-order X coefficient is isolated and bounded by the n(3r+2)
        # site count of the analytic bound
        cfg = gd.GadgetConfig.t_state(3, r=3)
        params = nz.NoiseParams(p_x=1e-6, p_z=1e-6, p_zz=0.0)
        est = nz.enumerate_faults(cfg, params, 1)
        coeff = est.e_x / 1e-6
        assert 0.0 < coeff <= 3 * (3 * 3 + 2)  # n(3r+2) = 33
        # exact linearity in p_x at first order
        est2 = nz.enumerate_faults(cfg, nz.NoiseParams(p_x=2e-6, p_z=2e-6, p_zz=0.0), 1)
        assert abs(est2.e_x / est.e_x - 2.0) < 1e-3

    def test_k2_zz_lower_bound(self):
        # e_z >= n p_zz (1 - O(p)): the correlated channel survives to k=2
        cfg = gd.GadgetConfig.t_state(3, r=1)
        params = nz.NoiseParams(p_x=1e-6, p_z=1e-6, p_zz=1e-5)
        est = nz.enumerate_faults(cfg, params, 2)
        assert est.e_z >= 3 * 1e-5 * 0.3  # acceptance-preserving fraction > 0.3
        assert est.e_z <= bd.e_zl_bound(3, 1, 1e-6, 1e-6, 1e-5)

    def test_determinism(self):
        cfg = gd.GadgetConfig.t_state(3, r=1)
        params = nz.NoiseParams.from_bias(1e-3, 100)
        a = nz.enumerate_faults(cfg, params, 1)
        b = nz.enumerate_faults(cfg, params, 1)
        assert a == b

    def test_bound_domination_spot(self):
        cfg = gd.GadgetConfig.t_state(3, r=1)
        params = nz.NoiseParams.from_bias(1e-3, 1000.0)
        est = nz.enumerate_faults(cfg, params, 2)
        assert est.e_x <= bd.e_xl_bound(3, 1, params.p_x, params.p_z)
        assert est.e_z <= bd.e_zl_bound(3, 1, params.p_x, params.p_z, params.p_zz)


class TestMonteCarlo:
    def test_zero_noise_rates_exact_zero(self):
        cfg = gd.GadgetConfig.t_state(3, r=1)
        params = nz.NoiseParams(p_x=0.0, p_z=0.0, p_zz=0.0)
        est = nz.estimate_rates_mc(cfg, params, trials=2000, seed=1, threads=1)
        assert est.e_x == 0.0 and est.e_z == 0.0 and est.e_y == 0.0

    def test_zero_noise_reject_rate_is_physical(self):
        # Probability-weighted rejection of the noiseless n=3 T gadget is
        # 5/8 (the +1 branch of each block-2 readout carries cos^2(pi/8),
        # not 1/2, so the uniform-record counting value 1/4 is not what a
        # physical trial sees).
        cfg = gd.GadgetConfig.t_state(3, r=1)
        params = nz.NoiseParams(p_x=0.0, p_z=0.0, p_zz=0.0)
        est = nz.estimate_rates_mc(cfg, params, trials=40_000, seed=3, threads=1)
        ci = 3 * math.sqrt(0.625 * 0.375 / 40_000)
        assert abs(est.reject_rate - 0.625) < ci

    def test_trials_validated(self):
        cfg = gd.GadgetConfig.t_state(3, r=1)
        with pytest.raises(ValueError):
            nz.estimate_rates_mc(cfg, nz.NoiseParams.from_bias(1e-3, 100), trials=0, seed=0)

    def test_seed_determinism_bit_for_bit(self):
        cfg = gd.GadgetConfig.t_state(3, r=1)
        params = nz.NoiseParams.from_bias(1e-2, 10)
        a = nz.estimate_rates_mc(cfg, params, trials=3000, seed=11, threads=1)
        b = nz.estimate_rates_mc(cfg, params, trials=3000, seed=11, threads=1)
        assert a == b

    def test_thread_count_invariance(self):
        cfg = gd.GadgetConfig.t_state(3, r=1)
        params = nz.NoiseParams.from_bias(1e-2, 10)
        a = nz.estimate_rates_mc(cfg, params, trials=2000, seed=7, threads=1)
        b = nz.estimate_rates_mc(cfg, params, trials=2000, seed=7, threads=2)
        assert a == b

    def test_counts_do_not_depend_on_the_worker_count(self, monkeypatch):
        # workers take whole blocks; the last one also takes the short block
        monkeypatch.setattr(nz, "_MIN_TRIALS_PER_WORKER", 1)
        cfg = gd.GadgetConfig.t_state(3, r=1)
        params = nz.NoiseParams.from_bias(1e-2, 10)
        trials = 2 * nz._BLOCK + 5
        assert nz._pool_workers(trials, 3) == 3
        one, two, three = (nz.estimate_rates_mc(cfg, params, trials, seed=13, threads=t) for t in (1, 2, 3))
        assert one == two == three

    def test_pool_only_when_every_worker_gets_the_minimum(self, monkeypatch):
        started = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        cfg = gd.GadgetConfig.t_state(3, r=1)
        anchor, noisy = nz.NoiseParams.from_bias(1e-3, 100), nz.NoiseParams.from_bias(5e-2, 3)
        # work is counted in trials, whatever the noise
        least = nz._MIN_TRIALS_PER_WORKER
        assert nz._pool_workers(least - 1, 8) == 1
        assert nz._pool_workers(2 * least - 1, 8) == 1
        assert nz._pool_workers(2 * least, 8) == 2
        assert nz._pool_workers(20 * least, 8) == 8
        assert nz._pool_workers(20 * least, 1) == 1
        nz.estimate_rates_mc(cfg, noisy, trials=2 * least - 1, seed=5, threads=2)
        assert started == []
        pooled = nz.estimate_rates_mc(cfg, anchor, trials=2 * least, seed=5, threads=3)
        assert started == [2]  # a third worker would get too little work
        assert pooled == nz.estimate_rates_mc(cfg, anchor, trials=2 * least, seed=5, threads=1)

    def test_threads_env_var_respected(self, monkeypatch):
        monkeypatch.setenv("BIASFORGE_THREADS", "2")
        assert nz._resolve_threads(None) == 2
        monkeypatch.setenv("BIASFORGE_THREADS", "0")
        assert nz._resolve_threads(None) >= 1
        assert nz._resolve_threads(3) == 3  # explicit argument wins

    def test_default_threads_follow_cpu_affinity(self, monkeypatch):
        # pinned to one of eight CPUs: one worker, not eight
        monkeypatch.setattr(nz.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(nz.os, "cpu_count", lambda: 8)
        assert nz._resolve_threads(0) == 1
        monkeypatch.delenv("BIASFORGE_THREADS", raising=False)
        assert nz._resolve_threads(None) == 1

    def test_threads_must_be_non_negative_integers(self, monkeypatch):
        monkeypatch.setenv("BIASFORGE_THREADS", "two")
        with pytest.raises(ValueError, match="BIASFORGE_THREADS"):
            nz._resolve_threads(None)
        assert nz._resolve_threads(1) == 1  # an explicit count does not read the variable
        monkeypatch.setenv("BIASFORGE_THREADS", "-2")
        with pytest.raises(ValueError):
            nz._resolve_threads(None)
        with pytest.raises(ValueError):
            nz._resolve_threads(-3)
        cfg = gd.GadgetConfig.t_state(3, r=1)
        params = nz.NoiseParams.from_bias(1e-3, 100)
        with pytest.raises(ValueError):
            nz.estimate_rates_mc(cfg, params, trials=100, seed=0, threads=-3)
        # non-integer trials, seeds and thread counts are refused before any trial runs
        for name, kwargs in (
            ("seed", dict(trials=100, seed=1.5)),
            ("trials", dict(trials=100.0, seed=0)),
            ("threads", dict(trials=100, seed=0, threads=1.5)),
        ):
            with pytest.raises(ValueError, match=name):
                nz.estimate_rates_mc(cfg, params, **kwargs)
        est = nz.estimate_rates_mc(cfg, params, trials=np.int64(100), seed=np.uint64(1), threads=np.int32(1))
        assert est.trials_or_order == 100

    def test_mc_agrees_with_enumeration(self):
        cfg = gd.GadgetConfig.t_state(3, r=1)
        params = nz.NoiseParams.from_bias(1e-3, 100)
        mc = nz.estimate_rates_mc(cfg, params, trials=150_000, seed=2024, threads=1)
        en = nz.enumerate_faults(cfg, params, 2)
        trials = mc.trials_or_order
        assert abs(mc.e_x - en.e_x) <= 3 * binomial_ci(mc.e_x, en.e_x, trials)
        assert abs(mc.e_z - en.e_z) <= 3 * binomial_ci(mc.e_z, en.e_z, trials)
        assert abs(mc.e_x_given_accept - en.e_x_given_accept) <= 4 * binomial_ci(
            mc.e_x_given_accept, en.e_x_given_accept, round(mc.accepted_weight * trials)
        )


# ---------------------------------------------------------------------------
# Block sampler against a per-trial loop over the same draws.


def test_negative_seed_rejected():
    cfg = gd.GadgetConfig.t_state(3, r=1)
    with pytest.raises(ValueError):
        nz.estimate_rates_mc(cfg, nz.NoiseParams.from_bias(1e-3, 100), trials=10, seed=-1, threads=1)


def test_trial_ranges_start_on_a_block():
    cfg = gd.GadgetConfig.t_state(3, r=1)
    with pytest.raises(ValueError, match="multiple"):
        nz._mc_counts(cfg, nz.NoiseParams.from_bias(1e-3, 100), 1, range(5, 10))


def _per_trial_counts(cfg, params, seed, trials):
    """Monte Carlo counts one trial at a time.  Each block draws its fired
    (trial, event) cells with noise._sample_fires and then its arrays from
    default_rng([seed, block]) in _mc_counts' order; a clean trial takes the
    next clean draw, and a faulted one is one sampled run under the frame of
    its fired events' (location, Pauli) pairs, with its row of readout
    draws, binned on its own."""
    events = nz.fault_events(gd.build_circuit(cfg))
    cum, leaf_bins = nz._noiseless_leaf_pool(cfg)
    counts = np.zeros(gd.N_BINS, dtype=np.int64)
    for start in range(0, trials, nz._BLOCK):
        rng = np.random.default_rng([seed, start // nz._BLOCK])
        size = min(nz._BLOCK, trials - start)
        faulted = {}
        for t, e in zip(*(cells.tolist() for cells in nz._sample_fires(cfg, params, rng, size))):
            faulted.setdefault(t, []).append(events[e])
        clean = iter(rng.random(size - len(faulted)))
        readouts = iter(rng.random((len(faulted), cfg.num_measurements)))
        for t in range(size):
            if t not in faulted:
                leaf = int(np.searchsorted(cum, next(clean) * cum[-1]))
                counts[leaf_bins[min(leaf, len(leaf_bins) - 1)]] += 1
                continue
            frame = gd.fault_frame(cfg, [(ev.location, ev.pauli) for ev in faulted[t]])
            run = gd.sample_branches(cfg, np.array([frame]), next(readouts)[None])
            counts[gd.outcome_bins(cfg, run)[0]] += 1
    return counts


def _assert_estimate_counts(est, counts, trials):
    acc = counts[0] + counts[1] + counts[2] + counts[3] + counts[5]
    got = (est.accepted_weight, est.e_x, est.e_z, est.e_y, est.reject_rate, est.anomaly_rate)
    assert got == tuple(int(k) / trials for k in (acc, *counts[1:])), counts


@pytest.mark.parametrize(
    "cfg",
    [gd.GadgetConfig.t_state(3, r=1), gd.GadgetConfig.t_state(3, r=3), gd.GadgetConfig.plus_i(3, r=1)],
    ids=["T-r1", "T-r3", "plusI-r1"],
)
@pytest.mark.parametrize(
    "p_z, eta, trials, seed",
    [(1e-3, 100.0, 3000, 29), (1e-2, 10.0, 1500, 2**100 + 1), (5e-2, 3.0, 400, 7)],
)
def test_monte_carlo_counts_match_per_trial_loop(cfg, p_z, eta, trials, seed):
    params = nz.NoiseParams.from_bias(p_z, eta)
    want = _per_trial_counts(cfg, params, seed, trials)
    _assert_estimate_counts(nz.estimate_rates_mc(cfg, params, trials, seed, threads=1), want, trials)


MC_COUNTS = json.loads((Path(__file__).parent / "golden" / "mc_counts.json").read_text())
GADGETS = {  # name -> config at code length n
    "T-r1": lambda n: gd.GadgetConfig.t_state(n, 1),
    "T-r3": lambda n: gd.GadgetConfig.t_state(n, 3),
    "plusI-r1": lambda n: gd.GadgetConfig.plus_i(n, 1),
}


def _golden_id(case):
    return f"{case['gadget']}-n{case['n']}-pz{case['p_z']}-px{case['p_x']:.3g}-{case['trials']}x{case['seed'] % 10**6}"


@pytest.mark.parametrize("case", MC_COUNTS["cases"], ids=_golden_id)
def test_monte_carlo_counts_match_recording(case):
    # recorded by scripts/record_mc_counts.py when each block of _BLOCK
    # trials first drew its fired events sparsely (noise._sample_fires)
    cfg = GADGETS[case["gadget"]](case["n"])
    params = nz.NoiseParams(p_x=case["p_x"], p_z=case["p_z"], p_zz=case["p_zz"])
    counts = nz._mc_counts(cfg, params, case["seed"], range(case["trials"]))
    assert counts.tolist() == case["counts"]


def binomial_ci(mc_rate: float, en_rate: float, n: int) -> float:
    """95% binomial halfwidth at the larger of the two rates.

    Falls back to the enumerated rate when the sampled count is zero,
    where the plug-in CI is degenerate.
    """
    p = max(mc_rate, en_rate)
    return 1.959963984540054 * math.sqrt(p * (1.0 - p) / n)


def sampled_faults(cfg, params, rng):
    """One trial's draw of every fault event of ``cfg``'s circuit: the fired
    events' (location, Pauli) pairs."""
    events = nz.fault_events(gd.build_circuit(cfg))
    return tuple((events[e].location, events[e].pauli) for e in nz._sample_fires(cfg, params, rng, 1)[1].tolist())
