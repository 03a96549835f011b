import dataclasses
import json
import math
import operator
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from biasforge import bounds as bd
from biasforge import gadget as gd
from biasforge import noise as nz
from classify_oracle import RATE_KINDS, forward_frame, mask, readout_flips, record_bins, reference_events


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
        assert nz.NoiseParams.from_bias(1e-3, math.inf).p_x == 0.0

    @pytest.mark.parametrize("rates", [(-0.0, 1e-3, 0.0), (0.0, -0.0, 0.0), (0.0, 1e-3, -0.0), (-0.0, -0.0, -0.0)])
    def test_a_negative_zero_rate_is_refused(self, rates):
        # -0.0 passes every >= 0 comparison; each rate is checked on its own
        with pytest.raises(ValueError, match="negative zero"):
            nz.NoiseParams(*rates)
        assert nz.NoiseParams(*(abs(rate) for rate in rates)).p_z in (0.0, 1e-3)

    @pytest.mark.parametrize("eta", [0.0, -0.0, -1.0, math.nan])
    def test_from_bias_needs_a_positive_eta(self, eta):
        with pytest.raises(ValueError, match="eta"):
            nz.NoiseParams.from_bias(1e-3, eta)
        with pytest.raises(ValueError, match="eta"):
            nz.NoiseParams.from_bias(0.0, eta)


class TestFaultEvents:
    def test_event_census(self):
        # r=3, n=3: 27 single-qubit Z sites; 30 two-qubit gates contribute
        # 60 Z, 60 X and 30 ZZ events
        rates = nz._event_table(gd.GadgetConfig.t_state(3, r=3))[0]
        assert np.bincount(rates).tolist() == [87, 60, 30]

    def test_no_x_events_at_prep_or_meas(self):
        cfg = gd.GadgetConfig.t_state(3, r=1)
        circ = gd.build_circuit(cfg)
        rates = nz._event_table(cfg)[0]
        single_q = {
            t
            for t, loc in enumerate(circ.locations)
            if loc.kind in (gd.LocationKind.PREP_X, gd.LocationKind.MEAS_X)
        }
        for (_, location, _, _), rate in zip(reference_events(cfg), rates.tolist()):
            if location in single_q:
                assert rate == RATE_KINDS.index("z")


def fired_matrix(cfg, cells, size):
    """The (size, E) bool matrix of a block's fired (trial, event) cells."""
    fired = np.zeros((size, len(nz._event_table(cfg)[0])), dtype=bool)
    fired[cells] = True
    return fired


class TestSampleFaults:
    """Monte Carlo draws a block's fired (trial, event) cells with
    noise._sample_fires; a trial's fault list is its fired events'
    (location, X mask, Z mask) triples, in event order."""

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
            paulis = [(xs, zs) for loc_t, xs, zs in got if loc_t == t]
            assert sorted(paulis) == [(0, mask([q])) for q in sorted(loc.qubits)]

    def test_unit_p_z_fires_every_z_event_in_every_trial(self):
        cfg = gd.GadgetConfig.t_state(3, r=3)
        is_z = np.array([rate == "z" for rate, *_ in reference_events(cfg)])
        rng = np.random.default_rng(4)
        for size in (1, 7, nz._BLOCK):
            trial, event = nz._sample_fires(cfg, nz.NoiseParams(p_x=0.0, p_z=1.0, p_zz=0.0), rng, size)
            assert np.array_equal(trial, np.arange(size).repeat(is_z.sum()))
            assert np.array_equal(event, np.tile(np.flatnonzero(is_z), size))
            cells = nz._sample_fires(cfg, nz.NoiseParams(p_x=0.3, p_z=1.0, p_zz=0.2), rng, size)
            assert fired_matrix(cfg, cells, size)[:, is_z].all()

    def test_zero_p_x_fires_no_x_event(self):
        cfg = gd.GadgetConfig.t_state(3, r=1)
        is_x = np.array([rate == "x" for rate, *_ in reference_events(cfg)])
        params = nz.NoiseParams(p_x=0.0, p_z=0.2, p_zz=0.2)
        rng = np.random.default_rng(6)
        for _ in range(20):
            fired = fired_matrix(cfg, nz._sample_fires(cfg, params, rng, nz._BLOCK), nz._BLOCK)
            assert not fired[:, is_x].any() and fired[:, ~is_x].any()

    def test_mean_z_count_5sigma(self):
        # 43 single-Z opportunities in the r=1 circuit at p_z = 1e-3
        cfg = gd.GadgetConfig.t_state(3, r=1)
        params = nz.NoiseParams(p_x=0.0, p_z=1e-3, p_zz=0.0)
        n_z = sum(1 for rate, *_ in reference_events(cfg) if rate == "z")
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
        events = reference_events(cfg)
        params = nz.NoiseParams(p_x=0.03, p_z=0.06, p_zz=0.01)
        probs = np.array([{"z": params.p_z, "x": params.p_x, "zz": params.p_zz}[rate] for rate, *_ in events])
        gate = next(location for rate, location, _, _ in events if rate == "x")
        z_a, z_b, x_a = [i for i, ev in enumerate(events) if ev[1] == gate][:3]
        assert [events[i][0] for i in (z_a, z_b, x_a)] == ["z", "z", "x"]
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
        locs = [loc for loc, _, _ in faults]
        assert len(set(locs)) > 1 and locs == sorted(locs)

    @pytest.mark.parametrize("size", [1, 7, nz._BLOCK])
    @pytest.mark.parametrize(
        "params",
        [nz.NoiseParams.from_bias(1e-3, 100.0), nz.NoiseParams(p_x=0.0, p_z=1e-3, p_zz=0.0)],
        ids=["anchor", "z-only"],
    )
    def test_skipping_an_empty_choice_leaves_the_stream_alone(self, params, size):
        # a reference that calls choice for every kind, also when it fires
        # no cell, gives the same cells and leaves the generator in the same
        # state, so the block's doubles after it are the same
        cfg = gd.GadgetConfig.t_state(3, r=1)
        rates, _, kinds = nz._event_table(cfg)
        probs = (params.p_z, params.p_x, params.p_zz)
        for seed in range(20):
            rng, ref = np.random.default_rng([seed, size]), np.random.default_rng([seed, size])
            got = nz._sample_fires(cfg, params, rng, size)
            keys = [np.empty(0, dtype=np.int64)]
            for k, kind in kinds:
                cells = size * len(kind)
                hit = ref.choice(cells, ref.binomial(cells, probs[k]), replace=False)
                keys.append(hit // len(kind) * len(rates) + kind[hit % len(kind)])
            want = np.divmod(np.sort(np.concatenate(keys)), len(rates))
            assert [a.dtype for a in got] == [np.dtype(np.int64)] * 2
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            assert rng.bit_generator.state == ref.bit_generator.state


def test_event_frames_combine_by_xor():
    # a fault list's frame code is the XOR of its events' codes, so Z_a Z_b
    # and ZZ on one gate cancel, and Y on the ancilla is X times Z
    cfg = gd.GadgetConfig.t_state(3, r=1)
    circ = gd.build_circuit(cfg)
    events = reference_events(cfg)
    frames = nz._event_table(cfg)[1]
    gate = next(t for t, loc in enumerate(circ.locations) if loc.kind is gd.LocationKind.CPHASE)
    z_a, z_b, _, x_b, zz = [i for i, ev in enumerate(events) if ev[1] == gate]
    assert frames.dtype == np.int64 and frames.shape == (len(events),)
    assert frames[z_a] ^ frames[z_b] ^ frames[zz] == 0
    anc = circ.locations[gate].qubits[1]
    y_anc = gd.fault_frame(cfg, [(gate, 1 << anc, 1 << anc)])
    assert frames[x_b] ^ frames[z_b] == y_anc
    # X on the ancilla reaches the later block-1 CPHASEs of its round
    assert frames[x_b] and frames[z_b] and frames[x_b] != y_anc


_EVENT_CONFIGS = {
    "T3": gd.GadgetConfig.t_state(3, r=1),
    "plusI1": gd.GadgetConfig.plus_i(1, r=3),
    **{
        f"{name}-n{n}-r{r}": make(n, r)
        for name, make in (("T", gd.GadgetConfig.t_state), ("plusI", gd.GadgetConfig.plus_i))
        for n in (1, 3, 5, 7)
        for r in (1, 3, 5)
        if (name, n, r) not in (("T", 3, 1), ("plusI", 1, 3))
    },
    "theta1-rz1-rzz3": gd.GadgetConfig.custom(3, 1.0, 1, 3),
    "theta1-rz3-rzz1": gd.GadgetConfig.custom(3, 1.0, 3, 1),
}


@pytest.mark.parametrize("cfg", _EVENT_CONFIGS.values(), ids=_EVENT_CONFIGS.keys())
def test_event_table_describes_fault_events(cfg):
    # the rate index and frame code of each event of the oracle's reference
    # list, pushed through the forward walk, in list order, and the z, x,
    # zz kinds partition the events in that order
    events = reference_events(cfg)
    rates, codes, kinds = nz._event_table(cfg)
    assert rates.tolist() == [RATE_KINDS.index(rate) for rate, *_ in events]
    assert codes.dtype == np.int64
    assert codes.tolist() == [forward_frame(cfg, [fault]) for _, *fault in events]
    want = [(k, [i for i, ev in enumerate(events) if ev[0] == kind]) for k, kind in enumerate(RATE_KINDS)]
    assert [(k, kind.tolist()) for k, kind in kinds] == want
    assert not any(a.flags.writeable for a in (rates, codes, *(kind for _, kind in kinds)))


def fired_counts(rates, row):
    """The (z, x, zz) counts of the events of a padded event-index row."""
    return tuple(np.bincount(rates[row[row < len(rates)]], minlength=3).tolist())


class TestEnumerate:
    def test_unsupported_order(self):
        cfg = gd.GadgetConfig.t_state(3, r=1)
        with pytest.raises(nz.UnsupportedOrderError):
            nz.enumerate_faults(cfg, nz.NoiseParams.from_bias(1e-3, 100), 3)

    @pytest.mark.parametrize(
        "params", [nz.NoiseParams(p_x=0.0, p_z=1.0, p_zz=0.0), nz.NoiseParams(p_x=1e-3, p_z=1e-2, p_zz=1.0)]
    )
    def test_certain_event_rejected_before_the_cold_build(self, monkeypatch, params):
        def unbuilt(cfg, max_order):
            raise AssertionError("fault strata built for rates that enumeration refuses")

        monkeypatch.setattr(nz, "_strata", unbuilt)
        with pytest.raises(ValueError, match="probabilities < 1"):
            nz.enumerate_faults(gd.GadgetConfig.t_state(3, r=1), params, 2)

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

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 6: at equal r >= 3 the exact Z-only p_z^2 coefficient of e_ZL "
        "(112.5 at n=3, r=3) exceeds the bound's n((r_z+3)p_z)^2 term (108)",
    )
    def test_bound_dominates_z_only_noise_at_r3(self):
        # order-2 e_z 1.1155e-6 against e_zl_bound 1.0817e-6; once item 6
        # mends the term this passes, and the strict xfail fails loudly
        est = nz.enumerate_faults(gd.GadgetConfig.t_state(3, 3), nz.NoiseParams(0, 1e-4, 0), 2)
        assert est.e_z <= bd.e_zl_bound(3, 3, 0, 1e-4, 0)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 6(c): e_xl has no p_zz term, but a logical X is first order in p_zz at r=1",
    )
    def test_bound_dominates_zz_heavy_noise_at_r1(self):
        # order-2 e_x 1.589e-3 against e_xl_bound 1.300e-3 at an explicit
        # p_zz above p_z; once item 6 mends the bound this passes, and the
        # strict xfail fails loudly
        est = nz.enumerate_faults(gd.GadgetConfig.t_state(3, 1), nz.NoiseParams(0, 1e-4, 1e-3), 2)
        assert est.e_x <= bd.e_xl_bound(3, 1, 0, 1e-4)

    def test_bound_domination_spot(self):
        cfg = gd.GadgetConfig.t_state(3, r=1)
        params = nz.NoiseParams.from_bias(1e-3, 1000.0)
        est = nz.enumerate_faults(cfg, params, 2)
        assert est.e_x <= bd.e_xl_bound(3, 1, params.p_x, params.p_z)
        assert est.e_z <= bd.e_zl_bound(3, 1, params.p_x, params.p_z, params.p_zz)

    @pytest.mark.parametrize("r, order, strata, subsets", [(1, 1, 4, 80), (1, 2, 10, 3161), (3, 1, 4, 178)])
    def test_strata_partition_the_subsets(self, r, order, strata, subsets):
        cfg = gd.GadgetConfig.t_state(3, r=r)
        rates, reps, masses, sizes = nz._strata(cfg, order)
        _, index, subset_masses = nz._enumerated_combos(cfg, order)
        assert len(reps) == len(masses) == len(sizes) == strata
        assert sizes.sum() == len(index) == subsets
        np.testing.assert_allclose(masses.sum(axis=0), subset_masses.sum(axis=0), rtol=1e-14)
        # one stratum per count of fired z, x and zz events, holding every
        # subset with those counts
        per_kind = np.bincount(rates)
        counts = [fired_counts(rates, row) for row in reps]
        assert len(set(counts)) == strata and all(sum(c) <= order for c in counts)
        assert [math.prod(map(math.comb, per_kind, c)) for c in counts] == list(sizes)

    @pytest.mark.parametrize(
        "cfg, order",
        [
            (gd.GadgetConfig.t_state(3, r=1), 2),
            (gd.GadgetConfig.t_state(3, r=3), 1),
            (gd.GadgetConfig.plus_i(3, r=1), 2),
        ],
        ids=["T-r1-order2", "T-r3-order1", "plusI-r1-order2"],
    )
    @pytest.mark.parametrize(
        "params",
        [nz.NoiseParams.from_bias(1e-3, 100), nz.NoiseParams.from_bias(5e-2, 3), nz.NoiseParams(0.0, 1e-3, 0.0)],
        ids=["anchor", "pz5e-2-eta3", "pure-z"],
    )
    def test_rates_match_exact_sums_over_subsets(self, cfg, order, params):
        # each subset weighted on its own by the per-subset float expression,
        # then every product with its masses summed exactly
        rates, index, masses = nz._enumerated_combos(cfg, order)
        probs = np.array([params.p_z, params.p_x, params.p_zz])[rates]
        with np.errstate(divide="ignore"):
            log_odds = np.append(np.log(probs) - np.log1p(-probs), 0.0)
        weights = np.exp(np.sum(np.log1p(-probs)) + log_odds[index].sum(axis=1))
        # a stratum's weight is each of its subsets' weight, bit for bit
        _, reps, _, _ = nz._strata(cfg, order)
        rep_weights = np.exp(np.sum(np.log1p(-probs)) + log_odds[reps].sum(axis=1))
        by_counts = {fired_counts(rates, row): w for row, w in zip(reps, rep_weights.tolist())}
        assert [by_counts[fired_counts(rates, row)] for row in index] == weights.tolist()
        exact = [Fraction(float(w)) for w in weights]
        bins = [sum(map(operator.mul, exact, map(Fraction, masses[:, b].tolist())), Fraction(0)) for b in range(gd.N_BINS)]
        total, accepted = sum(exact, Fraction(0)), sum(bins) - bins[gd.BIN_REJECTED]
        want = {
            "e_x": bins[gd.BIN_XL] / total,
            "e_z": bins[gd.BIN_ZL] / total,
            "e_y": bins[gd.BIN_YL] / total,
            "reject_rate": bins[gd.BIN_REJECTED] / total,
            "accepted_weight": accepted / total,
            "e_x_given_accept": bins[gd.BIN_XL] / accepted,
            "e_z_given_accept": bins[gd.BIN_ZL] / accepted,
            "e_y_given_accept": bins[gd.BIN_YL] / accepted,
        }
        est = dataclasses.asdict(nz.enumerate_faults(cfg, params, order))
        for field, value in want.items():
            assert abs(Fraction(est[field]) - value) <= Fraction(1e-15) * value, field


def test_rate_estimate_divides_as_numpy_does():
    # the estimate divides Python floats, but its accepted weight must be
    # numpy's bins.sum() - bins[BIN_REJECTED], bit for bit
    rng = np.random.default_rng(3)
    for _ in range(2000):
        bins = rng.random(gd.N_BINS) * 10.0 ** rng.integers(-14, 1, gd.N_BINS)
        total = bins.sum() * (1.0 + rng.random())
        acc = bins.sum() - bins[gd.BIN_REJECTED]
        est = nz._rate_estimate(bins, total, 2)
        assert est.accepted_weight == float(acc / total)
        assert est.e_x_given_accept == float(bins[gd.BIN_XL] / acc)
        assert est.e_y == float(bins[gd.BIN_YL] / total)


def test_per_config_tables_stay_bounded_over_many_configs():
    # a sweep over 70 custom angles keeps at most 64 configs' tables: it
    # retains about 6.5 MiB traced, against 18.4 MiB (about 0.17 MiB a
    # config) when every config's tables and subset masses were kept
    params = nz.NoiseParams.from_bias(1e-3, 100)
    tracemalloc.start()
    try:
        for i in range(70):
            cfg = gd.GadgetConfig.custom(3, 0.5 + 0.01 * i)
            nz.enumerate_faults(cfg, params, 2)
            nz.estimate_rates_mc(cfg, params, 100, 0)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 10 * 2**20, retained
    for cache in (nz._event_table, nz._strata, nz._statistic_pvals, gd._row_classes, gd._statistic_masses):
        assert cache.cache_info().currsize <= 64, cache


class TestMonteCarlo:
    def test_zero_noise_rates_exact_zero(self):
        cfg = gd.GadgetConfig.t_state(3, r=1)
        params = nz.NoiseParams(p_x=0.0, p_z=0.0, p_zz=0.0)
        est = nz.estimate_rates_mc(cfg, params, trials=2000, seed=1)
        assert est.e_x == 0.0 and est.e_z == 0.0 and est.e_y == 0.0

    def test_zero_noise_reject_rate_is_physical(self):
        # Probability-weighted rejection of the noiseless n=3 T gadget is
        # 5/8 (the +1 branch of each block-2 readout carries cos^2(pi/8),
        # not 1/2, so the uniform-record counting value 1/4 is not what a
        # physical trial sees).
        cfg = gd.GadgetConfig.t_state(3, r=1)
        params = nz.NoiseParams(p_x=0.0, p_z=0.0, p_zz=0.0)
        est = nz.estimate_rates_mc(cfg, params, trials=40_000, seed=3)
        ci = 3 * math.sqrt(0.625 * 0.375 / 40_000)
        assert abs(est.reject_rate - 0.625) < ci

    @pytest.mark.parametrize("trials", [1, 2000, nz._BLOCK, 3 * nz._BLOCK + 5])
    def test_zero_noise_counts_are_a_multinomial_over_i_and_rejected(self, trials):
        # no trial faults, so every trial of a block takes the clean
        # statistic, code 0's, and the block's multinomial draws only on its
        # row, whose positive masses are I and rejected; a row of no trials
        # draws nothing
        cfg = gd.GadgetConfig.t_state(3, r=1)
        counts = nz._mc_counts(cfg, nz.NoiseParams(0.0, 0.0, 0.0), 5, trials)
        pvals, clean = nz._statistic_pvals(cfg)
        assert clean == gd._frame_statistics(cfg, np.zeros(1, dtype=np.int64))[0]
        live = [0, gd.BIN_REJECTED]  # I and rejected
        assert np.flatnonzero(pvals[clean]).tolist() == live
        assert pvals[clean][live].tolist() == pytest.approx([0.375, 0.625], rel=1e-14)
        assert set(np.flatnonzero(counts).tolist()) <= set(live) and counts.sum() == trials
        if trials <= nz._BLOCK:
            want = np.random.default_rng([5, 0]).multinomial(trials, pvals[clean])
            assert counts.tolist() == want.tolist()

    def test_trials_validated(self):
        cfg = gd.GadgetConfig.t_state(3, r=1)
        with pytest.raises(ValueError):
            nz.estimate_rates_mc(cfg, nz.NoiseParams.from_bias(1e-3, 100), trials=0, seed=0)

    def test_seed_determinism_bit_for_bit(self):
        cfg = gd.GadgetConfig.t_state(3, r=1)
        params = nz.NoiseParams.from_bias(1e-2, 10)
        a = nz.estimate_rates_mc(cfg, params, trials=3000, seed=11)
        b = nz.estimate_rates_mc(cfg, params, trials=3000, seed=11)
        assert a == b

    def test_every_trial_is_sampled_in_the_calling_process(self, monkeypatch):
        # one call over all trials, short last block included; a call made in
        # another process would not reach this list
        sampled = []

        def counting(cfg, params, seed, trials):
            sampled.append((seed, trials))
            counts = np.zeros(gd.N_BINS, dtype=np.int64)
            counts[0] = trials  # every trial accepted, so the estimate is formed
            return counts

        monkeypatch.setattr(nz, "_mc_counts", counting)
        trials = 2 * nz._BLOCK + 5
        est = nz.estimate_rates_mc(gd.GadgetConfig.t_state(3, r=1), nz.NoiseParams.from_bias(1e-2, 10), trials, 13)
        assert sampled == [(13, trials)] and est.trials_or_order == trials

    def test_trials_and_seed_must_be_integers(self):
        cfg = gd.GadgetConfig.t_state(3, r=1)
        params = nz.NoiseParams.from_bias(1e-3, 100)
        # non-integer trials and seeds are refused before any trial runs
        for name, kwargs in (
            ("seed", dict(trials=100, seed=1.5)),
            ("trials", dict(trials=100.0, seed=0)),
        ):
            with pytest.raises(ValueError, match=name):
                nz.estimate_rates_mc(cfg, params, **kwargs)
        est = nz.estimate_rates_mc(cfg, params, trials=np.int64(100), seed=np.uint64(1))
        assert est.trials_or_order == 100

    def test_mc_agrees_with_enumeration(self):
        cfg = gd.GadgetConfig.t_state(3, r=1)
        params = nz.NoiseParams.from_bias(1e-3, 100)
        mc = nz.estimate_rates_mc(cfg, params, trials=150_000, seed=2024)
        en = nz.enumerate_faults(cfg, params, 2)
        trials = mc.trials_or_order
        assert abs(mc.e_x - en.e_x) <= 3 * binomial_ci(mc.e_x, en.e_x, trials)
        assert abs(mc.e_z - en.e_z) <= 3 * binomial_ci(mc.e_z, en.e_z, trials)
        assert abs(mc.e_x_given_accept - en.e_x_given_accept) <= 4 * binomial_ci(
            mc.e_x_given_accept, en.e_x_given_accept, round(mc.accepted_weight * trials)
        )


@pytest.mark.parametrize(
    "n, theta, over", [(3, math.pi / 4, False), (3, 3.0, True), (5, 3.0, True), (7, 0.5, True), (1, math.pi / 2, False)]
)
def test_statistic_rows_handed_to_numpy_lie_in_the_unit_interval(n, theta, over):
    # rounding lifts some raw masses past 1 (by up to 4.4e-16 at n=5,
    # theta=3), which Generator.multinomial refuses; each row over its sum
    # lies in [0, 1], with the raw row's zeros, within 1e-13 of it
    cfg = gd.GadgetConfig(n, theta, 1, 1)
    masses = gd._statistic_masses(cfg)
    pvals, _ = nz._statistic_pvals(cfg)
    assert pvals.shape == masses.shape == (16 * n + 17, gd.N_BINS) and not pvals.flags.writeable
    assert 0.0 <= pvals.min() and pvals.max() <= 1.0
    assert np.array_equal(pvals == 0, masses == 0)
    np.testing.assert_allclose(pvals, masses, rtol=1e-13, atol=0)
    assert (masses.max() > 1.0) == over
    if over:
        with pytest.raises(ValueError):
            np.random.default_rng(0).multinomial(1, masses[np.argmax(masses.max(axis=1))])


@pytest.mark.parametrize("theta", [1e-5, 1e-7, math.pi - 1e-7], ids=lambda t: f"theta{t:.3g}")
@pytest.mark.parametrize("n, unrejected", [(3, 32), (5, 64), (7, 96)])
def test_statistic_rows_leak_nothing_into_zero_mass_bins(n, unrejected, theta):
    # numpy's multinomial gives its last bin, REJECTED, whatever the other
    # bins leave, so a row that sums short of 1 would leak draws into it.
    # Near theta = 0 and pi, rows with no rejected mass and several bins
    # exist; 2^60 draws on every row leave every zero-mass bin empty
    cfg = gd.GadgetConfig(n, theta, 1, 1)
    masses = gd._statistic_masses(cfg)
    pvals, _ = nz._statistic_pvals(cfg)
    assert np.sum((masses[:, gd.BIN_REJECTED] == 0) & ((masses > 0).sum(axis=1) > 1)) == unrejected
    draws = np.random.default_rng(1509).multinomial(np.full(len(pvals), 2**60), pvals)
    assert np.all(draws.sum(axis=1) == 2**60)
    assert not draws[masses == 0].any()


# ---------------------------------------------------------------------------
# Block sampler against a per-trial loop over the same draws.


def test_negative_seed_rejected(monkeypatch):
    # refused by name before any block draws: numpy's own refusal names no seed
    def refuse(*args):
        raise AssertionError("sampling started")

    monkeypatch.setattr(nz, "_mc_counts", refuse)
    cfg = gd.GadgetConfig.t_state(3, r=1)
    for seed in (-1, np.int64(-(2**40))):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -"):
            nz.estimate_rates_mc(cfg, nz.NoiseParams.from_bias(1e-3, 100), trials=10, seed=seed)


def test_a_long_high_noise_run_peaks_under_5_mib():
    # at p_z=5e-2, eta=3 about 95% of trials fault; a block reduces its
    # fired cells to faulted codes and those to counts per statistic before
    # the next block draws, so 200,000 trials hold one block's cells at a
    # time and peak near 3.3 MiB traced
    cfg = gd.GadgetConfig.t_state(3, r=1)
    params = nz.NoiseParams.from_bias(5e-2, 3.0)
    nz._mc_counts(cfg, params, 1, nz._BLOCK)  # build the cached tables first
    tracemalloc.start()
    try:
        nz._mc_counts(cfg, params, 1, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, peak


def _per_trial_counts(cfg, params, seed, trials):
    """Monte Carlo counts with each faulted trial's statistic found one
    trial at a time.  Each block draws from default_rng([seed, block]), as
    _mc_counts does: its fired (trial, event) cells with
    noise._sample_fires, then one multinomial of its trial count per frame
    statistic over the normalised rows of gadget._statistic_masses.  A
    faulted trial's code is the frame of its fired events' (location, X
    mask, Z mask) faults; its masses, the record-matrix oracle's bins of
    the branches under the code's readout flips summed by probability,
    must lie within 1e-14 of its statistic's row, with the same zeros.  A
    clean trial takes code 0's statistic, whose row the oracle checks on
    the noiseless branches."""
    events = reference_events(cfg)
    table = gd._statistic_masses(cfg)
    pvals = table / table.sum(axis=1, keepdims=True)
    clean = gd._frame_statistics(cfg, np.zeros(1, dtype=np.int64))[0]
    noiseless = gd.enumerate_branches(cfg)
    masses = np.bincount(record_bins(cfg, noiseless), noiseless.probabilities, gd.N_BINS)
    np.testing.assert_allclose(masses, table[clean], rtol=0, atol=1e-14)
    assert np.array_equal(masses == 0, table[clean] == 0)
    counts = np.zeros(gd.N_BINS, dtype=np.int64)
    for start in range(0, trials, nz._BLOCK):
        rng = np.random.default_rng([seed, start // nz._BLOCK])
        size = min(nz._BLOCK, trials - start)
        faulted = {}  # trial -> its faults, in trial order
        for t, e in zip(*(cells.tolist() for cells in nz._sample_fires(cfg, params, rng, size))):
            faulted.setdefault(t, []).append(events[e][1:])
        per_statistic = np.zeros(len(table), dtype=np.int64)
        per_statistic[clean] = size - len(faulted)
        for faults in faulted.values():
            code = gd.fault_frame(cfg, faults)
            branches = gd.enumerate_branches(cfg, readout_flips(cfg, code))
            masses = np.bincount(record_bins(cfg, branches, code), branches.probabilities, gd.N_BINS)
            [statistic] = gd._frame_statistics(cfg, np.array([code])).tolist()
            np.testing.assert_allclose(masses, table[statistic], rtol=0, atol=1e-14)
            assert np.array_equal(masses == 0, table[statistic] == 0), code
            per_statistic[statistic] += 1
        counts += rng.multinomial(per_statistic, pvals).sum(axis=0)
    return counts


def _assert_estimate_counts(est, counts, trials):
    acc = counts[0] + counts[1] + counts[2] + counts[3]
    got = (est.accepted_weight, est.e_x, est.e_z, est.e_y, est.reject_rate)
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
    _assert_estimate_counts(nz.estimate_rates_mc(cfg, params, trials, seed), want, trials)


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
    # trials first drew its bins as one multinomial over frame statistics
    cfg = GADGETS[case["gadget"]](case["n"])
    params = nz.NoiseParams(p_x=case["p_x"], p_z=case["p_z"], p_zz=case["p_zz"])
    counts = nz._mc_counts(cfg, params, case["seed"], case["trials"])
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
    events' (location, X mask, Z mask) triples."""
    events = reference_events(cfg)
    return tuple(tuple(events[e][1:]) for e in nz._sample_fires(cfg, params, rng, 1)[1].tolist())
