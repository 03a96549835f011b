"""Biased Pauli fault model over the gadget circuit.

Elementary fault events, per location, in location order, each an
(x mask, z mask) Pauli on the location's qubits (``_event_table``):

* single-qubit locations (PrepX / MeasX): one Z event at rate p_z.  X has
  no effect on X-basis preparation or readout, so no X event is emitted.
* two-qubit gates (CZ(theta) / CPHASE) on qubits (a, b): the events Z_a,
  Z_b (p_z), X_a, X_b (p_x) and the correlated Z_a Z_b (p_zz), in that
  order.

Idle qubits get none: the circuits define no idle schedule.

Y errors are not an independent process: a qubit suffers Y exactly when
its Z and X events fire together (probability p_z * p_x).

Every event is a Pauli frame (``gadget.fault_frame``): readouts flipped
and a Pauli on the output block, exact because every location after an
event is Clifford; an event whose X part would reach a CZ(theta) gate has
no frame and raises ``gadget.FrameError``.  A frame is one integer code,
the readout flips in its low M bits and the block-3 Pauli above them, and
the frames of events combine by XOR of their codes, so both estimators
read one noiseless branch table through them.  The events' codes are
computed once per config (``_event_table``), each read from the gadget's
backward frame table, and a fault crosses into the gadget only as a code.

The exhaustive enumerator (``enumerate_faults``) sums all event subsets
of size <= k, each weighted exactly (no exponential approximation), over
every measurement branch of its frame.  A subset's outcome-bin masses do
not depend on the rates, so they are built once per (config, order)
(``_enumerated_combos``), and a NoiseParams costs one weight per stratum
of subsets that fire as many z, x and zz events (``_strata``).  A
subset's masses are a row of one table per config, the masses of each
statistic of a frame code's decode fields (``gadget._frame_statistics``,
16n + 17 of them) summed in closed form over the noiseless row classes
(``gadget._statistic_masses``), which Monte Carlo reads too; a subset's
only own work is one ``gadget.enumerate_branches`` call on its readout
flips, a cache lookup.

The primary e_x / e_z / e_y rates are per gadget attempt: the probability
that a run is accepted AND delivers that logical error.  This is the
quantity the closed-form bounds budget (they sum fault occurrence
probabilities without dividing by the acceptance probability), and exact
enumeration confirms the bounds dominate it on criterion 4's grid (n=3,
r in {1, 3}, eta <= 1000).  Off that grid they need not: ROADMAP item 6
lists the exceptions found, e.g. Z-only noise at n=3, r=3, where the
order-2 e_z exceeds the Z_L bound.
The per-accepted-state rates (divided by the acceptance probability,
what a consumer of accepted states experiences) are reported alongside
as ``e_*_given_accept``; they exceed the analytic budgets by up to the
inverse acceptance probability at corners where a fault steers
otherwise-rejected records into acceptance.

Note the rejection rate is the physical, probability-weighted one: for
theta = pi/4 the X-measurement records are not uniformly distributed
(each block-2 qubit reads +1 with probability cos^2(theta/2)), so the
noiseless rejection rate of the n=3 T gadget is 5/8, larger than the 1/4
suggested by counting records uniformly.

Monte Carlo (``estimate_rates_mc``) draws every event independently, in
blocks of trials that each draw from their own generator (``_mc_counts``),
so its counts, hence its estimates, depend only on (seed, trials).  A
trial's noiseless row is drawn independently of its faults, so given its
frame code's statistic its bin falls by that statistic's row of the
enumeration's mass table: a block counts its trials per statistic, clean
trials under code 0's, and draws all its bins in one multinomial over the
normalised rows, so a block's work follows its faulted trials.  Monte
Carlo thus shares the decode with enumeration and checks the fault
sampling, not the decode, which the tests check against the record and
state-vector oracles.  The counts rest on numpy's ``Generator.binomial``,
``choice(replace=False)`` and ``multinomial`` streams, the last with 2-D
``pvals``.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import gadget as gd

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


class UnsupportedOrderError(ValueError):
    """Fault enumeration is implemented for order k in {1, 2} only."""


class EstimationError(RuntimeError):
    """Monte Carlo run with zero accepted trials; carries the reject rate."""

    def __init__(self, message: str, reject_rate: float):
        super().__init__(message)
        self.reject_rate = reject_rate


@dataclass(frozen=True)
class NoiseParams:
    """Per-location biased Pauli rates; bias eta = p_z / p_x."""

    p_x: float
    p_z: float
    p_zz: float

    def __post_init__(self):
        if not 0.0 <= self.p_x <= self.p_z <= 1.0:
            raise ValueError(f"need 0 <= p_x <= p_z <= 1, got p_x={self.p_x} p_z={self.p_z}")
        if not 0.0 <= self.p_zz <= 1.0:
            raise ValueError(f"p_zz={self.p_zz} outside [0, 1]")
        # -0.0 passes the comparisons above but is no rate: reports would echo it
        if math.copysign(1.0, self.p_x) < 0.0 or math.copysign(1.0, self.p_z) < 0.0 or math.copysign(1.0, self.p_zz) < 0.0:
            raise ValueError(f"rates must be >= 0, not a negative zero: p_x={self.p_x} p_z={self.p_z} p_zz={self.p_zz}")

    @property
    def eta(self) -> float:
        if self.p_x == 0.0:
            return math.inf
        return self.p_z / self.p_x

    @classmethod
    def from_bias(cls, p_z: float, eta: float, p_zz: float | None = None) -> "NoiseParams":
        """p_x = p_z / eta, and p_zz = p_x unless given.  ``eta`` must be
        positive (ValueError otherwise); eta = inf gives p_x = 0."""
        if not eta > 0:
            raise ValueError(f"bias eta must be > 0, got {eta}")
        p_x = p_z / eta
        return cls(p_x=p_x, p_z=p_z, p_zz=p_x if p_zz is None else p_zz)


@functools.lru_cache(maxsize=64)
def _event_table(cfg: gd.GadgetConfig):
    """(rates, codes, kinds), read-only, which both estimators read: each
    fault event's rate index (0 z, 1 x, 2 zz) and int64 frame code
    (gadget.fault_frame), in event order (module docstring), and (rate
    index, event indices) per rate kind z, x, zz, leaving out a kind with
    no events."""
    events = []  # (rate index, location, x mask, z mask)
    for t, loc in enumerate(gd.build_circuit(cfg).locations):
        bits = [1 << q for q in loc.qubits]
        if len(bits) == 1:  # PrepX or MeasX
            events.append((0, t, 0, bits[0]))
        else:
            a, b = bits
            events += [(0, t, 0, a), (0, t, 0, b), (1, t, a, 0), (1, t, b, 0), (2, t, 0, a | b)]
    rates = np.array([rate for rate, *_ in events])
    codes = np.array([gd.fault_frame(cfg, [fault]) for _, *fault in events], dtype=np.int64)
    kinds = tuple((k, np.flatnonzero(rates == k)) for k in range(3) if k in rates)
    for array in (rates, codes, *(kind for _, kind in kinds)):
        array.flags.writeable = False
    return rates, codes, kinds


@dataclass(frozen=True)
class RateEstimate:
    """Logical rates per gadget attempt, plus per-accepted-state variants.

    Every accepted output is booked to one class, I, XL, ZL or YL
    (gadget._decoder), so ``accepted_weight`` is the share booked I plus
    e_x + e_z + e_y.  The ``ci95_e_*`` fields are the 95% half-widths of
    the three rates, 0.0 for an enumerated estimate.
    """

    e_x: float
    e_z: float
    e_y: float
    reject_rate: float
    trials_or_order: int
    ci95_e_x: float = 0.0
    ci95_e_z: float = 0.0
    ci95_e_y: float = 0.0
    accepted_weight: float = 0.0
    e_x_given_accept: float = 0.0
    e_z_given_accept: float = 0.0
    e_y_given_accept: float = 0.0


def _rate_estimate(bins: np.ndarray, total, trials_or_order: int, ci=(0.0, 0.0, 0.0)) -> RateEstimate:
    """The estimate of a vector of gadget.N_BINS outcome-bin masses or
    trial counts out of ``total`` (the enumerated weight or the trial
    count), with the 95% half-widths ``ci`` of e_x, e_z and e_y.  The
    caller makes sure that some of the total was accepted."""
    bins, total = bins.tolist(), float(total)
    # bins.sum() - bins[BIN_REJECTED]: numpy adds five values left to right, as
    # reduce does (builtin sum() compensates float sums from Python 3.12)
    acc = functools.reduce(operator.add, bins) - bins[gd.BIN_REJECTED]
    e_x, e_z, e_y = bins[gd.BIN_XL], bins[gd.BIN_ZL], bins[gd.BIN_YL]
    return RateEstimate(
        e_x=e_x / total,
        e_z=e_z / total,
        e_y=e_y / total,
        reject_rate=bins[gd.BIN_REJECTED] / total,
        trials_or_order=trials_or_order,
        ci95_e_x=ci[0],
        ci95_e_z=ci[1],
        ci95_e_y=ci[2],
        accepted_weight=acc / total,
        e_x_given_accept=e_x / acc,
        e_z_given_accept=e_z / acc,
        e_y_given_accept=e_y / acc,
    )


# ---------------------------------------------------------------------------
# Exhaustive low-order enumeration.


def _enumerated_combos(cfg: gd.GadgetConfig, max_order: int):
    """(rate index, subsets, masses) for all event subsets of size <= k.

    ``subsets`` is an (S, k) event-index matrix, padded with the event count
    (a column of zero log-odds and a zero frame code); ``masses`` is the
    (S, gadget.N_BINS) outcome-bin mass matrix.  A subset's masses are
    those of its XOR-reduced frame code, which are those of its statistic
    (``gadget._frame_statistics``), so they are gathered from the
    statistic's row of ``gadget._statistic_masses``: 24 statistics for
    the 368 distinct codes of order 2 at n=3, r=1.
    Independent of NoiseParams; ``_strata``, cached per config and order,
    builds it once and keeps only its stratum sums.

    Every subset still gets its own ``gadget.enumerate_branches`` call, on
    its code's readout flips (code & (2^M - 1)): a range check and a
    per-mask cache hit.
    """
    rates, frames, _ = _event_table(cfg)
    num = len(rates)
    # rows: the empty subset, the singles, then the pairs i < j in lexicographic order
    index = np.full((num + 1, max_order), num, dtype=np.intp)
    index[1:, 0] = np.arange(num)
    if max_order >= 2:
        index = np.concatenate([index, np.stack(np.triu_indices(num, 1), axis=1)])
    codes = np.bitwise_xor.reduce(np.append(frames, 0)[index], axis=1)
    for mask in (codes & ((1 << cfg.num_measurements) - 1)).tolist():
        gd.enumerate_branches(cfg, mask)  # unread: the benchmark's traced gate counts them (ROADMAP item 1(a))
    return rates, index, gd._statistic_masses(cfg)[gd._frame_statistics(cfg, codes)]


@functools.lru_cache(maxsize=64)
def _strata(cfg: gd.GadgetConfig, max_order: int):
    """(rate index, representatives, masses, sizes) of the fault strata.

    A stratum is the set of enumerated subsets that fire the same number
    of z, x and zz events, (a_z, a_x, a_zz); all its subsets have the same
    weight at every NoiseParams.  ``representatives`` is one padded
    event-index row per stratum (K, k), ``masses`` the (K, gadget.N_BINS)
    sums of its subsets' masses and ``sizes`` its subset counts: 10 strata
    at order 2 and 4 at order 1.  Independent of NoiseParams, so cached
    per config and order.
    """
    rates, index, masses = _enumerated_combos(cfg, max_order)
    # a base-(k+1) digit per rate kind, holding its count of fired events
    code = np.append((max_order + 1) ** rates, 0)[index].sum(axis=1)
    order = np.argsort(code, kind="stable")
    starts = np.flatnonzero(np.diff(code[order], prepend=-1))
    sizes = np.diff(starts, append=len(order))
    return rates, index[order[starts]], np.add.reduceat(masses[order], starts), sizes


def enumerate_faults(cfg: gd.GadgetConfig, params: NoiseParams, max_order: int) -> RateEstimate:
    """Exact rates from all fault combinations of <= max_order events.

    Every subset is weighted by prod(p_fired) * prod(1 - p_not_fired) and
    read over all its measurement branches through its Pauli frame; the result
    is accurate to O(p^(max_order+1)).  The masses are per subset, but a
    subset's weight depends only on how many z, x and zz events it fires, so
    the weight is computed once per such stratum (``_strata``) and applied to
    the stratum's summed masses.  The primary rates are per attempt
    (accepted AND wrong, normalized over the enumerated mass); the
    ``*_given_accept`` fields carry the post-selected variants.
    """
    if max_order not in (1, 2):
        raise UnsupportedOrderError(f"max_order must be 1 or 2, got {max_order}")
    if max(params.p_z, params.p_x, params.p_zz) >= 1.0:
        raise ValueError("enumeration requires all event probabilities < 1")
    rates, reps, masses, sizes = _strata(cfg, max_order)
    probs = np.array([params.p_z, params.p_x, params.p_zz])[rates]
    with np.errstate(divide="ignore"):
        log_odds = np.append(np.log(probs) - np.log1p(-probs), 0.0)
    weights = np.exp(np.sum(np.log1p(-probs)) + log_odds[reps].sum(axis=1))
    totals = weights @ masses
    if totals.sum() - totals[gd.BIN_REJECTED] <= 0.0:
        raise EstimationError("no accepted mass within enumerated order", reject_rate=1.0)
    return _rate_estimate(totals, weights @ sizes, max_order)


# ---------------------------------------------------------------------------
# Monte Carlo estimation.


@functools.lru_cache(maxsize=64)
def _statistic_pvals(cfg: gd.GadgetConfig) -> tuple[np.ndarray, int]:
    """(pvals, clean): each row of ``gadget._statistic_masses`` over its
    sum, read-only, over which a block's trials of each statistic are one
    ``Generator.multinomial``, and the statistic of frame code 0, which a
    clean trial takes.  Rounding lifts some raw masses past 1 (by up to
    4.4e-16 at n=5, theta=3), which numpy refuses; a normalised entry is at
    most 1.

    numpy's multinomial (read on 2.4.6; the 1.24 leg has not been run)
    draws bin k of a row as a binomial of the trials left at ratio
    p_k / r_k, r_k = 1 - p_0 - ... - p_(k-1) subtracted left to right,
    sends every trial left to bin k where that ratio is 1 or more, and
    gives the last bin, BIN_REJECTED, whatever is left.  So a row with no
    rejected mass leaks no draw into it, however many, once its last
    positive bin k holds p_k >= r_k.  Where rounding leaves p_k short of
    r_k (near theta = 0 and pi), the row's largest entry is raised an ulp
    at a time until it is not: by one ulp, 1.1e-16 relative at most, on
    every short row of 144 configs (n in {3, 5, 7}, four (r_z, r_zz),
    theta within 1e-3 to 1e-12 of 0 and pi, 0.3 and 2.5)."""
    masses = gd._statistic_masses(cfg)
    pvals = masses / masses.sum(axis=1, keepdims=True)
    rows = np.flatnonzero(pvals[:, gd.BIN_REJECTED] == 0)
    while rows.size:
        row = pvals[rows]
        at = np.arange(len(rows)), gd.BIN_REJECTED - 1 - (row[:, gd.BIN_REJECTED - 1 :: -1] > 0).argmax(axis=1)
        short = row[at] < np.subtract.accumulate(np.insert(row, 0, 1.0, axis=1), axis=1)[at]  # p_k < r_k
        rows, largest = rows[short], row.argmax(axis=1)[short]
        pvals[rows, largest] = np.nextafter(pvals[rows, largest], 2.0)
    pvals.flags.writeable = False
    return pvals, int(gd._frame_statistics(cfg, np.zeros(1, dtype=np.int64))[0])


# Trials per generator; part of the definition of the counts.  A block
# draws its fired cells (binomial, choice(replace=False)), then one
# multinomial of its trials per frame statistic.  Much of a small block's
# cost is fixed: at the anchor (n=3, r=1) seeding its generator takes
# 11-17 us and the multinomial over the 65 statistics about 10 us, on a
# shared 2-vCPU host.  Above a 2% rate Generator.choice shuffles an
# arange over every cell of the block, so larger blocks hold more memory at
# high noise: 10^5 trials at p_z=5e-2, eta=3, r=3 peak at 6.9 MB traced
# against 1.7 MB with blocks of 2,048.
_BLOCK = 8192


def _sample_fires(cfg, params, rng, size) -> tuple[np.ndarray, np.ndarray]:
    """(trial, event): the fired cells of a block of ``size`` trials, as
    two int arrays sorted by trial, then by event.

    A kind of k events has size * k cells, trial-major: cell c is trial
    c // k and the kind's event c % k.  ``rng`` draws how many fire,
    binomial(cells, p), then which, a uniform subset of that many cells;
    given its size the set of fired cells is uniform, so every event fires
    independently at its rate, and at low rates a block draws about one
    number per fired event, not one per trial and event.  A kind that fires no cell makes no
    ``choice`` call: a size-0 choice draws nothing from ``rng``, so the
    stream is the same either way.
    """
    probs = (params.p_z, params.p_x, params.p_zz)
    rates, _, kinds = _event_table(cfg)
    num = len(rates)
    keys = [np.empty(0, dtype=np.int64)]  # trial * E + event of each fired cell
    for k, kind in kinds:
        cells = size * len(kind)
        fired = rng.binomial(cells, probs[k])
        if fired:
            hit = rng.choice(cells, fired, replace=False)
            keys.append(hit // len(kind) * num + kind[hit % len(kind)])
    return np.divmod(np.sort(np.concatenate(keys)), num)


def _mc_counts(cfg, params, seed, trials) -> np.ndarray:
    """Outcome-bin counts of trials 0..trials-1, a block at a time.

    Trial t belongs to block t // _BLOCK, whose generator is
    ``np.random.default_rng([seed, block])``.  A block of ``size`` trials
    draws, in this order: its fired events (``_sample_fires``: a binomial
    count and a ``choice(replace=False)`` set of cells per rate kind); then
    one ``multinomial`` of its trial count per frame statistic over that
    statistic's normalised masses (``_statistic_pvals``).  A faulted
    trial's frame code is the XOR of its fired events' codes, one
    ``np.bitwise_xor.reduceat``; a clean trial's is 0.  A trial reads a
    noiseless row, drawn by its probability independently of the faults,
    through its frame, so given its code's statistic its bin falls by that
    statistic's masses, and given their statistics a block's trials fall
    into the bins by exactly those multinomials, and no row is drawn.
    _BLOCK is part of what the counts are: changing it changes every
    count.
    """
    frames = _event_table(cfg)[1]
    pvals, clean = _statistic_pvals(cfg)
    counts = np.zeros(gd.N_BINS, dtype=np.int64)
    for a in range(0, trials, _BLOCK):
        rng = np.random.default_rng([seed, a // _BLOCK])
        size = min(_BLOCK, trials - a)
        trial, event = _sample_fires(cfg, params, rng, size)
        # where each faulted trial's cells start, by hand: np.diff with
        # prepend and np.flatnonzero cost about 8 us more a call at the anchor
        first = np.empty(len(trial), dtype=bool)
        first[:1] = True
        first[1:] = trial[1:] != trial[:-1]
        starts = first.nonzero()[0]
        # guarded: reduceat over empty indices is untested on numpy 1.x
        codes = np.bitwise_xor.reduceat(frames[event], starts) if len(starts) else frames[:0]
        per_statistic = np.bincount(gd._frame_statistics(cfg, codes), minlength=len(pvals))
        per_statistic[clean] += size - len(starts)
        counts += rng.multinomial(per_statistic, pvals).sum(axis=0)
    return counts


def estimate_rates_mc(
    cfg: gd.GadgetConfig,
    params: NoiseParams,
    trials: int,
    seed: int,
    threads: int | None = None,
) -> RateEstimate:
    """Monte Carlo rate estimate over independent sampled-fault executions.

    Deterministic given (seed, trials): the trials are drawn a block of
    _BLOCK at a time, each block from its own generator, which draws its
    fired events and then its bins, one multinomial over the frame
    statistics of its trials, in this process (``_mc_counts``).
    ``threads`` is ignored.  ``trials`` and ``seed`` must be integers,
    ``trials`` positive and ``seed`` non-negative (ValueError otherwise).  The ``ci95_*`` fields are 95%
    Wilson score half-widths, which stay above zero at a zero count.
    """
    for name, value in (("trials", trials), ("seed", seed)):
        try:
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name}={value!r} is not an integer") from None
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    counts = _mc_counts(cfg, params, seed, trials)
    rejected = int(counts[gd.BIN_REJECTED])
    if counts.sum() == rejected:
        raise EstimationError("no accepted trials", reject_rate=rejected / trials)
    ci = tuple(_wilson_halfwidth(int(counts[b]), trials) for b in (gd.BIN_XL, gd.BIN_ZL, gd.BIN_YL))
    return _rate_estimate(counts, trials, trials, ci)


def _wilson_halfwidth(k: int, n: int) -> float:
    """Half-width of the 95% Wilson (1927) score interval of k successes in n."""
    z2 = _Z95 * _Z95
    return _Z95 / (n + z2) * math.sqrt(k * (n - k) / n + z2 / 4.0)
