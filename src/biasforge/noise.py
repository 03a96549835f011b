"""Biased Pauli fault model over the gadget circuit.

Elementary fault events, per location:

* single-qubit locations (PrepX / MeasX): one Z event at rate p_z.  X has
  no effect on X-basis preparation or readout, so no X event is emitted.
* two-qubit gates (CZ(theta) / CPHASE): independent Z (p_z) and X (p_x)
  events on each of the two qubits, plus one correlated Z-on-both event at
  rate p_zz.

Y errors are not an independent process: a qubit suffers Y exactly when
its Z and X events fire together (probability p_z * p_x).

Every event is a Pauli frame (``gadget.fault_frame``): readouts flipped
and a Pauli on the output block, exact because every location after an
event is Clifford; an event whose X part would reach a CZ(theta) gate has
no frame and raises ``gadget.FrameError``.  A frame is one integer code,
the readout flips in its low M bits and the block-3 Pauli above them, and
the frames of events combine by XOR of their codes, so both estimators
read one noiseless branch table through them.

The exhaustive enumerator sums all event subsets of size <= k, weighting
each by prod(p_e) * prod(1 - p_e') over the non-firing events (exact, no
exponential approximation), over every measurement branch of the faulted
circuit.  A subset's branches depend on its events only through its
frame, the XOR of their frame codes, so the subsets are grouped by frame
and each frame's branches are decoded once, in one batch, and binned by
one gather from the gadget's class table.  Each subset is still one
``gadget.enumerate_branches`` call on its events' (location, Pauli)
pairs, whose branch probabilities sum its frame's bins into six
outcome-bin masses.  These per-subset masses are independent of the
rates, so they are computed once per (config, order) and kept as an
(S, k) event-index matrix and an (S, 6) mass matrix; each NoiseParams
then costs one vector of subset weights exp(log P(no event) + sum of
log-odds) and one matrix product.

The primary e_x / e_z / e_y rates are per gadget attempt: the probability
that a run is accepted AND delivers that logical error.  This is the
quantity the closed-form bounds budget (they sum fault occurrence
probabilities without dividing by the acceptance probability), and exact
enumeration confirms the bounds dominate it across the operating grid.
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

Monte Carlo trials draw every event independently.  The trials come in
blocks of ``_BLOCK``, and block b draws from its own generator,
``np.random.default_rng([seed, b])``.  It first draws the fired events
sparsely, one rate kind (z, x, zz) at a time: a binomial number of the
kind's (trial, event) cells fire, and which ones is a uniform subset of that
size, so at low rates a block draws about one number per fired event, not
one per trial and event.  Then it draws one double per trial that fired
nothing, to pick a noiseless branch, and one double per readout of each
trial that fired something.  A faulted trial's frame is the XOR of its
fired events' frame codes, and a block's faulted trials, whatever they
fired, are one ``gadget.sample_branches`` walk of the noiseless branch
table and one ``gadget.outcome_bins`` call.  Worker processes take whole
blocks, so the per-bin integer counts, hence the estimates, depend only on
(seed, trials), not on the thread count.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from . import gadget as gd
from .statevec import PauliString

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

    @property
    def eta(self) -> float:
        if self.p_x == 0.0:
            return math.inf
        return self.p_z / self.p_x

    @classmethod
    def from_bias(cls, p_z: float, eta: float, p_zz: float | None = None) -> "NoiseParams":
        p_x = p_z / eta
        return cls(p_x=p_x, p_z=p_z, p_zz=p_x if p_zz is None else p_zz)


@dataclass(frozen=True)
class FaultEvent:
    location: int
    pauli: PauliString
    rate: str  # "z" | "x" | "zz"


def fault_events(circuit: gd.Circuit) -> tuple[FaultEvent, ...]:
    """Elementary fault events of a circuit, in location order.  Idle
    qubits get none: the circuits define no idle schedule."""
    events: list[FaultEvent] = []
    for t, loc in enumerate(circuit.locations):
        if loc.kind in (gd.LocationKind.PREP_X, gd.LocationKind.MEAS_X):
            q = loc.qubits[0]
            events.append(FaultEvent(t, PauliString.z_on([q]), "z"))
        else:
            a, b = loc.qubits
            events.append(FaultEvent(t, PauliString.z_on([a]), "z"))
            events.append(FaultEvent(t, PauliString.z_on([b]), "z"))
            events.append(FaultEvent(t, PauliString.x_on([a]), "x"))
            events.append(FaultEvent(t, PauliString.x_on([b]), "x"))
            events.append(FaultEvent(t, PauliString.z_on([a, b]), "zz"))
    return tuple(events)


@functools.lru_cache(maxsize=None)
def _events(cfg: gd.GadgetConfig) -> tuple[FaultEvent, ...]:
    """The fault events of ``cfg``'s circuit, kept per config because every
    Monte Carlo call reads them."""
    return fault_events(gd.build_circuit(cfg))


@functools.lru_cache(maxsize=None)
def _event_frames(cfg: gd.GadgetConfig) -> np.ndarray:
    """(E,) int64 frame codes (gadget.fault_frame) of the fault events, read
    by both estimators."""
    return np.array([gd.fault_frame(cfg, [(ev.location, ev.pauli)]) for ev in _events(cfg)], dtype=np.int64)


@dataclass(frozen=True)
class RateEstimate:
    """Logical rates per gadget attempt, plus per-accepted-state variants.

    ``anomaly_rate`` is the share of accepted outputs below fidelity 0.5 to
    every class (gadget.BIN_ANOMALY).  It reads 0 on the T, +i and theta=1
    gadgets at n = 3, 5 and 7, whose class tables hold no such entry.
    """

    e_x: float
    e_z: float
    e_y: float
    reject_rate: float
    trials_or_order: int
    ci95_halfwidth: float
    ci95_e_x: float = 0.0
    ci95_e_z: float = 0.0
    ci95_e_y: float = 0.0
    anomaly_rate: float = 0.0
    accepted_weight: float = 0.0
    e_x_given_accept: float = 0.0
    e_z_given_accept: float = 0.0
    e_y_given_accept: float = 0.0


def _rate_estimate(bins: np.ndarray, total, trials_or_order: int, ci=(0.0, 0.0, 0.0)) -> RateEstimate:
    """The estimate of a vector of gadget.N_BINS outcome-bin masses or
    trial counts out of ``total`` (the enumerated weight or the trial
    count), with the 95% half-widths ``ci`` of e_x, e_z and e_y.  The
    caller makes sure that some of the total was accepted."""
    acc = bins.sum() - bins[gd.BIN_REJECTED]
    e_x, e_z, e_y = bins[gd.BIN_XL], bins[gd.BIN_ZL], bins[gd.BIN_YL]
    return RateEstimate(
        e_x=float(e_x / total),
        e_z=float(e_z / total),
        e_y=float(e_y / total),
        reject_rate=float(bins[gd.BIN_REJECTED] / total),
        trials_or_order=trials_or_order,
        ci95_halfwidth=max(ci),
        ci95_e_x=ci[0],
        ci95_e_z=ci[1],
        ci95_e_y=ci[2],
        anomaly_rate=float(bins[gd.BIN_ANOMALY] / total),
        accepted_weight=float(acc / total),
        e_x_given_accept=float(e_x / acc),
        e_z_given_accept=float(e_z / acc),
        e_y_given_accept=float(e_y / acc),
    )


# ---------------------------------------------------------------------------
# Exhaustive low-order enumeration.


_RATE_INDEX = {"z": 0, "x": 1, "zz": 2}


@functools.lru_cache(maxsize=None)
def _enumerated_combos(cfg: gd.GadgetConfig, max_order: int):
    """(rate index, subsets, masses) for all event subsets of size <= k.

    ``subsets`` is an (S, k) event-index matrix, padded with the event count
    (a column of zero log-odds and a zero frame code); ``masses`` is the
    (S, gadget.N_BINS) outcome-bin mass matrix.  Subsets are visited a
    frame at a time, in the order of their XOR-reduced codes, and a frame's
    bins are computed once, from its first subset's branches.  Independent
    of NoiseParams, so cached per config and order.
    """
    events = _events(cfg)
    num = len(events)
    subsets = [()] + [(i,) for i in range(num)]
    if max_order >= 2:
        subsets += list(itertools.combinations(range(num), 2))
    index = np.full((len(subsets), max_order), num, dtype=np.intp)
    for row, s in enumerate(subsets):
        index[row, : len(s)] = s
    codes = np.bitwise_xor.reduce(np.append(_event_frames(cfg), 0)[index], axis=1)
    order = np.argsort(codes, kind="stable")
    masses = np.empty((len(subsets), gd.N_BINS))
    for same_frame in np.split(order, np.flatnonzero(np.diff(codes[order])) + 1):
        bins = None
        for row in same_frame:
            branches = gd.enumerate_branches(cfg, faults=[(events[i].location, events[i].pauli) for i in subsets[row]])
            if bins is None:
                bins = gd.outcome_bins(cfg, branches)
            masses[row] = np.bincount(bins, weights=branches.probabilities, minlength=gd.N_BINS)
            total = masses[row].sum()
            if abs(total - 1.0) > 1e-8:
                raise AssertionError(f"branch probabilities sum to {total}, expected 1")
    rates = np.array([_RATE_INDEX[ev.rate] for ev in events])
    return rates, index, masses


def enumerate_faults(cfg: gd.GadgetConfig, params: NoiseParams, max_order: int) -> RateEstimate:
    """Exact rates from all fault combinations of <= max_order events.

    Every subset is weighted by prod(p_fired) * prod(1 - p_not_fired) and
    read over all its measurement branches through its Pauli frame; the result
    is accurate to O(p^(max_order+1)).  The primary rates are per attempt
    (accepted AND wrong, normalized over the enumerated mass); the
    ``*_given_accept`` fields carry the post-selected variants.
    """
    if max_order not in (1, 2):
        raise UnsupportedOrderError(f"max_order must be 1 or 2, got {max_order}")
    rates, index, masses = _enumerated_combos(cfg, max_order)
    probs = np.array([params.p_z, params.p_x, params.p_zz])[rates]
    if np.any(probs >= 1.0):
        raise ValueError("enumeration requires all event probabilities < 1")
    with np.errstate(divide="ignore"):
        log_odds = np.append(np.log(probs) - np.log1p(-probs), 0.0)
    weights = np.exp(np.sum(np.log1p(-probs)) + log_odds[index].sum(axis=1))
    totals = weights @ masses
    if totals.sum() - totals[gd.BIN_REJECTED] <= 0.0:
        raise EstimationError("no accepted mass within enumerated order", reject_rate=1.0)
    return _rate_estimate(totals, weights.sum(), max_order)


# ---------------------------------------------------------------------------
# Monte Carlo estimation.


@functools.lru_cache(maxsize=None)
def _noiseless_leaf_pool(cfg: gd.GadgetConfig):
    """(cumulative probabilities, outcome bins) of the noiseless branches."""
    branches = gd.enumerate_branches(cfg)
    return np.cumsum(branches.probabilities), gd.outcome_bins(cfg, branches)


# A worker process pays off once its share of the trials costs more than
# starting it.  On 2 CPUs (n=3, r=1; median of 7, one process vs two
# workers) two workers break even from 100,000 to 120,000 trials at the
# anchor (p_z=1e-3, eta=100; 100,000: 54 vs 55 ms) and win from 130,000 (65
# vs 60; 200,000: 110 vs 82).  Faulted trials cost more: at p_z=1e-2, eta=10
# two workers win from 40,000 (54 vs 50 ms) and at p_z=5e-2, eta=3 from
# 30,000 (99 vs 75), so the anchor sets the share.
_MIN_TRIALS_PER_WORKER = 65_000
_BLOCK = 2048  # trials per generator; part of the definition of the counts


@functools.lru_cache(maxsize=None)
def _event_kinds(cfg: gd.GadgetConfig) -> tuple[tuple[int, np.ndarray], ...]:
    """(rate index, event indices) of the rate kinds z, x and zz, in that
    order, leaving out a kind the circuit has no events of."""
    rates = np.array([_RATE_INDEX[ev.rate] for ev in _events(cfg)])
    return tuple((k, np.flatnonzero(rates == k)) for k in _RATE_INDEX.values() if k in rates)


def _sample_fires(cfg, params, rng, size) -> tuple[np.ndarray, np.ndarray]:
    """(trial, event): the fired cells of a block of ``size`` trials, as
    two int arrays sorted by trial, then by event.

    A kind of k events has size * k cells, trial-major: cell c is trial
    c // k and the kind's event c % k.  ``rng`` draws how many fire,
    binomial(cells, p), then which, a uniform subset of that many cells;
    given its size the set of fired cells is uniform, so every event fires
    independently at its rate.
    """
    probs = (params.p_z, params.p_x, params.p_zz)
    num = len(_events(cfg))
    keys = []  # trial * E + event of each fired cell
    for k, kind in _event_kinds(cfg):
        cells = size * len(kind)
        hit = rng.choice(cells, rng.binomial(cells, probs[k]), replace=False)
        keys.append(hit // len(kind) * num + kind[hit % len(kind)])
    return np.divmod(np.sort(np.concatenate(keys)), num)


def _mc_counts(cfg, params, seed, trial_range) -> np.ndarray:
    """Outcome-bin counts of the trials in ``trial_range``, a block at a time.

    Trial t belongs to block t // _BLOCK, whose generator is
    ``np.random.default_rng([seed, block])``; ``trial_range`` starts on a
    block boundary.  A block of ``size`` trials draws, in this order, its
    fired events (``_sample_fires``: a count and a uniform set of cells per
    rate kind), one double per trial that fired nothing (it picks a
    noiseless branch), and one double per readout of each faulted trial.
    A faulted trial's frame code is the XOR of its fired events' codes, one
    ``np.bitwise_xor.reduceat`` over the fired cells, and the faulted
    trials are sampled together under their frames.  _BLOCK is thus part
    of what the counts are: changing it changes every count.
    """
    if trial_range.start % _BLOCK:
        raise ValueError(f"trial range must start on a multiple of {_BLOCK}, got {trial_range.start}")
    frames = _event_frames(cfg)
    cum, leaf_bins = _noiseless_leaf_pool(cfg)
    counts = np.zeros(gd.N_BINS, dtype=np.int64)
    for start in range(trial_range.start, trial_range.stop, _BLOCK):
        rng = np.random.default_rng([seed, start // _BLOCK])
        size = min(_BLOCK, trial_range.stop - start)
        trial, event = _sample_fires(cfg, params, rng, size)
        starts = np.flatnonzero(np.diff(trial, prepend=-1))  # each faulted trial's first cell
        # noiseless trials: sample a branch from the exact pool; only the
        # bincount is kept, so the draws are searched in sorted order
        draw = np.sort(rng.random(size - len(starts)))
        leaf = np.minimum(np.searchsorted(cum, draw * cum[-1]), len(leaf_bins) - 1)
        counts += np.bincount(leaf_bins[leaf], minlength=gd.N_BINS)
        if len(starts):
            uniforms = rng.random((len(starts), cfg.num_measurements))
            branches = gd.sample_branches(cfg, np.bitwise_xor.reduceat(frames[event], starts), uniforms)
            counts += np.bincount(gd.outcome_bins(cfg, branches), minlength=gd.N_BINS)
    return counts


def _pool_workers(trials: int, threads: int) -> int:
    """Worker processes worth starting, from 1 to ``threads``: more than
    one only if each gets _MIN_TRIALS_PER_WORKER trials."""
    return max(1, min(threads, trials // _MIN_TRIALS_PER_WORKER))


def _resolve_threads(threads: int | None) -> int:
    """``threads``, else BIASFORGE_THREADS; 0 means one per CPU this
    process may run on, at most 8.  A negative or non-integer count raises
    ValueError."""
    if threads is None:
        env = os.environ.get("BIASFORGE_THREADS", "0")
        try:
            threads = int(env)
        except ValueError:
            raise ValueError(f"BIASFORGE_THREADS={env!r} is not an integer") from None
    if threads < 0:
        raise ValueError(f"thread count must be >= 0, got {threads}")
    if threads:
        return threads
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, 8)


def estimate_rates_mc(
    cfg: gd.GadgetConfig,
    params: NoiseParams,
    trials: int,
    seed: int,
    threads: int | None = None,
) -> RateEstimate:
    """Monte Carlo rate estimate over independent sampled-fault executions.

    Deterministic given (seed, trials): the trials are drawn a block of
    _BLOCK at a time, each block from its own generator (``_mc_counts``),
    and split into contiguous runs of whole blocks, one per worker process,
    whose integer bin counts are summed.  A worker starts only for enough
    expected work (``_pool_workers``), so short estimates run in this
    process.  Every count, and so the result, is bit-identical for any
    thread count.  ``trials``, ``seed`` and the thread count (``threads``,
    else BIASFORGE_THREADS) must be integers, ``trials`` positive and the
    others non-negative (ValueError otherwise).  The ``ci95_*`` fields are
    95% Wilson score half-widths, which stay above zero at a zero count.
    """
    for name, value in (("trials", trials), ("seed", seed), ("threads", 0 if threads is None else threads)):
        try:
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name}={value!r} is not an integer") from None
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    workers = _pool_workers(trials, _resolve_threads(threads))
    if workers <= 1:
        counts = _mc_counts(cfg, params, seed, range(trials))
    else:
        from concurrent.futures import ProcessPoolExecutor

        blocks = -(-trials // _BLOCK)
        edges = [min(trials, blocks * i // workers * _BLOCK) for i in range(workers + 1)]
        chunks = [range(a, b) for a, b in zip(edges[:-1], edges[1:])]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(_mc_counts, [cfg] * workers, [params] * workers, [seed] * workers, chunks)
            counts = sum(parts, np.zeros(gd.N_BINS, dtype=np.int64))  # integer: partition-independent
    rejected = int(counts[gd.BIN_REJECTED])
    if counts.sum() == rejected:
        raise EstimationError("no accepted trials", reject_rate=rejected / trials)
    ci = tuple(_wilson_halfwidth(int(counts[b]), trials) for b in (gd.BIN_XL, gd.BIN_ZL, gd.BIN_YL))
    return _rate_estimate(counts, trials, trials, ci)


def _wilson_halfwidth(k: int, n: int) -> float:
    """Half-width of the 95% Wilson (1927) score interval of k successes in n."""
    z2 = _Z95 * _Z95
    return _Z95 / (n + z2) * math.sqrt(k * (n - k) / n + z2 / 4.0)
