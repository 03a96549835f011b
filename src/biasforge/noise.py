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
read one noiseless branch table through them.  The events' codes are
computed once per config (``_event_table``), each read from the gadget's
backward frame table, and a fault crosses into the gadget only as a code.

The exhaustive enumerator (``enumerate_faults``) sums all event subsets
of size <= k, each weighted exactly (no exponential approximation), over
every measurement branch of its frame.  A subset's outcome-bin masses do
not depend on the rates, so they are built once per (config, order)
(``_enumerated_combos``), and a NoiseParams costs one weight per stratum
of subsets that fire as many z, x and zz events (``_strata``).  The
build classifies and sums each distinct frame once a batch; a subset's
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
trial draws a noiseless row by its probability, and a faulted trial reads
it through its frame, as enumeration does, so a faulted trial costs a few
array lookups more than a clean one.
"""

from __future__ import annotations

import functools
import math
import operator
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
        """p_x = p_z / eta, and p_zz = p_x unless given.  ``eta`` must be
        positive (ValueError otherwise); eta = inf gives p_x = 0."""
        if not eta > 0:
            raise ValueError(f"bias eta must be > 0, got {eta}")
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


_RATE_INDEX = {"z": 0, "x": 1, "zz": 2}


@functools.lru_cache(maxsize=None)
def _event_table(cfg: gd.GadgetConfig):
    """(rates, codes, kinds), read-only, which both estimators read: each
    fault event's rate index (0 z, 1 x, 2 zz) and int64 frame code
    (gadget.fault_frame), in ``fault_events`` order, and (rate index, event
    indices) per rate kind z, x, zz, leaving out a kind with no events."""
    events = fault_events(gd.build_circuit(cfg))
    rates = np.array([_RATE_INDEX[ev.rate] for ev in events])
    codes = np.array([gd.fault_frame(cfg, [(ev.location, ev.pauli)]) for ev in events], dtype=np.int64)
    kinds = tuple((k, np.flatnonzero(rates == k)) for k in _RATE_INDEX.values() if k in rates)
    for array in (rates, codes, *(kind for _, kind in kinds)):
        array.flags.writeable = False
    return rates, codes, kinds


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
    bins, total = bins.tolist(), float(total)
    # bins.sum() - bins[BIN_REJECTED]: numpy adds six values left to right, as
    # reduce does (builtin sum() compensates float sums from Python 3.12)
    acc = functools.reduce(operator.add, bins) - bins[gd.BIN_REJECTED]
    e_x, e_z, e_y = bins[gd.BIN_XL], bins[gd.BIN_ZL], bins[gd.BIN_YL]
    return RateEstimate(
        e_x=e_x / total,
        e_z=e_z / total,
        e_y=e_y / total,
        reject_rate=bins[gd.BIN_REJECTED] / total,
        trials_or_order=trials_or_order,
        ci95_halfwidth=max(ci),
        ci95_e_x=ci[0],
        ci95_e_z=ci[1],
        ci95_e_y=ci[2],
        anomaly_rate=bins[gd.BIN_ANOMALY] / total,
        accepted_weight=acc / total,
        e_x_given_accept=e_x / acc,
        e_z_given_accept=e_z / acc,
        e_y_given_accept=e_y / acc,
    )


# ---------------------------------------------------------------------------
# Exhaustive low-order enumeration.


@functools.lru_cache(maxsize=None)
def _enumerated_combos(cfg: gd.GadgetConfig, max_order: int):
    """(rate index, subsets, masses) for all event subsets of size <= k.

    ``subsets`` is an (S, k) event-index matrix, padded with the event count
    (a column of zero log-odds and a zero frame code); ``masses`` is the
    (S, gadget.N_BINS) outcome-bin mass matrix.  Subsets are visited in the
    stable order of their XOR-reduced frame codes, so a frame's subsets are
    adjacent, in consecutive batches of max(1, _BATCH_SLOTS // B) subsets:
    every subset has the noiseless table's B branches, so a batch holds at
    most _BATCH_SLOTS branches, or one subset if its branches alone are
    more.  A batch's bins come from one ``gadget.frame_bins`` call on the
    first branches of each frame in it (``_batch_masses``).  Independent of
    NoiseParams, so cached per config and order.

    Every subset still gets its own ``gadget.enumerate_branches`` call,
    which the benchmark's traced gate counts, but on its code's readout
    flips (code & (2^M - 1)): the rows and probabilities of a run depend
    only on them, and ``frame_bins`` gets the full code.  So a call is a
    range check and a per-mask cache hit, with no Pauli column to fill.
    """
    rates, frames, _ = _event_table(cfg)
    num = len(rates)
    # rows: the empty subset, the singles, then the pairs i < j in lexicographic order
    index = np.full((num + 1, max_order), num, dtype=np.intp)
    index[1:, 0] = np.arange(num)
    if max_order >= 2:
        index = np.concatenate([index, np.stack(np.triu_indices(num, 1), axis=1)])
    codes = np.bitwise_xor.reduce(np.append(frames, 0)[index], axis=1)
    order, masses = np.argsort(codes, kind="stable"), np.empty((len(index), gd.N_BINS))
    step, readouts = max(1, _BATCH_SLOTS // len(gd._noiseless_table(cfg)[0])), (1 << cfg.num_measurements) - 1
    for a in range(0, len(order), step):
        batch = order[a : a + step]
        runs = [gd.enumerate_branches(cfg, mask) for mask in (codes[batch] & readouts).tolist()]
        masses[batch] = _batch_masses(cfg, codes[batch], runs)
    totals = masses.sum(axis=1)
    worst = totals[np.argmax(np.abs(totals - 1.0))]
    if abs(worst - 1.0) > 1e-8:
        raise AssertionError(f"branch probabilities sum to {worst}, expected 1")
    return rates, index, masses


def _batch_masses(cfg: gd.GadgetConfig, codes: np.ndarray, runs: list[gd.Branches]) -> np.ndarray:
    """The (len(runs), gadget.N_BINS) masses of one batch of subsets: their
    sorted frame codes ``codes`` and their branches ``runs``, a run per
    subset.

    Subsets of one frame have the same rows and probabilities in the same
    order, so only each frame's first run is classified and summed: one
    ``gadget.frame_bins`` call takes the first runs' noiseless rows, each
    under its frame's code, and one bincount sums their probabilities, in
    branch order, into each frame's six slots, which are then gathered to
    all of its subsets.  Each mass is thus the same float sum it was when
    each subset was binned alone.  Every frame's branches are the noiseless
    rows in some order, so all runs are equally long.  The runs of the
    other subsets are not read; they are there because every subset makes
    its one ``gadget.enumerate_branches`` call (``_enumerated_combos``).
    """
    new = np.diff(codes, prepend=-1) != 0  # codes are >= 0: the first subset starts a frame
    heads = np.flatnonzero(new)
    firsts = [runs[s] for s in heads.tolist()]
    rows = np.concatenate([branches.rows for branches in firsts])
    bins = gd.frame_bins(cfg, rows, codes[heads].repeat(len(runs[0]))).reshape(len(heads), -1)
    # the batch's f-th frame's bin j is slot f * N_BINS + j
    slots = (bins + gd.N_BINS * np.arange(len(heads))[:, None]).ravel()
    probs = np.concatenate([branches.probabilities for branches in firsts])
    return np.bincount(slots, probs, len(heads) * gd.N_BINS).reshape(-1, gd.N_BINS)[np.cumsum(new) - 1]


@functools.lru_cache(maxsize=None)
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


@functools.lru_cache(maxsize=None)
def _noiseless_leaf_pool(cfg: gd.GadgetConfig):
    """(cumulative probabilities, outcome bins) of the noiseless branches."""
    branches = gd.enumerate_branches(cfg)
    empty = np.zeros(len(branches), dtype=np.int64)  # the frame code of no fault
    return np.cumsum(branches.probabilities), gd.frame_bins(cfg, branches.rows, empty)


# Trials per generator; part of the definition of the counts.  Most of a
# small block's draws are fixed cost: at the anchor (n=3, r=1) a block of
# 2,048 trials draws in about 51 us, 12 of them seeding its generator, and
# a block of 8,192 in about 88 us.  Above a 2% rate Generator.choice
# shuffles an arange over every cell of the block, so larger blocks cost
# memory and time at high noise: 10^5 trials at p_z=5e-2, eta=3, r=3 take
# about 99 ms against 88 ms with blocks of 2,048.
_BLOCK = 8192
# Blocks binned together (32,768 trials); bounds a pass's memory, not part of
# the counts.
_PASS = 4
# Branches per enumeration batch at most: _enumerated_combos takes
# max(1, _BATCH_SLOTS // B) subsets of B branches a batch.  Bounds a batch's
# memory and is not part of the masses.  A cold order-2 build at n=3 peaks
# at 1.1 MB traced at r=1 and 3.0 MB at r=3, against 5.4 and 26.6 MB in one
# batch.
_BATCH_SLOTS = 16_384


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


def _rows(cum: np.ndarray, draw: np.ndarray) -> np.ndarray:
    """The noiseless rows that uniform doubles ``draw`` pick: row i takes
    the draws in (cum[i-1], cum[i]] / cum[-1], and a draw that rounds past
    the last row takes it."""
    return np.minimum(np.searchsorted(cum, draw * cum[-1]), len(cum) - 1)


def _mc_counts(cfg, params, seed, trials) -> np.ndarray:
    """Outcome-bin counts of trials 0..trials-1, a pass at a time.

    Trial t belongs to block t // _BLOCK, whose generator is
    ``np.random.default_rng([seed, block])``.  A block of ``size`` trials
    draws, in this order, its fired events (``_sample_fires``: a count and a
    uniform set of cells per rate kind) and one double per trial, in trial
    order, which picks the trial's noiseless row (``_rows``).  A trial that
    fired nothing is that row's noiseless branch.  A faulted trial is the
    row read through its frame, the XOR of its fired events' codes.  _BLOCK
    is thus part of what the counts are: changing it changes every count.

    The blocks only draw.  The passes run from trial 0 in consecutive chunks
    of _PASS blocks, the last one short; the blocks of a pass fill its draw
    array and (trial, event) cells, and the rest runs once per pass: one
    sort of the draws counts the clean trials' rows, one
    ``np.bitwise_xor.reduceat`` over the fired cells gives the faulted
    trials' frame codes, and one ``gadget.frame_bins`` call bins their rows
    under those codes.  A count is a sum over trials, so where the passes
    split does not change it; _PASS only bounds the memory a pass holds.
    """
    frames = _event_table(cfg)[1]
    cum, leaf_bins = _noiseless_leaf_pool(cfg)
    counts = np.zeros(gd.N_BINS, dtype=np.int64)
    for first in range(0, trials, _PASS * _BLOCK):
        size = min(_PASS * _BLOCK, trials - first)
        draw, fires = np.empty(size), []
        for a in range(0, size, _BLOCK):
            rng = np.random.default_rng([seed, (first + a) // _BLOCK])
            trial, event = _sample_fires(cfg, params, rng, min(_BLOCK, size - a))
            rng.random(out=draw[a : a + _BLOCK])
            fires.append((trial + a, event))
        # a one-block pass is not concatenated: short estimates are mostly fixed cost
        trial, event = [np.concatenate(cells) for cells in zip(*fires)] if len(fires) > 1 else fires[0]
        starts = np.flatnonzero(np.diff(trial, prepend=-1))  # each faulted trial's first cell
        rows = _rows(cum, draw[trial[starts]])
        # the clean trials' rows are only counted: the sorted draws at or
        # below each row's upper bound, less the faulted trials' rows
        draw.sort()
        draw *= cum[-1]
        upto = np.searchsorted(draw, cum[:-1], side="right")
        clean = np.diff(upto, prepend=0, append=size) - np.bincount(rows, minlength=len(cum))
        counts += np.bincount(leaf_bins, weights=clean, minlength=gd.N_BINS).astype(np.int64)
        if len(starts):
            codes = np.bitwise_xor.reduceat(frames[event], starts)
            counts += np.bincount(gd.frame_bins(cfg, rows, codes), minlength=gd.N_BINS)
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
    _BLOCK at a time, each block from its own generator, and binned in
    this process (``_mc_counts``).  ``threads`` is ignored.  ``trials``
    and ``seed`` must be integers, ``trials`` positive and ``seed``
    non-negative (ValueError otherwise).  The ``ci95_*`` fields are 95%
    Wilson score half-widths, which stay above zero at a zero count.
    """
    for name, value in (("trials", trials), ("seed", seed)):
        try:
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name}={value!r} is not an integer") from None
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
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
