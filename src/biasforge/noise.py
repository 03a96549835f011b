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
of subsets that fire as many z, x and zz events (``_strata``).  The
build sums one frame code per statistic of its decode fields
(``gadget._frame_statistics``, at most 16n + 17 of them), over the
noiseless rows in row order (``_frame_masses``, which also gives Monte
Carlo's clean-trial masses); a subset's only own work is one
``gadget.enumerate_branches`` call on its readout flips, a cache lookup.

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
faulted trial draws a noiseless row by its probability and reads it
through its frame, as enumeration does; a block's clean trials are one
multinomial draw over the noiseless outcome-bin masses, so a block's work
follows its faulted trials.  The counts rest on numpy's
``Generator.binomial``, ``choice(replace=False)``, ``random`` and
``multinomial`` streams.
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
    (gadget.frame_bins), so ``accepted_weight`` is the share booked I plus
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
    those of its XOR-reduced frame code, which are those of every code of
    its statistic (``gadget._frame_statistics``) up to summation order, so
    each statistic is summed once (``_frame_masses``), at the code of its
    first subset, and gathered to its subsets: 24 statistics for the 368
    distinct codes of order 2 at n=3, r=1.  The empty subset comes first,
    so the clean statistic is summed at code 0, as Monte Carlo's clean
    trials read it.  Independent of NoiseParams; ``_strata``, cached per
    config and order, builds it once and keeps only its stratum sums.

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
    _, first, inverse = np.unique(gd._frame_statistics(cfg, codes), return_index=True, return_inverse=True)
    masses = _frame_masses(cfg, codes[first])
    totals = masses.sum(axis=1)
    worst = totals[np.argmax(np.abs(totals - 1.0))]
    if abs(worst - 1.0) > 1e-8:
        raise AssertionError(f"branch probabilities sum to {worst}, expected 1")
    return rates, index, masses[inverse]


def _frame_masses(cfg: gd.GadgetConfig, codes) -> np.ndarray:
    """The (len(codes), gadget.N_BINS) outcome-bin masses of the noiseless
    rows read through each frame code: every row's probability summed into
    its bin in row order, so a code's masses do not depend on how they were
    reached.  One ``gadget.frame_bins`` call and one bincount for all the
    codes; enumeration passes at most 16n + 17 of them, 2^(n+3) rows each."""
    probs = gd._noiseless_table(cfg)[0].probabilities
    codes, rows = np.asarray(codes, dtype=np.int64), np.arange(len(probs))
    bins = gd.frame_bins(cfg, np.tile(rows, len(codes)), codes.repeat(len(rows))).reshape(len(codes), -1)
    # the c-th code's bin j is slot c * N_BINS + j
    slots = (bins + gd.N_BINS * np.arange(len(codes))[:, None]).ravel()
    return np.bincount(slots, np.tile(probs, len(codes)), len(codes) * gd.N_BINS).reshape(-1, gd.N_BINS)


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
def _noiseless_leaf_pool(cfg: gd.GadgetConfig):
    """(cum, masses) of the noiseless branches: their cumulative
    probabilities, from which a ``Generator.random`` double picks a
    faulted trial's row (``_rows``), and the masses of frame code 0
    (``_frame_masses``, as enumeration sums them) over cum[-1], over which
    a block's clean trials are one ``Generator.multinomial``.  With the
    ``binomial`` and ``choice(replace=False)`` draws of the fired cells,
    these are the streams the Monte Carlo counts rest on."""
    cum = np.cumsum(gd.enumerate_branches(cfg).probabilities)
    return cum, _frame_masses(cfg, [0])[0] / cum[-1]


# Trials per generator; part of the definition of the counts.  A block
# draws its fired cells (binomial, choice(replace=False)), one double per
# faulted trial (random) and one multinomial of its clean trials.  Most of
# a small block's draws are fixed cost: at the anchor (n=3, r=1) a block of
# 2,048 trials draws in about 55 us, 11 of them seeding its generator, and
# a block of 8,192 in about 80 us.  Above a 2% rate Generator.choice
# shuffles an arange over every cell of the block, so larger blocks hold
# more memory at high noise: 10^5 trials at p_z=5e-2, eta=3, r=3 peak at
# 6.9 MB traced against 1.7 MB with blocks of 2,048, in about the same
# 40-60 ms.
_BLOCK = 8192
# Blocks binned together (32,768 trials): a pass holds its blocks' faulted
# rows and frame codes and bins them in one frame_bins call.  Not part of the
# counts.
_PASS = 4


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


def _first_cells(trial: np.ndarray) -> np.ndarray:
    """Where each trial's cells start in a trial-sorted cell array.  Built
    by hand: np.diff with ``prepend`` and np.flatnonzero cost about 8 us
    more a call at the anchor."""
    new = np.empty(len(trial), dtype=bool)
    new[:1] = True
    new[1:] = trial[1:] != trial[:-1]
    return new.nonzero()[0]


def _mc_counts(cfg, params, seed, trials) -> np.ndarray:
    """Outcome-bin counts of trials 0..trials-1, a pass at a time.

    Trial t belongs to block t // _BLOCK, whose generator is
    ``np.random.default_rng([seed, block])``.  A block of ``size`` trials
    draws, in this order: its fired events (``_sample_fires``: a binomial
    count and a ``choice(replace=False)`` set of cells per rate kind); one
    ``random`` double per faulted trial, in trial order, which picks that
    trial's noiseless row (``_rows``); and one ``multinomial`` of its
    clean-trial count over the noiseless outcome-bin masses
    (``_noiseless_leaf_pool``).  A faulted trial is its row read through
    its frame, the XOR of its fired events' codes.  A clean trial's row is
    independent of the faults, so given their count a block's clean trials
    fall into the bins by exactly that multinomial.  Only bins of positive
    mass enter it, so rounding cannot leave a clean trial in numpy's
    remainder bin when that bin has no mass; at n=3 T it is one binomial
    (I against rejected), and at +i it draws nothing.  _BLOCK is thus part
    of what the counts are: changing it changes every count.

    A block turns its fired cells into its faulted trials' rows and frame
    codes as soon as it has drawn them: one ``np.bitwise_xor.reduceat`` of
    its fired events' codes per faulted trial, and ``_rows`` on its
    doubles.  The passes run from trial 0 in consecutive chunks of _PASS
    blocks, the last one short, and bin their blocks' rows under their
    codes in one ``gadget.frame_bins`` call and one bincount.  A count is a
    sum over trials, so where the passes split does not change it; _PASS
    batches the ``frame_bins`` calls and bounds the rows and codes a pass
    holds.
    """
    frames = _event_table(cfg)[1]
    cum, masses = _noiseless_leaf_pool(cfg)
    live = np.flatnonzero(masses)
    pvals = masses[live]
    counts = np.zeros(gd.N_BINS, dtype=np.int64)
    for first in range(0, trials, _PASS * _BLOCK):
        rows, codes = [], []
        for a in range(first, min(first + _PASS * _BLOCK, trials), _BLOCK):
            rng = np.random.default_rng([seed, a // _BLOCK])
            size = min(_BLOCK, trials - a)
            trial, event = _sample_fires(cfg, params, rng, size)
            starts = _first_cells(trial)
            rows.append(_rows(cum, rng.random(len(starts))))
            # guarded: reduceat over empty indices is untested on numpy 1.x
            codes.append(np.bitwise_xor.reduceat(frames[event], starts) if len(starts) else frames[:0])
            counts[live] += rng.multinomial(size - len(starts), pvals)
        counts += np.bincount(gd.frame_bins(cfg, np.concatenate(rows), np.concatenate(codes)), minlength=gd.N_BINS)
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
