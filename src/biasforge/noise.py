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
no frame and raises ``gadget.FrameError``.  Frames of events combine by
XOR, so both estimators read one noiseless branch table through them.

The exhaustive enumerator sums all event subsets of size <= k, weighting
each by prod(p_e) * prod(1 - p_e') over the non-firing events (exact, no
exponential approximation), over every measurement branch of the faulted
circuit.  A subset's branches depend on its events only through its
frame, the XOR of their frame rows, so the subsets are grouped by frame
and each frame's branch stack is decoded and classified once, in one
batch, into outcome bins.  Each subset is still one
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

Monte Carlo trials draw every event independently.  Trial t still draws
from its own generator, ``np.random.default_rng([seed, t])``: one double per
event (the event fires when it is below p_e), then one double to pick a
noiseless branch if nothing fired, or one double per readout if something
did.  The sampler computes these doubles for a block of trials at once, by
replaying numpy's SeedSequence hash and PCG64 steps on uint64 arrays, and
checks once per process that they equal numpy's own.  A faulted trial's
frame is the sum mod 2 of its fired events' frame rows, and a block's
faulted trials, whatever they fired, are one ``gadget.sample_branches``
walk of the noiseless branch table and one ``gadget.outcome_bins`` call.
A trial's outcome thus depends only on (seed, t), and the per-bin integer
counts, hence the estimates, do not depend on the block size, the
partition into worker processes or the thread count.
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

    def probability(self, params: NoiseParams) -> float:
        return {"z": params.p_z, "x": params.p_x, "zz": params.p_zz}[self.rate]


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
    """(E, M + 2n) frame rows (gadget.fault_frame) of the fault events, read by
    both estimators."""
    return np.array([gd.fault_frame(cfg, [(ev.location, ev.pauli)]) for ev in _events(cfg)])


@dataclass(frozen=True)
class RateEstimate:
    """Logical rates per gadget attempt, plus per-accepted-state variants."""

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
    (a column of zero log-odds and a zero frame row); ``masses`` is the
    (S, gadget.N_BINS) outcome-bin mass matrix.  Subsets are visited a
    frame at a time, and a frame's bins are computed once, from its first
    subset's branches.  Independent of NoiseParams, so cached per config
    and order.
    """
    events = _events(cfg)
    num = len(events)
    subsets = [()] + [(i,) for i in range(num)]
    if max_order >= 2:
        subsets += list(itertools.combinations(range(num), 2))
    index = np.full((len(subsets), max_order), num, dtype=np.intp)
    for row, s in enumerate(subsets):
        index[row, : len(s)] = s
    frames = _event_frames(cfg)
    frames = np.bitwise_xor.reduce(np.vstack([frames, np.zeros_like(frames[:1])])[index], axis=1)
    # packed rows: fewer bytes for np.unique to compare
    group = np.unique(np.packbits(frames, axis=1), axis=0, return_inverse=True)[1].reshape(-1)
    order = np.argsort(group, kind="stable")
    masses = np.empty((len(subsets), gd.N_BINS))
    for same_frame in np.split(order, np.flatnonzero(np.diff(group[order])) + 1):
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


# Trial t draws from default_rng([seed, t]): a SeedSequence hashes the 32-bit
# words of seed and t into a PCG64 state, and each random() double is the
# top 53 bits of the next XSL-RR output.  _TrialStreams replays those steps
# with numpy for a whole block of trials at once.

_MASK32 = 0xFFFFFFFF
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875  # SeedSequence entropy hash
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED  # SeedSequence state output
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4  # SeedSequence's default pool, in 32-bit words
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
_M32, _S32 = np.uint64(_MASK32), np.uint64(32)
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_MULT_LO0, _MULT_LO1 = _MULT_LO & _M32, _MULT_LO >> _S32


def _words32(value: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence takes from an integer."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _lcg_mult(hi: np.ndarray, lo: np.ndarray):
    """(hi, lo) * _PCG_MULT modulo 2^128, on uint64 halves."""
    lo0, lo1 = lo & _M32, lo >> _S32
    mid = lo1 * _MULT_LO0
    cross = ((lo0 * _MULT_LO0) >> _S32) + (mid & _M32) + lo0 * _MULT_LO1
    carry = lo1 * _MULT_LO1 + (mid >> _S32) + (cross >> _S32)
    return hi * _MULT_LO + lo * _MULT_HI + carry, lo * _MULT_LO


class _TrialStreams:
    """The generators default_rng([seed, t]) of a block of trials, in lockstep.

    Each generator's 128-bit PCG64 state and increment are held as uint64
    halves; next() steps every generator once and returns the double its
    random() would return.  Indexing with a row mask or index array gives
    the streams of those trials, at the same position.
    """

    def __init__(self, hi, lo, inc_hi, inc_lo):
        self.hi, self.lo, self.inc_hi, self.inc_lo = hi, lo, inc_hi, inc_lo

    @classmethod
    def seeded(cls, seed: int, trials: np.ndarray) -> "_TrialStreams":
        """The streams of default_rng([seed, t]) for each t in ``trials``."""
        seed_words = _words32(seed)
        trials = np.asarray(trials, dtype=np.uint64)
        two_words = trials > _M32  # such trial indices hash one entropy word more
        if two_words.any() and not two_words.all():
            streams = cls(*(np.empty(len(trials), dtype=np.uint64) for _ in range(4)))
            for rows in (~two_words, two_words):
                for name, value in vars(cls.seeded(seed, trials[rows])).items():
                    getattr(streams, name)[rows] = value
            return streams
        entropy = [np.full(len(trials), w, dtype=np.uint32) for w in seed_words]
        entropy += [(trials >> np.uint64(32 * k)).astype(np.uint32) for k in range(1 + int(two_words.any()))]
        init_hi, init_lo, seq_hi, seq_lo = _seed_sequence_state(entropy)
        # pcg64 srandom: state 0, inc = 2 initseq + 1; step; state += initstate; step
        inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
        inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
        lo = inc_lo + init_lo
        streams = cls(inc_hi + init_hi + (lo < inc_lo), lo, inc_hi, inc_lo)
        streams.step()
        return streams

    def __getitem__(self, rows) -> "_TrialStreams":
        return _TrialStreams(self.hi[rows], self.lo[rows], self.inc_hi[rows], self.inc_lo[rows])

    def step(self) -> None:
        """state <- state * _PCG_MULT + inc modulo 2^128, for every stream."""
        hi, lo = _lcg_mult(self.hi, self.lo)
        self.lo = lo + self.inc_lo
        self.hi = hi + self.inc_hi + (self.lo < lo)

    def next(self) -> np.ndarray:
        """Advance every stream and return its next random() double."""
        self.step()
        xor = self.hi ^ self.lo
        rot = self.hi >> np.uint64(58)
        out = (xor >> rot) | (xor << ((np.uint64(64) - rot) & np.uint64(63)))
        return (out >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def _seed_sequence_state(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence(entropy).generate_state(4, np.uint64), column by column.

    ``entropy`` holds one uint32 array per entropy word; the hash constants
    evolve independently of the data, so every column shares them."""
    hash_const = _HASH_INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _HASH_MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> np.uint32(16))

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):  # entropy wider than the pool
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    hash_const = _HASH_INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _HASH_MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        value = (value ^ (value >> np.uint32(16))).astype(np.uint64)
        if i % 2:  # little-endian pairs of words form the uint64 outputs
            state[-1] |= value << _S32
        else:
            state.append(value)
    return state


@functools.cache
def _check_streams() -> None:
    """Raise RuntimeError unless _TrialStreams reproduces numpy's generators.

    Run once per process, on seeds of one, three and four 32-bit words (the
    last, with the trial word, takes SeedSequence's extra mixing loop) and
    on trial indices of one and two words."""
    trials = np.array([0, 1, 7, 2**32 + 3])
    for seed in (11, 2**80 + 5, 2**100 + 3):
        streams = _TrialStreams.seeded(seed, trials)
        got = np.column_stack([streams.next() for _ in range(16)])
        want = np.array([np.random.default_rng([seed, int(t)]).random(16) for t in trials])
        if not np.array_equal(got, want):
            raise RuntimeError(f"block random streams differ from numpy {np.__version__}'s default_rng([seed, t])")


# A worker process pays off once its share of the trials costs more than
# starting it.  A faulted trial costs about as much as a clean one, so a
# share is counted in trials whatever the noise.  On 2 CPUs (n=3, r=1) two
# workers tie with one process from 15,000 to 20,000 trials without noise
# and win from 12,500 at p_z=1e-3, eta=100.
_MIN_TRIALS_PER_WORKER = 10_000
_BLOCK = 2048  # trials per block: keeps a block's arrays small


def _trial_blocks(seed: int, trial_range: range):
    """The streams of the trials in ``trial_range``, _BLOCK trials at a time."""
    for start in range(trial_range.start, trial_range.stop, _BLOCK):
        yield _TrialStreams.seeded(seed, np.arange(start, min(start + _BLOCK, trial_range.stop)))


def _mc_counts(cfg, params, seed, trial_range) -> np.ndarray:
    """Outcome-bin counts of the trials in ``trial_range``, a block at a time.

    A trial draws one double per fault event (event e fires when its draw is
    below p_e), then, if nothing fired, one double to pick a noiseless
    branch; otherwise its readouts draw that double and the ones after it,
    and the block's faulted trials are sampled together under their frames.
    """
    _check_streams()
    probs = np.array([ev.probability(params) for ev in _events(cfg)])
    frames = _event_frames(cfg)
    cum, leaf_bins = _noiseless_leaf_pool(cfg)
    counts = np.zeros(gd.N_BINS, dtype=np.int64)
    for streams in _trial_blocks(seed, trial_range):
        fired = np.column_stack([streams.next() < p for p in probs])  # (block, events)
        draw = streams.next()
        faulted = fired.any(axis=1)
        # noiseless trials: sample a branch from the exact pool
        leaf = np.minimum(np.searchsorted(cum, draw[~faulted] * cum[-1]), len(leaf_bins) - 1)
        counts += np.bincount(leaf_bins[leaf], minlength=gd.N_BINS)
        rows = np.flatnonzero(faulted)
        if len(rows):
            later = streams[rows]
            uniforms = np.column_stack([draw[rows]] + [later.next() for _ in range(cfg.num_measurements - 1)])
            branches = gd.sample_branches(cfg, fired[rows].astype(np.intp) @ frames % 2, uniforms)
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

    Deterministic given (seed, trials): trial t draws the doubles of
    ``np.random.default_rng([seed, t])``, computed a block of trials at a
    time, and the trials are split into contiguous ranges, one per worker
    process, whose integer bin counts are summed.  A worker starts only
    for enough expected work (``_pool_workers``), so short estimates run
    in this process.  Every count, and so the result, is
    bit-identical for any thread count or block size.  ``seed`` and the
    thread count (``threads``, else BIASFORGE_THREADS) must be
    non-negative integers (ValueError otherwise); RuntimeError means the
    installed numpy's generators no longer match the block sampler.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    workers = _pool_workers(trials, _resolve_threads(threads))
    if workers <= 1:
        counts = _mc_counts(cfg, params, seed, range(trials))
    else:
        from concurrent.futures import ProcessPoolExecutor

        bounds = np.linspace(0, trials, workers + 1, dtype=int)
        chunks = [range(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_mc_worker, [(cfg, params, seed, c) for c in chunks]))
        counts = np.zeros(gd.N_BINS, dtype=np.int64)
        for part in parts:  # ordered, integer: partition-independent
            counts += part
    rejected = int(counts[gd.BIN_REJECTED])
    if counts.sum() == rejected:
        raise EstimationError("no accepted trials", reject_rate=rejected / trials)
    # Wald half-widths of the per-attempt rates
    rates = (int(counts[b]) / trials for b in (gd.BIN_XL, gd.BIN_ZL, gd.BIN_YL))
    ci = tuple(_Z95 * math.sqrt(p * (1.0 - p) / trials) for p in rates)
    return _rate_estimate(counts, trials, trials, ci)


def _mc_worker(args):
    cfg, params, seed, trial_range = args
    return _mc_counts(cfg, params, seed, trial_range)
