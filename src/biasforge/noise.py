"""Biased Pauli fault model over the gadget circuit.

Elementary fault events, per location:

* single-qubit locations (PrepX / MeasX): one Z event at rate p_z.  X has
  no effect on X-basis preparation or readout, so no X event is emitted.
* two-qubit gates (CZ(theta) / CPHASE): independent Z (p_z) and X (p_x)
  events on each of the two qubits, plus one correlated Z-on-both event at
  rate p_zz.

Y errors are not an independent process: a qubit suffers Y exactly when
its Z and X events fire together (probability p_z * p_x).

Monte Carlo trials draw every event independently; the exhaustive
enumerator sums all event subsets of size <= k, weighting each by
prod(p_e) * prod(1 - p_e') over the non-firing events (exact, no
exponential approximation), and executing every measurement branch of the
faulted circuit exactly.  Each subset is one ``gadget.enumerate_branches``
call, whose branch stack is decoded and classified in one batch into six
outcome-bin masses.  These per-subset masses are independent of the
rates, so they are computed once per (config, order) and kept as an
(S, k) event-index matrix and an (S, 6) mass matrix; each NoiseParams then
costs one vector of subset weights exp(log P(no event) + sum of log-odds)
and one matrix product.

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

Trials are reproducible regardless of parallel partitioning: trial t
draws from ``default_rng([seed, t])`` and aggregation sums integer class
counts in trial order.
"""

from __future__ import annotations

import functools
import itertools
import math
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
    scale: float = 1.0

    def probability(self, params: NoiseParams) -> float:
        base = {"z": params.p_z, "x": params.p_x, "zz": params.p_zz}[self.rate]
        return base * self.scale


@dataclass(frozen=True)
class FaultSet:
    """Concrete faults for one execution: per-location merged Pauli products."""

    faults: tuple[tuple[int, PauliString], ...]
    total_probability_weight: float | None = None

    def __post_init__(self):
        locs = [loc for loc, _ in self.faults]
        if locs != sorted(set(locs)):
            raise ValueError("fault locations must be strictly increasing")


def fault_events(circuit: gd.Circuit, idle_z_multiplier: float = 0.0) -> tuple[FaultEvent, ...]:
    """Elementary fault events of a circuit, in location order.

    ``idle_z_multiplier`` > 0 additionally attaches a Z event at rate
    multiplier * p_z to every prepared-but-not-yet-measured qubit not
    touched by a location, at that location's time step.  The default
    attaches none (the circuits define no idle schedule).
    """
    events: list[FaultEvent] = []
    live: set[int] = set()
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
        if idle_z_multiplier > 0.0:
            touched = set(loc.qubits)
            for q in sorted(live - touched):
                events.append(FaultEvent(t, PauliString.z_on([q]), "z", scale=idle_z_multiplier))
        if loc.kind is gd.LocationKind.PREP_X:
            live.add(loc.qubits[0])
        elif loc.kind is gd.LocationKind.MEAS_X:
            live.discard(loc.qubits[0])
    return tuple(events)


def _merge_events(events) -> tuple[tuple[int, PauliString], ...]:
    by_loc: dict[int, PauliString] = {}
    for ev in events:
        by_loc[ev.location] = by_loc.get(ev.location, PauliString()).compose(ev.pauli)
    return tuple((loc, p) for loc, p in sorted(by_loc.items()) if not p.is_identity)


def sample_faults(
    circuit: gd.Circuit, params: NoiseParams, rng: np.random.Generator,
    events: tuple[FaultEvent, ...] | None = None,
    probs: np.ndarray | None = None,
) -> FaultSet:
    """Draw one independent realization of every fault event."""
    if events is None:
        events = fault_events(circuit)
    if probs is None:
        probs = np.array([ev.probability(params) for ev in events])
    fired = rng.random(len(events)) < probs
    chosen = [ev for ev, f in zip(events, fired) if f]
    return FaultSet(faults=_merge_events(chosen))


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


# ---------------------------------------------------------------------------
# Exhaustive low-order enumeration.

# outcome bins (gadget.outcome_bins): accepted-I, accepted-XL, accepted-ZL,
# accepted-YL, rejected, anomaly; Monte Carlo counts use the same bins
_N_BINS = 6


def _combo_masses(circuit, cfg, fault_subset) -> np.ndarray:
    """Probability mass of each outcome bin over every branch of one subset."""
    branches = gd.enumerate_branches(circuit, cfg, faults=_merge_events(fault_subset))
    masses = np.bincount(gd.outcome_bins(cfg, branches), weights=branches.probabilities, minlength=_N_BINS)
    total = masses.sum()
    if abs(total - 1.0) > 1e-8:
        raise AssertionError(f"branch probabilities sum to {total}, expected 1")
    return masses


_RATE_INDEX = {"z": 0, "x": 1, "zz": 2}


@functools.lru_cache(maxsize=None)
def _enumerated_combos(cfg: gd.GadgetConfig, max_order: int):
    """(rate index, scale, subsets, masses) for all event subsets of size <= k.

    ``subsets`` is an (S, k) event-index matrix, padded with the event count
    (a column of zero log-odds); ``masses`` is the (S, 6) outcome-bin mass
    matrix.  Independent of NoiseParams, so cached per config and order.
    """
    circuit = gd.build_circuit(cfg)
    events = fault_events(circuit)
    num = len(events)
    subsets = [()] + [(i,) for i in range(num)]
    if max_order >= 2:
        subsets += list(itertools.combinations(range(num), 2))
    masses = np.array([_combo_masses(circuit, cfg, [events[i] for i in s]) for s in subsets])
    index = np.full((len(subsets), max_order), num, dtype=np.intp)
    for row, s in enumerate(subsets):
        index[row, : len(s)] = s
    rates = np.array([_RATE_INDEX[ev.rate] for ev in events])
    scales = np.array([ev.scale for ev in events])
    return rates, scales, index, masses


def enumerate_faults(cfg: gd.GadgetConfig, params: NoiseParams, max_order: int) -> RateEstimate:
    """Exact rates from all fault combinations of <= max_order events.

    Every subset is weighted by prod(p_fired) * prod(1 - p_not_fired) and
    executed deterministically over all measurement branches; the result
    is accurate to O(p^(max_order+1)).  The primary rates are per attempt
    (accepted AND wrong, normalized over the enumerated mass); the
    ``*_given_accept`` fields carry the post-selected variants.
    """
    if max_order not in (1, 2):
        raise UnsupportedOrderError(f"max_order must be 1 or 2, got {max_order}")
    rates, scales, index, masses = _enumerated_combos(cfg, max_order)
    probs = np.array([params.p_z, params.p_x, params.p_zz])[rates] * scales
    if np.any(probs >= 1.0):
        raise ValueError("enumeration requires all event probabilities < 1")
    with np.errstate(divide="ignore"):
        log_odds = np.append(np.log(probs) - np.log1p(-probs), 0.0)
    weights = np.exp(np.sum(np.log1p(-probs)) + log_odds[index].sum(axis=1))
    total_weight = weights.sum()
    totals = weights @ masses
    acc = totals.sum() - totals[gd.BIN_REJECTED]
    if acc <= 0.0:
        raise EstimationError("no accepted mass within enumerated order", reject_rate=1.0)
    e_x, e_z, e_y = totals[1:4]
    return RateEstimate(
        e_x=float(e_x / total_weight),
        e_z=float(e_z / total_weight),
        e_y=float(e_y / total_weight),
        reject_rate=float(totals[gd.BIN_REJECTED] / total_weight),
        trials_or_order=max_order,
        ci95_halfwidth=0.0,
        anomaly_rate=float(totals[gd.BIN_ANOMALY] / total_weight),
        accepted_weight=float(acc / total_weight),
        e_x_given_accept=float(e_x / acc),
        e_z_given_accept=float(e_z / acc),
        e_y_given_accept=float(e_y / acc),
    )


# ---------------------------------------------------------------------------
# Monte Carlo estimation.


@functools.lru_cache(maxsize=None)
def _noiseless_leaf_pool(cfg: gd.GadgetConfig):
    """(cumulative probabilities, outcome bins) of the noiseless branches."""
    branches = gd.enumerate_branches(gd.build_circuit(cfg), cfg)
    return np.cumsum(branches.probabilities), gd.outcome_bins(cfg, branches)


def _mc_counts(cfg, params, seed, trial_range) -> np.ndarray:
    circuit = gd.build_circuit(cfg)
    events = fault_events(circuit)
    probs = np.array([ev.probability(params) for ev in events])
    cum, leaf_bins = _noiseless_leaf_pool(cfg)
    counts = np.zeros(_N_BINS, dtype=np.int64)
    for t in trial_range:
        rng = np.random.default_rng([seed, t])
        fired = rng.random(len(events)) < probs
        if not fired.any():
            # noiseless execution: sample a branch from the exact pool
            leaf = int(np.searchsorted(cum, rng.random() * cum[-1]))
            counts[leaf_bins[min(leaf, len(leaf_bins) - 1)]] += 1
            continue
        faults = FaultSet(faults=_merge_events([ev for ev, f in zip(events, fired) if f]))
        counts[gd.run(circuit, cfg, faults=faults.faults, rng=rng).bin] += 1
    return counts


def _resolve_threads(threads: int | None) -> int:
    if threads is None:
        env = os.environ.get("BIASFORGE_THREADS", "0")
        try:
            threads = int(env)
        except ValueError:
            threads = 0
    if threads == 0:
        threads = min(os.cpu_count() or 1, 8)
    return max(1, threads)


def estimate_rates_mc(
    cfg: gd.GadgetConfig,
    params: NoiseParams,
    trials: int,
    seed: int,
    threads: int | None = None,
) -> RateEstimate:
    """Monte Carlo rate estimate over independent sampled-fault executions.

    Deterministic given (seed, trials): trial t uses its own generator
    seeded by [seed, t] and the per-class integer counts are summed in
    trial order, so the result is bit-identical for any thread count.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    threads = _resolve_threads(threads)
    if threads <= 1 or trials < 4 * threads:
        counts = _mc_counts(cfg, params, seed, range(trials))
    else:
        from concurrent.futures import ProcessPoolExecutor

        bounds = np.linspace(0, trials, threads + 1, dtype=int)
        chunks = [range(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_mc_worker, [(cfg, params, seed, c) for c in chunks]))
        counts = np.zeros(_N_BINS, dtype=np.int64)
        for part in parts:  # ordered, integer: partition-independent
            counts += part
    acc = int(counts[0] + counts[1] + counts[2] + counts[3] + counts[5])
    rejected = int(counts[4])
    reject_rate = rejected / trials
    if acc == 0:
        raise EstimationError("no accepted trials", reject_rate=reject_rate)

    def rate_ci(k: int) -> tuple[float, float]:
        p = k / trials
        return p, _Z95 * math.sqrt(p * (1.0 - p) / trials)

    e_x, ci_x = rate_ci(int(counts[1]))
    e_z, ci_z = rate_ci(int(counts[2]))
    e_y, ci_y = rate_ci(int(counts[3]))
    return RateEstimate(
        e_x=e_x,
        e_z=e_z,
        e_y=e_y,
        reject_rate=reject_rate,
        trials_or_order=trials,
        ci95_halfwidth=max(ci_x, ci_z, ci_y),
        ci95_e_x=ci_x,
        ci95_e_z=ci_z,
        ci95_e_y=ci_y,
        anomaly_rate=int(counts[5]) / trials,
        accepted_weight=acc / trials,
        e_x_given_accept=int(counts[1]) / acc,
        e_z_given_accept=int(counts[2]) / acc,
        e_y_given_accept=int(counts[3]) / acc,
    )


def _mc_worker(args):
    cfg, params, seed, trial_range = args
    return _mc_counts(cfg, params, seed, trial_range)
