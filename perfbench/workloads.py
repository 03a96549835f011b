"""The benchmark's three workloads: seeded inputs, timed loops and checks.

Every workload calls biasforge only through its public module functions
(``bf.noise.enumerate_faults``, ``bf.distill.plan``, ``bf.cli.main``, ...),
looked up at call time, so a tracer that replaces those attributes sees
every call.

* enumerate   -- one cold order-2 fault enumeration at the anchor point,
                 then warm calls on a seeded noise grid (cached re-weighting).
* montecarlo  -- Monte Carlo estimates at the anchor point in one process:
                 large fixed-size estimates and small quick ones.
* planning    -- seeded ``distill.plan`` queries and the seven ``sweep``
                 figures through ``cli.main``; never touches gadget or noise.

A timed pass (``TIMED``) loops until its time is up and gives the end-to-end
numbers, rescaled to a reference machine speed (see speed.py).  A fixed pass
(``FIXED``) does an amount of work set by the seed and the scale alone, so
that traced call counts repeat exactly.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import math
import os
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import speed

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
WORKLOADS = ("enumerate", "montecarlo", "planning")

# Criterion-9 anchor: n=3, r=1, T gadget, p_z=1e-3, eta=100, p_zz=p_x.
ANCHOR_PZ = 1e-3
ANCHOR_ETA = 100.0
# Order-2 enumeration at the anchor, as printed to 7 significant digits.
ANCHOR_ORDER2 = (4.744649e-3, 7.765034e-5)
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class Scale:
    order: int  # fault order of the enumerate workload
    subsets: int  # fault subsets the cold call simulates: 1 + 79 (+ 79*78/2)
    anchor: tuple[str, str]  # cold-call e_x, e_z at the anchor, formatted %.6e
    mc_task_trials: int  # trials of one large Monte Carlo estimate
    mc_call_trials: int  # trials of one quick Monte Carlo estimate
    fixed_warm_points: int  # warm enumerate calls in a fixed pass
    fixed_mc_trials: int  # single-worker trials in a fixed pass
    fixed_plans: int  # plan queries in a fixed pass


WARM_BATCH = 40  # warm enumerate calls per round (about 0.25 s)
MC_QUICK_BATCH = 8  # quick Monte Carlo estimates per round
PLAN_BATCH = 200  # plan queries per round (about 0.4 s)


SCALES = {
    "full": Scale(
        order=2, subsets=3161, anchor=tuple(f"{x:.6e}" for x in ANCHOR_ORDER2),
        mc_task_trials=30_000, mc_call_trials=1_000,
        fixed_warm_points=300, fixed_mc_trials=30_000, fixed_plans=500,
    ),
    "tiny": Scale(
        order=1, subsets=80, anchor=("4.720017e-03", "3.234640e-05"),
        mc_task_trials=2_000, mc_call_trials=200,
        fixed_warm_points=10, fixed_mc_trials=2_000, fixed_plans=20,
    ),
}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def import_biasforge():
    """Import the package from the checkout's ``src`` directory."""
    src = ROOT / "src"
    if not (src / "biasforge" / "__init__.py").is_file():
        raise FileNotFoundError(f"no biasforge sources under {src}")
    sys.path.insert(0, str(src))
    for mod in ("biasforge", "biasforge.gadget", "biasforge.noise", "biasforge.distill",
                "biasforge.bounds", "biasforge.cli"):
        importlib.import_module(mod)
    return sys.modules["biasforge"]


def setup(bf) -> None:
    """The lazy tables every run pays: the decoder table and the RM15 code."""
    bf.gadget.correction_table(t_gadget(bf))
    bf.distill.rm15_code()


def t_gadget(bf):
    return bf.gadget.GadgetConfig.t_state(3, r=1)


def anchor_params(bf):
    return bf.noise.NoiseParams.from_bias(ANCHOR_PZ, ANCHOR_ETA)


class Ledger:
    """Operations attempted and failed; a failure is a raise or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, what: str, fn, *args, **kwargs):
        """(result or None, seconds) of one operation; a raise is a failure."""
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            dt = time.perf_counter() - t0
            self.attempted += 1
            self.failed += 1
            print(f"perfbench: {what} raised", file=sys.stderr)
            traceback.print_exc()
            return None, dt
        return out, time.perf_counter() - t0

    def check(self, ok: bool, what: str) -> None:
        """Count one operation whose call succeeded; ``ok`` is its check."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)

    def merge(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


# ---------------------------------------------------------------------------
# Seeded inputs.


def warm_points(bf, seed: int):
    """Endless noise grid: p_z log-uniform in [1e-4, 1e-2], eta in [10, 1000]."""
    rng = np.random.default_rng([seed, 1])
    while True:
        p_z = 10.0 ** rng.uniform(-4.0, -2.0)
        eta = 10.0 ** rng.uniform(1.0, 3.0)
        yield bf.noise.NoiseParams.from_bias(p_z, eta)


def mc_seeds(seed: int, stream: int):
    rng = np.random.default_rng([seed, stream])
    while True:
        yield int(rng.integers(2**32))


def plan_queries(seed: int):
    """Endless (target, p_z, eta): log-uniform in [1e-16, 1e-8], [1e-4, 4e-3], [10, 1000]."""
    rng = np.random.default_rng([seed, 3])
    lo_pz, hi_pz = math.log10(1e-4), math.log10(4e-3)
    while True:
        target = 10.0 ** rng.uniform(-16.0, -8.0)
        p_z = 10.0 ** rng.uniform(lo_pz, hi_pz)
        eta = 10.0 ** rng.uniform(1.0, 3.0)
        yield target, p_z, eta


# ---------------------------------------------------------------------------
# Checks.


def anchor_ok(est, scale: Scale) -> bool:
    return (f"{est.e_x:.6e}", f"{est.e_z:.6e}") == scale.anchor


def below_bounds(bf, est, p) -> bool:
    return (
        est.e_x <= bf.bounds.e_xl_bound(3, 1, p.p_x, p.p_z)
        and est.e_z <= bf.bounds.e_zl_bound(3, 1, p.p_x, p.p_z, p.p_zz)
    )


def wilson_halfwidth(k: int, n: int) -> float:
    """Half-width of the 95% Wilson score interval; stays positive at k = 0."""
    z2 = _Z95 * _Z95
    return _Z95 / (n + z2) * math.sqrt(k * (n - k) / n + z2 / 4.0)


def mc_ok(est, trials: int) -> bool:
    """Both rates within 3x their 95% interval of the anchor's order-2 rates.

    The interval is the Wilson one computed here from the counts: the Wald
    interval the package reports is zero when a count is zero.
    """
    for rate, ref in ((est.e_x, ANCHOR_ORDER2[0]), (est.e_z, ANCHOR_ORDER2[1])):
        k = round(rate * trials)
        if abs(rate - ref) > 3.0 * wilson_halfwidth(k, trials):
            return False
    return True


def plan_ok(bf, target: float, p_z: float, eta: float, plans) -> bool:
    """Each plan meets the target, and one layer fewer would miss it."""
    dst = bf.distill
    params = bf.noise.NoiseParams.from_bias(p_z, eta)
    for plan in plans:
        start = dst.gadget_channel(plan.n, plan.r, params)
        if dst.concatenate(start, plan.layers) != plan.achieved:
            return False
        if max(plan.achieved.e_x, plan.achieved.e_z) > target:
            return False
        if plan.layers > 0:
            fewer = dst.concatenate(start, plan.layers - 1)
            if max(fewer.e_x, fewer.e_z) <= target:
                return False
    return True


def figure_reference() -> dict[str, bytes]:
    return {p.stem: p.read_bytes() for p in sorted(REFERENCE_DIR.glob("*.csv"))}


def write_figures(bf, outdir: Path, ledger: Ledger) -> tuple[dict[str, bytes], float]:
    """All sweep figures through ``cli.main``: (CSV bytes by figure, seconds)."""
    out: dict[str, bytes] = {}
    total = 0.0
    for figure in bf.cli.SWEEP_FIGURES:
        path = outdir / f"{figure}.csv"
        code, dt = ledger.call(f"sweep {figure}", bf.cli.main, ["sweep", "--figure", figure, "--out", str(path)])
        total += dt
        if code is not None:
            out[figure] = path.read_bytes() if code == 0 else b""
    return out, total


def check_figures(bf, got: dict[str, bytes], ref: dict[str, bytes], ledger: Ledger) -> None:
    for figure in bf.cli.SWEEP_FIGURES:
        if figure in got:
            ledger.check(figure in ref and got[figure] == ref[figure], f"figure {figure} differs from reference")


def scratch_dir():
    """A temporary directory inside the checkout, removed afterwards."""
    return tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT)


# ---------------------------------------------------------------------------
# Timed passes: repeat rounds of work until the time is up.  Each round runs
# the workload's large job once and a batch of its small call, and times the
# speed kernel between blocks (see speed.py).  The cold call, one long block,
# is sampled by a timer signal instead.


@dataclass
class Timed:
    task_s: list[float] = field(default_factory=list)  # the large job, per round
    task_k: list[float] = field(default_factory=list)  # kernel s/rep around each job
    batch_s: list[float] = field(default_factory=list)  # each round's batch of small calls
    batch_n: list[int] = field(default_factory=list)  # calls in each batch
    batch_k: list[float] = field(default_factory=list)  # kernel s/rep around each batch
    call_s: list[float] = field(default_factory=list)  # every small call, at reference speed
    work: int = 0  # trials per large job (montecarlo)

    def add_task(self, seconds: float, k: float) -> None:
        self.task_s.append(seconds)
        self.task_k.append(k)

    def add_batch(self, calls: list[float], k: float) -> None:
        if calls:
            self.batch_s.append(sum(calls))
            self.batch_n.append(len(calls))
            self.batch_k.append(k)
            self.call_s.extend(dt * speed.REF_S / k for dt in calls)

    def task_ref_s(self) -> float:
        """Seconds per large job at reference speed, over all rounds."""
        return sum(self.task_s) / sum(self.task_k) * speed.REF_S if self.task_s else 0.0

    def call_ref_s(self) -> float:
        """Seconds per small call at reference speed, over all rounds."""
        kn = sum(n * k for n, k in zip(self.batch_n, self.batch_k))
        return sum(self.batch_s) / kn * speed.REF_S if self.batch_s else 0.0


def _rounds(seconds: float):
    """Round numbers while time remains; always at least one."""
    deadline = time.perf_counter() + seconds
    yield 0
    for i in itertools.count(1):
        if time.perf_counter() >= deadline:
            return
        yield i


def _take(it, n):
    return list(itertools.islice(it, n))


def enumerate_timed(bf, seed, seconds, scale, ledger) -> Timed:
    """The cold call once, then batches of warm calls on fresh grid points."""
    cfg = t_gadget(bf)
    t = Timed()
    with speed.Sampler() as sampler:
        cold, cold_s = ledger.call(
            "cold enumerate_faults", bf.noise.enumerate_faults, cfg, anchor_params(bf), scale.order
        )
    if cold is not None:
        t.add_task(cold_s, sampler.per_rep())
        ledger.check(anchor_ok(cold, scale), f"anchor rates {cold.e_x:.6e} {cold.e_z:.6e}")
    points = warm_points(bf, seed)
    bracket = speed.Bracket()
    for _ in _rounds(seconds):
        batch = []
        for p in _take(points, WARM_BATCH):
            est, dt = ledger.call("warm enumerate_faults", bf.noise.enumerate_faults, cfg, p, scale.order)
            if est is not None:
                batch.append(dt)
                ledger.check(below_bounds(bf, est, p), f"bounds at p_z={p.p_z} eta={p.eta}")
        t.add_batch(batch, bracket.close())
    return t


def _mc_call(bf, seed, trials, ledger):
    est, dt = ledger.call(
        "estimate_rates_mc", bf.noise.estimate_rates_mc, t_gadget(bf), anchor_params(bf), trials, seed, 1
    )
    if est is not None:
        ledger.check(mc_ok(est, trials), f"mc rates e_x={est.e_x} e_z={est.e_z} seed={seed}")
    return est, dt


def montecarlo_timed(bf, seed, seconds, scale, ledger) -> Timed:
    """Rounds of one large estimate and a batch of quick ones, in this process.

    The pool is left out: with its workers on every CPU, a neighbour's load
    on the shared host slowed it by 40-60% while the speed kernel, on one
    CPU, saw no change.  ``pool_speedup`` in the traced run covers it.
    """
    t = Timed(work=scale.mc_task_trials)
    task_seeds, call_seeds = mc_seeds(seed, 2), mc_seeds(seed, 4)
    bracket = speed.Bracket()
    for _ in _rounds(seconds):
        est, dt = _mc_call(bf, next(task_seeds), scale.mc_task_trials, ledger)
        k = bracket.close()
        if est is not None:
            t.add_task(dt, k)
        batch = []
        for s in _take(call_seeds, MC_QUICK_BATCH):
            est, dt = _mc_call(bf, s, scale.mc_call_trials, ledger)
            if est is not None:
                batch.append(dt)
        t.add_batch(batch, bracket.close())
    return t


def planning_timed(bf, seed, seconds, scale, ledger) -> Timed:
    """Rounds of all figures and of one fixed batch of seeded plan queries."""
    t = Timed()
    ref = figure_reference()
    queries = _take(plan_queries(seed), PLAN_BATCH)
    with scratch_dir() as tmp:
        bracket = speed.Bracket()
        for _ in _rounds(seconds):
            got, dt = write_figures(bf, Path(tmp), ledger)
            k = bracket.close()
            if len(got) == len(bf.cli.SWEEP_FIGURES):
                t.add_task(dt, k)
            check_figures(bf, got, ref, ledger)
            batch = []
            for q in queries:
                plans, dt = ledger.call("plan", bf.distill.plan, *q)
                if plans is not None:
                    batch.append(dt)
                    ledger.check(plan_ok(bf, *q, plans), f"plan target={q[0]} p_z={q[1]} eta={q[2]}")
            t.add_batch(batch, bracket.close())
    return t


TIMED = {"enumerate": enumerate_timed, "montecarlo": montecarlo_timed, "planning": planning_timed}


# ---------------------------------------------------------------------------
# Fixed passes: work set by seed and scale alone.  With a tracer, the work
# runs inside named phase spans and the checks after it run untraced.


def _phase(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _untraced(tracer):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def enumerate_fixed(bf, seed, scale, ledger, tracer=None) -> float:
    cfg = t_gadget(bf)
    points = [p for p, _ in zip(warm_points(bf, seed), range(scale.fixed_warm_points))]
    t0 = time.perf_counter()
    with _phase(tracer, "bench.cold"):
        cold, _ = ledger.call("cold enumerate_faults", bf.noise.enumerate_faults, cfg, anchor_params(bf), scale.order)
    with _phase(tracer, "bench.warm"):
        warm = [ledger.call("warm enumerate_faults", bf.noise.enumerate_faults, cfg, p, scale.order)[0] for p in points]
    wall = time.perf_counter() - t0
    with _untraced(tracer):
        if cold is not None:
            ledger.check(anchor_ok(cold, scale), f"anchor rates {cold.e_x:.6e} {cold.e_z:.6e}")
        for p, est in zip(points, warm):
            if est is not None:
                ledger.check(below_bounds(bf, est, p), f"bounds at p_z={p.p_z} eta={p.eta}")
    return wall


def montecarlo_fixed(bf, seed, scale, ledger, tracer=None) -> float:
    s = next(mc_seeds(seed, 2))
    t0 = time.perf_counter()
    with _phase(tracer, "bench.mc"):
        est, _ = ledger.call(
            "estimate_rates_mc", bf.noise.estimate_rates_mc,
            t_gadget(bf), anchor_params(bf), scale.fixed_mc_trials, s, 1,
        )
    wall = time.perf_counter() - t0
    if est is not None:
        ledger.check(mc_ok(est, scale.fixed_mc_trials), f"mc rates e_x={est.e_x} e_z={est.e_z} seed={s}")
    return wall


def planning_fixed(bf, seed, scale, ledger, tracer=None) -> float:
    queries = [q for q, _ in zip(plan_queries(seed), range(scale.fixed_plans))]
    with scratch_dir() as tmp:
        t0 = time.perf_counter()
        with _phase(tracer, "bench.plans"):
            plans = [ledger.call("plan", bf.distill.plan, *q)[0] for q in queries]
        with _phase(tracer, "bench.figures"):
            got, _ = write_figures(bf, Path(tmp), ledger)
        wall = time.perf_counter() - t0
    with _untraced(tracer):
        for q, p in zip(queries, plans):
            if p is not None:
                ledger.check(plan_ok(bf, *q, p), f"plan target={q[0]} p_z={q[1]} eta={q[2]}")
        check_figures(bf, got, figure_reference(), ledger)
    return wall


FIXED = {"enumerate": enumerate_fixed, "montecarlo": montecarlo_fixed, "planning": planning_fixed}


def pool_speedup(bf, seed, scale, ledger, repeats: int = 3) -> float:
    """Untraced trials/s with every worker over trials/s with one worker."""
    cfg, params, trials = t_gadget(bf), anchor_params(bf), scale.mc_task_trials
    seeds = mc_seeds(seed, 5)
    times = {nproc(): [], 1: []}
    for _ in range(repeats):
        for threads in times:
            s = next(seeds)
            est, dt = ledger.call("estimate_rates_mc", bf.noise.estimate_rates_mc, cfg, params, trials, s, threads)
            if est is not None:
                times[threads].append(dt)
                ledger.check(mc_ok(est, trials), f"mc rates e_x={est.e_x} e_z={est.e_z} seed={s}")
    if not all(times.values()):
        return 0.0
    return float(np.median(times[1]) / np.median(times[nproc()]))
