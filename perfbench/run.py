"""biasforge benchmark.

    python3 perfbench/run.py --workload {enumerate,montecarlo,planning}
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Run from the root of a checkout; the package is imported from ``src``.
With ``--trace 0`` the workload is timed untraced for about S seconds and
the end-to-end metrics are printed.  With ``--trace 1`` a fixed amount of
work, set by the seed, runs once untraced in a fresh interpreter and once
with every public function of gadget, noise, distill, bounds and cli
wrapped in spans, and the per-layer metrics are printed.  Every output is
checked; the exit code is 1 if any operation raised or failed its check.

The last line of stdout is the result:
    {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
The line before it is a report with the machine, sample counts, exact
call counts and the metrics under the names they have per workload.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

import spans
import workloads as wl

SETUP_PROBES = 9
PROBE = str(Path(__file__).resolve().parent / "probe.py")
PROBE_TIMEOUT_S = 150

# What task_s and call_ms_* are on each workload.
ALIASES = {
    "enumerate": ("time_to_rates_s", "rate_point_ms"),
    "montecarlo": ("mc_task_s", "mc_quick_ms"),
    "planning": ("figures_s", "plan_ms"),
}


def probe(*args: str) -> dict:
    out = subprocess.run(
        [sys.executable, PROBE, *args], cwd=wl.ROOT, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def machine() -> dict:
    import mpmath

    return {
        "cpu_count": wl.nproc(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
    }


def _median(xs) -> float:
    return float(np.median(xs)) if len(xs) else 0.0


def _pct_ms(xs, q) -> float:
    return float(np.percentile(xs, q) * 1e3) if len(xs) else 0.0


def timed_run(workload, seed, seconds, size, ledger):
    scale = wl.SCALES[size]
    setups = [probe("setup") for _ in range(SETUP_PROBES)]
    bf = wl.import_biasforge()
    wl.setup(bf)
    t = wl.TIMED[workload](bf, seed, seconds, scale, ledger)
    # CPU time of the importing thread, not rescaled: wall time also waits on
    # page-cache misses, process CPU time also counts numpy's BLAS threads
    # starting up, and cold import code slowed far less than the speed
    # kernel on a busy host.
    metrics = {
        "setup_s": (_median([p["setup_cpu_s"] for p in setups]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "task_s": (t.task_ref_s(), "s"),
        "call_ms": (t.call_ref_s() * 1e3, "ms"),
    }
    task_name, call_name = ALIASES[workload]
    named = {
        "setup_s": metrics["setup_s"][0],
        "peak_rss_mb": metrics["peak_rss_mb"][0],
        task_name: metrics["task_s"][0],
        f"{call_name}_p50": _pct_ms(t.call_s, 50),
        f"{call_name}_p99": _pct_ms(t.call_s, 99),
    }
    if workload == "montecarlo" and t.task_s:
        named["mc_trials_per_s"] = t.work / metrics["task_s"][0]
    wall_clock = {
        "setup_s_median": _median([p["setup_s"] for p in setups]),
        "setup_kernel_ms_median": _median([p["kernel_s"] for p in setups]) * 1e3,
        "task_s_median": _median(t.task_s),
        "call_ms_mean": sum(t.batch_s) / sum(t.batch_n) * 1e3 if t.batch_n else 0.0,
        "kernel_ms_median": _median(t.task_k + t.batch_k) * 1e3,
    }
    report = {
        "named": named,
        "wall_clock": wall_clock,
        "samples": {"setup": len(setups), "task": len(t.task_s), "batch": len(t.batch_s), "call": len(t.call_s)},
    }
    return metrics, report


def layer_metrics(sp: spans.Spans, scale: wl.Scale) -> dict:
    work = ("bench.cold", "bench.warm", "bench.mc", "bench.plans", "bench.figures")
    m: dict[str, tuple[float, str]] = {}
    for layer in ("enumerate_branches", "run", "decode", "classify_logical"):
        idx = sp.select(f"gadget.{layer}", work)
        m[f"gadget.{layer}.calls"] = (float(len(idx)), "count")
        m[f"gadget.{layer}.self_us_p50"] = (sp.self_p50_us(idx), "us")
        if layer == "enumerate_branches":
            branches = sum(sp.sizes[int(i)] for i in idx)
            m["gadget.enumerate_branches.branches_per_call"] = (branches / len(idx) if len(idx) else 0.0, "count")
    m["gadget.correction_table.self_s"] = (sp.self_total_s(sp.select("gadget.correction_table", ("bench.setup",))), "s")
    m["distill.rm15_code.self_s"] = (sp.self_total_s(sp.select("distill.rm15_code", ("bench.setup",))), "s")
    m["noise.enumerate_faults.cold_self_s"] = (sp.self_total_s(sp.select("noise.enumerate_faults", ("bench.cold",))), "s")
    m["noise.enumerate_faults.warm_self_us_p50"] = (sp.self_p50_us(sp.select("noise.enumerate_faults", ("bench.warm",))), "us")
    mc = sp.select("noise.estimate_rates_mc", ("bench.mc",))
    trials = scale.fixed_mc_trials if len(mc) else 0
    m["noise.estimate_rates_mc.self_us_per_trial"] = (sp.self_total_s(mc) / trials * 1e6 if trials else 0.0, "us")
    faulted = len(sp.select("gadget.run", ("bench.mc",)))
    m["noise.mc.faulted_fraction"] = (faulted / trials if trials else 0.0, "ratio")
    rm = sp.select("distill.rm15_map", work)
    plans = sp.select("distill.plan", work)
    m["distill.rm15_map.calls"] = (float(len(rm)), "count")
    m["distill.rm15_map.self_us_p50"] = (sp.self_p50_us(rm), "us")
    per_plan = len(sp.descendants_of(rm, plans)) / len(plans) if len(plans) else 0.0
    m["distill.rm15_map.calls_per_plan"] = (per_plan, "count")
    m["distill.plan.self_us_p50"] = (sp.self_p50_us(plans), "us")
    bounds = sp.select_prefix("bounds.", work)
    m["bounds.calls"] = (float(len(bounds)), "count")
    m["bounds.self_us_p50"] = (sp.self_p50_us(bounds), "us")
    m["cli.main.self_s"] = (sp.self_total_s(sp.select("cli.main", work)), "s")
    return m


def traced_run(workload, seed, seconds, size, ledger):
    """The fixed pass, whose length the seed sets; ``seconds`` is not used."""
    scale = wl.SCALES[size]
    untraced = probe("fixed", workload, str(seed), size)
    ledger.merge(untraced["attempted"], untraced["failed"])
    bf = wl.import_biasforge()
    tracer = spans.Tracer()
    for mod in (bf.gadget, bf.noise, bf.distill, bf.bounds, bf.cli):
        tracer.wrap_public(mod, sized=("enumerate_branches",))
    try:
        with tracer.span("bench.setup"):
            wl.setup(bf)
        wall = wl.FIXED[workload](bf, seed, scale, ledger, tracer)
        speedup = 0.0
        if workload == "montecarlo":
            with tracer.paused():
                speedup = wl.pool_speedup(bf, seed, scale, ledger)
    finally:
        tracer.unwrap_all()
    sp = tracer.reduce()
    metrics = layer_metrics(sp, scale)
    metrics["noise.mc.pool_speedup"] = (speedup, "ratio")
    metrics["trace.overhead_s"] = (wall - untraced["wall_s"], "s")
    if workload == "enumerate":
        cold_calls = len(sp.select("gadget.enumerate_branches", ("bench.cold",)))
        ledger.check(cold_calls == scale.subsets, f"cold call simulated {cold_calls} subsets, expected {scale.subsets}")
    report = {
        "traced_wall_s": wall,
        "untraced_wall_s": untraced["wall_s"],
        "spans": len(sp.name),
        "counts": {k: v for k, (v, unit) in metrics.items() if unit == "count" or k == "noise.mc.faulted_fraction"},
    }
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=tuple(wl.SCALES), default="full",
                        help="tiny: order-1 enumeration and small counts, for the smoke test")
    args = parser.parse_args(argv)
    if not (wl.ROOT / "src" / "biasforge" / "__init__.py").is_file():
        print(f"perfbench: no biasforge sources under {wl.ROOT / 'src'}", file=sys.stderr)
        return 2
    ledger = wl.Ledger()
    run = traced_run if args.trace else timed_run
    metrics, report = run(args.workload, args.seed, args.seconds, args.size, ledger)
    correct = ledger.failed == 0 and ledger.attempted > 0
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "machine": machine(), "failed_frac": ledger.failed / max(ledger.attempted, 1),
        **report,
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
