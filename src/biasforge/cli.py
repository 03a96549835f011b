"""Reproducible command-line experiments.

Subcommands: ``bounds`` (closed-form bound evaluation), ``simulate``
(Monte Carlo or exhaustive fault enumeration, checked against the
bounds), ``plan`` (distillation overhead optimization), ``sweep``
(figure datasets as CSV), and ``replay`` (re-execute the embedded header
of a previous output).

Every output embeds the tool version, the full resolved parameter set,
and the seed; identical invocations produce byte-identical bytes (no
timestamps, shortest round-trip float formatting, thread-count
independent aggregation).  ``replay FILE`` re-runs an output from its
own header and emits the same bytes.

Exit codes: 0 success; 2 flag/validation failure; 3 a simulated rate
exceeded its analytic bound by more than 3x its 95% confidence interval
(regression guard); 4 infeasible distillation target.

Parallelism for Monte Carlo trials is capped by --threads or the
BIASFORGE_THREADS environment variable (0 = auto).

A flat ``key=value`` config file can seed any subcommand's flags
(``--config``); explicit flags override file entries.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, bounds as bd, distill as dst, gadget as gd, noise as nz

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BOUND_VIOLATION = 3
EXIT_INFEASIBLE = 4

_THETA_KEYS = {"plusI": math.pi / 2, "T": math.pi / 4}

SWEEP_FIGURES = (
    "bounds-r3",
    "bounds-r1",
    "rm-r3",
    "rm-r1",
    "overhead-8",
    "overhead-12",
    "overhead-16",
)

_SWEEP_SCHEMAS = {
    "bounds-r3": "p_z,eta,e_xl,e_zl  (analytic bounds, n=3, r=3)",
    "bounds-r1": "p_z,eta,e_xl,e_zl  (analytic bounds, n=3, r=1)",
    "rm-r3": "p_z,eta,e_x_rm,e_z_rm,p_accept_rm  (bounds through one RM round, r=3)",
    "rm-r1": "p_z,eta,e_x_rm,e_z_rm,p_accept_rm  (bounds through one RM round, r=1)",
    "overhead-8": "p_z,eta,target,gadget_layers,gadget_r,gadget_overhead,baseline_layers,baseline_overhead,savings,gadget_advantaged",
    "overhead-12": "same columns as overhead-8, target 1e-12",
    "overhead-16": "same columns as overhead-8, target 1e-16",
}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Output formatting.  Reports are {tool, version, command, params, results};
# CSV carries the same header as '# key=value' comments plus a params JSON
# line, so replay can reconstruct the run from either format.


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _report_json(command: str, params: dict, results) -> str:
    report = {
        "tool": "biasforge",
        "version": __version__,
        "command": command,
        "params": params,
        "results": results,
    }
    return json.dumps(report, indent=2) + "\n"


def _csv_lines(command: str, params: dict, columns: list[str], rows: list[dict]) -> str:
    out = [
        f"# tool=biasforge {__version__}",
        f"# command={command}",
        f"# params={json.dumps(params, sort_keys=True)}",
        ",".join(columns),
    ]
    for row in rows:
        out.append(",".join(_fmt(row[c]) for c in columns))
    return "\n".join(out) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Shared flag handling.


def _add_noise_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pz", type=float, required=True, help="dephasing rate p_z per location")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--px", type=float, help="bit-flip rate p_x per location")
    g.add_argument("--bias", type=float, help="bias eta = p_z/p_x (sets p_x = p_z/eta)")
    p.add_argument("--pzz", type=float, default=None, help="correlated ZZ rate per two-qubit gate (default: p_x)")


def _resolve_noise(args) -> nz.NoiseParams:
    if args.pz < 0:
        raise CliError("--pz must be >= 0")
    if args.bias is not None:
        if args.bias < 1:
            raise CliError("--bias must be >= 1")
        p_x = args.pz / args.bias if args.pz > 0 else 0.0
    else:
        p_x = args.px
    p_zz = args.pzz if args.pzz is not None else p_x
    try:
        return nz.NoiseParams(p_x=p_x, p_z=args.pz, p_zz=p_zz)
    except ValueError as exc:
        raise CliError(str(exc))


def _noise_params_dict(params: nz.NoiseParams) -> dict:
    return {"p_x": params.p_x, "p_z": params.p_z, "p_zz": params.p_zz}


def _apply_config_file(argv: list[str]) -> list[str]:
    """Expand '--config FILE' into leading key=value flags (flags override)."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise CliError("--config requires a path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2 :]
    injected: list[str] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError(f"config line is not key=value: {line!r}")
                key, value = line.split("=", 1)
                injected.extend([f"--{key.strip()}", value.strip()])
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}")
    # injected flags go right after the subcommand so explicit flags win
    if rest and not rest[0].startswith("-"):
        return [rest[0], *injected, *rest[1:]]
    return injected + rest


# ---------------------------------------------------------------------------
# bounds


def _params_bounds(args) -> dict:
    if args.r is not None:
        r_z = r_zz = args.r
    else:
        if args.rz is None or args.rzz is None:
            raise CliError("give --r, or both --rz and --rzz")
        r_z, r_zz = args.rz, args.rzz
    noise = _resolve_noise(args)
    return {
        "n": args.n,
        "r_z": r_z,
        "r_zz": r_zz,
        **_noise_params_dict(noise),
        "seed": args.seed,
        "format": args.format,
    }


def _run_bounds(params: dict):
    noise = nz.NoiseParams(p_x=params["p_x"], p_z=params["p_z"], p_zz=params["p_zz"])
    b = bd.breakdown(bd.BoundInputs(n=params["n"], r_z=params["r_z"], r_zz=params["r_zz"], noise=noise))
    results = {
        "eps_x3": b.eps_x3,
        "eps_x_mzz": b.eps_x_mzz,
        "eps_x2": b.eps_x2,
        "eps_x_mz": b.eps_x_mz,
        "eps_z1": b.eps_z1,
        "eps_z2": b.eps_z2,
        "e_xl": b.e_xl,
        "e_zl": b.e_zl,
    }
    return results, [results], list(results.keys())


# ---------------------------------------------------------------------------
# simulate


def _params_simulate(args) -> dict:
    noise = _resolve_noise(args)
    if args.theta_radians is not None:
        theta = args.theta_radians
        theta_key = "custom"
    else:
        theta_key = args.theta
        theta = _THETA_KEYS[theta_key]
    r_z = r_zz = args.r
    if args.mode == "mc":
        if args.trials is None or args.trials < 1:
            raise CliError("--mode mc requires --trials >= 1")
    else:
        if args.max_order not in (1, 2):
            raise CliError("--mode enumerate requires --max-order in {1, 2}")
    return {
        "n": args.n,
        "theta": theta_key,
        "theta_radians": theta,
        "r_z": r_z,
        "r_zz": r_zz,
        **_noise_params_dict(noise),
        "mode": args.mode,
        "trials": args.trials if args.mode == "mc" else None,
        "max_order": args.max_order if args.mode == "enumerate" else None,
        "seed": args.seed,
        "threads": args.threads,
        "format": args.format,
    }


def _simulate_cfg(params: dict) -> gd.GadgetConfig:
    theta_key = params["theta"]
    if theta_key == "plusI":
        return gd.GadgetConfig.plus_i(params["n"], r=params["r_z"], r_zz=params["r_zz"])
    if theta_key == "T":
        return gd.GadgetConfig.t_state(params["n"], r=params["r_z"], r_zz=params["r_zz"])
    return gd.GadgetConfig.custom(params["n"], params["theta_radians"], r=params["r_z"], r_zz=params["r_zz"])


def _run_simulate(params: dict):
    cfg = _simulate_cfg(params)
    noise = nz.NoiseParams(p_x=params["p_x"], p_z=params["p_z"], p_zz=params["p_zz"])
    if params["mode"] == "mc":
        est = nz.estimate_rates_mc(cfg, noise, trials=params["trials"], seed=params["seed"], threads=params["threads"])
    else:
        est = nz.enumerate_faults(cfg, noise, max_order=params["max_order"])
    b = bd.breakdown(bd.BoundInputs(n=params["n"], r_z=params["r_z"], r_zz=params["r_zz"], noise=noise))
    results = {
        "e_x": est.e_x,
        "e_z": est.e_z,
        "e_y": est.e_y,
        "e_x_given_accept": est.e_x_given_accept,
        "e_z_given_accept": est.e_z_given_accept,
        "e_y_given_accept": est.e_y_given_accept,
        "reject_rate": est.reject_rate,
        "ci95_e_x": est.ci95_e_x,
        "ci95_e_z": est.ci95_e_z,
        "anomaly_rate": est.anomaly_rate,
        "bound_e_xl": b.e_xl,
        "bound_e_zl": b.e_zl,
        "trials_or_order": est.trials_or_order,
    }
    violation = bool(
        est.e_x > b.e_xl * (1 + 1e-9) + 3 * est.ci95_e_x
        or est.e_z > b.e_zl * (1 + 1e-9) + 3 * est.ci95_e_z
    )
    results["bound_violation"] = violation
    return results, [results], list(results.keys())


# ---------------------------------------------------------------------------
# plan


def _params_plan(args) -> dict:
    noise = _resolve_noise(args)
    if not 0.0 < args.target < 1.0:
        raise CliError("--target must be in (0, 1)")
    return {
        "target": args.target,
        **_noise_params_dict(noise),
        "seed": args.seed,
        "format": args.format,
    }


def _plan_row(plan: dst.DistillPlan) -> dict:
    return {
        "use_gadget": plan.use_gadget,
        "n": plan.n,
        "r": plan.r,
        "layers": plan.layers,
        "achieved_e_x": plan.achieved.e_x,
        "achieved_e_z": plan.achieved.e_z,
        "overhead": plan.overhead,
    }


def _run_plan(params: dict):
    eta = params["p_z"] / params["p_x"] if params["p_x"] > 0 else math.inf
    try:
        gadget_plan, baseline_plan = dst.plan(
            target=params["target"], p_z=params["p_z"], eta=eta, p_zz_rule=params["p_zz"]
        )
    except dst.FeasibilityError as exc:
        raise CliError(str(exc), code=EXIT_INFEASIBLE)
    savings = dst.savings_factor(gadget_plan, baseline_plan)
    results = {
        "gadget": _plan_row(gadget_plan),
        "baseline": _plan_row(baseline_plan),
        "savings_factor": savings,
    }
    rows = [
        {"which": "gadget", **_plan_row(gadget_plan), "savings_factor": savings},
        {"which": "baseline", **_plan_row(baseline_plan), "savings_factor": savings},
    ]
    columns = ["which", "use_gadget", "n", "r", "layers", "achieved_e_x", "achieved_e_z", "overhead", "savings_factor"]
    return results, rows, columns


# ---------------------------------------------------------------------------
# sweep


def _params_sweep(args) -> dict:
    if args.figure not in SWEEP_FIGURES:
        raise CliError(f"unknown figure key {args.figure!r}; choose from {', '.join(SWEEP_FIGURES)}")
    return {
        "figure": args.figure,
        "points": args.points,
        "seed": args.seed,
        "format": "csv",
    }


def _run_sweep(params: dict):
    figure = params["figure"]
    points = params["points"]
    etas = (10.0, 100.0, 1000.0)
    rows: list[dict] = []
    if figure.startswith("bounds-"):
        r = int(figure.rsplit("r", 1)[1])
        rows = bd.sweep(n=3, r=r, eta_list=etas, pz_range=(1e-4, 1e-2), points=points)
        columns = ["p_z", "eta", "e_xl", "e_zl"]
    elif figure.startswith("rm-"):
        r = int(figure.rsplit("r", 1)[1])
        for eta in etas:
            for p_z in np.geomspace(1e-4, 1e-2, points):
                noise = nz.NoiseParams.from_bias(float(p_z), eta)
                out, p_acc = dst.rm15_map(dst.gadget_channel(3, r, noise))
                rows.append(
                    {"p_z": float(p_z), "eta": eta, "e_x_rm": out.e_x, "e_z_rm": out.e_z, "p_accept_rm": p_acc}
                )
        columns = ["p_z", "eta", "e_x_rm", "e_z_rm", "p_accept_rm"]
    else:
        target = 10.0 ** -int(figure.rsplit("-", 1)[1])
        for eta in etas:
            for p_z in np.geomspace(1e-4, 4e-3, points):
                gadget_plan, baseline_plan = dst.plan(target=target, p_z=float(p_z), eta=eta)
                rows.append(
                    {
                        "p_z": float(p_z),
                        "eta": eta,
                        "target": target,
                        "gadget_layers": gadget_plan.layers,
                        "gadget_r": gadget_plan.r,
                        "gadget_overhead": gadget_plan.overhead,
                        "baseline_layers": baseline_plan.layers,
                        "baseline_overhead": baseline_plan.overhead,
                        "savings": dst.savings_factor(gadget_plan, baseline_plan),
                        "gadget_advantaged": gadget_plan.overhead < baseline_plan.overhead,
                    }
                )
        columns = [
            "p_z", "eta", "target", "gadget_layers", "gadget_r", "gadget_overhead",
            "baseline_layers", "baseline_overhead", "savings", "gadget_advantaged",
        ]
    return {"rows": len(rows)}, rows, columns


# ---------------------------------------------------------------------------
# dispatch, replay, parser


_RUNNERS = {
    "bounds": _run_bounds,
    "simulate": _run_simulate,
    "plan": _run_plan,
    "sweep": _run_sweep,
}


def _execute_and_emit(command: str, params: dict, out_path: str | None) -> int:
    results, rows, columns = _RUNNERS[command](params)
    fmt = params.get("format", "json")
    if fmt == "csv":
        text = _csv_lines(command, params, columns, rows)
    else:
        text = _report_json(command, params, results)
    _emit(text, out_path)
    if command == "simulate" and results.get("bound_violation"):
        print("bound violation: simulated rate exceeds analytic bound beyond 3x CI", file=sys.stderr)
        return EXIT_BOUND_VIOLATION
    return EXIT_OK


# The params each command's header carries, with the JSON types they take.
_INT, _NUMBER, _STR, _OPT_INT = (int,), (int, float), (str,), (int, type(None))
_NOISE_TYPES = {"p_x": _NUMBER, "p_z": _NUMBER, "p_zz": _NUMBER}
_PARAM_TYPES = {
    "bounds": {"n": _INT, "r_z": _INT, "r_zz": _INT, **_NOISE_TYPES, "seed": _INT, "format": _STR},
    "simulate": {
        "n": _INT, "theta": _STR, "theta_radians": _NUMBER, "r_z": _INT, "r_zz": _INT, **_NOISE_TYPES,
        "mode": _STR, "trials": _OPT_INT, "max_order": _OPT_INT, "seed": _INT, "threads": _OPT_INT, "format": _STR,
    },
    "plan": {"target": _NUMBER, **_NOISE_TYPES, "seed": _INT, "format": _STR},
    "sweep": {"figure": _STR, "points": _INT, "seed": _INT, "format": _STR},
}


def _check_header_params(path: str, command: str, params: dict) -> None:
    """Raise CliError unless ``params`` has every key of ``command``'s
    header, each of the JSON type its builder writes."""
    for key, types in _PARAM_TYPES[command].items():
        if key not in params:
            raise CliError(f"{path}: {command} header lacks param {key!r}")
        if isinstance(params[key], bool) or not isinstance(params[key], types):
            raise CliError(f"{path}: {command} header param {key}={params[key]!r} has the wrong type")


def _cmd_replay(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {args.file}: {exc}")
    command = params = None
    if text.lstrip().startswith("{"):
        report = json.loads(text)
        command, params = report.get("command"), report.get("params")
    else:
        for line in text.splitlines():
            if line.startswith("# command="):
                command = line.split("=", 1)[1]
            elif line.startswith("# params="):
                params = json.loads(line.split("=", 1)[1])
    if command not in _RUNNERS or not isinstance(params, dict):
        raise CliError(f"{args.file} carries no replayable header")
    _check_header_params(args.file, command, params)
    return _execute_and_emit(command, params, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biasforge",
        description="Biased-noise magic-state gadget: bounds, simulation, distillation planning.",
    )
    parser.add_argument("--version", action="version", version=f"biasforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=True):
        p.add_argument("--seed", type=int, default=0, help="64-bit seed embedded in the output")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--config", default=None, help=argparse.SUPPRESS)  # handled pre-parse
        if fmt:
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p_bounds = sub.add_parser("bounds", help="evaluate the closed-form logical error bounds")
    p_bounds.add_argument("--n", type=int, required=True, help="repetition code length (odd)")
    p_bounds.add_argument("--r", type=int, default=None, help="measurement repetitions (odd; sets both r_z and r_zz)")
    p_bounds.add_argument("--rz", type=int, default=None, help="repetitions of the block-1 parity measurement")
    p_bounds.add_argument("--rzz", type=int, default=None, help="repetitions of the joint parity measurement")
    _add_noise_flags(p_bounds)
    common(p_bounds)

    p_sim = sub.add_parser("simulate", help="fault-injection simulation vs the bounds")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--r", type=int, required=True, help="measurement repetitions (odd)")
    p_sim.add_argument("--theta", choices=tuple(_THETA_KEYS), default="T", help="target state key")
    p_sim.add_argument("--theta-radians", type=float, default=None, help="custom rotation angle override")
    _add_noise_flags(p_sim)
    p_sim.add_argument("--mode", choices=("mc", "enumerate"), required=True)
    p_sim.add_argument("--trials", type=int, default=None, help="Monte Carlo trial count (mc mode)")
    p_sim.add_argument("--max-order", type=int, default=None, help="fault order cap, 1 or 2 (enumerate mode)")
    p_sim.add_argument("--threads", type=int, default=None, help="parallel workers (default BIASFORGE_THREADS; 0 = auto)")
    common(p_sim)

    p_plan = sub.add_parser("plan", help="distillation overhead planning")
    p_plan.add_argument("--target", type=float, required=True, help="target output error rate in (0, 1)")
    _add_noise_flags(p_plan)
    common(p_plan)

    p_sweep = sub.add_parser(
        "sweep",
        help="write a figure dataset as CSV",
        epilog="figure schemas:\n" + "\n".join(f"  {k}: {v}" for k, v in _SWEEP_SCHEMAS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_sweep.add_argument("--figure", required=True, help=f"one of {', '.join(SWEEP_FIGURES)}")
    p_sweep.add_argument("--points", type=int, default=20, help="p_z grid points per bias series")
    common(p_sweep, fmt=False)

    p_replay = sub.add_parser("replay", help="re-execute the header of a previous output")
    p_replay.add_argument("file")
    p_replay.add_argument("--out", default=None)

    return parser


_PARAM_BUILDERS = {
    "bounds": _params_bounds,
    "simulate": _params_simulate,
    "plan": _params_plan,
    "sweep": _params_sweep,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
        if args.command == "replay":
            return _cmd_replay(args)
        if args.command == "sweep" and args.out is None:
            raise CliError("sweep requires --out")
        params = _PARAM_BUILDERS[args.command](args)
        return _execute_and_emit(args.command, params, args.out)
    except CliError as exc:
        print(f"biasforge: {exc}", file=sys.stderr)
        return exc.code
    except (gd.ConfigError, bd.OddParityError, nz.UnsupportedOrderError, ValueError) as exc:
        print(f"biasforge: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except nz.EstimationError as exc:
        print(f"biasforge: {exc} (reject rate {exc.reject_rate})", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
