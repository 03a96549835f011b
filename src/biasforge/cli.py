"""Reproducible command-line experiments.

Subcommands: ``bounds`` (closed-form bound evaluation), ``simulate``
(Monte Carlo or exhaustive fault enumeration, checked against the
bounds), ``plan`` (distillation overhead optimization), ``sweep``
(figure datasets as CSV), and ``replay`` (re-execute the embedded header
of a previous output).

Every output embeds the tool version, the full resolved parameter set,
and the seed; identical invocations produce byte-identical bytes (no
timestamps, shortest round-trip float formatting).  ``replay FILE``
re-runs an output from its own header and emits the same bytes: the
header's params are rebuilt through the command's own flags and params
builder, and a header that no flags produce is refused.

Exit codes: 0 success; 2 flag/validation failure, a result that is not a
finite float, or a file that cannot be read or written; 3 a simulated rate
exceeded its analytic bound by more than 3x its 95% confidence interval
(regression guard); 4 infeasible distillation target.

A flat ``key=value`` config file can seed any subcommand's flags
(``--config``); explicit flags override file entries.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, bounds as bd, distill as dst, gadget as gd, noise as nz

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BOUND_VIOLATION = 3
EXIT_INFEASIBLE = 4

_THETA_KEYS = {"plusI": math.pi / 2, "T": math.pi / 4}


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


def _csv_lines(command: str, params: dict, rows: list[dict]) -> str:
    columns = list(rows[0])
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
        return
    try:
        with open(out_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {out_path}: {exc}")


# ---------------------------------------------------------------------------
# Shared flag handling.


def _add_noise_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pz", dest="p_z", type=float, required=True, help="dephasing rate p_z per location")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--px", dest="p_x", type=float, help="bit-flip rate p_x per location")
    g.add_argument("--bias", type=float, help="bias eta = p_z/p_x (sets p_x = p_z/eta)")
    p.add_argument("--pzz", dest="p_zz", type=float, default=None, help="correlated ZZ rate per two-qubit gate (default: p_x)")


def _resolve_noise(args) -> nz.NoiseParams:
    if args.p_z < 0:
        raise CliError("--pz must be >= 0")
    if args.bias is not None:
        if args.bias < 1:
            raise CliError("--bias must be >= 1")
        p_x = args.p_z / args.bias if args.p_z > 0 else 0.0
    else:
        p_x = args.p_x
    p_zz = args.p_zz if args.p_zz is not None else p_x
    try:
        return nz.NoiseParams(p_x=p_x, p_z=args.p_z, p_zz=p_zz)
    except ValueError as exc:
        raise CliError(str(exc))


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
        if args.r_z is not None or args.r_zz is not None:
            raise CliError("give --r, or --rz and --rzz, not both")
        r_z = r_zz = args.r
    else:
        if args.r_z is None or args.r_zz is None:
            raise CliError("give --r, or both --rz and --rzz")
        r_z, r_zz = args.r_z, args.r_zz
    noise = _resolve_noise(args)
    return {
        "n": args.n,
        "r_z": r_z,
        "r_zz": r_zz,
        **dataclasses.asdict(noise),
        "seed": args.seed,
        "format": args.format,
    }


def _run_bounds(params: dict):
    noise = nz.NoiseParams(p_x=params["p_x"], p_z=params["p_z"], p_zz=params["p_zz"])
    b = bd.breakdown(params["n"], params["r_z"], params["r_zz"], noise)
    results = dataclasses.asdict(b)
    return results, [results]


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
    r_z = r_zz = args.r_z
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
        **dataclasses.asdict(noise),
        "mode": args.mode,
        "trials": args.trials if args.mode == "mc" else None,
        "max_order": args.max_order if args.mode == "enumerate" else None,
        "seed": args.seed,
        "format": args.format,
    }


def _run_simulate(params: dict):
    cfg = gd.GadgetConfig(n=params["n"], theta=params["theta_radians"], r_z=params["r_z"], r_zz=params["r_zz"])
    noise = nz.NoiseParams(p_x=params["p_x"], p_z=params["p_z"], p_zz=params["p_zz"])
    if params["mode"] == "mc":
        est = nz.estimate_rates_mc(cfg, noise, trials=params["trials"], seed=params["seed"])
    else:
        est = nz.enumerate_faults(cfg, noise, max_order=params["max_order"])
    b = bd.breakdown(params["n"], params["r_z"], params["r_zz"], noise)
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
    return results, [results]


# ---------------------------------------------------------------------------
# plan


def _params_plan(args) -> dict:
    noise = _resolve_noise(args)
    if not 0.0 < args.target < 1.0:
        raise CliError("--target must be in (0, 1)")
    return {
        "target": args.target,
        **dataclasses.asdict(noise),
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
    noise = nz.NoiseParams(p_x=params["p_x"], p_z=params["p_z"], p_zz=params["p_zz"])
    try:
        gadget_plan, baseline_plan = dst._plan(params["target"], noise)
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
    return results, rows


# ---------------------------------------------------------------------------
# sweep.  A figure is one row per (p_z, eta) point: eta in _ETAS, and p_z on
# a geometric grid of --points values over the figure's range.  Its row
# function gives the values of its columns after p_z and eta.


def _bounds_row(r: int, p_z: float, eta: float) -> tuple:
    channel = dst.gadget_channel(3, r, nz.NoiseParams.from_bias(p_z, eta))
    return channel.e_x, channel.e_z


def _rm_row(r: int, p_z: float, eta: float) -> tuple:
    out, p_accept = dst.rm15_map(dst.gadget_channel(3, r, nz.NoiseParams.from_bias(p_z, eta)))
    return out.e_x, out.e_z, p_accept


def _overhead_row(target: float, p_z: float, eta: float) -> tuple:
    gadget_plan, baseline_plan = dst.plan(target=target, p_z=p_z, eta=eta)
    return (
        target,
        gadget_plan.layers,
        gadget_plan.r,
        gadget_plan.overhead,
        baseline_plan.layers,
        baseline_plan.overhead,
        dst.savings_factor(gadget_plan, baseline_plan),
        gadget_plan.overhead < baseline_plan.overhead,
    )


class _Figure(NamedTuple):
    about: str
    columns: tuple[str, ...]
    pz_range: tuple[float, float]
    row: Callable[[float, float], tuple]


_BOUNDS_COLUMNS = ("e_xl", "e_zl")
_RM_COLUMNS = ("e_x_rm", "e_z_rm", "p_accept_rm")
_OVERHEAD_COLUMNS = (
    "target", "gadget_layers", "gadget_r", "gadget_overhead",
    "baseline_layers", "baseline_overhead", "savings", "gadget_advantaged",
)
_ETAS = (10.0, 100.0, 1000.0)
_BOUNDS_GRID = (1e-4, 1e-2)
_OVERHEAD_GRID = (1e-4, 4e-3)
_FIGURES = {
    "bounds-r3": _Figure("analytic bounds, n=3, r=3", _BOUNDS_COLUMNS, _BOUNDS_GRID, functools.partial(_bounds_row, 3)),
    "bounds-r1": _Figure("analytic bounds, n=3, r=1", _BOUNDS_COLUMNS, _BOUNDS_GRID, functools.partial(_bounds_row, 1)),
    "rm-r3": _Figure("bounds through one RM round, r=3", _RM_COLUMNS, _BOUNDS_GRID, functools.partial(_rm_row, 3)),
    "rm-r1": _Figure("bounds through one RM round, r=1", _RM_COLUMNS, _BOUNDS_GRID, functools.partial(_rm_row, 1)),
    "overhead-8": _Figure("overhead, target 1e-8", _OVERHEAD_COLUMNS, _OVERHEAD_GRID, functools.partial(_overhead_row, 1e-8)),
    "overhead-12": _Figure("overhead, target 1e-12", _OVERHEAD_COLUMNS, _OVERHEAD_GRID, functools.partial(_overhead_row, 1e-12)),
    "overhead-16": _Figure("overhead, target 1e-16", _OVERHEAD_COLUMNS, _OVERHEAD_GRID, functools.partial(_overhead_row, 1e-16)),
}
SWEEP_FIGURES = tuple(_FIGURES)


def _params_sweep(args) -> dict:
    if args.figure not in _FIGURES:
        raise CliError(f"unknown figure key {args.figure!r}; choose from {', '.join(SWEEP_FIGURES)}")
    if args.points < 2:
        raise CliError("--points must be >= 2")
    return {
        "figure": args.figure,
        "points": args.points,
        "seed": args.seed,
        "format": "csv",
    }


def _run_sweep(params: dict):
    figure = _FIGURES[params["figure"]]
    columns = ["p_z", "eta", *figure.columns]
    grid = np.geomspace(*figure.pz_range, params["points"]).tolist()
    rows = [dict(zip(columns, (p_z, eta, *figure.row(p_z, eta)))) for eta in _ETAS for p_z in grid]
    return None, rows  # sweep writes CSV only


# ---------------------------------------------------------------------------
# dispatch, replay, parser


_COMMANDS = {  # command -> (params builder, runner: params -> (JSON results, CSV rows))
    "bounds": (_params_bounds, _run_bounds),
    "simulate": (_params_simulate, _run_simulate),
    "plan": (_params_plan, _run_plan),
    "sweep": (_params_sweep, _run_sweep),
}


def _execute_and_emit(command: str, params: dict, out_path: str | None) -> int:
    _, run = _COMMANDS[command]
    results, rows = run(params)
    # the rows hold every value that either format writes
    bad = [f"{k}={v!r}" for row in rows for k, v in row.items() if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise CliError(f"a result is not finite: {', '.join(bad)}")
    fmt = params.get("format", "json")
    if fmt == "csv":
        text = _csv_lines(command, params, rows)
    else:
        text = _report_json(command, params, results)
    _emit(text, out_path)
    if command == "simulate" and results.get("bound_violation"):
        print("bound violation: simulated rate exceeds analytic bound beyond 3x CI", file=sys.stderr)
        return EXIT_BOUND_VIOLATION
    return EXIT_OK


class _HeaderParser(argparse.ArgumentParser):
    """Raises CliError where ArgumentParser prints its usage and exits, so
    that replay reports a header its parser refuses in one line."""

    def error(self, message):
        raise CliError(message)


def _rebuilt_params(path: str, command: str, header: dict) -> dict:
    """The params that ``command``'s own parser and params builder make of
    the flags ``header`` sets.  Raise CliError unless they equal the header
    in every key, value and JSON type."""
    parser = next(a for a in build_parser(_HeaderParser)._actions if a.dest == "command").choices[command]
    # a named --theta sets theta_radians, and "custom" is no --theta choice
    implied = "theta" if header.get("theta") == "custom" else "theta_radians"
    argv = []
    for action in parser._actions:  # every flag that takes a value; its dest is its header key
        value = header.get(action.dest)
        if action.option_strings and action.nargs is None and action.dest != implied and value is not None:
            argv += [action.option_strings[0], value if isinstance(value, str) else json.dumps(value)]
    try:
        build_params, _ = _COMMANDS[command]
        params = build_params(parser.parse_args(argv))
    except CliError as exc:
        raise CliError(f"{path}: {command} header: {exc}") from None
    for key in sorted(header.keys() | params.keys()):
        if key not in header:
            raise CliError(f"{path}: {command} header lacks param {key!r}")
        if key not in params:
            raise CliError(f"{path}: {command} header param {key!r} is not a {command} param")
        if json.dumps(header[key]) != json.dumps(params[key]):
            raise CliError(f"{path}: {command} header param {key}={header[key]!r} rebuilds as {params[key]!r}")
    return params


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
    if command not in _COMMANDS or not isinstance(params, dict):
        raise CliError(f"{args.file} carries no replayable header")
    return _execute_and_emit(command, _rebuilt_params(args.file, command, params), args.out)


@functools.cache
def build_parser(parser_class=argparse.ArgumentParser) -> argparse.ArgumentParser:
    """The CLI's parser, built once per process for each parser class:
    parsing keeps its state in the namespace it returns, not the parser."""
    parser = parser_class(
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
    p_bounds.add_argument("--rz", dest="r_z", type=int, default=None, help="repetitions of the block-1 parity measurement")
    p_bounds.add_argument("--rzz", dest="r_zz", type=int, default=None, help="repetitions of the joint parity measurement")
    _add_noise_flags(p_bounds)
    common(p_bounds)

    p_sim = sub.add_parser("simulate", help="fault-injection simulation vs the bounds")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--r", dest="r_z", type=int, required=True, help="measurement repetitions (odd; sets r_z and r_zz)")
    p_sim.add_argument("--theta", choices=tuple(_THETA_KEYS), default="T", help="target state key")
    p_sim.add_argument("--theta-radians", type=float, default=None, help="custom rotation angle override")
    _add_noise_flags(p_sim)
    p_sim.add_argument("--mode", choices=("mc", "enumerate"), required=True)
    p_sim.add_argument("--trials", type=int, default=None, help="Monte Carlo trial count (mc mode)")
    p_sim.add_argument("--max-order", type=int, default=None, help="fault order cap, 1 or 2 (enumerate mode)")
    common(p_sim)

    p_plan = sub.add_parser("plan", help="distillation overhead planning")
    p_plan.add_argument("--target", type=float, required=True, help="target output error rate in (0, 1)")
    _add_noise_flags(p_plan)
    common(p_plan)

    p_sweep = sub.add_parser(
        "sweep",
        help="write a figure dataset as CSV",
        epilog="figure schemas:\n"
        + "\n".join(f"  {key}: p_z,eta,{','.join(f.columns)}  ({f.about})" for key, f in _FIGURES.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p_sweep.add_argument("--figure", required=True, help=f"one of {', '.join(SWEEP_FIGURES)}")
    p_sweep.add_argument("--points", type=int, default=20, help="p_z grid points per bias series")
    common(p_sweep, fmt=False)

    p_replay = sub.add_parser("replay", help="re-execute the header of a previous output")
    p_replay.add_argument("file")
    p_replay.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
        if args.command == "replay":
            return _cmd_replay(args)
        build_params, _ = _COMMANDS[args.command]
        return _execute_and_emit(args.command, build_params(args), args.out)
    except CliError as exc:
        print(f"biasforge: {exc}", file=sys.stderr)
        return exc.code
    except (gd.CorrectionTableError, ValueError) as exc:
        print(f"biasforge: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:
        print(f"biasforge: a result overflows a float: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except nz.EstimationError as exc:
        print(f"biasforge: {exc} (reject rate {exc.reject_rate})", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
