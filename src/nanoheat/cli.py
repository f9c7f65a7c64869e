"""Command-line surface: parameter sweeps, single-instance work and
feasibility queries, regime classification, and multi-cycle reports.

Temperatures (not inverse temperatures) are taken on the command line to
match the usual plot axes; they are converted internally with k_B = 1.
Output is CSV with deterministic formatting: identical configuration (and
seed) produces a byte-identical file.

Exit codes: 0 success, 1 configuration error, 2 numerical failure or I/O
failure while writing results.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import multicycle, nano, second_laws
from .errors import (
    CapacityError,
    DomainError,
    NanoheatError,
    ParameterError,
)
from .macro import quasi_static_instance
from .thermo import DiagonalState, EnergySpectrum

SWEEP_HEADER = (
    "sweep_variable",
    "omega",
    "eta_nano",
    "eta_carnot",
    "regime_case",
    "w_ext",
    "g",
    "eps",
)

OUT_OF_REGIME = "OUT_OF_REGIME"


class _CliError(Exception):
    """Configuration-level failure; maps to exit code 1."""


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on its own; route through _CliError so the
    # documented exit-code contract (config error -> 1) holds.
    def error(self, message):
        raise _CliError(message)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.12g}"
    return str(value)


def write_csv(rows, header, path) -> None:
    """UTF-8 CSV, comma separated, floats at 12 significant digits, LF endings."""
    width = len(header)
    for row in rows:
        if len(row) != width:
            raise ParameterError("rows must be rectangular")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _require(args, *names):
    missing = [n for n in names if getattr(args, n.replace("-", "_"), None) is None]
    if missing:
        flags = ", ".join("--" + n for n in missing)
        raise _CliError(f"missing required options (flag or config): {flags}")


def _family_from_args(args) -> nano.EpsilonFamily:
    kind = args.family
    if kind == "power":
        return nano.EpsilonFamily.power(args.family_c, args.family_k)
    if kind == "log_linear":
        return nano.EpsilonFamily.log_linear()
    return nano.EpsilonFamily.exponential()


def _sweep_point(e_gap, t_hot, t_cold, g, family):
    """One CSV row; out-of-regime points keep the sweep variable and a flag."""
    out_of_regime = [None, None, None, OUT_OF_REGIME, None, None, None]
    if t_hot <= 0 or t_cold <= 0 or e_gap <= 0:
        return out_of_regime
    beta_h, beta_c = 1.0 / t_hot, 1.0 / t_cold
    if not beta_c > beta_h or g >= beta_c - beta_h:
        return out_of_regime
    om = nano.omega_single(e_gap, beta_c, beta_h)
    eta_nano = nano.quasistatic_efficiency(beta_c, beta_h, max(1.0, om))
    eta_carnot = nano.carnot_efficiency(beta_c, beta_h)
    eps = family.eval(g)
    inst = quasi_static_instance(EnergySpectrum((0.0, e_gap)), beta_c, beta_h, g, eps)
    w_ext = second_laws.max_extractable_work(inst).w_ext
    label = nano.case_label(nano.tanh_indicator(e_gap, beta_c, beta_h))
    return [om, eta_nano, eta_carnot, label, w_ext, g, eps]


def _cmd_sweep(args) -> int:
    _require(args, "mode", "lo", "hi", "steps", "output")
    if args.mode == "energy":
        _require(args, "t-hot", "t-cold")
    elif args.mode == "tcold":
        _require(args, "t-hot", "e-min")
    else:
        _require(args, "t-cold", "e-min")
    if args.lo >= args.hi:
        raise _CliError("--lo must be below --hi")
    if args.steps < 2:
        raise _CliError("--steps must be at least 2")
    family = _family_from_args(args)
    values = np.linspace(args.lo, args.hi, args.steps)

    def point(x):
        if args.mode == "energy":
            row = _sweep_point(x, args.t_hot, args.t_cold, args.g, family)
        elif args.mode == "tcold":
            row = _sweep_point(args.e_min, args.t_hot, x, args.g, family)
        else:
            row = _sweep_point(args.e_min, x, args.t_cold, args.g, family)
        return [float(x)] + row

    rows = [point(x) for x in values]
    write_csv(rows, SWEEP_HEADER, args.output)
    valid = sum(1 for r in rows if r[4] != OUT_OF_REGIME)
    print(f"sweep {args.mode}: {len(rows)} points ({valid} in regime) -> {args.output}")
    return 0


def _cmd_work(args) -> int:
    _require(args, "e", "t-hot", "t-cold")
    beta_h, beta_c = 1.0 / args.t_hot, 1.0 / args.t_cold
    family = _family_from_args(args)
    eps = args.eps if args.eps is not None else family.eval(args.g)
    inst = quasi_static_instance(
        EnergySpectrum((0.0, args.e)), beta_c, beta_h, args.g, eps, copies=args.n
    )
    result = second_laws.max_extractable_work(inst)
    if args.output:
        rows = [[a, w] for a, w in result.curve.samples]
        write_csv(rows, ("alpha", "w_alpha"), args.output)
    print(
        f"w_ext={result.w_ext:.12g} argmin_alpha={result.argmin_alpha} "
        f"eps={eps:.6g} (curve: {len(result.curve.samples)} samples)"
    )
    return 0


def _parse_floats(text: str):
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise _CliError(f"expected a comma-separated list of numbers: {text!r}") from exc


def _cmd_feasible(args) -> int:
    _require(args, "levels", "p0", "p1", "t-hot")
    levels = _parse_floats(args.levels)
    spectrum = EnergySpectrum(levels)
    order = np.argsort(np.asarray(levels), kind="stable")
    p0 = np.asarray(_parse_floats(args.p0))[order]
    p1 = np.asarray(_parse_floats(args.p1))[order]
    rho0 = DiagonalState(tuple(p0), spectrum)
    rho1 = DiagonalState(tuple(p1), spectrum)
    report = second_laws.transition_feasible(rho0, rho1, 1.0 / args.t_hot)
    verdict = "feasible" if report.feasible else "infeasible"
    print(
        f"{verdict}: min free-energy gap {report.min_gap:.6g} at order "
        f"{report.worst_alpha} ({len(report.violations)} violating orders)"
    )
    if args.output:
        write_csv(
            [[a, g] for a, g in report.violations],
            ("alpha", "gap"),
            args.output,
        )
    return 0


def _cmd_classify(args) -> int:
    _require(args, "e", "t-hot", "t-cold")
    beta_h, beta_c = 1.0 / args.t_hot, 1.0 / args.t_cold
    if beta_c <= beta_h:
        raise _CliError("need t_cold < t_hot")
    cls = nano.classify_regime(args.e, beta_c, beta_h)
    carnot = nano.carnot_efficiency(beta_c, beta_h)
    print(
        f"omega={cls.omega:.12g} indicator={cls.tanh_indicator:.12g} case={cls.g_case} "
        f"carnot_achievable={cls.carnot_achievable} eta={cls.eta_quasistatic:.12g} "
        f"eta_carnot={carnot:.12g}"
    )
    if args.output:
        write_csv(
            [[args.e, cls.omega, cls.tanh_indicator, cls.g_case, cls.eta_quasistatic, carnot]],
            ("e_min", "omega", "indicator", "regime_case", "eta_nano", "eta_carnot"),
            args.output,
        )
    return 0


def _cmd_multicycle(args) -> int:
    _require(args, "w", "e", "t-hot", "t-cold")
    beta_h, beta_c = 1.0 / args.t_hot, 1.0 / args.t_cold
    schedule = tuple(int(x) for x in _parse_floats(args.n_schedule))
    results = multicycle.convergence_schedule(
        args.w, args.e, beta_c, beta_h, args.kappa_bar, schedule
    )
    rows = [
        [
            n,
            ledger.g,
            ledger.eps,
            ledger.w_cyc,
            ledger.r,
            ledger.battery_entropy,
            ledger.eta,
            report.eta_gap,
            report.work_gap,
            report.battery_entropy,
            report.top_weight_gap,
        ]
        for n, ledger, report in results
    ]
    header = (
        "n_cycles",
        "g",
        "eps",
        "w_cyc",
        "r",
        "battery_entropy",
        "eta",
        "delta_eta",
        "delta_work",
        "delta_entropy",
        "delta_top_weight",
    )
    if args.output:
        write_csv(rows, header, args.output)
    last = results[-1][2]
    print(
        f"multicycle N={results[-1][0]}: eta_gap={last.eta_gap:.6g} "
        f"work_gap={last.work_gap:.6g} entropy={last.battery_entropy:.6g} "
        f"top_weight_gap={last.top_weight_gap:.6g}"
    )
    return 0


def _build_parser() -> tuple[_ArgumentParser, dict]:
    parser = _ArgumentParser(prog="nanoheat", description=__doc__)
    parser.add_argument("--config", help="flat key=value file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p):
        p.add_argument("--family", choices=("power", "log_linear", "exponential"), default="power")
        p.add_argument("--family-c", type=float, default=1.0)
        p.add_argument("--family-k", type=float, default=0.5)

    p = sub.add_parser("sweep", help="efficiency curves over energy or temperature")
    p.add_argument("--mode", choices=("energy", "tcold", "thot"))
    p.add_argument("--t-hot", type=float)
    p.add_argument("--t-cold", type=float)
    p.add_argument("--e-min", type=float)
    p.add_argument("--lo", type=float)
    p.add_argument("--hi", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--g", type=float, default=1e-5)
    p.add_argument("--jobs", type=int, default=1, help="accepted; points run in order")
    p.add_argument("--output")
    add_family(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("work", help="maximum extractable work of one instance")
    p.add_argument("--e", type=float)
    p.add_argument("--t-hot", type=float)
    p.add_argument("--t-cold", type=float)
    p.add_argument("--g", type=float, default=1e-5)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--eps", type=float)
    p.add_argument("--output")
    add_family(p)
    p.set_defaults(func=_cmd_work)

    p = sub.add_parser("feasible", help="transition feasibility under all orders")
    p.add_argument("--levels")
    p.add_argument("--p0")
    p.add_argument("--p1")
    p.add_argument("--t-hot", type=float)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_feasible)

    p = sub.add_parser("classify", help="regime classification for a qubit gap")
    p.add_argument("--e", type=float)
    p.add_argument("--t-hot", type=float)
    p.add_argument("--t-cold", type=float)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("multicycle", help="multi-cycle convergence report")
    p.add_argument("--w", type=float)
    p.add_argument("--e", type=float)
    p.add_argument("--t-hot", type=float)
    p.add_argument("--t-cold", type=float)
    p.add_argument("--kappa-bar", type=float, default=0.5)
    p.add_argument("--n-schedule", default="100,1000,10000,100000")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_multicycle)
    return parser, sub.choices


def _load_config(path: str) -> dict:
    """Flat key=value lines, '#' comments; keys use the long-flag spelling."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise _CliError(f"{path}:{lineno}: expected key=value, got {raw!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                values[key.replace("-", "_")] = value
    except OSError as exc:
        raise _CliError(f"cannot read config file: {exc}") from exc
    return values


def run_command(argv) -> int:
    """Dispatch one command line; returns the process exit code."""
    parser, subparsers = _build_parser()
    try:
        # --config is taken out first, in either form and before or after the
        # subcommand; each subcommand checks the keys it knows as --key=value
        # flags (the = keeps values like -1,0), then takes them as defaults
        pre = _ArgumentParser(add_help=False, allow_abbrev=False)
        pre.add_argument("--config")
        found, argv = pre.parse_known_args(argv)
        if found.config is not None:
            config = _load_config(found.config)
            known = set()
            for sub in subparsers.values():
                keys = [k for k in config if k in vars(sub.parse_args([]))]
                typed = sub.parse_args([f"--{k.replace('_', '-')}={config[k]}" for k in keys])
                sub.set_defaults(**{k: getattr(typed, k) for k in keys})
                known.update(keys)
            unknown = set(config) - known
            if unknown:
                raise _CliError(f"unknown config keys: {sorted(unknown)}")
        args = parser.parse_args(argv)
        return args.func(args)
    except _CliError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ParameterError, DomainError, CapacityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NanoheatError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
