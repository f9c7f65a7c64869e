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
import functools
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

#: Sweep mode -> (the _sweep_point argument it varies, the two options it holds).
_SWEEP_MODES = {
    "energy": ("e_gap", ("t-hot", "t-cold")),
    "tcold": ("t_cold", ("t-hot", "e-min")),
    "thot": ("t_hot", ("t-cold", "e-min")),
}

#: Multicycle CSV columns after n_cycles: the name, then the field of the
#: cycle's ledger (0) or convergence report (1) that fills it.
_MULTICYCLE_COLUMNS = (
    ("g", 0, "g"),
    ("eps", 0, "eps"),
    ("w_cyc", 0, "w_cyc"),
    ("r", 0, "r"),
    ("battery_entropy", 0, "battery_entropy"),
    ("eta", 0, "eta"),
    ("delta_eta", 1, "eta_gap"),
    ("delta_work", 1, "work_gap"),
    ("delta_entropy", 1, "battery_entropy"),
    ("delta_top_weight", 1, "top_weight_gap"),
)


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
        return f"{value:.12g}"  # "nan" for every NaN
    return str(value)


def write_csv(rows, header, path) -> None:
    """UTF-8 CSV, comma separated, floats at 12 significant digits, LF endings."""
    if any(len(row) != len(header) for row in rows):
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


def positive(text: str) -> float:
    """argparse type of a temperature, a gap or a step g: a float above 0, not NaN (a
    non-number gets argparse's "invalid positive value" message)."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _betas(*temperatures: float) -> tuple:
    """Inverse temperatures (k_B = 1) of baths given hottest first, each colder
    than the one before; the option types keep every temperature positive, and
    a subnormal one, whose inverse overflows, is rejected here."""
    betas = tuple(1.0 / t for t in temperatures)
    if not all(map(math.isfinite, betas)):
        raise _CliError("need temperatures whose inverse is finite")
    if any(not b > a for a, b in zip(betas, betas[1:])):
        raise _CliError("need t_cold < t_hot")
    return betas


def _family_from_args(args) -> nano.EpsilonFamily:
    if args.family == "power":
        return nano.EpsilonFamily.power(args.family_c, args.family_k)
    return nano.EpsilonFamily(args.family)


def _sweep_point(e_gap, t_hot, t_cold, g, family):
    """One CSV row; out-of-regime points keep the sweep variable and a flag."""
    out_of_regime = [None, None, None, OUT_OF_REGIME, None, None, None]
    if t_hot <= 0 or t_cold <= 0 or e_gap <= 0:
        return out_of_regime
    beta_h, beta_c = 1.0 / t_hot, 1.0 / t_cold
    if not math.inf > beta_c > beta_h or g >= beta_c - beta_h:
        return out_of_regime
    verdict = nano._regime(e_gap, beta_c, beta_h)
    eta_carnot = nano.carnot_efficiency(beta_c, beta_h)
    eps = family.eval(g)
    w_ext = nano._qubit_step(e_gap, beta_c, beta_h, g, eps, 1)[1].w_ext
    return [verdict.omega, verdict.eta_quasistatic, eta_carnot, verdict.g_case, w_ext, g, eps]


def _cmd_sweep(args) -> int:
    _require(args, "mode", "lo", "hi", "steps", "output")
    varied, held = _SWEEP_MODES[args.mode]
    _require(args, *held)
    if not -np.inf < args.lo < args.hi < np.inf:
        raise _CliError("--lo must be below --hi, and both finite")
    if args.steps < 2:
        raise _CliError("--steps must be at least 2")
    if args.jobs < 1:
        raise _CliError("--jobs must be at least 1")
    fixed = {"e_gap": args.e_min, "t_hot": args.t_hot, "t_cold": args.t_cold,
             "g": args.g, "family": _family_from_args(args)}
    for t in ("t_hot", "t_cold"):
        if t != varied:  # each alone: a held t_cold >= t_hot gives OUT_OF_REGIME rows
            _betas(fixed[t])
    values = np.linspace(args.lo, args.hi, args.steps).tolist()
    rows = [[x] + _sweep_point(**{**fixed, varied: x}) for x in values]
    write_csv(rows, SWEEP_HEADER, args.output)
    valid = sum(1 for r in rows if r[4] != OUT_OF_REGIME)
    print(f"sweep {args.mode}: {len(rows)} points ({valid} in regime) -> {args.output}")
    return 0


def _cmd_work(args) -> int:
    _require(args, "e", "t-hot", "t-cold")
    beta_h, beta_c = _betas(args.t_hot, args.t_cold)
    if not args.g < beta_c - beta_h:
        raise _CliError(f"need g < beta_c - beta_h = {beta_c - beta_h:.6g}, got {args.g!r}")
    family = _family_from_args(args)
    eps = args.eps if args.eps is not None else family.eval(args.g)
    result = nano._qubit_step(args.e, beta_c, beta_h, args.g, eps, args.n)[1]
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

    def state(flag):
        probs = _parse_floats(getattr(args, flag))
        if len(probs) != len(levels):
            raise _CliError(f"--{flag} has {len(probs)} entries, --levels has {len(levels)}")
        return DiagonalState(np.asarray(probs)[order], spectrum)

    rho0, rho1 = state("p0"), state("p1")
    (beta_h,) = _betas(args.t_hot)
    report = second_laws.transition_feasible(rho0, rho1, beta_h)
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
    beta_h, beta_c = _betas(args.t_hot, args.t_cold)
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
    beta_h, beta_c = _betas(args.t_hot, args.t_cold)
    counts = _parse_floats(args.n_schedule)
    if not all(n.is_integer() for n in counts):
        raise _CliError(f"--n-schedule needs whole cycle counts, got {args.n_schedule!r}")
    schedule = tuple(int(n) for n in counts)
    results = multicycle.convergence_schedule(
        args.w, args.e, beta_c, beta_h, args.kappa_bar, schedule
    )
    if args.output:
        rows = [
            [n] + [getattr((ledger, report)[i], field) for _, i, field in _MULTICYCLE_COLUMNS]
            for n, ledger, report in results
        ]
        header = ("n_cycles",) + tuple(column for column, _, _ in _MULTICYCLE_COLUMNS)
        write_csv(rows, header, args.output)
    last = results[-1][2]
    print(
        f"multicycle N={results[-1][0]}: eta_gap={last.eta_gap:.6g} "
        f"work_gap={last.work_gap:.6g} entropy={last.battery_entropy:.6g} "
        f"top_weight_gap={last.top_weight_gap:.6g}"
    )
    return 0


#: Long option -> its argparse keywords; each subcommand lists the ones it takes.
_OPTIONS = {
    "mode": {"choices": tuple(_SWEEP_MODES)},
    "t-hot": {"type": positive},
    "t-cold": {"type": positive},
    "e-min": {"type": positive},
    "lo": {"type": float},
    "hi": {"type": float},
    "steps": {"type": int},
    "g": {"type": positive, "default": 1e-5},
    "jobs": {"type": int, "default": 1, "help": "accepted; points run in order"},
    "output": {},
    "family": {"choices": ("power", "log_linear", "exponential"), "default": "power"},
    "family-c": {"type": float, "default": 1.0},
    "family-k": {"type": float, "default": 0.5},
    "e": {"type": positive},
    "n": {"type": int, "default": 1},
    "eps": {"type": float},
    "levels": {},
    "p0": {},
    "p1": {},
    "w": {"type": float},
    "kappa-bar": {"type": float, "default": 0.5},
    "n-schedule": {"default": "100,1000,10000,100000"},
}

_FAMILY = ("family", "family-c", "family-k")

#: Subcommand -> (handler, help, its long options in --help order).
_COMMANDS = {
    "sweep": (_cmd_sweep, "efficiency curves over energy or temperature",
              ("mode", "t-hot", "t-cold", "e-min", "lo", "hi", "steps", "g", "jobs", "output",
               *_FAMILY)),
    "work": (_cmd_work, "maximum extractable work of one instance",
             ("e", "t-hot", "t-cold", "g", "n", "eps", "output", *_FAMILY)),
    "feasible": (_cmd_feasible, "transition feasibility under all orders",
                 ("levels", "p0", "p1", "t-hot", "output")),
    "classify": (_cmd_classify, "regime classification for a qubit gap",
                 ("e", "t-hot", "t-cold", "output")),
    "multicycle": (_cmd_multicycle, "multi-cycle convergence report",
                   ("w", "e", "t-hot", "t-cold", "kappa-bar", "n-schedule", "output")),
}


@functools.cache
def _build_parser() -> tuple[_ArgumentParser, dict, _ArgumentParser]:
    """The parser, its subcommand parsers and the pre-scan for --config; built
    once per process, and never changed after (parsing only reads them)."""
    parser = _ArgumentParser(prog="nanoheat", description=__doc__)
    parser.add_argument("--config", help="flat key=value file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument("--" + flag, **_OPTIONS[flag])
        p.set_defaults(func=func)
    pre = _ArgumentParser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    return parser, sub.choices, pre


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
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot read config file: {exc}") from exc
    return values


def run_command(argv) -> int:
    """Dispatch one command line; returns the process exit code."""
    parser, subparsers, pre = _build_parser()
    try:
        # --config is taken out first, in either form and before or after the
        # subcommand; each subcommand checks the keys its _COMMANDS entry lists
        # as --key=value flags (the = keeps values like -1,0), and the chosen
        # one gets its flags right after its name, where later flags override them
        found, argv = pre.parse_known_args(argv)
        if found.config is not None:
            config = _load_config(found.config)
            known, tokens = set(), {}
            for name, sub in subparsers.items():
                keys = [k for k in config if k.replace("_", "-") in _COMMANDS[name][2]]
                tokens[name] = [f"--{k.replace('_', '-')}={config[k]}" for k in keys]
                sub.parse_args(tokens[name])
                known.update(keys)
            unknown = set(config) - known
            if unknown:
                raise _CliError(f"unknown config keys: {sorted(unknown)}")
            # before the subcommand only --help can come, so its name is the first one found
            i = next((i for i, arg in enumerate(argv) if arg in tokens), None)
            if i is not None:
                argv = argv[:i + 1] + tokens[argv[i]] + argv[i + 1:]
        args = parser.parse_args(argv)
        return args.func(args)
    except (_CliError, ParameterError, DomainError, CapacityError) as exc:
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
