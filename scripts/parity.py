#!/usr/bin/env python3
"""Write one line per record of nanoheat's public results, for comparing two trees.

    python scripts/parity.py OUT.txt

Imports nanoheat from the ``src/`` next to this script, draws every input from
fixed seeds, and writes ``key -> repr(result)`` per record (``!ExceptionType``
when the call raises), plus the exit code, stdout and CSV lines of the five CLI
subcommands and the ``--help`` text of ``nanoheat`` and of each subcommand, at a
fixed width of 80 columns. Run it in two checkouts and ``cmp`` the files: a refactor that
keeps every output bit for bit leaves them identical.
"""
import contextlib
import io
import math
import os
import pathlib
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import nanoheat as nh  # noqa: E402
from nanoheat import cli, extensions, second_laws  # noqa: E402

ORDERS = (0.0, 0.3, 1.0, 1.0 + 5e-7, 2.5, math.inf)


class Recorder:
    def __init__(self, fh):
        self.fh = fh
        self.count = 0

    def write(self, key, text):
        self.fh.write(f"{key} -> {text}\n")
        self.count += 1

    def __call__(self, key, fn, *args, **kwargs):
        """Record repr(fn(*args, **kwargs)), or the type of the exception it raises."""
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:  # the exception type is part of the contract
            self.write(key, "!" + type(exc).__name__)
            return None
        self.write(key, repr(value))
        return value

    def build(self, key, make):
        """make(), recording only the exception type if it raises."""
        try:
            return make()
        except nh.NanoheatError as exc:
            self.write(key, "!" + type(exc).__name__)
            return None


def battery(eps):
    return nh.BatterySpec(nh.EnergySpectrum((0.0, 1.0)), 0, 1, eps)


def alpha_view(x):
    a = nh.Alpha.of(x)
    return repr(a), float(a), a.is_zero, a.is_one, a.is_infinity, a.is_finite


def alpha_records(rec):
    for x in (0.0, -0.0, 0.3, 1.0, 1.0 + 5e-7, 2.5, math.inf, -1.0, math.nan, np.float64(7.0)):
        rec(f"Alpha.of({x!r})", alpha_view, x)


def instance_records(rec, key, inst, solve=True):
    for a in ORDERS:
        rec(f"{key} w_alpha({a!r})", nh.w_alpha, inst, a)
    grid = np.concatenate([np.geomspace(1e-6, 1e6, 40), [1.0, 1.0 + 5e-7, 1.0 - 2e-7]])
    rec(f"{key} work_curve_values", lambda: second_laws.work_curve_values(inst, grid).tolist())
    if solve:
        rec(f"{key} max_extractable_work", nh.max_extractable_work, inst)
    rec(f"{key} feasible fwd", nh.transition_feasible, inst.cold_initial, inst.cold_final, inst.beta_h)
    rec(f"{key} feasible bwd", nh.transition_feasible, inst.cold_final, inst.cold_initial, inst.beta_h)
    for a in ORDERS:
        rec(f"{key} renyi({a!r})", nh.renyi_divergence, inst.cold_final,
            nh.thermal_state(inst.spectrum, inst.beta_h), a)
    rec(f"{key} moments", nh.state_moments, inst.cold_final)


def solver_records(rec):
    rng = np.random.default_rng(20261018)
    for i in range(160):
        gaps = tuple(rng.uniform(0.2, 40.0, size=int(rng.integers(1, 4))))
        t_cold = rng.uniform(1.0, 19.0)
        t_hot = rng.uniform(1.05 * t_cold, 60.0)
        beta_c, beta_h = 1.0 / t_cold, 1.0 / t_hot
        g = min(10 ** rng.uniform(-7, -3), 0.5 * (beta_c - beta_h))
        eps = g * g if i % 2 else 10 ** rng.uniform(-14, math.log10(0.25))
        copies = int(rng.integers(1, 4))
        spectrum = nh.QubitBath(gaps).spectrum()
        key = f"solve[{i}]"
        inst = rec.build(key, lambda: nh.quasi_static_instance(
            spectrum, beta_c, beta_h, g, eps, copies=copies))
        if inst is None:
            continue
        instance_records(rec, key, inst)
        if i % 2 == 0:
            rec(f"{key} alpha_min=0.5", nh.max_extractable_work, inst, alpha_min=0.5)
        perfect = nh.quasi_static_instance(spectrum, beta_c, beta_h, g, 0.0, copies=copies)
        instance_records(rec, f"{key} eps=0", perfect, solve=False)
        rec(f"{key} eps=0 curve400", lambda: second_laws.work_curve_values(
            perfect, np.geomspace(1e-6, 1e6, 400)).tolist())

    # arbitrary final states, failure probabilities up to 0.9, rank-deficient finals
    for i in range(120):
        n = int(rng.integers(2, 5))
        levels = tuple(np.sort(rng.uniform(0.0, 5.0, size=n)))
        spectrum = nh.EnergySpectrum(levels)
        beta_c = rng.uniform(0.5, 3.0)
        beta_h = beta_c * rng.uniform(0.1, 0.9)
        final = rng.dirichlet(np.ones(n))
        if i % 3 == 0:
            final[int(rng.integers(n))] = 0.0
            final /= final.sum()
        eps = (0.0, 0.9 * rng.uniform(), 10 ** rng.uniform(-12, -1))[i % 3]
        key = f"arbitrary[{i}]"
        copies = int(rng.integers(1, 4))
        inst = rec.build(key, lambda: nh.TransitionInstance(
            nh.thermal_state(spectrum, beta_c), nh.DiagonalState(tuple(final), spectrum),
            beta_h, beta_c, battery(eps), copies=copies))
        if inst is None:
            continue
        instance_records(rec, key, inst, solve=eps > 0)

    # the hot Gibbs state underflows on the excited level (E = 800 at beta_h = 1)
    spectrum = nh.EnergySpectrum((0.0, 800.0))
    for eps in (0.0, 1e-6, 0.3):
        for final in ((1.0, 0.0), (0.5, 0.5)):
            for copies in (1, 2, 3):
                inst = nh.TransitionInstance(
                    nh.thermal_state(spectrum, 2.0), nh.DiagonalState(final, spectrum),
                    1.0, 2.0, battery(eps), copies=copies)
                instance_records(rec, f"underflow eps={eps!r} final={final} copies={copies}",
                                 inst, solve=eps > 0)

    # A <= eps^alpha at an order >= 1
    qubit = nh.EnergySpectrum((0.0, 1.0))
    inst = nh.TransitionInstance(nh.thermal_state(qubit, 1.0), nh.DiagonalState((0.1, 0.9), qubit),
                                 0.5, 1.0, battery(0.9))
    instance_records(rec, "guard", inst)

    # wide spectra: 400-order grids in whole row blocks (4096 levels) and ending
    # in a partial one (1024 and 1000 levels)
    wide = {f"12-qubit[{i}]": nh.QubitBath(tuple(
        np.random.default_rng(100 + i).uniform(2.0, 30.0, size=12))).spectrum() for i in range(3)}
    wide["10-qubit"] = nh.QubitBath(tuple(np.random.default_rng(103).uniform(2.0, 30.0, size=10))).spectrum()
    wide["1000-level"] = nh.EnergySpectrum(tuple(np.random.default_rng(104).uniform(0.0, 120.0, size=1000)))
    for key, spectrum in wide.items():
        inst = nh.quasi_static_instance(spectrum, 0.1, 1.0 / 15.0, 1e-5, 1e-10)
        wide_records(rec, key, inst)
        if "qubit" in key:
            # the same state objects at other hot temperatures and back, a new
            # instance of those states, then equal states built anew: results
            # that states memoize must not depend on whether they were
            # computed before, or at which temperature
            for name, beta_h in (("1/20", 1.0 / 20.0), ("1/25", 1.0 / 25.0)):
                rec(f"{key} feasible fwd beta_h={name}", nh.transition_feasible,
                    inst.cold_initial, inst.cold_final, beta_h)
            rec(f"{key} feasible fwd back", nh.transition_feasible,
                inst.cold_initial, inst.cold_final, inst.beta_h)
            rec(f"{key} feasible bwd back", nh.transition_feasible,
                inst.cold_final, inst.cold_initial, inst.beta_h)
            again = nh.TransitionInstance(inst.cold_initial, inst.cold_final, inst.beta_h,
                                          inst.beta_c, inst.battery, inst.copies)
            rec(f"{key} same states solve", nh.max_extractable_work, again)
            rebuilt = nh.quasi_static_instance(nh.EnergySpectrum(spectrum.levels), 0.1, 1.0 / 15.0, 1e-5, 1e-10)
            wide_records(rec, f"{key} rebuilt", rebuilt)
    kernel_edge_records(rec)
    narrow_records(rec)


def narrow_records(rec):
    """Spectra of 3, 5, 7 and 8 levels: the power sums hold supports under 8
    lanes lanes first and wider ones orders first. Each spectrum has a
    quasi-static instance, whose two records are stacked, and one whose final
    state has lost a level, whose records are not."""
    rng = np.random.default_rng(2215)
    for n in (3, 5, 7, 8):
        spectrum = nh.EnergySpectrum(tuple(np.sort(rng.uniform(0.0, 40.0, size=n))))
        beta_c, beta_h = 1.0 / rng.uniform(1.0, 19.0), 1.0 / rng.uniform(20.0, 60.0)
        key = f"{n}-level"
        instance_records(rec, key, nh.quasi_static_instance(spectrum, beta_c, beta_h, 1e-5, 1e-10))
        final = nh.thermal_state(spectrum, beta_c * 0.9).array.copy()
        final[int(rng.integers(n))] = 0.0
        inst = nh.TransitionInstance(
            nh.thermal_state(spectrum, beta_c), nh.DiagonalState(tuple(final / final.sum()), spectrum),
            beta_h, beta_c, battery(1e-6))
        assert inst._stacked_logs is None  # the records differ in support size
        instance_records(rec, f"{key} rank-deficient final", inst)


def kernel_edge_records(rec):
    """1500 random levels up to 2000 (a partial last block of 21 rows): many
    lanes of the power sums fall below exp's underflow cut or into its
    subnormal range. At beta_h = 1 the hot Gibbs state underflows on part of
    the final state's support (lq = -inf), so the solve meets +inf rows and
    the feasibility checks raise on the rank-deficient reference; at
    beta_h = 0.3 it does not, and they run the grid."""
    rng = np.random.default_rng(1746)
    spectrum = nh.EnergySpectrum(tuple(rng.uniform(0.0, 2000.0, 1500)))
    final = nh.DiagonalState(tuple(rng.dirichlet(np.ones(1500))), spectrum)
    for beta_h in (1.0, 0.3):
        key = f"kernel edge beta_h={beta_h!r}"
        inst = nh.TransitionInstance(nh.thermal_state(spectrum, 2.0), final, beta_h, 2.0, battery(1e-6))
        instance_records(rec, key, inst)
        for a in np.geomspace(0.2, 50.0, 9).tolist():
            rec(f"{key} w_alpha({a!r})", nh.w_alpha, inst, a)


def wide_records(rec, key, inst):
    rec(f"{key} solve", nh.max_extractable_work, inst)
    rec(f"{key} feasible fwd", nh.transition_feasible, inst.cold_initial, inst.cold_final, inst.beta_h)
    rec(f"{key} feasible bwd", nh.transition_feasible, inst.cold_final, inst.cold_initial, inst.beta_h)


def nano_records(rec):
    rng = np.random.default_rng(1506)
    for i in range(1500):
        e = 10 ** rng.uniform(-0.5, 2.5)
        t_cold = rng.uniform(1.0, 19.5)
        t_hot = rng.uniform(1.02 * t_cold, 60.0)
        beta_c, beta_h = 1.0 / t_cold, 1.0 / t_hot
        key = f"cell[{i}] ({e!r}, {beta_c!r}, {beta_h!r})"
        rec(f"{key} classify", nh.classify_regime, e, beta_c, beta_h)
        rec(f"{key} nu", nh.estimate_nu, e, beta_c, beta_h)
        if i % 5 == 0:
            kb = rng.uniform(0.05, 0.95)
            rec(f"{key} infimum({kb!r})", nh.infimum_location, e, beta_c, beta_h, kb)
        if i % 15 == 0:
            rec(f"{key} gamma_profile", nh.gamma_profile, e, beta_c, beta_h)
            probe = np.array([1e-3, 0.5, 1.0, 1.0 + 5e-8, 2.0, 1e3, math.inf])
            rec(f"{key} gamma", lambda: nh.gamma(e, beta_c, beta_h, probe).tolist())
            rec(f"{key} g_function", lambda: nh.nano.g_function(e, beta_c, beta_h, probe[:-1]).tolist())
            rec(f"{key} g_function(1.0)", nh.nano.g_function, e, beta_c, beta_h, 1.0)
    # cells at the indicator-2 boundary of T = (15, 10)
    beta_c, beta_h = 0.1, 1.0 / 15.0
    edge = second_laws._bisect(lambda x: nh.tanh_indicator(x, beta_c, beta_h) < 2.0, 50.0, 70.0)
    for e in (edge, math.nextafter(edge, 0.0), math.nextafter(edge, 100.0), edge * (1 + 1e-3)):
        rec(f"edge classify({e!r})", nh.classify_regime, e, beta_c, beta_h)
    # gaps so small that the exponents of the qubit closed forms differ below the
    # rounding of 1
    for e in (1e-13, 1e-14, 1e-300):
        rec(f"small gap classify({e!r})", nh.classify_regime, e, beta_c, beta_h)
        rec(f"small gap nu({e!r})", nh.estimate_nu, e, beta_c, beta_h)
        rec(f"small gap infimum({e!r})", nh.infimum_location, e, beta_c, beta_h, 0.9)
    # gaps where the prefactor E / (1 + exp(beta_c E)) of b_alpha is subnormal or 0
    probe = np.array([1e-3, 0.5, 0.9, 1.0 + 5e-8, 2.0, 1e3, math.inf])
    for e in (709.0, 760.0, 800.0, 1000.0):
        rec(f"large gap b_alpha({e!r})", lambda: nh.nano.b_alpha(e, 1.0, 0.05, probe).tolist())
        rec(f"large gap gamma({e!r})", lambda: nh.gamma(e, 1.0, 0.05, probe).tolist())
        rec(f"large gap classify({e!r})", nh.classify_regime, e, 1.0, 0.05)
        rec(f"large gap nu({e!r})", nh.estimate_nu, e, 1.0, 0.05)
        rec(f"large gap infimum({e!r})", nh.infimum_location, e, 1.0, 0.05, 0.9)
    # the dichotomy grid: 1e4 orders, across the block edges of gamma
    grid = np.geomspace(0.9, nh.nano.DICHOTOMY_GRID_MAX, nh.nano.DICHOTOMY_GRID_POINTS)
    rec("gamma(45.0) on the dichotomy grid", lambda: nh.gamma(45.0, beta_c, beta_h, grid).tolist())

    for family in (nh.EpsilonFamily.exponential(), nh.EpsilonFamily.log_linear(),
                   nh.EpsilonFamily.power(), nh.EpsilonFamily.power(2.0, 0.25),
                   nh.EpsilonFamily.power(1.0, 2.0)):
        rec(f"{family!r} kappa_bar", nh.estimate_kappa_bar, family)
        rec(f"{family!r} eval", nh.epsilon_family_eval, family, 1e-5)
        rec(f"{family!r} eval(nan)", family.eval, math.nan)
        for e, n in ((45.0, 1), (15.0, 1), (45.0, 3), (30.0, 2)):
            cfg_key = f"engine({family!r}, {e!r}, n={n})"
            cfg = rec.build(cfg_key, lambda: nh.QuasiStaticConfig(
                nh.QubitBath((e,) * n), 0.1, 1.0 / 15.0, 1e-5, family))
            if cfg is None:
                continue
            rec(f"{cfg_key} kappa_bar", getattr, cfg, "kappa_bar")
            rec(cfg_key, nh.quasistatic_engine, cfg)
            rec(f"{cfg_key} band", nh.nano.prediction_band, cfg)
    rec("EpsilonFamily.power(nan)", nh.EpsilonFamily.power, math.nan)
    rec("EpsilonFamily.power(1.0, nan)", nh.EpsilonFamily.power, 1.0, math.nan)
    rec("plan_cycles(w_target=nan)", nh.plan_cycles, math.nan, 15.0, 0.1, 1.0 / 15.0, 0.5, 1000)
    rec("plan_cycles(w_target=inf)", nh.plan_cycles, math.inf, 15.0, 0.1, 1.0 / 15.0, 0.5, 1000)
    for e in (math.nan, math.inf):
        for name in ("gamma_infinity", "omega_single", "tanh_indicator", "classify_regime", "estimate_nu"):
            rec(f"{name}(gap={e!r})", getattr(nh.nano, name), e, 0.1, 1.0 / 15.0)
        rec(f"gamma(gap={e!r})", nh.gamma, e, 0.1, 1.0 / 15.0, 2.0)
        rec(f"infimum_location(gap={e!r})", nh.infimum_location, e, 0.1, 1.0 / 15.0, 0.9)


def macro_extension_records(rec):
    rng = np.random.default_rng(42)
    for i in range(40):
        levels = tuple(np.sort(rng.uniform(0.0, 4.0, size=int(rng.integers(2, 6)))))
        beta_f, beta_h = rng.uniform(0.3, 2.0), rng.uniform(0.2, 1.0)
        rec(f"derivative_identities[{i}]", nh.derivative_identities,
            nh.EnergySpectrum(levels), beta_f, beta_h)
    rec("derivative_identities tiny beta", nh.derivative_identities, nh.EnergySpectrum((0.0, 1.0)), 1e-6, 0.5)
    for e, samples, seed, k in ((45.0, 8, 5, "g*g"), (45.0, 3, 6, "g"), (60.0, 4, 1, "g*g"), (15.0, 1, 0, "g*g")):
        k_of_g = (lambda g: g * g) if k == "g*g" else (lambda g: g)
        rec(f"correlated_bound_check({e!r}, k={k}, seed={seed})", nh.correlated_bound_check,
            e, 0.1, 1.0 / 15.0, 1e-4, k_of_g, samples=samples, seed=seed)
    cold = nh.thermal_state(nh.EnergySpectrum((0.0, 2.0)), 0.3)
    machine_spec = nh.EnergySpectrum((0.0, 0.0))
    for i in range(30):
        machine = nh.DiagonalState(tuple(rng.dirichlet(np.ones(2))), machine_spec)
        state = nh.sample_correlated_state(cold, machine, 1e-3, rng.uniform(), rng)
        rec(f"chi[{i}]", nh.chi, state, 1e-3, 0.5)
        rec(f"entropy[{i}]", extensions._entropy, state.mixture)
    for i in range(30):
        n = int(rng.integers(1, 6))
        state = nh.DiagonalState(tuple(rng.dirichlet(np.ones(n))), nh.EnergySpectrum(tuple(rng.uniform(0, 3, n))))
        rec(f"state_moments[{i}]", nh.state_moments, state)
    inst = nh.quasi_static_instance(nh.EnergySpectrum((0.0, 1.0)), 1.0, 0.5, 0.05, 0.0)
    spec = nh.EnergySpectrum((0.0, 1.0, 3.0))
    for x in (math.nan, math.inf):
        rec(f"efficiency_breakdown(w_ext={x!r})", nh.efficiency_breakdown, inst, x)
        rec(f"find_beta_for_mean_shift(target={x!r})", nh.macro.find_beta_for_mean_shift, spec, 1.0, 0.5, x)
        rec(f"thermal_optimality_check(target={x!r})", nh.thermal_optimality_check, spec, 1.0, 0.5, x, 5)


def schedule_records(rec):
    """The g-schedule readers, the engine's config checks, no_perfect_work where
    the thermal weights underflow, w is tiny or w is NaN, and g_function at huge
    orders."""
    beta_c, beta_h = 0.1, 1.0 / 15.0
    g_list = (1e-2, 1e-3, 1e-4, 1e-5)
    for family, gaps in ((nh.EpsilonFamily.power(1.0, 0.5), (15.0,)),
                         (nh.EpsilonFamily.power(1.0, 2.0), (15.0,)),
                         (nh.EpsilonFamily.log_linear(), (15.0,)),
                         (nh.EpsilonFamily.power(1.0, 0.5), (45.0,) * 3)):
        cfg = nh.QuasiStaticConfig(nh.QubitBath(gaps), beta_c, beta_h, 1e-5, family)
        rec(f"near_perfect_ratio({family!r}, {gaps!r})", nh.near_perfect_ratio, cfg, g_list)
    cfg = nh.QuasiStaticConfig(nh.QubitBath((15.0,)), beta_c, beta_h, 1e-5, nh.EpsilonFamily.power())
    rec("near_perfect_ratio non-decreasing", nh.near_perfect_ratio, cfg, (1e-3, 1e-3, 1e-4))
    mixed = nh.QuasiStaticConfig(nh.QubitBath((15.0, 45.0)), beta_c, beta_h, 1e-5, nh.EpsilonFamily.power())
    rec("near_perfect_ratio mixed gaps", nh.near_perfect_ratio, mixed, g_list)
    rec("near_perfect_ratio mixed gaps, empty list", nh.near_perfect_ratio, mixed, ())

    for levels in ((0.0, 15.0), (0.0, 2.0, 7.0)):
        spectrum = nh.EnergySpectrum(levels)
        rec(f"macro_carnot_limit({levels!r}, None)", nh.macro_carnot_limit,
            spectrum, beta_c, beta_h, g_list)
        rec(f"macro_carnot_limit({levels!r}, g*g)", nh.macro_carnot_limit,
            spectrum, beta_c, beta_h, g_list, lambda g: g * g)
    qubit = nh.EnergySpectrum((0.0, 15.0))
    rec("macro_carnot_limit non-decreasing", nh.macro_carnot_limit, qubit, beta_c, beta_h, (1e-3, 1e-2))
    rec("macro_carnot_limit g too large", nh.macro_carnot_limit, qubit, beta_c, beta_h, (0.05,))

    schedule = (100, 1_000, 10_000)
    rec("convergence_schedule", nh.multicycle.convergence_schedule, 1.0, 15.0, beta_c, beta_h, 0.5, schedule)
    rec("convergence_schedule non-increasing", nh.multicycle.convergence_schedule,
        1.0, 15.0, beta_c, beta_h, 0.5, (1_000, 1_000))
    rec("first_n_below", nh.multicycle.first_n_below, 1.0, 15.0, beta_c, beta_h, 0.5, 1e-2, schedule)

    power = nh.EpsilonFamily.power()
    for key, g, bc, bh in (("g = beta_c - beta_h", beta_c - beta_h, beta_c, beta_h),
                           ("g > beta_c - beta_h", 0.05, beta_c, beta_h),
                           ("beta_c = beta_h", 1e-5, beta_h, beta_h),
                           ("beta_c < beta_h", 1e-5, beta_h, beta_c)):
        rec(f"QuasiStaticConfig {key}", nh.QuasiStaticConfig, nh.QubitBath((15.0,)), bc, bh, g, power)

    ladder = nh.EnergySpectrum(tuple(float(e) for e in range(16)))
    for key, spectrum, j, k, b_h, w in (
            ("ladder 0..15, start 14, beta_h = 60", ladder, 14, 15, 60.0, None),
            ("(0, 1), w = 1e-17, beta_h = 0.5", nh.EnergySpectrum((0.0, 1.0)), 0, 1, 0.5, 1e-17),
            ("(0, 1), w = 1e-9, beta_h = 0.5", nh.EnergySpectrum((0.0, 1.0)), 0, 1, 0.5, 1e-9),
            ("(0, 1), w = 1, beta_h = 0.5", nh.EnergySpectrum((0.0, 1.0)), 0, 1, 0.5, None),
            ("(0, 1), w = nan, beta_h = 0.5", nh.EnergySpectrum((0.0, 1.0)), 0, 1, 0.5, math.nan)):
        cold = nh.thermal_state(nh.EnergySpectrum((0.0, 1.0)), 2.0 * b_h)
        inst = nh.TransitionInstance(cold, cold, b_h, 2.0 * b_h, nh.BatterySpec(spectrum, j, k, 0.0))
        rec(f"no_perfect_work {key}", nh.no_perfect_work, inst, w)

    for e in (1.0, 15.0):
        for a in (1e154, 1.4e154, 1e300, math.inf):
            rec(f"g_function({e!r}, {a!r})", nh.nano.g_function, e, beta_c, beta_h, a)
    # a(a - 1) and (a - 1) K/b_alpha' both overflow, but a is the larger factor
    rec("g_function(1e-196, 1e200)", nh.nano.g_function, 1e-196, beta_c, beta_h, 1e200)
    for orders in ([math.nan, math.inf, 2.0, 1.0], []):
        rec(f"g_function(15.0, {orders!r})", lambda: nh.nano.g_function(
            15.0, beta_c, beta_h, np.array(orders)).tolist())


CLI_RUNS = {
    "sweep-energy": ["sweep", "--mode", "energy", "--t-hot", "15", "--t-cold", "10",
                     "--lo", "1", "--hi", "60", "--steps", "120"],
    "sweep-tcold": ["sweep", "--mode", "tcold", "--t-hot", "20", "--e-min", "15",
                    "--lo", "1", "--hi", "19.5", "--steps", "120"],
    "sweep-thot": ["sweep", "--mode", "thot", "--t-cold", "5", "--e-min", "15",
                   "--lo", "5.5", "--hi", "60", "--steps", "120"],
    "sweep-log-linear": ["sweep", "--mode", "energy", "--t-hot", "15", "--t-cold", "10",
                         "--lo", "1", "--hi", "60", "--steps", "7", "--family", "log_linear"],
    "work": ["work", "--e", "45", "--t-hot", "15", "--t-cold", "10", "--g", "1e-5"],
    "work-n3-eps": ["work", "--e", "15", "--t-hot", "15", "--t-cold", "10", "--n", "3", "--eps", "1e-8"],
    "feasible": ["feasible", "--levels", "0,1", "--p0", "0.7,0.3", "--p1", "0.6,0.4", "--t-hot", "2"],
    "feasible-3": ["feasible", "--levels", "2,0,1", "--p0", "0.2,0.5,0.3", "--p1", "0.1,0.8,0.1",
                   "--t-hot", "0.7"],
    "classify": ["classify", "--e", "45", "--t-hot", "15", "--t-cold", "10"],
    "classify-low": ["classify", "--e", "15", "--t-hot", "15", "--t-cold", "10"],
    "multicycle": ["multicycle", "--w", "1", "--e", "15", "--t-hot", "15", "--t-cold", "10",
                   "--kappa-bar", "0.5"],
    "missing": ["work", "--e", "45"],
    "bad-temperatures": ["classify", "--e", "45", "--t-hot", "10", "--t-cold", "15"],
    "feasible-longer-p1": ["feasible", "--levels", "0,1", "--p0", "0.6,0.4", "--p1", "0.7,0.3,0.5",
                           "--t-hot", "2"],
    "feasible-shorter-p1": ["feasible", "--levels", "0,1", "--p0", "0.6,0.4", "--p1", "0.7",
                            "--t-hot", "2"],
    "work-g-out-of-regime": ["work", "--e", "45", "--t-hot", "15", "--t-cold", "10", "--g", "0.05"],
    "work-g-nan": ["work", "--e", "45", "--t-hot", "15", "--t-cold", "10", "--g", "nan"],
    "sweep-g-nan": ["sweep", "--mode", "energy", "--t-hot", "15", "--t-cold", "10",
                    "--lo", "1", "--hi", "60", "--steps", "3", "--g", "nan"],
    "sweep-g-large": ["sweep", "--mode", "energy", "--t-hot", "15", "--t-cold", "10",
                      "--lo", "1", "--hi", "60", "--steps", "3", "--g", "0.05"],
    "multicycle-fractional-n": ["multicycle", "--w", "1", "--e", "15", "--t-hot", "15",
                                "--t-cold", "10", "--n-schedule", "100.7,1000.9"],
    "multicycle-n-exponent": ["multicycle", "--w", "1", "--e", "15", "--t-hot", "15",
                              "--t-cold", "10", "--n-schedule", "1e2,1e3"],
    "multicycle-w-nan": ["multicycle", "--w", "nan", "--e", "15", "--t-hot", "15", "--t-cold", "10"],
    "multicycle-w-inf": ["multicycle", "--w", "inf", "--e", "15", "--t-hot", "15", "--t-cold", "10"],
    "work-t-cold-subnormal": ["work", "--e", "45", "--t-hot", "15", "--t-cold", "1e-320"],
    "classify-t-cold-subnormal": ["classify", "--e", "45", "--t-hot", "15", "--t-cold", "1e-320"],
    "classify-e-inf": ["classify", "--e", "inf", "--t-hot", "15", "--t-cold", "10"],
    "work-family-c-nan": ["work", "--e", "45", "--t-hot", "15", "--t-cold", "10", "--family-c", "nan"],
    "sweep-tcold-lo-nan": ["sweep", "--mode", "tcold", "--t-hot", "20", "--e-min", "15",
                           "--lo", "nan", "--hi", "19.5", "--steps", "3"],
    "sweep-energy-lo-nan": ["sweep", "--mode", "energy", "--t-hot", "15", "--t-cold", "10",
                            "--lo", "nan", "--hi", "60", "--steps", "3"],
    "sweep-thot-hi-inf": ["sweep", "--mode", "thot", "--t-cold", "5", "--e-min", "15",
                          "--lo", "5.5", "--hi", "inf", "--steps", "3"],
    "sweep-thot-t-cold-subnormal": ["sweep", "--mode", "thot", "--t-cold", "1e-320",
                                    "--e-min", "15", "--lo", "5.5", "--hi", "60", "--steps", "3"],
    "sweep-tcold-lo-subnormal": ["sweep", "--mode", "tcold", "--t-hot", "20", "--e-min", "15",
                                 "--lo", "1e-320", "--hi", "19.5", "--steps", "3"],
}


def cli_run(rec, tmp, name, argv):
    """Record one command line's exit code, stdout, stderr and CSV lines."""
    out = pathlib.Path(tmp) / f"{name}.csv"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.run_command(argv + ["--output", str(out)])
        except Exception as exc:  # an uncaught error is recorded, not fatal
            code = "!" + type(exc).__name__
    rec.write(f"cli {name} exit", code)
    rec.write(f"cli {name} stdout", repr(stdout.getvalue().replace(str(out), "OUT")))
    rec.write(f"cli {name} stderr", repr(stderr.getvalue()))
    lines = out.read_bytes().split(b"\n") if out.exists() else [b"<no file>"]
    for i, line in enumerate(lines):
        rec.write(f"cli {name} csv[{i}]", repr(line))


def cli_records(rec):
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CLI_RUNS.items():
            cli_run(rec, tmp, name, argv)
        # a --config sweep, then the same sweep by flags alone in the same
        # process: the second gets the defaults, not the config's g and family
        config = pathlib.Path(tmp) / "sweep.cfg"
        config.write_text("g = 1e-3\nfamily = log_linear\nkappa-bar = 0.3\nsteps = 4\n", encoding="utf-8")
        sweep = ["sweep", "--mode", "energy", "--t-hot", "15", "--t-cold", "10",
                 "--lo", "1", "--hi", "60", "--steps", "7"]
        cli_run(rec, tmp, "sequence config", ["--config", str(config)] + sweep)
        cli_run(rec, tmp, "sequence flags", sweep)


def help_records(rec):
    os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal width
    for argv in ([], ["sweep"], ["work"], ["feasible"], ["classify"], ["multicycle"]):
        key = "cli " + " ".join(argv + ["--help"])
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            try:
                code = cli.run_command(argv + ["--help"])
            except SystemExit as exc:  # argparse exits after printing help
                code = exc.code
        rec.write(f"{key} exit", code)
        for i, line in enumerate(stdout.getvalue().split("\n")):
            rec.write(f"{key} stdout[{i}]", repr(line))


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    with open(argv[0], "w", encoding="utf-8", newline="\n") as fh:
        rec = Recorder(fh)
        alpha_records(rec)
        solver_records(rec)
        nano_records(rec)
        macro_extension_records(rec)
        schedule_records(rec)
        cli_records(rec)
        help_records(rec)
    print(f"{rec.count} records -> {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
