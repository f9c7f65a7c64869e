"""Macroscopic (Helmholtz-only) baseline: work, efficiency, thermal-state
optimality, derivative identities, and the quasi-static Carnot limit.

Everything here uses only the order-1 free energy. It serves both as a sanity
oracle for the nanoscale solver (which it upper-bounds) and as the classical
reference the engine efficiencies are compared against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import ParameterError, RegimeError
from .second_laws import BatterySpec, TransitionInstance, _bisect, w_alpha
from .thermo import (
    Alpha,
    DiagonalState,
    EnergySpectrum,
    binary_entropy,
    kl_divergence_and_variance,
    state_moments,
    thermal_state,
)

#: Central finite-difference step; balances truncation against round-off.
FD_STEP = 1e-5


@dataclass(frozen=True)
class EfficiencyBreakdown:
    """Energy bookkeeping of one engine cycle.

    delta_h = delta_c + delta_w by total energy conservation, and
    1/eta = 1 - eps + delta_c / w_ext.
    """

    w_ext: float
    delta_c: float
    delta_w: float
    delta_h: float
    eta: float
    eps: float
    delta_s: float


@dataclass(frozen=True)
class ThermalOptimalityReport:
    beta_prime: float
    trials: int
    rejected: int
    worst_excess: float  # most any sample beat the thermal state's work (<= tol)
    passed: bool


@dataclass(frozen=True)
class DerivativeIdentity:
    name: str
    finite_difference: float
    analytic: float
    rel_error: float


@dataclass(frozen=True)
class DerivativeReport:
    identities: Tuple[DerivativeIdentity, ...]
    passed: bool


def macro_work(inst: TransitionInstance) -> float:
    """Maximum work the order-1 law alone allows; equals w_alpha at ONE.

    For eps = 0 this is the Helmholtz free-energy drop of the cold bath.
    """
    return w_alpha(inst, Alpha.ONE)


def efficiency_breakdown(inst: TransitionInstance, w_ext: float) -> EfficiencyBreakdown:
    """Split the hot-bath energy draw into cold-bath and battery parts."""
    if not 0 < w_ext < math.inf:  # nan fails too
        raise ParameterError("efficiency needs a finite w_ext > 0")
    mean0, _, _ = state_moments(inst.cold_initial)
    mean1, _, _ = state_moments(inst.cold_final)
    eps = inst.battery.eps
    delta_c = inst.copies * (mean1 - mean0)
    delta_w = (1.0 - eps) * w_ext
    delta_h = delta_c + delta_w
    if delta_h <= 0:
        raise RegimeError("no energy drawn from the hot bath; degenerate engine")
    return EfficiencyBreakdown(
        w_ext=float(w_ext),
        delta_c=float(delta_c),
        delta_w=float(delta_w),
        delta_h=float(delta_h),
        eta=float(w_ext / delta_h),
        eps=float(eps),
        delta_s=binary_entropy(eps),
    )


def _mean_energy(spectrum: EnergySpectrum, beta: float) -> float:
    return state_moments(thermal_state(spectrum, beta))[0]


def find_beta_for_mean_shift(
    spectrum: EnergySpectrum, beta_c: float, beta_h: float, delta_c_target: float
) -> float:
    """Bisection for beta' in [beta_h, beta_c] with <H>_beta' - <H>_beta_c = target.

    The mean energy is strictly decreasing in beta, so the target is monotone
    over the bracket.
    """
    if not delta_c_target >= 0:  # nan fails too
        raise ParameterError("target mean-energy shift must be nonnegative")
    reach = _mean_energy(spectrum, beta_h) - _mean_energy(spectrum, beta_c)
    if delta_c_target > reach:
        raise ParameterError(
            f"target shift {delta_c_target} exceeds the reachable {reach} on this bracket"
        )
    base = _mean_energy(spectrum, beta_c)
    # the shift decreases from `reach` at beta_h to 0 at beta_c
    return _bisect(lambda b: _mean_energy(spectrum, b) - base > delta_c_target, beta_h, beta_c)


def thermal_optimality_check(
    spectrum: EnergySpectrum,
    beta_c: float,
    beta_h: float,
    delta_c_target: float,
    trials: int,
    seed: int = 0,
) -> ThermalOptimalityReport:
    """Randomized search for a final state beating the thermal one at fixed mean energy.

    Samples Dirichlet vectors, rescales two coordinates to meet the mean-energy
    constraint exactly (rejecting infeasible draws), and verifies that none has
    a smaller relative entropy to the hot reference than the thermal state at
    beta'. Smaller relative entropy at fixed mean energy would mean more work.
    """
    if not math.inf > beta_c > beta_h > 0:
        raise ParameterError("need finite beta_c > beta_h > 0")
    if not (isinstance(trials, int) and trials >= 1):
        raise ParameterError("trials must be a positive integer")
    beta_prime = find_beta_for_mean_shift(spectrum, beta_c, beta_h, delta_c_target)
    tau_h = thermal_state(spectrum, beta_h)
    target_mean = _mean_energy(spectrum, beta_c) + delta_c_target
    d_thermal, _ = kl_divergence_and_variance(thermal_state(spectrum, beta_prime), tau_h)

    rng = np.random.default_rng(seed)
    energies = spectrum.array
    n = spectrum.size
    if np.all(energies == energies[0]):
        raise ParameterError("fully degenerate spectrum; the constraint is vacuous")
    rejected = 0
    worst = -math.inf
    done = 0
    while done < trials:
        if rejected > 100 * trials + 1000:
            raise ParameterError("constrained sampling keeps rejecting; target too extreme")
        x = rng.dirichlet(np.ones(n))
        a, b = rng.choice(n, size=2, replace=False)
        if energies[a] == energies[b]:
            rejected += 1
            continue
        shift = (target_mean - float(x @ energies)) / (energies[a] - energies[b])
        x[a] += shift
        x[b] -= shift
        if x.min() < 0:
            rejected += 1
            continue
        state = DiagonalState(tuple(x / x.sum()), spectrum)
        d_sample, _ = kl_divergence_and_variance(state, tau_h)
        worst = max(worst, d_thermal - d_sample)
        done += 1
    return ThermalOptimalityReport(
        beta_prime=float(beta_prime),
        trials=trials,
        rejected=rejected,
        worst_excess=float(worst),
        passed=worst <= 1e-9,
    )


def derivative_identities(
    spectrum: EnergySpectrum, beta_f: float, beta_h: float
) -> DerivativeReport:
    """Central finite differences (step FD_STEP) against the closed-form derivative identities.

    Checked at beta_f: d<H>/db = -var, dS/db = -b*var, d(mean-energy shift)/db
    = -var, and dW/db = ((beta_h - beta_f)/beta_h) * var.
    """
    if not 0 < beta_f < math.inf or not 0 < beta_h < math.inf:
        raise ParameterError("inverse temperatures must be positive and finite")
    if beta_f - FD_STEP <= 0:
        raise ParameterError("finite-difference step too large for this beta_f")
    tau_h = thermal_state(spectrum, beta_h)

    def mean(b):
        return _mean_energy(spectrum, b)

    def entropy(b):
        return state_moments(thermal_state(spectrum, b))[2]

    def work(b):
        # the beta_c-dependent constant drops out of the derivative
        d, _ = kl_divergence_and_variance(thermal_state(spectrum, b), tau_h)
        return -d / beta_h

    _, var, _ = state_moments(thermal_state(spectrum, beta_f))
    checks = [
        ("mean_energy", mean, -var),
        ("entropy", entropy, -beta_f * var),
        ("cold_energy_shift", mean, -var),
        ("extractable_work", work, (beta_h - beta_f) / beta_h * var),
    ]
    identities = []
    ok = True
    for name, f, analytic in checks:
        fd = (f(beta_f + FD_STEP) - f(beta_f - FD_STEP)) / (2.0 * FD_STEP)
        scale = max(abs(analytic), abs(var))  # variance sets the scale when the identity is 0
        rel = abs(fd - analytic) / scale if scale > 0 else abs(fd - analytic)
        identities.append(DerivativeIdentity(name, float(fd), float(analytic), float(rel)))
        ok = ok and rel <= 1e-6
    return DerivativeReport(tuple(identities), ok)


def quasi_static_instance(
    spectrum: EnergySpectrum, beta_c: float, beta_h: float, g: float, eps: float, copies: int = 1
) -> TransitionInstance:
    """Instance whose final cold state is thermal at beta_c - g."""
    if not math.inf > beta_c > beta_h > 0:
        raise ParameterError("need finite beta_c > beta_h > 0")
    beta_c, beta_h = float(beta_c), float(beta_h)  # a numpy scalar must not set the precision
    if not g > 0:  # NaN too: an input error, not a regime
        raise ParameterError(f"need g > 0, got g={g}")
    if not g < beta_c - beta_h:
        raise RegimeError(f"need 0 < g < beta_c - beta_h, got g={g}")
    return TransitionInstance(
        cold_initial=thermal_state(spectrum, beta_c),
        cold_final=thermal_state(spectrum, beta_c - float(g)),
        beta_h=beta_h,
        beta_c=beta_c,
        battery=BatterySpec(EnergySpectrum((0.0, 1.0)), 0, 1, eps),
        copies=copies,
    )


def _decreasing_steps(g_sequence: Sequence[float]) -> list:
    """The steps of a g-schedule as floats; they must decrease strictly toward 0."""
    g_list = [float(g) for g in g_sequence]
    if any(b >= a for a, b in zip(g_list, g_list[1:])):
        raise ParameterError("g_sequence must be strictly decreasing")
    return g_list


def macro_carnot_limit(
    spectrum: EnergySpectrum,
    beta_c: float,
    beta_h: float,
    g_sequence: Sequence[float],
    eps_of_g: Callable[[float], float] | None = None,
) -> Tuple[Tuple[float, float], ...]:
    """Order-1 efficiency along a quasi-static schedule; converges to Carnot.

    g values must decrease toward 0; eps_of_g is either None (perfect work)
    or a vanishing failure-probability family.
    """
    g_list = _decreasing_steps(g_sequence)
    out = []
    for g in g_list:
        eps = 0.0 if eps_of_g is None else float(eps_of_g(g))
        inst = quasi_static_instance(spectrum, beta_c, beta_h, g, eps)
        work = macro_work(inst)
        eta = efficiency_breakdown(inst, work).eta
        out.append((g, eta))
    return tuple(out)
