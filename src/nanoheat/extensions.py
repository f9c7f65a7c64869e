"""Correlated final states and general battery states.

Two robustness checks on the engine bounds: classical correlations between
the final cold bath, machine and battery can only cost work (an entropy-gap
penalty chi >= 0), and smearing the final battery state over junk levels
within trace distance eps of the target leaves the max-ratio work bound
unchanged whenever eps is below a threshold set by the ladder's top level.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import NumericalInconsistencyError, ParameterError, RegimeError
from .second_laws import BatterySpec, TransitionInstance
from .nano import _regime, carnot_efficiency
from .thermo import (
    DiagonalState,
    EnergySpectrum,
    _entropy,
    state_moments,
    thermal_state,
)

#: Tolerance on marginal preservation for correlated final states.
MARGINAL_TOL = 1e-12

#: Additive band on the efficiency bound checks at g = 1e-4, consistent with
#: the frozen remainder constants of the quasi-static engine.
ETA_BAND = 1e-2


def _marginals(t: np.ndarray) -> Tuple[np.ndarray, ...]:
    dims = range(t.ndim)
    return tuple(t.sum(axis=tuple(d for d in dims if d != i)) for i in dims)


def _product(margins: Sequence[np.ndarray]) -> np.ndarray:
    out = np.ones(())
    for m in margins:
        out = np.multiply.outer(out, m)
    return out


@dataclass(frozen=True)
class CorrelatedFinalState:
    """Mixture (1-k) * product-of-marginals + k * correlated part.

    ``no_corr`` must be the product of its own marginals and ``corr`` must
    share those marginals, so the mixture's marginals are preserved exactly:
    the machine comes back unchanged and the battery stays in its two-outcome
    final state. Tensors are indexed (cold, machine, battery).
    """

    k: float
    no_corr: np.ndarray
    corr: np.ndarray
    spectra: Tuple[EnergySpectrum, ...]

    def __post_init__(self):
        if not 0.0 <= self.k <= 1.0:
            raise ParameterError("mixing weight must lie in [0, 1]")
        no_corr = np.array(self.no_corr, dtype=float)  # own copy; frozen below
        corr = np.array(self.corr, dtype=float)
        dims = tuple(s.size for s in self.spectra)
        for name, t in (("no_corr", no_corr), ("corr", corr)):
            if t.shape != dims:
                raise ParameterError(f"{name} tensor shape {t.shape} != factor dims {dims}")
            if np.any(t < 0) or abs(t.sum() - 1.0) > MARGINAL_TOL:
                raise ParameterError(f"{name} is not a probability tensor")
        ref = _marginals(no_corr)
        if np.max(np.abs(no_corr - _product(ref))) > MARGINAL_TOL:
            raise ParameterError("no_corr must be the product of its own marginals")
        for got, want in zip(_marginals(corr), ref):
            if np.max(np.abs(got - want)) > MARGINAL_TOL:
                raise ParameterError("corr must preserve the marginals of no_corr")
        no_corr.setflags(write=False)
        corr.setflags(write=False)
        object.__setattr__(self, "no_corr", no_corr)
        object.__setattr__(self, "corr", corr)

    @property
    def mixture(self) -> np.ndarray:
        return (1.0 - self.k) * self.no_corr + self.k * self.corr


def chi(state: CorrelatedFinalState, eps: float, beta_h: float) -> float:
    """Entropy-gap work penalty of final correlations.

    chi = [S(product of marginals) - S(mixture)] / (beta_h * (1 - eps)),
    nonnegative by subadditivity, zero exactly when the mixture is a product.
    """
    if not 0.0 <= eps < 1.0:
        raise ParameterError("eps must lie in [0, 1)")
    if not 0 < beta_h < math.inf:
        raise ParameterError("beta_h must be positive and finite")
    return (_entropy(state.no_corr) - _entropy(state.mixture)) / (beta_h * (1.0 - eps))


def _ipf(target_margins: Sequence[np.ndarray], rng: np.random.Generator) -> np.ndarray:
    """Random joint tensor with the given strictly positive marginals.

    Iterative proportional fitting, at most 400 sweeps, from a random positive
    start; converges geometrically for positive tensors. The log-normal start
    keeps the fitted tensor's interaction structure (which fitting preserves
    exactly) well away from the product case for typical draws.
    """
    dims = tuple(m.size for m in target_margins)
    t = np.exp(rng.normal(0.0, 1.5, size=dims))
    t /= t.sum()
    for _ in range(400):
        for axis, target in enumerate(target_margins):
            current = t.sum(axis=tuple(d for d in range(t.ndim) if d != axis))
            shape = [1] * t.ndim
            shape[axis] = dims[axis]
            t = t * (target / current).reshape(shape)
        err = max(
            float(np.max(np.abs(got - want)))
            for got, want in zip(_marginals(t), target_margins)
        )
        if err < 1e-14:
            break
    t /= t.sum()
    return t


def sample_correlated_state(
    cold: DiagonalState,
    machine: DiagonalState,
    eps: float,
    k: float,
    rng: np.random.Generator,
) -> CorrelatedFinalState:
    """Random correlated final state with the prescribed marginals.

    The battery marginal is the two-outcome final state (weight eps on the
    start rung, 1-eps on the charged rung); battery level values are carried
    separately by the checks that need them.
    """
    battery_spec = EnergySpectrum((0.0, 1.0))
    margins = (cold.array, machine.array, np.array([eps, 1.0 - eps]))
    no_corr = _product(margins)
    corr = _ipf(margins, rng)
    for _ in range(50):  # keep genuinely correlated draws; near-product restarts
        if np.max(np.abs(corr - no_corr)) >= 1e-6:
            break
        corr = _ipf(margins, rng)
    return CorrelatedFinalState(
        k=k,
        no_corr=no_corr,
        corr=corr,
        spectra=(cold.spectrum, machine.spectrum, battery_spec),
    )


# ---------------------------------------------------------------------------
# max-ratio work bound for correlated final states
# ---------------------------------------------------------------------------

def w_infinity_correlated(
    state: CorrelatedFinalState,
    cold_initial: DiagonalState,
    machine: DiagonalState,
    beta_h: float,
) -> float:
    """Largest battery gap the max-ratio condition allows for this final state.

    The battery's partition function and start-level weight cancel between the
    two sides, leaving W = ln(M0 / Mk) / beta_h where M0 is the largest
    initial-state ratio over (cold, machine) and Mk the largest final ratio on
    the charged rung. The start-rung final ratios must not exceed M0, which is
    checked (it is independent of the gap).
    """
    tau_c = thermal_state(state.spectra[0], beta_h).array
    tau_m = thermal_state(state.spectra[1], beta_h).array
    denom = np.multiply.outer(tau_c, tau_m)
    m0 = float(np.max(np.multiply.outer(cold_initial.array, machine.array) / denom))
    mix = state.mixture
    m_start = float(np.max(mix[:, :, 0] / denom))
    m_charged = float(np.max(mix[:, :, 1] / denom))
    if m_start > m0 * (1.0 + 1e-12):
        raise RegimeError("start-rung condition already violated; no positive gap works")
    return math.log(m0 / m_charged) / beta_h


@dataclass(frozen=True)
class CorrelatedBoundReport:
    etas: Tuple[float, ...]
    eta_reduced: float
    eta_carnot: float
    k: float
    k_over_g: float
    k_vanishes_faster: bool
    all_below_reduced_band: bool
    all_below_carnot_margin: bool


def correlated_bound_check(
    e_gap: float,
    beta_c: float,
    beta_h: float,
    g: float,
    k_of_g: Callable[[float], float],
    samples: int,
    seed: int = 0,
) -> CorrelatedBoundReport:
    """Sampled correlated final states never beat the reduced efficiency.

    Runs in the Omega > 1 regime at failure probability g**2: for each sample
    the max-ratio work bound is solved for the correlated mixture and
    converted to an efficiency, which
    must stay below the reduced value plus the frozen band and below Carnot
    by a clear margin. Whether the correlation weight vanishes faster than
    the quasi-static step is reported (a necessary condition for approaching
    Carnot at all).
    """
    verdict = _regime(e_gap, beta_c, beta_h)
    if verdict.carnot_achievable:
        raise RegimeError("the correlated bound check targets the Omega > 1 regime")
    if not (0 < g < beta_c - beta_h):
        raise ParameterError("need 0 < g < beta_c - beta_h")
    if not (isinstance(samples, int) and samples >= 1):
        raise ParameterError("samples must be a positive integer")
    k = float(k_of_g(g))
    if not 0.0 <= k <= 1.0:
        raise ParameterError("correlation weight must lie in [0, 1]")
    eps = g * g
    ratio_here = k / g
    ratio_finer = float(k_of_g(g / 10.0)) / (g / 10.0)
    vanishes = ratio_finer < 0.99 * ratio_here if ratio_here > 0 else True

    cold_spec = EnergySpectrum((0.0, e_gap))
    cold_final = thermal_state(cold_spec, beta_c - g)
    cold_initial = thermal_state(cold_spec, beta_c)
    machine_spec = EnergySpectrum((0.0, 0.0))  # trivial two-level machine
    rng = np.random.default_rng(seed)
    d_cold = float(
        state_moments(cold_final)[0] - state_moments(cold_initial)[0]
    )
    eta_carnot = carnot_efficiency(beta_c, beta_h)
    etas = []
    for _ in range(samples):
        machine = DiagonalState(tuple(rng.dirichlet(np.ones(2))), machine_spec)
        state = sample_correlated_state(cold_final, machine, eps, k, rng)
        w = w_infinity_correlated(state, cold_initial, machine, beta_h)
        etas.append(w / (d_cold + (1.0 - eps) * w))
    etas_t = tuple(float(x) for x in etas)
    return CorrelatedBoundReport(
        etas=etas_t,
        eta_reduced=verdict.eta_quasistatic,
        eta_carnot=float(eta_carnot),
        k=k,
        k_over_g=float(ratio_here),
        k_vanishes_faster=bool(vanishes),
        all_below_reduced_band=all(e <= verdict.eta_quasistatic + ETA_BAND for e in etas_t),
        all_below_carnot_margin=all(e <= eta_carnot - 5e-2 for e in etas_t),
    )


# ---------------------------------------------------------------------------
# general final battery states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralBattery:
    """Battery whose failure weight is smeared over junk levels.

    The junk distribution lives on the battery ladder with zero weight on the
    charged target level, so the final state sits exactly at trace distance
    eps from the pure target.
    """

    base: BatterySpec
    junk: DiagonalState

    def __post_init__(self):
        if self.junk.spectrum != self.base.levels:
            raise ParameterError("junk must live on the battery ladder")
        if self.junk.probs[self.base.k_index] != 0.0:
            raise ParameterError("junk must carry no weight on the target level")


@dataclass(frozen=True)
class GeneralBatteryResult:
    w_inf_simple: float
    w_inf_general: float
    eps_hat: float
    junk_branch_active: bool


def eps_hat(beta_h: float, e_max: float, e_j: float) -> float:
    """Failure-probability threshold [1 + exp(beta_h (E_max - E_j))]^-1."""
    if not 0 < beta_h < math.inf:
        raise ParameterError("beta_h must be positive and finite")
    return float(math.exp(-np.logaddexp(0.0, beta_h * (e_max - e_j))))


def general_battery_pair(inst: TransitionInstance, gb: GeneralBattery) -> GeneralBatteryResult:
    """Max-ratio work bound under the two-outcome and the junk-smeared battery.

    Both bounds reduce to (D_inf drop - ln(1-eps)) / beta_h when the charged
    level dominates the final battery maximum; below the eps threshold that
    branch selection is guaranteed for every junk distribution and the two
    bounds are the same expression, hence equal bit for bit. Above it the
    maximizer can switch to a junk level, which is reported rather than
    asserted away.
    """
    eps = inst.battery.eps
    if eps <= 0:
        raise ParameterError("the comparison needs eps > 0")
    delta_inf = inst._dinf_drop
    w_simple = (delta_inf - math.log1p(-eps)) / inst.beta_h

    levels = gb.base.levels.array
    e_j = levels[gb.base.j_index]
    junk = gb.junk.array
    active = junk > 0
    junk_peak = float(np.max(np.log(junk[active]) + inst.beta_h * (levels[active] - e_j)))
    junk_branch = math.log(eps) + junk_peak > delta_inf
    w_general = math.nan if junk_branch else w_simple
    threshold = eps_hat(inst.beta_h, gb.base.e_max, e_j)
    if eps <= threshold and junk_branch and w_simple >= 0:
        raise NumericalInconsistencyError(
            "junk branch activated below the threshold; this contradicts the bound"
        )
    return GeneralBatteryResult(
        w_inf_simple=float(w_simple),
        w_inf_general=float(w_general),
        eps_hat=float(threshold),
        junk_branch_active=bool(junk_branch),
    )
