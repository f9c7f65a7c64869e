"""Quasi-static nanoscale analysis for qubit cold baths.

Per-qubit work density gamma(alpha), the dimensionless criterion Omega that
decides whether Carnot efficiency is attainable, the sign analysis of the
derivative of gamma, failure-probability families eps(g) and their decay
exponent kappa_bar, the endpoint dichotomy of the work infimum, and the
predicted vs numerically solved quasi-static work and efficiency.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import (
    DichotomyViolationError,
    NumericalInconsistencyError,
    ParameterError,
    RegimeError,
)
from .macro import _decreasing_steps, efficiency_breakdown, quasi_static_instance
from .second_laws import Alpha, _bisect_many, _speculation_depth, max_extractable_work
from .thermo import BLOCK_ELEMENTS, EnergySpectrum, QubitBath, binary_entropy, thermal_state

#: gamma grid used by the endpoint-dichotomy check: 1e4 log-spaced points.
DICHOTOMY_GRID_POINTS = 10_000
DICHOTOMY_GRID_MAX = 1e3

#: Orders at which classify_regime samples g for sign changes: 400 log-spaced
#: points over [1e-3, 1e3], less those near order 1, where the exact zero of g
#: is not a sign change.
SIGN_GRID = np.geomspace(1e-3, DICHOTOMY_GRID_MAX, 400)
SIGN_GRID = SIGN_GRID[(SIGN_GRID < 0.98) | (SIGN_GRID > 1.02)]
SIGN_GRID.flags.writeable = False

#: Relative band factor for prediction-vs-numeric comparisons:
#: |relative difference| <= BAND_C * (g + eps + eps^kappa_bar / g).
#: Calibrated once on the reference instance E=15, T=(15,10), g=1e-5,
#: power family (c=1, k=1/2) -- measured utilization 0.22 (work) and
#: 0.33 (efficiency) of the band -- then frozen with ~3x headroom.
PREDICTION_BAND_C = 0.9

#: gamma evaluates an order array in blocks of this many orders (16 KiB of
#: doubles per temporary), so the 1e4-order dichotomy grid reuses the same
#: small buffers instead of faulting in fresh heap pages on every call.
GAMMA_BLOCK = BLOCK_ELEMENTS // 16


# ---------------------------------------------------------------------------
# failure-probability families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpsilonFamily:
    """How fast the failure probability vanishes with the quasi-static step g.

    kinds:
      exponential : eps(g) = exp(-1/g)           kappa_bar = 0, sigma = inf
      log_linear  : eps(g) = g * ln(1/g)         kappa_bar = 1, sigma = inf
      power       : eps(g) = c * g**(1/k)        kappa_bar = k, sigma = c
    """

    kind: str
    c: float = 1.0
    k: float = 0.5

    _KINDS = ("exponential", "log_linear", "power")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ParameterError(f"unknown family kind {self.kind!r}")
        if not (self.c > 0 and self.k > 0):
            raise ParameterError("family parameters must be positive")

    @classmethod
    def exponential(cls) -> "EpsilonFamily":
        return cls("exponential")

    @classmethod
    def log_linear(cls) -> "EpsilonFamily":
        return cls("log_linear")

    @classmethod
    def power(cls, c: float = 1.0, k: float = 0.5) -> "EpsilonFamily":
        return cls("power", c=c, k=k)

    @property
    def kappa_bar(self) -> float:
        return {"exponential": 0.0, "log_linear": 1.0, "power": self.k}[self.kind]

    @property
    def sigma(self) -> float:
        return {"exponential": math.inf, "log_linear": math.inf, "power": self.c}[self.kind]

    def log_eval(self, g: float) -> float:
        """ln eps(g), analytic; avoids underflow for very small g."""
        if not g > 0:
            raise ParameterError("g must be positive")
        if self.kind == "exponential":
            return -1.0 / g
        if self.kind == "log_linear":
            if g >= 1.0:
                raise ParameterError("log_linear family needs g < 1")
            return math.log(g) + math.log(math.log(1.0 / g))
        return math.log(self.c) + math.log(g) / self.k

    def eval(self, g: float) -> float:
        le = self.log_eval(g)
        if le >= 0.0:
            raise ParameterError(f"eps(g) = {math.exp(le)} is not a probability < 1")
        eps = math.exp(le)
        if eps == 0.0:
            raise ParameterError("eps(g) underflowed to zero; use a larger g")
        return eps


def epsilon_family_eval(family: EpsilonFamily, g: float) -> Tuple[float, float, float]:
    """(eps(g), analytic kappa_bar, analytic sigma) for the family."""
    return family.eval(g), family.kappa_bar, family.sigma


def estimate_kappa_bar(family: EpsilonFamily) -> float:
    """Numerical decay exponent from the slope of ln(eps) vs ln(g) over the decade below 1e-11.

    For eps ~ g**(1/k) the slope is 1/k, so the estimate is 1/slope. Diverging
    slopes (the exponential family) give an estimate near 0.
    """
    g_hi = 1e-11
    g_lo = g_hi / 10.0
    slope = (family.log_eval(g_hi) - family.log_eval(g_lo)) / (math.log(g_hi) - math.log(g_lo))
    return 1.0 / slope


# ---------------------------------------------------------------------------
# the per-qubit work density gamma(alpha) and its ingredients
# ---------------------------------------------------------------------------

def _check_qubit_params(e_gap: float, beta_c: float, beta_h: float):
    if not 0.0 < e_gap < math.inf:  # nan fails too
        raise ParameterError("qubit gap must be positive and finite")
    if not (beta_c > beta_h > 0):
        raise ParameterError("need beta_c > beta_h > 0")


def _ln_k(e_gap: float, beta_c: float, beta_h: float, a):
    """(ln K, ln b_alpha') at the orders a >= 0, where K = b_alpha / (a - 1).

    With D = beta_c - beta_h, c = beta_c E / 2, z = (a - 1) D E / 2 and
    s = c + z = beta_a E / 2, the qubit closed forms are

        K = D E^2 sinhc(z) / (4 cosh c cosh s),    b_alpha' = D E^2 / (4 cosh^2 s),

    with sinhc(z) = sinh(z) / z and sinhc(0) = 1, so K is finite at order 1;
    both logs are -inf at infinite orders. ln(sinh|z| / cosh s) is taken as
    (|z| - |s|) + ln(1 - e^(-2|z|)) - ln(1 + e^(-2|s|)) with |z| - |s| =
    min(c, -c - 2 min(z, 0)), so the terms that grow like z cancel exactly.
    """
    _check_qubit_params(e_gap, beta_c, beta_h)
    if (a < 0).any():
        raise ParameterError("order must be nonnegative")
    c = beta_c * e_gap / 2.0
    z = (a - 1.0) * ((beta_c - beta_h) * e_gap / 2.0)
    s = np.abs(c + z)
    tail = np.log1p(np.exp(-2.0 * s))
    # 2 e^(-|z|) sinhc(z) = (1 - e^(-2|z|)) / |z|: exactly 2 for every |z| below
    # the smallest normal double, and 0 at infinite orders
    az = np.maximum(np.abs(z), sys.float_info.min)
    sinhc_2 = -np.expm1(-2.0 * az) / az
    ln_de2 = math.log(beta_c - beta_h) + 2.0 * math.log(e_gap)
    ln_pre = ln_de2 - math.log(2.0) - c - math.log1p(math.exp(-2.0 * c))  # ln(D E^2 / (4 cosh c))
    with np.errstate(divide="ignore"):
        ln_k = ln_pre + np.minimum(c, -c - 2.0 * np.minimum(z, 0.0)) + np.log(sinhc_2) - tail
    return ln_k, ln_de2 - 2.0 * (s + tail)


def b_alpha(e_gap: float, beta_c: float, beta_h: float, alpha) -> np.ndarray | float:
    """Leading-order sensitivity of the order-alpha power sum to the quasi-static step.

    (a - 1) K(a) from the qubit kernel `_ln_k`, which keeps its digits for gaps
    from 1e-300 up past the underflow of the result and for orders near 1; the
    large-order limit at infinity. Zero exactly at alpha = 1, negative below,
    positive above.
    """
    a_in = np.asarray(alpha, dtype=float)
    a = np.atleast_1d(a_in)
    inf = np.isinf(a)
    out = np.full_like(a, gamma_infinity(e_gap, beta_c, beta_h))
    np.multiply(a - 1.0, np.exp(_ln_k(e_gap, beta_c, beta_h, a)[0]), out=out, where=~inf)
    return float(out[0]) if a_in.ndim == 0 else out


def b_alpha_generic(e_gap: float, beta_c: float, beta_h: float, alpha: float) -> float:
    """The same quantity from its defining weighted sum over the qubit levels.

    Independent route used to cross-check the closed form.
    """
    _check_qubit_params(e_gap, beta_c, beta_h)
    spec = EnergySpectrum((0.0, e_gap))
    p = thermal_state(spec, beta_c).array
    q = thermal_state(spec, beta_h).array
    mean = float(p @ spec.array)
    w = p ** alpha * q ** (1.0 - alpha)
    return float(np.sum(w * (mean - spec.array)) / np.sum(w))


def b_alpha_prime(e_gap: float, beta_c: float, beta_h: float, alpha) -> np.ndarray | float:
    """Derivative of b_alpha in the order, (beta_c - beta_h) times the energy
    variance at beta_a; strictly positive for beta_c > beta_h."""
    a_in = np.asarray(alpha, dtype=float)
    out = np.exp(_ln_k(e_gap, beta_c, beta_h, np.atleast_1d(a_in))[1])
    return float(out[0]) if a_in.ndim == 0 else out


def gamma_one(e_gap: float, beta_c: float, beta_h: float) -> float:
    """gamma at order 1: (beta_c-beta_h) * var of the qubit energy."""
    return gamma(e_gap, beta_c, beta_h, 1.0)


def gamma_infinity(e_gap: float, beta_c: float, beta_h: float) -> float:
    """Large-order limit of gamma: E / (1 + exp(beta_c * E))."""
    _check_qubit_params(e_gap, beta_c, beta_h)
    return e_gap * math.exp(-float(np.logaddexp(0.0, beta_c * e_gap)))


def gamma(e_gap: float, beta_c: float, beta_h: float, alpha) -> np.ndarray | float:
    """gamma(a) = a K(a) = a * b_alpha / (a - 1); positive for every order > 0.

    K is finite at order 1, so gamma(1) comes out of the formula; infinity maps
    to the large-order limit. The orders are evaluated in blocks of
    GAMMA_BLOCK, each written into one result array.
    """
    a_in = np.asarray(alpha, dtype=float)
    a = a_in.reshape(-1)
    out = np.empty_like(a)
    g_inf = gamma_infinity(e_gap, beta_c, beta_h)
    for lo in range(0, len(a), GAMMA_BLOCK):
        ab, ob = a[lo:lo + GAMMA_BLOCK], out[lo:lo + GAMMA_BLOCK]
        inf = np.isinf(ab)
        np.multiply(ab, np.exp(_ln_k(e_gap, beta_c, beta_h, ab)[0]), out=ob, where=~inf)
        ob[inf] = g_inf
    return float(out[0]) if a_in.ndim == 0 else out.reshape(a_in.shape)


@dataclass(frozen=True)
class GammaProfile:
    """gamma sampled over a grid, with its two closed-form endpoints."""

    e_gap: float
    beta_c: float
    beta_h: float
    gamma_1: float
    gamma_inf: float
    samples: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        if any(v <= 0 for _, v in self.samples):
            raise NumericalInconsistencyError("gamma must be positive at every sampled order")


def gamma_profile(e_gap: float, beta_c: float, beta_h: float) -> GammaProfile:
    """gamma at 241 log-spaced orders over [1e-3, 1e3]."""
    alphas = np.geomspace(1e-3, 1e3, 241)
    values = gamma(e_gap, beta_c, beta_h, alphas)
    return GammaProfile(
        e_gap=float(e_gap),
        beta_c=float(beta_c),
        beta_h=float(beta_h),
        gamma_1=gamma_one(e_gap, beta_c, beta_h),
        gamma_inf=gamma_infinity(e_gap, beta_c, beta_h),
        samples=tuple(zip((float(a) for a in alphas), (float(v) for v in values))),
    )


# ---------------------------------------------------------------------------
# Omega and the regime classification
# ---------------------------------------------------------------------------

def omega_single(e_gap: float, beta_c: float, beta_h: float) -> float:
    """E (beta_c - beta_h) / (1 + exp(-beta_c E)); Carnot attainable iff <= 1."""
    _check_qubit_params(e_gap, beta_c, beta_h)
    return e_gap * (beta_c - beta_h) * math.exp(-float(np.logaddexp(0.0, -beta_c * e_gap)))


def omega(bath: QubitBath, beta_c: float, beta_h: float) -> float:
    """Minimum of the single-gap criterion over the bath's qubits.

    The criterion is strictly increasing in the gap, so the minimum sits on
    the smallest gap; this is asserted rather than assumed.
    """
    values = [omega_single(e, beta_c, beta_h) for e in bath.gaps]
    result = min(values)
    at_min_gap = values[bath.gaps.index(min(bath.gaps))]
    if abs(result - at_min_gap) > 1e-12 * max(1.0, abs(result)):
        raise NumericalInconsistencyError("criterion minimum not at the smallest gap")
    return result


def tanh_indicator(e_gap: float, beta_c: float, beta_h: float) -> float:
    """E (beta_c - beta_h) tanh(beta_c E / 2); its position against 2 fixes the sign
    pattern of the derivative of gamma."""
    _check_qubit_params(e_gap, beta_c, beta_h)
    return e_gap * (beta_c - beta_h) * math.tanh(beta_c * e_gap / 2.0)


def g_function(e_gap: float, beta_c: float, beta_h: float, alpha) -> np.ndarray | float:
    """a(a-1) - b_alpha/b_alpha_prime, with b_alpha = (a-1)K; its sign is the sign
    of gamma's derivative, and it is 0 at order 1."""
    a_in = np.asarray(alpha, dtype=float)
    a = np.atleast_1d(a_in)
    ln_k, ln_b_prime = _ln_k(e_gap, beta_c, beta_h, a)
    am1 = a - 1.0
    # K/b_alpha' ~ e^(2z) / z passes the float range at large orders, and a(a - 1)
    # above ~1.34e154; where both do, the sign of a - K/b_alpha' decides (-inf at inf)
    with np.errstate(over="ignore", invalid="ignore"):
        ln_r = ln_k - ln_b_prime
        out = a * am1 - am1 * np.exp(ln_r)
    if not a.max(initial=0.0) <= 1e154:  # one test keeps the lane work off moderate orders
        big = np.isnan(out) & ~np.isnan(a)
        out[big] = np.where(ln_r[big] <= np.log(a[big]), np.inf, -np.inf)
    return float(out[0]) if a_in.ndim == 0 else out


#: Case labels for the sign pattern of the derivative of gamma.
CASE_GT2 = "CASE_GT2"
CASE_LT2 = "CASE_LT2"
CASE_EQ2 = "CASE_EQ2"

#: Indicator values closer than this to 2 are treated as the boundary case
#: when checking sign-pattern consistency (roots migrate into the order-1
#: seam as the indicator approaches 2).
_CASE_BOUNDARY_TOL = 1e-2


def case_label(indicator: float) -> str:
    """The sign-pattern case of a tanh indicator: its side of 2, or 2 itself."""
    if abs(indicator - 2.0) <= 1e-12:
        return CASE_EQ2
    return CASE_GT2 if indicator > 2.0 else CASE_LT2


def carnot_efficiency(beta_c: float, beta_h: float) -> float:
    """1 - beta_h/beta_c, the Carnot efficiency between the two baths."""
    return 1.0 - beta_h / beta_c


def quasistatic_efficiency(beta_c: float, beta_h: float, gamma_1: float, gamma_target: float = 1.0) -> float:
    """1 / (1 + beta_h/(beta_c-beta_h) * gamma(1)/gamma(target)).

    The classifier passes max(1, Omega) as ``gamma_1`` with the default target
    of 1, which is the same ratio; dividing by 1 is exact.
    """
    return 1.0 / (1.0 + beta_h / (beta_c - beta_h) * gamma_1 / gamma_target)


@dataclass(frozen=True)
class RegimeClassification:
    omega: float
    tanh_indicator: float
    g_case: str
    carnot_achievable: bool
    eta_quasistatic: float
    g_sign_changes: Tuple[float, ...] = ()


def classify_regime(e_gap: float, beta_c: float, beta_h: float) -> RegimeClassification:
    """Omega, the indicator-vs-2 case label, and the quasi-static efficiency.

    The quasi-static efficiency is Carnot when Omega <= 1 and the reduced
    value (1 + beta_h/(beta_c-beta_h) * Omega)^-1 otherwise. Sign changes of
    the derivative-sign function are located by bisection on [1e-3, 1e3]
    (excluding the removable zero at order 1) and checked against the case
    label; an impossible pattern raises.
    """
    om = omega_single(e_gap, beta_c, beta_h)
    ind = tanh_indicator(e_gap, beta_c, beta_h)
    case = case_label(ind)
    eta = quasistatic_efficiency(beta_c, beta_h, max(1.0, om))

    vals = g_function(e_gap, beta_c, beta_h, SIGN_GRID)
    grid, positive = SIGN_GRID.tolist(), (vals > 0).tolist()
    depth = _speculation_depth(2)  # the closed forms cost about what a qubit curve does
    roots = []
    for a, b, up, up_b in zip(grid[:-1], grid[1:], positive[:-1], positive[1:]):
        if a < 1.0 < b:
            continue  # bracket spanning the excluded seam
        if up != up_b:
            # the root lies above x while g(x) keeps the sign g has at a
            roots.append(_bisect_many(
                lambda xs: ((g_function(e_gap, beta_c, beta_h, xs) > 0) == up).tolist(), a, b, depth
            ))
    below = [r for r in roots if r < 1.0]
    above = [r for r in roots if r > 1.0]

    near_boundary = abs(ind - 2.0) <= _CASE_BOUNDARY_TOL
    consistent = True
    if case == CASE_LT2:
        # rises through order 1, falls after one downward crossing (possibly
        # beyond the sampled window)
        consistent = len(below) == 0 and len(above) <= 1
        if not near_boundary:
            consistent = consistent and float(vals[SIGN_GRID < 0.98][-1]) > 0
    elif case == CASE_GT2:
        # one downward crossing below order 1 (possibly below the window), none after
        consistent = len(below) <= 1 and len(above) == 0
        if not near_boundary:
            consistent = consistent and float(vals[SIGN_GRID > 1.02][0]) < 0
    else:
        consistent = len(below) == 0 and len(above) == 0
    if not consistent:
        raise NumericalInconsistencyError(
            f"sign pattern of the gamma derivative contradicts {case}: roots {roots}"
        )
    return RegimeClassification(
        omega=float(om),
        tanh_indicator=float(ind),
        g_case=case,
        carnot_achievable=om <= 1.0,
        eta_quasistatic=float(eta),
        g_sign_changes=tuple(float(r) for r in roots),
    )


def estimate_nu(e_gap: float, beta_c: float, beta_h: float) -> float:
    """Numerical lower threshold below which the endpoint identity can fail.

    For Omega > 1 this is the order where gamma crosses its large-order limit:
    below it the small endpoint wins the infimum even though the prediction
    says infinity. For Omega <= 1 the identity holds for every cutoff, so 0 is
    returned. Reported, never asserted: only existence is guaranteed.
    """
    if omega_single(e_gap, beta_c, beta_h) <= 1.0:
        return 0.0
    ginf = gamma_infinity(e_gap, beta_c, beta_h)

    def f(k):
        return gamma(e_gap, beta_c, beta_h, k) - ginf

    lo = 1e-8
    if f(lo) > 0:
        return 0.0
    # the root lies above k while gamma(k) is not above its limit (nan is not)
    return _bisect_many(lambda ks: (~(f(ks) > 0)).tolist(), lo, 1.0 - 1e-9, _speculation_depth(2))


def infimum_location(e_gap: float, beta_c: float, beta_h: float, kappa_bar: float) -> Alpha:
    """Which endpoint of [kappa_bar, inf) attains the infimum of gamma.

    A dense log grid (1e4 points up to 1e3) plus the analytic large-order
    endpoint; an interior sample strictly below both endpoints by more than
    1e-9 raises a dichotomy violation rather than being silently accepted.
    Every grid order is checked; gamma evaluates them in blocks of
    GAMMA_BLOCK, so the call's temporaries stay near 300 KB, not 1 MB.
    """
    if not 0.0 < kappa_bar < 1.0:
        raise ParameterError("cutoff must lie in (0, 1)")
    grid = np.geomspace(kappa_bar, DICHOTOMY_GRID_MAX, DICHOTOMY_GRID_POINTS)
    vals = gamma(e_gap, beta_c, beta_h, grid)
    g_k = float(vals[0])
    g_inf = gamma_infinity(e_gap, beta_c, beta_h)
    endpoint_min = min(g_k, g_inf)
    interior = float(np.min(vals[1:-1]))
    if interior < endpoint_min - 1e-9:
        i = int(np.argmin(vals[1:-1])) + 1
        raise DichotomyViolationError(
            f"interior minimum {interior} below both endpoints ({g_k}, {g_inf})",
            alpha=float(grid[i]),
            gap=endpoint_min - interior,
        )
    # in logs, so endpoints that both underflow (as at E = 900, T = (20, 1)) still compare
    ln_g_k = math.log(kappa_bar) + float(_ln_k(e_gap, beta_c, beta_h, np.array([kappa_bar]))[0][0])
    ln_g_inf = math.log(e_gap) - float(np.logaddexp(0.0, beta_c * e_gap))
    return Alpha.of(kappa_bar) if ln_g_k <= ln_g_inf else Alpha.INFINITY


# ---------------------------------------------------------------------------
# the quasi-static engine
# ---------------------------------------------------------------------------

def _qubit_step(e_gap: float, beta_c: float, beta_h: float, g: float, eps: float, copies: int):
    """The instance of `copies` qubits of gap e_gap at the quasi-static step g and
    failure probability eps, and its solve: every qubit solve of the package."""
    inst = quasi_static_instance(EnergySpectrum((0.0, e_gap)), beta_c, beta_h, g, eps, copies=copies)
    return inst, max_extractable_work(inst)


@dataclass(frozen=True)
class QuasiStaticConfig:
    """One quasi-static engine run on an identical-gap qubit bath."""

    bath: QubitBath
    beta_c: float
    beta_h: float
    g: float
    family: EpsilonFamily

    def __post_init__(self):
        if not (self.beta_c > self.beta_h > 0):
            raise ParameterError("need beta_c > beta_h > 0")
        if not (0 < self.g < self.beta_c - self.beta_h):
            raise ParameterError("need 0 < g < beta_c - beta_h")

    @property
    def kappa_bar(self) -> float:
        """The family's decay exponent. Exponents above 1 are allowed so the failing
        families can be demonstrated; the engine prediction itself requires [0, 1]."""
        return self.family.kappa_bar


@dataclass(frozen=True)
class QuasiStaticResult:
    w_ext_predicted: float
    w_ext_numeric: float
    eta_predicted: float
    eta_numeric: float
    argmin_alpha: Alpha
    omega: float
    band: float
    work_within_band: bool
    eta_within_band: bool


def _identical_gap(bath: QubitBath) -> float:
    if len(set(bath.gaps)) != 1:
        raise ParameterError("the quasi-static engine needs identical qubit gaps")
    return bath.gaps[0]


def prediction_band(cfg: QuasiStaticConfig) -> float:
    """Frozen relative error band |pred - numeric|/scale <= C*(g + eps + eps^kb/g)."""
    eps = cfg.family.eval(cfg.g)
    kb = cfg.kappa_bar
    sigma_hat = math.exp(kb * cfg.family.log_eval(cfg.g)) / cfg.g
    return PREDICTION_BAND_C * (cfg.g + eps + sigma_hat)


def quasistatic_engine(cfg: QuasiStaticConfig) -> QuasiStaticResult:
    """Predicted against numerically solved quasi-static work and efficiency.

    Predicted per-qubit work rate is gamma at the family's decay exponent when
    Omega <= 1 and the large-order limit otherwise; the predicted inverse
    efficiency is 1 + beta_h/(beta_c - beta_h) * gamma(1)/gamma(target). The
    numeric values run the full infimum solver on the per-qubit instance and
    the exact energy bookkeeping. Agreement is reported against the frozen
    error band (the remainder constants are not specified analytically).
    """
    e_gap = _identical_gap(cfg.bath)
    n = cfg.bath.n
    om = omega_single(e_gap, cfg.beta_c, cfg.beta_h)
    eps = cfg.family.eval(cfg.g)
    kb = cfg.kappa_bar
    if kb > 1.0:
        raise RegimeError("decay exponents above 1 do not extract near perfect work")

    g1 = gamma_one(e_gap, cfg.beta_c, cfg.beta_h)
    if om <= 1.0:
        gamma_target = gamma(e_gap, cfg.beta_c, cfg.beta_h, kb) if kb > 0 else 0.0
    else:
        gamma_target = gamma_infinity(e_gap, cfg.beta_c, cfg.beta_h)
    w_pred = cfg.g * n / cfg.beta_h * gamma_target
    eta_pred = (
        quasistatic_efficiency(cfg.beta_c, cfg.beta_h, g1, gamma_target) if gamma_target > 0 else 0.0
    )

    inst, solved = _qubit_step(e_gap, cfg.beta_c, cfg.beta_h, cfg.g, eps, n)
    eta_num = efficiency_breakdown(inst, solved.w_ext).eta

    band = prediction_band(cfg)
    scale = max(abs(w_pred), cfg.g * n / cfg.beta_h * g1)
    work_ok = abs(solved.w_ext - w_pred) <= band * scale
    eta_ok = abs(eta_num - eta_pred) <= band * max(eta_pred, 1e-6)
    return QuasiStaticResult(
        w_ext_predicted=float(w_pred),
        w_ext_numeric=float(solved.w_ext),
        eta_predicted=float(eta_pred),
        eta_numeric=float(eta_num),
        argmin_alpha=solved.argmin_alpha,
        omega=float(om),
        band=float(band),
        work_within_band=bool(work_ok),
        eta_within_band=bool(eta_ok),
    )


@dataclass(frozen=True)
class RatioPoint:
    g: float
    eps: float
    delta_s: float
    w_ext: float
    ratio: float
    eps_log_eps_over_g: float


def near_perfect_ratio(cfg: QuasiStaticConfig, g_sequence: Sequence[float]) -> Tuple[RatioPoint, ...]:
    """Battery entropy over numeric extracted work along a decreasing-g schedule.

    The ratio vanishes for decay exponents in [0, 1) (and at 1 when
    eps*ln(eps)/g vanishes, which is recorded per point); exponents above 1
    make it diverge, i.e. the family does not extract near perfect work.
    """
    g_list = _decreasing_steps(g_sequence)
    e_gap = _identical_gap(cfg.bath)
    out = []
    for g in g_list:
        eps = cfg.family.eval(g)
        w = _qubit_step(e_gap, cfg.beta_c, cfg.beta_h, g, eps, cfg.bath.n)[1].w_ext
        ds = binary_entropy(eps)
        out.append(
            RatioPoint(
                g=g,
                eps=eps,
                delta_s=ds,
                w_ext=float(w),
                ratio=float(ds / w),
                eps_log_eps_over_g=float(eps * math.log(eps) / g),
            )
        )
    return tuple(out)
