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
from dataclasses import dataclass, replace
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
from .thermo import EnergySpectrum, QubitBath, binary_entropy, thermal_state

#: Largest order at which g is sampled, by classify_regime and by the
#: endpoint-dichotomy check of infimum_location.
DICHOTOMY_GRID_MAX = 1e3

#: Orders at which classify_regime samples g for sign changes: 400 log-spaced
#: points over [1e-3, 1e3], less those near order 1, where the exact zero of g
#: is not a sign change.
SIGN_GRID = np.geomspace(1e-3, DICHOTOMY_GRID_MAX, 400)
SIGN_GRID = SIGN_GRID[(SIGN_GRID < 0.98) | (SIGN_GRID > 1.02)]
SIGN_GRID.flags.writeable = False
#: Index of the first SIGN_GRID order above 1: the bracket that ends there spans
#: the excluded seam, and every other bracket lies wholly below or above order 1.
_ABOVE_ONE = int(np.searchsorted(SIGN_GRID, 1.0))

#: Relative band factor for prediction-vs-numeric comparisons:
#: |relative difference| <= BAND_C * (g + eps + eps^kappa_bar / g).
#: Calibrated once on the reference instance E=15, T=(15,10), g=1e-5,
#: power family (c=1, k=1/2) -- measured utilization 0.22 (work) and
#: 0.33 (efficiency) of the band -- then frozen with ~3x headroom.
PREDICTION_BAND_C = 0.9


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
        if not (self.c < math.inf and self.k < math.inf):
            raise ParameterError("family parameters must be finite")

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
    if not math.inf > beta_c > beta_h > 0:
        raise ParameterError("need finite beta_c > beta_h > 0")


def _kernel_scalars(e_gap: float, beta_c: float, beta_h: float, form: str):
    """The order-free scalars of `_ln_k` in ``form``: c = beta_c E / 2, h = D E / 2
    (so that z = (a - 1) h) and the log of the form's prefactor."""
    c = beta_c * e_gap / 2.0
    if form == "gamma/gamma_inf":
        pre = math.log(beta_c - beta_h) + math.log(0.5 * e_gap)  # ln(D E / 2)
    elif form == "K/b'":
        pre = -math.log(2.0) - math.log1p(math.exp(-2.0 * c))
    else:
        pre = math.log(beta_c - beta_h) + 2.0 * math.log(e_gap)  # ln(D E^2)
        if form == "K":  # ln(D E^2 / (4 cosh c))
            pre = pre - math.log(2.0) - c - math.log1p(math.exp(-2.0 * c))
    return c, (beta_c - beta_h) * e_gap / 2.0, pre


def _ln_k(e_gap: float, beta_c: float, beta_h: float, a, form: str = "K"):
    """ln K at the orders a >= 0, where K = b_alpha / (a - 1), or in ``form`` "b'"
    ln b_alpha', "K/b'" ln(K / b_alpha') and "gamma/gamma_inf" ln(gamma / gamma(inf)).

    With D = beta_c - beta_h, c = beta_c E / 2, z = (a - 1) D E / 2 and
    s = c + z = beta_a E / 2, the qubit closed forms are

        K = D E^2 sinhc(z) / (4 cosh c cosh s),    b_alpha' = D E^2 / (4 cosh^2 s),

    and gamma(inf) = E / (1 + e^(2c)), with sinhc(z) = sinh(z) / z and
    sinhc(0) = 1, so K is finite at order 1; ln K and ln b_alpha' are -inf at
    infinite orders. ln(sinh|z| / cosh s) is taken as (|z| - |s|) +
    ln(1 - e^(-2|z|)) - ln(1 + e^(-2|s|)) with |z| - |s| = min(c, -c - 2 min(z, 0)),
    so the terms that grow like z cancel exactly. In the ratios the terms that
    grow like c cancel too, before any rounding:

        ln(K / b_alpha')        = -ln 2 - ln(1 + e^(-2c)) + max(2z, 0, -2s) + ln sinhc_2 + tail,
        ln(gamma / gamma(inf))  = ln a + min(2c, -2 min(z, 0)) + ln(D E / 2) + ln sinhc_2 - tail,

    with sinhc_2 = 2 e^(-|z|) sinhc(z) and tail = ln(1 + e^(-2|s|)); ln a and
    the min, which nearly cancel where gamma crosses gamma(inf), are added
    first. Each intermediate has one array that later steps overwrite in
    place, and every order sees its operations in one fixed order, as ln K =
    ((pre + (|z| - |s|)) + ln sinhc_2) - tail, so an array of orders gives each
    order the bits of a call on that order alone.
    """
    _check_qubit_params(e_gap, beta_c, beta_h)
    if (a < 0).any():
        raise ParameterError("order must be nonnegative")
    c, h, pre = _kernel_scalars(e_gap, beta_c, beta_h, form)
    z = np.subtract(a, 1.0)
    z *= h
    s = np.add(c, z)
    tail = np.multiply(-2.0, np.abs(s, out=s))  # s holds |c + z| from here on
    np.log1p(np.exp(tail, out=tail), out=tail)
    if form == "b'":
        return np.subtract(pre, np.multiply(2.0, np.add(s, tail, out=s), out=s), out=s)
    # 2 e^(-|z|) sinhc(z) = (1 - e^(-2|z|)) / |z|: exactly 2 for every |z| below
    # the smallest normal double, and 0 at infinite orders
    az = np.abs(z)
    sinhc_2 = np.multiply(-2.0, np.maximum(az, sys.float_info.min, out=az))
    np.divide(np.negative(np.expm1(sinhc_2, out=sinhc_2), out=sinhc_2), az, out=sinhc_2)
    if form == "K/b'":  # 2 max(z, 0, -s), -c - z being exactly -s
        out = np.maximum(np.maximum(z, 0.0), np.subtract(-c, z, out=z), out=z)
        np.add(pre, np.multiply(2.0, out, out=out), out=out)
        with np.errstate(divide="ignore", invalid="ignore"):  # -inf + inf at infinite orders
            return np.add(np.add(out, np.log(sinhc_2, out=sinhc_2), out=out), tail, out=out)
    m, n = (c, c) if form == "K" else (2.0 * c, 0.0)  # min(m, -n - 2 min(z, 0))
    out = np.multiply(2.0, np.minimum(z, 0.0, out=z), out=z)
    np.minimum(m, np.subtract(-n, out, out=out), out=out)
    if form == "gamma/gamma_inf":
        out += np.log(a)
    np.add(pre, out, out=out)
    with np.errstate(divide="ignore"):
        return np.subtract(np.add(out, np.log(sinhc_2, out=sinhc_2), out=out), tail, out=out)


def b_alpha(e_gap: float, beta_c: float, beta_h: float, alpha) -> np.ndarray | float:
    """Leading-order sensitivity of the order-alpha power sum to the quasi-static step.

    (a - 1) K(a) from the qubit kernel `_ln_k`, which keeps its digits for gaps
    from 1e-300 up past the underflow of the result and for orders near 1; the
    large-order limit at infinity. Zero exactly at alpha = 1, negative below,
    positive above.
    """
    return _shifted_k(e_gap, beta_c, beta_h, alpha, 1.0)


def _shifted_k(e_gap: float, beta_c: float, beta_h: float, alpha, shift: float):
    """(a - shift) K(a), and the large-order limit gamma(inf) at infinite orders:
    gamma at shift 0.0, b_alpha at shift 1.0."""
    a_in = np.asarray(alpha, dtype=float)
    a = np.atleast_1d(a_in)
    out = _ln_k(e_gap, beta_c, beta_h, a)
    inf = np.isinf(a)
    np.multiply(a - shift, np.exp(out, out=out), out=out, where=~inf)
    out[inf] = gamma_infinity(e_gap, beta_c, beta_h)
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
    out = np.exp(_ln_k(e_gap, beta_c, beta_h, np.atleast_1d(a_in), "b'"))
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
    to the large-order limit.
    """
    return _shifted_k(e_gap, beta_c, beta_h, alpha, 0.0)


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
        if any(not v >= 0 for _, v in self.samples):  # 0.0 is an underflow, not a fault
            raise NumericalInconsistencyError("gamma must be non-negative at every sampled order")


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
    ln_r = _ln_k(e_gap, beta_c, beta_h, a, "K/b'")
    am1 = a - 1.0
    # K/b_alpha' ~ e^(2z) / z passes the float range at large orders, and a(a - 1)
    # above ~1.34e154; where both do, the sign of a - K/b_alpha' decides (-inf at inf)
    with np.errstate(over="ignore", invalid="ignore"):
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

#: The sign patterns of g (the sign of gamma') that each case label allows:
#: (most sign changes below order 1, most above it, a SIGN_GRID index, the sign
#: g has there). The sign is checked only when the indicator is farther than
#: _CASE_BOUNDARY_TOL from 2, so never for CASE_EQ2.
_SIGN_PATTERNS = {
    # gamma rises through order 1 and falls after at most one downward crossing
    # (possibly beyond the sampled window)
    CASE_LT2: (0, 1, _ABOVE_ONE - 1, 1.0),
    # one downward crossing below order 1 (possibly below the window), none after
    CASE_GT2: (1, 0, _ABOVE_ONE, -1.0),
    CASE_EQ2: (0, 0, _ABOVE_ONE, 0.0),
}


def carnot_efficiency(beta_c: float, beta_h: float) -> float:
    """1 - beta_h/beta_c, the Carnot efficiency between the two baths."""
    return 1.0 - beta_h / beta_c


def quasistatic_efficiency(beta_c: float, beta_h: float, gamma_1: float, gamma_target: float) -> float:
    """1 / (1 + beta_h/(beta_c-beta_h) * gamma(1)/gamma(target)).

    `_regime` passes max(1, Omega) as ``gamma_1`` with a target of 1, which is
    the same ratio; dividing by 1 is exact.
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


def _regime(e_gap: float, beta_c: float, beta_h: float) -> RegimeClassification:
    """The Carnot verdict for a qubit cold bath, without the sign changes.

    Omega, the tanh indicator and its case label (the indicator's side of 2,
    or 2 itself), whether Carnot is attainable (Omega <= 1), and the
    quasi-static efficiency: Carnot when Omega <= 1 and the reduced value
    (1 + beta_h/(beta_c-beta_h) * Omega)^-1 otherwise. Every reader of the
    verdict in the package calls this.
    """
    om = omega_single(e_gap, beta_c, beta_h)
    ind = tanh_indicator(e_gap, beta_c, beta_h)
    return RegimeClassification(
        omega=float(om),
        tanh_indicator=float(ind),
        g_case=CASE_EQ2 if abs(ind - 2.0) <= 1e-12 else CASE_GT2 if ind > 2.0 else CASE_LT2,
        carnot_achievable=om <= 1.0,
        eta_quasistatic=float(quasistatic_efficiency(beta_c, beta_h, max(1.0, om), 1.0)),
    )


def _root(f, lo: float, hi: float, up: bool, hint) -> float:
    """The crossing of ``f`` on [lo, hi] by `_bisect_many`, ``hint`` a guess of it
    (None for none): the root lies above a point where f's sign (above 0 or
    not) is the one it has at lo, ``up``."""
    depth = _speculation_depth(2)  # the closed forms cost about what a qubit curve does
    return _bisect_many(lambda xs: ((f(xs) > 0) == up).tolist(), lo, hi, depth, hint)


def _ratio_at(a: float, c: float, h: float, pre: float, form: str) -> float:
    """F = ln a - ln(K / b_alpha') (``form`` "K/b'") or G = ln(gamma / gamma(inf))
    ("gamma/gamma_inf") at one order a > 0 from the form's `_kernel_scalars`
    c, h and pre: `_ln_k`'s operations in its order, on Python floats, so one
    order costs no numpy call."""
    z = (a - 1.0) * h
    tail = math.log1p(math.exp(-2.0 * abs(c + z)))
    az = max(abs(z), sys.float_info.min)
    sinhc_2 = -math.expm1(-2.0 * az) / az
    ln_sinhc_2 = math.log(sinhc_2) if sinhc_2 else -math.inf  # 0 only where |z| overflows
    if form == "K/b'":
        return math.log(a) - (pre + 2.0 * max(z, 0.0, -c - z) + ln_sinhc_2 + tail)
    return pre + (min(2.0 * c, -2.0 * min(z, 0.0)) + math.log(a)) + ln_sinhc_2 - tail


def _root_hint(e_gap: float, beta_c: float, beta_h: float, lo: float, hi: float,
               form: str = "K/b'") -> float | None:
    """A near-exact guess of where on (lo, hi) g crosses 0, or, with ``form``
    "gamma/gamma_inf", where gamma crosses gamma(inf); None where there is none.

    g = (a - 1)(a - K / b_alpha') vanishes off order 1 where
    F = ln a - ln(K / b_alpha') = ln a - ln sinhc z - ln cosh s + ln cosh c
    does, and gamma = gamma(inf) where G = ln(gamma / gamma(inf)) vanishes.
    Six Newton steps in ln a from the geometric middle of the bracket (a
    SIGN_GRID bracket, or nu's [1e-8, 1)) use the slopes
    dF/dln a = 1 - a h (coth z - 1/z + tanh s) and
    dG/dln a = 1 + a h (coth z - 1/z - tanh s), h = (beta_c - beta_h) E / 2,
    and read F or G from `_ratio_at`, so the guess lands near the predicate's
    own sign change: a median of 1 ulp from the root, and at most 36 ulps over
    3000 cells of the README ranges. Steps that overflow, take the log of 0 or
    end outside the bracket give None.
    """
    c, h, pre = _kernel_scalars(e_gap, beta_c, beta_h, form)
    a = math.sqrt(lo * hi)
    try:
        for _ in range(6):
            z = (a - 1.0) * h
            coth = z / 3.0 if abs(z) < 1e-4 else 1.0 / math.tanh(z) - 1.0 / z  # coth z - 1/z
            t = math.tanh(c + z)
            slope = 1.0 - a * h * (coth + t) if form == "K/b'" else 1.0 + a * h * (coth - t)
            a *= math.exp(-_ratio_at(a, c, h, pre, form) / slope)
    except (ArithmeticError, ValueError):  # an overflow, a zero slope, a log of 0
        return None
    return a if lo < a < hi else None


def _g_root(e_gap: float, beta_c: float, beta_h: float, orders, vals, i: int) -> float:
    """The sign change of g between orders[i] and orders[i + 1], ``vals`` the
    values of g at ``orders``."""
    lo, hi = orders[i:i + 2].tolist()
    return _root(lambda xs: g_function(e_gap, beta_c, beta_h, xs), lo, hi, bool(vals[i] > 0),
                 _root_hint(e_gap, beta_c, beta_h, lo, hi))


def classify_regime(e_gap: float, beta_c: float, beta_h: float) -> RegimeClassification:
    """The verdict of `_regime` with the sign changes of gamma's derivative.

    The brackets of SIGN_GRID over which g changes sign (one comparison of the
    signs, the bracket spanning the excluded seam at order 1 left out) are
    bisected down to adjacent floats. Their number below and above order 1,
    and the sign of g next to the seam, are checked against the case label's
    row of `_SIGN_PATTERNS`; an impossible pattern raises.
    """
    verdict = _regime(e_gap, beta_c, beta_h)
    vals = g_function(e_gap, beta_c, beta_h, SIGN_GRID)
    up = vals > 0
    cross = np.flatnonzero(up[:-1] != up[1:])
    cross = cross[cross != _ABOVE_ONE - 1]  # g's exact zero at order 1 is no sign change
    roots = [_g_root(e_gap, beta_c, beta_h, SIGN_GRID, vals, i) for i in cross.tolist()]
    below = np.count_nonzero(cross < _ABOVE_ONE)
    most_below, most_above, at, sign = _SIGN_PATTERNS[verdict.g_case]
    if not (below <= most_below and len(roots) - below <= most_above and (
            abs(verdict.tanh_indicator - 2.0) <= _CASE_BOUNDARY_TOL or np.sign(vals[at]) == sign)):
        raise NumericalInconsistencyError(
            f"sign pattern of the gamma derivative contradicts {verdict.g_case}: roots {roots}"
        )
    return replace(verdict, g_sign_changes=tuple(float(r) for r in roots))


def estimate_nu(e_gap: float, beta_c: float, beta_h: float) -> float:
    """Numerical lower threshold below which the endpoint identity can fail.

    For Omega > 1 this is the order where gamma crosses its large-order limit:
    below it the small endpoint wins the infimum even though the prediction
    says infinity. For Omega <= 1 the identity holds for every cutoff, so 0 is
    returned, as it is where gamma lies above its limit already at 1e-8 (read
    by `_ratio_at`). Reported, never asserted: only existence is guaranteed.
    """
    if _regime(e_gap, beta_c, beta_h).carnot_achievable:
        return 0.0

    form = "gamma/gamma_inf"  # ln(gamma(k) / gamma(inf)): no term of it grows with beta_c E

    def f(k):
        return _ln_k(e_gap, beta_c, beta_h, np.asarray(k, dtype=float), form)

    lo, hi = 1e-8, 1.0 - 1e-9
    if _ratio_at(lo, *_kernel_scalars(e_gap, beta_c, beta_h, form), form) > 0:
        return 0.0
    # the root lies above k while gamma(k) is not above its limit (nan is not)
    return _root(f, lo, hi, False, _root_hint(e_gap, beta_c, beta_h, lo, hi, form))


def infimum_location(e_gap: float, beta_c: float, beta_h: float, kappa_bar: float) -> Alpha:
    """Which endpoint of [kappa_bar, inf) attains the infimum of gamma.

    g has the sign of gamma', so gamma can have an interior minimum only where
    g turns from <= 0 to > 0. g is read once, at kappa_bar and at the SIGN_GRID
    orders above it; each bracket where it turns upward is bisected to its
    root, and gamma there lying below both endpoints by more than 1e-9 times
    the smaller endpoint, or 1e-9 where that endpoint is above 1, raises a
    dichotomy violation rather than being silently accepted. The endpoints are
    compared by `_ratio_at`'s ln(gamma(kappa_bar) / gamma(inf)), so g's is the
    one kernel pass of a call without an upward crossing.
    """
    if not 0.0 < kappa_bar < 1.0:
        raise ParameterError("cutoff must lie in (0, 1)")
    orders = np.concatenate(([kappa_bar], SIGN_GRID[SIGN_GRID > kappa_bar]))
    vals = g_function(e_gap, beta_c, beta_h, orders)
    up = vals > 0
    for i in np.flatnonzero(~up[:-1] & up[1:]).tolist():
        root = _g_root(e_gap, beta_c, beta_h, orders, vals, i)
        g_k, g_inf = gamma(e_gap, beta_c, beta_h, kappa_bar), gamma_infinity(e_gap, beta_c, beta_h)
        endpoint_min, dip = min(g_k, g_inf), gamma(e_gap, beta_c, beta_h, root)
        # the floor keeps the threshold above the rounding of a subnormal endpoint
        if dip < endpoint_min - 1e-9 * max(min(endpoint_min, 1.0), sys.float_info.min):
            raise DichotomyViolationError(
                f"interior minimum {dip} below both endpoints ({g_k}, {g_inf})",
                alpha=root,
                gap=endpoint_min - dip,
            )
    # ln(gamma(kappa_bar) / gamma(inf)), so endpoints that both underflow (as at
    # E = 900, T = (20, 1)) still compare
    form = "gamma/gamma_inf"
    ln_ratio = _ratio_at(kappa_bar, *_kernel_scalars(e_gap, beta_c, beta_h, form), form)
    return Alpha.of(kappa_bar) if ln_ratio <= 0.0 else Alpha.INFINITY


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
        if not math.inf > self.beta_c > self.beta_h > 0:
            raise ParameterError("need finite beta_c > beta_h > 0")
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
    verdict = _regime(e_gap, cfg.beta_c, cfg.beta_h)
    eps = cfg.family.eval(cfg.g)
    kb = cfg.kappa_bar
    if kb > 1.0:
        raise RegimeError("decay exponents above 1 do not extract near perfect work")

    g1 = gamma_one(e_gap, cfg.beta_c, cfg.beta_h)
    if verdict.carnot_achievable:
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
        omega=verdict.omega,
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
