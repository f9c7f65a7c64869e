"""Feasibility of state transitions under the full family of generalized free
energies, and the maximum-extractable-work solver W_ext = inf over orders of W_alpha.

The battery is a two-outcome window of a quasi-continuum ladder: charged level
with weight 1-eps, starting level with weight eps. Its partition function is
never materialized; it cancels exactly in every work formula below.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Tuple

import numpy as np

from .errors import (
    ConstraintViolationError,
    NoConstraintError,
    ParameterError,
)
from .thermo import (
    ALPHA_GRID,
    ALPHA_GRID_MAX,
    ALPHA_GRID_MIN,
    ALPHA_GRID_POINTS,
    ALPHA_SEAM,
    Alpha,
    DiagonalState,
    EnergySpectrum,
    GibbsLogs,
    SupportLogs,
    _check_pair,
    _gibbs_probs,
    binary_entropy,
    logsumexp,
)

#: Width (in ln alpha) down to which the grid minimum is refined.
REFINE_WIDTH = 1e-8

#: Orders times levels per curve call in the refinement. Below it, a call costs
#: about the same for one order as for many (numpy overhead, not arithmetic),
#: so the refinement evaluates several of its steps at once.
SPECULATION_BUDGET = 128

#: Slack used when deciding that the grid tail actually sits on the
#: alpha -> infinity endpoint. The exact curve approaches its limit like
#: 1/alpha, so anything closer than ~10/alpha_max is indistinguishable
#: from the endpoint at the grid scale.
TAIL_REL_TOL = 10.0 / ALPHA_GRID_MAX

#: Brackets whose first bisection tree `_head_tree` keeps: ``nano``'s
#: searches start on SIGN_GRID's 397 brackets and on nu's one.
HEAD_TREES = 512

#: Feasibility tolerance: double precision log-domain sums leave ~1e-13
#: noise; one order of headroom.
FEASIBILITY_TOL = 1e-12

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_BIG = 1e300  # finite stand-in for inf: in the scalar minimizer, and as a floor for ln A


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatterySpec:
    """Work-storage window: two ladder levels and a failure probability."""

    levels: EnergySpectrum
    j_index: int
    k_index: int
    eps: float

    def __post_init__(self):
        n = self.levels.size
        if not (0 <= self.j_index < n and 0 <= self.k_index < n):
            raise ParameterError("battery level indices out of range")
        if self.levels.levels[self.k_index] <= self.levels.levels[self.j_index]:
            raise ParameterError("charged level must lie strictly above the start level")
        if not 0.0 <= self.eps < 1.0:
            raise ParameterError(f"eps must lie in [0, 1), got {self.eps}")

    @property
    def w_ext(self) -> float:
        """Energy gap of the window, i.e. the work stored on success."""
        return self.levels.levels[self.k_index] - self.levels.levels[self.j_index]

    @property
    def e_max(self) -> float:
        return self.levels.levels[-1]


@dataclass(frozen=True)
class TransitionInstance:
    """One work-extraction problem: cold bath start/end, temperatures, battery.

    ``copies`` treats the cold states as per-qubit marginals of that many
    identical, independently transformed copies; divergences are additive so
    the composite never has to be materialized.

    The hot Gibbs state q and the records of (p||q) and (p'||q) are the cold
    states' memos at beta_h (``DiagonalState.gibbs_logs``), sharing one q. The
    instance keeps that pair for every work formula and the grid power sums of
    a solve, even after the states' slots move to another beta; a check of the
    states at beta_h finds it while they do not. It also keeps the two records
    stacked (``SupportLogs.stack``), so that the power sums of both at the
    orders off the grid take one pass. The records never raise; the order-1
    terms raise DomainError if q underflows anywhere.
    """

    cold_initial: DiagonalState
    cold_final: DiagonalState
    beta_h: float
    beta_c: float
    battery: BatterySpec
    copies: int = 1

    def __post_init__(self):
        if not (math.inf > self.beta_c > self.beta_h > 0):
            raise ParameterError("need finite beta_c > beta_h > 0")
        for name in ("beta_h", "beta_c"):  # a numpy scalar must not set the precision
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.cold_final.spectrum != self.cold_initial.spectrum:
            raise ParameterError("initial and final cold states live on different spectra")
        if isinstance(self.copies, bool) or not (isinstance(self.copies, numbers.Integral) and self.copies >= 1):
            raise ParameterError("copies must be a positive integer")
        ref = _gibbs_probs(self.cold_initial.spectrum, self.beta_c)
        if not np.max(np.abs(ref - self.cold_initial.array)) <= 1e-12:
            raise ParameterError("cold_initial must be thermal at beta_c")

    @property
    def spectrum(self) -> EnergySpectrum:
        return self.cold_initial.spectrum

    @cached_property
    def _gibbs_logs(self) -> Tuple[GibbsLogs, GibbsLogs]:
        return _gibbs_pair(self.cold_initial, self.cold_final, self.beta_h)

    @cached_property
    def _stacked_logs(self) -> "SupportLogs | None":
        """(p||q) and (p'||q) stacked; None if a rank-deficient final state's
        support is smaller than the initial one's."""
        return SupportLogs.stack([h.logs for h in self._gibbs_logs])

    @property
    def _dinf_drop(self) -> float:
        initial, final = self._gibbs_logs
        return self.copies * (initial.logs.d_infinity() - final.logs.d_infinity())

    @property
    def _d1_drops(self) -> Tuple[float, float]:
        """The drops of D1 and of half the log-ratio variance, times copies."""
        _check_pair(self.cold_initial, self._gibbs_logs[0].tau)
        (d1p, vp), (d1pp, vpp) = (h.logs.d_one_and_variance() for h in self._gibbs_logs)
        return self.copies * (d1p - d1pp), self.copies * (vp - vpp) / 2.0


@dataclass(frozen=True)
class WorkCurve:
    """Sampled W_alpha values plus the tagged endpoint values."""

    samples: Tuple[Tuple[float, float], ...]
    w_zero_plus: float
    w_one: float
    w_infinity: float
    seam_alphas: Tuple[float, ...] = ()


@dataclass(frozen=True)
class WorkResult:
    w_ext: float
    argmin_alpha: Alpha
    curve: WorkCurve
    refinement_width: float


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    min_gap: float
    worst_alpha: Alpha
    violations: Tuple[Tuple[float, float], ...]


@dataclass(frozen=True)
class PerfectWorkCertificate:
    """Outcome of the zero-failure-probability impossibility check."""

    applicable: bool
    impossible: bool
    d0_gap: float
    reason: str


def _gibbs_pair(rho0: DiagonalState, rho1: DiagonalState, beta_h: float) -> Tuple[GibbsLogs, GibbsLogs]:
    """The memos of two states on one spectrum at beta_h; at most one Gibbs state is built."""
    first = rho0.gibbs_logs(beta_h)
    return first, rho1.gibbs_logs(beta_h, first.tau)


# ---------------------------------------------------------------------------
# W_alpha
# ---------------------------------------------------------------------------

def _log_a(inst: TransitionInstance, alphas: np.ndarray) -> np.ndarray:
    """ln A = copies * [ln sum p^a q^(1-a) - ln sum p'^a q^(1-a)] over a 1-D
    float array of orders; handed ALPHA_GRID itself, it reads the power sums
    the cold states memoize, and other orders take one pass over both states
    when their supports have equal size."""
    initial, final = inst._gibbs_logs
    if alphas is ALPHA_GRID:
        return inst.copies * (initial.grid_sums - final.grid_sums)
    a = alphas[:, None]
    if inst._stacked_logs is None:
        return inst.copies * (initial.logs.log_power_sum(a) - final.logs.log_power_sum(a))
    sums = inst._stacked_logs.log_power_sum(a)
    return inst.copies * (sums[0] - sums[1])


def _w_one(inst: TransitionInstance) -> float:
    eps = inst.battery.eps
    return (inst._d1_drops[0] + binary_entropy(eps)) / (inst.beta_h * (1.0 - eps))


def _w_one_slope(inst: TransitionInstance) -> float:
    """d W_alpha / d alpha at alpha = 1, from the second derivative of the
    numerator of the generic formula (first-order seam correction)."""
    delta, delta_slope = inst._d1_drops
    eps = inst.battery.eps
    if eps == 0.0:
        return delta_slope / inst.beta_h
    le = math.log(eps)
    a2 = 2.0 * delta_slope + delta * delta
    second = (a2 - eps * le * le) / (1.0 - eps) - ((delta - eps * le) / (1.0 - eps)) ** 2
    return second / (2.0 * inst.beta_h)


def _w_infinity(inst: TransitionInstance) -> float:
    eps = inst.battery.eps
    delta = inst._dinf_drop
    if eps > 0 and math.log(eps) > delta > -math.inf:
        # the failure branch of the battery dominates even at W = 0 (at
        # delta = -inf, A = 0 and the bound is -inf, as at finite orders)
        raise ConstraintViolationError(
            "order-infinity condition has no solution with the charged level on top"
        )
    return (delta - math.log1p(-eps)) / inst.beta_h


def work_curve_values(inst: TransitionInstance, alphas) -> np.ndarray:
    """Vectorized W_alpha over a 1-D array of finite positive orders.

    Entries where the order imposes no finite bound come back as +inf. Orders
    within ALPHA_SEAM of 1 take W_1 plus its first-order term. The formula's
    ufuncs write the bounded lanes into the +inf-filled result. Where no
    order lies on the seam or imposes no bound, they run with ``where=True``,
    numpy's unmasked loop, on every lane; otherwise a lane mask skips the
    others. Both give each lane the same arithmetic.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    if alphas.ndim != 1:
        raise ParameterError("grid orders must be a 1-D array")
    out = np.full(alphas.shape, math.inf)
    if not alphas.size:
        return out
    lo, hi = alphas.min(), alphas.max()  # nan if an order is
    if not (lo > 0.0 and hi < math.inf):
        raise ParameterError("grid orders must be finite and positive")
    eps = inst.battery.eps
    shift = alphas - 1.0
    seam = np.abs(shift) <= ALPHA_SEAM
    on_seam = np.count_nonzero(seam) > 0
    if on_seam:
        out[seam] = _w_one(inst) + shift[seam] * _w_one_slope(inst)
    ln_a = _log_a(inst, alphas)
    ln_eps = math.log(eps) if eps > 0.0 else -math.inf
    # ln(eps^a / A), taken as -inf where A = 0, so that the bound there is
    # ln A / (beta_h (a - 1)) for every eps; clipping ln A keeps the branch
    # np.where discards free of nan at eps = A = 0, so gap is never nan
    gap = np.where(ln_a > -math.inf, alphas * ln_eps - np.maximum(ln_a, -_BIG), -math.inf)
    ok = True  # every lane bounded, none on the seam
    if on_seam or gap.max() >= 0.0:
        ok = ~seam & (gap < 0)
        if (~(seam | ok) & (alphas >= 1.0)).any():
            raise ConstraintViolationError(
                "A - eps^alpha <= 0 at an order >= 1; not a valid engine instance"
            )
    # (ln A + ln(1 - eps^a / A) - a ln(1 - eps)) / (beta_h (a - 1)) on the
    # bounded lanes, in place in gap; the others keep out's value
    v = np.exp(gap, out=gap, where=ok)
    np.log1p(np.negative(v, out=v, where=ok), out=v, where=ok)
    np.add(ln_a, v, out=v, where=ok)
    np.subtract(v, alphas * math.log1p(-eps), out=v, where=ok)
    return np.divide(v, inst.beta_h * shift, out=out, where=ok)


def w_alpha(inst: TransitionInstance, alpha) -> float:
    """Work bound implied by the single generalized second law of the given order.

    Tagged orders: ZERO gives +inf for eps > 0 (the support condition imposes
    no finite bound) and 0 for eps = 0 (no perfect work); ONE is the
    relative-entropy branch; INFINITY uses the max-ratio divergences.

    Where A = 0 (the final cold state has weight on a level where the hot
    Gibbs state underflows), the bound is ln A / (beta_h (alpha - 1)) for every
    eps: -inf above order 1 and at INFINITY, +inf below order 1.
    """
    a = Alpha.of(alpha)
    if a.is_zero:
        return math.inf if inst.battery.eps > 0 else 0.0
    if a.is_one:
        return _w_one(inst)
    if a.is_infinity:
        return _w_infinity(inst)
    return float(work_curve_values(inst, np.array([a.value]))[0])


# ---------------------------------------------------------------------------
# the infimum solver
# ---------------------------------------------------------------------------

def _probe_tree(a: float, b: float, x1: float, x2: float, steps: int) -> list:
    """The points the next ``steps`` golden-section steps could probe from the
    bracket (a, b) with inner points x1 < x2, before the first of them knows
    which side it keeps, level by level: from each bracket still wider than
    REFINE_WIDTH, the point of the f1 <= f2 branch and that of the other.
    The arithmetic is that of the loop in ``_golden_section``."""
    points, level = [], [(a, b, x1, x2)]
    for _ in range(steps):
        brackets, level = level, []
        for a, b, x1, x2 in brackets:
            if b - a > REFINE_WIDTH:
                lx1 = x2 - _GOLDEN * (x2 - a)
                rx2 = x1 + _GOLDEN * (b - x1)
                points += (lx1, rx2)
                level += ((a, x2, lx1, x1), (x1, b, x2, rx2))
    return points


def _speculation_depth(levels: int) -> int:
    """Largest d >= 1 with (2**d - 1) * levels <= SPECULATION_BUDGET."""
    d = 1
    while (2 ** (d + 1) - 1) * levels <= SPECULATION_BUDGET:
        d += 1
    return d


def _golden_section(f_many, lo: float, hi: float, depth: int, max_iter: int = 200):
    """Golden-section minimization on [lo, hi] down to a bracket of REFINE_WIDTH;
    returns (x, f(x), final width).

    ``f_many`` maps a list of points to their values. Each call gets the point
    the loop needs now and every point the next ``depth - 1`` steps could probe
    after it, 2**depth - 1 in all (the first call: the starting pair, then the
    same tree). The loop reads its values from those, so it takes the same
    steps as with one point per call. A batch that raises
    ConstraintViolationError may owe it to a point the loop never reaches, so
    the point needed now is then evaluated alone: the search raises only where
    the one-point loop does.
    """
    known = {}

    def fetch(points):
        # not recursive: a closure that calls itself is a reference cycle that
        # would keep f_many, and with it the instance, alive until the next gc
        try:
            values = f_many(points)
        except ConstraintViolationError:
            if len(points) == 1:
                raise
            points = points[:1]  # the point the loop needs now
            values = f_many(points)
        known.update(zip(points, values))

    def look(x):
        # x was just placed by the step that left the bracket (a, b, x1, x2)
        if x not in known:
            fetch([x] + _probe_tree(a, b, x1, x2, min(depth - 1, max_iter - it - 1)))
        return known[x]

    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    it = 0
    if depth > 1:
        fetch([x1, x2] + _probe_tree(a, b, x1, x2, min(depth - 1, max_iter)))
    f1 = look(x1)
    f2 = look(x2)
    while b - a > REFINE_WIDTH and it < max_iter:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = look(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = look(x2)
        it += 1
    x = 0.5 * (a + b)
    return x, min(f1, f2), b - a


def _bisection_tree(lo: float, hi: float, steps: int) -> list:
    """The midpoint of (lo, hi) and every midpoint the next ``steps - 1 >= 0``
    bisection steps could probe after it: the upper half's subtree, then the
    lower half's. The arithmetic is that of the loop in ``_bisect_many``."""
    mid = 0.5 * (lo + hi)
    if not lo < mid < hi:
        return []
    if steps <= 1:
        return [mid]
    return [mid, *_bisection_tree(mid, hi, steps - 1), *_bisection_tree(lo, mid, steps - 1)]


@lru_cache(maxsize=HEAD_TREES)
def _head_tree(lo: float, hi: float, steps: int) -> tuple:
    """``_bisection_tree(lo, hi, steps)`` as a tuple, kept for the HEAD_TREES
    brackets asked for last."""
    return tuple(_bisection_tree(lo, hi, steps))


def _guided_points(lo: float, hi: float, depth: int, hint) -> list:
    """The midpoints the bisection of (lo, hi) probes past its first ``depth``
    steps if the root lies at ``hint``, that path's bracket ``depth`` steps
    before adjacent floats replaced by its whole tree; none unless the hint
    lies strictly inside the bracket, which can hold on the first call only: a
    later call is needed only once the loop has left the hint's side.
    """
    if hint is None or not lo < hint < hi:  # nan and the infinities fail
        return []
    path, mid = [], 0.5 * (lo + hi)
    while lo < mid < hi:
        path.append((lo, hi))
        if mid < hint:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    tail = max(len(path) - depth, depth)
    if tail >= len(path):
        return []
    return [0.5 * (a + b) for a, b in path[depth:tail]] + _bisection_tree(*path[tail], depth)


def _bisect_many(above_many, lo: float, hi: float, depth: int, hint=None) -> float:
    """Bisection on [lo, hi]; ``above_many(points)`` tells for each point
    whether the root lies above it.

    Halves the bracket until its midpoint is no longer strictly inside it,
    i.e. down to adjacent floats, and returns that midpoint. Each call of
    ``above_many`` gets the midpoint the loop needs now and every midpoint the
    next ``depth - 1`` steps could probe after it, 2**depth - 1 in all; the
    loop reads its answers from those, so it takes the same steps as with one
    point per call, whatever the predicate, and calls at most once every
    ``depth`` steps.

    A ``hint`` of the root adds to the first call the path the loop takes if
    the root lies there, and the whole tree of that path's last ``depth`` steps
    (``_guided_points``), so a hint near the root ends most searches in one
    call. It only advises: every step reads the predicate at its own midpoint,
    so the root is the one-point search's whatever it says, and a hint that is
    not finite or lies outside the bracket is ignored.

    With ``depth`` above 1 the first call's tree comes from ``_head_tree``, so
    searches that keep starting on the same brackets, as ``nano``'s do, build
    it once per bracket; later calls, and ``_bisect``'s, build theirs.
    """
    known = {}
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if mid not in known:
            tree = _head_tree(lo, hi, depth) if depth > 1 and not known else _bisection_tree(lo, hi, depth)
            points = [*tree, *_guided_points(lo, hi, depth, hint)]
            known.update(zip(points, above_many(points)))
        if known[mid]:
            lo = mid
        else:
            hi = mid


def _bisect(root_above, lo: float, hi: float) -> float:
    """``_bisect_many`` with a one-point predicate: one call of ``root_above(x)`` per step."""
    return _bisect_many(lambda points: [root_above(x) for x in points], lo, hi, 1)


def max_extractable_work(inst: TransitionInstance, alpha_min: float = ALPHA_GRID_MIN) -> WorkResult:
    """Infimum of W_alpha over all orders > 0.

    The curve is sampled on a log grid of 400 points over
    [alpha_min, 1e6] plus the tagged ONE and INFINITY endpoints, then the grid
    minimum is refined by golden-section search in ln(alpha) down to a bracket
    of width <= 1e-8. Each curve call of the refinement evaluates the orders of
    several steps; how many follows from the spectrum size. W_ext is at most
    every sampled value. ``alpha_min`` is an optional lower cutoff of the orders;
    no caller in the package sets it (tests and library callers do), and the
    default covers the whole positive axis. With the default, the grid is
    ALPHA_GRID and its power sums are the cold states' memos (see
    ``TransitionInstance``), shared with feasibility checks of those states.

    The reported argmin is INFINITY whenever the analytic infinite-order value
    is the smallest candidate, or when the refined minimum sits on the grid
    tail within the 1/alpha convergence slack of that value.
    """
    if inst.battery.eps <= 0:
        raise ParameterError(
            "the infimum solver needs eps > 0; eps = 0 is the no_perfect_work case"
        )
    if not (0 < alpha_min < ALPHA_GRID_MAX):
        raise ParameterError("alpha_min out of range")
    alphas = (
        ALPHA_GRID if alpha_min == ALPHA_GRID_MIN
        else np.geomspace(alpha_min, ALPHA_GRID_MAX, ALPHA_GRID_POINTS)
    )
    values = work_curve_values(inst, alphas)
    w_one = _w_one(inst)
    w_inf = _w_infinity(inst)
    seam = tuple(float(a) for a in alphas[np.abs(alphas - 1.0) <= ALPHA_SEAM])
    curve = WorkCurve(
        samples=tuple(zip(alphas.tolist(), values.tolist())),
        w_zero_plus=math.inf,
        w_one=w_one,
        w_infinity=w_inf,
        seam_alphas=seam,
    )
    if not np.any(np.isfinite(values)):
        raise NoConstraintError("every sampled order is unconstrained; degenerate instance")

    i = int(np.argmin(values))  # ties resolve toward smaller alpha
    lo = alphas[max(i - 1, 0)]
    hi = alphas[min(i + 1, len(alphas) - 1)]

    def f_many(us):
        ws = work_curve_values(inst, [math.exp(u) for u in us])
        return np.where(np.isfinite(ws), ws, _BIG).tolist()

    u_star, w_star, width = _golden_section(
        f_many, math.log(lo), math.log(hi), _speculation_depth(inst.spectrum.size)
    )
    alpha_star = math.exp(u_star)

    # assemble candidates; ties break toward the smaller order
    candidates = [
        (w_star, float(alpha_star), Alpha.of(alpha_star)),
        (w_one, 1.0, Alpha.ONE),
        (w_inf, math.inf, Alpha.INFINITY),
    ]
    candidates.sort(key=lambda c: (c[0], c[1]))
    w_ext, _, argmin = candidates[0]
    # the infimum lies at or below every sample, but the refinement can end
    # above the grid minimum it started from: on a noisy tail, or where that
    # minimum is the first grid order (alpha_min)
    if values[i] < w_ext:
        w_ext, argmin = float(values[i]), Alpha.of(alphas[i])

    # a refined minimum parked on the grid tail is the infinite-order endpoint
    # seen through the ~1/alpha tail of the exact curve, not a real interior min
    scale = max(1.0, abs(w_inf))
    if argmin.is_finite and alpha_star >= alphas[-3]:
        if abs(w_star - w_inf) <= TAIL_REL_TOL * scale:
            argmin = Alpha.INFINITY
    if abs(alpha_star - 1.0) <= ALPHA_SEAM and argmin.is_finite:
        argmin = Alpha.ONE
    return WorkResult(float(w_ext), argmin, curve, float(width))


# ---------------------------------------------------------------------------
# feasibility and the no-perfect-work certificate
# ---------------------------------------------------------------------------

def transition_feasible(rho0: DiagonalState, rho1: DiagonalState, beta_h: float) -> FeasibilityReport:
    """Check F_alpha(rho0) >= F_alpha(rho1) for every sampled order.

    The orders are ALPHA_GRID plus the tagged {0, 1, inf} points; the report
    lists every violating order and the worst (most negative) gap. The
    -ln Z / beta term is common to both sides and drops out. The hot Gibbs
    state, the support logs and the grid power sums of each state are its
    memo at beta_h (``DiagonalState.gibbs_logs``): a solve or an earlier
    check of the same state objects at beta_h, with no other beta in between,
    has built them, and only the tagged terms and the gaps are computed again.
    """
    if rho0.spectrum != rho1.spectrum:
        raise ParameterError("states live on different spectra")
    if not 0 < beta_h < math.inf:
        raise ParameterError("beta_h must be positive and finite")
    h0, h1 = _gibbs_pair(rho0, rho1, beta_h)
    _check_pair(rho0, h0.tau)
    r0, r1 = h0.logs, h1.logs

    # no grid order lies within ALPHA_SEAM of 1, so the generic formula holds
    alphas = ALPHA_GRID
    gaps = (h0.grid_sums / (alphas - 1.0) - h1.grid_sums / (alphas - 1.0)) / beta_h
    tagged = (
        (0.0, r0.d_zero() - r1.d_zero()),
        (1.0, r0.d_one_and_variance()[0] - r1.d_one_and_variance()[0]),
        (math.inf, r0.d_infinity() - r1.d_infinity()),
    )
    all_alphas = np.concatenate([alphas, [t for t, _ in tagged]])
    all_gaps = np.concatenate([gaps, [d / beta_h for _, d in tagged]])
    worst = int(np.argmin(all_gaps))
    bad = np.flatnonzero(all_gaps < -FEASIBILITY_TOL)
    violations = tuple(zip(all_alphas[bad].tolist(), all_gaps[bad].tolist()))
    return FeasibilityReport(
        feasible=len(violations) == 0,
        min_gap=float(all_gaps[worst]),
        worst_alpha=Alpha.of(all_alphas[worst]),
        violations=violations,
    )


def no_perfect_work(inst: TransitionInstance, w_requested: float | None = None) -> PerfectWorkCertificate:
    """Certificate that charging the battery with eps = 0 is impossible.

    The violated support condition is tr[(P0 - P1) tau_W] > 0, evaluated on
    the battery ladder at the hot temperature: the start level always carries
    more thermal weight than any strictly higher charged level, so W > 0
    demands a support change that no allowed transition can produce. The gap is
    tau(E_j) (1 - e^(-beta_h W)): 0.0 only where tau(E_j) underflows.
    """
    if inst.battery.eps != 0.0:
        raise ParameterError("the impossibility certificate applies to eps = 0 only")
    w = inst.battery.w_ext if w_requested is None else float(w_requested)
    if math.isnan(w):
        raise ParameterError("the requested work must be a number, got nan")
    if not inst.cold_initial.full_rank:
        return PerfectWorkCertificate(
            applicable=False,
            impossible=False,
            d0_gap=math.nan,
            reason="cold bath start is not full rank; the support argument does not apply",
        )
    if w <= 0.0:
        return PerfectWorkCertificate(
            applicable=True,
            impossible=False,
            d0_gap=0.0,
            reason="no work demanded; the transition is vacuously allowed",
        )
    levels = inst.battery.levels.array
    shifted = -inst.beta_h * (levels - levels.min())
    tau_j = math.exp(shifted[inst.battery.j_index] - logsumexp(shifted))
    return PerfectWorkCertificate(
        applicable=True,
        impossible=True,
        d0_gap=float(tau_j * -math.expm1(-inst.beta_h * w)),
        reason="support condition violated: the start level outweighs the charged level thermally",
    )
