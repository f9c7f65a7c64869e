"""Spectra, thermal states, entropies and Renyi divergences for energy-diagonal states.

Conventions used throughout the package:

- natural units with k_B = 1, so temperatures and inverse temperatures
  interconvert as beta = 1/T;
- natural logarithms everywhere (entropies in nats);
- every power p^a * q^(1-a) is evaluated as exp(a*ln p + (1-a)*ln q) with
  max-term subtraction, so Renyi orders from 1e-6 up to 1e6 stay in range.

All values are immutable after construction and all operations are pure
functions, safe to share across concurrent workers. The column power sums set
numpy's ufunc buffer size only inside an ``np.errstate()`` scope, which numpy
keeps per thread and per context and restores on exit, so a caller's settings
are the same after the call and no other worker sees the change. A
DiagonalState memoizes its logs against one Gibbs state, of the latest beta
asked for, in one slot (``DiagonalState.gibbs_logs``). Two workers that use
one state at different betas replace each other's slot, but each call still
returns the memo for its own beta, so a race only costs a recomputation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from .errors import CapacityError, DomainError, ParameterError

#: Finite Renyi orders closer than this to 1 are routed through the
#: relative-entropy branch plus a first-order term; the generic power-sum
#: formula degenerates to 0/0 there.
ALPHA_SEAM = 1e-6

#: Largest composite dimension compose() will materialize.
MAX_COMPOSITE_LEVELS = 2 ** 22

#: Tolerance on probability normalization everywhere.
NORMALIZATION_TOL = 1e-12

#: Most terms SupportLogs.log_power_sum evaluates at once for a column of
#: orders (256 KiB of doubles per buffer).
BLOCK_ELEMENTS = 2 ** 15

#: np.exp gives exactly +0.0 below this (exp(-745.14) is already 0.0,
#: exp(-745.13) the smallest subnormal), through a slow path that costs
#: about 20 times a normal result; the column power sums skip those lanes.
EXP_CUT = -746.0

#: Fewest lanes a row needs for the column path to shift it in a buffer of
#: one row. At numpy's default 8192-element ufunc buffer, ``x -= top`` over
#: rows of at most 4096 lanes copies the broadcast row maxima into a buffer
#: that spans rows; a row-sized buffer skips the copy, but costs a scope and
#: shorter inner loops. Blocks of 2**15 terms, numpy 2.4.6, scoped against
#: plain: 64 lanes 1.39x slower, 96 even, 128-160 0.76-0.89, 192 0.72-0.74,
#: 4096 0.49-0.51.
_ROW_BUFFER_MIN = 192

#: Fewest lanes over which numpy (2.4.6) sums a row pairwise. Over a last
#: axis of fewer lanes ``np.add.reduce`` adds them from the left,
#: t0 + t1 + t2 + ..., and the column path spells out that fold itself when
#: it holds such rows lanes first. numpy's threshold, not a tuning value.
_PAIRWISE_LANES = 8

#: The standard sampling grid of Renyi orders: 400 log-spaced points, none
#: within ALPHA_SEAM of 1. The solver and feasibility checks read it.
ALPHA_GRID_MIN = 1e-6
ALPHA_GRID_MAX = 1e6
ALPHA_GRID_POINTS = 400
ALPHA_GRID = np.geomspace(ALPHA_GRID_MIN, ALPHA_GRID_MAX, ALPHA_GRID_POINTS)
ALPHA_GRID.flags.writeable = False


def logsumexp(values, axis=None):
    """log(sum(exp(values))) with max-term subtraction; safe for -inf entries."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return -math.inf
    if axis is None:
        m = float(np.max(arr))
        if not math.isfinite(m):
            return m
        return m + math.log(float(np.sum(np.exp(arr - m))))
    m = np.max(arr, axis=axis, keepdims=True)
    finite = np.isfinite(m)
    # a slice whose max is +-inf or nan comes out as that max; its terms are
    # not shifted (exp would overflow on them), only zeroed
    if finite.all():
        x = arr - m
    else:
        x = np.subtract(arr, m, out=np.zeros(arr.shape), where=finite)
    np.exp(x, out=x)
    return np.log(np.sum(x, axis=axis)) + np.squeeze(m, axis=axis)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergySpectrum:
    """Finite list of energy eigenvalues of a diagonal Hamiltonian.

    Levels are stored sorted ascending; two spectra compare equal iff their
    sorted levels are float-identical (no tolerance, to prevent silent
    misalignment of probability vectors).
    """

    levels: Tuple[float, ...]

    def __post_init__(self):
        try:
            levels = tuple(float(e) for e in self.levels)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"levels must be real numbers: {exc}") from exc
        if len(levels) < 1:
            raise ParameterError("a spectrum needs at least one level")
        if not all(math.isfinite(e) for e in levels):
            raise ParameterError("all energy levels must be finite")
        object.__setattr__(self, "levels", tuple(sorted(levels)))

    @property
    def size(self) -> int:
        return len(self.levels)

    @cached_property
    def array(self) -> np.ndarray:
        """The levels as a read-only array, built once."""
        return _read_only(np.array(self.levels, dtype=float))

    def log_partition(self, beta: float) -> float:
        """ln Z(beta) = ln sum_i exp(-beta * E_i)."""
        if beta <= 0:
            raise ParameterError(f"beta must be positive, got {beta}")
        return float(logsumexp(-beta * self.array))


@dataclass(frozen=True)
class QubitBath:
    """A bath of n two-level systems with strictly positive gaps E_1..E_n."""

    gaps: Tuple[float, ...]

    def __post_init__(self):
        gaps = tuple(float(e) for e in self.gaps)
        if len(gaps) < 1:
            raise ParameterError("a qubit bath needs at least one qubit")
        if any((not math.isfinite(e)) or e <= 0 for e in gaps):
            raise ParameterError("every qubit gap must be finite and > 0")
        object.__setattr__(self, "gaps", gaps)

    @property
    def n(self) -> int:
        return len(self.gaps)

    def spectrum(self) -> EnergySpectrum:
        """The composed 2^n-level spectrum (all sums of one level per qubit)."""
        if 2 ** self.n > MAX_COMPOSITE_LEVELS:
            raise CapacityError(f"2^{self.n} levels exceed the composite cap")
        levels = np.zeros(1)
        for gap in self.gaps:
            levels = np.add.outer(levels, np.array([0.0, gap])).ravel()
        return EnergySpectrum(tuple(levels.tolist()))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class DiagonalState:
    """Probability vector aligned with an EnergySpectrum.

    ``array`` is the vector as a read-only ndarray, built once. ``gibbs_logs``
    keeps one memo, for the latest inverse temperature: the Gibbs state, the
    SupportLogs of (this state || that Gibbs state) and their power sums on
    ALPHA_GRID. It lives in the instance's ``__dict__``, next to the fields, so
    equality, hashing and repr see only ``probs`` and ``spectrum``.
    """

    probs: Tuple[float, ...]
    spectrum: EnergySpectrum

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)  # a copy the state owns
        if probs.ndim != 1 or probs.size != self.spectrum.size:
            raise ParameterError("probs must be a vector with one entry per level")
        if np.any(probs < 0) or not np.all(np.isfinite(probs)):
            raise ParameterError("probabilities must be finite and nonnegative")
        if abs(float(probs.sum()) - 1.0) > NORMALIZATION_TOL:
            raise ParameterError(f"probabilities sum to {probs.sum()!r}, not 1")
        object.__setattr__(self, "probs", tuple(probs.tolist()))
        self.__dict__["array"] = _read_only(probs)  # fills the cached_property below

    @cached_property
    def array(self) -> np.ndarray:
        """The probabilities as a read-only array, built once."""
        return _read_only(np.array(self.probs, dtype=float))

    @property
    def full_rank(self) -> bool:
        return min(self.probs) > 0.0

    _gibbs_memo = None  # not a field: the slot of gibbs_logs

    def gibbs_logs(self, beta: float, gibbs: "DiagonalState | None" = None) -> "GibbsLogs":
        """This state against the Gibbs state of its spectrum at ``beta``: the
        memo in the state's slot if it is for ``beta``, else a new one in its place.

        ``gibbs`` is that Gibbs state when the caller already holds it (it is
        then shared, not rebuilt); it is ignored while the slot's memo matches.
        """
        memo = self._gibbs_memo
        if memo is None or memo.beta != beta:
            if gibbs is None or gibbs is self:  # a memo never holds its own state
                gibbs = thermal_state(self.spectrum, beta)
            memo = GibbsLogs(beta, gibbs, SupportLogs.of(self.array, gibbs.array))
            self.__dict__["_gibbs_memo"] = memo
        return memo


@dataclass(frozen=True)
class Alpha:
    """Renyi order in [0, inf]; its value tells zero, one and infinity from a
    finite positive real."""

    value: float

    def __post_init__(self):
        x = float(self.value)
        if not x >= 0:
            raise ParameterError(f"Renyi order must be in [0, inf], got {x}")
        object.__setattr__(self, "value", x + 0.0)  # -0.0 is the order 0

    @classmethod
    def of(cls, x) -> "Alpha":
        """Coerce a float (or Alpha) to an order."""
        return x if isinstance(x, Alpha) else cls(x)

    @property
    def is_zero(self):
        return self.value == 0.0

    @property
    def is_one(self):
        return self.value == 1.0

    @property
    def is_infinity(self):
        return self.value == math.inf

    @property
    def is_finite(self):
        return not (self.is_zero or self.is_one or self.is_infinity)

    def __float__(self):
        return self.value

    def __repr__(self):
        name = {0.0: "ZERO", 1.0: "ONE", math.inf: "INFINITY"}.get(self.value)
        return f"Alpha.{name}" if name else f"Alpha({self.value!r})"


Alpha.ZERO = Alpha(0.0)
Alpha.ONE = Alpha(1.0)
Alpha.INFINITY = Alpha(math.inf)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def thermal_state(spectrum: EnergySpectrum, beta: float) -> DiagonalState:
    """Gibbs state exp(-beta*E_i)/Z on the given spectrum.

    The exponent is shifted by the smallest level so that beta*E up to a few
    hundred stays representable.
    """
    if not (isinstance(beta, (int, float)) and beta > 0):
        raise ParameterError(f"beta must be positive, got {beta!r}")
    return DiagonalState(_gibbs_probs(spectrum, beta), spectrum)


def _gibbs_probs(spectrum: EnergySpectrum, beta: float) -> np.ndarray:
    """The probabilities of ``thermal_state``, unchecked."""
    energies = spectrum.array
    w = np.exp(-float(beta) * (energies - energies.min()))
    return w / w.sum()


def state_moments(state: DiagonalState) -> Tuple[float, float, float]:
    """(mean energy, energy variance, Shannon/von Neumann entropy in nats)."""
    p = state.array
    e = state.spectrum.array
    mean = float(p @ e)
    var = float(p @ (e * e)) - mean * mean
    return mean, var, _entropy(p)


def _entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats of a probability array of any shape."""
    s = p[p > 0]
    return float(-np.sum(s * np.log(s)))


def binary_entropy(eps: float) -> float:
    """h2(eps) = -eps*ln(eps) - (1-eps)*ln(1-eps), with h2(0) = h2(1) = 0."""
    if not 0.0 <= eps <= 1.0:
        raise ParameterError(f"eps must lie in [0, 1], got {eps}")
    if eps in (0.0, 1.0):
        return 0.0
    return float(-eps * math.log(eps) - (1.0 - eps) * math.log1p(-eps))


def _check_pair(p: DiagonalState, q: DiagonalState):
    if p.spectrum != q.spectrum:
        raise ParameterError("states live on different spectra")
    if not q.full_rank:
        raise DomainError("reference state must have full rank")


class SupportLogs(NamedTuple):
    """A pair (p, q) restricted to the support of p, with the logs of both; every
    divergence of the pair is read from it. Building it never raises or warns:
    where q underflows on the support, lq holds -inf."""

    p: np.ndarray
    q: np.ndarray
    lp: np.ndarray
    lq: np.ndarray

    @classmethod
    def of(cls, p: np.ndarray, q: np.ndarray) -> "SupportLogs":
        s = p > 0
        with np.errstate(divide="ignore"):
            return cls(p[s], q[s], np.log(p[s]), np.log(q[s]))

    def d_zero(self) -> float:
        """-ln of the weight q puts on the support of p."""
        return float(-math.log(float(self.q.sum()))) + 0.0

    def d_one_and_variance(self) -> Tuple[float, float]:
        """D1(p||q) and the variance of the log-likelihood ratio under p."""
        x = self.lp - self.lq
        d1 = float(self.p @ x)
        return d1, float(self.p @ (x * x)) - d1 * d1

    def d_infinity(self) -> float:
        """ln max_i p_i / q_i."""
        return float(np.max(self.lp - self.lq))

    @classmethod
    def stack(cls, records) -> "SupportLogs | None":
        """The records as one stacked record, or None if their supports differ
        in size: each field holds one row per record, shaped (k, 1, m), and
        ``log_power_sum`` of a column gives the sums of every record at once."""
        same_size = len({r.lp.size for r in records}) == 1
        return cls(*(np.stack(field)[:, None] for field in zip(*records))) if same_size else None

    def log_power_sum(self, a):
        """ln sum exp(a*lp + (1-a)*lq) for one order, or per row for a column of
        orders; a stacked record (``stack``) gives one row of sums per record.

        A column is evaluated in row blocks of at most BLOCK_ELEMENTS terms,
        counting every record of a stack (a shorter column is one block), in
        buffers allocated once per call and reused block after block: freeing
        block-sized temporaries can make the allocator return the memory to the
        OS and fault it back in, which on 4096 levels cost more than the
        arithmetic. The buffers hold a support of _PAIRWISE_LANES lanes or more
        orders first, one row of lanes per order. A narrower one, a qubit's 2
        lanes say, they hold lanes first, one run of orders per lane (shaped
        lanes, stack, orders, 1): numpy reduces a short last axis one inner
        loop per row, so every pass then runs along the orders instead, and
        the row maxima and sums are folded over the lane slices. A block
        holding a row whose max is not finite goes through ``logsumexp``; any
        other is shifted by its row maxima (rows of at least _ROW_BUFFER_MIN
        lanes and at most half numpy's ufunc buffer size in a buffer of one
        row) and takes one of two ``exp`` paths: a plain ``exp`` when every
        shifted exponent is at or above EXP_CUT, else ``exp`` on those lanes
        only and 0.0 on the others (below the cut ``exp`` gives 0.0 through its
        slow underflow path). Every lane gets the value ``exp`` would give it
        and each row (one order, one record) is summed on its own, by
        ``np.add.reduce`` over its lanes or, under _PAIRWISE_LANES lanes, by the
        left fold that reduce uses there, so the values are those of the
        one-pass expression of each record, bit for bit.
        """
        if np.ndim(a) == 0:
            return logsumexp(self._exponents(a))
        lanes, lead = self.lp.shape[-1], self.lp.shape[:-2]
        rows = max(1, min(len(a), BLOCK_ELEMENTS // self.lp.size))
        logs, shape = self, lead + (rows, lanes)
        if lanes < _PAIRWISE_LANES:  # lanes first; lp and lq shaped (lanes, stack, 1, 1)
            shape = (lanes,) + lead + (rows, 1)
            logs = SupportLogs(self.p, self.q, *(f.T.reshape(shape[:-2] + (1, 1)) for f in (self.lp, self.lq)))
        x, term, keep = np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool)
        top = np.empty(lead + (rows, 1))
        sums = np.empty(lead + (len(a),))
        for i in range(0, len(a), rows):
            r = min(rows, len(a) - i)
            if r < rows:  # the last block is partial
                x, term, keep, top = (buf[..., :r, :] for buf in (x, term, keep, top))
            sums[..., i:i + r] = logs._block_sums(a[i:i + r], x, term, keep, top)
        return sums

    def _exponents(self, a, out=None, term=None):
        x = np.multiply(a, self.lp, out=out)
        x += np.multiply(1.0 - a, self.lq, out=term)
        return x

    def _block_sums(self, a, x, term, keep, top):
        """The column path's sums for the orders a (a column), computed in the
        buffers x and term (after the stack axis of a stacked record, a's rows
        by the lanes, or with the lanes first, ahead of those, and one lane
        last), keep (the same in bools) and top (the stack axis, a's rows and
        one lane); one sum per row."""
        self._exponents(a, x, term)
        lanes = x.shape[-1]  # 1 when the lanes come first
        lanes_first = lanes < _PAIRWISE_LANES
        if lanes_first:  # a running max over the lane slices (exact in any order)
            np.maximum(x[0], x[-1], out=top)
            for lane in x[1:-1]:
                np.maximum(top, lane, out=top)
        else:
            np.maximum.reduce(x, axis=-1, keepdims=True, out=top)
        if not np.isfinite(top).all():
            return logsumexp(np.moveaxis(x[..., 0], 0, -1) if lanes_first else x, axis=-1)
        if _ROW_BUFFER_MIN <= lanes <= np.getbufsize() // 2:
            with np.errstate():  # the caller's buffer size comes back on exit
                np.setbufsize(lanes - lanes % 16)
                x -= top
        else:
            x -= top
        np.greater_equal(x, EXP_CUT, out=keep)
        if np.count_nonzero(keep) == keep.size:  # cheaper than keep.all() on qubit blocks
            np.exp(x, out=term)
        else:
            term.fill(0.0)  # what exp gives the lanes below the cut
            np.exp(x, out=term, where=keep)
        if lanes_first:  # the left fold t0 + t1 + ..., numpy's order under _PAIRWISE_LANES
            total = term[0]
            for lane in term[1:]:
                total += lane
            return (np.log(total) + top)[..., 0]
        return np.log(np.add.reduce(term, axis=-1)) + top[..., 0]


class GibbsLogs:
    """A state's memo for the inverse temperature ``beta``
    (``DiagonalState.gibbs_logs``): the Gibbs state ``tau``, the SupportLogs of
    (state || tau), and, built on first use, their log power sums on ALPHA_GRID."""

    def __init__(self, beta: float, tau: DiagonalState, logs: SupportLogs):
        self.beta = beta
        self.tau = tau
        self.logs = logs

    @cached_property
    def grid_sums(self) -> np.ndarray:
        """ln sum p^a tau^(1-a) for every order a of ALPHA_GRID."""
        return _read_only(self.logs.log_power_sum(ALPHA_GRID[:, None]))


def kl_divergence_and_variance(p: DiagonalState, q: DiagonalState) -> Tuple[float, float]:
    """Relative entropy D1(p||q) and the variance of the log-likelihood ratio.

    The variance is the first-order coefficient of D_alpha around alpha = 1
    (divided by 2), used by the seam branch of renyi_divergence.
    """
    _check_pair(p, q)
    return SupportLogs.of(p.array, q.array).d_one_and_variance()


def renyi_divergence(p: DiagonalState, q: DiagonalState, alpha) -> float:
    """D_alpha(p||q) for energy-diagonal states sharing a spectrum.

    Branches:
      finite a != 1 : (1/(a-1)) * ln sum_{p_i>0} exp(a*ln p_i + (1-a)*ln q_i)
      a = 1         : sum_{p_i>0} p_i (ln p_i - ln q_i)
      a = 0         : -ln sum_{i: p_i != 0} q_i   (support projection)
      a = inf       : ln max_i p_i / q_i

    Finite orders within ALPHA_SEAM of 1 are evaluated as
    D1 + (a-1)*var/2 instead of through the generic formula.
    """
    a = Alpha.of(alpha)
    _check_pair(p, q)
    logs = SupportLogs.of(p.array, q.array)
    if a.is_zero:
        return logs.d_zero()
    if a.is_infinity:
        return logs.d_infinity()
    if a.is_one:
        return logs.d_one_and_variance()[0]
    v = a.value
    if abs(v - 1.0) <= ALPHA_SEAM:
        d1, var = logs.d_one_and_variance()
        return d1 + (v - 1.0) * var / 2.0
    return float(logs.log_power_sum(v)) / (v - 1.0)


def alpha_free_energy(rho: DiagonalState, tau_h: DiagonalState, alpha, beta_h: float) -> float:
    """Generalized free energy F_alpha = (D_alpha(rho||tau_h) - ln Z_h) / beta_h.

    tau_h must be the thermal state of rho's spectrum at beta_h; at alpha = 1
    this reduces to the Helmholtz form <H> - S/beta_h.
    """
    if not math.inf > beta_h > 0:
        raise ParameterError("beta_h must be positive and finite")
    if not np.max(np.abs(_gibbs_probs(rho.spectrum, beta_h) - tau_h.array)) <= 1e-9:
        raise ParameterError("tau_h is not the thermal state of rho's spectrum at beta_h")
    ln_z = rho.spectrum.log_partition(beta_h)
    return (renyi_divergence(rho, tau_h, alpha) - ln_z) / beta_h


def compose(parts: Sequence[Tuple[EnergySpectrum, DiagonalState]]) -> Tuple[EnergySpectrum, DiagonalState]:
    """Product spectrum and product distribution of several subsystems.

    Renyi divergences are additive under this composition. Raises
    CapacityError if the composite would exceed MAX_COMPOSITE_LEVELS.
    """
    parts = list(parts)
    if not parts:
        raise ParameterError("compose needs at least one part")
    total = 1
    for spec, state in parts:
        if state.spectrum != spec:
            raise ParameterError("state/spectrum pair mismatch in compose")
        total *= spec.size
        if total > MAX_COMPOSITE_LEVELS:
            raise CapacityError(f"composite with >{MAX_COMPOSITE_LEVELS} levels not supported")
    levels = np.zeros(1)
    probs = np.ones(1)
    for spec, state in parts:
        levels = np.add.outer(levels, spec.array).ravel()
        probs = np.multiply.outer(probs, state.array).ravel()
    order = np.argsort(levels, kind="stable")
    levels = levels[order]
    probs = probs[order]
    probs = probs / probs.sum()  # absorb float drift from long products
    spectrum = EnergySpectrum(tuple(levels))
    return spectrum, DiagonalState(tuple(probs), spectrum)
