"""N-cycle engine on a quasi-continuum battery ladder.

Each cycle charges the ladder by one rung with failure probability eps; after
N cycles the ladder state is (1-eps, eps)^(tensor N), regrouped as weight
r = (1-eps)^N on the top rung plus 1-r elsewhere. The cycles are aggregated
analytically; nothing is simulated per cycle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from .errors import ParameterError, RegimeError
from .macro import efficiency_breakdown, quasi_static_instance
from .nano import EpsilonFamily, _regime, carnot_efficiency, gamma
from .thermo import EnergySpectrum, binary_entropy

#: Default cycle-count schedule for convergence reports (desk-scale runtime).
DEFAULT_SCHEDULE = (100, 1_000, 10_000, 100_000)


@dataclass(frozen=True)
class CycleLedger:
    """Bookkeeping of an N-cycle run targeting total work w_target."""

    n_cycles: int
    w_target: float
    g: float
    eps: float
    w_cyc: float
    r: float
    battery_entropy: float
    eta: float
    e_gap: float
    beta_c: float
    beta_h: float
    kappa_bar: float


@dataclass(frozen=True)
class CycleReport:
    """Convergence gaps of the four corollary-level quantities."""

    eta_gap: float          # Carnot efficiency minus the per-cycle efficiency
    work_gap: float         # target work minus the charged ladder energy
    battery_entropy: float  # N * h2(eps)
    top_weight_gap: float   # 1 - (1-eps)^N


def plan_cycles(
    w_target: float,
    e_gap: float,
    beta_c: float,
    beta_h: float,
    kappa_bar: float,
    n_cycles: int,
) -> CycleLedger:
    """Choose the quasi-static step for n_cycles and populate the ledger.

    The step is g = beta_h * W / (gamma(kappa_bar) * N), which makes the
    leading-order per-cycle work exactly W/N; the failure probability comes
    from the power family at the chosen decay exponent. Only the
    Carnot-attainable regime (Omega <= 1) is supported.
    """
    if not 0 < w_target < math.inf:
        raise ParameterError("target work must be positive")
    if not (isinstance(n_cycles, int) and n_cycles >= 1):
        raise ParameterError("n_cycles must be a positive integer")
    if not 0.0 < kappa_bar < 1.0:
        raise ParameterError("decay exponent must lie in (0, 1)")
    if not _regime(e_gap, beta_c, beta_h).carnot_achievable:
        raise RegimeError("multi-cycle aggregation is stated for Omega <= 1 only")
    gamma_k = gamma(e_gap, beta_c, beta_h, kappa_bar)
    g = beta_h * w_target / (gamma_k * n_cycles)
    if g >= beta_c - beta_h:
        raise RegimeError(
            f"step g={g} is not quasi-static for these temperatures; increase n_cycles"
        )
    family = EpsilonFamily.power(1.0, kappa_bar)
    eps = family.eval(g)
    w_per_cycle = g * gamma_k / beta_h  # leading-order work of one cycle
    inst = quasi_static_instance(EnergySpectrum((0.0, e_gap)), beta_c, beta_h, g, eps)
    eta = efficiency_breakdown(inst, w_per_cycle).eta
    return CycleLedger(
        n_cycles=n_cycles,
        w_target=float(w_target),
        g=float(g),
        eps=float(eps),
        w_cyc=float(n_cycles * w_per_cycle),
        r=float((1.0 - eps) ** n_cycles),
        battery_entropy=float(n_cycles * binary_entropy(eps)),
        eta=float(eta),
        e_gap=float(e_gap),
        beta_c=float(beta_c),
        beta_h=float(beta_h),
        kappa_bar=float(kappa_bar),
    )


def run_cycles(ledger: CycleLedger) -> CycleReport:
    """Convergence gaps for the four corollary items of one planned run."""
    return CycleReport(
        eta_gap=float(carnot_efficiency(ledger.beta_c, ledger.beta_h) - ledger.eta),
        work_gap=float(ledger.w_target - ledger.w_cyc),
        battery_entropy=float(ledger.battery_entropy),
        top_weight_gap=float(1.0 - ledger.r),
    )


def convergence_schedule(
    w_target: float,
    e_gap: float,
    beta_c: float,
    beta_h: float,
    kappa_bar: float,
    schedule: Sequence[int] = DEFAULT_SCHEDULE,
) -> Tuple[Tuple[int, CycleLedger, CycleReport], ...]:
    """Ledgers and reports along an increasing cycle-count schedule."""
    counts = [int(n) for n in schedule]
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ParameterError("schedule must be strictly increasing")
    out = []
    for n in counts:
        ledger = plan_cycles(w_target, e_gap, beta_c, beta_h, kappa_bar, n)
        out.append((n, ledger, run_cycles(ledger)))
    return tuple(out)


def first_n_below(
    w_target: float,
    e_gap: float,
    beta_c: float,
    beta_h: float,
    kappa_bar: float,
    delta: float,
    schedule: Sequence[int] = DEFAULT_SCHEDULE,
) -> dict:
    """Smallest scheduled N at which each convergence gap falls below delta.

    Gaps that never get there on the schedule map to None; note the
    efficiency gap converges to the fixed-exponent limit, not to zero, so it
    only falls below delta when delta exceeds that limit.
    """
    results = convergence_schedule(w_target, e_gap, beta_c, beta_h, kappa_bar, schedule)
    names = ("eta_gap", "work_gap", "battery_entropy", "top_weight_gap")
    found = {name: None for name in names}
    for n, _, report in results:
        for name in names:
            if found[name] is None and abs(getattr(report, name)) < delta:
                found[name] = n
    return found
