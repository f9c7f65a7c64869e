import math

import pytest

from nanoheat import (
    ParameterError,
    RegimeError,
    binary_entropy,
    plan_cycles,
    run_cycles,
)
from nanoheat.multicycle import convergence_schedule, first_n_below

E, BC, BH = 15.0, 0.1, 1 / 15  # Omega(15) < 1 at T = (15, 10)


@pytest.mark.parametrize("schedule", [(1_000, 1_000), (1_000, 100)])
def test_schedule_rejects_counts_that_do_not_increase(schedule):
    with pytest.raises(ParameterError):
        convergence_schedule(1.0, E, BC, BH, 0.5, schedule)


def test_plan_large_n_keeps_top_weight():
    ledger = plan_cycles(1.0, E, BC, BH, 0.5, 100_000)
    assert ledger.r >= 0.999
    assert ledger.eps == pytest.approx(ledger.g ** 2, rel=1e-12)


def test_plan_single_cycle_reduces_to_one_instance():
    ledger = plan_cycles(0.001, E, BC, BH, 0.5, 1)
    assert ledger.n_cycles == 1
    assert ledger.w_cyc == pytest.approx(ledger.w_target, rel=1e-12)
    assert ledger.battery_entropy == pytest.approx(binary_entropy(ledger.eps), rel=1e-12)
    assert ledger.r == pytest.approx(1.0 - ledger.eps, rel=1e-12)


def test_plan_rejects_wrong_regime_and_params():
    with pytest.raises(RegimeError):
        plan_cycles(1.0, 45.0, BC, BH, 0.5, 1000)  # Omega > 1
    with pytest.raises(ParameterError):
        plan_cycles(1.0, E, BC, BH, 1.5, 1000)
    with pytest.raises(ParameterError):
        plan_cycles(1.0, E, BC, BH, 0.5, 0)
    with pytest.raises(ParameterError):
        plan_cycles(math.nan, E, BC, BH, 0.5, 1000)
    with pytest.raises(ParameterError):
        plan_cycles(math.inf, E, BC, BH, 0.5, 1000)
    with pytest.raises(RegimeError):
        plan_cycles(1e6, E, BC, BH, 0.5, 10)  # step too large to be quasi-static


def test_doubling_cycles_halves_the_step():
    a = plan_cycles(1.0, E, BC, BH, 0.5, 1000)
    b = plan_cycles(1.0, E, BC, BH, 0.5, 2000)
    assert b.g == pytest.approx(a.g / 2.0, rel=1e-12)


def test_entropy_decreases_along_schedule():
    ledgers = [plan_cycles(1.0, E, BC, BH, 0.5, n) for n in (100, 1_000, 10_000, 100_000)]
    entropies = [l.battery_entropy for l in ledgers]
    assert all(b < a for a, b in zip(entropies, entropies[1:]))


def test_report_top_weight_first_order():
    ledger = plan_cycles(1.0, E, BC, BH, 0.5, 10_000)
    report = run_cycles(ledger)
    approx = ledger.n_cycles * ledger.eps
    assert report.top_weight_gap == pytest.approx(approx, rel=1e-3)


def test_ladder_weight_bookkeeping():
    ledger = plan_cycles(1.0, E, BC, BH, 0.5, 1_000)
    # weight r on the top rung plus the rest sums to one
    assert ledger.r + (1.0 - ledger.r) == pytest.approx(1.0, abs=1e-12)
    assert 0.0 < ledger.r <= 1.0


def test_schedule_monotone_convergence():
    results = convergence_schedule(1.0, E, BC, BH, 0.5)
    eta_gaps = [r.eta_gap for _, _, r in results]
    entropies = [r.battery_entropy for _, _, r in results]
    top_gaps = [r.top_weight_gap for _, _, r in results]
    work_gaps = [abs(r.work_gap) for _, _, r in results]
    assert all(b < a for a, b in zip(eta_gaps, eta_gaps[1:]))
    assert all(b < a for a, b in zip(entropies, entropies[1:]))
    assert all(b < a for a, b in zip(top_gaps, top_gaps[1:]))
    assert all(w <= 1e-12 for w in work_gaps)  # exact by construction of g


def test_first_n_below_reports_thresholds():
    found = first_n_below(1.0, E, BC, BH, 0.5, 1e-2)
    assert found["work_gap"] == 100
    assert found["battery_entropy"] == 100
    assert found["top_weight_gap"] == 100
    # the efficiency gap converges to the fixed-exponent limit ~0.12, so it
    # never dips below 1e-2 on any schedule; see the decisions notes
    assert found["eta_gap"] is None
    loose = first_n_below(1.0, E, BC, BH, 0.5, 0.13)
    assert loose["eta_gap"] == 100
