import math

import numpy as np
import pytest

from nanoheat import (
    Alpha,
    BatterySpec,
    EnergySpectrum,
    ParameterError,
    RegimeError,
    TransitionInstance,
    derivative_identities,
    efficiency_breakdown,
    macro_carnot_limit,
    macro_work,
    max_extractable_work,
    quasi_static_instance,
    state_moments,
    thermal_state,
    thermal_optimality_check,
    w_alpha,
)
from nanoheat.macro import find_beta_for_mean_shift

from conftest import make_rng

QUBIT = EnergySpectrum((0.0, 1.0))


def still_instance(eps):
    t = thermal_state(QUBIT, 1.0)
    return TransitionInstance(t, t, 0.5, 1.0, BatterySpec(EnergySpectrum((0.0, 1.0)), 0, 1, eps))


# --- macro_work --------------------------------------------------------------

def test_macro_work_trivial_and_frozen():
    assert macro_work(still_instance(0.0)) == pytest.approx(0.0, abs=1e-15)
    t = thermal_state(QUBIT, 1.0)
    inst = TransitionInstance(t, t, 1.0 - 1e-12, 1.0, BatterySpec(QUBIT, 0, 1, 0.01))
    assert macro_work(inst) == pytest.approx(0.05656720641903772, rel=1e-9)


def test_macro_work_equals_order_one_bound():
    rng = make_rng(20)
    for _ in range(20):
        beta_c = rng.uniform(0.5, 2.0)
        beta_h = rng.uniform(0.1, 0.8 * beta_c)
        g = rng.uniform(1e-4, 0.5 * (beta_c - beta_h))
        eps = rng.uniform(0.0, 0.3)
        inst = quasi_static_instance(QUBIT, beta_c, beta_h, g, eps)
        assert macro_work(inst) == pytest.approx(w_alpha(inst, Alpha.ONE), abs=1e-12)


def test_macro_dominates_nano_work():
    rng = make_rng(21)
    for _ in range(15):
        beta_c = rng.uniform(0.5, 2.0)
        beta_h = rng.uniform(0.1, 0.8 * beta_c)
        g = rng.uniform(1e-4, 0.5 * (beta_c - beta_h))
        eps = rng.uniform(1e-8, 0.3)
        inst = quasi_static_instance(QUBIT, beta_c, beta_h, g, eps)
        assert macro_work(inst) >= max_extractable_work(inst).w_ext - 1e-10


# --- efficiency_breakdown ----------------------------------------------------

def test_breakdown_identities():
    rng = make_rng(22)
    for _ in range(20):
        beta_c = rng.uniform(0.5, 2.0)
        beta_h = rng.uniform(0.1, 0.8 * beta_c)
        g = rng.uniform(1e-3, 0.5 * (beta_c - beta_h))
        eps = rng.uniform(0.0, 0.3)
        inst = quasi_static_instance(QUBIT, beta_c, beta_h, g, eps)
        w = macro_work(inst)
        b = efficiency_breakdown(inst, w)
        assert b.delta_h == pytest.approx(b.delta_c + b.delta_w, abs=1e-12)
        assert 1.0 / b.eta == pytest.approx(1.0 - eps + b.delta_c / w, abs=1e-10)


def test_breakdown_perfect_work_inverse_form():
    inst = quasi_static_instance(QUBIT, 1.0, 0.5, 0.05, 0.0)
    w = macro_work(inst)
    b = efficiency_breakdown(inst, w)
    assert 1.0 / b.eta == pytest.approx(1.0 + b.delta_c / w, abs=1e-12)


def test_breakdown_quasistatic_approaches_carnot():
    spec = EnergySpectrum((0.0, 15.0))
    inst = quasi_static_instance(spec, 0.1, 1 / 15, 1e-6, 0.0)
    b = efficiency_breakdown(inst, macro_work(inst))
    assert b.eta == pytest.approx(1 / 3, abs=1e-4)


@pytest.mark.parametrize("w_ext", [-1.0, math.nan, math.inf])
def test_breakdown_rejects_degenerate(w_ext):
    inst = quasi_static_instance(QUBIT, 1.0, 0.5, 0.05, 0.0)
    with pytest.raises(ParameterError):
        efficiency_breakdown(inst, w_ext)


# --- thermal optimality ------------------------------------------------------

def test_thermal_optimality_zero_target_is_trivial():
    rep = thermal_optimality_check(QUBIT, 1.0, 0.5, 0.0, trials=50, seed=1)
    assert rep.beta_prime == pytest.approx(1.0, abs=1e-12)
    assert rep.passed


def test_thermal_optimality_qubit():
    rep = thermal_optimality_check(QUBIT, 1.0, 0.5, 0.05, trials=1000, seed=2)
    assert rep.passed and rep.worst_excess <= 1e-9


def test_thermal_optimality_three_level():
    spec = EnergySpectrum((0.0, 1.0, 3.0))
    rep = thermal_optimality_check(spec, 1.0, 0.5, 0.05, trials=1000, seed=3)
    assert rep.passed


def test_thermal_optimality_unreachable_target():
    with pytest.raises(ParameterError):
        thermal_optimality_check(QUBIT, 1.0, 0.5, 10.0, trials=10)


@pytest.mark.parametrize(
    "target, beta_expected",
    [(0.0, 1.0), (0.07, None), ("reach", 0.5)],
    ids=["zero", "interior", "reach"],
)
def test_beta_bisection_hits_target(target, beta_expected):
    spec = EnergySpectrum((0.0, 1.0, 3.0))
    if target == "reach":  # the largest shift the bracket [beta_h, beta_c] allows
        target = state_moments(thermal_state(spec, 0.5))[0] - state_moments(
            thermal_state(spec, 1.0)
        )[0]
    beta_prime = find_beta_for_mean_shift(spec, 1.0, 0.5, target)
    got = state_moments(thermal_state(spec, beta_prime))[0] - state_moments(
        thermal_state(spec, 1.0)
    )[0]
    assert got == pytest.approx(target, abs=1e-12)
    if beta_expected is not None:
        assert beta_prime == pytest.approx(beta_expected, abs=1e-12)


def test_beta_bisection_rejects_a_nan_target():
    spec = EnergySpectrum((0.0, 1.0, 3.0))
    with pytest.raises(ParameterError):
        find_beta_for_mean_shift(spec, 1.0, 0.5, math.nan)
    with pytest.raises(ParameterError):  # not a failure of the trial states
        thermal_optimality_check(spec, 1.0, 0.5, math.nan, trials=5)


# --- derivative identities ---------------------------------------------------

def test_derivatives_qubit_at_log2():
    rep = derivative_identities(QUBIT, math.log(2), 0.4)
    mean_id = rep.identities[0]
    assert mean_id.analytic == pytest.approx(-2 / 9, abs=1e-15)
    assert rep.passed


def test_derivatives_vanish_at_equal_temperatures():
    rep = derivative_identities(QUBIT, 0.7, 0.7)
    work_id = rep.identities[-1]
    assert work_id.analytic == 0.0
    assert abs(work_id.finite_difference) < 1e-9
    assert rep.passed


def test_derivatives_random_four_level():
    rng = make_rng(23)
    for _ in range(10):
        levels = np.concatenate([[0.0], np.sort(rng.uniform(0.2, 4.0, 3))])
        rep = derivative_identities(EnergySpectrum(tuple(levels)), rng.uniform(0.4, 1.2), 0.3)
        assert rep.passed


# --- Carnot limit ------------------------------------------------------------

def test_carnot_limit_perfect_work():
    spec = EnergySpectrum((0.0, 15.0))
    (_, eta), = macro_carnot_limit(spec, 0.1, 1 / 15, [1e-6])
    assert eta == pytest.approx(1 / 3, abs=1e-4)


def test_carnot_limit_near_perfect_family():
    (_, eta), = macro_carnot_limit(QUBIT, 1.0, 0.5, [1e-6], lambda g: g * g)
    assert eta == pytest.approx(0.5, abs=1e-4)


def test_carnot_limit_monotone_in_g():
    pts = macro_carnot_limit(QUBIT, 1.0, 0.5, [1e-2, 1e-3, 1e-4])
    etas = [eta for _, eta in pts]
    assert etas[0] < etas[1] < etas[2]


def test_carnot_limit_out_of_regime():
    with pytest.raises(RegimeError):
        macro_carnot_limit(QUBIT, 1.0, 0.5, [0.6])


@pytest.mark.parametrize("g_list", [[1e-3, 1e-3], [1e-4, 1e-3]])
def test_carnot_limit_rejects_a_schedule_that_does_not_decrease(g_list):
    with pytest.raises(ParameterError):
        macro_carnot_limit(QUBIT, 1.0, 0.5, g_list)


def test_perfect_work_efficiency_below_carnot():
    # order-1 efficiency of thermal finals with eps = 0 never exceeds Carnot
    rng = make_rng(24)
    for _ in range(25):
        beta_c = rng.uniform(0.5, 2.0)
        beta_h = rng.uniform(0.1, 0.8 * beta_c)
        g = rng.uniform(1e-4, 0.9 * (beta_c - beta_h))
        inst = quasi_static_instance(QUBIT, beta_c, beta_h, g, 0.0)
        eta = efficiency_breakdown(inst, macro_work(inst)).eta
        assert eta <= 1.0 - beta_h / beta_c + 1e-12
