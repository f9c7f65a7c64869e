import math
import warnings

import numpy as np
import pytest

from nanoheat import (
    EnergySpectrum,
    EpsilonFamily,
    ParameterError,
    QubitBath,
    QuasiStaticConfig,
    RegimeError,
    classify_regime,
    epsilon_family_eval,
    estimate_kappa_bar,
    estimate_nu,
    gamma,
    gamma_profile,
    infimum_location,
    near_perfect_ratio,
    omega,
    omega_single,
    quasistatic_engine,
    state_moments,
    tanh_indicator,
    thermal_state,
)
from nanoheat.nano import (
    CASE_EQ2,
    CASE_GT2,
    CASE_LT2,
    b_alpha,
    b_alpha_generic,
    b_alpha_prime,
    g_function,
    gamma_infinity,
    gamma_one,
)
from nanoheat.second_laws import _bisect

from conftest import make_rng

BC, BH = 0.1, 1 / 15  # T = (15, 10)


def random_params(rng):
    e = rng.uniform(0.5, 60.0)
    tc = rng.uniform(1.0, 25.0)
    th = tc * rng.uniform(1.05, 5.0)
    return e, 1.0 / tc, 1.0 / th


# --- b_alpha -----------------------------------------------------------------

def test_b_alpha_zero_at_order_one():
    assert b_alpha(1.0, 1.0, 0.5, 1.0) == 0.0
    assert b_alpha(45.0, BC, BH, 1.0) == 0.0


def test_b_alpha_matches_generic_sum():
    rng = make_rng(30)
    for _ in range(50):
        e, bc, bh = random_params(rng)
        a = rng.uniform(0.05, 20.0)
        closed = b_alpha(e, bc, bh, a)
        generic = b_alpha_generic(e, bc, bh, a)
        assert closed == pytest.approx(generic, rel=1e-12, abs=1e-12)


def test_b_alpha_large_order_limit():
    e, bc, bh = 1.0, 1.0, 0.5
    limit = e / (1.0 + math.exp(bc * e))
    assert b_alpha(e, bc, bh, 1e6) == pytest.approx(limit, abs=1e-9)
    assert b_alpha(e, bc, bh, math.inf) == pytest.approx(limit, rel=1e-15)


def test_b_alpha_prime_positive():
    rng = make_rng(31)
    for _ in range(30):
        e, bc, bh = random_params(rng)
        a = rng.uniform(1e-3, 50.0)
        analytic = b_alpha_prime(e, bc, bh, a)
        assert analytic > 0
        if analytic > 1e-10:  # the FD cannot resolve the deep exponential tails
            h = 1e-6 * max(1.0, a)
            fd = (b_alpha(e, bc, bh, a + h) - b_alpha(e, bc, bh, a - h)) / (2 * h)
            assert analytic == pytest.approx(fd, rel=5e-3)


# --- gamma -------------------------------------------------------------------

def test_gamma_frozen_endpoints():
    assert gamma_one(1.0, 1.0, 0.5) == pytest.approx(0.09830596662074093, abs=1e-15)
    assert gamma_infinity(1.0, 1.0, 0.5) == pytest.approx(0.2689414213699951, abs=1e-15)


def test_gamma_one_equals_variance_identity():
    rng = make_rng(32)
    for _ in range(30):
        e, bc, bh = random_params(rng)
        _, var, _ = state_moments(thermal_state(EnergySpectrum((0.0, e)), bc))
        assert gamma_one(e, bc, bh) == pytest.approx((bc - bh) * var, rel=1e-12)


def test_gamma_ratio_is_omega():
    rng = make_rng(33)
    for _ in range(1000):
        e, bc, bh = random_params(rng)
        ratio = gamma_one(e, bc, bh) / gamma_infinity(e, bc, bh)
        assert abs(ratio - omega_single(e, bc, bh)) <= 1e-12 * max(1.0, ratio)


def test_gamma_positive_on_profile():
    prof = gamma_profile(15.0, BC, BH)
    assert all(v > 0 for _, v in prof.samples)
    assert prof.gamma_1 / prof.gamma_inf == pytest.approx(omega_single(15.0, BC, BH), abs=1e-12)


def test_gamma_smooth_through_order_one():
    vals = gamma(15.0, BC, BH, np.array([1.0 - 1e-6, 1.0, 1.0 + 1e-6]))
    assert np.max(np.abs(vals - vals[1])) < 1e-5 * vals[1]


# --- omega and classification ------------------------------------------------

def test_omega_frozen_values():
    assert omega_single(15.0, BC, BH) == pytest.approx(0.4087872380968219, abs=1e-12)
    assert omega_single(45.0, BC, BH) == pytest.approx(1.4835195860541106, abs=1e-12)


def test_omega_vanishes_with_temperature_gap():
    assert omega_single(15.0, 0.1, 0.1 - 1e-12) < 1e-9


def test_omega_strictly_increasing_in_gap():
    es = np.linspace(0.5, 60, 40)
    vals = [omega_single(e, BC, BH) for e in es]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_omega_of_bath_is_min_over_gaps():
    bath = QubitBath((15.0, 45.0, 30.0))
    assert omega(bath, BC, BH) == pytest.approx(omega_single(15.0, BC, BH), rel=1e-15)


def test_classify_reduced_regime():
    cls = classify_regime(45.0, BC, BH)
    assert cls.tanh_indicator == pytest.approx(1.4670391721082205, abs=1e-12)
    assert cls.g_case == CASE_LT2
    assert cls.omega == pytest.approx(1.4835195860541106, abs=1e-12)
    assert not cls.carnot_achievable
    assert cls.eta_quasistatic == pytest.approx(0.2520771680377851, abs=1e-12)


def test_classify_steep_gap_case():
    cls = classify_regime(65.0, BC, BH)
    # direct evaluation gives 2.16016; above the threshold either way
    assert cls.tanh_indicator == pytest.approx(2.16016154355414, abs=1e-10)
    assert cls.g_case == CASE_GT2


def test_classify_carnot_regime():
    cls = classify_regime(15.0, BC, BH)
    assert cls.omega <= 1.0
    assert cls.carnot_achievable
    assert cls.eta_quasistatic == pytest.approx(1 / 3, abs=1e-12)


def test_classify_at_indicator_two():
    e = _bisect(lambda x: tanh_indicator(x, BC, BH) < 2.0, 50.0, 70.0)
    assert e == pytest.approx(60.2897, abs=1e-4)
    cls = classify_regime(e, BC, BH)
    assert cls.g_case == CASE_EQ2
    assert cls.g_sign_changes == ()


def test_g_function_order_one_is_zero_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert g_function(45.0, BC, BH, 1.0) == 0.0
        values = g_function(45.0, BC, BH, np.array([0.5, 1.0, 2.0]))
    assert values[1] == 0.0 and np.all(np.isfinite(values))


def test_classify_sign_pattern_consistency_random():
    rng = make_rng(34)
    for _ in range(1000):
        e, bc, bh = random_params(rng)
        classify_regime(e, bc, bh)  # raises on an impossible sign pattern


# --- epsilon families --------------------------------------------------------

def test_family_exponential():
    eps, kb, sigma = epsilon_family_eval(EpsilonFamily.exponential(), 0.01)
    assert eps == pytest.approx(math.exp(-100.0), rel=1e-12)
    assert kb == 0.0 and sigma == math.inf


def test_family_power_frozen():
    eps, kb, sigma = epsilon_family_eval(EpsilonFamily.power(0.3, 0.5), 1e-4)
    assert eps == pytest.approx(0.3e-8, rel=1e-12)
    assert kb == 0.5 and sigma == 0.3


def test_family_log_linear_frozen():
    eps, kb, sigma = epsilon_family_eval(EpsilonFamily.log_linear(), 1e-3)
    assert eps == pytest.approx(6.907755278982137e-3, rel=1e-12)
    assert kb == 1.0 and sigma == math.inf


def test_family_range_errors():
    with pytest.raises(ParameterError):
        EpsilonFamily.power(2.0, 1.0).eval(0.9)  # eps >= 1
    with pytest.raises(ParameterError):
        EpsilonFamily.exponential().eval(1e-3)  # underflow to 0
    for c, k in ((math.nan, 0.5), (1.0, math.nan)):
        with pytest.raises(ParameterError):
            EpsilonFamily.power(c, k)
    for family in (EpsilonFamily.exponential(), EpsilonFamily.log_linear(), EpsilonFamily.power()):
        with pytest.raises(ParameterError):
            family.eval(math.nan)


def test_kappa_estimator_within_band():
    for family in (
        EpsilonFamily.exponential(),
        EpsilonFamily.log_linear(),
        EpsilonFamily.power(1.0, 0.5),
        EpsilonFamily.power(0.3, 0.9),
    ):
        est = estimate_kappa_bar(family)
        assert abs(est - family.kappa_bar) < 0.05


# --- infimum dichotomy -------------------------------------------------------

def test_infimum_location_examples():
    assert infimum_location(15.0, BC, BH, 0.9).is_finite
    assert float(infimum_location(15.0, BC, BH, 0.9)) == pytest.approx(0.9)
    assert infimum_location(45.0, BC, BH, 0.9).is_infinity


def test_infimum_location_continuity_toward_order_one():
    loc = infimum_location(15.0, BC, BH, 0.999)
    assert loc.is_finite
    assert gamma(15.0, BC, BH, 0.999) == pytest.approx(gamma_one(15.0, BC, BH), rel=1e-3)


def test_infimum_location_validates_cutoff():
    with pytest.raises(ParameterError):
        infimum_location(15.0, BC, BH, 1.5)


def test_nu_estimate_behaviour():
    assert estimate_nu(15.0, BC, BH) == 0.0  # identity holds for every cutoff
    nu45 = estimate_nu(45.0, BC, BH)
    assert 0.0 < nu45 < 0.8
    # just above the threshold the identity fails below nu and holds above
    assert infimum_location(45.0, BC, BH, nu45 + 0.01).is_infinity
    assert not infimum_location(45.0, BC, BH, max(nu45 - 0.05, 1e-3)).is_infinity


# --- the quasi-static engine -------------------------------------------------

def test_engine_reduced_regime_matches_formula():
    cfg = QuasiStaticConfig(QubitBath((45.0,)), BC, BH, 1e-5, EpsilonFamily.power(1.0, 0.5))
    res = quasistatic_engine(cfg)
    assert res.eta_numeric == pytest.approx(0.2520771680377851, abs=1e-3)
    assert res.argmin_alpha.is_infinity
    assert res.work_within_band and res.eta_within_band


def test_engine_carnot_regime_within_band():
    # the exact infimum carries a slowly vanishing correction above the
    # leading-order prediction; agreement is asserted against the frozen band
    cfg = QuasiStaticConfig(QubitBath((15.0,)), BC, BH, 1e-5, EpsilonFamily.power(1.0, 0.5))
    res = quasistatic_engine(cfg)
    assert res.w_ext_numeric > res.w_ext_predicted
    assert res.work_within_band and res.eta_within_band
    assert res.eta_numeric <= 1 / 3  # never above Carnot here


def test_engine_additivity_across_copies():
    cfg1 = QuasiStaticConfig(QubitBath((45.0,)), BC, BH, 1e-5, EpsilonFamily.power(1.0, 0.5))
    cfg3 = QuasiStaticConfig(QubitBath((45.0,) * 3), BC, BH, 1e-5, EpsilonFamily.power(1.0, 0.5))
    r1, r3 = quasistatic_engine(cfg1), quasistatic_engine(cfg3)
    assert r3.w_ext_numeric == pytest.approx(3 * r1.w_ext_numeric, rel=1e-2)


def test_engine_rejects_mixed_gaps_and_bad_exponent():
    with pytest.raises(ParameterError):
        quasistatic_engine(
            QuasiStaticConfig(QubitBath((15.0, 45.0)), BC, BH, 1e-5, EpsilonFamily.power(1.0, 0.5))
        )
    with pytest.raises(RegimeError):
        quasistatic_engine(
            QuasiStaticConfig(QubitBath((15.0,)), BC, BH, 1e-5, EpsilonFamily.power(1.0, 2.0))
        )


def test_engine_efficiency_reduced_below_carnot():
    # clear Carnot gap once the criterion exceeds 1.1 at small g
    for e in (35.0, 45.0, 60.0):
        cfg = QuasiStaticConfig(QubitBath((e,)), BC, BH, 1e-5, EpsilonFamily.power(1.0, 0.5))
        res = quasistatic_engine(cfg)
        if res.omega >= 1.1:
            assert res.eta_numeric <= 1 / 3 - 1e-3


# --- near perfect work ratios --------------------------------------------------

def test_ratio_vanishes_for_power_family():
    cfg = QuasiStaticConfig(QubitBath((15.0,)), BC, BH, 1e-5, EpsilonFamily.power(1.0, 0.5))
    pts = near_perfect_ratio(cfg, [1e-2, 1e-3, 1e-4, 1e-5])
    ratios = [p.ratio for p in pts]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 1e-4


def test_ratio_diverges_for_steep_power_family():
    cfg = QuasiStaticConfig(QubitBath((15.0,)), BC, BH, 1e-5, EpsilonFamily.power(1.0, 2.0))
    pts = near_perfect_ratio(cfg, [1e-2, 1e-3, 1e-4, 1e-5])
    ratios = [p.ratio for p in pts]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_ratio_log_linear_fails_condition():
    cfg = QuasiStaticConfig(QubitBath((15.0,)), BC, BH, 1e-5, EpsilonFamily.log_linear())
    pts = near_perfect_ratio(cfg, [1e-2, 1e-3, 1e-4])
    # the order-1 condition value eps*ln(eps)/g diverges, and so does the ratio
    conds = [abs(p.eps_log_eps_over_g) for p in pts]
    ratios = [p.ratio for p in pts]
    assert all(b > a for a, b in zip(conds, conds[1:]))
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
