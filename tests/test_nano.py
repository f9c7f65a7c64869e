import math
import tracemalloc
import warnings

import numpy as np
import pytest

from nanoheat import (
    DichotomyViolationError,
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
from nanoheat import nano, second_laws
from nanoheat.second_laws import _bisect

from conftest import make_rng
import qubit_oracle

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


@pytest.mark.parametrize("reader", [b_alpha, b_alpha_prime, gamma, g_function])
@pytest.mark.parametrize("args", [
    (-1.0, BC, BH, 2.0),  # gap
    (math.nan, BC, BH, 2.0),
    (math.inf, BC, BH, 2.0),
    (15.0, BH, BC, 2.0),  # temperatures
    (15.0, BC, BH, -1.0),  # order
    (15.0, BC, BH, np.array([0.5, 2.0, -1.0])),
])
def test_qubit_closed_forms_share_one_input_check(reader, args):
    with pytest.raises(ParameterError):
        reader(*args)


#: Gaps from 1e-300 to 1e3 and orders from 1e-3 to 1e3, with five within
#: 2e-7 of order 1, where a - 1 is exact but any difference of two exponents
#: that each carry a rounding of their own keeps only ~1e-16 / |a - 1| of its
#: digits. beta_c E stays at or below 500; LARGE_GAPS goes beyond.
ORACLE_GAPS = np.geomspace(1e-300, 1e3, 31).tolist()
ORACLE_ORDERS = np.array(
    [1e-3, 0.5, 0.99, 1 - 2e-7, 1 - 5e-8, 1 - 1e-9, 1 + 5e-8, 1 + 2e-7, 1.01, 2.0, 50.0, 1e3]
)
ORACLE_TEMPERATURES = ((BC, BH), (0.5, 0.2))


def test_b_alpha_matches_the_oracle_at_every_gap():
    for bc, bh in ORACLE_TEMPERATURES:
        for e in ORACLE_GAPS:
            for a, value in zip(ORACLE_ORDERS, b_alpha(e, bc, bh, ORACLE_ORDERS)):
                ref = qubit_oracle.b_alpha(e, bc, bh, a)
                # below E ~ 1e-154 the value ~ E^2 underflows; it is then within 1e-320
                assert abs(value - ref) <= 1e-12 * abs(ref) + 1e-320, (e, bc, bh, a)


def test_b_alpha_prime_matches_the_oracle_at_every_gap():
    for bc, bh in ORACLE_TEMPERATURES:
        for e in ORACLE_GAPS:
            for a, value in zip(ORACLE_ORDERS, b_alpha_prime(e, bc, bh, ORACLE_ORDERS)):
                ref = qubit_oracle.b_alpha_prime(e, bc, bh, a)
                # ~E^2 as well: below E ~ 1e-154 it is within 1e-320 of 0
                assert abs(value - ref) <= 1e-12 * abs(ref) + 1e-320, (e, bc, bh, a)


def test_g_function_matches_the_oracle_at_every_gap():
    for bc, bh in ORACLE_TEMPERATURES:
        for e in ORACLE_GAPS:
            for a, value in zip(ORACLE_ORDERS, g_function(e, bc, bh, ORACLE_ORDERS)):
                ref, scale = qubit_oracle.g_function(e, bc, bh, a)
                if not math.isfinite(float(ref)):
                    assert value == float(ref), (e, bc, bh, a)  # beyond the float range
                else:
                    assert abs(value - ref) <= 1e-12 * scale, (e, bc, bh, a)


#: Gaps at T = (20, 1) where beta_c E passes ~708, so the prefactor
#: E / (1 + exp(beta_c E)) of b_alpha is subnormal or 0; from ~745 on the
#: denominator of the closed form underflows at small orders too.
LARGE_GAPS = (700.0, 709.0, 720.0, 745.0, 760.0, 800.0, 1000.0, 1500.0)


@pytest.mark.filterwarnings("error")
def test_b_alpha_and_gamma_match_the_oracle_at_large_gaps():
    for e in LARGE_GAPS:
        b_values = b_alpha(e, 1.0, 0.05, ORACLE_ORDERS)
        for a, b, g in zip(ORACLE_ORDERS, b_values, gamma(e, 1.0, 0.05, ORACLE_ORDERS)):
            ref_b, ref_g = qubit_oracle.b_alpha(e, 1.0, 0.05, a), qubit_oracle.gamma(e, 1.0, 0.05, a)
            # exponents near 1e3 carry ~1e-13 of rounding into the result
            assert abs(b - ref_b) <= 1e-12 * abs(ref_b) + 1e-320, (e, a)
            assert abs(g - ref_g) <= 1e-12 * abs(ref_g) + 1e-320, (e, a)


@pytest.mark.filterwarnings("error")
def test_large_gap_endpoint_and_nu_follow_omega():
    # E = 800, T = (20, 1): Omega = 760, so the infimum sits at infinity; gamma
    # stays above its limit E / (1 + e^800) (0 in doubles) down to order 1e-8,
    # so nu lies below the bracket of estimate_nu
    e, bc, bh = 800.0, 1.0, 0.05
    assert omega_single(e, bc, bh) > 1.0
    assert qubit_oracle.gamma(e, bc, bh, 1e-8) > qubit_oracle.gamma_infinity(e, bc)
    assert infimum_location(e, bc, bh, 0.9).is_infinity
    assert estimate_nu(e, bc, bh) == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("e", [900.0, 1000.0, 1500.0])
def test_infimum_location_past_the_underflow_of_both_endpoints(e):
    # gamma(0.9) and gamma_infinity are both 0.0 in doubles here; their ratio is
    # not, and Omega = 0.95 E says the infimum sits at infinity
    bc, bh = 1.0, 0.05
    assert gamma(e, bc, bh, 0.9) == gamma_infinity(e, bc, bh) == 0.0
    assert omega_single(e, bc, bh) > 1.0
    assert qubit_oracle.gamma(e, bc, bh, 0.9) > qubit_oracle.gamma_infinity(e, bc)
    assert infimum_location(e, bc, bh, 0.9).is_infinity


@pytest.mark.filterwarnings("error")
def test_infimum_location_at_underflowed_endpoints_follows_the_oracle():
    # gaps past the underflow of both endpoints, at cutoffs and temperatures on
    # either side of the infimum's switch
    rng = make_rng(36)
    sides = set()
    for k in range(60):
        e = 10 ** rng.uniform(2.9, 4.0)
        bc = 10 ** rng.uniform(-0.1, 0.3)
        bh = bc * (rng.uniform(0.999, 0.99999) if k % 2 else rng.uniform(0.05, 0.9))
        kb = rng.uniform(0.05, 0.95)
        if gamma(e, bc, bh, kb) != 0.0 or gamma_infinity(e, bc, bh) != 0.0:
            continue
        at_cutoff = qubit_oracle.gamma(e, bc, bh, kb) <= qubit_oracle.gamma_infinity(e, bc)
        assert infimum_location(e, bc, bh, kb).is_infinity != at_cutoff, (e, bc, bh, kb)
        sides.add(at_cutoff)
    assert sides == {True, False}


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


@pytest.mark.filterwarnings("error")
def test_blocked_gamma_equals_the_order_by_order_calls():
    # infinite, exactly 1, near-1 and ordinary orders, spread over three blocks
    alphas = np.geomspace(1e-3, 1e3, 2 * nano.GAMMA_BLOCK + 7)
    alphas[[0, nano.GAMMA_BLOCK - 1, nano.GAMMA_BLOCK, -1]] = [math.inf, 1.0, 1.0 - 5e-8, math.inf]
    alphas[[5, -3]] = [1.0 + 5e-8, 1.0]
    for e in (15.0, 45.0):
        together = gamma(e, BC, BH, alphas)
        alone = np.array([gamma(e, BC, BH, float(a)) for a in alphas])
        assert together.tobytes() == alone.tobytes()
        assert together[0] == gamma_infinity(e, BC, BH) and together[-3] == gamma_one(e, BC, BH)


def test_dichotomy_check_keeps_its_memory_small():
    grid = np.geomspace(0.9, nano.DICHOTOMY_GRID_MAX, nano.DICHOTOMY_GRID_POINTS)
    for call in (lambda: infimum_location(45.0, BC, BH, 0.9), lambda: gamma(45.0, BC, BH, grid)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024  # one pass over all 1e4 orders needs about 1 MB


@pytest.mark.parametrize("where", ["last of a block", "first of the next", "last interior"])
def test_a_dip_at_a_block_edge_raises_as_in_one_pass(monkeypatch, where):
    n = nano.DICHOTOMY_GRID_POINTS
    i = {"last of a block": nano.GAMMA_BLOCK - 1, "first of the next": nano.GAMMA_BLOCK,
         "last interior": n - 2}[where]
    grid = np.geomspace(0.9, nano.DICHOTOMY_GRID_MAX, n)
    real = nano.gamma

    def dipped(e_gap, beta_c, beta_h, alpha):
        # at E = 45 the infimum is at infinity: dip one interior order below it
        out = real(e_gap, beta_c, beta_h, alpha)
        return np.where(np.asarray(alpha) == grid[i], 0.999 * gamma_infinity(e_gap, beta_c, beta_h), out)

    monkeypatch.setattr(nano, "gamma", dipped)
    raised = []
    for block in (nano.GAMMA_BLOCK, n):  # blocked, then one-shot
        monkeypatch.setattr(nano, "GAMMA_BLOCK", block)
        with pytest.raises(DichotomyViolationError) as info:
            infimum_location(45.0, BC, BH, 0.9)
        raised.append((info.value.alpha, info.value.gap))
    assert raised[0] == raised[1]
    g_inf = gamma_infinity(45.0, BC, BH)
    assert raised[0] == (grid[i], g_inf - 0.999 * g_inf)


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("e", [1e-13, 1e-14, 1e-300])
def test_classify_small_gap_has_no_sign_change(e):
    # g(a) -> (a - 1)^2 >= 0 as E -> 0: no root anywhere, and Carnot is attainable
    cls = classify_regime(e, BC, BH)
    assert cls.g_case == CASE_LT2
    assert cls.g_sign_changes == ()
    assert cls.carnot_achievable and cls.eta_quasistatic == pytest.approx(1 / 3, abs=1e-12)


def test_g_function_order_one_is_zero_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert g_function(45.0, BC, BH, 1.0) == 0.0
        values = g_function(45.0, BC, BH, np.array([0.5, 1.0, 2.0]))
    assert values[1] == 0.0 and np.all(np.isfinite(values))


@pytest.mark.parametrize("e", [1.0, 15.0])
@pytest.mark.parametrize("a", [1e154, 1.4e154, 1e300, math.inf])
def test_g_function_at_huge_orders_is_minus_infinity(e, a):
    # from about 1.34e154 on a(a - 1) overflows as well as (a - 1) K/b_alpha',
    # and inf - inf gave nan with an "invalid value" warning
    assert g_function(e, BC, BH, a) == -math.inf
    if math.isfinite(a):
        assert qubit_oracle.g_function(e, BC, BH, a)[0] < -np.finfo(float).max


def test_g_function_at_huge_orders_keeps_the_other_lanes():
    orders = np.array([math.nan, math.inf, 2.0, 1.0, 0.5])
    values = g_function(15.0, BC, BH, orders)
    assert math.isnan(values[0]) and values[1] == -math.inf
    assert values[2:].tolist() == g_function(15.0, BC, BH, orders[2:]).tolist()
    assert math.copysign(1.0, values[3]) == 1.0  # +0.0 at order 1
    # at a tiny gap a(a - 1) is the larger of the two overflowing terms
    assert qubit_oracle.g_function(1e-196, BC, BH, 1e200)[0] > np.finfo(float).max
    assert g_function(1e-196, BC, BH, 1e200) == math.inf


def test_classify_sign_pattern_consistency_random():
    rng = make_rng(34)
    for _ in range(1000):
        e, bc, bh = random_params(rng)
        classify_regime(e, bc, bh)  # raises on an impossible sign pattern


def regime_map_cells(rng, n):
    """(E, beta_c, beta_h) drawn over the README ranges: gaps in [1, 60],
    T_cold in [1, 19.5], T_hot in [max(5.5, 1.05 T_cold), 60]."""
    for _ in range(n):
        t_cold = rng.uniform(1.0, 19.5)
        t_hot = rng.uniform(max(5.5, 1.05 * t_cold), 60.0)
        yield rng.uniform(1.0, 60.0), 1.0 / t_cold, 1.0 / t_hot


def test_batched_roots_match_the_one_point_bisection(monkeypatch):
    roots = []
    batched = nano._bisect_many

    def spy(above_many, lo, hi, depth):
        assert depth == second_laws._speculation_depth(2) == 6
        root = batched(above_many, lo, hi, depth)
        assert root == _bisect(lambda x: above_many([x])[0], lo, hi)
        roots.append(root)
        return root

    monkeypatch.setattr(nano, "_bisect_many", spy)
    found = 0
    for cell in regime_map_cells(make_rng(41), 200):
        roots.clear()
        cls = classify_regime(*cell)
        nu = estimate_nu(*cell)
        found += len(roots)
        n = len(cls.g_sign_changes)
        assert cls.g_sign_changes == tuple(roots[:n])
        assert nu == (roots[n] if len(roots) > n else 0.0)
        # each search ends between adjacent floats on either side of the crossing
        ginf = gamma_infinity(*cell)
        for i, r in enumerate(roots):
            around = [math.nextafter(r, 0.0), r, math.nextafter(r, math.inf)]
            above = g_function(*cell, around) > 0 if i < n else gamma(*cell, around) > ginf
            assert 0 < np.count_nonzero(above) < 3
    assert found > 100


def test_regime_roots_and_nu_batch_their_bisection(monkeypatch):
    calls = {}
    for name in ("g_function", "gamma"):
        def counted(*args, _fn=getattr(nano, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(nano, name, counted)
    roots = bisected = 0
    for cell in regime_map_cells(make_rng(42), 100):
        calls.update(g_function=0, gamma=0)
        cls = classify_regime(*cell)
        nu = estimate_nu(*cell)
        # one grid call, then at most 10 per root (about 48 with one point per call)
        assert calls["g_function"] <= 1 + 10 * len(cls.g_sign_changes)
        roots += len(cls.g_sign_changes)
        if nu > 0.0:
            # one call at the lower end 1e-8, then one per 6 steps: a root near
            # 1e-8 takes about 80 steps down to adjacent floats, so at most 15
            # (about 57, up to 81, with one point per call)
            assert calls["gamma"] <= 15
            bisected += 1
    assert roots > 50 and bisected > 20


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


@pytest.mark.parametrize("g_list", [[1e-3, 1e-3], [1e-4, 1e-3], [1e-2, 1e-3, 1e-3]])
def test_ratio_rejects_a_schedule_that_does_not_decrease(g_list):
    cfg = QuasiStaticConfig(QubitBath((15.0,)), BC, BH, 1e-5, EpsilonFamily.power(1.0, 0.5))
    with pytest.raises(ParameterError):
        near_perfect_ratio(cfg, g_list)


@pytest.mark.parametrize("g_list", [[1e-3, 1e-4], []])
def test_ratio_rejects_mixed_gaps_even_without_steps(g_list):
    cfg = QuasiStaticConfig(QubitBath((15.0, 45.0)), BC, BH, 1e-5, EpsilonFamily.power(1.0, 0.5))
    with pytest.raises(ParameterError):
        near_perfect_ratio(cfg, g_list)


@pytest.mark.parametrize("beta_c, beta_h, g", [
    (BC, BH, BC - BH),  # the step reaches the hot bath
    (BC, BH, 0.05),
    (BH, BH, 1e-5),  # equal temperatures
    (BH, BC, 1e-5),  # the cold bath is the hotter one
])
def test_config_rejects_steps_and_temperatures_out_of_bounds(beta_c, beta_h, g):
    with pytest.raises(ParameterError):
        QuasiStaticConfig(QubitBath((15.0,)), beta_c, beta_h, g, EpsilonFamily.power(1.0, 0.5))


def test_ratio_log_linear_fails_condition():
    cfg = QuasiStaticConfig(QubitBath((15.0,)), BC, BH, 1e-5, EpsilonFamily.log_linear())
    pts = near_perfect_ratio(cfg, [1e-2, 1e-3, 1e-4])
    # the order-1 condition value eps*ln(eps)/g diverges, and so does the ratio
    conds = [abs(p.eps_log_eps_over_g) for p in pts]
    ratios = [p.ratio for p in pts]
    assert all(b > a for a, b in zip(conds, conds[1:]))
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
