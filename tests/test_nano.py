import functools
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from nanoheat import (
    DichotomyViolationError,
    correlated_bound_check,
    EnergySpectrum,
    EpsilonFamily,
    NumericalInconsistencyError,
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
    plan_cycles,
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
from nanoheat.cli import _fmt, run_command
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
    (15.0, math.inf, BH, 2.0),  # the cold bath at zero temperature
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


@pytest.mark.parametrize("e_gap, beta_c, beta_h", [
    (800.0, 1.0, 1.0 / 60.0),  # beta_c E = 800: gamma underflows at the small orders
    (1e-300, 0.1, 1.0 / 15.0),  # gamma(1) is 0.0 beside a tiny gamma(inf)
    (1e5, 0.1, 1.0 / 15.0),  # every sample underflows
])
def test_gamma_profile_takes_an_underflow_to_zero(e_gap, beta_c, beta_h):
    prof = gamma_profile(e_gap, beta_c, beta_h)
    values = [v for _, v in prof.samples]
    assert min(values) == 0.0 and all(v >= 0 for v in values)


def test_gamma_smooth_through_order_one():
    vals = gamma(15.0, BC, BH, np.array([1.0 - 1e-6, 1.0, 1.0 + 1e-6]))
    assert np.max(np.abs(vals - vals[1])) < 1e-5 * vals[1]


@pytest.mark.filterwarnings("error")
def test_blocked_gamma_equals_the_order_by_order_calls():
    # infinite, exactly 1, near-1 and ordinary orders, spread over 8199 orders
    alphas = np.geomspace(1e-3, 1e3, 2 * 4096 + 7)
    alphas[[0, 4096 - 1, 4096, -1]] = [math.inf, 1.0, 1.0 - 5e-8, math.inf]
    alphas[[5, -3]] = [1.0 + 5e-8, 1.0]
    # every reader of the qubit kernel; at E = 800, beta = (1, 0.05) gamma(inf) is
    # 0.0, and at E = 60, T = (1, 1.05) exp(-2s) underflows above order ~230
    cells = ((15.0, BC, BH), (45.0, BC, BH), (800.0, 1.0, 0.05), (60.0, 1.0, 1.0 / 1.05))
    for e, beta_c, beta_h in cells:
        for reader in (gamma, g_function, b_alpha, b_alpha_prime):
            together = reader(e, beta_c, beta_h, alphas)
            alone = np.array([reader(e, beta_c, beta_h, float(a)) for a in alphas])
            assert together.tobytes() == alone.tobytes(), (reader.__name__, e)
        together = gamma(e, beta_c, beta_h, alphas)
        assert together[0] == gamma_infinity(e, beta_c, beta_h)
        assert together[-3] == gamma_one(e, beta_c, beta_h)


def test_dichotomy_check_keeps_its_memory_small():
    grid = np.geomspace(0.9, nano.DICHOTOMY_GRID_MAX, 10_000)
    for call in (lambda: infimum_location(45.0, BC, BH, 0.9), lambda: gamma(45.0, BC, BH, grid)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024  # one pass over all 1e4 orders needs about 1 MB


# at E = 300 gamma(inf) = 2.8e-11: the dip lies 2.8e-14 below it, under an absolute 1e-9
@pytest.mark.parametrize("e", [45.0, 300.0])
@pytest.mark.parametrize("where", ["order 5", "kappa_bar's bracket", "last bracket"])
def test_an_interior_minimum_raises_at_the_upward_crossing(monkeypatch, where, e):
    # g turns from - to + at r and back at fall; kappa_bar's own bracket ends at
    # the first SIGN_GRID order above it, so only a reader that samples g at
    # kappa_bar sees a crossing there
    kb = 0.9
    r, fall = {"order 5": (5.0, 6.0),
               "kappa_bar's bracket": ((kb + nano.SIGN_GRID[nano.SIGN_GRID > kb][0]) / 2, 6.0),
               "last bracket": ((nano.SIGN_GRID[-2] + nano.SIGN_GRID[-1]) / 2, 2e3)}[where]
    real = nano.gamma
    endpoint = min(real(e, BC, BH, kb), gamma_infinity(e, BC, BH))

    def dipped(factor):
        def gamma_(e_gap, beta_c, beta_h, alpha):
            out = real(e_gap, beta_c, beta_h, alpha)
            return np.where(np.abs(np.asarray(alpha) - r) <= 1e-12 * r, factor * endpoint, out)
        return gamma_

    monkeypatch.setattr(nano, "g_function", lambda e_gap, beta_c, beta_h, alpha:
                        (np.asarray(alpha) - r) * (fall - np.asarray(alpha)))
    # without the dip, and with one inside the margin, the endpoint verdict stands
    assert infimum_location(e, BC, BH, kb).is_infinity
    monkeypatch.setattr(nano, "gamma", dipped(1.0 - 1e-10))
    assert infimum_location(e, BC, BH, kb).is_infinity
    monkeypatch.setattr(nano, "gamma", dipped(0.999))
    with pytest.raises(DichotomyViolationError) as info:
        infimum_location(e, BC, BH, kb)
    assert abs(info.value.alpha - r) <= math.ulp(r)
    assert info.value.gap == endpoint - 0.999 * endpoint


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


@pytest.mark.parametrize("e, flip, case", [
    (45.0, lambda a: a < 0.5, CASE_LT2),  # a sign change below order 1
    (45.0, lambda a: a < 1.0, CASE_LT2),  # g < 0 next to the seam, no change below it
    (65.0, lambda a: a > 2.0, CASE_GT2),  # a sign change above order 1
    (65.0, lambda a: a > 1.0, CASE_GT2),  # g > 0 next to the seam, no change above it
    (None, lambda a: a < 0.5, CASE_EQ2),  # any sign change, at the gap where the indicator is 2
])
def test_a_contradicted_sign_pattern_raises(monkeypatch, e, flip, case):
    e = _bisect(lambda x: tanh_indicator(x, BC, BH) < 2.0, 50.0, 70.0) if e is None else e
    assert classify_regime(e, BC, BH).g_case == case  # consistent as it stands
    real = nano.g_function

    def flipped(e_gap, beta_c, beta_h, alpha):
        values = real(e_gap, beta_c, beta_h, alpha)
        return np.where(flip(np.asarray(alpha)), -values, values)

    monkeypatch.setattr(nano, "g_function", flipped)
    with pytest.raises(NumericalInconsistencyError, match=f"contradicts {case}"):
        classify_regime(e, BC, BH)


def regime_map_cells(rng, n):
    """(E, beta_c, beta_h) drawn over the README ranges: gaps in [1, 60],
    T_cold in [1, 19.5], T_hot in [max(5.5, 1.05 T_cold), 60]."""
    for _ in range(n):
        t_cold = rng.uniform(1.0, 19.5)
        t_hot = rng.uniform(max(5.5, 1.05 * t_cold), 60.0)
        yield rng.uniform(1.0, 60.0), 1.0 / t_cold, 1.0 / t_hot


def extreme_cells(rng, n):
    """(E, beta_c, beta_h) on cold baths with close temperatures, where ln K and
    ln b_alpha' each carry terms of about 1e3: T_cold = 10^U(-2, 0),
    T_hot / T_cold - 1 = 10^U(log10 3e-4, -1) and gaps in [1, 60]."""
    for _ in range(n):
        t_cold = 10 ** rng.uniform(-2.0, 0.0)
        t_hot = t_cold * (1.0 + 10 ** rng.uniform(math.log10(3e-4), -1.0))
        yield rng.uniform(1.0, 60.0), 1.0 / t_cold, 1.0 / t_hot


def nu_above(e, beta_c, beta_h, k):
    """estimate_nu's predicate: gamma(k) above gamma(inf), compared in logs."""
    return nano._ln_k(e, beta_c, beta_h, np.asarray(k, dtype=float), "gamma/gamma_inf") > 0


def test_batched_roots_match_the_one_point_bisection(monkeypatch):
    roots = []
    batched = nano._bisect_many

    def spy(above_many, lo, hi, depth, hint):
        assert depth == second_laws._speculation_depth(2) == 6
        root = batched(above_many, lo, hi, depth, hint)
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
        for i, r in enumerate(roots):
            around = [math.nextafter(r, 0.0), r, math.nextafter(r, math.inf)]
            above = g_function(*cell, around) > 0 if i < n else nu_above(*cell, around)
            assert 0 < np.count_nonzero(above) < 3
    assert found > 100


def counted_g_calls(monkeypatch):
    """A list that gets one entry per `nano.g_function` call from now on."""
    calls = []
    g_function = nano.g_function

    def counted(*args):
        calls.append(args)
        return g_function(*args)

    monkeypatch.setattr(nano, "g_function", counted)
    return calls


def test_regime_roots_and_nu_batch_their_bisection(monkeypatch):
    g_calls = counted_g_calls(monkeypatch)
    roots = bisected = 0
    for cell in regime_map_cells(make_rng(42), 100):
        g_calls.clear()
        cls = classify_regime(*cell)
        # one grid call, then at most 10 per root (about 48 with one point per call)
        assert len(g_calls) <= 1 + 10 * len(cls.g_sign_changes)
        roots += len(cls.g_sign_changes)
        # nu's predicate is not g: count its calls in the search. One per 6
        # steps: a nu near 1e-8 takes about 80 steps down to adjacent floats,
        # so at most 14 (about 57, up to 81, with one point per call)
        nu_searches = searches(monkeypatch, lambda: estimate_nu(*cell))
        assert all(calls <= 14 for _, _, calls in nu_searches)
        bisected += len(nu_searches)
    assert roots > 50 and bisected > 20


def test_infimum_location_reads_g_once_and_agrees_with_the_oracle(monkeypatch):
    calls = {}
    for name in ("g_function", "gamma"):
        def counted(*args, _fn=getattr(nano, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(nano, name, counted)
    rng = make_rng(44)
    compared = 0
    for e, bc, bh in regime_map_cells(rng, 100):
        kb = rng.uniform(1e-4, 0.999)
        calls.update(g_function=0, gamma=0)
        at_infinity = infimum_location(e, bc, bh, kb).is_infinity
        assert calls == {"g_function": 1, "gamma": 0}, (e, bc, bh, kb)
        g_k, g_inf = qubit_oracle.gamma(e, bc, bh, kb), qubit_oracle.gamma_infinity(e, bc)
        if abs(g_k - g_inf) > 1e-9 * min(g_k, g_inf):
            assert at_infinity == (g_k > g_inf), (e, bc, bh, kb)
            compared += 1
    assert compared > 90


def test_regime_roots_lie_within_64_ulps_of_the_oracle_roots():
    # every g root and every nu inside its bracket, against a 50-digit secant
    # over the oracle started from it; the bound was set before the first run.
    # The worst read 14 ulps for g and 19 for nu
    g_roots = nus = 0
    for cell in extreme_cells(make_rng(46), 300):
        for r in classify_regime(*cell).g_sign_changes:
            assert abs(r - qubit_oracle.g_root(*cell, r)) <= 64 * math.ulp(r), (cell, r)
            g_roots += 1
        nu = estimate_nu(*cell)
        if 0.0 < nu < 1.0 - 1e-8:
            assert abs(nu - qubit_oracle.nu_root(*cell, nu)) <= 64 * math.ulp(nu), (cell, nu)
            nus += 1
        elif omega_single(*cell) > 1.0:  # nu = 0: gamma stays above its limit down to 1e-8
            assert nu == 0.0 and qubit_oracle.gamma(*cell, 1e-8) > qubit_oracle.gamma_infinity(*cell[:2])
    assert g_roots > 250 and nus > 100


@pytest.mark.parametrize("e, t_cold, ratio", [
    (38.163, 0.02341, 1.00602), (41.913, 0.01518, 1.0334), (57.921, 0.01213, 1.0903),
])
def test_nu_where_gamma_inf_underflows(e, t_cold, ratio):
    # beta_c E exceeds ~745 + ln E: gamma(inf) is 0.0 in doubles, and gamma on
    # (0, 1) with it, so only a comparison in logs can place nu
    beta_c, beta_h = 1.0 / t_cold, 1.0 / (t_cold * ratio)
    assert gamma_infinity(e, beta_c, beta_h) == 0.0 < omega_single(e, beta_c, beta_h) - 1.0
    nu = estimate_nu(e, beta_c, beta_h)
    if qubit_oracle.gamma(e, beta_c, beta_h, 1e-8) > qubit_oracle.gamma_infinity(e, beta_c):
        assert nu == 0.0
    else:
        assert abs(nu - qubit_oracle.nu_root(e, beta_c, beta_h, nu)) <= 64 * math.ulp(nu)
        assert 1e-8 < nu < 1e-4


def searches(monkeypatch, run):
    """(hint, root, calls) of each root search ``run()`` makes, ``calls`` the
    predicate's calls in it."""
    found = []

    def spy(above_many, *args):
        calls = []

        def counted(points):
            calls.append(len(points))
            return above_many(points)

        root = second_laws._bisect_many(counted, *args)
        found.append((args[-1], root, len(calls)))
        return root

    monkeypatch.setattr(nano, "_bisect_many", spy)
    run()
    return found


@pytest.mark.parametrize("cells, most_g, most_nu", [
    # 1.106 calls per g root and 1.026 per nu when these bounds were set
    (lambda: regime_map_cells(make_rng(43), 600), 1.2, 1.1),
    # 1.138 and 1.056
    (lambda: extreme_cells(make_rng(47), 300), 1.3, 1.3),
])
def test_hinted_regime_roots_and_nu_take_about_one_call(monkeypatch, cells, most_g, most_nu):
    # each search gets a Newton hint of its crossing, and the first call holds
    # the whole path to it
    g_calls = counted_g_calls(monkeypatch)
    g_roots, nu_calls = 0, []
    for cell in cells():
        g_roots += len(classify_regime(*cell).g_sign_changes)
        g_calls.pop()  # the sign grid
        nu_calls += [calls for _, _, calls in searches(monkeypatch, lambda: estimate_nu(*cell))]
    assert g_roots > 250 and len(nu_calls) > 100
    assert len(g_calls) / g_roots <= most_g
    assert sum(nu_calls) / len(nu_calls) <= most_nu


def test_root_hints_lie_within_256_ulps_of_the_roots(monkeypatch):
    def run():
        for cell in regime_map_cells(make_rng(45), 200):
            classify_regime(*cell)
            estimate_nu(*cell)

    found = searches(monkeypatch, run)
    assert len(found) > 300
    for hint, root, _ in found:
        assert hint is not None and abs(hint - root) <= 256 * math.ulp(root), (hint, root)


@pytest.mark.parametrize("e, beta_c, beta_h", [
    (1e-300, BC, BH), (1e-13, BC, BH),  # the exponents differ below the rounding of 1
    # gamma(inf) is 8.6e-306 at E = 709 and 0.0 above
    (709.0, 1.0, 0.05), (760.0, 1.0, 0.05), (800.0, 1.0, 0.05), (1000.0, 1.0, 0.05),
])
def test_root_hints_at_the_edge_cells_abstain_without_raising(monkeypatch, e, beta_c, beta_h):
    # g's only zero at the tiny gaps is the seam's, and nu's crossing lies
    # outside [1e-8, 1): no hint, nothing raised
    assert nano._root_hint(e, beta_c, beta_h, 1e-8, 1.0 - 1e-9, "gamma/gamma_inf") is None
    grid = nano.SIGN_GRID.tolist()
    hints = [nano._root_hint(e, beta_c, beta_h, lo, hi) for lo, hi in zip(grid, grid[1:])]
    found = searches(monkeypatch, lambda: (classify_regime(e, beta_c, beta_h),
                                           estimate_nu(e, beta_c, beta_h),
                                           infimum_location(e, beta_c, beta_h, 0.9)))
    if e < 1.0:
        seam = nano._ABOVE_ONE - 1
        assert hints[:seam] + hints[seam + 1:] == [None] * (len(hints) - 1)
        assert found == []
    else:
        # the large gaps keep one g root, near 1e-3, and its hint is good
        assert len(found) == 1 and hints.count(None) >= len(hints) - 2
        (hint, root, _), = found
        assert abs(hint - root) <= 256 * math.ulp(root)


EDGE_GAPS = (1e-300, 1e-13, 709.0, 760.0, 800.0, 1000.0)


def ratio_terms(e, beta_c, beta_h, a, form):
    """The terms `nano._ratio_at` sums at order a in ``form``, in plain floats."""
    c, h, pre = nano._kernel_scalars(e, beta_c, beta_h, form)
    z = (a - 1.0) * h
    az = max(abs(z), sys.float_info.min)
    terms = [pre, math.log(a), math.log(-math.expm1(-2.0 * az) / az),
             math.log1p(math.exp(-2.0 * abs(c + z)))]
    return terms + [2.0 * max(z, 0.0, -c - z) if form == "K/b'" else min(2.0 * c, -2.0 * min(z, 0.0))]


def test_the_scalar_ratio_agrees_with_the_kernel():
    # G = ln(gamma / gamma(inf)), which nu's floor check and the endpoint
    # comparison read, and the hints' F = ln a - ln(K / b_alpha'), one order at
    # a time against `_ln_k` on an array; the bound was set before the first
    # run: 4 ulps of the largest term, and one sign where |value| > 1e-13. Both
    # forms read 4.0 at worst, 2 ulps of a running sum a binade above every
    # term, and no sign differed
    orders = np.geomspace(1e-8, 30.0, 121)
    cells = [*regime_map_cells(make_rng(48), 200), *extreme_cells(make_rng(49), 200),
             *((e, 1.0, 0.05) for e in EDGE_GAPS)]
    compared = 0
    for cell in cells:
        for form in ("gamma/gamma_inf", "K/b'"):
            kernel = nano._ln_k(*cell, orders, form).tolist()
            scalars = nano._kernel_scalars(*cell, form)
            for a, k in zip(orders.tolist(), kernel):
                value = nano._ratio_at(a, *scalars, form)
                expected = k if form == "gamma/gamma_inf" else math.log(a) - k
                largest = max(abs(t) for t in ratio_terms(*cell, a, form))
                assert abs(value - expected) <= 4 * math.ulp(largest), (cell, a, form)
                assert abs(expected) <= 1e-13 or (value > 0) == (expected > 0), (cell, a, form)
                compared += 1
    assert compared == len(cells) * len(orders) * 2


def kernel_passes(monkeypatch):
    """A list that gets one entry per `nano._ln_k` call from now on: "g" for a
    call inside `nano.g_function`, else "search" for one inside
    `nano._bisect_many`, else None."""
    passes, inside = [], []
    for name, tag in (("g_function", "g"), ("_bisect_many", "search")):
        def tagged(*args, _fn=getattr(nano, name), _tag=tag):
            inside.append(_tag)
            try:
                return _fn(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(nano, name, tagged)
    ln_k = nano._ln_k

    def counted(*args):
        passes.append(inside[-1] if inside else None)
        return ln_k(*args)

    monkeypatch.setattr(nano, "_ln_k", counted)
    return passes


def test_threshold_checks_make_no_kernel_pass_of_their_own(monkeypatch):
    # nu's check at 1e-8 and the endpoint comparison at kappa_bar read G from
    # `_ratio_at`: nu's only passes are its search's, and infimum_location's
    # only pass is g's where g turns upward nowhere above kappa_bar (its floor
    # in the regime_map workload). 5.30 passes per cell before, 3.67 when the
    # bound was set
    passes = kernel_passes(monkeypatch)
    total = cells = plain = 0
    for cell in regime_map_cells(make_rng(43), 600):
        classify_regime(*cell)
        total += len(passes)
        passes.clear()
        nu = estimate_nu(*cell)
        assert all(p == "search" for p in passes), (cell, passes)
        total += len(passes)
        kappa_bar = min(max(0.8, nu + 0.01), 0.999)
        orders = np.concatenate(([kappa_bar], nano.SIGN_GRID[nano.SIGN_GRID > kappa_bar]))
        up = g_function(*cell, orders) > 0
        passes.clear()
        infimum_location(*cell, kappa_bar)
        if not (~up[:-1] & up[1:]).any():
            assert passes == ["g"], (cell, kappa_bar, passes)
            plain += 1
        total += len(passes)
        passes.clear()
        cells += 1
    assert plain > 500
    assert total / cells <= 3.7


def test_regime_searches_start_from_kept_trees():
    # every g search starts on a SIGN_GRID bracket and every nu search on
    # (1e-8, 1 - 1e-9), so the first trees come from few brackets: 265 kept
    # and 94.5% of first calls served when the bounds were set
    second_laws._head_tree.cache_clear()
    for cell in regime_map_cells(make_rng(50), 3000):
        classify_regime(*cell)
        estimate_nu(*cell)
    info = second_laws._head_tree.cache_info()
    assert info.currsize <= 400
    assert info.hits >= 0.9 * (info.hits + info.misses) > 0


def test_every_reader_gives_one_verdict_at_the_omega_crossing(tmp_path):
    # the adjacent gaps E_lo (Omega <= 1) and E_hi (Omega > 1) at T = (15, 10)
    e = _bisect(lambda x: omega_single(x, BC, BH) <= 1.0, 1.0, 60.0)
    e_lo = e if omega_single(e, BC, BH) <= 1.0 else math.nextafter(e, 0.0)
    e_hi = math.nextafter(e_lo, math.inf)
    assert omega_single(e_lo, BC, BH) <= 1.0 < omega_single(e_hi, BC, BH)
    out = tmp_path / "crossing.csv"  # linspace keeps both endpoints exactly
    assert run_command(["sweep", "--mode", "energy", "--t-hot", "15", "--t-cold", "10", "--lo",
                        repr(e_lo), "--hi", repr(e_hi), "--steps", "2", "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 2
    for gap, carnot, row in zip((e_lo, e_hi), (True, False), rows):
        cls = classify_regime(gap, BC, BH)
        assert cls.carnot_achievable is carnot
        assert [row[1], row[2], row[4]] == [_fmt(cls.omega), _fmt(cls.eta_quasistatic), cls.g_case]
        nu = estimate_nu(gap, BC, BH)
        assert nu == 0.0 if carnot else nu > 0.0
        cfg = QuasiStaticConfig(QubitBath((gap,)), BC, BH, 1e-5, EpsilonFamily.power(1.0, 0.5))
        target = gamma(gap, BC, BH, 0.5) if carnot else gamma_infinity(gap, BC, BH)
        assert quasistatic_engine(cfg).w_ext_predicted == 1e-5 / BH * target
        # multi-cycle plans need Omega <= 1, the correlated bound check Omega > 1
        plan = functools.partial(plan_cycles, 1.0, gap, BC, BH, 0.5, 1000)
        check = functools.partial(correlated_bound_check, gap, BC, BH, 1e-4, lambda g: g * g, 1)
        allowed, refused = (plan, check) if carnot else (check, plan)
        allowed()
        with pytest.raises(RegimeError):
            refused()


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
    for c, k in ((math.nan, 0.5), (1.0, math.nan), (math.inf, 0.5), (1.0, math.inf)):
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
    (math.inf, BH, 1e-5),  # the cold bath at zero temperature
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
