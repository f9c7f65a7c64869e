import math

import numpy as np
import pytest

from nanoheat import (
    BatterySpec,
    DiagonalState,
    EnergySpectrum,
    GeneralBattery,
    ParameterError,
    RegimeError,
    TransitionInstance,
    chi,
    correlated_bound_check,
    eps_hat,
    general_battery_pair,
    sample_correlated_state,
    thermal_state,
    w_alpha,
)
from nanoheat.extensions import CorrelatedFinalState, _entropy, _marginals, _product
from nanoheat.second_laws import Alpha
from nanoheat.macro import quasi_static_instance

from conftest import make_rng

BC, BH = 0.1, 1 / 15
MACHINE = EnergySpectrum((0.0, 0.0))


def sample(rng, e_gap=45.0, g=1e-4, eps=1e-8, k=0.5):
    cold = thermal_state(EnergySpectrum((0.0, e_gap)), BC - g)
    machine = DiagonalState(tuple(rng.dirichlet(np.ones(2))), MACHINE)
    return sample_correlated_state(cold, machine, eps, k, rng), cold, machine


# --- chi ---------------------------------------------------------------------

def test_chi_zero_without_correlations():
    st, _, _ = sample(make_rng(40), k=0.0)
    assert chi(st, 1e-8, BH) == pytest.approx(0.0, abs=1e-14)


def test_chi_positive_with_correlations():
    rng = make_rng(41)
    for _ in range(50):
        st, _, _ = sample(rng, eps=rng.uniform(0.01, 0.3), k=rng.uniform(0.05, 1.0))
        assert chi(st, 0.01, BH) > 1e-10


def test_chi_rejects_non_finite_beta():
    st, _, _ = sample(make_rng(40))
    for beta_h in (math.nan, math.inf):
        with pytest.raises(ParameterError):
            chi(st, 1e-8, beta_h)


def test_chi_convex_in_mixing_weight():
    rng = make_rng(42)
    st, _, _ = sample(rng, eps=0.1, k=1.0)
    ks = np.linspace(0.0, 1.0, 11)
    vals = []
    for k in ks:
        mixed = CorrelatedFinalState(k=float(k), no_corr=st.no_corr, corr=st.corr, spectra=st.spectra)
        vals.append(chi(mixed, 0.1, BH))
    second = np.diff(vals, 2)
    assert np.all(second >= -1e-10)
    assert vals[0] == pytest.approx(0.0, abs=1e-14)
    assert all(v > 0 for v in vals[1:])


def test_correlated_state_validates_marginals():
    rng = make_rng(43)
    st, _, _ = sample(rng, k=0.5)
    bad = np.array(st.corr)
    bad[0, 0, 0] += 1e-3
    bad[0, 0, 1] -= 1e-3
    with pytest.raises(ParameterError):
        CorrelatedFinalState(k=0.5, no_corr=st.no_corr, corr=bad, spectra=st.spectra)


def test_marginal_preservation_of_mixture():
    rng = make_rng(44)
    st, cold, machine = sample(rng, eps=0.05, k=0.7)
    mc, mm, mw = _marginals(st.mixture)
    assert np.max(np.abs(mc - cold.array)) < 1e-12
    assert np.max(np.abs(mm - machine.array)) < 1e-12
    assert np.max(np.abs(mw - np.array([0.05, 0.95]))) < 1e-12


def test_order_one_free_energy_subadditivity():
    # product of marginals never has larger order-1 free energy than the joint
    rng = make_rng(45)
    for _ in range(1000):
        t = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        joint_entropy = _entropy(t)
        product_entropy = _entropy(_product(_marginals(t)))
        # equal energies, so the free-energy gap is the entropy gap
        assert product_entropy >= joint_entropy - 1e-12


# --- correlated efficiency bound ----------------------------------------------

def test_correlated_bound_reduced_regime():
    rep = correlated_bound_check(45.0, BC, BH, 1e-4, lambda g: g * g, samples=50, seed=5)
    assert rep.all_below_reduced_band
    assert rep.all_below_carnot_margin
    assert rep.k_vanishes_faster
    assert max(rep.etas) <= 0.2520771680377851 + 1e-2
    assert max(rep.etas) <= 1 / 3 - 5e-2


def test_correlated_bound_flags_constant_ratio():
    rep = correlated_bound_check(45.0, BC, BH, 1e-4, lambda g: g, samples=3, seed=6)
    assert not rep.k_vanishes_faster


@pytest.mark.parametrize("samples", [0, -3, 2.5, math.nan])
def test_correlated_bound_needs_a_positive_sample_count(samples):
    # no samples would pass both verdicts vacuously
    with pytest.raises(ParameterError):
        correlated_bound_check(45.0, BC, BH, 1e-4, lambda g: g * g, samples=samples)


def test_correlated_bound_requires_reduced_regime():
    with pytest.raises(RegimeError):
        correlated_bound_check(15.0, BC, BH, 1e-4, lambda g: g * g, samples=1)


def test_uncorrelated_solve_matches_plain_order_infinity_bound():
    rng = make_rng(46)
    g, eps = 1e-4, 1e-8
    st, cold, machine = sample(rng, g=g, eps=eps, k=0.0)
    from nanoheat.extensions import w_infinity_correlated

    w_corr = w_infinity_correlated(st, thermal_state(cold.spectrum, BC), machine, BH)
    inst = quasi_static_instance(cold.spectrum, BC, BH, g, eps)
    assert w_corr == pytest.approx(w_alpha(inst, Alpha.INFINITY), rel=1e-10)


# --- general battery ----------------------------------------------------------

LADDER = EnergySpectrum(tuple(float(x) for x in np.linspace(0.0, 15.0, 16)))


def make_instance(eps, e_gap=45.0, g=1e-3, k_index=10):
    batt = BatterySpec(LADDER, 0, k_index, eps)
    spec = EnergySpectrum((0.0, e_gap))
    return TransitionInstance(
        thermal_state(spec, BC), thermal_state(spec, BC - g), BH, BC, batt
    )


def test_eps_hat_frozen_value():
    assert eps_hat(1 / 15, 15.0, 0.0) == pytest.approx(0.2689414213699951, abs=1e-15)
    for beta_h in (-1.0, math.nan, math.inf):
        with pytest.raises(ParameterError):
            eps_hat(beta_h, 15.0, 0.0)


def test_general_battery_equality_below_threshold():
    rng = make_rng(47)
    for _ in range(50):
        eps = rng.uniform(1e-6, 0.2689)  # below the threshold for this ladder
        inst = make_instance(eps)
        junk = np.zeros(16)
        idx = rng.choice([i for i in range(16) if i != 10], size=5, replace=False)
        junk[idx] = rng.dirichlet(np.ones(5))
        gb = GeneralBattery(inst.battery, DiagonalState(tuple(junk), LADDER))
        res = general_battery_pair(inst, gb)
        assert res.w_inf_general == res.w_inf_simple  # bit-exact, same formula
        assert not res.junk_branch_active


def test_general_battery_example_point():
    inst = make_instance(0.1)
    junk = np.zeros(16)
    junk[0] = 1.0
    res = general_battery_pair(inst, GeneralBattery(inst.battery, DiagonalState(tuple(junk), LADDER)))
    assert res.eps_hat == pytest.approx(0.2689414213699951, abs=1e-12)
    assert res.w_inf_general == res.w_inf_simple


def test_general_battery_branch_switch_reported():
    # junk concentrated on the top rung with eps above the level bound
    inst = make_instance(0.9, g=1e-3)
    junk = np.zeros(16)
    junk[15] = 1.0
    res = general_battery_pair(inst, GeneralBattery(inst.battery, DiagonalState(tuple(junk), LADDER)))
    assert res.junk_branch_active
    assert math.isnan(res.w_inf_general)


def test_general_battery_rejects_weight_on_target():
    inst = make_instance(0.1)
    junk = np.zeros(16)
    junk[10] = 1.0
    with pytest.raises(ParameterError):
        GeneralBattery(inst.battery, DiagonalState(tuple(junk), LADDER))
