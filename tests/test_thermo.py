import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanoheat import (
    Alpha,
    CapacityError,
    DiagonalState,
    DomainError,
    EnergySpectrum,
    ParameterError,
    QubitBath,
    alpha_free_energy,
    binary_entropy,
    compose,
    renyi_divergence,
    state_moments,
    thermal_state,
)
from nanoheat.second_laws import ALPHA_GRID_MAX, ALPHA_GRID_MIN, ALPHA_GRID_POINTS
from nanoheat.thermo import _PAIRWISE_LANES, ALPHA_SEAM, BLOCK_ELEMENTS, EXP_CUT, SupportLogs, _block_sums, logsumexp

from conftest import make_rng

QUBIT = EnergySpectrum((0.0, 1.0))


def random_state(rng, spectrum):
    return DiagonalState(tuple(rng.dirichlet(np.ones(spectrum.size))), spectrum)


# --- thermal_state -----------------------------------------------------------

def test_thermal_qubit_at_log2():
    t = thermal_state(QUBIT, math.log(2))
    assert t.probs == pytest.approx((2 / 3, 1 / 3), abs=1e-15)


def test_thermal_infinite_temperature_proxy():
    t = thermal_state(QUBIT, 1e-12)
    assert t.probs == pytest.approx((0.5, 0.5), abs=1e-9)


def test_thermal_matches_direct_summation():
    spec = EnergySpectrum((0.0, 5.0, 9.0))
    t = thermal_state(spec, 0.3)
    direct = np.exp(-0.3 * spec.array)
    direct /= direct.sum()
    assert np.max(np.abs(t.array - direct)) < 1e-14


def test_thermal_rejects_nonpositive_beta():
    with pytest.raises(ParameterError):
        thermal_state(QUBIT, 0.0)
    with pytest.raises(ParameterError):
        thermal_state(QUBIT, -1.0)


def test_thermal_state_takes_numpy_scalars_as_their_python_values():
    # log_partition and classify_regime take them; the Gibbs state must too
    for beta, value in ((np.float32(0.5), 0.5), (np.int64(2), 2.0)):
        assert thermal_state(QUBIT, beta).probs == thermal_state(QUBIT, value).probs
    for beta in ("0.5", None, np.float64(math.nan), np.float32(-1.0)):
        with pytest.raises(ParameterError):
            thermal_state(QUBIT, beta)


def test_spectrum_sorted_and_validated():
    spec = EnergySpectrum((3.0, 0.0, 1.0))
    assert spec.levels == (0.0, 1.0, 3.0)
    with pytest.raises(ParameterError):
        EnergySpectrum(())
    with pytest.raises(ParameterError):
        EnergySpectrum((0.0, math.inf))


# --- state_moments -----------------------------------------------------------

def test_moments_pure_state():
    spec = EnergySpectrum((3.0,))
    s = DiagonalState((1.0,), spec)
    assert state_moments(s) == (3.0, 0.0, 0.0)


def test_moments_qubit_at_log2():
    mean, var, _ = state_moments(thermal_state(QUBIT, math.log(2)))
    assert mean == pytest.approx(1 / 3, abs=1e-15)
    assert var == pytest.approx(2 / 9, abs=1e-15)


def test_moments_uniform_entropy():
    s = DiagonalState((0.5, 0.5), QUBIT)
    assert state_moments(s)[2] == pytest.approx(math.log(2), abs=1e-15)


def test_moments_zero_prob_contributes_nothing():
    s = DiagonalState((1.0, 0.0), QUBIT)
    assert state_moments(s)[2] == 0.0


# --- binary_entropy ----------------------------------------------------------

def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(math.log(2), abs=1e-15)
    # frozen from the direct formula
    assert binary_entropy(0.01) == pytest.approx(0.056001534354847345, abs=1e-15)


def test_binary_entropy_domain():
    with pytest.raises(ParameterError):
        binary_entropy(-0.1)
    with pytest.raises(ParameterError):
        binary_entropy(1.1)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-12, max_value=0.5))
def test_binary_entropy_symmetry(eps):
    assert binary_entropy(eps) == pytest.approx(binary_entropy(1 - eps), rel=1e-12)


# --- renyi_divergence --------------------------------------------------------

def test_divergence_zero_on_identical():
    p = thermal_state(QUBIT, 0.7)
    for a in (0.0, 0.5, 1.0, 2.0, math.inf):
        assert abs(renyi_divergence(p, p, a)) < 1e-12


def test_divergence_order_zero_full_rank():
    p = DiagonalState((2 / 3, 1 / 3), QUBIT)
    q = DiagonalState((0.5, 0.5), QUBIT)
    assert renyi_divergence(p, q, 0.0) == 0.0


def test_divergence_kl_frozen_value():
    p = DiagonalState((2 / 3, 1 / 3), QUBIT)
    q = DiagonalState((0.5, 0.5), QUBIT)
    assert renyi_divergence(p, q, 1.0) == pytest.approx(0.0566330122651324, abs=1e-15)


def test_divergence_matches_direct_sums():
    rng = make_rng(1)
    spec = EnergySpectrum((0.0, 1.0, 2.5, 4.0))
    p, q = random_state(rng, spec), random_state(rng, spec)
    for a in (0.25, 0.5, 2.0, 7.0):
        direct = math.log(float(np.sum(p.array ** a * q.array ** (1 - a)))) / (a - 1)
        assert renyi_divergence(p, q, a) == pytest.approx(direct, abs=1e-12)
    direct_inf = math.log(float(np.max(p.array / q.array)))
    assert renyi_divergence(p, q, math.inf) == pytest.approx(direct_inf, abs=1e-13)


def test_divergence_rejects_bad_inputs():
    p = DiagonalState((0.5, 0.5), QUBIT)
    q = DiagonalState((1.0, 0.0), QUBIT)
    with pytest.raises(DomainError):
        renyi_divergence(p, q, 2.0)
    other = EnergySpectrum((0.0, 2.0))
    with pytest.raises(ParameterError):
        renyi_divergence(p, DiagonalState((0.5, 0.5), other), 2.0)


def test_divergence_seam_routing():
    rng = make_rng(2)
    p, q = random_state(rng, QUBIT), thermal_state(QUBIT, 0.4)
    d1 = renyi_divergence(p, q, 1.0)
    near = renyi_divergence(p, q, 1.0 + ALPHA_SEAM / 2)
    outside = renyi_divergence(p, q, 1.0 + 10 * ALPHA_SEAM)
    assert abs(near - d1) < 1e-6
    assert abs(outside - d1) < 1e-4  # smooth through the seam


def test_divergence_monotone_in_order():
    rng = make_rng(3)
    spec = EnergySpectrum((0.0, 0.7, 1.9))
    grid = list(np.arange(0.0, 64.25, 0.25)) + [math.inf]
    for _ in range(25):
        p, q = random_state(rng, spec), random_state(rng, spec)
        values = [renyi_divergence(p, q, a) for a in grid]
        assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=5),
       st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=5),
       st.sampled_from([0.0, 0.3, 1.0, 2.0, 8.0, math.inf]))
def test_divergence_nonnegative(pw, qw, a):
    n = min(len(pw), len(qw))
    spec = EnergySpectrum(tuple(float(i) for i in range(n)))
    p = DiagonalState(tuple(np.asarray(pw[:n]) / sum(pw[:n])), spec)
    q = DiagonalState(tuple(np.asarray(qw[:n]) / sum(qw[:n])), spec)
    assert renyi_divergence(p, q, a) >= -1e-12


# --- alpha_free_energy -------------------------------------------------------

def test_free_energy_of_thermal_reference():
    beta_h = 0.5
    tau = thermal_state(QUBIT, beta_h)
    target = -QUBIT.log_partition(beta_h) / beta_h
    for a in (0.0, 0.5, 1.0, 3.0, math.inf):
        assert alpha_free_energy(tau, tau, a, beta_h) == pytest.approx(target, abs=1e-12)


def test_free_energy_helmholtz_identity():
    rng = make_rng(4)
    beta_h = 0.8
    spec = EnergySpectrum((0.0, 1.3, 2.2))
    tau = thermal_state(spec, beta_h)
    for _ in range(20):
        rho = random_state(rng, spec)
        mean, _, entropy = state_moments(rho)
        helmholtz = mean - entropy / beta_h
        assert alpha_free_energy(rho, tau, 1.0, beta_h) == pytest.approx(helmholtz, abs=1e-12)


def test_free_energy_order2_against_direct_oracle():
    spec = EnergySpectrum((0.0, 2.0))
    beta_h = 0.5
    rho = thermal_state(spec, 1.0)
    tau = thermal_state(spec, beta_h)
    direct_d = math.log(float(np.sum(rho.array ** 2 / tau.array)))
    direct_f = (direct_d - math.log(float(np.sum(np.exp(-beta_h * spec.array))))) / beta_h
    assert alpha_free_energy(rho, tau, 2.0, beta_h) == pytest.approx(direct_f, abs=1e-12)


def test_free_energy_rejects_wrong_reference():
    tau_wrong = thermal_state(QUBIT, 0.9)
    rho = thermal_state(QUBIT, 1.0)
    with pytest.raises(ParameterError):
        alpha_free_energy(rho, tau_wrong, 1.0, 0.5)
    for beta_h in (math.nan, math.inf):
        with pytest.raises(ParameterError):
            alpha_free_energy(rho, rho, 1.0, beta_h)
        with pytest.raises(ParameterError):
            thermal_state(QUBIT, beta_h)
        with pytest.raises(ParameterError):
            QUBIT.log_partition(beta_h)


def test_thermal_minimizes_order1_free_energy():
    rng = make_rng(5)
    beta_h = 0.6
    spec = EnergySpectrum((0.0, 0.8, 1.7, 3.0))
    tau = thermal_state(spec, beta_h)
    floor = alpha_free_energy(tau, tau, 1.0, beta_h)
    for _ in range(1000):
        rho = random_state(rng, spec)
        assert alpha_free_energy(rho, tau, 1.0, beta_h) >= floor - 1e-12


# --- compose -----------------------------------------------------------------

def test_compose_single_part_unchanged():
    p = thermal_state(QUBIT, 0.7)
    spec, state = compose([(QUBIT, p)])
    assert spec == QUBIT
    assert np.max(np.abs(state.array - p.array)) < 1e-15


def test_compose_additivity_two_qubits():
    beta = 0.9
    p = thermal_state(QUBIT, beta)
    q = thermal_state(QUBIT, 0.3)
    _, pp = compose([(QUBIT, p), (QUBIT, p)])
    _, qq = compose([(QUBIT, q), (QUBIT, q)])
    for a in (0.5, 1.0, 2.0, math.inf):
        d2 = renyi_divergence(pp, qq, a)
        assert d2 == pytest.approx(2 * renyi_divergence(p, q, a), abs=1e-12)


def test_compose_three_qubits_matches_product_oracle():
    bath = QubitBath((1.0, 1.0, 1.0))
    beta = 0.5
    single = thermal_state(QUBIT, beta)
    spec, state = compose([(QUBIT, single)] * 3)
    assert spec == bath.spectrum()
    # brute-force product oracle, sorted the same way
    raw_levels = np.add.outer(np.add.outer([0.0, 1.0], [0.0, 1.0]).ravel(), [0.0, 1.0]).ravel()
    raw_probs = np.multiply.outer(
        np.multiply.outer(single.array, single.array).ravel(), single.array
    ).ravel()
    order = np.argsort(raw_levels, kind="stable")
    assert np.max(np.abs(state.array - raw_probs[order] / raw_probs.sum())) < 1e-15


def test_compose_capacity_guard():
    many = [(QUBIT, thermal_state(QUBIT, 1.0))] * 23
    with pytest.raises(CapacityError):
        compose(many)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.05, max_value=5.0), st.floats(min_value=0.05, max_value=5.0))
def test_constructors_preserve_normalization(beta1, beta2):
    p1 = thermal_state(QUBIT, beta1)
    p2 = thermal_state(EnergySpectrum((0.0, 0.5, 2.0)), beta2)
    assert abs(sum(p1.probs) - 1.0) < 1e-12
    _, joint = compose([(p1.spectrum, p1), (p2.spectrum, p2)])
    assert abs(sum(joint.probs) - 1.0) < 1e-12


# --- read-only arrays and the Gibbs memo ------------------------------------

def test_arrays_are_read_only():
    spectrum = EnergySpectrum((0.0, 1.0, 2.5))
    probs = np.array([0.2, 0.3, 0.5])
    state = DiagonalState(probs, spectrum)
    for arr in (spectrum.array, state.array):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert state.array is state.array and spectrum.array is spectrum.array
    probs[0] = 0.9  # the state owns a copy
    assert state.array.tolist() == [0.2, 0.3, 0.5] and probs.flags.writeable
    sums = state.gibbs_logs(0.4).grid_sums  # one block: the memo owns its copy
    assert sums.base is None and not sums.flags.writeable


def test_memos_leave_equality_hash_and_repr_alone():
    levels = (0.0, 0.7, 1.9)
    spectrum = EnergySpectrum(levels)
    state = thermal_state(spectrum, 0.4)
    texts = repr(spectrum), repr(state)
    spectrum.array, state.array
    memo = state.gibbs_logs(0.25)
    memo.grid_sums
    assert state.gibbs_logs(0.25) is memo and state.gibbs_logs(0.5).tau != memo.tau
    fresh_spectrum = EnergySpectrum(levels)
    fresh = thermal_state(fresh_spectrum, 0.4)
    assert spectrum == fresh_spectrum and hash(spectrum) == hash(fresh_spectrum)
    assert state == fresh and hash(state) == hash(fresh)
    assert (repr(spectrum), repr(state)) == texts == (repr(fresh_spectrum), repr(fresh))
    assert {state: 1}[fresh] == 1


def test_gibbs_memo_never_holds_its_own_state():
    tau = thermal_state(QUBIT, 0.5)
    memo = tau.gibbs_logs(0.5, tau)
    assert memo.tau is not tau and memo.tau == tau
    other = DiagonalState((0.9, 0.1), QUBIT)
    assert other.gibbs_logs(0.5, tau).tau is tau  # a Gibbs state handed in is shared


def test_gibbs_logs_keeps_one_memo_for_the_latest_beta():
    state = DiagonalState((0.9, 0.1), QUBIT)
    first = state.gibbs_logs(0.5)
    assert state.gibbs_logs(0.5) is first and first.beta == 0.5
    second = state.gibbs_logs(0.25)
    assert second.beta == 0.25 and state.gibbs_logs(0.25) is second
    again = state.gibbs_logs(0.5)  # the slot moved on: rebuilt, equal
    assert again is not first and again.tau == first.tau
    assert again.grid_sums.tolist() == first.grid_sums.tolist()


# --- Alpha tags --------------------------------------------------------------

def test_alpha_coercion():
    assert Alpha.of(0.0).is_zero
    assert Alpha.of(1.0).is_one
    assert Alpha.of(math.inf).is_infinity
    assert Alpha.of(2.5).value == 2.5
    assert float(Alpha.INFINITY) == math.inf
    with pytest.raises(ParameterError):
        Alpha.of(-1.0)


def test_alpha_is_its_value():
    # the value alone decides the branch; -0.0 is the order 0
    assert (Alpha(0.0), Alpha(1.0), Alpha(math.inf)) == (Alpha.ZERO, Alpha.ONE, Alpha.INFINITY)
    assert math.copysign(1.0, float(Alpha.of(-0.0))) == 1.0 and Alpha.of(-0.0).is_zero
    assert [repr(Alpha.of(x)) for x in (0.0, 1.0, math.inf, 0.5)] == [
        "Alpha.ZERO", "Alpha.ONE", "Alpha.INFINITY", "Alpha(0.5)"
    ]
    assert Alpha.of(0.5).is_finite
    assert not any(a.is_finite for a in (Alpha.ZERO, Alpha.ONE, Alpha.INFINITY))
    for bad in (math.nan, -math.inf, -1e-300):
        with pytest.raises(ParameterError):
            Alpha(bad)


def test_logsumexp_handles_edge_cases():
    assert logsumexp([]) == -math.inf
    assert logsumexp([-math.inf, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert logsumexp(np.array([[0.0, 0.0], [1.0, 1.0]]), axis=1) == pytest.approx(
        [math.log(2), 1 + math.log(2)], abs=1e-12
    )


@pytest.mark.filterwarnings("error")
def test_support_logs_of_an_underflowed_reference_do_not_warn():
    # q underflows to 0 where p has weight: lq holds -inf and no warning is raised
    logs = SupportLogs.of(np.array([0.5, 0.5, 0.0]), np.array([1.0, 0.0, 0.0]))
    assert logs.p.tolist() == [0.5, 0.5]
    assert logs.lq.tolist() == [0.0, -math.inf]


@pytest.mark.filterwarnings("error")
def test_logsumexp_rows_with_infinite_max_do_not_warn():
    # a +inf term next to large finite ones: the row is +inf, and exp is never
    # asked for e^1000; an all -inf row is -inf without a log(0)
    values = np.array([[math.inf, 1000.0, 900.0], [-math.inf, -math.inf, -math.inf], [1000.0, 999.0, 0.0]])
    out = logsumexp(values, axis=1)
    assert out[0] == math.inf and out[1] == -math.inf
    assert out[2] == pytest.approx(1000.0 + math.log(1.0 + math.exp(-1.0)), rel=1e-15)


# --- blocked column power sums -------------------------------------------------

GRID = np.geomspace(ALPHA_GRID_MIN, ALPHA_GRID_MAX, ALPHA_GRID_POINTS)[:, None]


def _qubit_logs():
    return SupportLogs.of(np.array([0.7, 0.3]), np.array([0.6, 0.4]))


def _twelve_qubit_logs():
    spectrum = QubitBath(tuple(make_rng(11).uniform(1.0, 60.0, 12))).spectrum()
    return SupportLogs.of(thermal_state(spectrum, 0.1).array, thermal_state(spectrum, 0.05).array)


def _wide_random_logs():
    # 1000 levels up to 2000: the reference underflows on part of the support
    rng = make_rng(12)
    spectrum = EnergySpectrum(tuple(rng.uniform(0.0, 2000.0, 1000)))
    logs = SupportLogs.of(random_state(rng, spectrum).array, thermal_state(spectrum, 1.0).array)
    assert np.isneginf(logs.lq).any()
    return logs


#: The lanes of the narrow supports, a prefix of them per width. At order 1,
#: where a finite lq adds 0.0, the lanes past the first are a row's shifted
#: exponents: EXP_CUT and the floats next to it, subnormal exps (-745.13,
#: -708.5) and one that is 0.0 above the cut (-745.5); the orders of a long
#: column sweep them across the cut and through the subnormal range.
NARROW_LP = np.array([
    0.0, EXP_CUT, -745.13, math.nextafter(EXP_CUT, 0.0), math.nextafter(EXP_CUT, -math.inf),
    -745.5, -708.5, -2.0,
])
NARROW_LANES = [1, 2, 3, 5, 7, 8]


def _narrow_logs(lanes, lq_neginf, seed=17):
    """A support of ``lanes`` lanes (NARROW_LP) and a column of orders that
    runs past two row blocks and ends in order 1. With lq_neginf the last lane
    has lq = -inf: orders above 1 give its row a +inf max, and order 1 makes
    it NaN."""
    lp = NARROW_LP[:lanes]
    lq = np.random.default_rng(seed + lanes).uniform(-3.0, 0.0, lanes)
    if lq_neginf:
        lq[-1] = -math.inf
    a = np.concatenate([np.geomspace(1e-6, 1e6, 2 * BLOCK_ELEMENTS // lanes + 100), [1.0]])
    return SupportLogs(np.exp(lp), np.exp(lq), lp, lq), a[:, None]


def _one_pass(logs, a):
    """The one-pass expression of log_power_sum, one row per record of a stack."""
    with np.errstate(invalid="ignore"):  # 0 * -inf at order 1
        return logsumexp(a * logs.lp + (1.0 - a) * logs.lq, axis=-1)


def _narrow_cases():
    for lanes in NARROW_LANES:
        for lq_neginf in (False, True):
            yield pytest.param(
                lambda lanes=lanes, lq_neginf=lq_neginf: _narrow_logs(lanes, lq_neginf), 3,
                lanes > 1 and not lq_neginf, id=f"{lanes}-lanes-{'neginf' if lq_neginf else 'finite'}-lq")


@pytest.mark.parametrize(
    "make, blocks, both_exp_paths",
    [pytest.param(lambda: (_qubit_logs(), GRID), 1, False, id="qubit-one-block"),
     pytest.param(lambda: (_twelve_qubit_logs(), GRID), 50, True, id="4096-levels-full-blocks"),
     pytest.param(lambda: (_wide_random_logs(), GRID), 13, False, id="1000-levels-partial-block"),
     *_narrow_cases()],
)
def test_blocked_power_sum_equals_the_one_pass_expression(make, blocks, both_exp_paths):
    logs, a = make()
    rows = BLOCK_ELEMENTS // logs.lp.size
    assert math.ceil(len(a) / rows) == blocks
    if both_exp_paths:
        # blocks whose every lane is at or above the cut take the plain exp,
        # blocks that straddle it the masked one
        shifted, _ = _shifted(logs, a)
        kept = [(block >= EXP_CUT).all() for block in np.split(shifted, range(rows, len(a), rows))]
        assert any(kept) and not all(kept)
    # where lq is -inf, orders above 1 sum to +inf, and exp overflows on the
    # way; order 1 makes a NaN lane there (0 * -inf)
    nan_lane = np.isneginf(logs.lq).any() and (a == 1.0).any()
    with np.errstate(over="ignore", invalid="ignore" if nan_lane else "warn"):
        sums, one_pass = logs.log_power_sum(a), _one_pass(logs, a)
    assert sums.tobytes() == one_pass.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lanes", NARROW_LANES)
def test_narrow_columns_meet_every_edge_of_the_kernel(lanes):
    # what the narrow cases of the test above hold: rows at and around the cut,
    # subnormal terms, +inf rows next to finite ones, and a NaN row
    finite, a = _narrow_logs(lanes, False)
    assert len(a) > BLOCK_ELEMENTS // lanes
    shifted, finite_rows = _shifted(finite, a)
    assert finite_rows.all()
    if lanes >= 2:
        assert (shifted[-1] == EXP_CUT).any()  # order 1 puts NARROW_LP itself in a row
        assert ((shifted >= EXP_CUT) & (shifted < -745.13)).any()  # exp gives 0.0
        assert ((shifted < EXP_CUT) & np.isfinite(shifted)).any()  # skipped lanes
    if lanes >= 3:
        assert ((shifted > -745.14) & (shifted < -708.39)).any()  # exp gives a subnormal
    neginf, a = _narrow_logs(lanes, True)
    with np.errstate(invalid="ignore"):  # 0 * -inf at order 1
        x = a * neginf.lp + (1.0 - a) * neginf.lq
    top = x.max(axis=1)
    assert np.isneginf(x).any() and np.isnan(top[-1])
    assert (top == math.inf).any()
    if lanes >= 2:
        assert np.isfinite(top).any()  # one lane of -inf lq leaves the others finite


def test_add_reduce_folds_rows_under_the_pairwise_lanes_from_the_left():
    # np.add.reduce over a last axis of fewer than _PAIRWISE_LANES lanes (the
    # one-pass sum of a narrow row) adds them from the left, t0 + t1 + ..., and
    # from that width on sums pairwise; over the first axis (the column path's
    # lanes-first layout) it and np.maximum.reduce take the lanes from the left
    # at any width, so under _PAIRWISE_LANES both layouts give the same bits
    t = np.random.default_rng(18).uniform(0.0, 1.0, (4000, _PAIRWISE_LANES + 1))
    for lanes in range(1, _PAIRWISE_LANES + 2):
        fold, running_max = t[:, 0].copy(), t[:, 0].copy()
        for j in range(1, lanes):
            fold += t[:, j]
            np.maximum(running_max, t[:, j], out=running_max)
        same = np.add.reduce(t[:, :lanes], axis=-1).tobytes() == fold.tobytes()
        assert same == (lanes < _PAIRWISE_LANES), lanes
        first = np.ascontiguousarray(t[:, :lanes].T)
        assert np.add.reduce(first, axis=0).tobytes() == fold.tobytes(), lanes
        assert np.maximum.reduce(first, axis=0).tobytes() == running_max.tobytes(), lanes


def test_blocked_power_sum_keeps_a_wide_grid_call_small():
    logs = _twelve_qubit_logs()
    tracemalloc.start()
    try:
        logs.log_power_sum(GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6  # the one-pass grid needs about 37 MB


# --- the masked exp of the column path -----------------------------------------

#: Shifted exponents at and around the cut, in the subnormal range of exp and
#: far below it; with lp = these, lq = 0 and order 1 they are a row's exponents.
CUT_LANES = np.array([
    0.0, -1.0, -708.3, -708.5, -720.0, -745.13, -745.14, -745.5,
    math.nextafter(EXP_CUT, 0.0), EXP_CUT, math.nextafter(EXP_CUT, -math.inf),
    -746.5, -800.0, -1e5, -math.inf,
])


def _cut_logs(lq_neginf):
    # 1000 lanes: the ones above plus a spread that the orders of GRID sweep
    # across the cut and through the subnormal range; 32 rows a block, so the
    # last block of GRID is partial
    rng = np.random.default_rng(14)
    lp = np.concatenate([CUT_LANES, -np.geomspace(1e-3, 2e3, 1000 - CUT_LANES.size)])
    lq = rng.uniform(-3.0, 0.0, lp.size) if lq_neginf else np.zeros(lp.size)
    if lq_neginf:
        lq[[3, 500, 999]] = -math.inf  # orders above 1 put +inf there: the row max is +inf
    return SupportLogs(np.exp(lp), np.exp(lq), lp, lq)


def _shifted(logs, a):
    x = a * logs.lp + (1.0 - a) * logs.lq
    top = x.max(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):  # inf - inf in the +inf rows
        return x - top, np.isfinite(top[:, 0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lq_neginf", [False, True], ids=["finite-lq", "neginf-lq"])
def test_masked_power_sum_keeps_the_bytes_at_the_cut(lq_neginf):
    logs = _cut_logs(lq_neginf)
    # order 1 only where 0 * lq is 0, i.e. where lq is finite
    a = GRID if lq_neginf else np.concatenate([GRID, [[1.0]]])
    shifted, finite_rows = _shifted(logs, a)
    s = shifted[finite_rows]
    assert len(a) % (BLOCK_ELEMENTS // logs.lp.size) != 0  # a partial last block
    assert ((s >= EXP_CUT) & (s < -745.13)).any()  # exp gives 0.0
    assert ((s > -745.13) & (s < -708.39)).any()  # exp gives a subnormal
    assert ((s < EXP_CUT) & np.isfinite(s)).any() and np.isneginf(s).any()  # skipped lanes
    if lq_neginf:
        assert finite_rows.any() and not finite_rows.all()  # +inf rows next to finite ones
    else:
        assert (s == EXP_CUT).any()  # order 1 puts CUT_LANES themselves in a row
        assert ((s >= EXP_CUT).sum(axis=1) == 1).any()  # every lane but the max underflows
    one_pass = logsumexp(a * logs.lp + (1.0 - a) * logs.lq, axis=1)
    assert logs.log_power_sum(a).tobytes() == one_pass.tobytes()


def test_exp_is_zero_at_and_below_the_cut():
    # the column path gives these lanes 0.0 without calling exp; a numpy whose
    # exp returned anything else here would move bits, so this pins it
    below = np.concatenate([
        [EXP_CUT, math.nextafter(EXP_CUT, -math.inf), -math.inf],
        EXP_CUT - np.geomspace(1e-12, 1e5, 100_001),
    ])
    values = np.exp(below)
    assert not values.any() and not np.signbit(values).any()
    assert np.exp(-745.13) > 0.0  # and the cut is not above exp's last nonzero result


def test_column_power_sum_allocates_no_block_sized_temporaries():
    logs = _twelve_qubit_logs()  # 4096 levels: 8 rows a block, 50 blocks
    tracemalloc.start()
    try:
        logs.log_power_sum(GRID)
        column_peak = tracemalloc.get_traced_memory()[1]
        rows = BLOCK_ELEMENTS // logs.lp.size
        x, term = np.empty((2, rows, logs.lp.size))
        keep, top = np.empty(x.shape, dtype=bool), np.empty((rows, 1))
        tracemalloc.reset_peak()
        _block_sums(GRID[:rows], logs.lp, logs.lq, x, term, keep, top)
        block_peak = tracemalloc.get_traced_memory()[1] - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert column_peak < 1e6  # the two buffers and the mask: 0.56 MB
    # a block of doubles is 256 KiB; what a block allocates on its own is
    # row-sized (1.5 KB): the row shift runs in a buffer of one row, without
    # the 64 KiB buffer numpy's iterator takes at its default size
    assert block_peak < BLOCK_ELEMENTS * 8 / 2


def test_column_power_sum_leaves_numpy_state_as_it_found_it():
    # the row shift sets numpy's ufunc buffer size in a scope of its own; the
    # caller's buffer size and error handling hold after the call, at numpy's
    # defaults and inside the caller's own settings
    logs = _twelve_qubit_logs()
    one_pass = logsumexp(GRID * logs.lp + (1.0 - GRID) * logs.lq, axis=1)

    def check():
        before = np.getbufsize(), np.geterr()
        sums = logs.log_power_sum(GRID)
        assert (np.getbufsize(), np.geterr()) == before
        assert sums.tobytes() == one_pass.tobytes()

    check()
    with np.errstate(over="ignore"):
        np.setbufsize(16_384)
        check()
        assert np.getbufsize() == 16_384 and np.geterr()["over"] == "ignore"


# --- stacked records --------------------------------------------------------------

def _cold_pair_logs(levels, make):
    # a cold Gibbs state and a final state against the hot Gibbs state, as a solve has them
    spectrum = EnergySpectrum(levels)
    q = thermal_state(spectrum, 1 / 15).array
    return (SupportLogs.of(thermal_state(spectrum, 0.1).array, q),
            SupportLogs.of(make(spectrum).array, q))


def _qubit_pair():
    return _cold_pair_logs((0.0, 15.0), lambda s: thermal_state(s, 0.1 - 1e-5)), GRID


def _three_level_pair():
    return _cold_pair_logs((0.0, 2.0, 7.5), lambda s: random_state(make_rng(15), s)), GRID


def _twelve_qubit_pair():
    # 4096 levels: 4 rows a stacked block, so 63 orders end in a partial block
    spectrum = QubitBath(tuple(make_rng(11).uniform(1.0, 60.0, 12))).spectrum()
    return _cold_pair_logs(spectrum.levels, lambda s: thermal_state(s, 0.099)), GRID[::6][:63]


def _cut_pair():
    # lanes across EXP_CUT, and -inf lq that gives the second record's rows
    # above order 1 a +inf max; the first record's rows share their blocks
    return (_cut_logs(False), _cut_logs(True)), GRID


def _cut_lanes_pair():
    # order 1 puts CUT_LANES themselves, EXP_CUT and the float below it
    # included, in a row of each record, in opposite lane orders
    first = _cut_logs(False)
    return (first, SupportLogs(*(field[::-1] for field in first))), np.concatenate([GRID, [[1.0]]])


def _narrow_pairs():
    # a finite record stacked on one with -inf lq: blocks hold +inf and NaN
    # rows of the second record next to finite rows of the first
    for lanes in NARROW_LANES:
        def make(lanes=lanes):
            (first, a), (second, _) = _narrow_logs(lanes, False), _narrow_logs(lanes, True, seed=19)
            return (first, second), a
        yield pytest.param(make, id=f"{lanes}-lanes")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "make_pair",
    [pytest.param(_qubit_pair, id="qubit"),
     pytest.param(_three_level_pair, id="3-levels"),
     pytest.param(_twelve_qubit_pair, id="4096-levels-partial-block"),
     pytest.param(_cut_pair, id="cut-and-inf-rows"),
     pytest.param(_cut_lanes_pair, id="cut-lanes-at-order-1"),
     *_narrow_pairs()],
)
def test_stacked_power_sums_equal_the_per_record_calls(make_pair):
    (first, second), a = make_pair()
    stacked = SupportLogs.stack([first, second])
    assert stacked.lp.shape == (2, 1, first.lp.size)
    nan_lane = np.isneginf(second.lq).any() and (a == 1.0).any()
    with np.errstate(invalid="ignore" if nan_lane else "warn"):  # 0 * -inf at order 1
        sums = stacked.log_power_sum(a)
        per_record = first.log_power_sum(a), second.log_power_sum(a)
    assert sums.shape == (2, len(a))
    assert sums[0].tobytes() == per_record[0].tobytes()
    assert sums[1].tobytes() == per_record[1].tobytes()
    assert sums.tobytes() == _one_pass(stacked, a).tobytes()
