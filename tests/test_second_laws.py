import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanoheat import (
    Alpha,
    BatterySpec,
    ConstraintViolationError,
    DiagonalState,
    EnergySpectrum,
    ParameterError,
    QubitBath,
    TransitionInstance,
    max_extractable_work,
    no_perfect_work,
    quasi_static_instance,
    thermal_state,
    transition_feasible,
    w_alpha,
)
from nanoheat import second_laws
from nanoheat.second_laws import _w_one, work_curve_values
from nanoheat.thermo import EXP_CUT, SupportLogs

from conftest import make_rng

QUBIT = EnergySpectrum((0.0, 1.0))


def battery(eps, w=1.0):
    return BatterySpec(EnergySpectrum((0.0, w)), 0, 1, eps)


def still_instance(eps, beta_c=1.0, beta_h=0.5, spectrum=QUBIT):
    """Instance with unchanged cold bath; only the battery terms contribute."""
    t = thermal_state(spectrum, beta_c)
    return TransitionInstance(t, t, beta_h, beta_c, battery(eps))


# --- w_alpha -----------------------------------------------------------------

def test_w_alpha_zero_everywhere_for_perfect_still_instance():
    inst = still_instance(0.0)
    for a in (0.3, 1.0, 2.0, 10.0, math.inf):
        assert w_alpha(inst, a) == pytest.approx(0.0, abs=1e-14)


def test_w_alpha_battery_only_frozen_values():
    # unchanged cold bath, eps = 0.01, beta_h -> 1: only the battery terms remain
    t = thermal_state(QUBIT, 1.0)
    inst = TransitionInstance(t, t, 1.0 - 1e-12, 1.0, battery(0.01))
    assert w_alpha(inst, Alpha.ONE) == pytest.approx(0.05656720641903772, rel=1e-9)
    assert w_alpha(inst, Alpha.INFINITY) == pytest.approx(0.01005033585350145, rel=1e-9)


def test_w_alpha_zero_order_tags():
    assert w_alpha(still_instance(0.01), Alpha.ZERO) == math.inf
    assert w_alpha(still_instance(0.0), Alpha.ZERO) == 0.0


def test_w_alpha_matches_independent_log_domain_oracle():
    beta_c, beta_h, g, eps, a = 1.0, 0.5, 1e-3, 1e-6, 2.0
    inst = quasi_static_instance(QUBIT, beta_c, beta_h, g, eps)
    p = thermal_state(QUBIT, beta_c).array
    pp = thermal_state(QUBIT, beta_c - g).array
    q = thermal_state(QUBIT, beta_h).array
    big_a = float(np.sum(p ** a * q ** (1 - a)) / np.sum(pp ** a * q ** (1 - a)))
    oracle = (math.log(big_a - eps ** a) - a * math.log1p(-eps)) / (beta_h * (a - 1))
    assert w_alpha(inst, a) == pytest.approx(oracle, abs=1e-10)


def test_w_alpha_continuous_across_order_one_seam():
    for inst in (
        quasi_static_instance(EnergySpectrum((0.0, 15.0)), 0.1, 1 / 15, 1e-5, 1e-10),
        quasi_static_instance(QUBIT, 1.0, 0.5, 1e-3, 1e-6),
    ):
        for a in (1.0 + 1e-4, 1.0 - 1e-4):
            generic = w_alpha(inst, a)
            seam = float(work_curve_values(inst, np.array([1.0 + 1e-8 if a > 1 else 1.0 - 1e-8]))[0])
            # the seam branch is the order-1 value plus its first-order slope
            slope = (seam - _w_one(inst)) / (1e-8 if a > 1 else -1e-8)
            corrected = _w_one(inst) + (a - 1.0) * slope
            assert abs(generic - corrected) <= 1e-6 * abs(generic)


def test_w_alpha_blows_up_toward_order_zero():
    inst = quasi_static_instance(EnergySpectrum((0.0, 15.0)), 0.1, 1 / 15, 1e-5, 1e-10)
    solved = max_extractable_work(inst)
    assert w_alpha(inst, 1e-6) > 1e3 * solved.w_ext


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e-9, max_value=0.2), st.floats(min_value=1.2, max_value=4.0))
def test_w_ext_monotone_in_eps(eps, factor):
    inst_lo = quasi_static_instance(QUBIT, 1.0, 0.5, 1e-2, eps)
    inst_hi = quasi_static_instance(QUBIT, 1.0, 0.5, 1e-2, min(eps * factor, 0.4))
    assert max_extractable_work(inst_hi).w_ext >= max_extractable_work(inst_lo).w_ext - 1e-12


# --- max_extractable_work ----------------------------------------------------

def test_solver_requires_positive_eps():
    with pytest.raises(ParameterError):
        max_extractable_work(still_instance(0.0))


def test_solver_quasistatic_carnot_regime():
    # E=15 at T=(15,10) with eps = g^2: the infimum sits at an interior order
    # above the family's decay exponent; the exact value exceeds the
    # leading-order prediction by the slowly vanishing eps^alpha/g correction
    spec = EnergySpectrum((0.0, 15.0))
    g = 1e-5
    inst = quasi_static_instance(spec, 0.1, 1 / 15, g, g * g)
    result = max_extractable_work(inst)
    from nanoheat.nano import gamma

    predicted = g / (1 / 15) * gamma(15.0, 0.1, 1 / 15, 0.5)
    assert result.argmin_alpha.is_finite
    assert 0.5 < float(result.argmin_alpha) < 1.0
    assert predicted < result.w_ext < 1.6 * predicted
    assert result.w_ext <= result.curve.w_one + 1e-15
    assert result.refinement_width <= 1e-8


def test_solver_reduced_regime_argmin_infinity():
    spec = EnergySpectrum((0.0, 45.0))
    g = 1e-5
    inst = quasi_static_instance(spec, 0.1, 1 / 15, g, g * g)
    result = max_extractable_work(inst)
    assert result.argmin_alpha.is_infinity
    assert result.w_ext == pytest.approx(result.curve.w_infinity, rel=1e-12)
    # dense-grid oracle: no sampled order lies below the endpoint value
    assert all(w >= result.w_ext - 1e-15 for _, w in result.curve.samples)


@pytest.mark.parametrize(
    "spectrum, t_cold, t_hot, g, eps",
    [
        (QUBIT, 1.0, 2.0, 1e-3, 1e-6),
        # cold bath with beta_c E ~ 16: W_alpha at large orders is rounding
        # noise, and the refinement ends above the grid minimum it started from
        (EnergySpectrum((0.0, 18.6)), 1.19, 52.0, 1e-5, 1e-10),
    ],
    ids=["qubit", "noisy-tail"],
)
def test_solver_result_bounds_every_sample(spectrum, t_cold, t_hot, g, eps):
    inst = quasi_static_instance(spectrum, 1.0 / t_cold, 1.0 / t_hot, g, eps)
    result = max_extractable_work(inst)
    curve = result.curve
    assert result.w_ext <= min([w for _, w in curve.samples] + [curve.w_one, curve.w_infinity])
    assert curve.w_zero_plus == math.inf


def test_solver_honors_lower_cutoff():
    inst = quasi_static_instance(EnergySpectrum((0.0, 15.0)), 0.1, 1 / 15, 1e-5, 1e-10)
    free = max_extractable_work(inst)
    cut = max_extractable_work(inst, alpha_min=0.9)
    assert cut.w_ext >= free.w_ext - 1e-15


def test_w_alpha_balances_materialized_joint_condition():
    # end-to-end oracle for the battery cancellation: materialize the
    # cold (x) battery composite at the solved gap and check the divergence
    # balance holds with equality there, is slack below, and fails above
    from nanoheat import compose, renyi_divergence

    beta_c, beta_h, g, eps = 1.0, 0.5, 1e-2, 0.05
    inst = quasi_static_instance(QUBIT, beta_c, beta_h, g, eps)

    def balance(order, w):
        batt_spec = EnergySpectrum((0.0, w))
        joint_spec, joint0 = compose([
            (QUBIT, inst.cold_initial),
            (batt_spec, DiagonalState((1.0, 0.0), batt_spec)),
        ])
        _, joint1 = compose([
            (QUBIT, inst.cold_final),
            (batt_spec, DiagonalState((eps, 1.0 - eps), batt_spec)),
        ])
        tau = thermal_state(joint_spec, beta_h)
        return renyi_divergence(joint0, tau, order) - renyi_divergence(joint1, tau, order)

    for order in (0.5, 2.0, 7.0, Alpha.ONE, Alpha.INFINITY):
        w_star = w_alpha(inst, order)
        assert abs(balance(order, w_star)) < 1e-10
        assert balance(order, w_star - 1e-3) > 0  # slack: transition allowed
        assert balance(order, w_star + 1e-3) < 0  # over-asking: forbidden


def test_solver_copies_route_equals_composed_spectrum_route():
    # per-copy additivity against the materialized 3-qubit composite
    from nanoheat import compose

    beta_c, beta_h, g, eps = 0.1, 1 / 15, 1e-4, 1e-8
    spec = EnergySpectrum((0.0, 15.0))
    per_copy = quasi_static_instance(spec, beta_c, beta_h, g, eps, copies=3)
    big_spec, _ = compose([(spec, thermal_state(spec, beta_c))] * 3)
    composed = TransitionInstance(
        thermal_state(big_spec, beta_c),
        thermal_state(big_spec, beta_c - g),
        beta_h,
        beta_c,
        battery(eps),
    )
    for a in (0.3, 0.9, 2.0, 50.0, Alpha.ONE, Alpha.INFINITY):
        assert w_alpha(per_copy, a) == pytest.approx(w_alpha(composed, a), rel=1e-11)
    assert max_extractable_work(per_copy).w_ext == pytest.approx(
        max_extractable_work(composed).w_ext, rel=1e-10
    )


# --- the golden-section refinement -------------------------------------------

def one_point_golden_section(f, lo, hi, tol=second_laws.REFINE_WIDTH, max_iter=200):
    """Reference: the refinement with one evaluation per point, as before batching."""
    a, b = lo, hi
    x1 = b - second_laws._GOLDEN * (b - a)
    x2 = a + second_laws._GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    it = 0
    while b - a > tol and it < max_iter:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - second_laws._GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + second_laws._GOLDEN * (b - a)
            f2 = f(x2)
        it += 1
    x = 0.5 * (a + b)
    return x, min(f1, f2), b - a


def recorded(f):
    """f plus the list of points it was called at, in order."""
    visits = []

    def g(x):
        visits.append(x)
        return f(x)

    return g, visits


def batched_golden_section(f_many, lo, hi, depth, **kw):
    """Run the batched search; return its result and the batches it asked for."""
    batches = []

    def record(points):
        batches.append(list(points))
        return f_many(points)

    return second_laws._golden_section(record, lo, hi, depth, **kw), batches


def assert_replays(visits, batches, depth):
    """Each batch is asked for when the one-point search first needs a point
    outside the earlier batches, and it starts with that point. That happens
    every ``depth`` steps or later (the first batch holds the starting pair
    too); later where a step meets a point another branch already evaluated."""
    evaluated = set()
    pending = iter(batches)
    heads = []
    for i, x in enumerate(visits):
        if x not in evaluated:
            batch = next(pending)
            assert batch[0] == x
            evaluated.update(batch)
            heads.append(i)
    assert next(pending, None) is None
    gaps = [j - i for i, j in zip(heads, heads[1:])]
    assert all(gap >= depth for gap in gaps)
    assert depth == 1 or not gaps or gaps[0] >= depth + 1


def recursive_probe_tree(a, b, x1, x2, steps):
    """Reference: the probe tree as first defined, depth first."""
    if steps <= 0 or not b - a > second_laws.REFINE_WIDTH:
        return []
    lx1 = x2 - second_laws._GOLDEN * (x2 - a)
    rx2 = x1 + second_laws._GOLDEN * (b - x1)
    return (
        [lx1] + recursive_probe_tree(a, x2, lx1, x1, steps - 1)
        + [rx2] + recursive_probe_tree(x1, b, x2, rx2, steps - 1)
    )


@pytest.mark.parametrize("steps", range(1, 8))
def test_flat_probe_tree_holds_the_points_of_the_recursive_one(steps):
    rng = make_rng(40 + steps)
    for k in range(60):
        # widths from well above REFINE_WIDTH down to where the tree is cut short
        near = second_laws.REFINE_WIDTH * 10 ** rng.uniform(-0.5, 2.0)
        width = near if k % 2 else 10 ** rng.uniform(-6, 1)
        a = rng.uniform(-14.0, 14.0)
        b = a + width
        x1 = b - second_laws._GOLDEN * (b - a)
        x2 = a + second_laws._GOLDEN * (b - a)
        flat = second_laws._probe_tree(a, b, x1, x2, steps)
        assert sorted(flat) == sorted(recursive_probe_tree(a, b, x1, x2, steps))
    full = second_laws._probe_tree(0.0, 1.0, 1 - second_laws._GOLDEN, second_laws._GOLDEN, steps)
    assert len(full) == 2 ** (steps + 1) - 2


def test_speculation_depth_follows_the_spectrum_size():
    depth = second_laws._speculation_depth
    budget = second_laws.SPECULATION_BUDGET
    assert [depth(n) for n in (2, 8, 64, 4096)] == [6, 4, 1, 1]
    for n in range(1, 200):
        d = depth(n)
        assert d == 1 or (2 ** d - 1) * n <= budget
        assert (2 ** (d + 1) - 1) * n > budget


def test_batched_refinement_replays_the_one_point_search(monkeypatch):
    rng = make_rng(8)
    searches = []
    batched = second_laws._golden_section

    def spy(f_many, lo, hi, depth):
        searches.append((f_many, lo, hi, depth))
        return batched(f_many, lo, hi, depth)

    monkeypatch.setattr(second_laws, "_golden_section", spy)
    for k in range(200):
        spec = QubitBath(tuple(rng.uniform(0.5, 60.0, int(rng.integers(1, 4))))).spectrum()
        t_cold = rng.uniform(1.0, 19.5)
        t_hot = rng.uniform(max(5.5, 1.05 * t_cold), 60.0)
        g = 10 ** rng.uniform(-7, -3)
        eps = g * g if k % 2 else 10 ** rng.uniform(-14, -2)
        inst = quasi_static_instance(spec, 1 / t_cold, 1 / t_hot, g, eps, int(rng.integers(1, 4)))
        result = max_extractable_work(inst, alpha_min=0.5 if k % 4 < 2 else 1e-6)
        f_many, lo, hi, depth = searches.pop()
        assert depth == second_laws._speculation_depth(spec.size)

        def f(u):
            v = float(work_curve_values(inst, np.array([math.exp(u)]))[0])
            return v if math.isfinite(v) else second_laws._BIG

        f, visits = recorded(f)
        expected = one_point_golden_section(f, lo, hi)
        got, batches = batched_golden_section(f_many, lo, hi, depth)
        assert got == expected
        assert result.refinement_width == expected[2]
        assert_replays(visits, batches, depth)
        assert max(len(batch) for batch in batches) <= 2 ** depth


SYNTHETIC_CURVES = {
    "bowl": lambda x: (x - 0.3) ** 2,
    # every comparison ties
    "flat": lambda x: 1.0,
    # stairs: long runs of f1 == f2
    "stairs": lambda x: abs(math.floor(16.0 * x) - 5.0),
    # the unbounded orders of a curve, clamped to _BIG
    "big-plateau": lambda x: second_laws._BIG if x < 0.62 else x,
}


@pytest.mark.parametrize("max_iter", [200, 9])
@pytest.mark.parametrize("depth", [1, 2, 6, 7])
@pytest.mark.parametrize("curve", sorted(SYNTHETIC_CURVES))
def test_batched_refinement_synthetic_curves(curve, depth, max_iter):
    f, visits = recorded(SYNTHETIC_CURVES[curve])
    expected = one_point_golden_section(f, 0.0, 1.0, max_iter=max_iter)
    got, batches = batched_golden_section(
        lambda points: [SYNTHETIC_CURVES[curve](x) for x in points], 0.0, 1.0, depth, max_iter=max_iter
    )
    assert got == expected
    assert_replays(visits, batches, depth)
    if depth == 1:
        assert all(len(batch) == 1 for batch in batches)


@pytest.mark.parametrize("bad", ["every-unvisited", "one-in-third-batch"])
def test_batched_refinement_error_on_an_unvisited_branch_does_not_raise(bad):
    # a batch holding a "bad" order raises, as work_curve_values does for
    # A <= eps^alpha at an order >= 1; the one-point search never visits it
    bowl = SYNTHETIC_CURVES["bowl"]
    f, visits = recorded(bowl)
    expected = one_point_golden_section(f, 0.0, 1.0)
    visited = set(visits)
    if bad == "every-unvisited":
        bad_points = None
    else:
        _, batches = batched_golden_section(lambda points: [bowl(x) for x in points], 0.0, 1.0, 6)
        bad_points = {next(x for x in batches[2] if x not in visited)}

    def is_bad(x):
        return x not in visited if bad_points is None else x in bad_points

    def f_many(points):
        if any(is_bad(x) for x in points):
            raise ConstraintViolationError("bad order")
        return [bowl(x) for x in points]

    got, _ = batched_golden_section(f_many, 0.0, 1.0, 6)
    assert got == expected


def test_batched_refinement_error_on_a_visited_point_raises():
    bowl = SYNTHETIC_CURVES["bowl"]
    f, visits = recorded(bowl)
    one_point_golden_section(f, 0.0, 1.0)
    bad = visits[20]

    def f_many(points):
        if bad in points:
            raise ConstraintViolationError("bad order")
        return [bowl(x) for x in points]

    with pytest.raises(ConstraintViolationError):
        batched_golden_section(f_many, 0.0, 1.0, 6)


# --- the batched bisection ----------------------------------------------------

def one_point_bisect(root_above, lo, hi):
    """Reference: the bisection with one predicate call per step, as before batching."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if root_above(mid):
            lo = mid
        else:
            hi = mid


BISECTION_PREDICATES = {
    "root-at-0.3": lambda x: x < 0.3,
    # no monotone pattern: the answer hangs on the bits of x
    "hashed": lambda x: hash(x) % 3 == 0,
    "always-above": lambda x: True,
    "never-above": lambda x: False,
}

BRACKETS = {
    "unit": (0.0, 1.0),
    "across-zero": (-1e3, 1e-300),
    "orders": (1e-3, 1e3),
    "adjacent-floats": (1.0, math.nextafter(1.0, 2.0)),
}


@pytest.mark.parametrize("depth", [1, 2, 6, 7, 10])
@pytest.mark.parametrize("bracket", sorted(BRACKETS))
@pytest.mark.parametrize("predicate", sorted(BISECTION_PREDICATES))
def test_batched_bisection_replays_the_one_point_search(predicate, bracket, depth):
    above = BISECTION_PREDICATES[predicate]
    lo, hi = BRACKETS[bracket]
    recorded_above, visits = recorded(above)
    expected = one_point_bisect(recorded_above, lo, hi)
    batches = []

    def above_many(points):
        batches.append(list(points))
        return [above(x) for x in points]

    assert second_laws._bisect_many(above_many, lo, hi, depth) == expected
    assert second_laws._bisect(above, lo, hi) == expected
    # a batch every depth steps, starting with the point that step needs: its
    # midpoint lies strictly inside its bracket, where no earlier batch has a point
    assert [batch[0] for batch in batches] == visits[::depth]
    assert all(len(batch) <= 2 ** depth - 1 for batch in batches)
    assert set(visits) <= {x for batch in batches for x in batch}


def tree_only_bisect_many(above_many, lo, hi, depth):
    """Reference: the batched bisection without a hint, one tree of the next
    ``depth`` steps per call."""
    known = {}
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if mid not in known:
            points = second_laws._bisection_tree(lo, hi, depth)
            known.update(zip(points, above_many(points)))
        if known[mid]:
            lo = mid
        else:
            hi = mid


NOISE = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-300, -1.0, 1.0, 1e300, -1e300)

#: Hints named by where they lie, from the bracket (lo, hi) and the crossing;
#: a float hint is a share of the bracket instead, inside it for shares in
#: (0, 1), outside it, far outside, NaN or infinite otherwise.
NAMED_HINTS = {
    "lo": lambda lo, hi, root: lo,
    "hi": lambda lo, hi, root: hi,
    "root": lambda lo, hi, root: root,
    "ulp below": lambda lo, hi, root: math.nextafter(root, -math.inf),
    "ulp above": lambda lo, hi, root: math.nextafter(root, math.inf),
    "far": lambda lo, hi, root: root + 1e6 * (hi - lo),
    "nan": lambda lo, hi, root: math.nan,
    "inf": lambda lo, hi, root: math.inf,
    "-inf": lambda lo, hi, root: -math.inf,
    "none": lambda lo, hi, root: None,
}

@settings(max_examples=300, deadline=None)
@given(
    lo=st.floats(min_value=-1e3, max_value=1e3),
    width=st.floats(min_value=1e-12, max_value=1e3),
    where=st.floats(min_value=0.0, max_value=1.0),
    band=st.integers(min_value=0, max_value=600),
    scale=st.floats(min_value=1e-300, max_value=1e300),
    bend=st.floats(min_value=-0.9, max_value=10.0),
    up=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32),
    depth=st.sampled_from([1, 2, 6]),
    hint=st.one_of(st.sampled_from(sorted(NAMED_HINTS)),
                   st.floats(min_value=-0.5, max_value=1.5), st.floats()),
)
def test_a_hint_only_advises_the_guided_bisection(lo, width, where, band, scale, bend, up,
                                                  seed, depth, hint):
    # A noisy crossing: a bracket (lo, lo + width), the root's place in it, the
    # ulps of noise around it, the scale, curvature and direction of the values
    # and the seed of the noise; the search depth and a hint (a NAMED_HINTS key,
    # "none" among them, or a share of the bracket). The hinted search ends at
    # the one-point search's root and makes no more calls than the tree-only one
    hi = lo + width
    root = lo + where * (hi - lo)
    noisy = band * math.ulp(root)

    def above(x):
        # a curved function with its sign change at root, answering at random
        # within `band` ulps of it: wrong signs, NaN, infinities and zeros
        if abs(x - root) <= noisy:
            v = NOISE[hash((x, seed)) % len(NOISE)]
        else:
            t = (x - lo) / (hi - lo)
            v = (1.0 if up else -1.0) * scale * (root - x) * (1.0 + bend * t * t)
        return (v > 0) == up

    hinted_calls, tree_calls = [], []

    def hinted_many(points):
        hinted_calls.append(len(points))
        return [above(x) for x in points]

    def above_many(points):
        tree_calls.append(len(points))
        return [above(x) for x in points]

    hint = NAMED_HINTS[hint](lo, hi, root) if isinstance(hint, str) else lo + hint * (hi - lo)
    expected = second_laws._bisect(above, lo, hi)
    assert second_laws._bisect_many(hinted_many, lo, hi, depth, hint) == expected
    assert tree_only_bisect_many(above_many, lo, hi, depth) == expected
    assert len(hinted_calls) <= len(tree_calls)


def test_qubit_solve_batches_its_refinement(monkeypatch):
    calls = []
    curve = second_laws.work_curve_values

    def counted(inst, alphas):
        calls.append(len(alphas))
        return curve(inst, alphas)

    monkeypatch.setattr(second_laws, "work_curve_values", counted)
    max_extractable_work(quasi_static_instance(EnergySpectrum((0.0, 15.0)), 0.1, 1 / 15, 1e-5, 1e-10))
    # the 400-order grid, then the refinement in batches of at most 64 orders
    assert calls[0] == second_laws.ALPHA_GRID_POINTS
    assert len(calls) <= 8 and max(calls[1:]) <= 64


def test_solve_leaves_no_reference_cycles():
    # a cycle would keep the instance and its arrays alive until the next
    # collection; on 4096-level baths that raised the peak memory by a third
    import gc

    inst = quasi_static_instance(EnergySpectrum((0.0, 15.0)), 0.1, 1 / 15, 1e-5, 1e-10)
    gc.collect()
    gc.disable()
    try:
        max_extractable_work(inst)
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- transition_feasible -----------------------------------------------------

def test_feasibility_reflexive():
    rho = thermal_state(QUBIT, 0.8)
    report = transition_feasible(rho, rho, 0.5)
    assert report.feasible
    assert abs(report.min_gap) < 1e-12


def test_feasibility_to_hot_thermal_state():
    rng = make_rng(11)
    tau_h = thermal_state(QUBIT, 0.5)
    for _ in range(20):
        rho0 = DiagonalState(tuple(rng.dirichlet(np.ones(2))), QUBIT)
        assert transition_feasible(rho0, tau_h, 0.5).feasible


def test_cooling_without_work_is_infeasible():
    beta_c, beta_f, beta_h = 1.0, 1.4, 0.5
    report = transition_feasible(
        thermal_state(QUBIT, beta_c), thermal_state(QUBIT, beta_f), beta_h
    )
    assert not report.feasible
    assert any(abs(a - 1.0) < 1e-9 for a, _ in report.violations)


def test_feasibility_transitive_on_mixing_chains():
    rng = make_rng(12)
    spec = EnergySpectrum((0.0, 1.0, 2.5))
    tau_h = thermal_state(spec, 0.4)
    for _ in range(10):
        rho0 = DiagonalState(tuple(rng.dirichlet(np.ones(3))), spec)
        s, t = rng.uniform(0.1, 0.5, size=2)
        rho1 = DiagonalState(tuple((1 - s) * rho0.array + s * tau_h.array), spec)
        rho2 = DiagonalState(tuple((1 - t) * rho1.array + t * tau_h.array), spec)
        assert transition_feasible(rho0, rho1, 0.4).feasible
        assert transition_feasible(rho1, rho2, 0.4).feasible
        assert transition_feasible(rho0, rho2, 0.4).feasible


# --- no_perfect_work ---------------------------------------------------------

def test_perfect_work_impossible_for_thermal_bath():
    inst = still_instance(0.0)
    cert = no_perfect_work(inst, w_requested=0.1)
    assert cert.applicable and cert.impossible
    assert cert.d0_gap > 0


def test_perfect_work_vacuous_at_zero_demand():
    cert = no_perfect_work(still_instance(0.0), w_requested=0.0)
    assert cert.applicable and not cert.impossible


def test_perfect_work_rejects_a_nan_request():
    # NaN is no demand for work, so no certificate either way; zero and
    # negative requests stay vacuously allowed
    with pytest.raises(ParameterError):
        no_perfect_work(still_instance(0.0), w_requested=math.nan)
    cert = no_perfect_work(still_instance(0.0), w_requested=-1.0)
    assert cert.applicable and not cert.impossible and cert.d0_gap == 0.0


def test_perfect_work_impossible_where_the_gap_underflows():
    # both thermal weights of the top ladder rungs underflow at beta_h = 60, and
    # a tiny w made tau(E_j) - tau(E_j + w) round to 0.0: neither is possible work
    cold = thermal_state(QUBIT, 120.0)
    ladder = BatterySpec(EnergySpectrum(tuple(float(e) for e in range(16))), 14, 15, 0.0)
    cert = no_perfect_work(TransitionInstance(cold, cold, 60.0, 120.0, ladder))
    assert cert.applicable and cert.impossible
    cert = no_perfect_work(still_instance(0.0), w_requested=1e-17)
    assert cert.applicable and cert.impossible and cert.d0_gap > 0


@pytest.mark.parametrize("w", [1e-17, 1e-9, 1e-3, 1.0, 10.0])
def test_perfect_work_gap_matches_mpmath(w):
    # tau(0) (1 - e^(-beta_h w)) on the (0, 1) ladder at beta_h = 0.5
    with mpmath.workdps(40):
        half = mpmath.mpf(0.5)
        ref = float(-mpmath.expm1(-half * w) / (1 + mpmath.exp(-half)))
    cert = no_perfect_work(still_instance(0.0), w_requested=w)
    assert abs(cert.d0_gap - ref) <= 1e-15 * ref


def test_perfect_work_inapplicable_without_full_rank():
    # at beta = 1000 on a unit gap the excited weight underflows to exactly 0,
    # so the (formally thermal) start is rank deficient and the support
    # argument does not apply
    frozen = thermal_state(QUBIT, 1000.0)
    assert not frozen.full_rank
    inst = TransitionInstance(frozen, frozen, 500.0, 1000.0, battery(0.0))
    cert = no_perfect_work(inst, w_requested=0.1)
    assert not cert.applicable and not cert.impossible


def test_order_infinity_guard_when_failure_branch_dominates():
    # cooling the cold bath hard with a large failure probability: the
    # charged level cannot attain the battery maximum for any gap
    from nanoheat import ConstraintViolationError

    p = thermal_state(QUBIT, 1.0)
    pp = thermal_state(QUBIT, 6.0)
    inst = TransitionInstance(p, pp, 0.1, 1.0, battery(0.6), copies=4)
    with pytest.raises(ConstraintViolationError):
        w_alpha(inst, Alpha.INFINITY)


# --- grid power sums memoized on the states ----------------------------------

def _twelve_qubit_instance(spectrum=None):
    if spectrum is None:
        spectrum = QubitBath(tuple(make_rng(21).uniform(1.0, 60.0, 12))).spectrum()
    return quasi_static_instance(spectrum, 0.1, 1 / 15, 1e-5, 1e-10)


def _solve_and_check_both_ways(inst, beta_h=None):
    beta_h = inst.beta_h if beta_h is None else beta_h
    return (
        max_extractable_work(inst),
        transition_feasible(inst.cold_initial, inst.cold_final, beta_h),
        transition_feasible(inst.cold_final, inst.cold_initial, beta_h),
    )


def test_solve_and_both_checks_compute_each_grid_column_once(monkeypatch):
    columns = []
    power_sum = SupportLogs.log_power_sum

    def counted(logs, a):
        if np.ndim(a) > 0 and len(a) >= second_laws.ALPHA_GRID_POINTS:
            columns.append(len(a))
        return power_sum(logs, a)

    monkeypatch.setattr(SupportLogs, "log_power_sum", counted)
    inst = _twelve_qubit_instance()
    _solve_and_check_both_ways(inst)
    assert columns == [400, 400]  # one per cold state, not one per call
    _solve_and_check_both_ways(inst, beta_h=1 / 20)
    assert len(columns) == 4  # a second hot temperature is a second memo


def _identical(a, b):
    # equal, and equal in every printed digit (repr tells -0.0 from 0.0)
    return a == b and repr(a) == repr(b)


def test_memoized_results_equal_those_of_fresh_equal_states():
    inst = _twelve_qubit_instance()
    memoized = _solve_and_check_both_ways(inst)
    second_beta = transition_feasible(inst.cold_initial, inst.cold_final, 1 / 20)
    back = transition_feasible(inst.cold_initial, inst.cold_final, inst.beta_h)
    assert repr(back) == repr(memoized[1])
    cut = max_extractable_work(inst, alpha_min=0.5)

    def fresh():
        return _twelve_qubit_instance(EnergySpectrum(inst.spectrum.levels))

    assert fresh().cold_final == inst.cold_final
    assert all(_identical(m, f) for m, f in zip(memoized, _solve_and_check_both_ways(fresh())))
    rebuilt = fresh()
    assert _identical(second_beta, transition_feasible(rebuilt.cold_initial, rebuilt.cold_final, 1 / 20))
    assert _identical(cut, max_extractable_work(fresh(), alpha_min=0.5))
    assert memoized[1].feasible and not memoized[2].feasible


def test_a_temperature_scan_keeps_one_memo_per_state():
    import tracemalloc

    inst = _twelve_qubit_instance()
    solved = max_extractable_work(inst)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for beta_h in np.linspace(1 / 40, 1 / 16, 50):
            transition_feasible(inst.cold_initial, inst.cold_final, beta_h)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 4e6  # one memo per beta_h would keep about 20 MB
    assert _identical(max_extractable_work(inst), solved)  # the instance kept its pair


def test_an_instance_of_existing_states_builds_no_state(monkeypatch):
    cold_initial = thermal_state(QUBIT, 1.0)
    cold_final = thermal_state(QUBIT, 0.9)
    built = []
    post_init = DiagonalState.__post_init__

    def counted(state):
        built.append(state)
        post_init(state)

    monkeypatch.setattr(DiagonalState, "__post_init__", counted)
    inst = TransitionInstance(cold_initial, cold_final, 0.5, 1.0, battery(1e-3))
    assert built == []
    for beta_c in (1.0, math.inf):  # the thermal check still holds
        with pytest.raises(ParameterError):
            TransitionInstance(cold_final, cold_final, 0.5, beta_c, battery(1e-3))
    assert inst.cold_initial is cold_initial and built == []


def test_hot_gibbs_underflow_splits_the_orders():
    # at E=800 the hot Gibbs state underflows to 0 on the excited level: the
    # orders read from the support logs still give values, while order 1
    # (and so the solver and the feasibility report) needs a full-rank q
    from nanoheat import DomainError

    inst = quasi_static_instance(EnergySpectrum((0.0, 800.0)), 2.0, 1.0, 1e-3, 1e-6)
    assert math.isfinite(w_alpha(inst, 2.5))
    assert math.isfinite(w_alpha(inst, Alpha.INFINITY))
    with pytest.raises(DomainError):
        w_alpha(inst, Alpha.ONE)
    with pytest.raises(DomainError):
        max_extractable_work(inst)
    with pytest.raises(DomainError):
        transition_feasible(inst.cold_initial, inst.cold_final, inst.beta_h)

def test_orders_with_a_below_eps_power_raise():
    # A <= eps^alpha at an order above 1: no work satisfies that law
    inst = TransitionInstance(
        thermal_state(QUBIT, 1.0), DiagonalState((0.1, 0.9), QUBIT), 0.5, 1.0, battery(0.9)
    )
    with pytest.raises(ConstraintViolationError):
        work_curve_values(inst, [1.5])
    with pytest.raises(ConstraintViolationError):
        w_alpha(inst, 1.5)
    with pytest.raises(ConstraintViolationError):
        max_extractable_work(inst)


@pytest.mark.filterwarnings("error")
def test_perfect_work_onto_an_underflowed_level_is_minus_infinity():
    # a final state on a level where the hot Gibbs state is 0: above order 1
    # A is 0, and the bound ln A / (beta_h (a - 1)) is -inf, at eps = 0 as at
    # any eps > 0
    from nanoheat import DomainError

    spectrum = EnergySpectrum((0.0, 800.0))
    for eps in (0.0, 1e-6):
        inst = TransitionInstance(
            thermal_state(spectrum, 2.0), DiagonalState((0.5, 0.5), spectrum), 1.0, 2.0, battery(eps)
        )
        assert work_curve_values(inst, [2.5, 1e3]).tolist() == [-math.inf, -math.inf]
        assert w_alpha(inst, Alpha.INFINITY) == -math.inf
        assert math.isfinite(w_alpha(inst, 0.3))
    with pytest.raises(DomainError):  # order 1 needs a full-rank hot Gibbs state
        max_extractable_work(inst)


# --- one ln A function, one pass over the orders -------------------------------

@pytest.mark.parametrize("copies", [1, 3])
@pytest.mark.parametrize("bath", [(1.0,), tuple(make_rng(21).uniform(1.0, 60.0, 12))],
                         ids=["qubit", "12-qubit"])
def test_log_a_of_the_grid_memo_equals_the_computed_column(bath, copies):
    inst = quasi_static_instance(QubitBath(bath).spectrum(), 0.1, 1 / 15, 1e-5, 1e-10, copies=copies)
    column = second_laws._log_a(inst, second_laws.ALPHA_GRID.copy())
    memo = second_laws._log_a(inst, second_laws.ALPHA_GRID)
    assert memo.tobytes() == column.tobytes()


@pytest.mark.parametrize("rank_deficient", [False, True], ids=["full-rank", "rank-deficient"])
def test_log_a_off_the_grid_equals_the_per_state_sums(rank_deficient):
    spectrum = EnergySpectrum((0.0, 2.0, 7.5))
    final = (0.3, 0.0, 0.7) if rank_deficient else (0.3, 0.2, 0.5)
    inst = TransitionInstance(thermal_state(spectrum, 1.0), DiagonalState(final, spectrum),
                              0.4, 1.0, battery(1e-6), copies=2)
    assert (inst._stacked_logs is None) == rank_deficient
    a = np.geomspace(0.2, 50.0, 63)
    initial, final = (h.logs for h in inst._gibbs_logs)
    per_state = 2 * (initial.log_power_sum(a[:, None]) - final.log_power_sum(a[:, None]))
    assert second_laws._log_a(inst, a).tobytes() == per_state.tobytes()


def _readme_instance(e_gap, eps=1e-10):
    # a row of the README energy sweep: T_hot = 15, T_cold = 10, g = 1e-5
    return quasi_static_instance(QubitBath((e_gap,)).spectrum(), 0.1, 1 / 15, 1e-5, eps)


def _bracket_orders(inst):
    """63 orders strictly inside the grid bracket around the grid minimum, where
    the refinement of a qubit solve evaluates them."""
    grid = second_laws.ALPHA_GRID
    i = int(np.argmin(work_curve_values(inst, grid)))
    return np.geomspace(grid[i - 1], grid[i + 1], 65)[1:-1]


def _mixed_column():
    # heating the cold bath up to the hot Gibbs state with eps = 0.9: the orders
    # up to 0.6 impose no finite bound; 0.9, the seam orders and those above 1 do
    inst = TransitionInstance(thermal_state(QUBIT, 3.0), thermal_state(QUBIT, 0.3), 0.3, 3.0, battery(0.9))
    return inst, np.array([0.01, 1.0 - 5e-7, 0.1, 0.6, 1.0 + 5e-7, 0.9, 1.5, 3.0, 1e3])


def _bracket_column():
    inst = _readme_instance(15.0)
    return inst, _bracket_orders(inst)


def _bracket_seam_unbounded_column():
    # the same states with a battery that fails almost always: orders up to
    # about 0.2 impose no bound, the bracket's orders do
    orders = _bracket_orders(_readme_instance(15.0))
    return _readme_instance(15.0, eps=0.99999), np.concatenate([orders, [1.0 + 5e-7, 0.1]])


def _below_cut_column():
    return _readme_instance(60.0), np.geomspace(1e3, 1e6, 63)


@pytest.mark.parametrize("make, seam_lanes, unbounded_lanes, below_cut", [
    pytest.param(_mixed_column, [1, 4], [0, 2, 3], True, id="mixed-orders"),
    pytest.param(_bracket_column, [], [], False, id="readme-bracket"),
    pytest.param(_bracket_seam_unbounded_column, [63], [64], False, id="readme-bracket-seam-unbounded"),
    pytest.param(_below_cut_column, [], [], True, id="below-exp-cut"),
])
def test_one_pass_over_mixed_orders_equals_the_order_by_order_calls(make, seam_lanes, unbounded_lanes, below_cut):
    # a column with no lane on the seam or unbounded runs the formula in numpy's
    # unmasked loop on every lane, any other under a lane mask; the power sums
    # skip exp on lanes below EXP_CUT: each lane keeps the bits of its own call
    inst, alphas = make()
    logs, a = inst._stacked_logs, alphas[:, None]
    x = a * logs.lp + (1.0 - a) * logs.lq
    assert (x - x.max(axis=-1, keepdims=True) < EXP_CUT).any() == below_cut
    together = work_curve_values(inst, alphas)
    alone = np.concatenate([work_curve_values(inst, [a]) for a in alphas])
    seam = np.abs(alphas - 1.0) <= second_laws.ALPHA_SEAM
    assert np.flatnonzero(seam).tolist() == seam_lanes
    assert np.flatnonzero(np.isposinf(together)).tolist() == unbounded_lanes
    assert together.tobytes() == alone.tobytes()
    assert work_curve_values(inst, []).shape == (0,)


def test_validation_negative_paths():
    with pytest.raises(ParameterError):
        BatterySpec(EnergySpectrum((0.0, 1.0)), 1, 0, 0.1)  # charged below start
    with pytest.raises(ParameterError):
        BatterySpec(EnergySpectrum((0.0, 1.0)), 0, 1, 1.0)  # eps out of range
    with pytest.raises(ParameterError, match=r"probabilities sum to 0\.8999999999999999, not 1$"):
        DiagonalState((0.7, 0.2), QUBIT)  # not normalized
    with pytest.raises(ParameterError):
        DiagonalState((1.2, -0.2), QUBIT)  # negative entry
    t = thermal_state(QUBIT, 1.0)
    with pytest.raises(ParameterError):
        TransitionInstance(t, t, 1.0, 0.5, battery(0.1))  # beta order flipped
    skew = DiagonalState((0.9, 0.1), QUBIT)
    with pytest.raises(ParameterError):
        TransitionInstance(skew, t, 0.5, 1.0, battery(0.1))  # start not thermal
    cold = thermal_state(QUBIT, 1.0)
    for copies in (0, -1, 2.5, math.nan, "2", True):
        with pytest.raises(ParameterError, match="copies"):
            TransitionInstance(cold, cold, 0.5, 1.0, battery(0.1), copies=copies)
    assert TransitionInstance(cold, cold, 0.5, 1.0, battery(0.1), copies=np.int64(2)).copies == 2
    for beta_h in (math.nan, math.inf):
        with pytest.raises(ParameterError):
            transition_feasible(t, t, beta_h)
    inst = still_instance(0.1)
    for orders in ([[2.0, 3.0]], np.full((2, 2, 1), 2.0), np.empty((0, 3))):
        with pytest.raises(ParameterError, match="1-D"):
            work_curve_values(inst, orders)


def test_perfect_work_randomized_sweep():
    rng = make_rng(13)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        levels = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 5.0, n - 1))])
        if len(set(levels.tolist())) < n:
            continue
        spec = EnergySpectrum(tuple(levels))
        beta_c = rng.uniform(0.5, 2.0)
        beta_h = rng.uniform(0.1, 0.8 * beta_c)
        w = rng.uniform(1e-6, 10.0)
        t = thermal_state(spec, beta_c)
        inst = TransitionInstance(t, t, beta_h, beta_c, battery(0.0, w=w))
        cert = no_perfect_work(inst)
        assert cert.applicable and cert.impossible and cert.d0_gap > 0
