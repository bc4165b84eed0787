import dataclasses
import itertools
import math
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gridbias import (
    Grid,
    ModelParams,
    TreatmentPlan,
    identification_bias,
    matexp,
    plan_integral,
    theta_g,
    theta_naive,
    theta_naive_limit,
    true_eta,
)
from gridbias import estimands
from gridbias.cli import _swept_params
from gridbias.config import load_config
from gridbias.estimands import _sample_runs
from tests.conftest import make_params
from tests.oracles import (
    KindPlan,
    eigen2,
    identification_bias_expanded,
    kind_plan_integral,
    plan_integral_midpoint,
    sample_runs_searchsorted,
    theta_g_exact,
    theta_g_float64,
    true_eta_exact,
)

# 40-digit evaluations of the closed forms for the reference cell
# (b11=0.2, b12=-5, T=1, E[Y0]=1, schedule identically 1).
ETA_REF = 5.3504619261284353919
PLAN_INTEGRAL_REF = 0.90634623461009070665
NAIVE_LIMIT_REF = 17.656577785683557583

# Bias of the reference cell over a J-doubling ladder, from the decimal
# oracles (``theta_g_exact - true_eta_exact``, exact beta), each rounded
# once to a double; guards against silent regressions in theta_g.
DOUBLING_TABLE = (
    (2, 19.21529871692962),
    (4, 8.47267871314428),
    (8, 3.5169986182985045),
    (16, 1.5478268754732893),
    (32, 0.7211853407945488),
    (64, 0.34764346849241123),
    (128, 0.17062674223886676),
    (256, 0.08452065629764706),
    (512, 0.042062947338472476),
    (1024, 0.020982230847315927),
    (2048, 0.010478817678128803),
    (4096, 0.005236336032733693),
)

# One ulp of 1.
EPS = 2.0**-52
# theta_g against the exact recursion, relative to its summed term
# magnitudes (``tests.oracles.theta_g_exact``).
THETA_G_RTOL = 1e-14
# The benchmark's tabulated schedule, with knots off every dyadic grid.
OFF_GRID_PLAN = TreatmentPlan.tabulated(
    [0.0, 0.137, 0.42, 0.81], [1.0, 0.3, -0.5, 0.8], horizon=1.0
)
# A schedule without jumps on a unit horizon, for knots that a test adds.
UNIT_PLAN = TreatmentPlan.constant(1.0, horizon=1.0)


def _theta_g_error(route, params, plan, J) -> tuple[float, float]:
    """``(|route - exact|, scale)`` for a ``theta_g`` route."""
    exact, scale = theta_g_exact(params, plan, J)
    return float(abs(Decimal(route(params, plan, J)) - exact)), scale


class TestTreatmentPlan:
    def test_constant_everywhere(self):
        plan = TreatmentPlan.constant(2.5, horizon=3.0)
        assert plan(0.0) == plan(1.7) == plan(3.0) == 2.5

    def test_piecewise_left_closed_intervals(self):
        plan = TreatmentPlan.piecewise([0.5], [0.0, 1.0], horizon=1.0)
        assert plan(0.0) == 0.0
        assert plan(0.49999) == 0.0
        assert plan(0.5) == 1.0
        assert plan(1.0) == 1.0

    def test_tabulated_left_step(self):
        plan = TreatmentPlan.tabulated([0.0, 0.25, 0.75], [1.0, 2.0, 3.0], horizon=1.0)
        assert plan(0.1) == 1.0
        assert plan(0.25) == 2.0
        assert plan(0.9) == 3.0
        assert plan(1.0) == 3.0

    def test_vectorized_matches_scalar(self):
        plan = TreatmentPlan.piecewise([0.2, 0.7], [1.0, -1.0, 4.0], horizon=1.0)
        ts = np.linspace(0.0, 1.0, 57)
        np.testing.assert_array_equal(plan.values_at(ts), [plan(t) for t in ts])

    def test_outside_domain_rejected(self):
        plan = TreatmentPlan.constant(1.0, horizon=1.0)
        with pytest.raises(ValueError):
            plan(1.5)
        with pytest.raises(ValueError):
            plan(-0.1)

    @pytest.mark.parametrize("t", [math.nan, -math.nan, math.inf, -math.inf])
    def test_nan_and_infinite_times_rejected(self, t):
        plan = TreatmentPlan.piecewise([0.2, 0.7], [1.0, -1.0, 4.0], horizon=1.0)
        with pytest.raises(ValueError):
            plan(t)
        for ts in ([t], [0.0, t, 1.0], [[0.5], [t]]):
            with pytest.raises(ValueError, match="outside its domain"):
                plan.values_at(ts)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: TreatmentPlan.piecewise([0.5, 0.5], [1, 2, 3], horizon=1.0),
            lambda: TreatmentPlan.piecewise([0.5], [1], horizon=1.0),
            lambda: TreatmentPlan.tabulated([0.1, 0.5], [1, 2], horizon=1.0),
            lambda: TreatmentPlan.tabulated([0.0, 0.5], [1, math.inf], horizon=1.0),
            lambda: TreatmentPlan.constant(math.nan, horizon=1.0),
            lambda: TreatmentPlan.piecewise([1.0], [1, 2], horizon=1.0),
            lambda: TreatmentPlan.tabulated([0.0, 1.5], [1, 2], horizon=1.0),
            lambda: TreatmentPlan.piecewise([0.2, math.nan, 0.5], [1, 2, 3, 4], horizon=1.0),
        ],
    )
    def test_invalid_plans_rejected(self, bad):
        with pytest.raises(ValueError):
            bad()

    def test_one_representation(self):
        assert [f.name for f in dataclasses.fields(TreatmentPlan)] == [
            "horizon",
            "jumps",
            "values",
        ]
        assert TreatmentPlan.constant(2.5, horizon=3.0) == TreatmentPlan(3.0, (), (2.5,))
        assert TreatmentPlan.piecewise([0.5], [0, 1], horizon=1.0) == TreatmentPlan(
            1.0, (0.5,), (0.0, 1.0)
        )
        assert TreatmentPlan.tabulated([0, 0.5, 1], [3, 4, 5], horizon=1.0) == TreatmentPlan(
            1.0, (0.5, 1.0), (3.0, 4.0, 5.0)
        )

    def test_tabulated_equals_piecewise_and_constant(self):
        bp, v = [0.2, 0.7], [1.0, -1.0, 4.0]
        assert TreatmentPlan.tabulated([0.0, *bp], v, horizon=1.0) == TreatmentPlan.piecewise(
            bp, v, horizon=1.0
        )
        assert TreatmentPlan.tabulated([0.0], [2.5], horizon=1.0) == TreatmentPlan.constant(
            2.5, horizon=1.0
        )


@st.composite
def plans_with_oracle(draw):
    """A plan of a random kind from a factory, with the same input stored
    as a :class:`KindPlan`.  Tabulated knots may include the horizon."""
    horizon = draw(st.floats(0.01, 100.0))
    kind = draw(st.sampled_from(["constant", "piecewise", "tabulated"]))
    level = st.floats(-1e3, 1e3)
    if kind == "constant":
        value = draw(level)
        return TreatmentPlan.constant(value, horizon), KindPlan(kind, horizon, value=value)
    inner = st.floats(0.0, horizon, exclude_min=True, exclude_max=True)
    cuts = sorted(draw(st.lists(inner, unique=True, max_size=6)))
    if kind == "piecewise":
        values = draw(st.lists(level, min_size=len(cuts) + 1, max_size=len(cuts) + 1))
        plan = TreatmentPlan.piecewise(cuts, values, horizon)
        return plan, KindPlan(kind, horizon, breakpoints=tuple(cuts), values=tuple(values))
    times = [0.0, *cuts] + ([horizon] if draw(st.booleans()) else [])
    values = draw(st.lists(level, min_size=len(times), max_size=len(times)))
    plan = TreatmentPlan.tabulated(times, values, horizon)
    return plan, KindPlan(kind, horizon, values=tuple(values), times=tuple(times))


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


class TestAgainstKindOracle:
    """The one ``(jumps, values)`` form against the per-kind reads it
    replaced: every value and integral is the same double."""

    @given(
        case=plans_with_oracle(),
        J=st.integers(1, 64),
        fractions=st.lists(st.floats(0.0, 1.0), max_size=8),
    )
    def test_values_match_bit_for_bit(self, case, J, fractions):
        plan, oracle = case
        h = plan.horizon
        ts = np.concatenate(
            [
                np.arange(J) * (h / J),
                [0.0, h, *plan.jumps, *(min(f * h, h) for f in fractions)],
            ]
        )
        assert plan.values_at(ts).tobytes() == oracle.values_at(ts).tobytes()
        for t in ts.tolist():
            assert _bits(plan(t)) == _bits(oracle(t))
        if oracle.kind == "piecewise":
            knots = [0.0, *oracle.breakpoints]
            assert TreatmentPlan.tabulated(knots, oracle.values, h) == plan

    @given(
        case=plans_with_oracle(),
        J=st.integers(1, 16),
        rate=st.floats(-5.0, 5.0),
        ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
    )
    def test_integral_matches_bit_for_bit(self, case, J, rate, ends):
        plan, oracle = case
        h = plan.horizon
        grid = np.linspace(0.0, h, J + 1).tolist()
        a, b = sorted(min(e * h, h) for e in ends)
        for lo, hi in [(0.0, h), (a, b), *zip(grid, grid[1:])]:
            got = plan_integral(plan, lo, hi, rate)
            assert _bits(got) == _bits(kind_plan_integral(oracle, lo, hi, rate))


@st.composite
def plans_and_bounds_on_a_grid(draw):
    """A plan with jumps on multiples of ``horizon/32``, the horizon among
    them, and bounds ``a <= b`` on multiples of ``horizon/64``: a bound may
    sit on a jump and ``a`` may equal ``b``.  Every piece is wide, so the
    midpoint oracle reads each piece's own value."""
    horizon = draw(st.floats(0.01, 100.0))
    steps = sorted(draw(st.sets(st.integers(1, 32), max_size=6)))
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=len(steps) + 1, max_size=len(steps) + 1))
    plan = TreatmentPlan(horizon, tuple(i * horizon / 32 for i in steps), tuple(values))
    a, b = sorted(draw(st.lists(st.integers(0, 64), min_size=2, max_size=2)))
    return plan, a * horizon / 64, b * horizon / 64


class TestPlanIntegralAgainstMidpointOracle:
    """Walking the pieces by index against the midpoint lookup it replaced:
    the same double, bit for bit."""

    @given(
        case=plans_and_bounds_on_a_grid(),
        rate=st.sampled_from([0.0, -2.5, 2.5, 800.0]) | st.floats(-5.0, 5.0),
    )
    @example(case=(TreatmentPlan(1.0, (0.5, 1.0), (1.0, 2.0, 7.0)), 0.5, 0.5), rate=0.3)
    @example(case=(TreatmentPlan(1.0, (0.25, 0.5), (1.0, -2.0, 3.0)), 0.25, 0.5), rate=-1.5)
    @example(case=(TreatmentPlan(2.0, (0.5, 2.0), (1.0, 2.0, 7.0)), 0.0, 2.0), rate=800.0)
    @example(case=(TreatmentPlan(2.0, (0.5, 2.0), (1.0, 2.0, 7.0)), 0.5, 2.0), rate=0.0)
    def test_matches_bit_for_bit(self, case, rate):
        plan, a, b = case
        assert _bits(plan_integral(plan, a, b, rate)) == _bits(
            plan_integral_midpoint(plan, a, b, rate)
        )


class TestPlanIntegral:
    def test_piece_one_ulp_wide_carries_its_own_value(self):
        # The midpoint of [nextafter(0.5, 0), 0.5] rounds to the jump, where
        # a midpoint lookup would read the next piece's value.
        plan = TreatmentPlan.piecewise([0.5], [1.0, 0.0], horizon=1.0)
        a = math.nextafter(0.5, 0.0)
        assert plan_integral(plan, a, 1.0, 0.0) == 0.5 - a

    def test_constant_rate_zero(self):
        plan = TreatmentPlan.constant(3.0, horizon=2.0)
        assert plan_integral(plan, 0.0, 2.0, 0.0) == pytest.approx(6.0, abs=1e-14)

    def test_constant_reference_value(self):
        plan = TreatmentPlan.constant(1.0, horizon=1.0)
        got = plan_integral(plan, 0.0, 1.0, 0.2)
        assert got == pytest.approx(PLAN_INTEGRAL_REF, abs=1e-15)

    def test_piecewise_rate_zero(self):
        plan = TreatmentPlan.piecewise([0.5], [0.0, 1.0], horizon=1.0)
        assert plan_integral(plan, 0.0, 1.0, 0.0) == pytest.approx(0.5, abs=1e-14)

    def test_quadrature_matches_closed_form_on_smooth_integrand(self):
        # A single-knot tabulated plan is the constant plan.
        tab = TreatmentPlan.tabulated([0.0], [1.0], horizon=1.0)
        got = plan_integral(tab, 0.0, 1.0, 0.2)
        assert got == pytest.approx(PLAN_INTEGRAL_REF, rel=1e-12)

    def test_quadrature_near_step_discontinuity(self):
        # A tabulated plan is the piecewise plan with its knots as
        # breakpoints, and integrates to exactly the same number.
        tab = TreatmentPlan.tabulated([0.0, 0.5], [0.0, 1.0], horizon=1.0)
        pw = TreatmentPlan.piecewise([0.5], [0.0, 1.0], horizon=1.0)
        rate = 0.7
        assert plan_integral(tab, 0.0, 1.0, rate) == plan_integral(pw, 0.0, 1.0, rate)

    @pytest.mark.parametrize("rate", [0.2, -5.0, 3.0])
    def test_off_grid_knots_match_hand_closed_form(self, rate):
        times = [0.0, 0.137, 0.42, 0.81]
        values = [1.0, 0.3, -0.5, 0.8]
        tab = TreatmentPlan.tabulated(times, values, horizon=1.0)
        # int_lo^hi e^{rate (s - 1)} ds per piece, from the antiderivative
        edges = times + [1.0]
        want = sum(
            v * (math.exp(rate * (hi - 1.0)) - math.exp(rate * (lo - 1.0))) / rate
            for v, lo, hi in zip(values, edges, edges[1:])
        )
        assert plan_integral(tab, 0.0, 1.0, rate) == pytest.approx(want, rel=1e-14)

    def test_knot_at_horizon_sets_only_the_endpoint(self):
        tab = TreatmentPlan.tabulated([0.0, 0.5, 1.0], [1.0, 2.0, 7.0], horizon=1.0)
        pw = TreatmentPlan.piecewise([0.5], [1.0, 2.0], horizon=1.0)
        assert tab.values_at(np.array([0.99, 1.0])).tolist() == [2.0, 7.0]
        for rate in (0.0, 0.4, -2.0):
            assert plan_integral(tab, 0.0, 1.0, rate) == plan_integral(pw, 0.0, 1.0, rate)
            assert plan_integral(tab, 0.2, 1.0, rate) == plan_integral(pw, 0.2, 1.0, rate)

    def test_subinterval_and_bounds_checks(self):
        plan = TreatmentPlan.constant(1.0, horizon=1.0)
        with pytest.raises(ValueError):
            plan_integral(plan, 0.6, 0.4, 0.0)
        with pytest.raises(ValueError):
            plan_integral(plan, 0.0, 1.5, 0.0)
        assert plan_integral(plan, 0.3, 0.3, 1.0) == 0.0

    @pytest.mark.parametrize(
        "a, b, rate",
        [
            (math.nan, 1.0, 0.5),
            (0.0, math.nan, 0.5),
            (math.nan, math.nan, 0.5),
            (-math.inf, 1.0, 0.5),
            (0.0, math.inf, 0.5),
            (0.0, 1.0, math.nan),
            (0.0, 1.0, math.inf),
            (0.0, 1.0, -math.inf),
            (0.3, 0.3, math.nan),
        ],
    )
    def test_nan_and_infinite_arguments_rejected(self, a, b, rate):
        plan = TreatmentPlan.piecewise([0.5], [1.0, 2.0], horizon=1.0)
        with pytest.raises(ValueError):
            plan_integral(plan, a, b, rate)

    @given(
        st.floats(-3, 3),
        st.floats(-3, 3),
        st.floats(-2, 2),
        st.floats(-2, 2),
    )
    def test_linearity_in_plan_values(self, v1, v2, c1, c2):
        h = 1.0
        rate = 0.4
        p1 = TreatmentPlan.piecewise([0.3], [v1, v2], horizon=h)
        p2 = TreatmentPlan.piecewise([0.3], [v2, v1], horizon=h)
        combo = TreatmentPlan.piecewise(
            [0.3], [c1 * v1 + c2 * v2, c1 * v2 + c2 * v1], horizon=h
        )
        lhs = plan_integral(combo, 0.0, h, rate)
        rhs = c1 * plan_integral(p1, 0.0, h, rate) + c2 * plan_integral(p2, 0.0, h, rate)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestTrueEta:
    def test_reference_value(self, ref_params, plan_one):
        assert true_eta(ref_params, plan_one) == pytest.approx(ETA_REF, abs=1e-13)

    def test_no_treatment_effect_decouples(self, plan_one):
        p = make_params(beta12=0.0)
        assert true_eta(p, plan_one) == pytest.approx(math.exp(-0.2), abs=1e-15)

    def test_baseline_plan(self, ref_params, plan_zero):
        assert true_eta(ref_params, plan_zero) == pytest.approx(math.exp(-0.2), abs=1e-15)

    def test_eta_linear_in_plan_scale(self, ref_params):
        base = math.exp(-0.2)
        one = true_eta(ref_params, TreatmentPlan.constant(1.0, horizon=1.0))
        three = true_eta(ref_params, TreatmentPlan.constant(3.0, horizon=1.0))
        assert three - base == pytest.approx(3.0 * (one - base), rel=1e-12)

    def test_beyond_the_double_range_raises(self):
        # b12 times the integral, 1e300 * 1e10, overflows although every
        # input is finite.
        p = make_params(beta11=0.0, beta12=1e300, beta21=0.0)
        with pytest.raises(OverflowError, match="true_eta exceeds the double range"):
            true_eta(p, TreatmentPlan.constant(1e10, horizon=1.0))


def test_estimands_of_model_params_are_python_floats(ref_params):
    # The bias table's per-cell work runs on Python floats, not NumPy
    # scalars; this pins the result type of every estimand it calls.
    plan = TreatmentPlan.tabulated([0.0, 0.137, 0.42], [1.0, 0.3, -0.5], horizon=1.0)
    b11 = ref_params.beta.tolist()[0][0]
    results = {
        "true_eta": true_eta(ref_params, plan),
        "identification_bias": identification_bias(ref_params, plan, 16),
        "theta_g": theta_g(ref_params, plan, 16),
        "theta_naive_limit": theta_naive_limit(ref_params),
        "plan_integral": plan_integral(plan, 0.0, ref_params.horizon, b11),
        **dict(zip(("theta_naive", "its limit"), theta_naive(ref_params, plan, 16))),
    }
    assert {name: type(x) for name, x in results.items()} == dict.fromkeys(results, float)


class TestThetaG:
    def test_single_step_recursion(self, ref_params):
        g = matexp(ref_params.beta, -1.0)
        plan = TreatmentPlan.constant(0.7, horizon=1.0)
        want = g[0, 0] * 1.0 + g[0, 1] * 0.7
        assert theta_g(ref_params, plan, 1) == pytest.approx(want, rel=1e-14)

    def test_sharp_null_equals_eta_for_all_grids(self, plan_one):
        p = make_params(beta12=0.0)
        want = math.exp(-0.2)
        for J in range(1, 201):
            assert abs(theta_g(p, plan_one, J) - want) < 1e-10

    def test_doubling_table_regression(self, ref_params, plan_one):
        for J, want in DOUBLING_TABLE:
            got = identification_bias(ref_params, plan_one, J)
            assert got == pytest.approx(want, rel=1e-12)
        biases = [abs(b) for _, b in DOUBLING_TABLE]
        assert biases == sorted(biases, reverse=True)

    def test_rejects_bad_grid_count(self, ref_params, plan_one):
        with pytest.raises(ValueError):
            theta_g(ref_params, plan_one, 0)
        for J in (2.5, 8.0):
            with pytest.raises(TypeError, match="integer"):
                theta_g(ref_params, plan_one, J)

    def test_numpy_integer_grid_count_is_a_count(self, ref_params, plan_one):
        assert theta_g(ref_params, plan_one, np.int64(8)) == theta_g(ref_params, plan_one, 8)
        assert theta_naive(ref_params, plan_one, np.int32(8)) == theta_naive(ref_params, plan_one, 8)
        assert Grid(np.int64(8), 1.0).times.tolist() == Grid(8, 1.0).times.tolist()

    def test_depends_only_on_left_endpoint_values(self, ref_params):
        # Changing the schedule strictly between grid sample points leaves
        # the functional bit-identical.
        J = 4
        base = TreatmentPlan.constant(1.0, horizon=1.0)
        bumped = TreatmentPlan.piecewise([0.8, 0.9], [1.0, 42.0, 1.0], horizon=1.0)
        assert theta_g(ref_params, base, J) == theta_g(ref_params, bumped, J)

    @given(
        drift=st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4),
        ey0=st.floats(-2.0, 2.0),
    )
    # g11 == 1 exactly at every J; g11 < 0 at J = 1 and 2.
    @example(drift=[0.0, -2.0, 0.0, 0.5], ey0=1.0)
    @example(drift=[0.0, -5.0, 3.0, 0.0], ey0=1.0)
    def test_within_roundoff_of_exact_recursion(self, drift, ey0):
        params = ModelParams(
            beta=np.reshape(drift, (2, 2)),
            sigma=np.eye(2),
            init_mean=[ey0, 0.0],
            init_cov=0.25 * np.eye(2),
            horizon=1.0,
        )
        plans = (
            TreatmentPlan.constant(0.7, horizon=1.0),
            TreatmentPlan.piecewise([0.3, 0.55], [1.0, -2.0, 0.5], horizon=1.0),
            TreatmentPlan.tabulated([0.0, 0.137, 0.42, 1.0], [1.0, 0.3, -0.5, 2.5], horizon=1.0),
        )
        for plan in plans:
            for J in (1, 2, 7, 16384):
                error, scale = _theta_g_error(theta_g, params, plan, J)
                assert error <= THETA_G_RTOL * scale

    def test_within_roundoff_on_sweep_grid(self):
        for b11 in (0.2, 0.5, 1.0, -0.3, 3.0):
            for b21 in (-3.0, 0.0, 3.0):
                for b12 in (-2.0, 1.0):
                    params = make_params(beta12=b12, beta11=b11, beta21=b21)
                    for J in (2, 64, 4096, 16384):
                        error, scale = _theta_g_error(theta_g, params, OFF_GRID_PLAN, J)
                        assert error <= THETA_G_RTOL * scale, (b11, b21, b12, J)

    def test_recursion_misses_the_bound_at_large_j(self):
        # The J-step recursion accumulates J roundings; the closed form does not.
        params = make_params(beta12=-2.0, beta11=-0.3, beta21=0.0)
        error, scale = _theta_g_error(theta_g, params, OFF_GRID_PLAN, 16384)
        assert error <= THETA_G_RTOL * scale
        error, scale = _theta_g_error(theta_g_float64, params, OFF_GRID_PLAN, 16384)
        assert error > THETA_G_RTOL * scale

    @given(
        case=plans_with_oracle(),
        J=st.integers(1, 2**14),
        on_grid=st.lists(st.integers(1, 2**14 - 1), max_size=4),
        near_grid=st.lists(
            st.tuples(st.integers(1, 2**14 - 1), st.integers(-2, 2)), max_size=4
        ),
    )
    # 3 * (1/5) / (1/5) rounds above 3, and (5 * (1/7) + 1 ulp) / (1/7)
    # rounds to 5, so the first estimate of each bound is one off.
    @example(case=(UNIT_PLAN, None), J=5, on_grid=[3], near_grid=[])
    @example(case=(UNIT_PLAN, None), J=7, on_grid=[], near_grid=[(5, 1)])
    @example(case=(UNIT_PLAN, None), J=2**14, on_grid=[1, 8191], near_grid=[])
    def test_sample_runs_reproduce_sampled_values(self, case, J, on_grid, near_grid):
        plan = case[0]
        h = plan.horizon
        times = np.arange(J) * (h / J)
        # Also knots exactly on sample times, a few ulps either side of one,
        # and at the horizon, each piece with its own value.
        knots = {0.0, h, *plan.jumps, *(times[k] for k in on_grid if k < J)}
        for k, ulps in near_grid:
            if k < J:
                knots.add(float(times[k] + ulps * np.spacing(times[k])))
        knots = sorted(knots)
        for p in (plan, TreatmentPlan.tabulated(knots, range(len(knots)), h)):
            bounds = _sample_runs(p, h, J)
            assert bounds == sample_runs_searchsorted(p, h, J)
            sampled = np.repeat(np.asarray(p.values), np.diff(bounds))
            assert sampled.tobytes() == p.values_at(times).tobytes()

    def test_sample_runs_past_a_tiny_horizon(self):
        # A plan far longer than the study horizon puts its jumps past the
        # last sample time, where jump / step overflows to inf.
        plan = TreatmentPlan.piecewise([1e-300, 1e10], [1.0, 2.0, 3.0], horizon=1e300)
        assert _sample_runs(plan, 1e-300, 16384) == sample_runs_searchsorted(plan, 1e-300, 16384)

    @pytest.mark.parametrize(
        "beta11, beta12, value, J",
        # g11^J overflows; g11^J is finite but g12 times the run sum is not.
        [(-800.0, 1.0, 1.0, 2), (0.0, 1e308, 10.0, 1)],
    )
    def test_overflow_raises(self, beta11, beta12, value, J):
        params = make_params(beta11=beta11, beta12=beta12, beta21=0.0)
        with pytest.raises(OverflowError):
            theta_g(params, TreatmentPlan.constant(value, horizon=1.0), J)


# Drifts with a repeated eigenvalue 0.5 split by 2e-9 (real) and by about
# 2.8e-6 i (complex); the three-branch exponential put delta at J=16384
# off by 6.4 and 9.3e-3 times its own value there.
NEAR_REPEAT_DRIFTS = ([[0.5, -2.0], [0.0, 0.5 + 2e-9]], [[0.5, -2.0], [-1e-12, 0.5]])
DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"


def _delta_errors(params, plan, J) -> tuple[float, Decimal, float]:
    """``(error, exact, roundoff)`` of :func:`identification_bias` against
    the decimal oracles, with ``roundoff = |theta_g| + |eta|``."""
    exact = theta_g_exact(params, plan, J)[0] - true_eta_exact(params, plan)
    got = identification_bias(params, plan, J)
    roundoff = abs(theta_g(params, plan, J)) + abs(true_eta(params, plan))
    return float(abs(Decimal(got) - exact)), exact, roundoff


class TestDeltaAccuracy:
    """``delta = theta_g - eta`` is exact to roundoff of ``|theta_g| + |eta|``
    at every J: no digit of ``g11`` is raised to the J-th power, and no
    eigenvalue gap cancels."""

    @pytest.mark.parametrize("beta", NEAR_REPEAT_DRIFTS)
    def test_near_repeated_eigenvalues(self, beta, ref_params, plan_one):
        params = dataclasses.replace(ref_params, beta=np.array(beta))
        for J in (2, 40, 1024, 16384):
            error, exact, roundoff = _delta_errors(params, plan_one, J)
            assert error <= 8 * EPS * roundoff, J
        assert error <= 1e-10 * float(abs(exact))

    def test_default_bias_table(self):
        cfg = load_config(DEFAULT_CONFIG)
        base = cfg.model.to_params()
        plan = cfg.plan_star.to_plan(base.horizon, "plan_star")
        bt = cfg.bias_table
        for b11, b21, b12 in itertools.product(bt.beta11, bt.beta21, bt.beta12):
            params = _swept_params(base, b11, b21, b12)
            for J in bt.j_values:
                error, exact, roundoff = _delta_errors(params, plan, J)
                assert error <= 8 * EPS * roundoff, (b11, b21, b12, J)
            # At the table's largest J, 16384.  On (1, -3, 1), delta is
            # 1.6e-7 and 1e-10 of it is about half an ulp of |theta_g| + |eta|
            # (5.1e-11 measured; the three-branch route read 4.2e-7).
            if b12 == 0.0:
                assert identification_bias(params, plan, J) == 0.0
            else:
                assert error <= 1e-10 * float(abs(exact)), (b11, b21, b12)


class TestBiasForms:
    def test_direct_and_expanded_agree_on_random_configurations(self):
        rng = np.random.default_rng(410)
        for i in range(200):
            if i % 10 == 7:
                # triangular draw with an exactly repeated eigenvalue
                a, b = rng.uniform(-5, 5, size=2)
                beta = np.array([[a, b], [0.0, a]])
            else:
                beta = rng.uniform(-5, 5, size=(2, 2))
            J = int(rng.integers(1, 65))
            ey0, ew0 = rng.uniform(-2, 2, size=2)
            params = ModelParams(
                beta=beta,
                sigma=np.eye(2),
                init_mean=[ey0, ew0],
                init_cov=0.25 * np.eye(2),
                horizon=1.0,
            )
            c = float(rng.uniform(-2, 2))
            if i % 3:
                plan = TreatmentPlan.constant(c, horizon=1.0)
            else:
                plan = TreatmentPlan.piecewise([0.3, 0.7], [c, -c, 0.5 * c], horizon=1.0)
            d1 = identification_bias(params, plan, J)
            d2 = identification_bias_expanded(params, plan, J)
            assert abs(d1 - d2) < 1e-10

    def test_delta_is_exact_difference(self, ref_params, plan_one):
        delta = identification_bias(ref_params, plan_one, 12)
        assert delta == theta_g(ref_params, plan_one, 12) - true_eta(ref_params, plan_one)

    def test_sharp_null_bias_vanishes(self, plan_one):
        for b11 in (0.2, 0.5, 1.0):
            for b21 in (-3.0, 0.0, 3.0):
                p = make_params(beta12=0.0, beta11=b11, beta21=b21)
                for J in range(1, 201):
                    assert abs(identification_bias(p, plan_one, J)) < 1e-10

    def test_large_grid_bias_small(self, ref_params, plan_one):
        assert abs(identification_bias(ref_params, plan_one, 2**14)) < 1e-3 * max(
            1.0, abs(identification_bias(ref_params, plan_one, 4))
        )

    def test_first_order_decay_is_bounded(self, ref_params, plan_one):
        js = [2**k for k in range(3, 15)]
        deltas = {J: identification_bias(ref_params, plan_one, J) for J in js}
        for J in js[:-1]:
            assert abs(deltas[2 * J]) < abs(deltas[J])
        # J * |delta_J| settles near ~21.4 for this cell; 40 bounds it with
        # ample headroom without pinning the constant.
        assert max(J * abs(d) for J, d in deltas.items()) < 40.0


class TestThetaNaive:
    def test_limit_is_factual_mean(self, ref_params, plan_one):
        want = (matexp(ref_params.beta, -1.0) @ ref_params.init_mean)[0]
        _, limit = theta_naive(ref_params, plan_one, 10)
        assert limit == pytest.approx(want, abs=1e-12)
        assert limit == pytest.approx(NAIVE_LIMIT_REF, abs=1e-12)
        assert theta_naive_limit(ref_params) == limit

    def test_sharp_null_limit_equals_eta(self, plan_one):
        p = make_params(beta12=0.0)
        _, limit = theta_naive(p, plan_one, 10)
        assert limit == pytest.approx(true_eta(p, plan_one), abs=1e-12)

    def test_limit_differs_from_eta_under_feedback(self, ref_params, plan_one):
        _, limit = theta_naive(ref_params, plan_one, 10)
        assert abs(limit - true_eta(ref_params, plan_one)) > 1.0

    def test_finite_grid_value(self, ref_params, plan_one):
        value, _ = theta_naive(ref_params, plan_one, 10)
        assert math.isfinite(value)
        g = matexp(ref_params.beta, -0.1)
        g_prev = matexp(ref_params.beta, -0.9)
        want = g[0, 1] * 1.0 + g[0, 0] * (g_prev[0, 0] * 1.0 + g_prev[0, 1] * 0.0)
        assert value == pytest.approx(want, rel=1e-13)

    def test_reads_w_at_the_grid_time(self, ref_params):
        # The jump sits at 0.7 * 5 / 6, one ulp above the grid time
        # t_5 = 5 * (0.7 / 6), so the schedule is still 0 at t_5.
        params = dataclasses.replace(ref_params, horizon=0.7)
        plan = TreatmentPlan.piecewise([0.5833333333333334], [0.0, 1.0], 0.7)
        assert plan(Grid(J=6, T=0.7).times[5]) == 0.0
        value, _ = theta_naive(params, plan, 6)
        want, _ = theta_naive(params, TreatmentPlan.constant(0.0, 0.7), 6)
        assert value == want

    def test_rejects_single_step(self, ref_params, plan_one):
        with pytest.raises(ValueError):
            theta_naive(ref_params, plan_one, 1)
        for J in (2.5, 8.0):
            with pytest.raises(TypeError, match="integer"):
                theta_naive(ref_params, plan_one, J)


# One drift of each eigenvalue kind.
DRIFT_OF_KIND = {
    "distinct-real": [[0.2, -5.0], [-3.0, 0.5]],
    "repeated": [[0.4, -1.0], [0.0, 0.4]],
    "complex-conjugate": [[0.5, -5.0], [3.0, 0.5]],
}


class TestOneStepMapBits:
    """The one-step maps the closed forms read are the rows of
    :func:`matexp`, bit for bit: ``theta_g`` reads ``e^{t m} - I`` from the
    core under it, and adding the identity row gives ``matexp``'s row."""

    @pytest.fixture(params=list(DRIFT_OF_KIND), ids=list(DRIFT_OF_KIND))
    def params(self, request, ref_params):
        p = dataclasses.replace(
            ref_params,
            beta=np.array(DRIFT_OF_KIND[request.param]),
            init_mean=np.array([1.5, -0.7]),
            horizon=0.7,
        )
        assert eigen2(p.beta)[0] == request.param
        return p

    @staticmethod
    def first_rows(monkeypatch, call, core="_expm2_rows") -> list[bytes]:
        """The first row of every map ``call`` takes from the float core
        ``estimands.<core>``."""
        wrapped = getattr(estimands, core)
        rows = []

        def spy(m, t):
            out = wrapped(m, t)
            rows.append(np.array(out[0]).tobytes())
            return out

        monkeypatch.setattr(estimands, core, spy)
        call()
        return rows

    def test_theta_g(self, params, monkeypatch):
        plan = TreatmentPlan.constant(1.0, 0.7)
        got = self.first_rows(monkeypatch, lambda: theta_g(params, plan, 14), "_expm2m1_rows")
        assert len(got) == 1
        row = np.array([1.0, 0.0]) + np.frombuffer(got[0])
        assert row.tobytes() == matexp(params.beta, -0.7 / 14)[0].tobytes()

    def test_theta_naive(self, params, monkeypatch):
        plan = TreatmentPlan.constant(1.0, 0.7)
        got = self.first_rows(monkeypatch, lambda: theta_naive(params, plan, 14))
        want = [matexp(params.beta, t)[0].tobytes() for t in (-0.7 / 14, -0.7 * 13 / 14, -0.7)]
        assert got == want

    def test_theta_naive_limit(self, params):
        g = matexp(params.beta, -0.7)[0]
        want = float(g[0] * 1.5 + g[1] * -0.7)
        assert np.float64(theta_naive_limit(params)).tobytes() == np.float64(want).tobytes()
