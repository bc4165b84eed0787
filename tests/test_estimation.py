import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gridbias import (
    BootstrapFailureError,
    DegenerateDesignError,
    Grid,
    TrajectoryPanel,
    TreatmentPlan,
    ZetaReport,
    bootstrap_ci,
    estimate_contrast,
    matexp,
    sensitivity_ratio,
    simulate_panel,
    subsample_panel,
    theta_g,
    theta_naive,
    zeta,
)
from gridbias import sde
from gridbias.estimation import (
    _contrast,
    _fit,
    _quantiles,
    _resample_totals,
    _sample_fit,
    _unit_statistics,
)
from tests.conftest import make_params
from tests.oracles import contrast_fraction, unit_statistics_stacked
from tests.lstsq_oracle import lstsq_bootstrap, lstsq_coefficients, lstsq_contrast


def synthetic_panel(a, b, c, n=6, J=5, seed=0, noise=0.0):
    """Panel generated exactly by Y_k = a + b Y_{k-1} + c W_{k-1}."""
    rng = np.random.default_rng(seed)
    values = np.empty((n, J + 1, 2))
    values[:, :, 1] = rng.uniform(-1, 1, size=(n, J + 1))
    values[:, 0, 0] = rng.uniform(-1, 1, size=n)
    for k in range(J):
        values[:, k + 1, 0] = (
            a
            + b * values[:, k, 0]
            + c * values[:, k, 1]
            + noise * rng.standard_normal(n)
        )
    return TrajectoryPanel(grid=Grid(J=J, T=1.0), values=values)


def partly_constant_treatment_panel(n, varying, J=5, seed=0, w=1.0, first=False):
    """Panel whose treatment is the constant ``w`` except in the last (or,
    with ``first``, the first) ``varying`` units; a resample that misses all
    of those has a treatment column proportional to the intercept column."""
    rng = np.random.default_rng(seed)
    values = np.empty((n, J + 1, 2))
    values[:, :, 0] = rng.standard_normal((n, J + 1))
    values[:, :, 1] = w
    units = slice(None, varying) if first else slice(n - varying, None)
    values[units, :, 1] = rng.uniform(-1, 1, size=(varying, J + 1))
    return TrajectoryPanel(grid=Grid(J=J, T=1.0), values=values)


def residual_variance(values, coef):
    """Unbiased residual variance of the pooled fit ``coef = (a, b, c)``
    and the number of transitions it was fit on."""
    a, b, c = coef
    resid = values[:, 1:, 0] - (a + b * values[:, :-1, 0] + c * values[:, :-1, 1])
    return float(np.sum(resid * resid) / (resid.size - 3)), resid.size


class TestFitTransition:
    def test_exact_recovery_from_noiseless_panel(self):
        panel = synthetic_panel(0.5, 0.9, 0.1)
        coef = _sample_fit(panel.values)
        a, b, c = coef[0]
        assert a == pytest.approx(0.5, abs=1e-9)
        assert b == pytest.approx(0.9, abs=1e-9)
        assert c == pytest.approx(0.1, abs=1e-9)
        resid_var, n_transitions = residual_variance(panel.values, coef[0])
        assert n_transitions == 6 * 5
        assert resid_var == pytest.approx(0.0, abs=1e-18)

    def test_too_few_transitions(self, plan_one, plan_zero):
        panel = synthetic_panel(0.0, 0.5, 0.5, n=1, J=2)
        with pytest.raises(DegenerateDesignError):
            _sample_fit(panel.values)
        message = "^need at least 3 pooled transitions, got 2$"
        with pytest.raises(DegenerateDesignError, match=message):
            estimate_contrast(panel, plan_one, plan_zero)

    def test_constant_treatment_is_degenerate(self):
        panel = synthetic_panel(0.0, 0.5, 0.5, n=5, J=5)
        values = panel.values.copy()
        values[:, :, 1] = 1.0
        with pytest.raises(DegenerateDesignError):
            _sample_fit(values)

    @pytest.mark.parametrize(
        "degrade, reason",
        [
            ("lagged_outcome", "the lagged outcome is constant"),
            ("treatment", "the treatment is constant"),
            ("collinear", "the lagged outcome and the treatment are collinear"),
        ],
    )
    def test_error_names_the_failed_rank_test(self, degrade, reason):
        values = synthetic_panel(0.0, 0.5, 0.5, n=5, J=5).values.copy()
        if degrade == "lagged_outcome":
            values[:, :-1, 0] = 0.3
        elif degrade == "treatment":
            values[:, :, 1] = -2.0
        else:
            values[:, :, 1] = 3.0 * values[:, :, 0] - 1.0
        with pytest.raises(DegenerateDesignError, match=f"rank deficient: {reason}$"):
            _sample_fit(values)

    def test_large_sample_recovers_transition_map(self, ref_params):
        J, n = 10, 20_000
        panel = simulate_panel(ref_params, Grid(J=J, T=1.0), n, seed=21)
        coef = _sample_fit(panel.values)
        a, b, c = coef[0]
        resid_var, _ = residual_variance(panel.values, coef[0])
        g = matexp(ref_params.beta, -1.0 / J)
        # OLS standard errors from the pooled design
        y_lag = panel.values[:, :-1, 0].ravel()
        w_lag = panel.values[:, :-1, 1].ravel()
        x = np.column_stack((np.ones_like(y_lag), y_lag, w_lag))
        se = np.sqrt(resid_var * np.diag(np.linalg.inv(x.T @ x)))
        assert abs(a - 0.0) < 4 * se[0]
        assert abs(b - g[0, 0]) < 4 * se[1]
        assert abs(c - g[0, 1]) < 4 * se[2]


# Schedule pairs (star, base) of every kind: constants, piecewise and
# tabulated steps with knots off every grid, and a tabulated knot at the
# horizon (it never reaches a left endpoint).
PLAN_PAIRS = [
    (TreatmentPlan.constant(1.0, 1.0), TreatmentPlan.constant(0.0, 1.0)),
    (
        TreatmentPlan.piecewise([0.3, 0.77], [1.0, -0.5, 2.0], 1.0),
        TreatmentPlan.constant(0.25, 1.0),
    ),
    (
        TreatmentPlan.tabulated(
            [0.0, 0.137, 0.42, 0.5, 0.81, 1.0], [1.0, 0.3, -0.5, 2.0, 0.8, -1.5], 1.0
        ),
        TreatmentPlan.piecewise([0.5], [0.0, 1.0], 1.0),
    ),
]
PLANS = [plan for pair in PLAN_PAIRS for plan in pair]


def contrast_scale(coef, grid, plan_star, plan_base):
    """``|c| sum_k |b|^(J-1-k) |dw_k|``, the summed magnitude of the terms
    of the contrast of the coefficient row ``(a, b, c)``."""
    _, b, c = coef
    t = grid.times[:-1]
    dw = np.abs(plan_star.values_at(t) - plan_base.values_at(t))
    return abs(c) * float(np.sum(np.abs(b) ** np.arange(grid.J - 1, -1, -1) * dw))


class TestContrast:
    @given(
        coef=st.lists(
            st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3),
            min_size=1,
            max_size=5,
        ),
        plan=st.sampled_from(PLANS),
        J=st.integers(1, 40),
    )
    def test_identical_plans_give_exact_zero(self, coef, plan, J):
        got = _contrast(np.array(coef), Grid(J=J, T=1.0), plan, plan)
        assert got.tobytes() == np.zeros(len(coef)).tobytes()

    @pytest.mark.parametrize("pair", PLAN_PAIRS)
    @pytest.mark.parametrize("beta11", [0.2, -0.3, 1.0])
    @pytest.mark.parametrize("beta12", [-5.0, 1.5])
    @pytest.mark.parametrize("J", [1, 2, 3, 7, 10, 40, 64])
    def test_true_map_gives_theta_g_contrast(self, pair, beta11, beta12, J):
        params = make_params(beta12=beta12, beta11=beta11)
        plan_star, plan_base = pair
        grid = Grid(J=J, T=1.0)
        g = matexp(params.beta, -1.0 / J)
        coef = np.array([0.0, g[0, 0], g[0, 1]])
        got = _contrast(coef[None, :], grid, plan_star, plan_base)[0]
        want = theta_g(params, plan_star, J) - theta_g(params, plan_base, J)
        assert abs(got - want) <= 1e-14 * contrast_scale(coef, grid, plan_star, plan_base)

    @given(
        a=st.floats(-1e3, 1e3),
        b=st.floats(-1.1, 1.1),
        c=st.floats(1e-6, 10.0),
        c_sign=st.sampled_from([-1.0, 1.0]),
        y0=st.floats(-1e3, 1e3),
        pair=st.sampled_from(PLAN_PAIRS),
        J=st.integers(1, 40),
    )
    @example(a=1e3, b=0.99, c=1e-3, c_sign=1.0, y0=1e3, pair=PLAN_PAIRS[0], J=40)
    def test_matches_exact_level_recursions(self, a, b, c, c_sign, y0, pair, J):
        # The exact difference of the two level recursions from y0, in which
        # a and y0 cancel; at |a|, |y0| ~ 1e3 subtracting the rounded levels
        # would lose about 1e-11 of the scale.
        plan_star, plan_base = pair
        grid = Grid(J=J, T=1.0)
        coef = np.array([a, b, c_sign * c])
        got = _contrast(coef[None, :], grid, plan_star, plan_base)[0]
        want = contrast_fraction(coef, y0, grid, plan_star, plan_base)
        assert abs(got - want) <= 1e-14 * contrast_scale(coef, grid, plan_star, plan_base)


class TestEstimateContrast:
    def test_identical_plans_give_zero(self, ref_params, plan_one):
        panel = simulate_panel(ref_params, Grid(J=6, T=1.0), 50, seed=11)
        assert estimate_contrast(panel, plan_one, plan_one) == 0.0

    def test_null_effect_contrast_near_zero(self, plan_one, plan_zero):
        p = make_params(beta12=0.0)
        n = 5_000
        panel = simulate_panel(p, Grid(J=10, T=1.0), n, seed=13)
        tau = estimate_contrast(panel, plan_one, plan_zero)
        lo, hi = bootstrap_ci(panel, plan_one, plan_zero, 200, 0.05, seed=13)
        se = (hi - lo) / (2 * 1.96)
        assert abs(tau) < 4 * se

    def test_reference_study_settings(self, ref_params, plan_one, plan_zero):
        panel = simulate_panel(ref_params, Grid(J=40, T=1.0), 200, seed=14)
        tau = estimate_contrast(panel, plan_one, plan_zero)
        target = theta_g(ref_params, plan_one, 40) - theta_g(ref_params, plan_zero, 40)
        lo, hi = bootstrap_ci(panel, plan_one, plan_zero, 500, 0.05, seed=14)
        se = (hi - lo) / (2 * 1.96)
        assert abs(tau - target) < 4 * se

    def test_error_shrinks_with_sample_size(self, ref_params, plan_one, plan_zero):
        # Mean absolute estimation error over 20 seeds must shrink along
        # the sample-size ladder.
        target = theta_g(ref_params, plan_one, 10) - theta_g(ref_params, plan_zero, 10)
        mean_abs_err = []
        for n in (100, 1_000, 10_000):
            errs = [
                abs(
                    estimate_contrast(
                        simulate_panel(ref_params, Grid(J=10, T=1.0), n, seed=2_000 + s),
                        plan_one,
                        plan_zero,
                    )
                    - target
                )
                for s in range(20)
            ]
            mean_abs_err.append(float(np.mean(errs)))
        assert mean_abs_err[0] > mean_abs_err[1] > mean_abs_err[2]


class TestBootstrapCi:
    def test_deterministic_given_seed(self, ref_params, plan_one, plan_zero):
        panel = simulate_panel(ref_params, Grid(J=8, T=1.0), 100, seed=17)
        a = bootstrap_ci(panel, plan_one, plan_zero, 100, 0.05, seed=5)
        b = bootstrap_ci(panel, plan_one, plan_zero, 100, 0.05, seed=5)
        assert a == b
        c = bootstrap_ci(panel, plan_one, plan_zero, 100, 0.05, seed=6)
        assert a != c

    def test_degenerate_panel_zero_width_at_estimate(self, ref_params, plan_one, plan_zero):
        one = simulate_panel(ref_params, Grid(J=8, T=1.0), 1, seed=19)
        values = np.tile(one.values, (30, 1, 1))
        clones = TrajectoryPanel(grid=one.grid, values=values)
        tau = estimate_contrast(clones, plan_one, plan_zero)
        lo, hi = bootstrap_ci(clones, plan_one, plan_zero, 50, 0.05, seed=1)
        assert lo == hi == tau

    def test_interval_brackets_estimate(self, ref_params, plan_one, plan_zero):
        for seed in range(10):
            panel = simulate_panel(ref_params, Grid(J=10, T=1.0), 150, seed=seed)
            tau = estimate_contrast(panel, plan_one, plan_zero)
            lo, hi = bootstrap_ci(panel, plan_one, plan_zero, 300, 0.05, seed=seed)
            assert lo <= tau <= hi

    def test_all_replicates_degenerate_raises(self, plan_one, plan_zero):
        rng = np.random.default_rng(3)
        values = np.empty((10, 6, 2))
        values[:, :, 0] = rng.standard_normal((10, 6))
        values[:, :, 1] = 1.0
        panel = TrajectoryPanel(grid=Grid(J=5, T=1.0), values=values)
        with pytest.raises(BootstrapFailureError):
            bootstrap_ci(panel, plan_one, plan_zero, 20, 0.05, seed=3)

    def test_many_replicates_hold_no_count_matrix(self, ref_params, plan_one, plan_zero):
        # 20000 replicates of 200 units: their counts alone would take 32 MB.
        panel = simulate_panel(ref_params, Grid(J=40, T=1.0), 200, seed=23)
        tracemalloc.start()
        try:
            bootstrap_ci(panel, plan_one, plan_zero, 20000, 0.05, seed=23)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_interval_of_500_units_is_pinned(self, ref_params, plan_one, plan_zero):
        # From 385 units on, OpenBLAS sums a block's product in a different
        # order from one (n_boot, n) product, so these last digits moved
        # when the replicates were first formed in blocks (they read
        # 6.713089874686404 and 7.205387017045888 before); pinned so that
        # any later move is deliberate.
        panel = simulate_panel(ref_params, Grid(J=8, T=1.0), 500, seed=500)
        interval = bootstrap_ci(panel, plan_one, plan_zero, 500, 0.05, seed=500)
        assert [repr(x) for x in interval] == ["6.7130898746863705", "7.205387017049734"]

    def test_parameter_validation(self, ref_params, plan_one, plan_zero):
        panel = simulate_panel(ref_params, Grid(J=4, T=1.0), 10, seed=1)
        with pytest.raises(ValueError):
            bootstrap_ci(panel, plan_one, plan_zero, 1, 0.05, seed=1)
        with pytest.raises(ValueError):
            bootstrap_ci(panel, plan_one, plan_zero, 10, 1.5, seed=1)


def integer_statistics(n, seed=0):
    """``(n, 8)`` integer-valued unit statistics: every product and sum of
    their totals is exact, so the totals do not depend on the order in
    which a matrix product sums them."""
    rng = np.random.default_rng(seed)
    return rng.integers(-(2**20), 2**20, size=(n, 8)).astype(float)


def totals_of_draws(stats, draws):
    """``n S_0 + counts @ (S - S_0)``, ``counts`` the bincount of each row
    of ``draws``."""
    n = len(stats)
    counts = np.array([np.bincount(row, minlength=n) for row in draws], dtype=float)
    return n * stats[0] + counts @ (stats - stats[0])


class TestResampleTotals:
    # Block boundaries: one unit (16384 replicates a block); more than 16384
    # units (one replicate a block); n_boot not a multiple of the block's 81
    # rows; 127 rows of 129 units, an odd number of 32-bit draws a block;
    # and 2**20 units, whose two replicates alone would take 16 MB of counts.
    @pytest.mark.parametrize(
        "n, n_boot",
        [(1, 2), (1, 2 * 16384 + 3), (16385, 3), (20000, 2), (200, 500), (200, 81)]
        + [(37, 60), (37, 1000), (129, 300), (2, 20000), (2**20, 2)],
    )
    def test_totals_of_one_seeded_draw(self, n, n_boot):
        seed = 2**63 + 11
        stats = integer_statistics(n)
        totals = _resample_totals(stats, n_boot, seed)
        draws = np.random.default_rng(np.random.SeedSequence((seed, 1))).integers(
            0, n, size=(n_boot, n)
        )
        assert totals.shape == (n_boot, 8)
        assert totals.tobytes() == totals_of_draws(stats, draws).tobytes()

    @given(
        n=st.integers(1, 2**31 - 1) | st.sampled_from([1, 2, 3, 129, 2**31 - 1]),
        sizes=st.lists(st.integers(0, 7), min_size=1, max_size=6),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_consecutive_draws_continue_one_draw(self, n, sizes, seed):
        # The blocks of _resample_totals: a draw of an odd number of
        # values leaves its spare 32-bit half word in the bit generator,
        # and the next call starts from it.
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        pieces = [rng.integers(0, n, size=(m, 3)) for m in sizes]
        whole = np.random.default_rng(np.random.SeedSequence((seed, 1))).integers(
            0, n, size=(sum(sizes), 3)
        )
        np.testing.assert_array_equal(np.concatenate(pieces), whole)

    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**63 + 11, 2**64 - 1])
    def test_draws_are_no_unit_stream_of_the_seed(self, seed):
        # A panel simulated from ``seed`` draws unit u's normals from
        # unit_stream(seed, u); the bootstrap of that panel must not reuse
        # those 64-bit outputs as its indices.
        n, n_boot = 6, 5
        stats = integer_statistics(n)
        totals = _resample_totals(stats, n_boot, seed)
        for u in range(n):
            draws = sde.unit_stream(seed, u).integers(0, n, size=(n_boot, n))
            assert not np.array_equal(totals, totals_of_draws(stats, draws)), f"unit {u}"


class TestUnitStatistics:
    @given(
        J=st.integers(1, 64),
        n=st.sampled_from([1, 2, 7, 200]),
        scale=st.sampled_from([1e-200, 1e-8, 1.0, 1e8, 1e150]),
        seed=st.integers(0, 2**32 - 1),
        ties=st.booleans(),
    )
    def test_bit_identical_to_the_stacked_sums(self, J, n, scale, seed, ties):
        rng = np.random.default_rng(seed)
        values = scale * rng.standard_normal((n, J + 1, 2))
        if ties:
            # Repeated values and zeros of both signs, so that shifted
            # columns hold exact zeros whose signs the sums must keep.
            pool = np.array([0.0, -0.0, scale, -scale])
            values = pool[rng.integers(0, len(pool), size=values.shape)]
        got = _unit_statistics(values)
        want = unit_statistics_stacked(values)
        assert got.shape == (n, 8) and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


# Finite magnitudes from 1e-300 to 1e300 of either sign.
_MAGNITUDES = st.floats(min_value=1e-300, max_value=1e300) | st.floats(
    min_value=-1e300, max_value=-1e-300
)


@st.composite
def _samples(draw):
    """1 to 600 doubles: magnitudes, ties drawn from a small pool that may
    hold zeros of both signs, and NaN or infinities at random places."""
    pool = draw(st.lists(st.sampled_from([0.0, -0.0]) | _MAGNITUDES, min_size=1, max_size=4))
    x = draw(st.lists(st.sampled_from(pool) | _MAGNITUDES, min_size=1, max_size=600))
    x += draw(st.lists(st.sampled_from([math.nan, -math.nan, math.inf, -math.inf]), max_size=3))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(x)[:600]


class TestQuantiles:
    @given(
        x=_samples(),
        alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        | st.sampled_from([5e-324, 1e-17, 0.5]),
    )
    # Virtual index 0.5, where the two interpolation forms round apart.
    @example(x=[0.1, 0.7, 5.0], alpha=0.5)
    # One sample, which numpy reads past the last index at weight 1.
    @example(x=[-0.0], alpha=0.05)
    # Tied zeros of both signs: numpy's partition decides which one is read.
    @example(x=[-0.0, -0.0, 0.0, -1.0, -1.0, 0.0, -1.0, -1.0], alpha=0.05)
    # The NaN that sorts last is returned as it is, sign bit included.
    @example(x=[1.0, -math.nan], alpha=0.05)
    def test_bit_identical_to_numpy_quantile(self, x, alpha):
        x = np.asarray(x, dtype=float)
        q = [alpha / 2.0, 1.0 - alpha / 2.0]
        with np.errstate(invalid="ignore"):
            want = np.quantile(x, q)
            got = _quantiles(x, q)
        assert got.tobytes() == want.tobytes()


class TestAgainstLstsqOracle:
    """The count-weighted route against per-replicate lstsq refits."""

    @pytest.mark.parametrize("J", [8, 40])
    def test_fit_coefficients_match_lstsq(self, ref_params, J):
        panel = simulate_panel(ref_params, Grid(J=J, T=1.0), 200, seed=40 + J)
        coef = _sample_fit(panel.values)
        np.testing.assert_allclose(coef[0], lstsq_coefficients(panel.values), rtol=1e-9)

    @pytest.mark.parametrize("J", [8, 40])
    def test_bootstrap_matches_lstsq_refits(self, ref_params, plan_one, plan_zero, J):
        panel = simulate_panel(ref_params, Grid(J=J, T=1.0), 200, seed=50 + J)
        tau = estimate_contrast(panel, plan_one, plan_zero)
        lo, hi = bootstrap_ci(panel, plan_one, plan_zero, 500, 0.05, seed=J)
        want_lo, want_hi, dropped = lstsq_bootstrap(panel, plan_one, plan_zero, 500, 0.05, J)
        assert not dropped.any()
        want_tau = lstsq_contrast(panel.values, panel.grid, plan_one, plan_zero)
        assert tau == pytest.approx(want_tau, rel=1e-9)
        assert lo == pytest.approx(want_lo, rel=1e-9)
        assert hi == pytest.approx(want_hi, rel=1e-9)

    @pytest.mark.parametrize("varying", [3, 1])
    @pytest.mark.parametrize("w", [1.0, 0.3, 1e3])
    @pytest.mark.parametrize("first", [False, True], ids=["varying_last", "varying_first"])
    def test_partial_degeneracy_drops_the_oracle_replicates(
        self, plan_one, plan_zero, varying, w, first
    ):
        # 3 varying units of 50: (47/50)^50, about 4.5% of resamples miss them
        # all; 1 varying unit: (49/50)^50, about 36%.  With the varying units
        # first, unit 0's treatment, by which the sums are shifted, is not
        # the constant, so a resample's shifted treatment is a nonzero constant.
        panel = partly_constant_treatment_panel(n=50, varying=varying, w=w, first=first)
        totals = _resample_totals(_unit_statistics(panel.values), 500, seed=7)
        _, failed = _fit(panel.values, totals)
        want_lo, want_hi, dropped = lstsq_bootstrap(panel, plan_one, plan_zero, 500, 0.05, 7)
        assert 0 < dropped.sum() <= 50 if varying == 3 else dropped.sum() > 50
        np.testing.assert_array_equal(failed.any(axis=1), dropped)
        if varying == 1:
            with pytest.raises(BootstrapFailureError):
                bootstrap_ci(panel, plan_one, plan_zero, 500, 0.05, seed=7)
            return
        lo, hi = bootstrap_ci(panel, plan_one, plan_zero, 500, 0.05, seed=7)
        assert lo == pytest.approx(want_lo, rel=1e-9)
        assert hi == pytest.approx(want_hi, rel=1e-9)

    def test_mostly_degenerate_resamples_raise(self, plan_one, plan_zero):
        # 1 varying unit of 50: (49/50)^50, about 36% of resamples miss it.
        panel = partly_constant_treatment_panel(n=50, varying=1)
        _, _, dropped = lstsq_bootstrap(panel, plan_one, plan_zero, 500, 0.05, 7)
        assert dropped.mean() > 0.10
        with pytest.raises(BootstrapFailureError):
            bootstrap_ci(panel, plan_one, plan_zero, 500, 0.05, seed=7)


class TestSensitivityRatio:
    def test_interval_covering_zero(self):
        assert sensitivity_ratio(0.05, 0.3, -0.1, 0.2) == 0.0

    def test_direct_formula(self):
        assert sensitivity_ratio(2.0, 1.5, 1.0, 3.0) == pytest.approx(2.0)

    def test_undefined_denominator(self):
        assert sensitivity_ratio(2.0, 2.0, 1.0, 3.0) is None

    def test_endpoints_inclusive(self):
        assert sensitivity_ratio(1.0, 0.5, 0.0, 2.0) == 0.0
        assert sensitivity_ratio(-1.0, -0.5, -2.0, 0.0) == 0.0


class TestZetaReport:
    def test_endpoints_out_of_order(self):
        with pytest.raises(ValueError, match="out of order"):
            ZetaReport(tau_hat=2.0, tau_hat_half=1.5, ci_lower=3.0, ci_upper=1.0, zeta=2.0)

    def test_negative_zeta(self):
        with pytest.raises(ValueError, match="non-negative"):
            ZetaReport(tau_hat=2.0, tau_hat_half=1.5, ci_lower=1.0, ci_upper=3.0, zeta=-2.0)

    @pytest.mark.parametrize("ci_lower, ci_upper", [(-1.0, 1.0), (0.0, 2.0), (-2.0, 0.0)])
    @pytest.mark.parametrize("measure", [0.5, None])
    def test_interval_covering_zero_needs_zero(self, ci_lower, ci_upper, measure):
        interval = {"ci_lower": ci_lower, "ci_upper": ci_upper}
        with pytest.raises(ValueError, match="covers zero"):
            ZetaReport(tau_hat=0.1, tau_hat_half=0.2, **interval, zeta=measure)
        ZetaReport(tau_hat=0.1, tau_hat_half=0.2, **interval, zeta=0.0)

    def test_undefined_zeta_when_interval_excludes_zero(self):
        report = ZetaReport(tau_hat=2.0, tau_hat_half=2.0, ci_lower=1.0, ci_upper=3.0, zeta=None)
        assert report.zeta is None


class TestZeta:
    def test_odd_grid_rejected(self, ref_params, plan_one, plan_zero):
        panel = simulate_panel(ref_params, Grid(J=9, T=1.0), 50, seed=23)
        with pytest.raises(ValueError, match="even"):
            zeta(panel, plan_one, plan_zero, 50, 0.05, seed=23)

    def test_report_is_self_consistent(self, plan_one, plan_zero):
        p = make_params(beta12=-10.0)
        panel = simulate_panel(p, Grid(J=20, T=1.0), 200, seed=29)
        rep = zeta(panel, plan_one, plan_zero, 200, 0.05, seed=29)
        assert rep.ci_lower <= rep.ci_upper
        assert rep.tau_hat == estimate_contrast(panel, plan_one, plan_zero)
        if rep.ci_lower <= 0.0 <= rep.ci_upper:
            assert rep.zeta == 0.0
        else:
            want = min(abs(rep.ci_lower), abs(rep.ci_upper)) / abs(
                rep.tau_hat - rep.tau_hat_half
            )
            assert rep.zeta == want
            assert rep.zeta > 0.0

    def test_half_grid_estimate_matches_manual_subsample(self, ref_params, plan_one, plan_zero):
        panel = simulate_panel(ref_params, Grid(J=16, T=1.0), 120, seed=31)
        rep = zeta(panel, plan_one, plan_zero, 50, 0.05, seed=31)
        resim = simulate_panel(ref_params, Grid(J=16, T=1.0), 120, seed=31)
        half = subsample_panel(resim, 2)
        assert rep.tau_hat_half == estimate_contrast(half, plan_one, plan_zero)
        assert half.grid.J == 8

    def test_null_effect_mostly_zero(self, plan_one, plan_zero):
        p = make_params(beta12=0.0)
        zeros = 0
        for seed in range(6):
            panel = simulate_panel(p, Grid(J=8, T=1.0), 200, seed=seed)
            rep = zeta(panel, plan_one, plan_zero, 200, 0.05, seed=seed)
            zeros += rep.zeta == 0.0
        assert zeros >= 5

    # (Y scale, W scale, Y shift, W shift): changes of unit and origin,
    # which must not change the rank tests' verdict.
    @pytest.mark.parametrize(
        "sy, sw, dy, dw",
        [
            (1e4, 1.0, 0.0, 0.0),
            (1e-4, 1.0, 0.0, 0.0),
            (1.0, 1e5, 0.0, 0.0),
            (1.0, 1e-4, 0.0, 0.0),
            (1e6, 1e6, 0.0, 0.0),
            (1.0, 1.0, 1e3, 0.0),
            (1.0, 1.0, 0.0, 1e3),
            (1.0, 1.0, 1e5, 1e3),
        ],
    )
    def test_report_follows_affine_changes_of_units(
        self, ref_params, plan_one, plan_zero, sy, sw, dy, dw
    ):
        # Y -> sy Y + dy and W -> sw W + dw leave the schedules' difference
        # in W unchanged, so b is unchanged, c becomes c sy / sw and every
        # contrast scales by sy / sw.
        panel = simulate_panel(ref_params, Grid(J=40, T=1.0), 200, seed=14)
        values = panel.values.copy()
        values[:, :, 0] = sy * values[:, :, 0] + dy
        values[:, :, 1] = sw * values[:, :, 1] + dw
        moved = TrajectoryPanel(grid=panel.grid, values=values)
        _, failed = _fit(values, _resample_totals(_unit_statistics(values), 500, seed=14))
        assert not failed.any()
        want = zeta(panel, plan_one, plan_zero, 500, 0.05, seed=14)
        got = zeta(moved, plan_one, plan_zero, 500, 0.05, seed=14)
        for field in ("tau_hat", "tau_hat_half", "ci_lower", "ci_upper"):
            rescaled = getattr(want, field) * sy / sw
            assert getattr(got, field) == pytest.approx(rescaled, rel=1e-10)

    def test_bit_identical_given_seed(self, plan_one, plan_zero):
        p = make_params(beta12=-10.0)
        panel = simulate_panel(p, Grid(J=12, T=1.0), 100, seed=37)
        a = zeta(panel, plan_one, plan_zero, 100, 0.05, seed=37)
        b = zeta(panel, plan_one, plan_zero, 100, 0.05, seed=37)
        assert a == b

    # The estimates depend on the values only: a Fortran-ordered copy of
    # a panel gives the same bits.  n = 400 covers panels past 384 units,
    # whose bootstrap products OpenBLAS sums another way (see
    # test_interval_of_500_units_is_pinned).
    @pytest.mark.parametrize("J, n", [(40, 200), (16, 50), (200, 30), (8, 400)])
    def test_fortran_ordered_values_give_the_same_bits(self, ref_params, plan_one, plan_zero, J, n):
        panel = simulate_panel(ref_params, Grid(J=J, T=1.0), n, seed=J + n)
        fortran = TrajectoryPanel(grid=panel.grid, values=np.asfortranarray(panel.values))

        def bits(p):
            rep = zeta(p, plan_one, plan_zero, 200, 0.05, seed=5)
            return [
                float(x).hex()
                for x in (
                    estimate_contrast(p, plan_one, plan_zero),
                    *bootstrap_ci(p, plan_one, plan_zero, 200, 0.05, seed=5),
                    rep.tau_hat, rep.tau_hat_half, rep.ci_lower, rep.ci_upper, rep.zeta,
                )
            ]

        assert bits(fortran) == bits(panel)


class TestNaiveEstimandMonteCarlo:
    def test_formula_matches_regression_plug_in(self, ref_params, plan_one):
        # The outcome-history-only estimand: regress Y_J on the last state,
        # plug in the schedule value, average over the factual lag outcome.
        J = 10
        want, _ = theta_naive(ref_params, plan_one, J)
        estimates = []
        for seed in range(10):
            panel = simulate_panel(ref_params, Grid(J=J, T=1.0), 50_000, seed=100 + seed)
            coef = _sample_fit(panel.values)
            a, b, c = coef[0]
            y_prev = panel.values[:, -2, 0]
            w_star = plan_one((J - 1) / J)
            estimates.append(a + b * y_prev.mean() + c * w_star)
        se = np.std(estimates, ddof=1) / math.sqrt(len(estimates))
        assert abs(np.mean(estimates) - want) < 4 * se
