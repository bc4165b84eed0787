import math
import signal
import tempfile
import tracemalloc
from contextlib import contextmanager
from decimal import Decimal
from functools import partial
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import assume, given, settings, strategies as st

from gridbias import (
    Grid,
    ModelParams,
    TrajectoryPanel,
    TreatmentPlan,
    matexp,
    read_panel_csv,
    simulate_counterfactual,
    simulate_panel,
    subsample_panel,
    transition_law,
    write_panel_csv,
)
from gridbias import sde
from gridbias.cli import derive_seed
from gridbias.sde import counterfactual_step_variance
from tests.conftest import REF_BETA, REF_COV, REF_MEAN, REF_SIGMA, make_params
from tests.oracles import (
    cov_kronecker,
    cov_simpson,
    eigen2,
    expm_series,
    min_eigenvalue_exact,
    write_panel_csv_rowwise,
)

# Step-0.1 noise covariance of the reference drift/diffusion, from 40-digit
# quadrature of the integral (a 1e5-panel Simpson rule over the independent
# series exponential reproduces these to 8e-16).
NOISE_COV_REF = np.array(
    [
        [0.13781058914500762589, 0.072858098600446034965],
        [0.072858098600446034965, 0.050596333732416587265],
    ]
)


def oracle_cov_simpson(beta, sigma, delta, panels=2000):
    """Covariance quadrature over the series exponential of the 2x2 drift.

    At 2000 panels the Simpson truncation error is far below the assertion
    tolerances used here."""
    return cov_simpson(beta, sigma @ sigma.T, delta, panels, expm_series)


class TestTransitionLaw:
    def test_brownian_motion(self):
        p = ModelParams(
            beta=np.zeros((2, 2)),
            sigma=np.eye(2),
            init_mean=[0.0, 0.0],
            init_cov=np.zeros((2, 2)),
            horizon=1.0,
        )
        mean_map, noise_cov = transition_law(p, 1.0)
        np.testing.assert_allclose(mean_map, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(noise_cov, np.eye(2), atol=1e-12)

    def test_deterministic_ode(self, ref_params):
        p = make_params(sigma=np.zeros((2, 2)))
        mean_map, noise_cov = transition_law(p, 0.3)
        np.testing.assert_allclose(noise_cov, np.zeros((2, 2)), atol=1e-15)
        np.testing.assert_allclose(mean_map, matexp(p.beta, -0.3), atol=0, rtol=1e-15)

    def test_returns_mean_map_and_noise_cov(self, ref_params):
        law = transition_law(ref_params, 0.1)
        assert type(law) is tuple and len(law) == 2
        for a in law:
            assert a.shape == (2, 2) and a.dtype == np.float64

    def test_reference_noise_cov(self, ref_params):
        _, noise_cov = transition_law(ref_params, 0.1)
        np.testing.assert_allclose(noise_cov, NOISE_COV_REF, rtol=1e-13, atol=1e-15)

    def test_doubling_route_matches_quadrature_oracles(self, ref_params):
        _, noise_cov = transition_law(ref_params, 0.1)
        closed_form_simpson = cov_simpson(
            ref_params.beta, ref_params.sigma @ ref_params.sigma.T, 0.1, 10_000
        )
        np.testing.assert_allclose(noise_cov, closed_form_simpson, atol=1e-8)
        independent = oracle_cov_simpson(ref_params.beta, ref_params.sigma, 0.1)
        np.testing.assert_allclose(noise_cov, independent, atol=1e-10)

    def test_rejects_nonpositive_step(self, ref_params):
        with pytest.raises(ValueError):
            transition_law(ref_params, 0.0)
        with pytest.raises(ValueError):
            transition_law(ref_params, -0.5)

    def test_noise_cov_is_symmetric_psd_over_random_params(self):
        # No check runs on transition_law's output: this is the guarantee
        # simulate_panel relies on, exact symmetry and a smallest eigenvalue
        # within sde.COV_RTOL of the largest entry, at every diffusion scale.
        rng = np.random.default_rng(99)
        for _ in range(50):
            beta = rng.uniform(-2, 2, size=(2, 2))
            unit_sigma = rng.uniform(-1, 1, size=(2, 2))
            delta = float(rng.uniform(0.01, 1.5))
            for scale in (1e-100, 1e-50, 1e-10, 1.0, 1e10, 1e50, 1e100):
                sigma = scale * unit_sigma
                p = ModelParams(
                    beta=beta,
                    sigma=sigma,
                    init_mean=[0.0, 0.0],
                    init_cov=np.eye(2),
                    horizon=1.0,
                )
                _, cov = transition_law(p, delta)
                biggest = np.max(np.abs(cov))
                assert np.array_equal(cov, cov.T)
                assert np.linalg.eigvalsh(cov).min() >= -sde.COV_RTOL * biggest
                kron = cov_kronecker(beta, sigma @ sigma.T, delta)
                assert np.max(np.abs(cov - kron)) <= 1e-12 * np.max(np.abs(kron))

    def test_singular_kronecker_sum_needs_no_fallback(self):
        # Opposite-sign eigenvalues make the Kronecker sum singular; the
        # doubling route has no special case there and must match the
        # quadrature oracle.
        beta = np.diag([0.7, -0.7])
        p = ModelParams(
            beta=beta, sigma=REF_SIGMA, init_mean=[0, 0], init_cov=np.eye(2), horizon=1.0
        )
        _, noise_cov = transition_law(p, 0.2)
        np.testing.assert_allclose(noise_cov, oracle_cov_simpson(beta, REF_SIGMA, 0.2), atol=1e-10)

    @pytest.mark.parametrize("J", [2, 8, 40])
    @pytest.mark.parametrize("b11", [50.0, 100.0, 400.0])
    def test_stiff_drift_matches_kronecker_oracle(self, b11, J):
        # A block exponential carrying e^{+beta delta} beside e^{-beta delta}
        # lost up to 1e-6 of the largest entry here, and at b11 = 100, J = 2
        # its result was not PSD.
        p = make_params(beta11=b11)
        _, got = transition_law(p, 1.0 / J)
        want = cov_kronecker(p.beta, REF_SIGMA @ REF_SIGMA.T, 1.0 / J)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("delta", [1 / 8, 1 / 40])
    def test_oscillator_drift_matches_quadrature(self, delta):
        # tr(beta) = 0 with a complex eigenvalue pair: the Kronecker sum is
        # singular, and the quadrature over the closed-form exponential is
        # the reference.
        beta = np.array([[0.5, -10.0], [3.0, -0.5]])
        p = ModelParams(
            beta=beta, sigma=REF_SIGMA, init_mean=[0, 0], init_cov=np.eye(2), horizon=1.0
        )
        want = cov_simpson(beta, REF_SIGMA @ REF_SIGMA.T, delta, 10_000)
        _, got = transition_law(p, delta)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def tuple_key_stream(seed, unit):
    """The stream as ``SeedSequence`` builds it from the tuple key itself."""
    return np.random.default_rng(np.random.SeedSequence((seed, 0, unit)))


def assert_same_stream(got, want):
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(got.bit_generator.random_raw(16), want.bit_generator.random_raw(16))
    assert np.array_equal(got.standard_normal(16), want.standard_normal(16))


@contextmanager
def fails_within(seconds):
    """Raise in the main thread if the block runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestUnitStream:
    # Word boundaries of the 32-bit split: 0 is one zero word, 2^32 - 1 the
    # largest one-word key, 2^32 the smallest two-word one.
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**70]
    UNITS = [0, 1, 2**32 - 1, 2**32]

    @pytest.mark.parametrize("unit", UNITS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_the_tuple_key(self, seed, unit):
        assert_same_stream(sde.unit_stream(seed, unit), tuple_key_stream(seed, unit))

    @given(st.integers(0, 2**130), st.integers(0, 2**70))
    def test_matches_the_tuple_key_everywhere(self, seed, unit):
        assert_same_stream(sde.unit_stream(seed, unit), tuple_key_stream(seed, unit))

    def test_numpy_integer_keys_match(self):
        assert_same_stream(
            sde.unit_stream(np.uint64(2**64 - 1), np.int64(3)), tuple_key_stream(2**64 - 1, 3)
        )

    @pytest.mark.parametrize("seed, unit", [(-1, 0), (0, -1), (-(2**70), 5), (7, -(2**40))])
    def test_negative_key_raises(self, seed, unit):
        # A negative int shifted right never reaches 0.
        with fails_within(2.0), pytest.raises(ValueError, match="non-negative"):
            sde.unit_stream(seed, unit)

    @pytest.mark.parametrize("seed, unit", [(1.5, 0), (0, 2.0), (np.float64(3.0), 1), ("7", 0)])
    def test_non_integer_key_raises(self, seed, unit):
        with pytest.raises(TypeError):
            sde.unit_stream(seed, unit)

    def test_simulators_reject_bad_seeds(self, ref_params, plan_one):
        grid = Grid(J=3, T=1.0)
        for simulate in (
            partial(simulate_panel, ref_params, grid, 2),
            partial(simulate_counterfactual, ref_params, plan_one, grid, 2),
        ):
            with fails_within(2.0), pytest.raises(ValueError, match="non-negative"):
                simulate(-1)
            with pytest.raises(TypeError):
                simulate(1.5)


class TestUnitSeedBlock:
    """``sde._unit_seed_block`` holds, row by row, the words
    ``SeedSequence((seed, 0, unit)).generate_state(4, np.uint64)`` gives."""

    # A seed of 2**130 makes a key of seven words, three past SeedSequence's
    # pool of four, so the extra mixing rounds run.
    SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1, 2**130]
    # The blocks holding units 255 and 256, and 2**32 - 1 and 2**32.
    UNITS = [255, 256, 2**32 - 1, 2**32]

    @pytest.mark.parametrize("unit", UNITS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_row_is_the_seed_sequence_state(self, seed, unit):
        block = unit // sde.UNIT_SEED_BLOCK
        words = sde._unit_seed_block(seed, block)
        assert words.shape == (sde.UNIT_SEED_BLOCK, 4)
        assert words.dtype == np.uint64
        assert words.flags.c_contiguous and not words.flags.writeable
        first = block * sde.UNIT_SEED_BLOCK
        want = [
            np.random.SeedSequence((seed, 0, first + i)).generate_state(4, np.uint64)
            for i in range(sde.UNIT_SEED_BLOCK)
        ]
        np.testing.assert_array_equal(words, want)

    def test_block_divides_the_unit_word(self):
        size = sde.UNIT_SEED_BLOCK
        assert size & (size - 1) == 0 and 2**32 % size == 0

    def test_draws_are_the_same_fresh_cached_and_evicted(self):
        seed, unit = 2**64 - 1, 300
        sde._unit_seed_block.cache_clear()
        assert_same_stream(sde.unit_stream(seed, unit), tuple_key_stream(seed, unit))
        misses = sde._unit_seed_block.cache_info().misses
        assert_same_stream(sde.unit_stream(seed, unit), tuple_key_stream(seed, unit))
        assert sde._unit_seed_block.cache_info().misses == misses
        for other in range(5):
            sde.unit_stream(other, unit)
        assert_same_stream(sde.unit_stream(seed, unit), tuple_key_stream(seed, unit))
        # Five other seeds evicted the block, so it was hashed again.
        assert sde._unit_seed_block.cache_info().misses == misses + 6

    def test_seed_seq_holds_the_units_words(self):
        seed_seq = sde.unit_stream(7, 3).bit_generator.seed_seq
        want = np.random.SeedSequence((7, 0, 3)).generate_state(4, np.uint64)
        np.testing.assert_array_equal(seed_seq.generate_state(4, np.uint64), want)
        with pytest.raises(ValueError, match="four uint64 seed words"):
            seed_seq.generate_state(8, np.uint32)


class TestSeedSequence:
    """``sde._seed_sequence`` is the one place a key becomes a
    ``SeedSequence``; each key gives the state of the tuple key itself."""

    @given(st.lists(st.integers(0, 2**96 - 1), min_size=1, max_size=5))
    def test_matches_the_tuple_key(self, key):
        want = np.random.SeedSequence(tuple(key))
        got = sde._seed_sequence(*key)
        assert np.array_equal(got.generate_state(4), want.generate_state(4))
        # The cell seed as bench/checks.py recomputes it from the tuple.
        assert derive_seed(*key) == int(want.generate_state(1, np.uint64)[0])

    @given(
        st.lists(st.integers(0, 2**96 - 1), max_size=4),
        st.integers(-(2**96), -1),
        st.data(),
    )
    def test_negative_entry_raises(self, key, negative, data):
        key.insert(data.draw(st.integers(0, len(key))), negative)
        with pytest.raises(ValueError, match="non-negative"):
            sde._seed_sequence(*key)


class TestSimulatePanel:
    def test_deterministic_flow_without_noise(self):
        p = make_params(sigma=np.zeros((2, 2)), init_cov=np.zeros((2, 2)))
        grid = Grid(J=8, T=1.0)
        panel = simulate_panel(p, grid, n=3, seed=1)
        for k, t in enumerate(grid.times):
            want = matexp(p.beta, -t) @ p.init_mean
            np.testing.assert_allclose(panel.values[:, k, :], np.tile(want, (3, 1)), rtol=1e-12, atol=1e-12)

    def test_terminal_mean_matches_flow(self, ref_params):
        n = 20_000
        panel = simulate_panel(ref_params, Grid(J=10, T=1.0), n, seed=7)
        terminal = panel.values[:, -1, :]
        want = matexp(ref_params.beta, -1.0) @ ref_params.init_mean
        se = terminal.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(terminal.mean(axis=0) - want) < 4 * se)

    @pytest.mark.parametrize("seed", [5, 2**63 + 12345])
    def test_units_do_not_depend_on_panel_size(self, ref_params, seed):
        # Unit i's rows depend only on (seed, i) and J: the first 50 units
        # of a 200-unit panel are the 50-unit panel, bit for bit.
        grid = Grid(J=7, T=1.0)
        small = simulate_panel(ref_params, grid, 50, seed)
        large = simulate_panel(ref_params, grid, 200, seed)
        assert np.array_equal(small.values, large.values[:50])

    def test_seed_reproducibility(self, ref_params):
        a = simulate_panel(ref_params, Grid(J=5, T=1.0), 64, seed=123)
        b = simulate_panel(ref_params, Grid(J=5, T=1.0), 64, seed=123)
        assert np.array_equal(a.values, b.values)
        c = simulate_panel(ref_params, Grid(J=5, T=1.0), 64, seed=124)
        assert not np.array_equal(a.values, c.values)

    def test_rejects_empty_panel(self, ref_params):
        with pytest.raises(ValueError):
            simulate_panel(ref_params, Grid(J=5, T=1.0), 0, seed=1)

    def test_rejects_indefinite_init_cov(self):
        with pytest.raises(ValueError):
            make_params(init_cov=np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_recursion_beyond_the_double_range_raises(self):
        # e^{50/8} per step carries 1e300 past the largest double.  Called
        # outside the CLI's np.errstate: the simulator must say so itself,
        # with no RuntimeWarning (an error under this suite's filter).
        p = ModelParams(
            beta=np.diag([-50.0, -50.0]), sigma=REF_SIGMA, init_mean=[1e300, 0.0],
            init_cov=REF_COV, horizon=1.0,
        )
        with pytest.raises(OverflowError, match="^simulated panel exceeds the double range$"):
            simulate_panel(p, Grid(J=8, T=1.0), 3, seed=1)

    @pytest.mark.parametrize("refine", [2, 3])
    def test_refinement_then_subsampling_matches_in_law(self, ref_params, refine):
        # The sampler is exact in law: simulating on a grid refined by any
        # factor and keeping every refine-th point must match the direct
        # simulation's per-time means and covariances up to Monte Carlo
        # noise.  4-SE bound on the difference of independent samples.
        n = 100_000
        J = 4
        direct = simulate_panel(ref_params, Grid(J=J, T=1.0), n, seed=31)
        fine = simulate_panel(ref_params, Grid(J=J * refine, T=1.0), n, seed=32)
        sub = subsample_panel(fine, refine)
        np.testing.assert_array_equal(sub.grid.times, direct.grid.times)
        for k in range(J + 1):
            a = direct.values[:, k, :]
            b = sub.values[:, k, :]
            se = np.sqrt(a.var(axis=0, ddof=1) / n + b.var(axis=0, ddof=1) / n)
            np.testing.assert_array_less(np.abs(a.mean(axis=0) - b.mean(axis=0)), 4 * se + 1e-12)
            ca, cb = np.cov(a.T), np.cov(b.T)
            for i in range(2):
                for j in range(2):
                    se_c = math.sqrt(
                        (ca[i, i] * ca[j, j] + ca[i, j] ** 2) / n
                        + (cb[i, i] * cb[j, j] + cb[i, j] ** 2) / n
                    )
                    assert abs(ca[i, j] - cb[i, j]) < 4 * se_c + 1e-12


class TestSimulateCounterfactual:
    def test_no_effect_means_plan_free_outcome(self):
        p = make_params(beta12=0.0)
        grid = Grid(J=6, T=1.0)
        a = simulate_counterfactual(p, TreatmentPlan.constant(1.0, horizon=1.0), grid, 500, seed=5)
        b = simulate_counterfactual(p, TreatmentPlan.constant(-3.0, horizon=1.0), grid, 500, seed=5)
        # b12 = 0 removes the forcing term entirely: Y paths are identical.
        assert np.array_equal(a.values[:, :, 0], b.values[:, :, 0])
        n = 20_000
        c = simulate_counterfactual(p, TreatmentPlan.constant(1.0, horizon=1.0), grid, n, seed=6)
        y = c.values[:, -1, 0]
        se = y.std(ddof=1) / math.sqrt(n)
        assert abs(y.mean() - math.exp(-0.2)) < 4 * se

    def test_terminal_mean_matches_eta(self, ref_params, plan_one):
        from gridbias import true_eta

        n = 20_000
        panel = simulate_counterfactual(ref_params, plan_one, Grid(J=10, T=1.0), n, seed=8)
        y = panel.values[:, -1, 0]
        se = y.std(ddof=1) / math.sqrt(n)
        assert abs(y.mean() - true_eta(ref_params, plan_one)) < 4 * se

    def test_noise_free_matches_ode_solution(self):
        # With b11 != 0 the scalar ODE y' = -b11 y - b12 c has solution
        # y(t) = y_eq + e^{-b11 t}(y0 - y_eq), y_eq = -b12 c / b11.
        p = make_params(sigma=np.zeros((2, 2)), init_cov=np.zeros((2, 2)))
        c = 1.0
        grid = Grid(J=16, T=1.0)
        panel = simulate_counterfactual(p, TreatmentPlan.constant(c, horizon=1.0), grid, 2, seed=9)
        b11, b12 = p.beta[0, 0], p.beta[0, 1]
        y_eq = -b12 * c / b11
        want = y_eq + np.exp(-b11 * grid.times) * (p.init_mean[0] - y_eq)
        np.testing.assert_allclose(panel.values[0, :, 0], want, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(panel.values[:, :, 1], np.tile(c, (2, grid.J + 1)))

    @pytest.mark.parametrize("seed", [5, 2**63 + 12345])
    def test_units_do_not_depend_on_panel_size(self, ref_params, seed):
        plan = TreatmentPlan.piecewise([0.5], [0.0, 1.0], horizon=1.0)
        grid = Grid(J=7, T=1.0)
        small = simulate_counterfactual(ref_params, plan, grid, 50, seed)
        large = simulate_counterfactual(ref_params, plan, grid, 200, seed)
        assert np.array_equal(small.values, large.values[:50])

    def test_rejects_empty_panel(self, ref_params, plan_one):
        with pytest.raises(ValueError, match="^need at least one unit$"):
            simulate_counterfactual(ref_params, plan_one, Grid(J=5, T=1.0), 0, seed=1)

    def test_initial_variance_within_tolerance_below_zero_is_zero(self, plan_one):
        # -1e-13 lies within COV_RTOL of the largest entry, so the covariance
        # is accepted and Y_0 has sd 0 rather than the root of a negative.
        p = make_params(init_cov=np.array([[-1e-13, 0.0], [0.0, 1.0]]))
        panel = simulate_counterfactual(p, plan_one, Grid(J=4, T=1.0), 3, seed=1)
        np.testing.assert_array_equal(panel.values[:, 0, 0], np.full(3, REF_MEAN[0]))

    def test_plan_must_cover_grid(self, ref_params):
        short_plan = TreatmentPlan.constant(1.0, horizon=0.5)
        with pytest.raises(ValueError):
            simulate_counterfactual(ref_params, short_plan, Grid(J=4, T=1.0), 2, seed=1)

    def test_short_plan_fails_alike_everywhere(self, ref_params):
        from gridbias import bootstrap_ci, estimate_contrast, theta_g, true_eta, zeta

        short_plan = TreatmentPlan.constant(1.0, horizon=0.5)
        full_plan = TreatmentPlan.constant(0.0, horizon=1.0)
        message = "plan domain [0, 0.5] does not cover the study horizon 1.0"
        panel = simulate_panel(ref_params, Grid(J=4, T=1.0), 20, seed=1)
        calls = [
            lambda: true_eta(ref_params, short_plan),
            lambda: theta_g(ref_params, short_plan, 4),
            lambda: simulate_counterfactual(ref_params, short_plan, Grid(J=4, T=1.0), 2, seed=1),
        ]
        for star, base in ((short_plan, full_plan), (full_plan, short_plan)):
            calls += [
                partial(estimate_contrast, panel, star, base),
                partial(bootstrap_ci, panel, star, base, 20, 0.05, seed=1),
                partial(zeta, panel, star, base, 20, 0.05, seed=1),
            ]
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    def test_step_variance_zero_drift_limit(self):
        p = make_params(beta11=0.0)
        s2 = p.sigma[0, 0] ** 2 + p.sigma[0, 1] ** 2
        assert counterfactual_step_variance(p, 0.25) == pytest.approx(s2 * 0.25, rel=1e-12)
        p2 = make_params(beta11=0.2)
        want = s2 * (1 - math.exp(-2 * 0.2 * 0.25)) / (2 * 0.2)
        assert counterfactual_step_variance(p2, 0.25) == pytest.approx(want, rel=1e-12)

    def test_step_variance_tiny_drift_keeps_full_precision(self):
        # At b11 * delta = 5e-9 the s2 * delta limit is off by 5e-9
        # relative; the expm1 form is exact to roundoff.
        b11, delta = 5e-9, 1.0
        p = make_params(beta11=b11)
        s2 = p.sigma[0, 0] ** 2 + p.sigma[0, 1] ** 2
        want = s2 * -math.expm1(-2 * b11 * delta) / (2 * b11)
        assert counterfactual_step_variance(p, delta) == pytest.approx(want, rel=1e-15)
        assert abs(want / (s2 * delta) - 1) > 4e-9

    @pytest.mark.parametrize("row", [[1e200, 0.0], [1e154, 1e154]])
    def test_step_variance_beyond_the_double_range_raises(self, row):
        # Called outside the CLI's np.errstate: the variance must say so
        # itself, with no RuntimeWarning (an error under this suite's filter).
        p = ModelParams(
            beta=REF_BETA, sigma=[row, [0.0, 1.0]], init_mean=REF_MEAN, init_cov=REF_COV,
            horizon=1.0,
        )
        plan = TreatmentPlan.constant(1.0, horizon=1.0)
        with pytest.raises(OverflowError, match="counterfactual step variance"):
            simulate_counterfactual(p, plan, Grid(J=4, T=1.0), 3, seed=1)

    @pytest.mark.parametrize(
        "beta, init_mean, value",
        [
            # A forcing of about -1e308 per step, summed over the steps.
            ([[0.2, 1e308], [-3.0, 0.5]], REF_MEAN, 10.0),
            # e^{800/10} per step carries 1e300 past the largest double.
            ([[-800.0, 0.0], [0.0, 0.5]], [1e300, 0.0], 1.0),
        ],
        ids=["forcing", "decay"],
    )
    def test_recursion_beyond_the_double_range_raises(self, beta, init_mean, value):
        p = ModelParams(
            beta=beta, sigma=REF_SIGMA, init_mean=init_mean, init_cov=REF_COV, horizon=1.0
        )
        plan = TreatmentPlan.constant(value, horizon=1.0)
        with pytest.raises(OverflowError, match="^simulated panel exceeds the double range$"):
            simulate_counterfactual(p, plan, Grid(J=10, T=1.0), 3, seed=1)


OSCILLATOR_BETA = np.array([[0.5, -5.0], [3.0, -0.5]])


def em_observational_law(params, h):
    """Exact terminal law of the Euler-Maruyama scheme
    ``X <- D X + sqrt(h) sigma z`` with ``D = I - h beta`` from
    ``X_0 ~ N(init_mean, init_cov)``: the mean map ``D^(T/h)`` (the mean is
    ``D^(T/h) init_mean``) and the covariance, ``P <- D P D' + h sigma
    sigma'`` from ``P = init_cov``."""
    steps = round(params.horizon / h)
    drift = np.eye(2) - h * params.beta
    noise = h * params.sigma @ params.sigma.T
    cov = params.init_cov
    for _ in range(steps):
        cov = drift @ cov @ drift.T + noise
    return np.linalg.matrix_power(drift, steps), cov


def em_counterfactual_law(params, plan, h):
    """Exact terminal mean and variance of the scalar Euler-Maruyama
    scheme ``Y <- (1 - h b11) Y - h b12 w + sqrt(h) (s11 z1 + s12 z2)``
    from ``Y_0 ~ N(init_mean[0], init_cov[0, 0])``."""
    steps = round(params.horizon / h)
    b11, b12 = params.beta[0, 0], params.beta[0, 1]
    s2 = params.sigma[0, 0] ** 2 + params.sigma[0, 1] ** 2
    m, v = params.init_mean[0], params.init_cov[0, 0]
    for k in range(steps):
        m = (1 - h * b11) * m - h * b12 * plan(k * h)
        v = (1 - h * b11) ** 2 * v + h * s2
    return m, v


class TestEulerMaruyamaOracle:
    """Cross-check the exact samplers' terminal samples against the exact
    terminal law of a fine Euler-Maruyama (EM) scheme.

    The EM mean and covariance recursions are linear, so the scheme's
    terminal law is computed exactly, without sampling it.  A sampled mean
    must agree with the EM mean within 4 standard errors plus the EM
    mean's bias, known exactly: ``((I - h beta)^(T/h) - e^{-beta T})
    init_mean``.  A sampled covariance entry must agree with the EM one
    within 4 standard errors plus ``|law(h) - law(2h)|``: EM has weak
    order one (Kloeden and Platen 1992, ch. 14), so ``law(h) - law = c h
    + O(h^2)`` and ``law(h) - law(2h) = -c h + O(h^2)`` bounds the bias of
    ``law(h)`` to first order.  A simulator whose noise scale is off by a
    tenth, or its initial spread by a fifth, fails the covariance checks.
    """

    @pytest.mark.parametrize("beta", [REF_BETA, OSCILLATOR_BETA], ids=["reference", "oscillator"])
    def test_observational_terminal_law(self, beta):
        params = ModelParams(
            beta=beta, sigma=REF_SIGMA, init_mean=REF_MEAN, init_cov=REF_COV, horizon=1.0
        )
        h, n = 1e-4, 100_000
        x = simulate_panel(params, Grid(J=10, T=params.horizon), n, seed=778).values[:, -1, :]
        em_map, em_cov = em_observational_law(params, h)
        _, em_cov_2h = em_observational_law(params, 2 * h)

        se = x.std(axis=0, ddof=1) / math.sqrt(n)
        bias = np.abs((em_map - matexp(params.beta, -params.horizon)) @ params.init_mean)
        assert np.all(np.abs(x.mean(axis=0) - em_map @ params.init_mean) < 4 * se + bias)

        s = np.cov(x.T)
        var = np.diag(s)
        se_cov = np.sqrt((np.outer(var, var) + s**2) / n)
        assert np.all(np.abs(s - em_cov) < 4 * se_cov + np.abs(em_cov - em_cov_2h))

    def test_counterfactual_terminal_law(self, ref_params, plan_one):
        from gridbias import true_eta

        h, n = 2e-4, 50_000
        panel = simulate_counterfactual(ref_params, plan_one, Grid(J=10, T=1.0), n, seed=802)
        y = panel.values[:, -1, 0]
        m, v = em_counterfactual_law(ref_params, plan_one, h)
        _, v_2h = em_counterfactual_law(ref_params, plan_one, 2 * h)

        bias = abs(m - true_eta(ref_params, plan_one))
        assert abs(y.mean() - m) < 4 * y.std(ddof=1) / math.sqrt(n) + bias

        var = y.var(ddof=1)
        assert abs(var - v) < 4 * var * math.sqrt(2 / n) + abs(v - v_2h)


class TestSubsamplePanel:
    def test_exact_timestamps_and_values(self, ref_params):
        panel = simulate_panel(ref_params, Grid(J=8, T=1.0), 16, seed=3)
        sub = subsample_panel(panel, 2)
        assert sub.grid.J == 4
        np.testing.assert_array_equal(sub.grid.times, panel.grid.times[::2])
        np.testing.assert_array_equal(sub.grid.times, Grid(J=4, T=1.0).times)
        np.testing.assert_array_equal(sub.values, panel.values[:, ::2, :])

    def test_rejects_non_divisor(self, ref_params):
        panel = simulate_panel(ref_params, Grid(J=9, T=1.0), 4, seed=3)
        with pytest.raises(ValueError):
            subsample_panel(panel, 2)

    @pytest.mark.parametrize("factor", [0, -2])
    def test_rejects_factor_below_one(self, ref_params, factor):
        panel = simulate_panel(ref_params, Grid(J=8, T=1.0), 4, seed=3)
        with pytest.raises(ValueError, match="^factor must be >= 1$"):
            subsample_panel(panel, factor)


class TestPanelCsv:
    def test_round_trip_is_exact(self, ref_params, tmp_path):
        panel = simulate_panel(ref_params, Grid(J=7, T=1.0), 11, seed=2)
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        header = path.read_text().splitlines()[0]
        assert header == "unit,k,t,Y,W"
        back = read_panel_csv(path)
        assert back.grid == panel.grid
        assert back.n == panel.n
        np.testing.assert_array_equal(back.values, panel.values)

    @staticmethod
    def _written_lines(ref_params, tmp_path):
        path = tmp_path / "panel.csv"
        write_panel_csv(simulate_panel(ref_params, Grid(J=4, T=1.0), 3, seed=5), path)
        return path, path.read_text().splitlines()

    def test_missing_row_is_rejected(self, ref_params, tmp_path):
        path, lines = self._written_lines(ref_params, tmp_path)
        del lines[7]  # unit 1, k 1
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="missing the row of unit 1, step 1"):
            read_panel_csv(path)

    def test_duplicate_row_is_rejected(self, ref_params, tmp_path):
        path, lines = self._written_lines(ref_params, tmp_path)
        lines.append(lines[3])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="repeats the row of unit 0, step 2"):
            read_panel_csv(path)

    @pytest.mark.parametrize("text", ["", "unit,k,t,Y,W\n"], ids=["zero-byte", "header-only"])
    def test_empty_file_is_rejected(self, text, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="empty panel CSV"):
            read_panel_csv(path)

    def test_negative_index_is_rejected(self, ref_params, tmp_path):
        path, lines = self._written_lines(ref_params, tmp_path)
        lines[1] = "-1" + lines[1][1:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="negative unit or step index"):
            read_panel_csv(path)

    def test_off_grid_time_is_rejected(self, ref_params, tmp_path):
        path, lines = self._written_lines(ref_params, tmp_path)
        u, k, _t, y, w = lines[2].split(",")
        lines[2] = ",".join((u, k, "0.3", y, w))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="t=0.3, grid time is 0.25"):
            read_panel_csv(path)

    @pytest.mark.parametrize(
        "stray, missing",
        [("2000000,0,0.0,1.0,0.0", "unit 1, step 0"), ("0,2000000,1.0,1.0,0.0", "unit 0, step 2")],
    )
    def test_stray_large_index_fails_before_allocating_its_grid(self, stray, missing, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(f"unit,k,t,Y,W\n0,0,0.0,1.0,0.0\n0,1,1.0,1.0,0.0\n{stray}\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"missing the row of {missing}"):
                read_panel_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000

    def test_file_cut_inside_its_last_row_is_rejected(self, ref_params, tmp_path):
        path = tmp_path / "panel.csv"
        write_panel_csv(simulate_panel(ref_params, Grid(J=100, T=1.0), 5, seed=6), path)
        text = path.read_bytes()
        start = text.rindex(b"\n", 0, -1) + 1
        n_lines = text.count(b"\n")
        # Every cut that keeps part of the last row, up to all of it but
        # its newline: some of them still parse as a shorter W.
        for end in range(start + 1, len(text)):
            path.write_bytes(text[:end])
            with pytest.raises(ValueError, match=f"^panel CSV line {n_lines}: "):
                read_panel_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,1", "expected 5 fields, got 2"),
            ("0,1,0.25,1.0,0.0,7", "expected 5 fields, got 6"),
            ("A,1,0.25,1.0,0.0", "invalid literal for int"),
            ("0,1,0.25,abc,0.0", "could not convert string to float"),
        ],
        ids=["too-few", "too-many", "text-index", "text-value"],
    )
    def test_malformed_row_names_its_line(self, row, message, ref_params, tmp_path):
        path, lines = self._written_lines(ref_params, tmp_path)
        lines[4] = row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^panel CSV line 5: {message}"):
            read_panel_csv(path)

    def test_values_are_shortest_round_trip_decimals(self, ref_params, tmp_path):
        panel = simulate_panel(ref_params, Grid(J=2, T=1.0), 2, seed=4)
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        lines = path.read_text().splitlines()[1:]
        for line in lines:
            _u, _k, t, y, w = line.split(",")
            assert repr(float(y)) == y
            assert repr(float(w)) == w
            assert repr(float(t)) == t


@st.composite
def panels(draw, floats=st.floats(allow_nan=False, allow_infinity=False)):
    n = draw(st.integers(1, 4))
    J = draw(st.integers(1, 6))
    T = draw(st.floats(1e-3, 1e3))
    size = 2 * n * (J + 1)
    values = np.array(draw(st.lists(floats, min_size=size, max_size=size))).reshape(n, J + 1, 2)
    return TrajectoryPanel(grid=Grid(J=J, T=T), values=values)


def with_shared_w(panel):
    """``panel`` with unit 0's W column in every unit, as a counterfactual
    panel's units all hold its schedule."""
    values = panel.values.copy()
    values[:, :, 1] = values[0, :, 1]
    return TrajectoryPanel(grid=panel.grid, values=values)


class TestPanelCsvCorruption:
    """One structural corruption of a written panel CSV is a ``ValueError``,
    never another exception type."""

    @given(
        # Two units or more, so a step-J time moved by one ulp still
        # disagrees with another unit's horizon.
        panel=panels().filter(lambda p: p.n >= 2),
        mutation=st.sampled_from(
            ["drop row", "repeat row", "index -1", "index past end", "t one ulp",
             "drop field", "text field", "nan field", "inf field", "cut last row"]
        ),
        data=st.data(),
    )
    def test_structural_corruption_is_a_value_error(self, panel, mutation, data):
        with tempfile.TemporaryDirectory() as tmp_dir:
            path = Path(tmp_dir) / "panel.csv"
            write_panel_csv(panel, path)
            header, *rows = path.read_text().splitlines()
            i = data.draw(st.integers(0, len(rows) - 1), label="row")
            fields = rows[i].split(",")
            if mutation == "drop row":
                del rows[i]
            elif mutation == "repeat row":
                rows.insert(data.draw(st.integers(0, len(rows)), label="at"), rows[i])
            elif mutation in ("index -1", "index past end"):
                col = data.draw(st.sampled_from([0, 1]), label="index")
                past_end = panel.n if col == 0 else panel.grid.J + 1
                fields[col] = "-1" if mutation == "index -1" else str(past_end)
            elif mutation == "t one ulp":
                toward = data.draw(st.sampled_from([-math.inf, math.inf]), label="toward")
                fields[2] = repr(math.nextafter(float(fields[2]), toward))
            elif mutation == "drop field":
                del fields[data.draw(st.integers(0, 4), label="field")]
            elif mutation in ("text field", "nan field", "inf field"):
                text = {"text field": "abc", "nan field": "nan", "inf field": "inf"}[mutation]
                fields[data.draw(st.integers(0, 4), label="field")] = text
            if mutation not in ("drop row", "repeat row", "cut last row"):
                rows[i] = ",".join(fields)
            content = "\n".join([header, *rows]) + "\n"
            if mutation == "cut last row":
                # Keep 1 to all of the last row's characters, not its newline.
                content = content[: -data.draw(st.integers(1, len(rows[-1])), label="cut")]
            path.write_text(content)
            # A malformed or cut row is named by its line.
            named = mutation in ("drop field", "text field", "cut last row")
            with pytest.raises(ValueError, match="line" if named else None):
                read_panel_csv(path)


class TestPanelCsvBytes:
    """The unit-at-a-time writer against the row-by-row ``csv.writer``
    oracle: the bytes must be identical."""

    @staticmethod
    def _assert_same_bytes(panel, tmp_dir):
        got, want = Path(tmp_dir) / "got.csv", Path(tmp_dir) / "want.csv"
        write_panel_csv(panel, got)
        write_panel_csv_rowwise(panel, want)
        assert got.read_bytes() == want.read_bytes()
        return got

    @staticmethod
    def _orjson_units(monkeypatch) -> list:
        """Collects, as bytes, each unit the writer formats with orjson."""
        dumps, units = orjson.dumps, []
        monkeypatch.setattr(
            orjson, "dumps", lambda a, **kw: units.append(a.tobytes()) or dumps(a, **kw)
        )
        return units

    def test_single_unit_single_step(self, ref_params, tmp_path):
        self._assert_same_bytes(simulate_panel(ref_params, Grid(J=1, T=1.0), 1, seed=3), tmp_path)

    def test_extreme_and_signed_zero_reprs(self, tmp_path, monkeypatch):
        # -0.0, the smallest subnormal and exponent-notation reprs.
        extremes = np.reshape(
            [-0.0, 5e-324, 1e300, 1e-7, -1e-7, 1e16, -5e-324, 0.1, 0.0, -1e300, 2.5e-5, 1e22], (2, 3, 2)
        )
        # Each side of repr's switch to exponent notation, one unit per value
        # so that a positional one has no exponent-notation value beside it.
        edges = [math.nextafter(1e-4, 0), 1e-4, -1e-4, 9.99e-05]
        edges += [math.nextafter(1e16, 0), 1e16, 2.0**53, 1e15]
        values = np.concatenate([extremes, np.repeat(edges, 6).reshape(-1, 3, 2)])
        panel = TrajectoryPanel(grid=Grid(J=2, T=3.0), values=values)
        orjson_units = self._orjson_units(monkeypatch)
        path = self._assert_same_bytes(panel, tmp_path)
        assert path.read_text().splitlines()[1] == "0,0,0.0,-0.0,5e-324"
        # The positional edges 1e-4, -1e-4, nextafter(1e16, 0), 2**53 and 1e15.
        assert orjson_units == [values[i].tobytes() for i in (3, 4, 6, 8, 9)]

    def test_counterfactual_panel_with_knot_at_horizon(self, ref_params, tmp_path, monkeypatch):
        plan = TreatmentPlan.tabulated([0.0, 0.137, 0.42, 1.0], [1.0, 0.3, -0.5, 2.5], horizon=1.0)
        panel = simulate_counterfactual(ref_params, plan, Grid(J=8, T=1.0), 3, seed=11)
        orjson_units = self._orjson_units(monkeypatch)
        path = self._assert_same_bytes(panel, tmp_path)
        assert path.read_text().splitlines()[-1].endswith(",2.5")
        # Every unit's W column is the schedule, so the schedule's reprs are
        # written once per panel and orjson sees each unit's Y column only.
        assert orjson_units == [panel.values[i, :, 0].tobytes() for i in range(3)]

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_units_on_either_route_interleave(self, ref_params, tmp_path, monkeypatch, n):
        # Each odd unit holds a value repr writes in exponent notation; the
        # even units are positional throughout (signed zeros included) and
        # are formatted by orjson. Two units put the repr-route unit last,
        # three put it between two orjson-route units, and five alternate.
        values = simulate_panel(ref_params, Grid(J=4, T=1.0), n, seed=5).values.copy()
        values[0, 1] = 0.0, -0.0
        for i in range(1, n, 2):
            values[i, 2 + i // 2, i // 2 % 2] = (1e-7, -2.5e16)[i // 2 % 2]
        orjson_units = self._orjson_units(monkeypatch)
        self._assert_same_bytes(TrajectoryPanel(grid=Grid(J=4, T=1.0), values=values), tmp_path)
        assert orjson_units == [values[i].tobytes() for i in range(0, n, 2)]

    def test_exponent_times_and_two_digit_units(self, ref_params, tmp_path, monkeypatch):
        # At T/J = 2.5e-5 the times t_1..t_3 are written in exponent
        # notation, and twelve units take the unit index to two digits.
        # Unit 10 holds one value repr writes in exponent notation; the
        # other units are positional throughout.
        grid = Grid(J=40, T=1e-3)
        values = simulate_panel(ref_params, grid, 12, seed=8).values.copy()
        values[10, 7, 1] = -3e-5
        orjson_units = self._orjson_units(monkeypatch)
        path = self._assert_same_bytes(TrajectoryPanel(grid=grid, values=values), tmp_path)
        assert orjson_units == [values[i].tobytes() for i in range(12) if i != 10]
        lines = path.read_text().splitlines()
        assert lines[10 * 41 + 8].startswith("10,7,0.000175,")
        assert lines[10 * 41 + 8].endswith(",-3e-05")
        assert lines[11 * 41 + 4].startswith("11,3,7.500000000000001e-05,")

    def test_rows_end_in_lf_where_text_mode_writes_crlf(self, ref_params, tmp_path, monkeypatch):
        # A text handle opened with the default newline translates "\n" to
        # the platform's line separator; emulate a "\r\n" platform.
        def crlf_open(file, mode="r", *args, newline=None, **kwargs):
            if "b" not in mode and newline is None:
                newline = "\r\n"
            return open(file, mode, *args, newline=newline, **kwargs)

        monkeypatch.setattr(sde, "open", crlf_open, raising=False)
        self._assert_same_bytes(simulate_panel(ref_params, Grid(J=3, T=1.0), 2, seed=4), tmp_path)

    def test_fortran_ordered_values(self, ref_params, tmp_path):
        panel = simulate_panel(ref_params, Grid(J=3, T=1.0), 2, seed=6)
        fortran = TrajectoryPanel(grid=panel.grid, values=np.asfortranarray(panel.values))
        assert fortran.values.flags.c_contiguous
        self._assert_same_bytes(fortran, tmp_path)

    def test_w_columns_equal_but_for_the_sign_of_zero_are_not_shared(
        self, ref_params, tmp_path, monkeypatch
    ):
        # 0.0 == -0.0, but the two reprs differ, so the W column must be
        # formatted per unit.
        values = simulate_panel(ref_params, Grid(J=3, T=1.0), 3, seed=9).values.copy()
        values[:, :, 1] = [0.5, 0.0, 2.0, -1.25]
        values[1, 1, 1] = -0.0
        orjson_units = self._orjson_units(monkeypatch)
        path = self._assert_same_bytes(TrajectoryPanel(grid=Grid(J=3, T=1.0), values=values), tmp_path)
        assert orjson_units == [values[i].tobytes() for i in range(3)]
        assert path.read_text().splitlines()[1 + 4 + 1].endswith(",-0.0")

    def test_shared_w_column_in_exponent_notation(self, ref_params, tmp_path, monkeypatch):
        # repr writes the shared W values 1e-07 and 1e+16, which orjson
        # would not; the Y columns are positional and still go to orjson.
        values = simulate_panel(ref_params, Grid(J=3, T=1.0), 3, seed=10).values.copy()
        values[:, :, 1] = [1e-7, 1e16, -2.5e-5, 0.75]
        orjson_units = self._orjson_units(monkeypatch)
        path = self._assert_same_bytes(TrajectoryPanel(grid=Grid(J=3, T=1.0), values=values), tmp_path)
        assert orjson_units == [values[i, :, 0].tobytes() for i in range(3)]
        lines = path.read_text().splitlines()
        assert lines[1].endswith(",1e-07") and lines[2].endswith(",1e+16")

    @given(
        panels(
            st.floats(1e-4, 1e16, exclude_max=True)
            | st.floats(-1e16, -1e-4, exclude_min=True)
            | st.sampled_from([0.0, -0.0])
        )
    )
    def test_positional_units_are_formatted_by_orjson(self, panel):
        with tempfile.TemporaryDirectory() as tmp_dir, pytest.MonkeyPatch.context() as mp:
            orjson_units = self._orjson_units(mp)
            self._assert_same_bytes(panel, tmp_dir)
        assert len(orjson_units) == panel.n

    @given(panels() | panels().map(with_shared_w))
    def test_round_trip_is_bit_exact(self, panel):
        with tempfile.TemporaryDirectory() as tmp_dir:
            path = self._assert_same_bytes(panel, tmp_dir)
            back = read_panel_csv(path)
        assert back.grid == panel.grid
        assert back.values.tobytes() == panel.values.tobytes()


class TestPanelCsvWriteFailures:
    """A writer that cannot open its path raises and leaves no file behind."""

    def test_unopenable_path_raises_and_leaves_no_file(self, ref_params, tmp_path):
        path = tmp_path / "panel.csv"
        path.mkdir()
        with pytest.raises(IsADirectoryError):
            write_panel_csv(simulate_panel(ref_params, Grid(J=2, T=1.0), 3, seed=1), path)
        assert list(tmp_path.iterdir()) == [path]


# Each kind of ``values`` a caller may pass, made from the caller's
# writable float64 array.
CALLER_INPUTS = {
    "array": lambda base: base,
    "view": lambda base: base[:, :, :],
    "read-only array": lambda base: base,
    "read-only view": lambda base: base[:, :, :],
    "float32": lambda base: base.astype(np.float32),
    "int64": lambda base: base.astype(np.int64),
    "fortran": np.asfortranarray,
    "nested list": lambda base: base.tolist(),
}


def caller_input(kind):
    """``values`` of ``kind`` holding ``0, 1, ..., 23`` as a (3, 4, 2)
    panel, and a function that then writes ``-1`` through everything the
    caller holds: the array, its base, or the nested list."""
    base = np.arange(24.0).reshape(3, 4, 2).copy()
    values = CALLER_INPUTS[kind](base)
    if kind.startswith("read-only"):
        values.setflags(write=False)

    def write():
        base.setflags(write=True)
        base[...] = -1.0
        if isinstance(values, list):
            values[0][0][0] = -1.0
        elif values.base is None:
            values[...] = -1

    return values, write


class TestPanelType:
    def test_values_are_frozen(self, ref_params):
        panel = simulate_panel(ref_params, Grid(J=3, T=1.0), 2, seed=1)
        with pytest.raises(ValueError):
            panel.values[0, 0, 0] = 99.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TrajectoryPanel(grid=Grid(J=3, T=1.0), values=np.zeros((2, 3, 2)))
        with pytest.raises(ValueError):
            TrajectoryPanel(grid=Grid(J=1, T=1.0), values=np.full((1, 2, 2), np.nan))

    def test_rejects_zero_units(self):
        # A panel of no units has nothing to estimate from, and its CSV (the
        # header alone) is one read_panel_csv refuses.
        with pytest.raises(ValueError, match="^panel needs at least one unit$"):
            TrajectoryPanel(grid=Grid(J=4, T=1.0), values=np.empty((0, 5, 2)))

    @pytest.mark.parametrize("shape", [(3, 2), (2, 4, 2, 1), (2, 4, 3)])
    def test_values_must_be_units_by_steps_by_two(self, shape):
        with pytest.raises(ValueError, match=r"is not \(n, 4, 2\)"):
            TrajectoryPanel(grid=Grid(J=3, T=1.0), values=np.zeros(shape))

    @pytest.mark.parametrize("kind", CALLER_INPUTS)
    def test_values_are_a_frozen_c_ordered_float64_copy(self, kind):
        values, write = caller_input(kind)
        panel = TrajectoryPanel(grid=Grid(J=3, T=1.0), values=values)
        assert panel.values is not values
        assert panel.values.dtype == np.float64 and panel.values.flags.c_contiguous
        assert not panel.values.flags.writeable
        write()
        np.testing.assert_array_equal(panel.values, np.arange(24.0).reshape(3, 4, 2))

    def test_view_taken_before_freezing_cannot_change_the_panel(self):
        values = np.zeros((2, 4, 2))
        view = values[:, :, :]
        values.setflags(write=False)
        panel = TrajectoryPanel(grid=Grid(J=3, T=1.0), values=values)
        view[...] = 1.0
        np.testing.assert_array_equal(panel.values, 0.0)

    def test_simulated_values_are_read_only_and_own_their_data(self, ref_params, plan_one):
        grid = Grid(J=3, T=1.0)
        observed = simulate_panel(ref_params, grid, 4, seed=2)
        counterfactual = simulate_counterfactual(ref_params, plan_one, grid, 4, seed=2)
        for panel in (observed, counterfactual):
            assert panel.values.flags.owndata and not panel.values.flags.writeable
            assert panel.values.flags.c_contiguous

    def test_unit_count_is_derived_from_values(self):
        panel = TrajectoryPanel(grid=Grid(J=3, T=1.0), values=np.zeros((5, 4, 2)))
        assert panel.n == 5
        assert subsample_panel(panel, 3).n == 5


# Each validated 2x2 field, and how to build a value with that field set to
# ``bad``; ``matexp`` and the test oracle ``eigen2`` name their argument
# "matrix".
def _model_params(field, bad):
    fields = dict(beta=REF_BETA, sigma=REF_SIGMA, init_mean=REF_MEAN, init_cov=REF_COV)
    return ModelParams(**{**fields, field: bad}, horizon=1.0)


BUILDERS = {
    "beta": partial(_model_params, "beta"),
    "sigma": partial(_model_params, "sigma"),
    "init_cov": partial(_model_params, "init_cov"),
    "matexp": lambda bad: matexp(bad, 0.5),
    "eigen2": eigen2,
}
BAD_MATRICES = {
    "wrong shape": (np.zeros((2, 3)), r"must be 2x2, got shape \(2, 3\)"),
    "nan entry": ([[1.0, 0.0], [0.0, math.nan]], "entries must be finite"),
    "inf entry": ([[1.0, math.inf], [math.inf, 1.0]], "entries must be finite"),
    "ragged": ([[0.2, -5.0], [-3.0]], r"must be 2x2 real numbers \(setting an array element"),
}
BAD_COVARIANCES = {
    "asymmetric": ([[1.0, 0.5], [0.0, 1.0]], "must be symmetric"),
    "indefinite": ([[1.0, 2.0], [2.0, 1.0]], "must be positive semidefinite"),
}
# The covariance checks are relative to the largest entry, so a bad
# covariance stays bad at every scale.
BAD_COVARIANCES.update(
    (f"{case} x {scale:g}", (np.multiply(scale, bad), message))
    for case, (bad, message) in list(BAD_COVARIANCES.items())
    for scale in (1e-20, 1e-15, 1e-10, 1e-5, 1e5, 1e10)
)
BAD_FIELD_CASES = [(f, b) for f in BUILDERS for b in BAD_MATRICES] + [
    ("init_cov", b) for b in BAD_COVARIANCES
]


@pytest.mark.parametrize("field, case", BAD_FIELD_CASES)
def test_bad_field_is_rejected_by_name(field, case):
    bad, message = {**BAD_MATRICES, **BAD_COVARIANCES}[case]
    name = "matrix" if field in ("matexp", "eigen2") else field
    with pytest.raises(ValueError, match=f"^{name} {message}"):
        BUILDERS[field](bad)


@pytest.mark.parametrize("scale", [10.0**k for k in range(0, 11, 2)])
@pytest.mark.parametrize("field", ["init_cov"])
def test_rank_one_covariance_is_accepted_at_every_scale(field, scale):
    # An absolute floor on the smallest eigenvalue rejected about a quarter
    # of these at scale 1e6; roundoff grows with the scale.
    rng = np.random.default_rng(20)
    for v in rng.uniform(-1.0, 1.0, size=(300, 2)) * math.sqrt(scale):
        BUILDERS[field](np.outer(v, v))


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, math.inf])
def test_horizon_must_be_positive_and_finite(horizon):
    with pytest.raises(ValueError, match="^horizon must be a positive finite number$"):
        ModelParams(
            beta=REF_BETA, sigma=REF_SIGMA, init_mean=REF_MEAN, init_cov=REF_COV, horizon=horizon
        )
    with pytest.raises(ValueError, match="^grid horizon must be positive and finite$"):
        Grid(J=4, T=horizon)


@pytest.mark.parametrize("J", [0, -1, 2.5, 1.0])
def test_grid_needs_a_step(J):
    # A float is no step count, even a whole one: TypeError, as for n=2.0.
    if isinstance(J, float):
        with pytest.raises(TypeError, match="integer"):
            Grid(J, 1.0)
    else:
        with pytest.raises(ValueError, match=r"^grid needs J >= 1$"):
            Grid(J, 1.0)


def test_ragged_init_mean_is_rejected_by_name():
    with pytest.raises(ValueError, match=r"^init_mean must be 2 real numbers \(setting an"):
        _model_params("init_mean", [[1.0], 0.0])


# Covariances near the double range: halving each entry before a sum keeps
# the PSD check's sums finite (0.5 * (a + d) overflows at a = d = 1e308).
NEAR_RANGE_COVARIANCES = [
    ([[1e308, 0.0], [0.0, 1e308]], True),
    ([[1e308, 1e308], [1e308, 1e308]], True),
    ([[1e308, 1.5e308], [1.5e308, 1e308]], False),
    ([[1e308, 0.0], [0.0, -1e308]], False),
]


@pytest.mark.parametrize("cov, psd", NEAR_RANGE_COVARIANCES)
@pytest.mark.parametrize("field", ["init_cov"])
def test_covariance_near_the_double_range(field, cov, psd):
    if psd:
        BUILDERS[field](cov)
    else:
        with pytest.raises(ValueError, match=f"^{field} must be positive semidefinite"):
            BUILDERS[field](cov)


@st.composite
def covariances(draw):
    """A 2x2 covariance whose largest |entry| is about ``10^k``, ``k`` in
    [-300, 300]: a symmetric matrix, a rank-1 ``np.outer(v, v)``, or one
    whose smaller eigenvalue lies within two symmetry tolerances of the
    PSD check's boundary.  The upper entry is moved off the lower one by up
    to 0.9 of that tolerance, so that the lower triangle decides."""
    scale = 10.0 ** draw(st.floats(-300.0, 300.0))
    unit = st.floats(-1.0, 1.0)
    kind = draw(st.sampled_from(["symmetric", "rank one", "near the boundary"]))
    if kind == "rank one":
        v = np.array([draw(unit), draw(unit)])
        biggest = np.max(np.abs(v))
        w = v / biggest * math.sqrt(scale) if biggest else v
        m = np.outer(w, w)
    else:
        if kind == "symmetric":
            a, c, d = draw(unit), draw(unit), draw(unit)
        else:
            # Smaller eigenvalue (r - 1) COV_RTOL of the largest entry 1:
            # the check's boundary is at r = 0.
            a, d = 1.0, abs(draw(unit))
            lam = (draw(st.floats(-2.0, 2.0)) - 1.0) * sde.COV_RTOL
            c = math.copysign(math.sqrt(max(0.0, (a - lam) * (d - lam))), draw(unit))
            if draw(st.booleans()):
                a, d = d, a
        m = np.array([[a, c], [c, d]])
        biggest = np.max(np.abs(m))
        m = m / biggest * scale if biggest else m
    m[0, 1] = m[1, 0] + draw(unit) * 0.9 * sde.COV_RTOL * np.max(np.abs(m))
    return m


@settings(max_examples=500)
@given(covariances())
def test_psd_verdict_matches_the_decimal_eigenvalue(cov):
    # The closed form rounds a few times, each by at most about 3e-16 of
    # the largest entry, so only a verdict within 1e-15 of it is left free.
    biggest = float(np.max(np.abs(cov)))
    margin = min_eigenvalue_exact(cov) + Decimal(sde.COV_RTOL * biggest)
    assume(abs(margin) > Decimal(1e-15 * biggest))
    try:
        BUILDERS["init_cov"](cov)
        accepted = True
    except ValueError as exc:
        assert str(exc) == "init_cov must be positive semidefinite"
        accepted = False
    assert accepted == (margin > 0), (cov.tolist(), margin)


def test_validated_fields_are_frozen_copies():
    beta = REF_BETA.copy()
    params = _model_params("beta", beta)
    beta[0, 0] = 99.0
    assert params.beta[0, 0] == REF_BETA[0, 0]
    assert beta.flags.writeable
    for a in (params.beta, params.sigma, params.init_cov):
        assert not a.flags.writeable
