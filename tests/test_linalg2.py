import dataclasses
import decimal
import math
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gridbias import linalg2, matexp, theta_naive_limit
from tests.oracles import eigen2, expm1_taylor, expm_series

# Reference values computed once with a 40-digit arbitrary-precision
# evaluation of the defining formulas (characteristic quadratic, scalar
# exponentials, and a high-precision matrix exponential).
FIG_BETA = np.array([[0.2, -5.0], [-3.0, 0.5]])
FIG_EIGS = (4.2258869952566986573, -3.5258869952566986573)
EXPM_QUARTER_REF = np.array(
    [
        [1.4210583045116747384, 1.333094984219497703],
        [0.7998569905316986218, 1.3410726054585048762],
    ]
)


def spectral_spread(m: np.ndarray) -> float:
    _, l1, l2 = eigen2(m)
    return abs(l1 - l2)


def spectral_radius(m: np.ndarray) -> float:
    _, l1, l2 = eigen2(m)
    return max(abs(l1), abs(l2))


class TestEigen2:
    """The eigenvalue-kind oracle that the identity and acceptance checks
    use to count and filter their draws."""

    def test_diagonal_distinct(self):
        kind, l1, l2 = eigen2(np.diag([0.2, 0.5]))
        assert kind == "distinct-real"
        assert sorted([l1.real, l2.real]) == pytest.approx([0.2, 0.5], abs=1e-15)
        assert (l1.imag, l2.imag) == (0.0, 0.0)

    def test_rotation_generator_complex(self):
        kind, l1, l2 = eigen2(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert kind == "complex-conjugate"
        assert {l1, l2} == {1j, -1j}

    def test_reference_matrix(self):
        kind, l1, l2 = eigen2(FIG_BETA)
        assert kind == "distinct-real"
        got = sorted([l1.real, l2.real])
        assert got == pytest.approx(sorted(FIG_EIGS), abs=1e-13)

    def test_repeated_collapses_exactly(self):
        kind, l1, l2 = eigen2(np.array([[2.0, 1.0], [0.0, 2.0]]))
        assert kind == "repeated"
        assert l1 == l2

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            eigen2(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @given(
        st.lists(st.floats(-5, 5), min_size=4, max_size=4),
    )
    def test_trace_det_consistency(self, entries):
        m = np.array(entries).reshape(2, 2)
        kind, l1, l2 = eigen2(m)
        assert (l1 + l2).real == pytest.approx(np.trace(m), abs=1e-9)
        assert (l1 * l2).real == pytest.approx(np.linalg.det(m), abs=1e-8)
        if kind == "complex-conjugate":
            assert l2 == l1.conjugate()


# One ulp of 1.
EPS = 2.0**-52

# Drift entries at most 5 in size, and near-repeated eigenvalue gaps from
# 1e-12 to 1e-3, exactly repeated ones (gap 0) included.
ENTRY = st.floats(-5.0, 5.0)
GAP = st.sampled_from([0.0]) | st.builds(
    lambda sign, u: sign * 10.0**u, st.sampled_from([1.0, -1.0]), st.floats(-12.0, -3.0)
)


@st.composite
def drifts(draw) -> list[list[float]]:
    """A 2x2 matrix of one family: triangular with an exact or near repeat
    (a Jordan block at gap 0), a Jordan block with a tiny entry below it
    (a near repeat, real or complex), a complex pair, or a box draw."""
    kind = draw(st.sampled_from(["upper", "lower", "jordan", "complex", "box"]))
    lam, q, gap = draw(ENTRY), draw(ENTRY), draw(GAP)
    if kind == "upper":
        return [[lam + gap, q], [0.0, lam]]
    if kind == "lower":
        return [[lam, 0.0], [q, lam + gap]]
    if kind == "jordan":
        return [[lam, q], [gap, lam]]
    if kind == "complex":
        b, c = draw(st.floats(0.01, 5.0)), draw(st.floats(0.01, 5.0))
        return [[lam, -b], [c, lam + gap]]
    return [[lam, q], [draw(ENTRY), draw(ENTRY)]]


# Steps from 1/16384 to 1, either sign.
STEP = st.builds(
    lambda sign, u: sign * 2.0**u, st.sampled_from([1.0, -1.0]), st.floats(-14.0, 0.0)
)


def conditioning(m, t) -> float:
    """``1 + |a t| + |h t|``: the factor by which rounding the arguments of
    the exponentials alone enlarges the core's error."""
    a, _, h2 = linalg2._shifted(*m[0], *m[1])
    return 1.0 + abs(a * t) + math.sqrt(abs(h2)) * abs(t)


def oracle_error(m, t) -> float:
    """The core's largest entry error in ``e^{t m} - I`` against the decimal
    oracle, relative to the largest exact entry or the smallest normal
    double, whichever is larger."""
    # An angle h t of 10^k needs k more digits than one of size 1.
    prec = 60 + math.ceil(math.log10(conditioning(m, t)))
    exact = expm1_taylor(m, t, prec=prec)
    got = linalg2._expm2m1_rows(m, t)
    with decimal.localcontext(Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN, prec=prec):
        error = max(abs(Decimal(got[i][j]) - exact[i][j]) for i in range(2) for j in range(2))
        largest = max(abs(x) for row in exact for x in row)
        return float(error / max(largest, Decimal(sys.float_info.min)))


class TestExpm2m1:
    """The one core, ``e^{t m} - I``, for every eigenvalue kind."""

    def test_t_zero_is_exact_zero(self):
        for m in (np.diag([0.2, 0.5]), FIG_BETA, np.zeros((2, 2)), [[2.0, 1.0], [0.0, 2.0]],
                  [[0.0, 2.0], [-2.0, 0.0]]):
            got = linalg2._expm2m1_rows(np.asarray(m, dtype=float).tolist(), 0.0)
            assert got == ((0.0, 0.0), (0.0, 0.0))

    def test_nilpotent_is_exact(self):
        # h = 0 and a = 0: e^{t m} - I = t m with no rounding at all.
        assert linalg2._expm2m1_rows([[0.0, 3.0], [0.0, 0.0]], 2.0) == ((0.0, 6.0), (0.0, 0.0))
        assert linalg2._expm2m1_rows([[1.0, 1.0], [-1.0, -1.0]], 0.5) == ((0.5, 0.5), (-0.5, -0.5))

    def test_rotation_generator_is_real_arithmetic(self):
        # Eigenvalues +/- 2i: e^{t m} - I = [[cos 2t - 1, sin 2t], [-sin 2t, cos 2t - 1]].
        (c11, s12), (s21, c22) = linalg2._expm2m1_rows([[0.0, 2.0], [-2.0, 0.0]], 0.5)
        assert c11 == c22 == pytest.approx(math.cos(1.0) - 1.0, rel=2 * EPS)
        assert s12 == -s21 == pytest.approx(math.sin(1.0), rel=2 * EPS)

    @given(m=drifts(), t=STEP)
    @example(m=[[0.5, -2.0], [0.0, 0.5 + 2e-9]], t=-1.0 / 16384)
    @example(m=[[0.5, -2.0], [-1e-12, 0.5]], t=-1.0 / 16384)
    @example(m=[[0.5, -2.0], [0.0, 0.5 + 1e-6]], t=-1.0)
    @example(m=[[1.0, 1.0], [-3.0, 0.5]], t=-1.0 / 16384)
    def test_within_ulps_of_decimal_oracle(self, m, t):
        # Within 4 ulps of the largest entry, times the conditioning factor
        # (at most 13 on this domain).  The three-branch route it replaced
        # read up to 9.2e-5 of the largest entry at a gap of 2e-9.
        assert oracle_error(m, t) <= 4 * EPS * conditioning(m, t)

    @given(
        entries=st.lists(
            st.sampled_from([0.0])
            | st.builds(
                lambda sign, u: sign * 10.0**u,
                st.sampled_from([1.0, -1.0]),
                st.floats(-300.0, 300.0),
            ),
            min_size=4,
            max_size=4,
        ),
        t=st.builds(
            lambda sign, u: sign * 10.0**u, st.sampled_from([1.0, -1.0]), st.floats(-300.0, 2.0)
        ),
    )
    @example(entries=[1e200, 0.0, 0.0, 1.0], t=-1.0)
    @example(entries=[1.0, 1e300, 1e300, 1.0], t=-1.0)
    @example(entries=[1e300, 0.0, 0.0, 1e300], t=-1e-300)
    @example(entries=[-1e300, 0.0, 0.0, -1e-300], t=1.0)
    @example(entries=[0.0, 1e300, -1e-300, 0.0], t=3.0)
    @example(entries=[0.0, 1e9, -1e300, 0.0], t=1.0)
    def test_finite_and_accurate_or_raises(self, entries, t):
        m = [entries[:2], entries[2:]]
        try:
            got = linalg2._expm2m1_rows(m, t)
        except OverflowError:
            return
        assert all(math.isfinite(x) for row in got for x in row)
        bound = 4 * EPS * conditioning(m, t)
        if bound < 1.0:  # where the bound says anything at all
            assert oracle_error(m, t) <= bound

    def test_entry_beyond_the_double_range_raises(self):
        # Every intermediate is finite but e^{a t} S q, about 1.3e309.
        with pytest.raises(OverflowError):
            matexp([[0.0, 1e308], [0.0, 0.5]], 4.0)

    @pytest.mark.parametrize("t", [1.0, 10.0])
    def test_no_overflow_between_factors(self, t):
        # e^{tm} = [[1, (1 - e^{-2000 t})/2000], [0, e^{-2000 t}]]: cosh(h t) and
        # sinh(h t) overflow at h t = 1000 t, though e^{a t} times them does not.
        got = linalg2._expm2m1_rows([[0.0, 1.0], [0.0, -2000.0]], t)
        assert got == ((0.0, 1.0 / 2000.0), (0.0, -1.0))

    @pytest.mark.parametrize(
        "m",
        [[[1e200, 0.0], [0.0, 1.0]], [[1.0, 1e300], [1e300, 1.0]], [[0.0, 1e200], [-1e200, 0.0]]],
    )
    def test_out_of_range_intermediates_raise(self, m, ref_params):
        # The first two returned all-NaN arrays; in the third, h^2 = -inf
        # would reach cos(inf) (ValueError).  The eigenvalue oracle must
        # not label such a drift either.
        with pytest.raises(OverflowError):
            matexp(m, -1.0)
        with pytest.raises(OverflowError):
            eigen2(m)
        with pytest.raises(OverflowError):
            theta_naive_limit(dataclasses.replace(ref_params, beta=np.array(m)))


class TestMatexp:
    def test_t_zero_is_identity(self):
        assert np.array_equal(matexp(FIG_BETA, 0.0), np.eye(2))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_is_rejected(self, t):
        with pytest.raises(ValueError, match="^t must be finite$"):
            matexp(FIG_BETA, t)

    def test_diagonal(self):
        got = matexp(np.diag([0.2, 0.5]), -1.0)
        want = np.diag([math.exp(-0.2), math.exp(-0.5)])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_reference_quarter_step(self):
        got = matexp(FIG_BETA, -0.25)
        np.testing.assert_allclose(got, EXPM_QUARTER_REF, rtol=1e-13, atol=1e-13)

    def test_agrees_with_oracle_on_1000_random_draws(self):
        # Entries in [-5, 5], t in [-2, 2]; result magnitudes reach ~1e6,
        # so agreement is asserted element-wise at 1e-10 relative to
        # max(1, |entry|) (absolute 1e-10 below unit magnitude).
        rng = np.random.default_rng(20240809)
        worst = 0.0
        for _ in range(1000):
            m = rng.uniform(-5, 5, size=(2, 2))
            t = rng.uniform(-2, 2)
            a = matexp(m, t)
            b = expm_series(m, t)
            worst = max(worst, float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)))))
        assert worst < 1e-10

    @given(st.lists(st.floats(-2, 2), min_size=4, max_size=4), st.floats(-1, 1))
    def test_matches_oracle_property(self, entries, t):
        m = np.array(entries).reshape(2, 2)
        a = matexp(m, t)
        b = expm_series(m, t)
        np.testing.assert_allclose(a, b, rtol=1e-11, atol=1e-11)

    def test_checks_its_argument_once(self, monkeypatch):
        want = matexp(FIG_BETA, -0.25)
        as_mat2 = linalg2._as_mat2
        calls = []

        def counted(m, name="matrix"):
            calls.append(name)
            return as_mat2(m, name)

        monkeypatch.setattr(linalg2, "_as_mat2", counted)
        assert matexp(FIG_BETA, -0.25).tobytes() == want.tobytes()
        assert calls == ["matrix"]

    # Entries that are often exactly +/-0, so that a triangular drift such as
    # b12 = 0 puts a signed zero off the diagonal of the exponential.
    @given(
        st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-5, 5), min_size=4, max_size=4),
        st.sampled_from([0.0, -0.0]) | st.floats(-2, 2),
    )
    @example([0.2, 0.0, -3.0, 0.5], -0.25)
    @example([0.2, -0.0, 3.0, 0.5], -0.25)
    @example([-1.0, 0.0, 0.0, -1.0], 0.5)
    def test_both_routes_give_the_same_bits(self, entries, t):
        # Both routes equal I + (e^{t m} - I), formed as the full 2x2 sum,
        # to the bit: the public one and the float core under it.
        m = np.array(entries).reshape(2, 2)
        want = np.eye(2) + np.array(linalg2._expm2m1_rows(m.tolist(), t))
        assert matexp(m, t).tobytes() == want.tobytes()
        assert np.array(linalg2._expm2_rows(m.tolist(), t)).tobytes() == want.tobytes()


class TestMatexpOracle:
    def test_zero_matrix(self):
        assert np.array_equal(expm_series(np.zeros((2, 2)), 3.7), np.eye(2))

    def test_nilpotent_series_terminates(self):
        got = expm_series(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
        np.testing.assert_allclose(got, np.array([[1.0, 1.0], [0.0, 1.0]]), atol=1e-15)


class TestExpmSeries:
    def test_nilpotent_4x4_series_is_exact(self):
        shift = np.diag([1.0, 1.0, 1.0], k=1)
        want = np.eye(4) + shift + shift @ shift / 2 + shift @ shift @ shift / 6
        np.testing.assert_allclose(expm_series(shift, 1.0), want, rtol=0, atol=1e-15)

    def test_block_diagonal_matches_closed_form_blocks(self):
        a = np.array([[0.2, -5.0], [-3.0, 0.5]])
        b = np.array([[0.5, -10.0], [3.0, -0.5]])
        m = np.block([[a, np.zeros((2, 2))], [np.zeros((2, 2)), b]])
        got = expm_series(m, -0.3)
        np.testing.assert_allclose(got[:2, :2], matexp(a, -0.3), rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(got[2:, 2:], matexp(b, -0.3), rtol=1e-12, atol=1e-14)
        assert np.array_equal(got[:2, 2:], np.zeros((2, 2)))
        assert np.array_equal(got[2:, :2], np.zeros((2, 2)))

    def test_rejects_non_square_and_non_finite(self):
        with pytest.raises(ValueError):
            expm_series(np.zeros((2, 3)), 1.0)
        with pytest.raises(ValueError):
            expm_series(np.array([[0.0, math.nan], [0.0, 0.0]]), 1.0)


class TestIdentities:
    """Algebraic identities of the exponential, asserted on the part of the
    draw box where float64 can resolve them: cancellation inflates the
    error of these identities by roughly exp(spread * |t|) (determinant,
    semigroup) or exp(2 * radius * |t|) (inverse), so draws are filtered
    to keep those exponents modest; the oracle-agreement test above covers
    the unrestricted box."""

    def _draws(self, count, rng, need):
        out = []
        while len(out) < count:
            m = rng.uniform(-5, 5, size=(2, 2))
            t1, t2 = rng.uniform(-2, 2, size=2)
            if need(m, t1, t2):
                out.append((m, t1, t2))
        return out

    def test_semigroup(self):
        rng = np.random.default_rng(11)
        ok = lambda m, t1, t2: spectral_spread(m) * max(abs(t1), abs(t2), abs(t1 + t2)) <= 12
        for m, t1, t2 in self._draws(400, rng, ok):
            whole = matexp(m, t1 + t2)
            parts = matexp(m, t1) @ matexp(m, t2)
            np.testing.assert_allclose(parts, whole, rtol=1e-9, atol=1e-9)

    def test_inverse(self):
        rng = np.random.default_rng(12)
        ok = lambda m, t1, t2: spectral_radius(m) * abs(t1) <= 6
        for m, t1, _t2 in self._draws(400, rng, ok):
            prod = matexp(m, t1) @ matexp(m, -t1)
            np.testing.assert_allclose(prod, np.eye(2), rtol=0, atol=1e-9)

    def test_determinant_matches_trace_exponential(self):
        rng = np.random.default_rng(13)
        ok = lambda m, t1, t2: spectral_spread(m) * abs(t1) <= 12
        for m, t1, _t2 in self._draws(400, rng, ok):
            det = np.linalg.det(matexp(m, t1))
            ref = math.exp(t1 * np.trace(m))
            assert det == pytest.approx(ref, rel=1e-9)

    @given(st.lists(st.floats(-2, 2), min_size=4, max_size=4),
           st.floats(-1, 1), st.floats(-1, 1))
    def test_semigroup_property_small_domain(self, entries, t1, t2):
        m = np.array(entries).reshape(2, 2)
        np.testing.assert_allclose(
            matexp(m, t1) @ matexp(m, t2), matexp(m, t1 + t2), rtol=1e-10, atol=1e-10
        )
