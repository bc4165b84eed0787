import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gridbias import EigenPair2, eigen2, expm_series, linalg2, matexp

# Reference values computed once with a 40-digit arbitrary-precision
# evaluation of the defining formulas (characteristic quadratic, scalar
# exponentials, and a high-precision matrix exponential).
FIG_BETA = np.array([[0.2, -5.0], [-3.0, 0.5]])
FIG_EIGS = (4.2258869952566986573, -3.5258869952566986573)
S0S1_DISTINCT_REF = (0.96019748198821414871, -0.70733364455116145022)
EXPM_QUARTER_REF = np.array(
    [
        [1.4210583045116747384, 1.333094984219497703],
        [0.7998569905316986218, 1.3410726054585048762],
    ]
)


def eig_values(e: EigenPair2) -> set[complex]:
    return {complex(e.re1, e.im1), complex(e.re2, e.im2)}


def spectral_spread(m: np.ndarray) -> float:
    e = eigen2(m)
    return abs(complex(e.re1, e.im1) - complex(e.re2, e.im2))


def spectral_radius(m: np.ndarray) -> float:
    e = eigen2(m)
    return max(abs(complex(e.re1, e.im1)), abs(complex(e.re2, e.im2)))


class TestEigen2:
    def test_diagonal_distinct(self):
        e = eigen2(np.diag([0.2, 0.5]))
        assert e.kind == "distinct-real"
        assert sorted([e.re1, e.re2]) == pytest.approx([0.2, 0.5], abs=1e-15)
        assert (e.im1, e.im2) == (0.0, 0.0)

    def test_rotation_generator_complex(self):
        e = eigen2(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert e.kind == "complex-conjugate"
        assert eig_values(e) == {1j, -1j}

    def test_reference_matrix(self):
        e = eigen2(FIG_BETA)
        assert e.kind == "distinct-real"
        got = sorted([e.re1, e.re2])
        assert got == pytest.approx(sorted(FIG_EIGS), abs=1e-13)

    def test_repeated_collapses_exactly(self):
        e = eigen2(np.array([[2.0, 1.0], [0.0, 2.0]]))
        assert e.kind == "repeated"
        assert (e.re1, e.im1) == (e.re2, e.im2)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            eigen2(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @given(
        st.lists(st.floats(-5, 5), min_size=4, max_size=4),
    )
    def test_trace_det_consistency(self, entries):
        m = np.array(entries).reshape(2, 2)
        e = eigen2(m)
        l1, l2 = complex(e.re1, e.im1), complex(e.re2, e.im2)
        assert (l1 + l2).real == pytest.approx(np.trace(m), abs=1e-9)
        assert (l1 * l2).real == pytest.approx(np.linalg.det(m), abs=1e-8)
        if e.kind == "complex-conjugate":
            assert l2 == l1.conjugate()


class TestS0S1:
    def test_t_zero_is_identity_coefficients(self):
        for m in (np.diag([0.2, 0.5]), FIG_BETA, np.zeros((2, 2))):
            assert linalg2._coefficients(astuple(eigen2(m)), 0.0) == (1.0, 0.0)

    def test_repeated_zero_eigenvalue(self):
        eig = ("repeated", 0.0, 0.0, 0.0, 0.0)
        assert linalg2._coefficients(eig, 2.0) == (1.0, 2.0)

    def test_distinct_reference_values(self):
        eig = ("distinct-real", 0.2, 0.0, 0.5, 0.0)
        s0, s1 = linalg2._coefficients(eig, -1.0)
        assert s0 == pytest.approx(S0S1_DISTINCT_REF[0], abs=1e-15)
        assert s1 == pytest.approx(S0S1_DISTINCT_REF[1], abs=1e-15)

    def test_branch_continuity_at_collapse(self):
        # Branches must agree to 1e-6 when the eigenvalue gap is 1e-6.
        gap = 1e-6
        for lam in (-2.0, -0.5, 0.0, 1.0, 2.0):
            for t in (-2.0, -0.7, 0.3, 2.0):
                distinct = linalg2._coefficients(("distinct-real", lam + gap, 0.0, lam, 0.0), t)
                repeated = linalg2._coefficients(
                    ("repeated", lam + gap / 2, 0.0, lam + gap / 2, 0.0), t
                )
                assert distinct[0] == pytest.approx(repeated[0], abs=1e-6)
                assert distinct[1] == pytest.approx(repeated[1], abs=1e-6)

    def test_complex_branch_is_real_arithmetic(self):
        eig = eigen2(np.array([[0.0, 2.0], [-2.0, 0.0]]))
        s0, s1 = linalg2._coefficients(astuple(eig), 0.5)
        # For eigenvalues +/- 2i: s1 = sin(2t)/2, s0 = cos(2t).
        assert s1 == pytest.approx(math.sin(1.0) / 2.0, abs=1e-15)
        assert s0 == pytest.approx(math.cos(1.0), abs=1e-15)


class TestMatexp:
    def test_t_zero_is_identity(self):
        assert np.array_equal(matexp(FIG_BETA, 0.0), np.eye(2))

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
        # Both routes equal s0 I + s1 m, formed as the full 2x2 sum, to the
        # bit: the public one and the float core under it.
        m = np.array(entries).reshape(2, 2)
        eig = eigen2(m)
        assert isinstance(eig, EigenPair2)
        s0, s1 = linalg2._coefficients(astuple(eig), t)
        want = s0 * np.eye(2) + s1 * m
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
