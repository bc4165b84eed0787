"""Matrix exponentials: closed form for 2x2, Taylor series for any size.

For a real 2x2 matrix ``m`` with eigenvalues ``lam1, lam2``, the exponential
``e^{t m}`` equals ``s0(t) I + s1(t) m`` with scalar coefficient functions

* distinct eigenvalues:
    ``s0(t) = (lam1 e^{lam2 t} - lam2 e^{lam1 t}) / (lam1 - lam2)``
    ``s1(t) = (e^{lam1 t} - e^{lam2 t}) / (lam1 - lam2)``
* repeated eigenvalue ``lam``:
    ``s0(t) = (1 - lam t) e^{lam t}``,  ``s1(t) = t e^{lam t}``

Complex-conjugate pairs ``a +/- ib`` are evaluated in real arithmetic:
``s1(t) = e^{a t} sin(b t) / b``, ``s0(t) = e^{a t} (cos(b t) - a sin(b t)/b)``.

The public :func:`eigen2` and :func:`matexp` check their argument once and
hand it to the internal :func:`_classify` and :func:`_expm2`; callers that
hold a matrix already checked by :func:`_as_mat2` (such as a frozen
``ModelParams.beta``) call those directly and skip the check.

:func:`expm_series` is a truncated-Taylor scaling-and-squaring exponential
of any real square matrix.  It computes the 4x4 block exponential behind
the transition noise covariance, and, sharing no code with the closed-form
path, it is also the independent check of :func:`matexp`.
All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenPair2",
    "eigen2",
    "s0s1",
    "matexp",
    "expm_series",
]

# Relative gap below which a near-repeated eigenvalue pair is collapsed to a
# single root; the distinct-root formulas lose roughly |gap|^-1 digits to
# cancellation, so below this the repeated-root branch is more accurate.
COLLAPSE_RTOL = 1e-9

# Taylor-series order of expm_series: after scaling, ||t*m||_inf <= 1/16,
# where the tail beyond 25 terms is below 1e-55, far under roundoff.
SERIES_TERMS = 25

_EYE2 = np.eye(2)
_EYE2.setflags(write=False)


def _as_mat2(m, name: str = "matrix") -> np.ndarray:
    """A new float copy of ``m``, checked to be a finite 2x2 matrix."""
    a = np.array(m, dtype=float)
    if a.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} entries must be finite")
    return a


@dataclass(frozen=True)
class EigenPair2:
    """Eigenvalues of a real 2x2 matrix, stored as (real, imag) parts.

    ``kind`` is one of ``"distinct-real"``, ``"repeated"``,
    ``"complex-conjugate"``.  For a complex pair the two values are exact
    conjugates; for a repeated root both values are identical.
    """

    kind: str
    re1: float
    im1: float
    re2: float
    im2: float

    def __post_init__(self):
        if self.kind not in ("distinct-real", "repeated", "complex-conjugate"):
            raise ValueError(f"unknown eigenvalue classification {self.kind!r}")


def eigen2(m) -> EigenPair2:
    """Eigenvalues of a real 2x2 matrix via the characteristic quadratic.

    Roots of ``lam^2 - tr(m) lam + det(m) = 0``.  Pairs whose gap
    ``|lam1 - lam2|`` is below ``COLLAPSE_RTOL * max(1, ||m||_inf)`` are
    collapsed to the repeated root ``tr(m)/2``.
    """
    return _classify(_as_mat2(m))


def _classify(a: np.ndarray) -> EigenPair2:
    """:func:`eigen2` of a matrix :func:`_as_mat2` has already checked."""
    (p, q), (r, s) = a.tolist()
    tr = p + s
    det = p * s - q * r
    disc = tr * tr - 4.0 * det
    # |lam1 - lam2| = sqrt(|disc|) for either sign of the discriminant.
    gap = math.sqrt(abs(disc))
    if gap < COLLAPSE_RTOL * max(1.0, abs(p) + abs(q), abs(r) + abs(s)):
        lam = 0.5 * tr
        return EigenPair2("repeated", lam, 0.0, lam, 0.0)
    if disc > 0.0:
        half = 0.5 * math.sqrt(disc)
        return EigenPair2("distinct-real", 0.5 * tr + half, 0.0, 0.5 * tr - half, 0.0)
    half = 0.5 * math.sqrt(-disc)
    return EigenPair2("complex-conjugate", 0.5 * tr, half, 0.5 * tr, -half)


def s0s1(eig: EigenPair2, t: float) -> tuple[float, float]:
    """Scalar coefficients of ``e^{t m} = s0 I + s1 m``; always real."""
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if eig.kind == "repeated":
        lam = eig.re1
        e = math.exp(lam * t)
        return (1.0 - lam * t) * e, t * e
    if eig.kind == "distinct-real":
        l1, l2 = eig.re1, eig.re2
        e1, e2 = math.exp(l1 * t), math.exp(l2 * t)
        d = l1 - l2
        return (l1 * e2 - l2 * e1) / d, (e1 - e2) / d
    # complex-conjugate pair a +/- ib, b != 0
    a, b = eig.re1, eig.im1
    e = math.exp(a * t)
    sin_bt = math.sin(b * t) / b
    return e * (math.cos(b * t) - a * sin_bt), e * sin_bt


def matexp(m, t: float) -> np.ndarray:
    """``e^{t m}`` for a real 2x2 matrix, via the closed-form coefficients.

    Callers that need the one-step transition map of a drift matrix pass a
    negative ``t`` (the map over a step ``delta`` is ``matexp(beta, -delta)``).
    """
    return _expm2(_as_mat2(m), t)


def _expm2(a: np.ndarray, t: float) -> np.ndarray:
    """:func:`matexp` of a matrix :func:`_as_mat2` has already checked."""
    s0, s1 = s0s1(_classify(a), t)
    return s0 * _EYE2 + s1 * a


def expm_series(m, t: float) -> np.ndarray:
    """``e^{t m}`` for a real square matrix, by scaling and squaring a
    truncated Taylor series.

    The argument is halved ``s`` times until its infinity norm is at most
    1/16, summed to ``SERIES_TERMS`` terms and squared ``s`` times, so the
    truncation error is far below roundoff for every input.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    a = a * float(t)
    norm = float(np.max(np.sum(np.abs(a), axis=1)))  # max absolute row sum
    squarings = math.ceil(math.log2(max(1.0, norm))) + 4
    b = a / (2.0**squarings)
    eye = np.eye(a.shape[0])
    total = eye
    term = eye
    for k in range(1, SERIES_TERMS):
        term = term @ b / k
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total
