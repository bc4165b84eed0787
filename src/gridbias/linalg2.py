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

One float-level core carries the closed form: :func:`_expm2_rows` takes the
four entries of a checked matrix and ``t`` and returns the four entries of
``e^{t m}`` as Python floats.  It classifies the eigenvalues into a plain
tuple (:func:`_classify`), evaluates ``s0, s1`` once (:func:`_coefficients`)
and forms each entry with the float operations NumPy applies to
``s0 * I + s1 * m``, so its bits equal that 2x2 sum, signed zeros included.
The public names are thin wrappers over it: :func:`eigen2` checks its
argument and wraps the classification in an :class:`EigenPair2`, and
:func:`matexp` checks its argument and returns the core's entries as an
array.  Callers that hold a matrix already checked by :func:`_as_mat2`
(such as a frozen ``ModelParams.beta``) call the core directly:
``estimands`` reads its one-step maps as floats, and ``sde`` makes its
mean map an array of them.

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
    (p, q), (r, s) = _as_mat2(m).tolist()
    return EigenPair2(*_classify(p, q, r, s))


def _classify(p: float, q: float, r: float, s: float) -> tuple:
    """:func:`eigen2` of ``[[p, q], [r, s]]`` as the plain tuple
    ``(kind, re1, im1, re2, im2)`` of the :class:`EigenPair2` fields."""
    tr = p + s
    det = p * s - q * r
    disc = tr * tr - 4.0 * det
    # |lam1 - lam2| = sqrt(|disc|) for either sign of the discriminant.
    gap = math.sqrt(abs(disc))
    if gap < COLLAPSE_RTOL * max(1.0, abs(p) + abs(q), abs(r) + abs(s)):
        lam = 0.5 * tr
        return "repeated", lam, 0.0, lam, 0.0
    if disc > 0.0:
        half = 0.5 * math.sqrt(disc)
        return "distinct-real", 0.5 * tr + half, 0.0, 0.5 * tr - half, 0.0
    half = 0.5 * math.sqrt(-disc)
    return "complex-conjugate", 0.5 * tr, half, 0.5 * tr, -half


def _coefficients(eig: tuple, t: float) -> tuple[float, float]:
    """Scalar coefficients of ``e^{t m} = s0 I + s1 m``, always real, from
    the :func:`_classify` tuple ``eig`` of ``m``."""
    kind, re1, im1, re2, _ = eig
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    if kind == "repeated":
        e = math.exp(re1 * t)
        return (1.0 - re1 * t) * e, t * e
    if kind == "distinct-real":
        e1, e2 = math.exp(re1 * t), math.exp(re2 * t)
        d = re1 - re2
        return (re1 * e2 - re2 * e1) / d, (e1 - e2) / d
    # complex-conjugate pair re1 +/- i im1, im1 != 0
    e = math.exp(re1 * t)
    sin_bt = math.sin(im1 * t) / im1
    return e * (math.cos(im1 * t) - re1 * sin_bt), e * sin_bt


def matexp(m, t: float) -> np.ndarray:
    """``e^{t m}`` for a real 2x2 matrix, via the closed-form coefficients.

    Callers that need the one-step transition map of a drift matrix pass a
    negative ``t`` (the map over a step ``delta`` is ``matexp(beta, -delta)``).
    """
    return np.array(_expm2_rows(_as_mat2(m).tolist(), t))


def _expm2_rows(rows, t: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """``e^{t m}`` of the checked rows ``((p, q), (r, s))`` of ``m``, as
    rows of Python floats.

    Each entry is formed with the float operations NumPy applies to
    ``s0 * I + s1 * m``, so the bits match that sum, signed zeros
    included: the off-diagonal of ``s0 * I`` is ``s0 * 0.0``.
    """
    (p, q), (r, s) = rows
    s0, s1 = _coefficients(_classify(p, q, r, s), t)
    zero = s0 * 0.0
    return (s0 + s1 * p, zero + s1 * q), (zero + s1 * r, s0 + s1 * s)


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
