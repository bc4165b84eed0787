"""The matrix exponential of a real 2x2 matrix, in closed form.

A real 2x2 matrix ``m = [[p, q], [r, s]]`` splits as ``m = a I + n`` with
``a = tr(m)/2``, ``d = (p - s)/2``, ``n = [[d, q], [r, -d]]`` and
``n^2 = h^2 I``, where ``h^2 = d^2 + qr``; the eigenvalues are ``a +/- h``.
So ``e^{t m} = e^{a t} (C I + S n)`` with

* ``C = cosh(h t)``, ``S = sinh(h t)/h`` for ``h^2 > 0`` (distinct real),
* ``C = cos(h t)``, ``S = sin(h t)/h``, ``h = sqrt(-h^2)``, for ``h^2 < 0``
  (a complex pair ``a +/- ih``),
* ``C = 1``, ``S = t`` at ``h = 0`` (a repeated eigenvalue).

``C`` and ``S`` are smooth in ``h^2``, so this is one formula for every
eigenvalue kind, with no tolerance to switch between them and no
``tr^2 - 4 det`` cancellation (Moler and Van Loan 2003, "Nineteen dubious
ways to compute the exponential of a matrix, twenty-five years later").

One float-level core carries it: :func:`_expm2m1_rows` takes the four
entries of a checked matrix and ``t`` and returns the four entries of
``e^{t m} - I`` as Python floats, with the diagonal written through
``expm1(a t)`` and ``C - 1 = +/- 2 sinh^2/sin^2(h t/2)``, so entries near 0
keep their digits when ``t`` is small.  :func:`_expm2_rows` adds the
identity; :func:`matexp` checks its argument and returns those entries as
an array.  Callers that hold a matrix already checked by :func:`_as_mat2`
(such as a frozen ``ModelParams.beta``) call a core directly:
``estimands`` reads ``g11 - 1`` of its one-step map from
:func:`_expm2m1_rows`, and ``sde`` makes its mean map an array of
:func:`_expm2_rows`.  An intermediate beyond the double range raises
``OverflowError``, never a silent NaN or inf.  All functions are pure and
safe for concurrent use; the independent checks of :func:`matexp` (a
Taylor-series exponential and an eigenvalue-kind label) live in the tests.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["matexp"]


def _float_array(x, name: str, shape: str) -> np.ndarray:
    """A new float array of ``x``; NumPy's error for a ragged ``x`` names ``name``."""
    try:
        return np.array(x, dtype=float)
    except ValueError as exc:
        raise ValueError(f"{name} must be {shape} real numbers ({exc})") from exc


def _as_mat2(m, name: str = "matrix") -> np.ndarray:
    """A new float copy of ``m``, checked to be a finite 2x2 matrix."""
    a = _float_array(m, name, "2x2")
    if a.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} entries must be finite")
    return a


def _shifted(p: float, q: float, r: float, s: float) -> tuple[float, float, float]:
    """``(a, d, h^2)`` of ``m = [[p, q], [r, s]] = a I + n`` with
    ``n = [[d, q], [r, -d]]``: ``a = tr/2``, ``d = (p - s)/2`` and
    ``h^2 = d^2 + qr``, so that ``n^2 = h^2 I`` and the eigenvalues are
    ``a +/- h``.  ``h^2`` is the discriminant ``(tr^2 - 4 det)/4`` without
    the cancellation of ``tr^2`` against ``4 det``."""
    d = 0.5 * (p - s)
    return 0.5 * (p + s), d, d * d + q * r


def matexp(m, t: float) -> np.ndarray:
    """``e^{t m}`` for a real 2x2 matrix, in closed form.

    Callers that need the one-step transition map of a drift matrix pass a
    negative ``t`` (the map over a step ``delta`` is ``matexp(beta, -delta)``).
    """
    return np.array(_expm2_rows(_as_mat2(m).tolist(), t))


def _expm2_rows(rows, t: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """``e^{t m} = I + (e^{t m} - I)`` of the checked rows of ``m``, as rows
    of Python floats: :func:`_expm2m1_rows` plus the identity, entry by
    entry, so its bits are those of the 2x2 sum ``I + E`` (an off-diagonal
    ``-0.0`` becomes the identity's ``0.0``)."""
    (e11, e12), (e21, e22) = _expm2m1_rows(rows, t)
    return (1.0 + e11, 0.0 + e12), (0.0 + e21, 1.0 + e22)


def _expm2m1_rows(rows, t: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """``e^{t m} - I`` of the checked rows ``((p, q), (r, s))`` of ``m``, as
    rows of Python floats, to roundoff of its largest entry.

    The diagonal is ``e^{a t} C - 1 +/- e^{a t} S d``, with
    ``e^{a t} C - 1 = expm1(a t) C + (C - 1)`` and ``S = t sinh(h t)/(h t)``
    (or ``sin``), which keeps its digits when ``h t`` is tiny; the
    off-diagonal is ``e^{a t} S q`` and ``e^{a t} S r``.  For real
    ``|h t| > 1``, ``e^{a t} C`` and ``e^{a t} S`` come from the two
    exponentials ``e^{(a +/- h) t}``, so no factor overflows where the
    product would not; their difference there loses at most a factor
    ``1/(1 - e^{-2})``.  Raises ``OverflowError`` when an intermediate, the
    sum of the four entries included, leaves the double range.
    """
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    (p, q), (r, s) = rows
    a, d, h2 = _shifted(p, q, r, s)
    at = a * t
    h = math.sqrt(abs(h2))
    x = h * t
    if not (math.isfinite(at) and math.isfinite(x)):
        raise OverflowError("matrix exponential exceeds the double range")
    if h2 >= 0.0 and abs(x) > 1.0:
        ep, em = math.exp(at + x), math.exp(at - x)
        ecm1 = 0.5 * (ep + em) - 1.0
        es = (ep - em) / (2.0 * h)
    else:
        if h2 >= 0.0:
            cm1 = 2.0 * math.sinh(0.5 * x) ** 2
            c, sx = 1.0 + cm1, math.sinh(x)
        else:
            c, cm1, sx = math.cos(x), -2.0 * math.sin(0.5 * x) ** 2, math.sin(x)
        ecm1 = math.expm1(at) * c + cm1
        es = math.exp(at) * t * (sx / x if x else 1.0)
    e11, e12, e21, e22 = ecm1 + es * d, es * q, es * r, ecm1 - es * d
    if not math.isfinite(e11 + e12 + e21 + e22):
        raise OverflowError("matrix exponential exceeds the double range")
    return (e11, e12), (e21, e22)
