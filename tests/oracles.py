"""Reference routes for the matrix exponential and the eigenvalue kind of
a 2x2 drift, the noise covariance, the smaller eigenvalue of a 2x2
covariance, the identification bias, ``theta_g``, ``eta``, the panel CSV
writer, the treatment schedule and its integral, the estimator's plug-in
contrast and its per-unit sums.

The package computes each quantity one way: ``e^{t m} - I`` of a 2x2
matrix in closed form, the transition noise covariance by doubling a
short-step Taylor sum, a covariance's PSD check from the closed-form
smaller eigenvalue, the bias by direct subtraction ``theta_g - eta``, all
in double precision, ``theta_g`` in closed form over the runs of equal
sampled schedule values, each run bound found in O(1), the panel CSV from
one formatted string per unit, a schedule from one ``(jumps, values)``
form, its integral by walking the pieces by index, the plug-in contrast by
one recursion over the schedule difference, and each per-unit sum of the
pooled fit along its own column.  The routes here compute the
same numbers (or bytes) another way and exist only to cross-check those;
the decimal ones are exact far below double roundoff.  :func:`expm_series`
shares no code with the closed form, and :func:`eigen2` labels the
eigenvalue kind of a drift so that a check can count the kinds it covers."""

import bisect
import csv
import decimal
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np

from gridbias import TreatmentPlan, matexp, plan_integral
from gridbias.estimands import _exp_weight_integral
from gridbias.linalg2 import _as_mat2
from gridbias.sde import PANEL_CSV_HEADER

# Relative eigenvalue gap below which eigen2 labels a pair "repeated".
REPEATED_RTOL = 1e-9

# Taylor-series order of expm_series: after scaling, ||t*m||_inf <= 1/16,
# where the tail beyond 25 terms is below 1e-55, far under roundoff.
SERIES_TERMS = 25


def eigen2(m) -> tuple[str, complex, complex]:
    """The eigenvalue kind of a real 2x2 matrix and its eigenvalues ``a +/- h``,
    from the shifted form ``a = tr/2``, ``d = (p - s)/2``, ``h^2 = d^2 + qr``.

    The kind is ``"distinct-real"``, ``"repeated"`` or ``"complex-conjugate"``.
    A pair whose gap ``2 |h|`` is below ``REPEATED_RTOL * max(1, ||m||_inf)``
    is labelled repeated, with both values ``a``; a complex pair is an exact
    conjugate pair.  Raises ``OverflowError`` when ``h^2`` or an eigenvalue
    leaves the double range."""
    (p, q), (r, s) = _as_mat2(m).tolist()
    d = 0.5 * (p - s)
    a, h2 = 0.5 * (p + s), d * d + q * r
    h = math.sqrt(abs(h2))
    if not math.isfinite(abs(a) + h):
        raise OverflowError("eigenvalues exceed the double range")
    if 2.0 * h < REPEATED_RTOL * max(1.0, abs(p) + abs(q), abs(r) + abs(s)):
        return "repeated", complex(a), complex(a)
    if h2 > 0.0:
        return "distinct-real", complex(a + h), complex(a - h)
    return "complex-conjugate", complex(a, h), complex(a, -h)


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


def cov_simpson(beta, d, delta, panels, expm=matexp):
    """``int_0^delta e^{-beta u} d e^{-beta' u} du`` by composite Simpson
    quadrature, each panel contributing the 1-4-1 rule on its midpoint.
    ``expm(m, t)`` is the 2x2 exponential the integrand is built from."""

    def f(u):
        e = expm(beta, -u)
        return e @ d @ e.T

    h = delta / panels
    total = np.zeros((2, 2))
    left = f(0.0)
    for i in range(panels):
        mid = f((i + 0.5) * h)
        right = f((i + 1) * h)
        total += h / 6.0 * (left + 4.0 * mid + right)
        left = right
    return total


def cov_kronecker(beta, d, delta):
    """The same integral from the Sylvester identity
    ``beta C + C beta' = d - e^{-beta delta} d e^{-beta' delta}``, solved in
    vectorised form through the Kronecker sum ``beta (+) beta``.  Singular
    when two eigenvalues of ``beta`` sum to zero (e.g. ``beta = 0``)."""
    g = matexp(beta, -delta)
    rhs = d - g @ d @ g.T
    eye = np.eye(2)
    kron_sum = np.kron(beta, eye) + np.kron(eye, beta)
    return np.linalg.solve(kron_sum, rhs.reshape(4)).reshape(2, 2)


def min_eigenvalue_exact(cov, prec: int = 60) -> Decimal:
    """The smaller eigenvalue ``(a + d)/2 - sqrt(((a - d)/2)^2 + c^2)`` of
    the symmetric matrix whose lower triangle is ``a = cov[0][0]``,
    ``c = cov[1][0]``, ``d = cov[1][1]`` (the triangle ``eigvalsh`` reads),
    in ``prec``-digit decimal arithmetic from the exact doubles, with an
    exponent range wide enough that nothing overflows or underflows."""
    (a, _), (c, d) = ((Decimal(float(x)) for x in row) for row in np.asarray(cov, dtype=float))
    with decimal.localcontext() as ctx:
        ctx.prec = prec
        ctx.Emax, ctx.Emin = decimal.MAX_EMAX, decimal.MIN_EMIN
        half_gap = (a - d) / 2
        return (a + d) / 2 - (half_gap * half_gap + c * c).sqrt()


def sample_runs_searchsorted(plan: TreatmentPlan, horizon: float, J: int) -> list[int]:
    """Run bounds of the schedule sampled at ``t_i = i T/J``, ``i < J``, found
    by binary search of each jump in the whole array of sample times."""
    times = np.arange(J) * (horizon / J)
    return [0, *np.searchsorted(times, plan.jumps, side="left").tolist(), J]


def identification_bias_expanded(params, plan: TreatmentPlan, J: int) -> float:
    """Three-term expansion of the bias ``theta_g - eta``.

    ``(g11^J - e^{-b11 T}) E[Y0] + g12 * S + b12 * int_0^T w(s) e^{b11(s-T)} ds``
    with ``g = e^{-beta T/J}`` and ``S = sum_{i<J} w(t_i) g11^{J-i-1}``
    accumulated by Horner recursion.  Agrees with the direct difference up
    to roundoff on the scale of the individual terms.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    b11 = params.beta[0, 0]
    b12 = params.beta[0, 1]
    ey0 = params.init_mean[0]
    g = matexp(params.beta, -params.horizon / J)
    g11, g12 = g[0, 0], g[0, 1]
    w = plan.values_at(np.arange(J) * (params.horizon / J))
    power_sum = 0.0
    for k in range(J):
        power_sum = g11 * power_sum + w[k]
    return float(
        (g11**J - math.exp(-b11 * params.horizon)) * ey0
        + g12 * power_sum
        + b12 * plan_integral(plan, 0.0, params.horizon, b11)
    )


def theta_g_exact(params, plan: TreatmentPlan, J: int) -> tuple[Decimal, float]:
    """The recursion ``y = g11 y + g12 w(t_k)`` that defines ``theta_g``, run
    in 60-digit decimal arithmetic J steps from ``y = E[Y0]``, with
    ``g = e^{-beta T/J}`` from :func:`expm1_taylor` of the exact ``beta``
    and ``T/J``: exact far below double roundoff, and blind to none of the
    rounding of ``g`` itself.  Returns ``(value, scale)``, where
    ``scale = |g11^J E[Y0]| + |g12| sum_i |w(t_i)| |g11|^{J-1-i}`` is the sum of
    term magnitudes that roundoff is measured against."""
    (e11, e12), _ = expm1_taylor(params.beta, -Fraction(params.horizon) / J)
    y0 = float(params.init_mean[0])
    w = plan.values_at(np.arange(J) * (params.horizon / J)).tolist()
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        d11 = 1 + e11
        forcing = {v: e12 * Decimal(v) for v in set(w)}
        y = Decimal(y0)
        for v in w:
            y = d11 * y + forcing[v]
    g11, g12 = float(d11), float(e12)
    magnitude = 0.0
    for v in w:
        magnitude = abs(g11) * magnitude + abs(v)
    return y, abs(g11**J * y0) + abs(g12) * magnitude


def true_eta_exact(params, plan: TreatmentPlan) -> Decimal:
    """``eta = e^{-b11 T} E[Y0] - b12 int_0^T w(s) e^{b11 (s - T)} ds`` in
    60-digit decimal arithmetic, the integral summed over the schedule's
    constant pieces in closed form."""
    b11, b12 = (Decimal(float(x)) for x in params.beta[0])
    horizon = Decimal(float(params.horizon))
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        cuts = [Decimal(0), *(Decimal(x) for x in plan.jumps if x < params.horizon), horizon]
        integral = Decimal(0)
        for lo, hi, v in zip(cuts, cuts[1:], plan.values):
            if b11:
                piece = (((hi - horizon) * b11).exp() - ((lo - horizon) * b11).exp()) / b11
            else:
                piece = hi - lo
            integral += Decimal(v) * piece
        return (-b11 * horizon).exp() * Decimal(float(params.init_mean[0])) - b12 * integral


def theta_g_float64(params, plan: TreatmentPlan, J: int) -> float:
    """``theta_g`` as the J-step recursion ``y = g11 y + g12 w(t_k)`` run on
    ``np.float64`` scalars indexed out of NumPy arrays; its roundoff grows
    with J."""
    g = matexp(params.beta, -params.horizon / J)
    g11, g12 = g[0, 0], g[0, 1]
    w = plan.values_at(np.arange(J) * (params.horizon / J))
    y = params.init_mean[0]
    for k in range(J):
        y = g11 * y + g12 * w[k]
    return float(y)


def write_panel_csv_rowwise(panel, path) -> None:
    """The panel CSV written one row at a time through ``csv.writer``, each
    float formatted as ``repr(float(...))`` of a NumPy scalar."""
    times = panel.grid.times
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PANEL_CSV_HEADER)
        for i in range(panel.n):
            for k in range(panel.grid.J + 1):
                writer.writerow(
                    (
                        i,
                        k,
                        repr(float(times[k])),
                        repr(float(panel.values[i, k, 0])),
                        repr(float(panel.values[i, k, 1])),
                    )
                )


@dataclass(frozen=True)
class KindPlan:
    """A treatment schedule stored as its config ``kind`` plus that kind's
    own fields, and read by one branch per kind: ``constant`` (``value``),
    ``piecewise`` (interior ``breakpoints``, ``len(values) ==
    len(breakpoints) + 1``) and ``tabulated`` (left-step knot ``times``
    from 0, one value per knot).  No validation; inputs must be valid."""

    kind: str
    horizon: float
    value: float = 0.0
    breakpoints: tuple = ()
    values: tuple = ()
    times: tuple = ()

    def __call__(self, t: float) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "piecewise":
            return self.values[bisect.bisect_right(self.breakpoints, t)]
        return self.values[bisect.bisect_right(self.times, t) - 1]

    def values_at(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if self.kind == "constant":
            return np.full(ts.shape, self.value)
        if self.kind == "piecewise":
            idx = np.searchsorted(self.breakpoints, ts, side="right")
        else:
            idx = np.searchsorted(self.times, ts, side="right") - 1
        return np.asarray(self.values, dtype=float)[idx]


def plan_integral_midpoint(plan: TreatmentPlan, a: float, b: float, rate: float) -> float:
    """``int_a^b w(s) e^{rate (s - b)} ds`` cut at the jumps inside
    ``(a, b)``, each piece integrated by the package's per-piece closed form
    and weighted by ``plan`` called at the piece's midpoint.  That lookup
    reads the piece's own value whenever the midpoint lands strictly inside
    it, that is, for every piece wider than two ulps."""
    if a > b:
        raise ValueError("integration bounds must satisfy a <= b")
    if a < 0.0 or b > plan.horizon:
        raise ValueError("integration bounds outside the plan domain")
    if a == b:
        return 0.0
    cuts = [a] + [p for p in plan.jumps if a < p < b] + [b]
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        total += plan((lo + hi) / 2.0) * _exp_weight_integral(lo, hi, b, rate)
    return total


def kind_plan_integral(plan: KindPlan, a: float, b: float, rate: float) -> float:
    """``int_a^b w(s) e^{rate (s - b)} ds``, cut at the kind's own jumps
    (the piecewise breakpoints, the tabulated knots after 0), each piece
    integrated by the package's per-piece closed form and weighted by the
    schedule at its midpoint."""
    if a == b:
        return 0.0
    jumps = plan.breakpoints if plan.kind == "piecewise" else plan.times[1:]
    cuts = [a] + [p for p in jumps if a < p < b] + [b]
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        total += plan((lo + hi) / 2.0) * _exp_weight_integral(lo, hi, b, rate)
    return total


def contrast_fraction(coef, y0, grid, plan_star, plan_base) -> float:
    """The plug-in contrast of the coefficient row ``(a, b, c)`` in exact
    rational arithmetic: both level recursions ``y_k = a + b y_{k-1} +
    c w(t_{k-1})`` from ``y_0 = y0``, subtracted, rounded once at the end.
    ``a`` and ``y0`` cancel exactly, whatever their size."""
    a, b, c = (Fraction(float(x)) for x in coef)
    t = grid.times[:-1]
    ends = []
    for plan in (plan_star, plan_base):
        y = Fraction(float(y0))
        for w in plan.values_at(t).tolist():
            y = a + b * y + c * Fraction(w)
        ends.append(y)
    return float(ends[0] - ends[1])


def unit_statistics_stacked(values) -> np.ndarray:
    """The pooled fit's per-unit shifted sums (``_unit_statistics``) from
    one ``(n, 8, J)`` stack of the eight columns, summed along its last
    axis: the same pairwise sums the package forms one column at a time."""
    u = values[:, :-1, 0] - values[0, 0, 0]
    v = values[:, :-1, 1] - values[0, 0, 1]
    r = values[:, 1:, 0] - values[0, 1, 0]
    return np.stack((u, v, r, u * u, u * v, v * v, u * r, v * r), axis=1).sum(axis=2)


def expm1_taylor(m, t, prec: int = 60) -> list[list[Decimal]]:
    """``e^{t m} - I`` of a 2x2 matrix of doubles in ``prec``-digit decimal
    arithmetic, from the exact entries of ``m`` and ``t`` (a double, a
    ``Fraction`` or a ``Decimal``): the Taylor series without its ``I``
    term, summed until its terms fall below ``10^-(prec + 10)`` of the
    scaled argument's size, then doubled ``k`` times by
    ``E(2u) = 2 E(u) + E(u)^2``, which keeps every digit of entries near 0."""
    with decimal.localcontext() as ctx:
        ctx.prec = prec
        ctx.Emax, ctx.Emin = decimal.MAX_EMAX, decimal.MIN_EMIN
        if isinstance(t, Fraction):
            t = Decimal(t.numerator) / Decimal(t.denominator)
        t = Decimal(t)
        a = [[Decimal(float(x)) * t for x in row] for row in np.asarray(m, dtype=float)]
        norm = max(abs(a[0][0]) + abs(a[0][1]), abs(a[1][0]) + abs(a[1][1]))
        k = 0
        while norm > Decimal("0.5"):
            norm /= 2
            k += 1
        scale = Decimal(2) ** k
        b = [[x / scale for x in row] for row in a]

        def mul(x, y):
            return [
                [x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)] for i in range(2)
            ]

        total = [row[:] for row in b]
        term = b
        n = 1
        tiny = Decimal(10) ** -(prec + 10) * max(norm, Decimal(10) ** -prec)
        while max(abs(x) for row in term for x in row) > tiny:
            n += 1
            term = [[x / n for x in row] for row in mul(term, b)]
            total = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(total, term)]
        for _ in range(k):
            sq = mul(total, total)
            total = [[2 * x + y for x, y in zip(r1, r2)] for r1, r2 in zip(total, sq)]
        return total
