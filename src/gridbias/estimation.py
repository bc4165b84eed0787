"""Finite-sample estimation pipeline on trajectory panels.

A pooled linear transition model ``Y_k ~ 1 + Y_{k-1} + W_{k-1}`` is fit by
ordinary least squares across all units and steps (the process is
temporally homogeneous, so pooling is valid and far more stable than per-k
fits at realistic sample sizes).  The fit solves the centred 2x2 normal
equations of the two slopes, formed from per-unit sums of the columns
shifted by one observed value and of their products, so a bootstrap
resample is fit from its unit counts alone.  Under a homoscedastic linear
transition model the iterated-expectation identification functional
collapses exactly to the mean recursion ``y_k = a + b y_{k-1} + c
w(t_{k-1})``.  Two schedules share ``a`` and the baseline mean ``E[Y0]``,
which cancel from their difference, so the plug-in contrast is
``c * sum_k b^(J-1-k) (w*(t_k) - w0(t_k))``: the ``theta_g`` contrast
evaluated at the fitted one-step map, with no numerical integration.

Interval estimates come from a nonparametric bootstrap that resamples
whole units with replacement (preserving within-unit dependence) and uses
percentile intervals with linearly interpolated order statistics; all
replicates are fit in one batch.

The half-grid sensitivity measure compares the full-grid estimate with the
one recomputed on every second grid point: it is 0 when the confidence
interval covers 0, otherwise the CI endpoint nearest zero divided by the
absolute estimate shift under grid halving.  Small values flag results
that discretization error could plausibly explain away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimands import TreatmentPlan, _require_plan_covers
from .sde import TrajectoryPanel, subsample_panel

__all__ = [
    "DegenerateDesignError",
    "BootstrapFailureError",
    "ContrastEstimate",
    "ZetaReport",
    "estimate_contrast",
    "bootstrap_ci",
    "sensitivity_ratio",
    "zeta",
]

# Bootstrap replicates whose design is rank deficient are skipped; beyond
# this fraction the interval is considered meaningless and an error is raised.
MAX_BOOT_FAILURE_FRACTION = 0.10

# A design is rank deficient when the centred 2x2 normal matrix ``A`` of the
# lagged outcome and lagged treatment has ``det A <= rtol * a11 * a22``,
# that is ``1 - corr^2 <= rtol`` for the two columns' correlation, or when
# either centred sum of squares is at or below ``rtol`` of its shifted,
# uncentred one (the column is constant up to rounding).  Each ratio is
# unchanged by scaling or shifting either column, so the test does not
# depend on the data's units or origin.  An exactly collinear design (a
# constant treatment, fewer than three transitions) shows up at rounding
# level, about 1e-16, while bootstrap resamples of the default study
# sweep's panels have ``1 - corr^2`` of 1e-4 and above and keep at least
# 40% of each sum of squares after centring.  Slopes solved from a system
# with ``1 - corr^2`` below this would keep fewer than six significant
# digits.
DESIGN_RTOL = 1e-10

# The rank tests of :func:`_fit`, in the order of its mask's columns.
DESIGN_FAILURES = (
    "the lagged outcome is constant",
    "the treatment is constant",
    "the lagged outcome and the treatment are collinear",
)


class DegenerateDesignError(ValueError):
    """The pooled regression design is rank deficient (e.g. a constant
    treatment column); coefficients are not identifiable."""


class BootstrapFailureError(RuntimeError):
    """Too many bootstrap replicates had rank-deficient designs."""


@dataclass(frozen=True)
class ContrastEstimate:
    """Plug-in contrast between two schedules sharing one fitted model."""

    tau_hat: float


@dataclass(frozen=True)
class ZetaReport:
    """Point estimate, interval, half-grid estimate and sensitivity ratio.

    ``zeta`` is ``None`` exactly when the CI excludes zero but the grid
    halving shifted the estimate by exactly zero, leaving the ratio
    undefined; callers should surface that case rather than a number.
    """

    tau_hat: float
    tau_hat_half: float
    ci_lower: float
    ci_upper: float
    zeta: float | None

    def __post_init__(self):
        if self.ci_lower > self.ci_upper:
            raise ValueError("interval endpoints out of order")
        if self.zeta is not None and self.zeta < 0:
            raise ValueError("sensitivity measure must be non-negative")
        if self.ci_lower <= 0.0 <= self.ci_upper and self.zeta != 0.0:
            raise ValueError("interval covers zero, so the measure must be zero")


def _unit_statistics(values: np.ndarray) -> np.ndarray:
    """Per-unit sufficient statistics of the pooled fit, one row per unit.

    With the shifted columns ``u = y_lag - values[0, 0, 0]``, ``v = w_lag -
    values[0, 0, 1]`` and ``r = y - values[0, 1, 0]``, the row holds the
    sums over the unit's transitions of ``u, v, r, uu, uv, vv, ur, vr``.
    Shifting by one observed value keeps the sums near the data's spread
    rather than its origin (Chan, Golub & LeVeque 1983).
    """
    u = values[:, :-1, 0] - values[0, 0, 0]
    v = values[:, :-1, 1] - values[0, 0, 1]
    r = values[:, 1:, 0] - values[0, 1, 0]
    return np.stack((u, v, r, u * u, u * v, v * v, u * r, v * r), axis=1).sum(axis=2)


def _fit(values: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pooled OLS on every resample given by a row of ``counts``.

    ``counts[b, i]`` is how often unit ``i`` appears in resample ``b`` (all
    ones for the sample itself); every row sums to ``n``.  Returns the
    coefficients ``(B, 3)`` and a ``(B, 3)`` mask of the rank tests each
    resample fails, in the order of :data:`DESIGN_FAILURES`; a resample
    failing any of them is rank deficient and its coefficients are zero.
    Totals of the shifted sums (:func:`_unit_statistics`) are summed
    relative to unit 0, ``n S_0 + sum_i c_i (S_i - S_0)``, so that resamples
    of identical units give bit-identical totals whatever their counts.  The
    slopes ``(b, c)`` solve the centred 2x2 normal equations by Cramer's
    rule, and the intercept follows from the shifted means.
    """
    n, n_trans = len(values), len(values) * (values.shape[1] - 1)
    stats = _unit_statistics(values)
    su, sv, sr, suu, suv, svv, sur, svr = (n * stats[0] + counts @ (stats - stats[0])).T
    a11 = suu - su * su / n_trans
    a12 = suv - su * sv / n_trans
    a22 = svv - sv * sv / n_trans
    r1 = sur - su * sr / n_trans
    r2 = svr - sv * sr / n_trans
    det = a11 * a22 - a12 * a12
    failed = np.column_stack(
        (
            a11 <= DESIGN_RTOL * suu,
            a22 <= DESIGN_RTOL * svv,
            det <= DESIGN_RTOL * a11 * a22,
        )
    )
    degenerate = failed.any(axis=1)
    det = np.where(degenerate, 1.0, det)
    b = (a22 * r1 - a12 * r2) / det
    c = (a11 * r2 - a12 * r1) / det
    y00, w00 = values[0, 0]
    a = values[0, 1, 0] - b * y00 - c * w00 + (sr - b * su - c * sv) / n_trans
    coef = np.where(degenerate[:, None], 0.0, np.column_stack((a, b, c)))
    return coef, failed


def _sample_fit(values: np.ndarray) -> np.ndarray:
    """:func:`_fit` of the sample itself (one all-ones resample); raises
    :class:`DegenerateDesignError`, naming the failed rank test, if its
    design is rank deficient."""
    coef, failed = _fit(values, np.ones((1, len(values))))
    if failed.any():
        n_transitions = len(values) * (values.shape[1] - 1)
        if n_transitions < 3:
            raise DegenerateDesignError(
                f"need at least 3 pooled transitions, got {n_transitions}"
            )
        reason = DESIGN_FAILURES[int(np.argmax(failed[0]))]
        raise DegenerateDesignError(f"transition design is rank deficient: {reason}")
    return coef


def _contrast(
    coef: np.ndarray, grid, plan_star: TreatmentPlan, plan_base: TreatmentPlan
) -> np.ndarray:
    """``c * sum_k b^(J-1-k) dw_k`` for every row ``(a, b, c)`` of ``coef``,
    where ``dw_k = w*(t_k) - w0(t_k)`` on the grid's left endpoints, by the
    one recursion ``d = b d + c dw_k`` from ``d = 0``.  Adding ``0.0`` at
    the end writes a contrast of identical plans as ``0.0``, never ``-0.0``."""
    _require_plan_covers(plan_star, grid.T)
    _require_plan_covers(plan_base, grid.T)
    t = grid.times[:-1]
    dw = plan_star.values_at(t) - plan_base.values_at(t)
    _, b, c = coef.T
    d = np.zeros_like(b)
    for k in range(grid.J):
        d = b * d + c * dw[k]
    return d + 0.0


def estimate_contrast(
    panel: TrajectoryPanel, plan_star: TreatmentPlan, plan_base: TreatmentPlan
) -> ContrastEstimate:
    """Plug-in contrast between two schedules from one pooled fit ``(a, b,
    c)``: ``c * sum_k b^(J-1-k) (w*(t_k) - w0(t_k))``.  The intercept ``a``
    and the baseline mean ``E[Y0]`` enter both schedules' mean recursions
    alike and cancel exactly, so neither is used."""
    tau = _contrast(_sample_fit(panel.values), panel.grid, plan_star, plan_base)
    return ContrastEstimate(tau_hat=float(tau[0]))


def _resample_counts(n: int, n_boot: int, seed: int) -> np.ndarray:
    """``(n_boot, n)`` unit multiplicities.  All indices come from one
    stream, ``default_rng(SeedSequence(seed)).integers(0, n, size=(n_boot,
    n))``; row ``b`` of that draw is replicate ``b``."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    idx = rng.integers(0, n, size=(n_boot, n))
    idx += n * np.arange(n_boot)[:, None]
    return np.bincount(idx.ravel(), minlength=n_boot * n).reshape(n_boot, n).astype(float)


def _quantiles(x: np.ndarray, q: list[float]) -> np.ndarray:
    """``np.quantile(x, q)`` (method ``"linear"``) bit for bit, without the
    ``numpy.ma`` import that its first call costs (about 15 ms).

    The same partition as numpy's puts the order statistics in place; the
    virtual index is ``(n - 1) q``, an index at or past the last one reads
    the last element, and ``a + d g`` (``b - d (1 - g)`` when ``g >= 0.5``)
    interpolates, as numpy's ``_lerp`` does.  A NaN in ``x`` gives the NaN
    that sorts last.
    """
    n = len(x)
    virtual = (n - 1) * np.asarray(q, dtype=float)
    lo = np.floor(virtual)
    hi = lo + 1
    top = virtual >= n - 1
    lo[top] = hi[top] = -1
    lo, hi = lo.astype(np.intp), hi.astype(np.intp)
    x = np.partition(x, sorted({0, -1, *lo.tolist(), *hi.tolist()}))
    if np.isnan(x[-1]):
        return np.full(virtual.shape, x[-1])
    g = virtual - lo
    a, b = x[lo], x[hi]
    d = b - a
    return np.where(g >= 0.5, b - d * (1 - g), a + d * g)


def bootstrap_ci(
    panel: TrajectoryPanel,
    plan_star: TreatmentPlan,
    plan_base: TreatmentPlan,
    n_boot: int,
    alpha: float,
    seed: int,
) -> tuple[float, float]:
    """Percentile bootstrap interval for the plug-in contrast.

    Resamples whole units with replacement.  One stream keyed on
    ``SeedSequence(seed)`` draws the indices of every replicate at once
    (see :func:`_resample_counts`), so the interval is deterministic given
    the seed.  The pooled fit depends on the data only through per-unit
    sufficient statistics, so a replicate is not refit on copied data: its
    unit counts weight those statistics, and one vectorised 2x2 solve by
    Cramer's rule fits all replicates.  Quantiles interpolate linearly
    between order statistics, bit for bit as ``np.quantile`` does
    (:func:`_quantiles`).  Replicates
    whose design is rank deficient are skipped; more than 10% of them
    raises :class:`BootstrapFailureError`.
    """
    if n_boot < 2:
        raise ValueError("need at least 2 bootstrap replicates")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    coef, failed = _fit(panel.values, _resample_counts(panel.n, n_boot, seed))
    degenerate = failed.any(axis=1)
    stats = _contrast(coef, panel.grid, plan_star, plan_base)
    failures = int(degenerate.sum())
    if failures > MAX_BOOT_FAILURE_FRACTION * n_boot:
        raise BootstrapFailureError(
            f"{failures}/{n_boot} bootstrap replicates had degenerate designs"
        )
    lower, upper = _quantiles(stats[~degenerate], [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(lower), float(upper)


def sensitivity_ratio(
    tau: float, tau_half: float, lower: float, upper: float
) -> float | None:
    """Case logic of the grid-halving sensitivity measure.

    0 when the interval covers 0; otherwise ``min(|lower|, |upper|)``
    divided by ``|tau - tau_half|``; ``None`` when that denominator is
    exactly zero while the interval excludes zero.
    """
    if lower <= 0.0 <= upper:
        return 0.0
    shift = abs(tau - tau_half)
    if shift == 0.0:
        return None
    return min(abs(lower), abs(upper)) / shift


def zeta(
    panel: TrajectoryPanel,
    plan_star: TreatmentPlan,
    plan_base: TreatmentPlan,
    n_boot: int,
    alpha: float,
    seed: int,
) -> ZetaReport:
    """Grid-halving sensitivity report for the plug-in contrast.

    The panel's J must be even: the half-grid estimate reruns the whole
    pipeline on the sub-panel keeping every second grid point.  The ratio
    is 0 when the CI covers 0; otherwise the CI endpoint nearest zero over
    ``|tau_hat - tau_hat_half|`` (``None`` if that shift is exactly zero).
    """
    if panel.grid.J % 2 != 0:
        raise ValueError(
            f"J={panel.grid.J} is odd; grid halving needs an even J, "
            "choose the measurement grid accordingly"
        )
    tau = estimate_contrast(panel, plan_star, plan_base).tau_hat
    lower, upper = bootstrap_ci(panel, plan_star, plan_base, n_boot, alpha, seed)
    half = subsample_panel(panel, 2)
    tau_half = estimate_contrast(half, plan_star, plan_base).tau_hat
    ratio = sensitivity_ratio(tau, tau_half, lower, upper)
    return ZetaReport(
        tau_hat=tau,
        tau_hat_half=tau_half,
        ci_lower=lower,
        ci_upper=upper,
        zeta=ratio,
    )
