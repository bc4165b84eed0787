"""Reference pooled fit and bootstrap by per-replicate least squares.

This is the direct route the package replaced with count-weighted
sufficient statistics: every bootstrap replicate copies its resampled units
and refits them with ``np.linalg.lstsq``.  It exists only to cross-check the
batched route.
"""

import numpy as np

from gridbias import DegenerateDesignError


def design(values):
    """Pooled (X, y) of the transition regression."""
    y_lag = values[:, :-1, 0].ravel()
    w_lag = values[:, :-1, 1].ravel()
    x = np.column_stack((np.ones_like(y_lag), y_lag, w_lag))
    return x, values[:, 1:, 0].ravel()


def lstsq_coefficients(values):
    """``(intercept, lag_outcome, lag_treatment)``; raises
    :class:`DegenerateDesignError` when the design has rank below 3."""
    x, y = design(values)
    coef, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < 3:
        raise DegenerateDesignError("rank deficient design")
    return coef


def lstsq_contrast(values, grid, plan_star, plan_base):
    a, b, c = lstsq_coefficients(values)
    y0 = float(values[:, 0, 0].mean())
    out = []
    for plan in (plan_star, plan_base):
        w = plan.values_at(grid.times[:-1])
        y = y0
        for k in range(grid.J):
            y = a + b * y + c * w[k]
        out.append(y)
    return out[0] - out[1]


def lstsq_bootstrap(panel, plan_star, plan_base, n_boot, alpha, seed):
    """Percentile interval and the mask of degenerate replicates; replicate
    ``b`` refits row ``b`` of the same single ``SeedSequence((seed, 1))`` draw
    as ``bootstrap_ci``."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    draws = rng.integers(0, panel.n, size=(n_boot, panel.n))
    stats = []
    degenerate = np.zeros(n_boot, dtype=bool)
    for b, idx in enumerate(draws):
        try:
            stats.append(lstsq_contrast(panel.values[idx], panel.grid, plan_star, plan_base))
        except DegenerateDesignError:
            degenerate[b] = True
    lower, upper = np.quantile(stats, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(lower), float(upper), degenerate
