"""Closed-form causal estimands for the bivariate linear process.

Everything here is pure analysis of the model parameters; no Monte Carlo.
The quantities computed for a drift matrix ``beta``, horizon ``T``, and a
deterministic treatment schedule ``w`` on ``[0, T]``:

* ``true_eta`` -- the continuous-time counterfactual mean
  ``e^{-b11 T} E[Y0] - b12 * int_0^T w(s) e^{b11 (s - T)} ds``; every
  schedule is piecewise constant, so the integral is a closed-form sum
  over its pieces.
* ``theta_g`` -- the iterated-regression functional on an equidistant grid
  of ``J`` steps, driven by the one-step map ``gamma(J) = e^{-beta T/J}``
  and the schedule sampled at left endpoints ``t_i = i T / J``; a
  closed-form geometric sum over the runs of equal sampled values.
* ``identification_bias`` -- their difference.
* ``theta_naive`` -- the outcome-history-only adjustment and its dense-grid
  limit (the factual mean), which does not converge to ``true_eta``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .linalg2 import _expm2_rows, _expm2m1_rows

__all__ = [
    "TreatmentPlan",
    "plan_integral",
    "true_eta",
    "theta_g",
    "identification_bias",
    "theta_naive",
    "theta_naive_limit",
]

@dataclass(frozen=True)
class TreatmentPlan:
    """A deterministic bounded step schedule ``w`` on ``[0, horizon]``.

    ``values[0]`` applies from 0 and ``values[i]`` from ``jumps[i-1]`` on,
    each piece closed on the left; the ``jumps`` increase strictly within
    ``(0, horizon]``, and a jump at the horizon sets ``w(horizon)`` only.

    Build a plan through its factories, one per config ``kind``:

    * ``constant(value)``: ``w(t) = value`` everywhere (no jumps).
    * ``piecewise(breakpoints, values)``: the breakpoints, strictly inside
      ``(0, horizon)``, are the jumps.
    * ``tabulated(times, values)``: left-step interpolation of knots that
      start at 0; ``w(t)`` is the value at the largest knot <= t, so the
      knots after 0 are the jumps.  A knot may sit at the horizon.
    """

    horizon: float
    jumps: tuple[float, ...]
    values: tuple[float, ...]

    @classmethod
    def constant(cls, value: float, horizon: float) -> "TreatmentPlan":
        return cls(horizon, (), (float(value),))

    @classmethod
    def piecewise(cls, breakpoints, values, horizon: float) -> "TreatmentPlan":
        breakpoints = tuple(float(b) for b in breakpoints)
        if breakpoints and not breakpoints[-1] < horizon:
            raise ValueError("breakpoints must lie strictly inside (0, horizon)")
        return cls(horizon, breakpoints, tuple(float(v) for v in values))

    @classmethod
    def tabulated(cls, times, values, horizon: float) -> "TreatmentPlan":
        times = tuple(float(t) for t in times)
        values = tuple(float(v) for v in values)
        if len(times) != len(values) or not times:
            raise ValueError("tabulated plan needs equal-length, non-empty times/values")
        if times[0] != 0.0:
            raise ValueError("tabulated plan must start at time 0")
        return cls(horizon, times[1:], values)

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("plan horizon must be a positive finite number")
        if len(self.values) != len(self.jumps) + 1:
            raise ValueError("plan needs exactly one more value than jumps")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("plan values must be finite")
        j = self.jumps
        if not all(a < b for a, b in zip(j, j[1:])):
            raise ValueError("plan jumps must be strictly increasing")
        if j and not (0.0 < j[0] and j[-1] <= self.horizon):
            raise ValueError("plan jumps must lie in (0, horizon]")

    def __call__(self, t: float) -> float:
        if not 0.0 <= t <= self.horizon:
            raise ValueError(f"plan evaluated outside [0, {self.horizon}]: t={t}")
        return self.values[bisect.bisect_right(self.jumps, t)]

    def values_at(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at an array of times within the domain."""
        ts = np.asarray(ts, dtype=float)
        # Negated, so that a NaN (which min and max propagate) fails too.
        if ts.size and not (ts.min() >= 0.0 and ts.max() <= self.horizon):
            raise ValueError("plan evaluated outside its domain")
        idx = np.searchsorted(self.jumps, ts, side="right")
        return np.asarray(self.values, dtype=float)[idx]


def _exp_weight_integral(lo: float, hi: float, b: float, rate: float) -> float:
    """``int_lo^hi e^{rate (s - b)} ds`` for ``lo <= hi <= b``, cancellation-safe.

    The integral is anchored at the end where the integrand is largest, so
    for ``rate > 0`` no factor exceeds ``e^0`` however large ``rate (hi - lo)``.
    """
    if rate == 0.0:
        return hi - lo
    end = hi if rate > 0.0 else lo
    # e^{rate(hi-b)} - e^{rate(lo-b)} = e^{rate(end-b)} * -expm1(-|rate|*(hi-lo))
    return math.exp(rate * (end - b)) * -math.expm1(-abs(rate) * (hi - lo)) / abs(rate)


def plan_integral(plan: TreatmentPlan, a: float, b: float, rate: float) -> float:
    """``int_a^b w(s) e^{rate (s - b)} ds`` for a treatment schedule ``w``.

    The schedule is constant between its jumps, so the integral is exact: a
    closed-form exponential integral per piece of ``[a, b]``, weighted by
    the schedule's value on that piece.  A NaN bound and a NaN or infinite
    ``rate`` raise ``ValueError``.
    """
    # Negated comparisons, so that a NaN bound fails them.
    if not a <= b:
        raise ValueError("integration bounds must satisfy a <= b")
    if not (a >= 0.0 and b <= plan.horizon):
        raise ValueError("integration bounds outside the plan domain")
    if not math.isfinite(rate):
        raise ValueError(f"integration rate must be finite, got {rate}")
    first = bisect.bisect_right(plan.jumps, a)
    last = bisect.bisect_left(plan.jumps, b)
    cuts = [a, *plan.jumps[first:last], b]
    total = 0.0
    for lo, hi, v in zip(cuts, cuts[1:], plan.values[first:]):
        total += v * _exp_weight_integral(lo, hi, b, rate)
    return total


def _require_plan_covers(plan: TreatmentPlan, horizon: float) -> None:
    if plan.horizon < horizon:
        raise ValueError(
            f"plan domain [0, {plan.horizon}] does not cover the study horizon {horizon}"
        )


def true_eta(params, plan: TreatmentPlan) -> float:
    """Continuous-time counterfactual mean of the outcome at the horizon.
    Raises ``OverflowError`` when it exceeds the double range."""
    _require_plan_covers(plan, params.horizon)
    b11, b12 = params.beta.tolist()[0]
    decay = math.exp(-b11 * params.horizon)
    eta = decay * params.init_mean.item(0) - b12 * plan_integral(plan, 0.0, params.horizon, b11)
    if not math.isfinite(eta):
        raise OverflowError("true_eta exceeds the double range")
    return eta


def _sample_runs(plan: TreatmentPlan, horizon: float, J: int) -> list[int]:
    """Run boundaries of the schedule sampled at ``t_i = i T/J``, ``i < J``.

    Sample ``i`` takes ``plan.values[r]`` for ``bounds[r] <= i < bounds[r+1]``,
    exactly as :meth:`TreatmentPlan.values_at` reads it at those times: a
    run starts at the first sample time at or past its jump.  A jump past
    the last sample time, such as one at the horizon, gives an empty run.

    Each bound costs O(1), whatever ``J``: the estimate ``ceil(x / step)``
    is moved to the first ``i`` whose sample time ``i * step``, the same
    float product that ``np.arange(J) * step`` forms, is at or past the
    jump ``x``.  Only roundoff separates the two, so each loop below runs
    at most a step or two.
    """
    step = horizon / J
    bounds = [0]
    for x in plan.jumps:
        q = x / step  # may overflow to inf for a jump far past the horizon
        i = J if q >= J else math.ceil(q)
        while i > 0 and (i - 1) * step >= x:
            i -= 1
        while i < J and i * step < x:
            i += 1
        bounds.append(i)
    bounds.append(J)
    return bounds


def theta_g(params, plan: TreatmentPlan, J: int) -> float:
    """Iterated-regression functional on the equidistant ``J``-step grid.

    It is the end of the mean recursion ``y_k = g11 y_{k-1} + g12 w(t_{k-1})``
    from ``y_0 = E[Y0]``, where ``g = e^{-beta T/J}`` and the schedule is
    sampled at left endpoints, evaluated in closed form over the runs of
    equal sampled values: run ``r`` of value ``v_r`` covers the samples
    ``[s_r, e_r)`` and has ``m_r = e_r - s_r`` of them, so

    ``theta_g = g11^J E[Y0] + g12 * sum_r v_r g11^{J-e_r} (1 - g11^{m_r}) / (1 - g11)``.

    The cost is one term per schedule piece, whatever ``J``: the run bounds
    come from :func:`_sample_runs` in O(1) each, and no J-sized array is
    built.  ``g11 - 1`` comes straight from the ``e^{t m} - I`` core, so
    the rounding of ``g11`` itself, which the J-th power would turn into J
    ulps, never enters.  For ``g11 > 0`` the powers are ``exp(n log g11)``
    with ``log g11 = log1p(g11 - 1)``, and the geometric factor is
    ``expm1(m log g11) / (g11 - 1)`` (``m`` at ``g11 == 1``); for
    ``g11 <= 0`` both are direct powers, since ``1 - g11 >= 1`` leaves
    nothing to cancel.  The error stays at roundoff of the summed term
    magnitudes for every ``J``, near repeated eigenvalues of ``beta`` too,
    where a J-step recursion accumulates ``J`` roundings.  Raises
    ``OverflowError`` when the result exceeds the double range.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    _require_plan_covers(plan, params.horizon)
    (g11m1, g12), _ = _expm2m1_rows(params.beta.tolist(), -params.horizon / J)
    bounds = _sample_runs(plan, params.horizon, J)
    if g11m1 > -1.0:
        log_g = math.log1p(g11m1)

        def power(n: int) -> float:
            return math.exp(n * log_g)

        def geometric(m: int) -> float:
            return math.expm1(m * log_g) / g11m1 if g11m1 else float(m)

    else:
        g11 = 1.0 + g11m1

        def power(n: int) -> float:
            return g11**n

        def geometric(m: int) -> float:
            return (1.0 - g11**m) / -g11m1

    forced = 0.0
    for v, start, end in zip(plan.values, bounds, bounds[1:]):
        if end > start:
            forced += v * power(J - end) * geometric(end - start)
    y = power(J) * float(params.init_mean[0]) + g12 * forced
    if not math.isfinite(y):
        raise OverflowError(f"theta_g at J={J} exceeds the double range")
    return y


def identification_bias(params, plan: TreatmentPlan, J: int) -> float:
    """``theta_g - true_eta`` by direct subtraction; the bias table writes
    the same difference inline."""
    return theta_g(params, plan, J) - true_eta(params, plan)


def theta_naive_limit(params) -> float:
    """Dense-grid limit of the naive adjustment: the factual mean
    ``(e^{-beta T} init_mean)[0]`` of the outcome at the horizon."""
    (g11, g12), _ = _expm2_rows(params.beta.tolist(), -params.horizon)
    ey0, ew0 = params.init_mean.tolist()
    return g11 * ey0 + g12 * ew0


def theta_naive(params, plan: TreatmentPlan, J: int) -> tuple[float, float]:
    """Outcome-history-only adjustment at ``J`` steps and its dense limit.

    Returns ``(theta_J, theta_limit)`` where

    ``theta_J = g12(J) w(t_{J-1})
                + g11(J) [g11'(J) E[Y0] + g12'(J) E[W0]]``

    with ``g(J) = e^{-beta T/J}`` and ``g'(J) = e^{-beta T (J-1)/J}`` (the
    factual mean map up to the second-to-last grid point), and

    ``theta_limit = (e^{-beta T} init_mean)[0]``

    i.e. the factual outcome mean at the horizon, which in general differs
    from :func:`true_eta`.
    """
    if J < 2:
        raise ValueError("theta_naive needs J >= 2")
    _require_plan_covers(plan, params.horizon)
    ey0, ew0 = params.init_mean.tolist()
    rows = params.beta.tolist()
    (g11, g12), _ = _expm2_rows(rows, -params.horizon / J)
    (gp11, gp12), _ = _expm2_rows(rows, -params.horizon * (J - 1) / J)
    # t_{J-1} as Grid.times forms it, bit for bit.
    w_last = plan((J - 1) * (params.horizon / J))
    theta_j = g12 * w_last + g11 * (gp11 * ey0 + gp12 * ew0)
    return float(theta_j), theta_naive_limit(params)
