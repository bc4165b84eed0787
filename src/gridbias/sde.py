"""Exact sampling of the bivariate linear process on an equidistant grid.

The observable state ``X_t = (Y_t, W_t)`` solves
``dX = -beta X dt + sigma dB`` with a Gaussian initial law.  Over a step of
length ``delta`` the transition is Gaussian with mean map ``e^{-beta delta}``
(the closed-form 2x2 exponential) and covariance
``int_0^delta e^{-beta u} sigma sigma' e^{-beta' u} du`` (a Taylor sum
over a short step, doubled up to ``delta`` with the closed-form
exponential), so panels are sampled from the exact transition law: the
marginal distribution at every grid time is exact regardless of step size,
and any simulation bias is zero by construction.

The counterfactual outcome under a deterministic schedule ``w`` solves
``dY = -(b11 Y + b12 w_t) dt + s11 dB1 + s12 dB2`` and is sampled the same
way from its scalar transition law.

Randomness is reproducible: every unit draws from its own stream, that of
``SeedSequence((seed, 0, unit))``, where ``seed`` is the panel seed the
caller passes (the CLI derives one per panel or ``zeta`` cell from the
master seed) and ``unit`` the unit's row.  A unit's draws thus depend only
on the panel seed, its row and J, not on how many units are drawn or in
what order.  :func:`_seed_sequence` builds every ``SeedSequence`` of the
package, the bootstrap's ``(seed, 1)`` and the CLI's seed derivation too.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass

import numpy as np

from .estimands import TreatmentPlan, _require_plan_covers, plan_integral
from .linalg2 import _as_mat2, _expm2_rows, _float_array

__all__ = [
    "ModelParams",
    "Grid",
    "TrajectoryPanel",
    "TransitionLaw",
    "transition_law",
    "simulate_panel",
    "simulate_counterfactual",
    "subsample_panel",
    "write_panel_csv",
    "read_panel_csv",
]

# A covariance may be asymmetric, or have an eigenvalue below zero, by this
# much of its largest |entry|: roundoff, not a defect, at every scale.
COV_RTOL = 1e-12

# Taylor terms of the noise covariance over the scaled step: there the sum
# of ``|beta|``'s entries times the step is at most 1/16, so term ``k`` is
# at most ``8^-k/(k+1)!`` of the first, and the first term left out is
# below 2.5e-19 of it.
COV_TAYLOR_TERMS = 11

PANEL_CSV_HEADER = ("unit", "k", "t", "Y", "W")


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the bivariate linear process.

    ``beta`` is the 2x2 drift (per unit time), ``sigma`` the 2x2 diffusion
    (per sqrt unit time), the initial state is Gaussian with ``init_mean``
    and symmetric PSD ``init_cov``, and ``horizon`` is the study length.
    """

    beta: np.ndarray
    sigma: np.ndarray
    init_mean: np.ndarray
    init_cov: np.ndarray
    horizon: float

    def __post_init__(self):
        object.__setattr__(self, "beta", _frozen(_as_mat2(self.beta, "beta")))
        object.__setattr__(self, "sigma", _frozen(_as_mat2(self.sigma, "sigma")))
        mean = _float_array(self.init_mean, "init_mean", "2").reshape(-1)
        if mean.size != 2:
            raise ValueError(f"init_mean must have 2 entries, got {mean.size}")
        if not np.all(np.isfinite(mean)):
            raise ValueError("init_mean must be finite")
        object.__setattr__(self, "init_mean", _frozen(mean))
        object.__setattr__(self, "init_cov", _checked_cov(self.init_cov, "init_cov"))
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be a positive finite number")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _checked_cov(m, name: str) -> np.ndarray:
    """``m`` checked to be symmetric PSD to within ``COV_RTOL`` of its
    largest |entry|, so the check reads the same at every scale.  The smaller
    eigenvalue is a closed form over the lower triangle, the one ``eigvalsh``
    reads; each entry is halved before a sum, so no sum overflows."""
    cov = _as_mat2(m, name)
    (a, b), (c, d) = cov.tolist()
    tol = COV_RTOL * max(abs(a), abs(b), abs(c), abs(d))
    if abs(b - c) > tol:
        raise ValueError(f"{name} must be symmetric (within {COV_RTOL} of its largest entry)")
    if not (0.5 * a + 0.5 * d) - math.hypot(0.5 * a - 0.5 * d, c) >= -tol:
        raise ValueError(f"{name} must be positive semidefinite")
    return _frozen(cov)


@dataclass(frozen=True)
class Grid:
    """Equidistant measurement grid ``t_k = k T / J`` for ``k = 0..J``."""

    J: int
    T: float

    def __post_init__(self):
        if operator.index(self.J) < 1:
            raise ValueError("grid needs J >= 1")
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError("grid horizon must be positive and finite")

    @property
    def step(self) -> float:
        return self.T / self.J

    @property
    def times(self) -> np.ndarray:
        # linspace pins t_J to exactly T and makes every second point of a
        # 2J grid bit-identical to the J grid, which subsampling relies on.
        return np.linspace(0.0, self.T, self.J + 1)


@dataclass(frozen=True)
class TrajectoryPanel:
    """``n`` units observed on a grid; ``values[i, k]`` is ``(Y, W)``.

    The value array is frozen after construction; panels are safe to share.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 3 or v.shape[1:] != (self.grid.J + 1, 2):
            raise ValueError(f"values shape {v.shape} is not (n, {self.grid.J + 1}, 2)")
        if not np.all(np.isfinite(v)):
            raise ValueError("panel values must be finite")
        object.__setattr__(self, "values", _frozen(v))

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class TransitionLaw:
    """Gaussian one-step law: ``X_next = mean_map @ X + eps``,
    ``eps ~ N(0, noise_cov)``."""

    mean_map: np.ndarray
    noise_cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean_map", _frozen(_as_mat2(self.mean_map, "mean_map")))
        object.__setattr__(self, "noise_cov", _checked_cov(self.noise_cov, "noise_cov"))


def transition_law(params: ModelParams, delta: float) -> TransitionLaw:
    """Exact transition law of the observable process over a step ``delta``.

    The mean map is ``e^{-beta delta}``, and the noise covariance
    ``C = int_0^delta e^{-beta u} D e^{-beta' u} du`` (``D = sigma sigma'``)
    comes from :func:`_noise_cov`.  Both hold for every drift, singular or
    not, and raise ``OverflowError`` beyond the double range.
    """
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError("delta must be a positive finite number")
    rows = params.beta.tolist()
    (s11, s12), (s21, s22) = params.sigma.tolist()
    d = (s11 * s11 + s12 * s12, s11 * s21 + s12 * s22, s21 * s21 + s22 * s22)
    mean_map = np.array(_expm2_rows(rows, -delta))
    return TransitionLaw(mean_map=mean_map, noise_cov=np.array(_noise_cov(rows, d, delta)))


def _noise_cov(rows, d, delta: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """``C(delta) = int_0^delta e^{-beta u} D e^{-beta' u} du`` for the
    checked rows of ``beta`` and ``D = (d11, d12, d22)``, as rows of Python
    floats.

    The step is halved ``s`` times to ``h``, until the sum of ``|beta|``'s
    entries times ``h`` is at most 1/16.  There ``C(h)`` is the Taylor sum
    ``sum_k h^{k+1}/(k+1)! L^k(D)`` with ``L(X) = -(beta X + X beta')``,
    and ``C(2h) = C(h) + E C(h) E'`` with ``E = e^{-beta h}`` from
    :func:`gridbias.linalg2._expm2_rows` doubles it back to ``delta``.  Both
    terms of a doubling are PSD, so nothing cancels, and no factor
    ``e^{+beta u}`` appears: the result keeps its digits for stiff drifts
    too.  Raises ``OverflowError`` when it leaves the double range.
    """
    (p, q), (r, s) = rows
    _, e = math.frexp((abs(p) + abs(q) + abs(r) + abs(s)) * delta)
    squarings = max(0, e + 4)
    h = math.ldexp(delta, -squarings)
    t11, t12, t22 = (h * x for x in d)
    c11, c12, c22 = t11, t12, t22
    for k in range(2, COV_TAYLOR_TERMS + 1):
        f = -h / k
        t11, t12, t22 = (
            2.0 * f * (p * t11 + q * t12),
            f * (p * t12 + q * t22 + r * t11 + s * t12),
            2.0 * f * (r * t12 + s * t22),
        )
        c11, c12, c22 = c11 + t11, c12 + t12, c22 + t22
    for i in range(squarings):
        (e11, e12), (e21, e22) = _expm2_rows(rows, -math.ldexp(h, i))
        f11, f12 = e11 * c11 + e12 * c12, e11 * c12 + e12 * c22
        f21, f22 = e21 * c11 + e22 * c12, e21 * c12 + e22 * c22
        c11, c12, c22 = (
            c11 + (f11 * e11 + f12 * e12),
            c12 + (f11 * e21 + f12 * e22),
            c22 + (f21 * e21 + f22 * e22),
        )
    if not all(map(math.isfinite, (c11, c12, c22))):
        raise OverflowError("transition noise covariance exceeds the double range")
    return (c11, c12), (c12, c22)


def _psd_sqrt(cov: np.ndarray) -> np.ndarray:
    """Symmetric square root of a :func:`_checked_cov` covariance, clipped at 0."""
    eigvals, eigvecs = np.linalg.eigh(cov)
    return (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.T


def _seed_sequence(*key: int) -> np.random.SeedSequence:
    """``SeedSequence(key)`` from the key's 32-bit words, least significant
    first, ``0`` as one zero word: the entropy it builds from the tuple, at
    under half the cost.  A key of at most four words is mixed as if
    zero-padded to four, so ``(seed,)`` and ``(seed, 0, 0)`` are one stream:
    the entry after the seed names a key's role, and no two roles share it."""
    words = []
    for n in map(operator.index, key):
        if n < 0:
            raise ValueError("expected non-negative integer")
        words.append(n & 0xFFFFFFFF)
        while n := n >> 32:
            words.append(n & 0xFFFFFFFF)
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def unit_stream(seed: int, unit: int) -> np.random.Generator:
    """Independent per-unit stream keyed on ``(seed, 0, unit)``; ``0`` is its role."""
    return np.random.default_rng(_seed_sequence(seed, 0, unit))


def _unit_normals(seed: int, n: int, draws_per_unit: int) -> np.ndarray:
    """Standard normals of shape (n, draws_per_unit), one stream per unit."""
    z = np.empty((n, draws_per_unit))
    for i in range(n):
        unit_stream(seed, i).standard_normal(out=z[i])
    return z


def simulate_panel(params: ModelParams, grid: Grid, n: int, seed: int) -> TrajectoryPanel:
    """Sample ``n`` units of the observable process on ``grid``.

    Each unit's initial state is drawn from the initial Gaussian law and
    advanced through the exact one-step transition; marginal laws carry no
    discretization error.  Deterministic given (params, grid, n, seed).
    """
    if n < 1:
        raise ValueError("need at least one unit")
    law = transition_law(params, grid.step)
    init_sqrt = _psd_sqrt(params.init_cov)
    noise_sqrt = _psd_sqrt(law.noise_cov)
    z = _unit_normals(seed, n, 2 * (grid.J + 1)).reshape(n, grid.J + 1, 2)
    values = np.empty((n, grid.J + 1, 2))
    values[:, 0, :] = params.init_mean + z[:, 0, :] @ init_sqrt.T
    for k in range(grid.J):
        values[:, k + 1, :] = values[:, k, :] @ law.mean_map.T + z[:, k + 1, :] @ noise_sqrt.T
    return TrajectoryPanel(grid=grid, values=values)


def counterfactual_step_variance(params: ModelParams, delta: float) -> float:
    """Noise variance of the counterfactual outcome over one step:
    ``(s11^2 + s12^2)(1 - e^{-2 b11 delta}) / (2 b11)``, with the
    ``b11 = 0`` limit ``(s11^2 + s12^2) delta``.  The ``expm1`` form keeps
    full precision for every nonzero ``b11``.  Raises ``OverflowError``
    when the variance leaves the double range."""
    b11 = float(params.beta[0, 0])
    (s11, s12), _ = params.sigma.tolist()
    s2 = s11 * s11 + s12 * s12
    var = s2 * delta if b11 == 0.0 else s2 * -math.expm1(-2.0 * b11 * delta) / (2.0 * b11)
    if not math.isfinite(var):
        raise OverflowError("counterfactual step variance exceeds the double range")
    return var


def simulate_counterfactual(
    params: ModelParams,
    plan: TreatmentPlan,
    grid: Grid,
    n: int,
    seed: int,
) -> TrajectoryPanel:
    """Sample the counterfactual outcome under a deterministic schedule.

    Only the Y column is stochastic; the W column stores the schedule's
    values at the grid times.  Per step from ``t`` to ``t + delta``:

    ``Y' = e^{-b11 delta} Y - b12 * int_0^delta e^{-b11 (delta-u)} w(t+u) du + nu``

    with ``nu`` Gaussian (see :func:`counterfactual_step_variance`).  The
    schedule integral is evaluated through :func:`gridbias.estimands.plan_integral`.
    ``Y_0`` is drawn from the same marginal as the observable outcome.
    """
    if n < 1:
        raise ValueError("need at least one unit")
    _require_plan_covers(plan, grid.T)
    b11 = params.beta[0, 0]
    b12 = params.beta[0, 1]
    delta = grid.step
    times = grid.times
    decay = math.exp(-b11 * delta)
    noise_sd = math.sqrt(counterfactual_step_variance(params, delta))
    # Deterministic forcing per step, shared by every unit.
    forcing = np.array(
        [-b12 * plan_integral(plan, times[k], times[k + 1], b11) for k in range(grid.J)]
    )
    init_sd = math.sqrt(max(params.init_cov[0, 0], 0.0))
    z = _unit_normals(seed, n, grid.J + 1)
    values = np.empty((n, grid.J + 1, 2))
    values[:, :, 1] = plan.values_at(times)
    y = params.init_mean[0] + init_sd * z[:, 0]
    values[:, 0, 0] = y
    for k in range(grid.J):
        y = decay * y + forcing[k] + noise_sd * z[:, k + 1]
        values[:, k + 1, 0] = y
    return TrajectoryPanel(grid=grid, values=values)


def subsample_panel(panel: TrajectoryPanel, factor: int) -> TrajectoryPanel:
    """Keep every ``factor``-th grid point (endpoints included).

    Requires ``factor`` to divide the panel's J; the coarse grid's time
    stamps equal the fine grid's retained stamps exactly.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if panel.grid.J % factor != 0:
        raise ValueError(f"factor {factor} does not divide J={panel.grid.J}")
    coarse = Grid(J=panel.grid.J // factor, T=panel.grid.T)
    return TrajectoryPanel(grid=coarse, values=panel.values[:, ::factor, :])


def write_panel_csv(panel: TrajectoryPanel, path) -> None:
    """Long-format CSV with fixed header ``unit,k,t,Y,W``; floats are
    written as shortest round-trip decimals, in the text ``repr`` gives.

    Formatting floats is nearly all of the cost.  ``orjson`` writes the
    same shortest round-trip digits as ``repr`` over ten times faster,
    but only in ``repr``'s positional range: CPython switches ``repr`` to
    exponent notation below ``1e-4`` and from ``1e16`` up (``9.99e-05``,
    ``1e+16``), where ``orjson`` writes ``0.0000999`` and ``1e16``.  So a
    unit whose formatted values all lie in that range (see
    :func:`_repr_is_positional`) is formatted by ``orjson`` as one flat
    row, split on ``,`` into its fields, and any other unit by ``repr``
    value by value; the bytes are those of ``repr`` everywhere.

    Only the fields that vary between units are formatted per unit.  When
    every unit's W column has the same bits (a counterfactual panel's
    schedule; ``0.0`` and ``-0.0`` differ), the ``repr`` of each ``W_k``
    goes into the per-step pieces ``,k,t,%s,W_k\n`` once per panel and a
    unit's fields are its Y column; otherwise the pieces are
    ``,k,t,%s,%s\n`` and the fields are ``y0,w0,y1,w1,...``.  Each unit
    is one bytes ``%`` format of the pieces joined by its index.  The file
    is written through a binary handle, so rows end in ``\n`` on every
    platform and no text is encoded; the text held stays at one unit's
    rows, and choosing the routes takes at most one panel-sized array for
    a moment.  The format is the one :mod:`csv` writes for these fields
    (ints and float reprs are never quoted), and :func:`read_panel_csv`
    reads it back.
    """
    # Imported here: the other commands never write a panel.
    import orjson

    values = panel.values
    w_bits = values.view(np.uint64)[:, :, 1]
    # A panel of no units has no W column to share: its file is the header.
    if len(values) and np.all(w_bits == w_bits[0]):
        varying, w_text = values[:, :, :1], [repr(w) for w in values[0, :, 1].tolist()]
    else:
        varying, w_text = values, ["%s"] * (panel.grid.J + 1)
    # The leading b"" puts the unit index before the first step's piece;
    # each later piece ends a row, so the index opens the next one.
    pieces = [b""] + [
        f",{k},{t!r},%s,{w}\n".encode()
        for k, (t, w) in enumerate(zip(panel.grid.times.tolist(), w_text))
    ]
    with open(path, "wb") as fh:
        fh.write(",".join(PANEL_CSV_HEADER).encode() + b"\n")
        positional = _repr_is_positional(varying)
        for i, unit in enumerate(varying):
            # One C-ordered row, as orjson needs: a copy only where the fields
            # are not contiguous (a shared-W unit's Y column, a Fortran panel).
            row = unit.ravel()
            if positional[i]:
                fields = orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].split(b",")
            else:
                fields = [repr(x).encode() for x in row.tolist()]
            fh.write(str(i).encode().join(pieces) % tuple(fields))


def _repr_is_positional(values: np.ndarray) -> np.ndarray:
    """Per unit of ``values`` (n, J+1, c), the fields each unit formats:
    whether ``repr`` writes every one without an exponent, i.e. each is
    zero or ``1e-4 <= |x| < 1e16``."""
    mag = np.abs(values)
    return np.all((mag == 0.0) | (mag >= 1e-4) & (mag < 1e16), axis=(1, 2))


def read_panel_csv(path) -> TrajectoryPanel:
    """Rebuild a panel from :func:`write_panel_csv` output.

    The rows must form a complete grid: exactly one row per ``(unit, k)``
    for units ``0..n-1`` and steps ``0..J``, with ``t`` equal to the grid
    time ``Grid(J, T).times[k]``.  Anything else raises ``ValueError``.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        # A zero-byte file is empty like a header-only one.
        header = tuple(next(reader, PANEL_CSV_HEADER))
        if header != PANEL_CSV_HEADER:
            raise ValueError(f"unexpected panel CSV header: {header}")
        rows = [(int(u), int(k), float(t), float(y), float(w)) for u, k, t, y, w in reader]
    if not rows:
        raise ValueError("empty panel CSV")
    if min(min(r[0], r[1]) for r in rows) < 0:
        raise ValueError("panel CSV has a negative unit or step index")
    # Check the keys before sizing arrays from them: a stray index allocates nothing.
    keys = set()
    for u, k, *_ in rows:
        if (u, k) in keys:
            raise ValueError(f"panel CSV repeats the row of unit {u}, step {k}")
        keys.add((u, k))
    n = max(u for u, _ in keys) + 1
    J = max(k for _, k in keys)
    if len(keys) != n * (J + 1):
        # The first absent key comes within len(keys) + 1 candidates.
        u, k = next((u, k) for u in range(n) for k in range(J + 1) if (u, k) not in keys)
        raise ValueError(f"panel CSV is missing the row of unit {u}, step {k}")
    grid = Grid(J=J, T=max(r[2] for r in rows))
    times = grid.times
    values = np.empty((n, J + 1, 2))
    for u, k, t, y, w in rows:
        if t != times[k]:
            raise ValueError(
                f"panel CSV row of unit {u}, step {k} has t={t!r}, "
                f"grid time is {float(times[k])!r}"
            )
        values[u, k] = y, w
    return TrajectoryPanel(grid=grid, values=values)
