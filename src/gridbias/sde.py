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

Randomness is reproducible: every unit draws from its own stream, the one
``default_rng(SeedSequence((seed, 0, unit)))`` gives, where ``seed`` is the
panel seed the caller passes (the CLI derives one per panel or ``zeta`` cell
from the master seed) and ``unit`` the unit's row.  A unit's draws thus
depend only on the panel seed, its row and J, not on how many units are
drawn or in what order.  The stream is ``PCG64`` seeded with the four
64-bit words ``SeedSequence`` generates for the key.  No ``SeedSequence``
is built per unit: :func:`_unit_seed_block` runs ``SeedSequence``'s hash
on ``UNIT_SEED_BLOCK`` units at once in NumPy's uint32 arithmetic, and the
generator's ``bit_generator.seed_seq`` holds the unit's words, not a
``SeedSequence`` (nothing spawns from a unit stream).  A block takes about
as long as six units' own ``SeedSequence`` and ``PCG64`` (see
:func:`unit_stream`), so a panel of fewer than about 8 units is slower
than that would be, and every larger one is faster.

A simulated panel is built in one buffer: :func:`simulate_panel` draws
each unit's normals into the unit's row and runs the recursion over them
in place, and :class:`TrajectoryPanel` keeps a frozen copy of it.

:func:`_seed_sequence` builds every ``SeedSequence`` of the package: the
bootstrap's ``(seed, 1)`` and the CLI's seed derivation.  This module
names ``numpy.random`` inside functions only, so importing the package
does not load it.
"""

from __future__ import annotations

import csv
import functools
import io
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

# Units whose seed words are hashed together: a power of two that divides
# 2**32, so a block never straddles a unit-word boundary.
UNIT_SEED_BLOCK = 256
# Blocks kept: a panel walks its units in order, so few are needed.
UNIT_SEED_CACHE = 4

# SeedSequence's hash constants (numpy.random.bit_generator), whose pool
# holds four 32-bit words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


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
    """``n >= 1`` units observed on a grid; ``values[i, k]`` is ``(Y, W)``.

    The panel keeps its own C-ordered float64 copy of ``values``, frozen,
    so panels are safe to share: no write by the caller, through the array
    it passed or any view of it, reaches the panel, and an estimate depends
    only on the values, not on the layout they were passed in.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = _frozen(np.array(self.values, dtype=np.float64, order="C"))
        if v.ndim != 3 or v.shape[1:] != (self.grid.J + 1, 2):
            raise ValueError(f"values shape {v.shape} is not (n, {self.grid.J + 1}, 2)")
        if len(v) == 0:
            raise ValueError("panel needs at least one unit")
        if not np.all(np.isfinite(v)):
            raise ValueError("panel values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return len(self.values)


def transition_law(params: ModelParams, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact transition law of the observable process over a step ``delta``:
    ``X_next = mean_map @ X + eps`` with ``eps ~ N(0, noise_cov)``, returned
    as the two 2x2 float arrays ``(mean_map, noise_cov)``.

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
    return np.array(_expm2_rows(rows, -delta)), np.array(_noise_cov(rows, d, delta))


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
    """Symmetric square root of a symmetric PSD matrix, eigenvalues clipped at 0."""
    eigvals, eigvecs = np.linalg.eigh(cov)
    return (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.T


def _key_words(key) -> list[int]:
    """The 32-bit words ``SeedSequence`` makes of a key's entries, least
    significant first, ``0`` as one zero word."""
    words = []
    for n in map(operator.index, key):
        if n < 0:
            raise ValueError("expected non-negative integer")
        words.append(n & 0xFFFFFFFF)
        while n := n >> 32:
            words.append(n & 0xFFFFFFFF)
    return words


def _seed_sequence(*key: int) -> np.random.SeedSequence:
    """``SeedSequence(key)`` from the key's 32-bit words (see
    :func:`_key_words`): the entropy it builds from the tuple, at about half
    the cost (4.1 against 7.3 us; :func:`gridbias.cli.derive_seed` takes
    28% less, 9.0 against 12.5 us).  A key of at most four words is mixed
    as if zero-padded to four, so ``(seed,)`` and ``(seed, 0, 0)`` are one
    stream: the entry after the seed names a key's role, and no two roles
    share it."""
    return np.random.SeedSequence(np.array(_key_words(key), dtype=np.uint32))


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of uint32 ``values``, one call per row of
    the result: the hash constant before call ``j`` is ``consts[j]`` (a
    column) and after it ``consts[j + 1]``."""
    v = (values ^ consts[:-1]) * consts[1:]
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of two uint32 arrays."""
    v = x * _MIX_MULT_L - y * _MIX_MULT_R
    return v ^ (v >> 16)


@functools.cache
def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The read-only column ``init * mult**j mod 2**32``, ``j < n``, as uint32."""
    consts = [init]
    for _ in range(n - 1):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return _frozen(np.array(consts, dtype=np.uint32)[:, None])


@functools.lru_cache(maxsize=UNIT_SEED_CACHE)
def _unit_seed_block(seed: int, block: int) -> np.ndarray:
    """Read-only C-ordered ``(UNIT_SEED_BLOCK, 4)`` uint64 array whose row
    ``i`` holds ``SeedSequence((seed, 0, unit)).generate_state(4, np.uint64)``
    for ``unit = block * UNIT_SEED_BLOCK + i``.

    SeedSequence's 32-bit hash over a pool of four words, run on every unit
    of the block at once: the block is aligned and divides ``2**32``, so its
    units' keys differ only in their lowest unit word, an array here.
    """
    first = block * UNIT_SEED_BLOCK
    head = _key_words((seed, 0))
    words = head + _key_words((first,))
    entropy = np.zeros((max(len(words), 4), UNIT_SEED_BLOCK), dtype=np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(head)] += np.arange(UNIT_SEED_BLOCK, dtype=np.uint32)
    # hashmix's constant advances once per call: 4 to fill the pool, 12 to
    # mix it, 4 per entropy word past the fourth.
    consts = _hash_consts(_INIT_A, _MULT_A, 17 + 4 * max(len(words) - 4, 0))
    pool = _hashmix(entropy[:4], consts[:5])
    k = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k : k + 4]))
        k += 3
    for src in range(4, len(words)):
        pool = _mix(pool, _hashmix(entropy[src], consts[k : k + 5]))
        k += 4
    # generate_state: eight 32-bit words, cycling through the pool, paired
    # little-endian into four 64-bit ones.
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_consts(_INIT_B, _MULT_B, 9))
    out = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)
    return _frozen(out)


@functools.cache
def _generator_from_words():
    """``words -> Generator(PCG64(...))`` for a unit's four seed words.

    Built on first use, so ``numpy.random`` loads when a stream is drawn,
    not when the package is imported."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class UnitSeedWords(ISeedSequence):
        """A unit's seed words, handed to ``PCG64`` as its seed sequence."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):
                raise ValueError("a unit stream holds exactly four uint64 seed words")
            return self.words

    return lambda words: Generator(PCG64(UnitSeedWords(words)))


def unit_stream(seed: int, unit: int) -> np.random.Generator:
    """Independent per-unit stream keyed on ``(seed, 0, unit)``; ``0`` is its role.

    The stream is ``PCG64`` seeded with the four words
    ``SeedSequence((seed, 0, unit)).generate_state(4, np.uint64)`` gives,
    as ``default_rng(SeedSequence((seed, 0, unit)))`` seeds it, so the
    draws are the same.  The words are the unit's row of
    :func:`_unit_seed_block`, which hashes ``UNIT_SEED_BLOCK`` units at once
    and keeps the last ``UNIT_SEED_CACHE`` blocks.  The generator's
    ``bit_generator.seed_seq`` holds those words, not a ``SeedSequence``: a
    unit stream spawns nothing.

    A block costs about 170 us and each unit's generator about 4 us more,
    against about 27 us per unit for its own ``SeedSequence`` and
    ``PCG64`` (``timeit`` medians, 2-core Xeon, numpy 2.4.6): a 200-unit
    panel takes about 5 us a unit, and a panel of fewer than about 8 units
    is slower than with its own streams.
    """
    # Python ints as cache keys; a negative entry fails in _key_words.
    seed, unit = operator.index(seed), operator.index(unit)
    words = _unit_seed_block(seed, unit // UNIT_SEED_BLOCK)[unit % UNIT_SEED_BLOCK]
    return _generator_from_words()(words)


def _unit_normals(seed: int, out: np.ndarray) -> None:
    """Fill the C-contiguous ``(n, draws)`` array ``out`` with standard
    normals, row ``i`` from unit ``i``'s stream."""
    for i, row in enumerate(out):
        unit_stream(seed, i).standard_normal(out=row)


def simulate_panel(params: ModelParams, grid: Grid, n: int, seed: int) -> TrajectoryPanel:
    """Sample ``n`` units of the observable process on ``grid``.

    Each unit's initial state is drawn from the initial Gaussian law and
    advanced through the exact one-step transition; marginal laws carry no
    discretization error.  Deterministic given (params, grid, n, seed).

    The normals are drawn into one ``(n, J + 1, 2)`` buffer, unit ``i``'s
    ``2 (J + 1)`` of them into its row, and the recursion overwrites each
    step's pair with its state in place.
    """
    if n < 1:
        raise ValueError("need at least one unit")
    mean_map, noise_cov = transition_law(params, grid.step)
    init_sqrt = _psd_sqrt(params.init_cov)
    noise_sqrt = _psd_sqrt(noise_cov)
    values = np.empty((n, grid.J + 1, 2))
    _unit_normals(seed, values.reshape(n, -1))
    with np.errstate(over="ignore", invalid="ignore"):
        z = values[:, 0, :]
        z[:] = params.init_mean + z @ init_sqrt.T
        for k in range(grid.J):
            z = values[:, k + 1, :]
            z[:] = values[:, k, :] @ mean_map.T + z @ noise_sqrt.T
    return _simulated_panel(grid, values)


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
    # Python floats: a forcing beyond the double range is an inf, not a warning.
    b11, b12 = params.beta.tolist()[0]
    delta = grid.step
    times = grid.times
    decay = math.exp(-b11 * delta)
    noise_sd = math.sqrt(counterfactual_step_variance(params, delta))
    # Deterministic forcing per step, shared by every unit.
    forcing = np.array(
        [-b12 * plan_integral(plan, times[k], times[k + 1], b11) for k in range(grid.J)]
    )
    init_sd = math.sqrt(max(params.init_cov[0, 0], 0.0))
    z = np.empty((n, grid.J + 1))
    _unit_normals(seed, z)
    values = np.empty((n, grid.J + 1, 2))
    values[:, :, 1] = plan.values_at(times)
    with np.errstate(over="ignore", invalid="ignore"):
        y = params.init_mean[0] + init_sd * z[:, 0]
        values[:, 0, 0] = y
        for k in range(grid.J):
            y = decay * y + forcing[k] + noise_sd * z[:, k + 1]
            values[:, k + 1, 0] = y
    return _simulated_panel(grid, values)


def _simulated_panel(grid: Grid, values: np.ndarray) -> TrajectoryPanel:
    """The panel of a simulator's ``values`` buffer; ``OverflowError`` when
    its recursion left the double range (an inf, or a NaN made from one).
    The buffer has the panel's shape by construction and at least one unit
    by the simulators' own ``n < 1`` checks, so the panel's finiteness
    check is the only one that can fail."""
    try:
        return TrajectoryPanel(grid=grid, values=values)
    except ValueError:
        raise OverflowError("simulated panel exceeds the double range") from None


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
    if np.all(w_bits == w_bits[0]):
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
            # are not contiguous (a shared-W unit's Y column).
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
    time ``Grid(J, T).times[k]``.  Anything else raises ``ValueError``; a
    row that is malformed, or cut by a file that does not end in a newline,
    names its line.
    """
    with open(path, newline="") as fh:
        text = fh.read()
    # The writer ends every row with a newline: a file that does not was cut.
    if text and not text.endswith("\n"):
        line = text.count("\n") + 1
        raise ValueError(f"panel CSV line {line}: file ends inside this row")
    reader = csv.reader(io.StringIO(text))
    # A zero-byte file is empty like a header-only one.
    header = tuple(next(reader, PANEL_CSV_HEADER))
    if header != PANEL_CSV_HEADER:
        raise ValueError(f"unexpected panel CSV header: {header}")
    rows = []
    for fields in reader:
        if len(fields) != 5:
            raise ValueError(
                f"panel CSV line {reader.line_num}: expected 5 fields, got {len(fields)}"
            )
        u, k, t, y, w = fields
        try:
            rows.append((int(u), int(k), float(t), float(y), float(w)))
        except ValueError as exc:
            raise ValueError(f"panel CSV line {reader.line_num}: {exc}") from None
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
