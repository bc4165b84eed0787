"""Experiment configuration: a YAML file of nested keys with validated
dataclass mirrors.

Validation is the one pass over the leaves: it checks each one and stores
it back typed, every real as a ``float`` and every count as an ``int``, so
``horizon: 1`` and ``horizon: 1.0`` load as the same config, with the same
``params_hash``.

Defaults reproduce the reference simulation study: drift
``((0.2, -5), (-3, 0.5))``, diffusion ``((1, 0.3), (0.3, 0.5))``, Gaussian
start ``N((1, 0), 0.25 I)``, horizon 1, schedules ``w* = 1`` vs ``w0 = 0``,
200 units, 500 bootstrap replicates, 95% intervals.
"""

from __future__ import annotations

import copy
import hashlib
import math
import re
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

import yaml

from .estimands import TreatmentPlan
from .sde import ModelParams

__all__ = [
    "ConfigError",
    "ModelConfig",
    "PlanConfig",
    "BiasTableConfig",
    "SimulateConfig",
    "ZetaConfig",
    "ExperimentConfig",
    "load_config",
]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@dataclass
class ModelConfig:
    beta: list = field(default_factory=lambda: [[0.2, -5.0], [-3.0, 0.5]])
    sigma: list = field(default_factory=lambda: [[1.0, 0.3], [0.3, 0.5]])
    init_mean: list = field(default_factory=lambda: [1.0, 0.0])
    init_cov: list = field(default_factory=lambda: [[0.25, 0.0], [0.0, 0.25]])
    horizon: float = 1.0

    def to_params(self) -> ModelParams:
        try:
            return ModelParams(self.beta, self.sigma, self.init_mean, self.init_cov, self.horizon)
        except ValueError as exc:
            raise ConfigError(f"model: {exc}") from exc


# The list fields each plan kind reads.  ``value`` has a default, so every
# kind may set it; a non-empty list that the kind ignores is an error.
_PLAN_LISTS = {
    "constant": (),
    "piecewise": ("breakpoints", "values"),
    "tabulated": ("times", "values"),
}


@dataclass
class PlanConfig:
    kind: str = "constant"
    value: float = 1.0
    breakpoints: list = field(default_factory=list)
    values: list = field(default_factory=list)
    times: list = field(default_factory=list)

    def to_plan(self, horizon: float, key: str) -> TreatmentPlan:
        """The schedule on ``[0, horizon]``; ``key`` (``plan_star`` or
        ``plan_base``) names this section in error messages."""
        try:
            if self.kind == "constant":
                return TreatmentPlan.constant(self.value, horizon=horizon)
            if self.kind == "piecewise":
                return TreatmentPlan.piecewise(self.breakpoints, self.values, horizon=horizon)
            if self.kind == "tabulated":
                return TreatmentPlan.tabulated(self.times, self.values, horizon=horizon)
        except ValueError as exc:
            raise ConfigError(f"{key} ({self.kind}): {exc}") from exc
        raise ConfigError(f"{key}.kind: unknown kind {self.kind!r}")


@dataclass
class BiasTableConfig:
    beta11: list = field(default_factory=lambda: [0.2, 0.5, 1.0])
    beta21: list = field(default_factory=lambda: [-3.0, 0.0, 3.0])
    beta12: list = field(default_factory=lambda: [-2.0, -1.0, 0.0, 1.0, 2.0])
    j_values: list = field(default_factory=lambda: [2**k for k in range(1, 15)])


@dataclass
class SimulateConfig:
    n_units: int = 5
    j: int = 100


@dataclass
class ZetaConfig:
    beta12: list = field(default_factory=lambda: [-10.0, -8.0, -6.0, -5.0, -4.0, -3.0])
    j_values: list = field(default_factory=lambda: [8, 16, 24, 32, 40])
    n_units: int = 200
    n_boot: int = 500
    alpha: float = 0.05
    replicates: int = 20


@dataclass
class ExperimentConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    plan_star: PlanConfig = field(default_factory=PlanConfig)
    plan_base: PlanConfig = field(default_factory=lambda: PlanConfig(value=0.0))
    bias_table: BiasTableConfig = field(default_factory=BiasTableConfig)
    simulate: SimulateConfig = field(default_factory=SimulateConfig)
    zeta: ZetaConfig = field(default_factory=ZetaConfig)
    seed: int = 20260809

    def validate(self) -> None:
        """Check every field and store it back typed: each real as a
        ``float`` (in lists and matrices too) and each count as an ``int``,
        so ``horizon: 1`` and ``horizon: 1.0`` give the same config."""
        m = self.model
        for key in ("beta", "sigma", "init_cov"):
            setattr(m, key, _matrix(getattr(m, key), f"model.{key}"))
        m.init_mean = _reals(m.init_mean, "model.init_mean")
        m.horizon = _real(m.horizon, "model.horizon")
        for name in ("plan_star", "plan_base"):
            plan = getattr(self, name)
            plan.value = _real(plan.value, f"{name}.value")
            for key in ("breakpoints", "values", "times"):
                setattr(plan, key, _reals(getattr(plan, key), f"{name}.{key}"))
        m.to_params()
        for name in ("plan_star", "plan_base"):
            plan = getattr(self, name)
            plan.to_plan(m.horizon, name)
            # ``values`` last: a kind-specific key is the one to name.
            for key in ("breakpoints", "times", "values"):
                _require(
                    not getattr(plan, key) or key in _PLAN_LISTS[plan.kind],
                    f"{name}.{key}: not read by kind {plan.kind!r}",
                )
        _require(_count(self.seed, "seed") >= 0, "seed: must be non-negative")
        bt = self.bias_table
        for key in ("beta11", "beta21", "beta12"):
            setattr(bt, key, _sweep(getattr(bt, key), f"bias_table.{key}", _real))
        bt.j_values = _sweep(bt.j_values, "bias_table.j_values", _count)
        for i, j in enumerate(bt.j_values):
            _require(j >= 1, f"bias_table.j_values[{i}]: J must be an integer >= 1")
        sim = self.simulate
        _require(_count(sim.n_units, "simulate.n_units") >= 1, "simulate.n_units: must be >= 1")
        _require(_count(sim.j, "simulate.j") >= 1, "simulate.j: must be >= 1")
        z = self.zeta
        z.beta12 = _sweep(z.beta12, "zeta.beta12", _real)
        z.j_values = _sweep(z.j_values, "zeta.j_values", _count)
        # The summary has one row per (beta12, J) value pair.
        _require_distinct(z.beta12, "zeta.beta12")
        _require_distinct(z.j_values, "zeta.j_values")
        for i, j in enumerate(z.j_values):
            _require(
                j >= 2 and j % 2 == 0,
                f"zeta.j_values[{i}]: grid halving needs an even J >= 2, got {j}",
            )
        for key in ("n_units", "n_boot", "replicates"):
            _count(getattr(z, key), f"zeta.{key}")
        _require(z.n_units >= 1, "zeta.n_units: must be >= 1")
        _require(z.n_boot >= 2, "zeta.n_boot: must be >= 2")
        z.alpha = _real(z.alpha, "zeta.alpha")
        _require(0.0 < z.alpha < 1.0, "zeta.alpha: must be in (0, 1)")
        _require(z.replicates >= 1, "zeta.replicates: must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        cfg = cls()
        known = {f.name for f in fields(cls)}
        for key, value in copy.deepcopy(raw or {}).items():
            if key not in known:
                raise ConfigError(f"{key}: unknown top-level key")
            default = getattr(cfg, key)
            if is_dataclass(default):
                if not isinstance(value, dict):
                    raise ConfigError(f"{key}: expected a mapping of keys")
                extra = set(value) - {f.name for f in fields(default)}
                if extra:
                    raise ConfigError(f"{key}.{sorted(extra, key=str)[0]}: unknown key")
                value = replace(default, **value)
            setattr(cfg, key, value)
        return cfg

    def params_hash(self) -> str:
        """Stable short digest of the whole config, which fixes every
        experiment cell's law (used to key CSV rows across runs).  Taken
        after :meth:`validate`, it is the same for ``horizon: 1`` and
        ``horizon: 1.0``."""
        return hashlib.sha256(repr(sorted(self.to_dict().items())).encode()).hexdigest()[:12]


def _is_int(value) -> bool:
    # bool is a subclass of int, but ``seed: true`` is a typo, not a seed.
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the double range
        return False


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


# One checker per kind of leaf; each returns the leaf typed.
def _count(value, key: str) -> int:
    _require(_is_int(value), f"{key}: must be an integer, got {value!r}")
    return value


def _real(value, key: str) -> float:
    _require(_is_real(value), f"{key}: must be a finite number, got {value!r}")
    return float(value)


def _reals(values, key: str) -> list:
    _require(isinstance(values, list), f"{key}: must be a list of numbers, got {values!r}")
    return [_real(v, f"{key}[{i}]") for i, v in enumerate(values)]


def _matrix(rows, key: str) -> list:
    _require(isinstance(rows, list), f"{key}: must be a list of rows, got {rows!r}")
    return [_reals(row, f"{key}[{i}]") for i, row in enumerate(rows)]


def _sweep(values, key: str, leaf) -> list:
    """The non-empty list ``values``, each entry checked by ``leaf``."""
    _require(isinstance(values, list) and values, f"{key}: sweep must be a non-empty list")
    return [leaf(v, f"{key}[{i}]") for i, v in enumerate(values)]


def _require_distinct(values, key: str) -> None:
    # Compared by value: -5 repeats -5.0, and 0.0 repeats -0.0.
    for i, v in enumerate(values):
        _require(v not in values[:i], f"{key}[{i}]: repeats {v!r}")


class _LOADER(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, reading an exponent float such as ``5e-2``, ``1E5``
    or JSON's ``1e-05`` as a float, as YAML 1.2 and JSON do; the YAML 1.1
    resolver of PyYAML wants a dot and a signed exponent.  A quoted
    ``"5e-2"`` stays a string."""


_LOADER.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def load_config(path) -> ExperimentConfig:
    """Parse and validate a YAML config file.

    The file is parsed by ``yaml.CSafeLoader`` (libyaml), or by
    ``yaml.SafeLoader`` when PyYAML was built without libyaml; both accept
    the same safe YAML and give the same values.  Either reads exponent
    floats the YAML 1.2 way (:class:`_LOADER`).
    """
    try:
        # Read as bytes, so that the YAML reader reports an undecodable byte.
        with open(path, "rb") as fh:
            raw = yaml.load(fh, Loader=_LOADER)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    cfg.validate()
    return cfg
