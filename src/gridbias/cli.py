"""Command-line experiment runner.

    gridbias COMMAND [--config FILE] [--out DIR]

The config file fixes the whole experiment, master seed included; without
``--config`` the built-in defaults do.  ``--out`` (default ``results``)
says only where the CSVs go.  The commands:

* ``bias-table``  -- closed-form estimands over the configured parameter
  sweep; pure analysis, no randomness.
* ``simulate``    -- one observational and one counterfactual trajectory
  panel for plotting.
* ``zeta``        -- the grid-halving sensitivity sweep, one row per
  (beta12, J, replicate) plus a per-cell median summary.

Exit codes: 0 success; 2 configuration error (a ``ConfigError``, or an
``OSError`` creating or writing the outputs); 3 numerical failure, which is
any ``ArithmeticError``: a value beyond the double range, a rank-deficient
fit or too many failed bootstrap replicates.  The run goes inside
``np.errstate(over="raise", invalid="raise")``, so a NumPy overflow or
invalid operation is one too.  Any other exception is a bug and ends in a
traceback (exit 1).

Every command runs in the calling process and thread.  Every ``zeta`` cell
derives its own seed from the master seed and the cell's position in the
sweep.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import statistics
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .estimands import theta_g, theta_naive_limit, true_eta
from .estimation import zeta
from .sde import (
    Grid,
    ModelParams,
    _seed_sequence,
    simulate_counterfactual,
    simulate_panel,
    write_panel_csv,
)

__all__ = ["main", "cmd_bias_table", "cmd_simulate", "cmd_zeta", "derive_seed"]

BIAS_TABLE_HEADER = (
    "beta11",
    "beta21",
    "beta12",
    "J",
    "theta_g",
    "eta",
    "delta",
    "theta_naive_limit",
)
ZETA_CELLS_HEADER = (
    "params_hash",
    "J",
    "beta12",
    "tau_hat",
    "ci_lower",
    "ci_upper",
    "tau_half",
    "zeta",
    "seed",
)
ZETA_SUMMARY_HEADER = ("beta12", "J", "replicates", "median_zeta")

ZETA_UNDEFINED = "undefined"


def derive_seed(master: int, *key: int) -> int:
    """Per-cell seed: the first uint64 of ``SeedSequence((master, *key))``."""
    return int(_seed_sequence(master, *key).generate_state(1, np.uint64)[0])


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x: float) -> str:
    return repr(float(x))


def _swept_params(base: ModelParams, b11: float, b21: float, b12: float) -> ModelParams:
    """``base`` with the swept drift entries; ``beta22`` stays."""
    return replace(base, beta=[[b11, b12], [b21, base.beta[1, 1]]])


def cmd_bias_table(cfg: ExperimentConfig, out_dir: Path) -> Path:
    """Closed-form estimand table over beta11 x beta21 x beta12 x J."""
    base = cfg.model.to_params()
    plan = cfg.plan_star.to_plan(base.horizon, "plan_star")
    bt = cfg.bias_table

    rows = []
    for b11, b21, b12 in itertools.product(bt.beta11, bt.beta21, bt.beta12):
        params = _swept_params(base, b11, b21, b12)
        drift = (_fmt(b11), _fmt(b21), _fmt(b12))
        for j in bt.j_values:
            tg, eta = theta_g(params, plan, j), true_eta(params, plan)
            naive = theta_naive_limit(params)
            rows.append((*drift, j, _fmt(tg), _fmt(eta), _fmt(tg - eta), _fmt(naive)))
    path = out_dir / "bias_table.csv"
    _write_csv(path, BIAS_TABLE_HEADER, rows)
    return path


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path) -> tuple[Path, Path]:
    """Observational and counterfactual panels on the same grid."""
    params = cfg.model.to_params()
    plan = cfg.plan_star.to_plan(params.horizon, "plan_star")
    grid = Grid(J=cfg.simulate.j, T=params.horizon)
    n_units = cfg.simulate.n_units
    obs = simulate_panel(params, grid, n_units, derive_seed(cfg.seed, 0))
    cf = simulate_counterfactual(params, plan, grid, n_units, derive_seed(cfg.seed, 1))
    obs_path = out_dir / "observational.csv"
    cf_path = out_dir / "counterfactual.csv"
    write_panel_csv(obs, obs_path)
    write_panel_csv(cf, cf_path)
    return obs_path, cf_path


def cmd_zeta(cfg: ExperimentConfig, out_dir: Path) -> tuple[Path, Path]:
    """Sensitivity sweep over (beta12, J) with seed replicates per cell."""
    z = cfg.zeta
    base = cfg.model.to_params()
    plan_star = cfg.plan_star.to_plan(base.horizon, "plan_star")
    plan_base = cfg.plan_base.to_plan(base.horizon, "plan_base")
    cells_hash = cfg.params_hash()
    rows = []
    summary_rows = []
    for ib, b12 in enumerate(z.beta12):
        params = _swept_params(base, base.beta[0, 0], base.beta[1, 0], b12)
        for ij, j in enumerate(z.j_values):
            grid = Grid(J=j, T=params.horizon)
            zetas = []
            for r in range(z.replicates):
                seed = derive_seed(cfg.seed, ib, ij, r)
                panel = simulate_panel(params, grid, z.n_units, seed)
                report = zeta(panel, plan_star, plan_base, z.n_boot, z.alpha, seed)
                rows.append(
                    (
                        cells_hash,
                        j,
                        _fmt(b12),
                        _fmt(report.tau_hat),
                        _fmt(report.ci_lower),
                        _fmt(report.ci_upper),
                        _fmt(report.tau_hat_half),
                        ZETA_UNDEFINED if report.zeta is None else _fmt(report.zeta),
                        seed,
                    )
                )
                if report.zeta is not None:
                    zetas.append(report.zeta)
            median = _fmt(statistics.median(zetas)) if zetas else ZETA_UNDEFINED
            summary_rows.append((_fmt(b12), j, len(zetas), median))

    cells_path = out_dir / "zeta_cells.csv"
    summary_path = out_dir / "zeta_summary.csv"
    _write_csv(cells_path, ZETA_CELLS_HEADER, rows)
    _write_csv(summary_path, ZETA_SUMMARY_HEADER, summary_rows)
    return cells_path, summary_path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridbias",
        description="Exact estimand tables, panel simulation and grid-halving "
        "sensitivity sweeps for the bivariate linear treatment-outcome process.",
    )
    parser.add_argument(
        "command",
        choices=("bias-table", "simulate", "zeta"),
        help="bias-table: closed-form estimand/bias table over the parameter sweep; "
        "simulate: observational and counterfactual trajectory panels; "
        "zeta: grid-halving sensitivity sweep with bootstrap intervals",
    )
    parser.add_argument(
        "--config", type=Path, help="YAML config file (default: the built-in defaults)"
    )
    parser.add_argument(
        "--out", type=Path, default=Path("results"), help="output directory (default: results)"
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise"):
            if args.config is None:
                cfg = ExperimentConfig()
                cfg.validate()
            else:
                cfg = load_config(args.config)
            args.out.mkdir(parents=True, exist_ok=True)
            # Each command is looked up by name at call time, so a wrapper
            # set on this module (a tracer, a test's monkeypatch) is called.
            if args.command == "bias-table":
                paths = [cmd_bias_table(cfg, args.out)]
            elif args.command == "simulate":
                paths = list(cmd_simulate(cfg, args.out))
            else:
                paths = list(cmd_zeta(cfg, args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # The output directory or a file in it cannot be created or written.
        print(f"config error: --out: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    for path in paths:
        print(path)
    return 0

