"""The four benchmark workloads: config generation from a seed, the call
counts each config implies for the traced run, and the output checker.

Configs never set ``threads``: every run stays on the CLI's default
single worker.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import checks

DEFAULT_MODEL = {
    "beta": [[0.2, -5.0], [-3.0, 0.5]],
    "sigma": [[1.0, 0.3], [0.3, 0.5]],
    "init_mean": [1.0, 0.0],
    "init_cov": [[0.25, 0.0], [0.0, 0.25]],
    "horizon": 1.0,
}
# tr(beta) = 0: every swept beta12 (all < -1/12) gives a purely imaginary
# eigenvalue pair, so the Kronecker-sum solve is singular and every
# transition_law call takes the 10 000-panel Simpson fallback.
OSCILLATOR_BETA = [[0.5, -5.0], [3.0, -0.5]]
DEFAULT_ZETA_BETA12 = [-10.0, -8.0, -6.0, -5.0, -4.0, -3.0]
ZETA_J = [8, 16, 24, 32, 40]
# Left-step knots off every dyadic grid.  Fixed, so that max_rel_err
# measures the same integrals in every run.
TABULATED_PLAN = {
    "kind": "tabulated",
    "times": [0.0, 0.137, 0.42, 0.81],
    "values": [1.0, 0.3, -0.5, 0.8],
}
BIAS_J = [2**k for k in range(1, 15)]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    make_config: Callable[[random.Random], dict]
    implied_counts: Callable[[dict], dict]
    check: Callable


def _master_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _zeta_config(beta, n_beta12, j_values):
    def make(rng):
        return {
            "model": {**DEFAULT_MODEL, "beta": beta},
            "zeta": {
                "beta12": sorted(rng.sample(DEFAULT_ZETA_BETA12, n_beta12)),
                "j_values": j_values,
                "n_units": 200,
                "n_boot": 500,
                "alpha": 0.05,
                "replicates": 1,
            },
            "seed": _master_seed(rng),
        }

    return make


def _zeta_counts(cfg):
    z = cfg["zeta"]
    cells = len(z["beta12"]) * len(z["j_values"]) * z["replicates"]
    return {
        "cli.main": 1,
        "config.load_config": 1,
        "estimation.zeta": cells,
        "estimation.bootstrap_ci": cells,
        "sde.transition_law": cells,
        "sde.simulate_panel": cells,
        "sde.subsample_panel": cells,
        "estimation.estimate_contrast": 2 * cells,
        "sde.unit_stream": cells * z["n_units"],
        "cli.derive_seed": cells,
    }


def _bias_config(rng):
    beta21 = sorted(rng.sample(range(-400, 401), 4))
    return {
        "model": DEFAULT_MODEL,
        "plan_star": TABULATED_PLAN,
        "bias_table": {
            "beta11": [0.2, 0.5, 1.0],
            "beta21": [b / 100 for b in beta21],
            "beta12": [-2.0, -1.0, 0.0, 1.0, 2.0],
            "j_values": BIAS_J,
        },
        "seed": _master_seed(rng),
    }


def _bias_counts(cfg):
    bt = cfg["bias_table"]
    cells = len(bt["beta11"]) * len(bt["beta21"]) * len(bt["beta12"]) * len(bt["j_values"])
    return {
        "cli.main": 1,
        "config.load_config": 1,
        "estimands.theta_g": cells,
        "estimands.true_eta": cells,
        "estimands.plan_integral": cells,
        "estimands.theta_naive_limit": cells,
        "sde.transition_law": 0,
    }


def _simulate_config(rng):
    return {
        "model": DEFAULT_MODEL,
        "plan_star": {"kind": "constant", "value": 1.0},
        "simulate": {"n_units": 600, "j": 200},
        "seed": _master_seed(rng),
    }


def _simulate_counts(cfg):
    sim = cfg["simulate"]
    return {
        "cli.main": 1,
        "config.load_config": 1,
        "sde.simulate_panel": 1,
        "sde.simulate_counterfactual": 1,
        "sde.transition_law": 1,
        "sde.write_panel_csv": 2,
        "sde.unit_stream": 2 * sim["n_units"],
        "estimands.plan_integral": sim["j"],
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "zeta-default", "zeta",
            "zeta on the default model, one seed-drawn beta12 x J 8..40, n=200, B=500: "
            "bootstrap_ci dominates; transition_law takes the Kronecker route",
            _zeta_config(DEFAULT_MODEL["beta"], 1, ZETA_J), _zeta_counts, checks.check_zeta,
        ),
        Workload(
            "zeta-oscillator", "zeta",
            "zeta with tr(beta)=0 at J 8 and 40: every transition_law takes the 10 000-panel "
            "Simpson fallback, so sde and linalg2 carry most of the run",
            _zeta_config(OSCILLATOR_BETA, 1, [8, 40]), _zeta_counts, checks.check_zeta,
        ),
        Workload(
            "bias-table-tabulated", "bias-table",
            "bias table, 840 cells up to J=16384, tabulated off-grid plan: theta_g recursion, "
            "plan_integral Simpson route, row formatting; no randomness, no sde",
            _bias_config, _bias_counts, checks.check_bias_table,
        ),
        Workload(
            "simulate-csv", "simulate",
            "600 units x J=200 exact panels written as two CSVs: the write side of sde and "
            "per-unit RNG streams",
            _simulate_config, _simulate_counts, checks.check_simulate,
        ),
    )
}


def make_config(workload: Workload, seed: int) -> dict:
    return workload.make_config(random.Random(f"{workload.name}:{seed}"))
