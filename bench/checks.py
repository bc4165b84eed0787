"""Output checkers for the benchmark workloads.

Each checker takes the workload's config (the dict written as the CLI's
``--config``) and the CLI's output directory, and returns
``(errors, max_rel_err)``: a list of human-readable failures (empty when the
outputs are correct) and the largest relative error of the checked numeric
columns against the benchmark's own reference, floored at
``REL_ERR_FLOOR``.

References are independent of the package under test: the exact
piecewise-constant closed form for ``eta`` and the mean recursion driven by
``scipy.linalg.expm`` for ``theta_g``.  Comparisons use tolerances, never
byte identity, so a change that moves the last digits of a result passes.
"""

from __future__ import annotations

import csv
import math
import re
import statistics
from pathlib import Path

import numpy as np
import scipy.linalg

# Relative errors below this are roundoff: theta_g at J=16384 reads ~3e-13
# against its reference.  Reporting the floor instead of the roundoff keeps
# the metric steady once every route is exact.
REL_ERR_FLOOR = 1e-10

# theta_g runs the same recursion as its reference; only roundoff separates
# them (about J ulps of the summed term magnitudes).
THETA_G_RTOL = 1e-9
# eta: tabulated plans are integrated by 10 000-panel Simpson quadrature,
# which is off by up to ~1e-4 relative; a larger error is a defect.
ETA_RTOL = 1e-3
NAIVE_RTOL = 1e-10
# Re-derived columns (zeta ratio, summary median, grid times) are computed
# from the same floats; allow for a different evaluation order only.
RECOMPUTE_RTOL = 1e-12
# Sample mean of Y at the horizon against its exact expectation.
MEAN_Z_LIMIT = 5.0

BIAS_TABLE_HEADER = ["beta11", "beta21", "beta12", "J", "theta_g", "eta", "delta", "theta_naive_limit"]
ZETA_CELLS_HEADER = [
    "params_hash", "J", "beta12", "tau_hat", "ci_lower", "ci_upper", "tau_half", "zeta", "seed",
]
ZETA_SUMMARY_HEADER = ["beta12", "J", "replicates", "median_zeta"]
PANEL_HEADER = "unit,k,t,Y,W"


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def _rel(x: float, ref: float, scale: float | None = None) -> float:
    denom = abs(ref) if scale is None else scale
    if x == ref:
        return 0.0
    return abs(x - ref) / denom if denom > 0.0 else math.inf


def _floored(err: float) -> float:
    return max(err, REL_ERR_FLOOR)


# --------------------------------------------------------------------------
# exact references


def plan_pieces(plan: dict, horizon: float) -> list[tuple[float, float, float]]:
    """``(lo, hi, value)`` pieces of a constant or tabulated (left-step) plan."""
    if plan.get("kind", "constant") == "constant":
        return [(0.0, horizon, float(plan.get("value", 1.0)))]
    if plan["kind"] != "tabulated":
        raise ValueError(f"unsupported plan kind {plan['kind']!r}")
    edges = [float(t) for t in plan["times"]] + [horizon]
    return [(lo, hi, float(v)) for lo, hi, v in zip(edges, edges[1:], plan["values"]) if hi > lo]


def plan_values_at(plan: dict, ts: np.ndarray) -> np.ndarray:
    if plan.get("kind", "constant") == "constant":
        return np.full(ts.shape, float(plan.get("value", 1.0)))
    times = np.asarray(plan["times"], dtype=float)
    return np.asarray(plan["values"], dtype=float)[np.searchsorted(times, ts, side="right") - 1]


def exact_eta(b11: float, b12: float, ey0: float, plan: dict, horizon: float) -> float:
    """``e^{-b11 T} E[Y0] - b12 int_0^T w(s) e^{b11 (s-T)} ds`` for a
    piecewise-constant schedule, integrated exactly piece by piece."""
    integral = 0.0
    for lo, hi, value in plan_pieces(plan, horizon):
        if b11 == 0.0:
            weight = hi - lo
        else:
            weight = math.exp(b11 * (lo - horizon)) * math.expm1(b11 * (hi - lo)) / b11
        integral += value * weight
    return math.exp(-b11 * horizon) * ey0 - b12 * integral


def theta_g_reference(beta: np.ndarray, plan: dict, J: int, ey0: float, horizon: float) -> tuple[float, float]:
    """Mean recursion ``y_k = g11 y_{k-1} + g12 w(t_{k-1})`` with
    ``g = expm(-beta T / J)``, summed in closed form
    ``g11^J E[Y0] + g12 sum_i w(t_i) g11^{J-1-i}``.  Returns
    ``(theta_g, scale)`` with ``scale`` the sum of term magnitudes, the
    natural yardstick for the recursion's roundoff."""
    g = scipy.linalg.expm(-beta * (horizon / J))
    g11, g12 = float(g[0, 0]), float(g[0, 1])
    w = plan_values_at(plan, np.arange(J) * (horizon / J))
    powers = g11 ** np.arange(J - 1, -1, -1)
    head = g11**J * ey0
    value = head + g12 * float(np.sum(w * powers))
    scale = abs(head) + abs(g12) * float(np.sum(np.abs(w * powers)))
    return value, scale


def factual_mean(beta: np.ndarray, init_mean: np.ndarray, horizon: float) -> float:
    """``E[Y_T] = (e^{-beta T} E[X_0])[0]``."""
    return float((scipy.linalg.expm(-beta * horizon) @ init_mean)[0])


def derive_seed(master: int, *key: int) -> int:
    """Per-cell seed as documented for the ``zeta`` command."""
    return int(np.random.SeedSequence((master, *key)).generate_state(1, np.uint64)[0])


def sensitivity_ratio(tau: float, tau_half: float, lower: float, upper: float) -> float | None:
    """The documented case rule: 0 when the CI covers 0, ``None`` when the
    grid-halving shift is exactly 0, else the CI endpoint nearest 0 over the
    shift."""
    if lower <= 0.0 <= upper:
        return 0.0
    shift = abs(tau - tau_half)
    if shift == 0.0:
        return None
    return min(abs(lower), abs(upper)) / shift


# --------------------------------------------------------------------------
# checkers


def check_bias_table(cfg: dict, out: Path) -> tuple[list[str], float]:
    model, bt, plan = cfg["model"], cfg["bias_table"], cfg["plan_star"]
    horizon = float(model["horizon"])
    init_mean = np.asarray(model["init_mean"], dtype=float)
    b22 = float(model["beta"][1][1])
    cells = [
        (float(b11), float(b21), float(b12), int(j))
        for b11 in bt["beta11"]
        for b21 in bt["beta21"]
        for b12 in bt["beta12"]
        for j in bt["j_values"]
    ]
    header, rows = _read_csv(out / "bias_table.csv")
    errors = []
    if header != BIAS_TABLE_HEADER:
        errors.append(f"bias_table.csv: header {header}")
    if len(rows) != len(cells):
        return errors + [f"bias_table.csv: {len(rows)} rows, sweep has {len(cells)} cells"], math.inf
    worst = 0.0
    eta_refs = {}
    for i, (row, (b11, b21, b12, j)) in enumerate(zip(rows, cells)):
        where = f"bias_table.csv row {i + 1}"
        try:
            key = (float(row[0]), float(row[1]), float(row[2]), int(row[3]))
            tg, eta, delta, naive = (float(x) for x in row[4:8])
        except (ValueError, IndexError):
            errors.append(f"{where}: unparsable {row}")
            continue
        if key != (b11, b21, b12, j):
            errors.append(f"{where}: cell {key}, expected {(b11, b21, b12, j)}")
            continue
        if delta != tg - eta:
            errors.append(f"{where}: delta {delta!r} != theta_g - eta {tg - eta!r}")
        if (b11, b12) not in eta_refs:
            eta_refs[b11, b12] = exact_eta(b11, b12, float(init_mean[0]), plan, horizon)
        eta_err = _rel(eta, eta_refs[b11, b12])
        if eta_err > ETA_RTOL:
            errors.append(f"{where}: eta {eta!r} vs exact {eta_refs[b11, b12]!r}")
        beta = np.array([[b11, b12], [b21, b22]])
        tg_ref, tg_scale = theta_g_reference(beta, plan, j, float(init_mean[0]), horizon)
        tg_err = _rel(tg, tg_ref, tg_scale)
        if tg_err > THETA_G_RTOL:
            errors.append(f"{where}: theta_g {tg!r} vs expm reference {tg_ref!r}")
        g = scipy.linalg.expm(-beta * horizon)
        naive_ref = float(g[0] @ init_mean)
        if _rel(naive, naive_ref, float(np.abs(g[0]) @ np.abs(init_mean))) > NAIVE_RTOL:
            errors.append(f"{where}: theta_naive_limit {naive!r} vs {naive_ref!r}")
        worst = max(worst, eta_err, tg_err)
    return errors, _floored(worst)


def check_zeta(cfg: dict, out: Path) -> tuple[list[str], float]:
    z = cfg["zeta"]
    master = int(cfg["seed"])
    cells = [
        (ib, float(b12), ij, int(j), r)
        for ib, b12 in enumerate(z["beta12"])
        for ij, j in enumerate(z["j_values"])
        for r in range(int(z["replicates"]))
    ]
    header, rows = _read_csv(out / "zeta_cells.csv")
    errors = []
    if header != ZETA_CELLS_HEADER:
        errors.append(f"zeta_cells.csv: header {header}")
    if len(rows) != len(cells):
        return errors + [f"zeta_cells.csv: {len(rows)} rows, sweep has {len(cells)} cells"], math.inf
    if len({row[0] for row in rows}) != 1 or not re.fullmatch(r"[0-9a-f]{12}", rows[0][0]):
        errors.append("zeta_cells.csv: params_hash is not one 12-digit hex digest")
    worst = 0.0
    defined: dict[tuple[float, int], list[float]] = {}
    for i, (row, (ib, b12, ij, j, r)) in enumerate(zip(rows, cells)):
        where = f"zeta_cells.csv row {i + 1}"
        try:
            key = (int(row[1]), float(row[2]))
            tau, lower, upper, tau_half = (float(x) for x in row[3:7])
            seed = int(row[8])
        except (ValueError, IndexError):
            errors.append(f"{where}: unparsable {row}")
            continue
        if key != (j, b12):
            errors.append(f"{where}: cell {key}, expected {(j, b12)}")
            continue
        if not all(map(math.isfinite, (tau, lower, upper, tau_half))) or lower > upper:
            errors.append(f"{where}: bad estimate or interval {row[3:7]}")
            continue
        if seed != derive_seed(master, ib, ij, r):
            errors.append(f"{where}: seed {seed} != derive_seed(seed, {ib}, {ij}, {r})")
        expected = sensitivity_ratio(tau, tau_half, lower, upper)
        if expected is None:
            if row[7] != "undefined":
                errors.append(f"{where}: zeta {row[7]!r}, expected 'undefined'")
            continue
        try:
            got = float(row[7])
        except ValueError:
            errors.append(f"{where}: zeta {row[7]!r}, expected {expected!r}")
            continue
        err = _rel(got, expected)
        if err > RECOMPUTE_RTOL:
            errors.append(f"{where}: zeta {got!r}, recomputed {expected!r}")
        worst = max(worst, err)
        defined.setdefault((b12, j), []).append(got)

    header, summary = _read_csv(out / "zeta_summary.csv")
    if header != ZETA_SUMMARY_HEADER:
        errors.append(f"zeta_summary.csv: header {header}")
    keys = [(float(b12), int(j)) for b12 in z["beta12"] for j in z["j_values"]]
    if len(summary) != len(keys):
        return errors + [f"zeta_summary.csv: {len(summary)} rows, expected {len(keys)}"], math.inf
    for i, (row, key) in enumerate(zip(summary, keys)):
        where = f"zeta_summary.csv row {i + 1}"
        vals = defined.get(key, [])
        try:
            ok = (float(row[0]), int(row[1])) == key and int(row[2]) == len(vals)
        except (ValueError, IndexError):
            ok = False
        if not ok:
            errors.append(f"{where}: {row[:3]} does not match the cell rows for {key}")
            continue
        if not vals:
            if row[3] != "undefined":
                errors.append(f"{where}: median {row[3]!r} with no defined cells")
            continue
        expected = statistics.median(vals)
        try:
            err = _rel(float(row[3]), expected)
        except ValueError:
            err = math.inf
        if err > RECOMPUTE_RTOL:
            errors.append(f"{where}: median {row[3]!r}, cell rows give {expected!r}")
        worst = max(worst, err)
    return errors, _floored(worst)


def _check_panel(path: Path, n: int, J: int, horizon: float, mean_ref: float,
                 w_ref: np.ndarray | None) -> tuple[list[str], float]:
    name = path.name
    with open(path) as fh:
        header = fh.readline().strip()
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            return [f"{name}: unparsable ({exc})"], math.inf
    errors = []
    if header != PANEL_HEADER:
        errors.append(f"{name}: header {header!r}")
    rows = n * (J + 1)
    if data.shape != (rows, 5):
        return errors + [f"{name}: {data.shape[0]} rows of {data.shape[1]}, expected {rows} of 5"], math.inf
    unit, k, t, y, w = data.T
    if not (np.array_equal(unit, np.repeat(np.arange(n), J + 1))
            and np.array_equal(k, np.tile(np.arange(J + 1), n))):
        errors.append(f"{name}: (unit, k) columns are not the full grid in order")
    grid = np.tile(np.linspace(0.0, horizon, J + 1), n)
    t_err = float(np.max(np.abs(t - grid))) / horizon
    if t_err > RECOMPUTE_RTOL:
        i = int(np.argmax(np.abs(t - grid)))
        errors.append(f"{name}: row {i + 1} has t={float(t[i])!r}, grid time is {float(grid[i])!r}")
    worst = t_err
    if w_ref is not None:
        w_err = float(np.max(np.abs(w - np.tile(w_ref, n)))) / max(1.0, float(np.max(np.abs(w_ref))))
        if w_err > RECOMPUTE_RTOL:
            errors.append(f"{name}: W column differs from the schedule")
        worst = max(worst, w_err)
    if not np.all(np.isfinite(y)):
        return errors + [f"{name}: non-finite Y"], math.inf
    y_final = y[J :: J + 1]
    se = float(np.std(y_final, ddof=1)) / math.sqrt(n) if n > 1 else math.inf
    z = abs(float(np.mean(y_final)) - mean_ref) / se
    if not z <= MEAN_Z_LIMIT:
        errors.append(f"{name}: mean Y at k=J is {z:.2f} standard errors from {mean_ref!r}")
    return errors, worst


def check_simulate(cfg: dict, out: Path) -> tuple[list[str], float]:
    model, sim, plan = cfg["model"], cfg["simulate"], cfg["plan_star"]
    horizon = float(model["horizon"])
    beta = np.asarray(model["beta"], dtype=float)
    init_mean = np.asarray(model["init_mean"], dtype=float)
    n, J = int(sim["n_units"]), int(sim["j"])
    eta = exact_eta(float(beta[0, 0]), float(beta[0, 1]), float(init_mean[0]), plan, horizon)
    w_grid = plan_values_at(plan, np.linspace(0.0, horizon, J + 1))
    obs_errors, obs_err = _check_panel(
        out / "observational.csv", n, J, horizon, factual_mean(beta, init_mean, horizon), None
    )
    cf_errors, cf_err = _check_panel(out / "counterfactual.csv", n, J, horizon, eta, w_grid)
    return obs_errors + cf_errors, _floored(max(obs_err, cf_err))
