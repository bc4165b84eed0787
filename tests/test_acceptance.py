"""Acceptance criteria, one test per criterion.

Each test prints a single summary line (visible with ``pytest -s`` or in
failure output); tolerances and runtime bounds are asserted inline.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from gridbias import (
    Grid,
    ModelParams,
    TreatmentPlan,
    bootstrap_ci,
    estimate_contrast,
    identification_bias,
    matexp,
    simulate_counterfactual,
    simulate_panel,
    theta_g,
    theta_naive,
    true_eta,
    zeta,
)
from gridbias.cli import derive_seed, main
from tests.conftest import make_params
from tests.oracles import eigen2, expm_series as matexp_oracle, identification_bias_expanded

PLAN_ONE = TreatmentPlan.constant(1.0, horizon=1.0)
PLAN_ZERO = TreatmentPlan.constant(0.0, horizon=1.0)

# 3x3 sweep used wherever a (beta11, beta21) grid is called for; the other
# constants (T=1, beta22=0.5, E[Y0]=1, schedule identically 1) are fixed.
BETA11_GRID = (0.2, 0.5, 1.0)
BETA21_GRID = (-3.0, 0.0, 3.0)


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {text}")


def test_criterion_1_sharp_null_exactness():
    start = time.perf_counter()
    worst = 0.0
    for b11 in BETA11_GRID:
        for b21 in BETA21_GRID:
            params = make_params(beta12=0.0, beta11=b11, beta21=b21)
            for J in range(1, 201):
                worst = max(worst, abs(identification_bias(params, PLAN_ONE, J)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 1.0
    report(1, f"max |bias| = {worst:.3e} over 9 cells x J=1..200 in {elapsed:.2f}s")


def test_criterion_2_asymptotic_unbiasedness():
    start = time.perf_counter()
    ladder = [4 * 2**k for k in range(13)]  # 4 .. 16384
    summary = []
    for b12 in (-2.0, -1.0, 1.0, 2.0):
        params = make_params(beta12=b12)
        deltas = {J: identification_bias(params, PLAN_ONE, J) for J in ladder}
        for J in ladder[2:-1]:  # decreasing from J = 16 on
            assert abs(deltas[2 * J]) < abs(deltas[J])
        assert abs(deltas[16384]) < 1e-3 * max(1.0, abs(deltas[4]))
        assert abs(deltas[16384]) < 5e-3
        summary.append(f"b12={b12:+.0f}: |d4|={abs(deltas[4]):.3g} |d16384|={abs(deltas[16384]):.2e}")
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, "; ".join(summary) + f" in {elapsed:.2f}s")


def test_criterion_3_naive_non_convergence(ref_params):
    theta_j, theta_limit = theta_naive(ref_params, PLAN_ONE, 10)
    factual = (matexp(ref_params.beta, -1.0) @ ref_params.init_mean)[0]
    assert abs(theta_limit - factual) < 1e-12
    gap = abs(theta_limit - true_eta(ref_params, PLAN_ONE))
    assert gap > 10 * 5e-3
    report(3, f"naive limit = {theta_limit:.6f} = factual mean, |limit - eta| = {gap:.3f}")


def test_criterion_4_bias_form_identity():
    rng = np.random.default_rng(410)
    worst = 0.0
    kinds = {"distinct-real": 0, "repeated": 0, "complex-conjugate": 0}
    for i in range(200):
        if i % 10 == 7:
            a, b = rng.uniform(-5, 5, size=2)
            beta = np.array([[a, b], [0.0, a]])
        else:
            beta = rng.uniform(-5, 5, size=(2, 2))
        kinds[eigen2(beta)[0]] += 1
        J = int(rng.integers(1, 65))
        ey0, ew0 = rng.uniform(-2, 2, size=2)
        params = ModelParams(
            beta=beta, sigma=np.eye(2), init_mean=[ey0, ew0],
            init_cov=0.25 * np.eye(2), horizon=1.0,
        )
        c = float(rng.uniform(-2, 2))
        if i % 3:
            plan = TreatmentPlan.constant(c, horizon=1.0)
        else:
            plan = TreatmentPlan.piecewise([0.3, 0.7], [c, -c, 0.5 * c], horizon=1.0)
        diff = abs(
            identification_bias(params, plan, J)
            - identification_bias_expanded(params, plan, J)
        )
        worst = max(worst, diff)
    assert worst < 1e-10
    assert kinds["repeated"] >= 10 and kinds["complex-conjugate"] >= 10
    report(4, f"max |direct - expanded| = {worst:.3e} over 200 configs ({kinds})")


def test_criterion_5_simulation_exactness(ref_params):
    start = time.perf_counter()
    n = 100_000
    panel = simulate_panel(ref_params, Grid(J=10, T=1.0), n, seed=20260501)
    terminal = panel.values[:, -1, :]
    truth = matexp(ref_params.beta, -1.0) @ ref_params.init_mean
    se = terminal.std(axis=0, ddof=1) / math.sqrt(n)
    obs_dev = np.abs(terminal.mean(axis=0) - truth) / se
    assert np.all(obs_dev < 4.0)

    cf = simulate_counterfactual(ref_params, PLAN_ONE, Grid(J=10, T=1.0), n, seed=20260502)
    y = cf.values[:, -1, 0]
    eta = true_eta(ref_params, PLAN_ONE)
    cf_dev = abs(y.mean() - eta) / (y.std(ddof=1) / math.sqrt(n))
    assert cf_dev < 4.0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        5,
        f"obs mean dev = ({obs_dev[0]:.2f}, {obs_dev[1]:.2f}) SE, "
        f"counterfactual dev = {cf_dev:.2f} SE in {elapsed:.1f}s",
    )


def test_criterion_6_estimator_consistency(ref_params):
    # 4 x bootstrap-SE tolerance; 200 replicates pin the SE to ~5%, which
    # is immaterial against the 4-SE bound.
    target = theta_g(ref_params, PLAN_ONE, 10) - theta_g(ref_params, PLAN_ZERO, 10)
    passes = 0
    devs = []
    for s in range(20):
        seed = derive_seed(20260603, s)
        panel = simulate_panel(ref_params, Grid(J=10, T=1.0), 10_000, seed)
        tau = estimate_contrast(panel, PLAN_ONE, PLAN_ZERO)
        lo, hi = bootstrap_ci(panel, PLAN_ONE, PLAN_ZERO, 200, 0.05, seed)
        se = (hi - lo) / (2 * 1.959963984540054)
        devs.append(abs(tau - target) / se)
        passes += abs(tau - target) <= 4 * se
    assert passes >= 18
    report(6, f"{passes}/20 seeds within 4 bootstrap SE of {target:.4f} (max dev {max(devs):.2f} SE)")


def test_criterion_7_zeta_increases_with_grid_density():
    start = time.perf_counter()
    params = make_params(beta12=-10.0)
    medians = {}
    for ij, J in enumerate((8, 40)):
        vals = []
        for r in range(20):
            seed = derive_seed(20260707, ij, r)
            panel = simulate_panel(params, Grid(J=J, T=1.0), 200, seed)
            rep = zeta(panel, PLAN_ONE, PLAN_ZERO, 500, 0.05, seed)
            assert rep.zeta is not None
            vals.append(rep.zeta)
        medians[J] = float(np.median(vals))
    elapsed = time.perf_counter() - start
    assert medians[40] > medians[8]
    assert elapsed < 600.0
    report(
        7,
        f"median zeta: J=8 -> {medians[8]:.3f}, J=40 -> {medians[40]:.3f} in {elapsed:.0f}s",
    )


def test_criterion_8_matrix_exponential_correctness():
    rng = np.random.default_rng(20240809)
    worst = 0.0
    for _ in range(1000):
        m = rng.uniform(-5, 5, size=(2, 2))
        t = rng.uniform(-2, 2)
        a = matexp(m, t)
        b = matexp_oracle(m, t)
        # result entries reach ~1e6 on this box, so the 1e-10 agreement is
        # element-wise relative to max(1, |entry|)
        worst = max(worst, float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b)))))
    assert worst < 1e-10

    def spread(m):
        _, l1, l2 = eigen2(m)
        return abs(l1 - l2)

    def radius(m):
        _, l1, l2 = eigen2(m)
        return max(abs(l1), abs(l2))

    semi_worst = det_worst = 0.0
    checked = 0
    rng = np.random.default_rng(20240810)
    while checked < 500:
        m = rng.uniform(-5, 5, size=(2, 2))
        t1, t2 = rng.uniform(-2, 2, size=2)
        # identities are checked where float64 can resolve them: the
        # cancellation error grows like exp(spread * |t|)
        if spread(m) * max(abs(t1), abs(t2), abs(t1 + t2)) > 12 or radius(m) * abs(t1) > 6:
            continue
        checked += 1
        whole = matexp(m, t1 + t2)
        parts = matexp(m, t1) @ matexp(m, t2)
        semi_worst = max(
            semi_worst, float(np.max(np.abs(parts - whole) / np.maximum(1.0, np.abs(whole))))
        )
        det = np.linalg.det(matexp(m, t1))
        ref = math.exp(t1 * np.trace(m))
        det_worst = max(det_worst, abs(det - ref) / ref)
    assert semi_worst < 1e-9
    assert det_worst < 1e-9
    report(
        8,
        f"oracle agreement {worst:.2e} (1000 draws); semigroup {semi_worst:.2e}, "
        f"determinant {det_worst:.2e} (500 draws)",
    )


def test_criterion_9_cli_byte_determinism(tmp_path, capsys):
    config = {
        "bias_table": {
            "beta11": [0.2, 0.5],
            "beta21": [-3.0],
            "beta12": [-2.0, 0.0],
            "j_values": [2, 16, 128],
        },
        "simulate": {"n_units": 4, "j": 12},
        "zeta": {
            "beta12": [-10.0, -5.0],
            "j_values": [4, 8],
            "n_units": 50,
            "n_boot": 40,
            "alpha": 0.05,
            "replicates": 2,
        },
        "seed": 424242,
    }
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(config))
    outputs = {
        "bias-table": ["bias_table.csv"],
        "simulate": ["observational.csv", "counterfactual.csv"],
        "zeta": ["zeta_cells.csv", "zeta_summary.csv"],
    }
    baseline: dict[str, bytes] = {}
    for run in range(4):
        out = tmp_path / f"run_{run}"
        for command, files in outputs.items():
            code = main([command, "--config", str(cfg_path), "--out", str(out)])
            assert code == 0
            for name in files:
                data = Path(out / name).read_bytes()
                if name in baseline:
                    assert data == baseline[name], f"{name} differs in run {run}"
                else:
                    baseline[name] = data
    capsys.readouterr()
    report(9, "all three commands byte-identical across 4 runs")
