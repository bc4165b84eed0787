import copy
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, strategies as st

import gridbias
from gridbias import (
    Grid,
    TreatmentPlan,
    simulate_panel,
    theta_g,
    theta_naive_limit,
    true_eta,
    zeta,
)
from gridbias import config
from gridbias.cli import derive_seed, main
from gridbias.config import ConfigError, ExperimentConfig, load_config

SMALL_CONFIG = {
    "bias_table": {
        "beta11": [0.2, 0.5],
        "beta21": [-3.0],
        "beta12": [0.0, -2.0],
        "j_values": [2, 8, 32],
    },
    "simulate": {"n_units": 3, "j": 10},
    "zeta": {
        "beta12": [-10.0, -5.0],
        "j_values": [4, 8],
        "n_units": 40,
        "n_boot": 30,
        "alpha": 0.05,
        "replicates": 2,
    },
    "seed": 99,
    "threads": 1,
}

# sha256 of each CSV the three commands write for SMALL_CONFIG.  A change
# that moves an output byte on purpose updates the digest and says so.
SMALL_CONFIG_DIGESTS = {
    "bias_table.csv": "ab60febb35b0a2b98bca04d3981067b0f2d0184d55278db38a9437a59c157403",
    "counterfactual.csv": "dfab07f7a3ac763a5a1da8355b9857ccdb87d190e18ed2e794d72cdc0d68d887",
    "observational.csv": "b369eec81dbe43ffb403c7792fdb8cdc90a4997abd050ae6a6f7bef35d3620b9",
    "zeta_cells.csv": "c1cd9724142d350d93fb6002992080fef77a58d4bccbf88cb089d5810f0225fe",
    "zeta_summary.csv": "0c797c7dcc5a1b4d4e8f58de31c44a1683d5af32a797f464cd63ee7a0be68024",
}

# A bias table of a tabulated plan whose knots fall off every grid (0.137,
# 0.42, 0.81), on every even grid (0.5) and at the horizon, over J values up
# to 16384 and drifts with b12 = 0; its bytes are pinned the same way.
TABULATED_CONFIG = {
    "plan_star": {
        "kind": "tabulated",
        "times": [0.0, 0.137, 0.42, 0.5, 0.81, 1.0],
        "values": [1.0, 0.3, -0.5, 2.0, 0.8, -1.5],
    },
    "bias_table": {
        "beta11": [0.2, -0.3, 1.0],
        "beta21": [-3.0, 0.0],
        "beta12": [-2.0, 0.0, 1.5],
        "j_values": [1, 2, 3, 7, 10, 64, 100, 1000, 4096, 16384],
    },
}
TABULATED_BIAS_TABLE_DIGEST = "f3b7e5e699158a3d29581590a722a447b6afe1af0f13bd88007666dae9a93b67"

# SMALL_CONFIG with a model section and plans whose list fields are not
# empty, so that every typed field below has an entry to corrupt.
TYPED_CONFIG = {
    **SMALL_CONFIG,
    "model": ExperimentConfig().to_dict()["model"],
    "plan_star": {"kind": "piecewise", "value": 1.0, "breakpoints": [0.5], "values": [1.0, 0.0]},
    "plan_base": {"kind": "tabulated", "value": 0.0, "times": [0.0, 0.5], "values": [0.0, 1.0]},
}

# Every count (int) and real (finite int or float, not bool) field of the
# config; a field that is a list in TYPED_CONFIG is a sweep, vector or
# matrix of entries.
TYPED_FIELDS = [
    ("simulate", "n_units", "count"),
    ("simulate", "j", "count"),
    ("zeta", "n_units", "count"),
    ("zeta", "n_boot", "count"),
    ("zeta", "replicates", "count"),
    ("bias_table", "j_values", "count"),
    ("zeta", "j_values", "count"),
    ("bias_table", "beta11", "real"),
    ("bias_table", "beta21", "real"),
    ("bias_table", "beta12", "real"),
    ("zeta", "beta12", "real"),
    ("zeta", "alpha", "real"),
    ("model", "beta", "real"),
    ("model", "sigma", "real"),
    ("model", "init_mean", "real"),
    ("model", "init_cov", "real"),
    ("model", "horizon", "real"),
    ("plan_star", "value", "real"),
    ("plan_star", "breakpoints", "real"),
    ("plan_star", "values", "real"),
    ("plan_base", "value", "real"),
    ("plan_base", "times", "real"),
    ("plan_base", "values", "real"),
]


@pytest.fixture
def small_config(tmp_path) -> Path:
    path = tmp_path / "small.yaml"
    path.write_text(yaml.safe_dump(SMALL_CONFIG))
    return path


def int_spelled(value):
    """``value`` with every integral float in it written as an int."""
    if isinstance(value, list):
        return [int_spelled(v) for v in value]
    return int(value) if value.is_integer() else value


def flat_leaves(value) -> list:
    if isinstance(value, list):
        return [leaf for v in value for leaf in flat_leaves(v)]
    return [value]


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfig:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    def test_round_trip_identity(self, tmp_path):
        cfg = ExperimentConfig()
        cfg.seed = 31415
        cfg.zeta.j_values = [4, 12]
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg.to_dict(), sort_keys=True))
        again = load_config(path)
        assert again == cfg
        (tmp_path / "cfg2.yaml").write_text(yaml.safe_dump(again.to_dict(), sort_keys=True))
        assert (tmp_path / "cfg.yaml").read_bytes() == (tmp_path / "cfg2.yaml").read_bytes()

    def test_repo_default_config_parses(self):
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "default.yaml")
        cfg.validate()

    @pytest.mark.parametrize("source", ["default.yaml", "small", "json"])
    def test_values_match_the_pure_python_loader(self, tmp_path, source):
        # load_config parses with libyaml where PyYAML has it; every value,
        # type included, must be what PyYAML's own SafeLoader gives.  The
        # "json" config is written the way bench/run.py writes its configs.
        if source == "default.yaml":
            path = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
        else:
            path = tmp_path / "cfg.yaml"
            text = yaml.safe_dump(SMALL_CONFIG) if source == "small" else json.dumps(TYPED_CONFIG, indent=1)
            path.write_text(text)
        want = ExperimentConfig.from_dict(yaml.load(path.read_text(), Loader=yaml.SafeLoader))
        assert repr(load_config(path)) == repr(want)

    def test_parses_with_libyaml_where_pyyaml_has_it(self):
        want = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert config._LOADER is want

    def test_params_hash_of_float_config_is_unchanged(self):
        # The digest keys zeta_cells.csv rows across runs; configs that
        # already write floats as floats keep the digest they always had.
        assert ExperimentConfig().params_hash() == "ba0c733a28ea"
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "default.yaml")
        assert cfg.params_hash() == "ba0c733a28ea"

    def test_params_hash_ignores_int_vs_float_spelling(self):
        # validate stores each real as a float, so a validated config hashes
        # alike however its reals were spelled.
        floats = ExperimentConfig()
        ints = ExperimentConfig()
        ints.model.horizon = 1
        ints.model.init_mean = [1, 0]
        ints.model.sigma = [[1, 0.3], [0.3, 0.5]]
        ints.plan_star.value = 1
        ints.plan_base.value = 0
        ints.bias_table.beta21 = [-3, 0, 3]
        ints.zeta.beta12 = [-10, -8, -6, -5, -4, -3]
        ints.validate()
        assert ints.params_hash() == floats.params_hash()
        ints.model.horizon = 2
        ints.validate()
        assert ints.params_hash() != floats.params_hash()

    def test_int_spelled_reals_load_as_floats(self, tmp_path):
        # TYPED_CONFIG with every integral real written as an int: it loads
        # as the same config, with each real a float and each count an int.
        ints = copy.deepcopy(TYPED_CONFIG)
        spelled = 0
        for section, key, kind in TYPED_FIELDS:
            if kind == "real":
                ints[section][key] = int_spelled(ints[section][key])
                spelled += repr(ints[section][key]) != repr(TYPED_CONFIG[section][key])
        assert spelled >= 10
        configs = []
        for name, raw in (("floats", TYPED_CONFIG), ("ints", ints)):
            path = tmp_path / f"{name}.yaml"
            path.write_text(yaml.safe_dump(raw))
            configs.append(load_config(path))
        floats, typed = configs
        assert typed == floats
        assert repr(typed) == repr(floats)
        assert typed.params_hash() == floats.params_hash()
        for section, key, kind in TYPED_FIELDS:
            for leaf in flat_leaves(getattr(getattr(typed, section), key)):
                assert type(leaf) is (float if kind == "real" else int), (section, key, leaf)

    def test_unknown_key_is_an_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("modell:\n  horizon: 1.0\n")
        with pytest.raises(ConfigError, match="modell"):
            load_config(path)

    def test_unknown_nested_key_is_an_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("zeta:\n  n_bots: 10\n")
        with pytest.raises(ConfigError, match="zeta.n_bots"):
            load_config(path)

    def test_odd_zeta_grid_rejected_with_key_path(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("zeta:\n  j_values: [4, 7]\n")
        with pytest.raises(ConfigError, match=r"zeta.j_values\[1\]"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("model: [unclosed\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(path)


class TestCliExitCodes:
    def test_success(self, small_config, tmp_path, capsys):
        code = main(["bias-table", "--config", str(small_config), "--out", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out.endswith("bias_table.csv")

    def test_config_error_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("zeta:\n  alpha: 2.0\n")
        code = main(["zeta", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_config_naming_a_directory_is_exit_2(self, tmp_path, capsys):
        code = main(["bias-table", "--config", str(tmp_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error: cannot read config file" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("loader", sorted({yaml.SafeLoader, config._LOADER}, key=repr))
    def test_undecodable_config_is_exit_2(self, loader, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(config, "_LOADER", loader)
        bad = tmp_path / "bad.yaml"
        bad.write_bytes(b"seed: 5\nout_dir: \"\xff\xfe\"\n")
        code = main(["bias-table", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error: invalid YAML" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["seed", "threads"])
    @pytest.mark.parametrize("value", ["abc", 2.5, True])
    def test_non_integer_seed_or_threads_is_exit_2(self, key, value, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({key: value}))
        code = main(["bias-table", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{key}: must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, values, message",
        [
            ("beta12", [-5.0, -5.0], "zeta.beta12[1]: repeats -5.0"),
            ("beta12", [-5, -4.0, -5.0], "zeta.beta12[2]: repeats -5.0"),
            ("beta12", [0.0, -0.0], "zeta.beta12[1]: repeats -0.0"),
            ("j_values", [8, 4, 8], "zeta.j_values[2]: repeats 8"),
        ],
    )
    def test_repeated_zeta_sweep_value_is_exit_2(self, key, values, message, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({"zeta": {key: values}}))
        code = main(["zeta", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, section, key, value",
        [
            ("simulate", "simulate", "n_units", 2.5),
            ("simulate", "simulate", "j", 3.5),
            ("bias-table", "bias_table", "j_values", [True]),
            ("simulate", "simulate", "n_units", "abc"),
            ("zeta", "zeta", "alpha", "0.05"),
            ("zeta", "zeta", "n_boot", 2.5),
            ("bias-table", "bias_table", "beta11", ["x"]),
            ("bias-table", "model", "beta", [[True, -5.0], [-3.0, 0.5]]),
            ("bias-table", "plan_star", "value", True),
            ("bias-table", "model", "horizon", "1"),
            ("bias-table", None, "out_dir", 5),
            ("bias-table", None, "out_dir", None),
            ("bias-table", None, "out_dir", ["a"]),
            ("bias-table", None, "out_dir", ""),
        ],
    )
    def test_wrongly_typed_field_is_exit_2(
        self, command, section, key, value, tmp_path, capsys, monkeypatch
    ):
        raw = {key: value} if section is None else {section: {key: value}}
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(raw))
        monkeypatch.chdir(tmp_path)
        # ``--out`` would override a malformed top-level ``out_dir``.
        out = [] if section is None else ["--out", "o"]
        code = main([command, "--config", str(bad), *out])
        assert code == 2
        name = key if section is None else f"{section}.{key}"
        assert f"config error: {name}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.yaml"]

    def test_out_naming_a_file_is_exit_2(self, small_config, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        code = main(["bias-table", "--config", str(small_config), "--out", str(taken)])
        assert code == 2
        assert "config error: out_dir: " in capsys.readouterr().err
        assert taken.read_text() == "not a directory\n"

    @pytest.mark.parametrize(
        "command, name", [("simulate", "observational.csv"), ("bias-table", "bias_table.csv")]
    )
    def test_output_file_naming_a_directory_is_exit_2(
        self, command, name, small_config, tmp_path, capsys
    ):
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        code = main([command, "--config", str(small_config), "--out", str(out)])
        assert code == 2
        assert "config error: out_dir: " in capsys.readouterr().err
        assert (out / name).is_dir()

    def test_valid_typed_config_runs(self, tmp_path):
        cfg_path = tmp_path / "typed.yaml"
        cfg_path.write_text(yaml.safe_dump(TYPED_CONFIG))
        assert main(["bias-table", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0

    @given(data=st.data())
    def test_any_wrongly_typed_count_or_real_is_exit_2(self, data):
        section, key, kind = data.draw(st.sampled_from(TYPED_FIELDS))
        wrong = st.one_of(st.text(), st.booleans(), st.none(), st.lists(st.integers(), max_size=2))
        if kind == "count":
            wrong |= st.floats()
        else:
            wrong |= st.sampled_from([math.nan, math.inf, -math.inf])
        value = data.draw(wrong)
        raw = copy.deepcopy(TYPED_CONFIG)
        node, index = raw[section], key
        while isinstance(node[index], list):
            node, index = node[index], data.draw(st.integers(0, len(node[index]) - 1))
        node[index] = value
        with tempfile.TemporaryDirectory() as tmp_dir:
            cfg_path = Path(tmp_dir) / "bad.yaml"
            cfg_path.write_text(yaml.safe_dump(raw))
            err = io.StringIO()
            with redirect_stderr(err):
                code = main(["bias-table", "--config", str(cfg_path), "--out", tmp_dir])
        assert code == 2
        assert f"config error: {section}.{key}" in err.getvalue()

    def test_numerical_failure_is_exit_3(self, tmp_path, capsys):
        # A single unit on a two-step grid yields 2 pooled transitions,
        # which cannot identify three regression coefficients.
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            yaml.safe_dump(
                {
                    "zeta": {
                        "beta12": [-5.0],
                        "j_values": [2],
                        "n_units": 1,
                        "n_boot": 10,
                        "replicates": 1,
                    }
                }
            )
        )
        code = main(["zeta", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_overflowing_swept_drift_is_exit_3(self, tmp_path, capsys):
        # e^{-beta11 T} in eta exceeds the largest double at beta11 = -800.
        sweep = {"beta11": [-800.0], "beta21": [0.0], "beta12": [1.0], "j_values": [2]}
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({"bias_table": sweep}))
        code = main(["bias-table", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "numerical failure: math range error" in capsys.readouterr().err

    def test_large_positive_beta11_is_finite(self, tmp_path):
        # rate (hi - lo) = 800 in eta's integral, past where e^{800} overflows,
        # although the integral is about 1/800.
        b12 = 1.0
        sweep = {"beta11": [800.0], "beta21": [0.0], "beta12": [b12], "j_values": [2, 64]}
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({"bias_table": sweep}))
        out = tmp_path / "o"
        assert main(["bias-table", "--config", str(cfg), "--out", str(out)]) == 0
        # E[Y0] = 1, w = 1 on [0, 1]: eta = e^{-800} - b12 (1 - e^{-800}) / 800.
        want = math.exp(-800.0) - b12 * (1.0 - math.exp(-800.0)) / 800.0
        for row in read_rows(out / "bias_table.csv"):
            assert float(row["eta"]) == pytest.approx(want, rel=1e-14, abs=0.0)
            assert math.isfinite(float(row["theta_g"]))

    @pytest.mark.parametrize(
        "plan",
        [
            {"kind": "piecewise", "breakpoints": [1.0], "values": [1.0, 0.0]},
            {"kind": "piecewise", "breakpoints": [0.5], "values": [1.0]},
            {"kind": "tabulated", "times": [0.0, 1.5], "values": [1.0, 0.0]},
            {"kind": "tabulated", "times": [0.5], "values": [1.0]},
        ],
    )
    def test_invalid_plan_is_exit_2(self, plan, tmp_path, capsys):
        for key in ("plan_star", "plan_base"):
            bad = tmp_path / f"{key}.yaml"
            bad.write_text(yaml.safe_dump({key: plan}))
            code = main(["bias-table", "--config", str(bad), "--out", str(tmp_path / "o")])
            assert code == 2
            assert f"config error: {key} ({plan['kind']}): " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "plan, unread",
        [
            ({"times": [0.0, 0.3], "values": [1.0, 0.0]}, "times: not read by kind 'constant'"),
            ({"kind": "constant", "values": [1.0]}, "values: not read by kind 'constant'"),
            (
                {"kind": "piecewise", "breakpoints": [0.5], "values": [1.0, 0.0], "times": [0.0]},
                "times: not read by kind 'piecewise'",
            ),
            (
                {"kind": "tabulated", "times": [0.0], "values": [1.0], "breakpoints": [0.5]},
                "breakpoints: not read by kind 'tabulated'",
            ),
        ],
    )
    def test_plan_key_its_kind_does_not_read_is_exit_2(self, plan, unread, tmp_path, capsys):
        for key in ("plan_star", "plan_base"):
            bad = tmp_path / f"{key}.yaml"
            bad.write_text(yaml.safe_dump({key: plan}))
            code = main(["bias-table", "--config", str(bad), "--out", str(tmp_path / "o")])
            assert code == 2
            assert f"config error: {key}.{unread}" in capsys.readouterr().err

    def test_init_mean_of_wrong_length_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({"model": {"init_mean": [1.0, 0.0, 2.0]}}))
        code = main(["bias-table", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: model: init_mean must have 2 entries, got 3" in err

    def test_unknown_plan_kind_names_the_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({"plan_base": {"kind": "spline"}}))
        code = main(["bias-table", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error: plan_base.kind: unknown kind 'spline'" in capsys.readouterr().err


class TestBiasTableCommand:
    def test_rows_match_library_calls(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert main(["bias-table", "--config", str(small_config), "--out", str(out)]) == 0
        rows = read_rows(out / "bias_table.csv")
        assert len(rows) == 2 * 1 * 2 * 3
        plan = TreatmentPlan.constant(1.0, horizon=1.0)
        from tests.conftest import make_params

        for row in rows:
            params = make_params(
                beta12=float(row["beta12"]),
                beta11=float(row["beta11"]),
                beta21=float(row["beta21"]),
            )
            J = int(row["J"])
            assert float(row["theta_g"]) == theta_g(params, plan, J)
            assert float(row["eta"]) == true_eta(params, plan)
            assert float(row["delta"]) == theta_g(params, plan, J) - true_eta(params, plan)
            assert float(row["theta_naive_limit"]) == theta_naive_limit(params)

    def test_null_effect_column_has_zero_bias(self, small_config, tmp_path):
        out = tmp_path / "out"
        main(["bias-table", "--config", str(small_config), "--out", str(out)])
        for row in read_rows(out / "bias_table.csv"):
            if float(row["beta12"]) == 0.0:
                assert abs(float(row["delta"])) < 1e-10

    def test_reruns_are_byte_identical(self, small_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["bias-table", "--config", str(small_config), "--out", str(out1)])
        main(["bias-table", "--config", str(small_config), "--out", str(out2)])
        assert (out1 / "bias_table.csv").read_bytes() == (out2 / "bias_table.csv").read_bytes()


class TestSimulateCommand:
    def test_emits_matching_grids_and_is_seeded(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(small_config), "--out", str(out)]) == 0
        obs = read_rows(out / "observational.csv")
        cf = read_rows(out / "counterfactual.csv")
        assert [r["t"] for r in obs] == [r["t"] for r in cf]
        assert {r["W"] for r in cf} == {repr(1.0)}
        panel = simulate_panel(
            ExperimentConfig.from_dict(SMALL_CONFIG).model.to_params(),
            Grid(J=10, T=1.0),
            3,
            derive_seed(99, 0),
        )
        assert float(obs[0]["Y"]) == panel.values[0, 0, 0]

    def test_seed_flag_changes_output(self, small_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(small_config), "--out", str(out1)])
        main(["simulate", "--config", str(small_config), "--out", str(out2), "--seed", "7"])
        assert (out1 / "observational.csv").read_bytes() != (
            out2 / "observational.csv"
        ).read_bytes()


class TestZetaCommand:
    def test_cells_match_library_pipeline(self, small_config, tmp_path):
        out = tmp_path / "out"
        assert main(["zeta", "--config", str(small_config), "--out", str(out)]) == 0
        rows = read_rows(out / "zeta_cells.csv")
        assert len(rows) == 2 * 2 * 2
        cfg = ExperimentConfig.from_dict(SMALL_CONFIG)
        star = TreatmentPlan.constant(1.0, horizon=1.0)
        base = TreatmentPlan.constant(0.0, horizon=1.0)
        from tests.conftest import make_params

        row = rows[0]
        seed = int(row["seed"])
        assert seed == derive_seed(99, 0, 0, 0)
        params = make_params(beta12=float(row["beta12"]))
        panel = simulate_panel(params, Grid(J=int(row["J"]), T=1.0), 40, seed)
        rep = zeta(panel, star, base, 30, 0.05, seed)
        assert float(row["tau_hat"]) == rep.tau_hat
        assert float(row["ci_lower"]) == rep.ci_lower
        assert float(row["ci_upper"]) == rep.ci_upper
        assert float(row["tau_half"]) == rep.tau_hat_half
        assert row["zeta"] == (repr(rep.zeta) if rep.zeta is not None else "undefined")
        assert row["params_hash"] == cfg.params_hash()

    def test_summary_has_one_row_per_cell(self, small_config, tmp_path):
        out = tmp_path / "out"
        main(["zeta", "--config", str(small_config), "--out", str(out)])
        summary = read_rows(out / "zeta_summary.csv")
        assert len(summary) == 2 * 2
        for row in summary:
            assert int(row["replicates"]) <= 2
            if row["median_zeta"] != "undefined":
                assert float(row["median_zeta"]) >= 0.0

    def test_thread_count_does_not_change_bytes(self, small_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["zeta", "--config", str(small_config), "--out", str(out1), "--threads", "1"])
        main(["zeta", "--config", str(small_config), "--out", str(out2), "--threads", "4"])
        for name in ("zeta_cells.csv", "zeta_summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("command", ["zeta", "simulate"])
    def test_run_does_not_import_numpy_ma(self, command, small_config, tmp_path):
        # np.quantile imports numpy.ma on its first call, about 15 ms of a
        # zeta run; the bootstrap's percentiles do without it.  Every command
        # runs in the calling process and thread, so neither an executor nor
        # multiprocessing (about 7 ms to import) is imported either.  Only
        # simulate's writer imports orjson (5-8 ms), and importing the CLI
        # does not.
        modules = ("numpy.ma", "concurrent.futures", "multiprocessing", "orjson")
        script = (
            "import sys\n"
            "from gridbias.cli import main\n"
            "cli_imports_orjson = 'orjson' in sys.modules\n"
            f"code = main([{command!r}, '--config', {str(small_config)!r}, '--out', {str(tmp_path)!r}])\n"
            f"print(code, cli_imports_orjson, *(m in sys.modules for m in {modules!r}))\n"
        )
        src = str(Path(gridbias.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        orjson_imported = command == "simulate"
        assert done.stdout.splitlines()[-1] == f"0 False False False False {orjson_imported}", done.stderr

    def test_plan_base_without_value_is_the_zero_schedule(self, tmp_path):
        # A section's unset keys take that section's own default: plan_base's
        # value is 0.0, not plan_star's 1.0 (which would make every contrast 0).
        outputs = []
        for i, plan_base in enumerate(({"kind": "constant"}, {"kind": "constant", "value": 0.0})):
            path, out = tmp_path / f"{i}.yaml", tmp_path / f"out{i}"
            path.write_text(yaml.safe_dump({**SMALL_CONFIG, "plan_base": plan_base}))
            assert main(["zeta", "--config", str(path), "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes() for name in ("zeta_cells.csv", "zeta_summary.csv")])
        assert outputs[0] == outputs[1]


def test_small_config_output_bytes_are_pinned(small_config, tmp_path):
    for command in ("bias-table", "simulate", "zeta"):
        assert main([command, "--config", str(small_config), "--out", str(tmp_path)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")}
    assert got == SMALL_CONFIG_DIGESTS


def test_run_experiments_script_writes_every_csv(small_config, tmp_path):
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_experiments.py"
    spec = importlib.util.spec_from_file_location("run_experiments", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "out"
    assert script.run(["--config", str(small_config), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(SMALL_CONFIG_DIGESTS)


def test_tabulated_bias_table_bytes_are_pinned(tmp_path):
    config = tmp_path / "tabulated.yaml"
    config.write_text(yaml.safe_dump(TABULATED_CONFIG))
    assert main(["bias-table", "--config", str(config), "--out", str(tmp_path)]) == 0
    got = hashlib.sha256((tmp_path / "bias_table.csv").read_bytes()).hexdigest()
    assert got == TABULATED_BIAS_TABLE_DIGEST
