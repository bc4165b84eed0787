import copy
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

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
from gridbias import cli, config
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
}

# sha256 of each CSV the three commands write for SMALL_CONFIG.  A change
# that moves an output byte on purpose updates the digest and says so.
SMALL_CONFIG_DIGESTS = {
    "bias_table.csv": "fd1d0c4c459e1b5bde38aba7cacb247b40f3065aacb5bcb996623af41f05cdbe",
    "counterfactual.csv": "dfab07f7a3ac763a5a1da8355b9857ccdb87d190e18ed2e794d72cdc0d68d887",
    "observational.csv": "df6c3360abf16a4389f05f7d239e2c1f310de41cbe3280bd7bb67b6efa66357a",
    "zeta_cells.csv": "6fe3fae558980a76b694624f0b345887c6e836f4ccd23a8ff11cb367f3acf23d",
    "zeta_summary.csv": "6dcd1c3d3ebf619a7234d941c2d92ab4d7f4835b2ef5d2a782766ce63e21691d",
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
TABULATED_BIAS_TABLE_DIGEST = "081895551fe6959e5e2883af46ff3ba1760122e2d89a96f49ee5e3092da5089c"

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


def leaf_paths(node, path=()):
    """``(path, leaf)`` of every leaf of a nested config dict."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from leaf_paths(value, (*path, key))
    else:
        yield path, node


def flat_leaves(value) -> list:
    if isinstance(value, list):
        return [leaf for v in value for leaf in flat_leaves(v)]
    return [value]


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfig:
    def test_defaults_validate(self):
        # main runs the defaults unvalidated: they must already be the
        # typed values that validate would store.
        cfg = ExperimentConfig()
        want = repr(cfg.to_dict())
        cfg.validate()
        assert repr(cfg.to_dict()) == want

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
        # load_config parses with libyaml where PyYAML has it; on a config
        # without exponent floats (which only load_config reads as floats)
        # every value, type included, must be what PyYAML's own SafeLoader
        # gives.  The "json" config is written the way bench/run.py writes
        # its configs.
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
        assert config._LOADER.__bases__ == (want,)

    @pytest.mark.parametrize("spelling", ["5e-2", "5E-2", "0.5e-1", "5.0e-02", ".5e-1"])
    def test_exponent_float_loads_as_a_float(self, spelling, tmp_path):
        # YAML 1.2 and JSON read these as floats; PyYAML's YAML 1.1 resolver
        # would leave them strings.
        configs = []
        for name, alpha in (("exp", spelling), ("dot", "0.05")):
            path = tmp_path / f"{name}.yaml"
            path.write_text(f"zeta:\n  alpha: {alpha}\n")
            configs.append(load_config(path))
        got, want = configs
        assert got == want
        assert got.params_hash() == want.params_hash()

    def test_json_exponent_floats_load_as_floats(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"bias_table": {"beta11": [1e-05, 1e200, -2.5e-300]}}))
        assert load_config(path).bias_table.beta11 == [1e-05, 1e200, -2.5e-300]

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

    def test_unknown_keys_of_mixed_type_name_one(self, tmp_path):
        # An int and a str key do not compare; the message still names one.
        path = tmp_path / "mixed.yaml"
        path.write_text("model:\n  1: 2\n  x: 3\n")
        with pytest.raises(ConfigError, match=r"^model\.1: unknown key$"):
            load_config(path)

    def test_empty_file_is_the_built_in_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert load_config(path) == ExperimentConfig()
        assert main(["bias-table", "--config", str(path), "--out", str(tmp_path / "f")]) == 0
        assert main(["bias-table", "--out", str(tmp_path / "d")]) == 0
        want = (tmp_path / "d" / "bias_table.csv").read_bytes()
        assert (tmp_path / "f" / "bias_table.csv").read_bytes() == want

    def test_merged_key_is_overridden_by_a_written_one(self, tmp_path):
        path = tmp_path / "merge.yaml"
        path.write_text("small: &small {n_units: 4, j: 6}\nsimulate:\n  <<: *small\n  j: 8\n")
        raw = yaml.load(path.read_bytes(), Loader=config._LOADER)
        assert raw["simulate"] == {"n_units": 4, "j": 8}
        path.write_text("simulate:\n  <<: [{j: 4}, {j: 6, n_units: 3}]\n  n_units: 2\n")
        assert load_config(path).simulate == config.SimulateConfig(n_units=2, j=4)

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

    @pytest.mark.parametrize("value", ["abc", 2.5, True])
    def test_non_integer_seed_is_exit_2(self, value, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({"seed": value}))
        code = main(["bias-table", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "seed: must be an integer" in capsys.readouterr().err

    def test_threads_flag_and_key_are_exit_2(self, tmp_path, capsys):
        # Every command runs in one thread, so neither is accepted.
        with pytest.raises(SystemExit) as exc:
            main(["zeta", "--out", str(tmp_path / "o"), "--threads", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 1" in capsys.readouterr().err
        bad = tmp_path / "bad.yaml"
        bad.write_text("threads: 1\n")
        code = main(["zeta", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error: threads: unknown top-level key" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.yaml"]

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
        "text, key, line",
        [
            ("seed: 1\nseed: 2\n", "seed", 2),
            ("{seed: 1, seed: 2}\n", "seed", 1),
            ("zeta:\n  alpha: 0.1\n  n_boot: 10\n  alpha: 0.2\n", "alpha", 4),
        ],
    )
    def test_repeated_config_key_is_exit_2(self, text, key, line, tmp_path, capsys):
        # YAML would keep the last value; a key written twice is a typo.
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        code = main(["zeta", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: invalid YAML in {bad}: ")
        assert f"found duplicate key {key!r}\n  in \"{bad}\", line {line}," in err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.yaml"]

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
        ],
    )
    def test_wrongly_typed_field_is_exit_2(self, command, section, key, value, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({section: {key: value}}))
        code = main([command, "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"config error: {section}.{key}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.yaml"]

    def test_quoted_exponent_float_is_a_string(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text('zeta:\n  alpha: "5e-2"\n')
        code = main(["zeta", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error: zeta.alpha: must be a finite number, got '5e-2'" in capsys.readouterr().err

    def test_seed_flag_is_exit_2(self, small_config, tmp_path, capsys):
        # The config file fixes the seed; no flag overrides it.
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(small_config), "--out", str(out), "--seed", "7"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
        assert not out.exists()

    def test_out_dir_key_is_exit_2(self, tmp_path, monkeypatch, capsys):
        # Only ``--out`` names the output directory.
        monkeypatch.chdir(tmp_path)
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({**SMALL_CONFIG, "out_dir": "x"}))
        assert main(["bias-table", "--config", str(bad)]) == 2
        assert "config error: out_dir: unknown top-level key" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.yaml"]

    def test_out_defaults_to_results(self, small_config, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bias-table", "--config", str(small_config)]) == 0
        got = (tmp_path / "results" / "bias_table.csv").read_bytes()
        assert hashlib.sha256(got).hexdigest() == SMALL_CONFIG_DIGESTS["bias_table.csv"]

    def test_out_naming_a_file_is_exit_2(self, small_config, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        code = main(["bias-table", "--config", str(small_config), "--out", str(taken)])
        assert code == 2
        assert "config error: --out: " in capsys.readouterr().err
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
        assert "config error: --out: " in capsys.readouterr().err
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

    def test_drift_beyond_the_double_range_is_exit_3(self, tmp_path, capsys):
        # (p - s)^2 / 4 overflows in the 2x2 exponential at beta11 = 1e200.
        sweep = {"beta11": [1e200], "beta21": [0.0], "beta12": [1.0], "j_values": [2]}
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({"bias_table": sweep}))
        code = main(["bias-table", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure: matrix exponential exceeds the double range" in err

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

    def test_zero_horizon_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({"model": {"horizon": 0}}))
        code = main(["bias-table", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: model: horizon must be a positive finite number" in err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.yaml"]

    def test_init_mean_of_wrong_length_is_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({"model": {"init_mean": [1.0, 0.0, 2.0]}}))
        code = main(["bias-table", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: model: init_mean must have 2 entries, got 3" in err

    @pytest.mark.parametrize("field", ["beta", "sigma", "init_cov"])
    def test_ragged_matrix_names_its_field(self, field, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({"model": {field: [[0.2, -5.0], [-3.0]]}}))
        code = main(["bias-table", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: model: {field} must be 2x2 real numbers (")

    def test_asymmetry_beyond_the_double_range_is_exit_2(self, tmp_path, capsys):
        # The two off-diagonal entries differ by more than the largest double.
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({"model": {"init_cov": [[1.0, 1e308], [-1e308, 1.0]]}}))
        code = main(["bias-table", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error: model: init_cov must be symmetric" in capsys.readouterr().err

    def test_unknown_plan_kind_names_the_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({"plan_base": {"kind": "spline"}}))
        code = main(["bias-table", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error: plan_base.kind: unknown kind 'spline'" in capsys.readouterr().err


# A rank-1 covariance np.outer(v, v) whose computed eigenvalues are
# -7.3e-12 and 8.5e5: PSD to roundoff of its scale.
RANK_ONE_INIT_COV = [
    [795911.2731108895, 208102.24571378072],
    [208102.24571378072, 54411.271876890634],
]


def small_config_text(**sections) -> str:
    return yaml.safe_dump({**SMALL_CONFIG, **sections})


class TestErrorBoundary:
    """A bad config exits 2 and an ``ArithmeticError`` exits 3; any other
    exception is a bug, and ``main`` lets it surface."""

    @settings(max_examples=400)
    @given(data=st.data())
    def test_one_leaf_corruption_never_crashes(self, data):
        path, leaf = data.draw(st.sampled_from(list(leaf_paths(TYPED_CONFIG))))
        value = st.sampled_from(["abc", None, True, [1], {"a": 1}])
        if type(leaf) is float:
            value |= st.sampled_from([1e300, -1e300, 1e-300, -1e-300, 0.0])
        elif type(leaf) is int:
            # Small counts only: a large one allocates a huge panel.
            value |= st.integers(-1, 3)
        command = data.draw(st.sampled_from(["bias-table", "simulate", "zeta"]))
        raw = copy.deepcopy(TYPED_CONFIG)
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = data.draw(value)
        with tempfile.TemporaryDirectory() as tmp_dir:
            cfg_path = Path(tmp_dir) / "cfg.yaml"
            cfg_path.write_text(yaml.safe_dump(raw))
            err = io.StringIO()
            with redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main([command, "--config", str(cfg_path), "--out", tmp_dir])
        assert code in (0, 2, 3)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "Traceback" not in err.getvalue()
        assert "RuntimeWarning" not in err.getvalue()

    @pytest.mark.parametrize("error", [ValueError, np.linalg.LinAlgError])
    def test_other_exception_surfaces(self, error, small_config, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr(cli, "simulate_panel", fail)
        with pytest.raises(error, match="injected"):
            main(["simulate", "--config", str(small_config), "--out", str(tmp_path)])

    def test_numpy_overflow_is_exit_3(self, tmp_path, capsys):
        # Squares of 1e200 in the pooled fit's sums overflow a double.
        bad = tmp_path / "bad.yaml"
        bad.write_text(small_config_text(model={"init_mean": [1e200, 0.0]}))
        code = main(["zeta", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "numerical failure: overflow encountered in" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            small_config_text(model={"beta": [[100.0, -5.0], [-3.0, 0.5]]}, simulate={"n_units": 3, "j": 2}),
            small_config_text(model={"init_cov": RANK_ONE_INIT_COV}),
            small_config_text(zeta={**SMALL_CONFIG["zeta"], "alpha": "ALPHA"}).replace("ALPHA", "5e-2"),
        ],
        ids=["stiff drift", "rank-1 init_cov", "exponent alpha"],
    )
    @pytest.mark.parametrize("command", ["bias-table", "simulate", "zeta"])
    def test_valid_config_runs(self, text, command, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 0


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

    def test_config_seed_changes_output(self, small_config, tmp_path):
        reseeded = tmp_path / "reseeded.yaml"
        reseeded.write_text(yaml.safe_dump({**SMALL_CONFIG, "seed": 7}))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(small_config), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(reseeded), "--out", str(out2)]) == 0
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


def test_python_m_gridbias_runs_main(small_config, tmp_path):
    # ``python -m gridbias`` runs src/gridbias/__main__.py in a fresh process.
    src = str(Path(gridbias.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    flags = ["--config", str(small_config), "--out"]
    for command in ("bias-table", "simulate", "zeta"):
        done = subprocess.run(
            [sys.executable, "-m", "gridbias", command, *flags, str(tmp_path / "m")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert main([command, *flags, str(tmp_path / "main")]) == 0
    names = sorted(p.name for p in (tmp_path / "m").iterdir())
    assert names == sorted(SMALL_CONFIG_DIGESTS)
    for name in names:
        assert (tmp_path / "m" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()
    done = subprocess.run(
        [sys.executable, "-m", "gridbias", "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    for command in ("bias-table", "simulate", "zeta"):
        assert command in done.stdout


def test_tabulated_bias_table_bytes_are_pinned(tmp_path):
    config = tmp_path / "tabulated.yaml"
    config.write_text(yaml.safe_dump(TABULATED_CONFIG))
    assert main(["bias-table", "--config", str(config), "--out", str(tmp_path)]) == 0
    got = hashlib.sha256((tmp_path / "bias_table.csv").read_bytes()).hexdigest()
    assert got == TABULATED_BIAS_TABLE_DIGEST
