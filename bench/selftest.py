"""Negative tests for the benchmark's output checkers.

    python3 bench/selftest.py

Runs each CLI command once on a small version of its workload's config,
checks that the clean outputs pass, then corrupts them one way at a time and
checks that the checker flags every corruption.  Exits 1 if any case goes
the wrong way.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gridbias.cli  # noqa: E402

from workloads import WORKLOADS, make_config  # noqa: E402


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _write(path: Path, rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _edit(name: str, fn):
    """Corruption that rewrites one CSV through ``fn(rows)``."""

    def corrupt(out: Path) -> None:
        rows = _rows(out / name)
        fn(rows)
        _write(out / name, rows)

    return corrupt


def _scale(rows, row, col, factor, fix_delta=False):
    rows[row][col] = repr(float(rows[row][col]) * factor)
    if fix_delta:  # keep delta == theta_g - eta so only the reference can catch it
        rows[row][6] = repr(float(rows[row][4]) - float(rows[row][5]))


def _set(rows, row, col, value):
    rows[row][col] = value


CASES = {
    "bias-table-tabulated": {
        "eta perturbed by 1e-6 relative": _edit("bias_table.csv", lambda r: _scale(r, 5, 5, 1 + 1e-6)),
        "eta off by 1e-2, delta consistent": _edit(
            "bias_table.csv", lambda r: _scale(r, 5, 5, 1 + 1e-2, fix_delta=True)),
        "theta_g off by 1e-6, delta consistent": _edit(
            "bias_table.csv", lambda r: _scale(r, 40, 4, 1 + 1e-6, fix_delta=True)),
        "row dropped": _edit("bias_table.csv", lambda r: r.pop(3)),
        "cell key changed": _edit("bias_table.csv", lambda r: _set(r, 2, 3, "3")),
    },
    "zeta-default": {
        "zeta row dropped": _edit("zeta_cells.csv", lambda r: r.pop(2)),
        "zeta value changed": _edit("zeta_cells.csv", lambda r: _set(r, 1, 7, "0.5")),
        "seed changed": _edit("zeta_cells.csv", lambda r: _set(r, 1, 8, str(int(r[1][8]) + 1))),
        "summary median changed": _edit("zeta_summary.csv", lambda r: _set(r, 1, 3, "7.0")),
        "summary count changed": _edit("zeta_summary.csv", lambda r: _set(r, 1, 2, "9")),
    },
    "simulate-csv": {
        "wrong t value": _edit("observational.csv", lambda r: _set(r, 7, 2, repr(float(r[7][2]) + 1e-9))),
        "row dropped": _edit("counterfactual.csv", lambda r: r.pop(5)),
        "Y at k=J shifted": _edit("counterfactual.csv", lambda r: [
            row.__setitem__(3, repr(float(row[3]) + 1.0)) for row in r[1:] if row[1] == "20"]),
        "W column changed": _edit("counterfactual.csv", lambda r: _set(r, 4, 4, "0.5")),
    },
}


def small_config(name: str) -> dict:
    cfg = make_config(WORKLOADS[name], seed=7)
    if "zeta" in cfg:
        cfg["zeta"].update(j_values=[8, 16], n_units=60, n_boot=40)
        cfg["zeta"]["beta12"] = cfg["zeta"]["beta12"][:1] + [-3.0]
    if "bias_table" in cfg:
        cfg["bias_table"].update(beta21=cfg["bias_table"]["beta21"][:2], j_values=[2, 16, 1024])
    if "simulate" in cfg:
        cfg["simulate"].update(n_units=300, j=20)
    return cfg


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out" if (ROOT / ".bench_out").is_dir() else None) as tmp:
        for name, cases in CASES.items():
            wl = WORKLOADS[name]
            cfg = small_config(name)
            base = Path(tmp) / name
            base.mkdir()
            cfg_path = base / "config.yaml"
            cfg_path.write_text(json.dumps(cfg))
            clean = base / "clean"
            with contextlib.redirect_stdout(io.StringIO()):
                code = gridbias.cli.main([wl.command, "--config", str(cfg_path), "--out", str(clean)])
            if code != 0:
                print(f"FAIL {name}: CLI call failed")
                bad += 1
                continue
            errors, _ = wl.check(cfg, clean)
            print(f"{'ok  ' if not errors else 'FAIL'} {name}: clean outputs pass {errors[:2]}")
            bad += bool(errors)
            for label, corrupt in cases.items():
                out = base / "corrupt"
                shutil.copytree(clean, out)
                corrupt(out)
                errors, _ = wl.check(cfg, out)
                print(f"{'ok  ' if errors else 'FAIL'} {name}: {label} -> {errors[:1]}")
                bad += not errors
                shutil.rmtree(out)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
