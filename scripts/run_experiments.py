#!/usr/bin/env python3
"""Run the full experiment battery with the repo's default config.

Equivalent to invoking the CLI three times:

    gridbias bias-table --config configs/default.yaml --out results
    gridbias simulate   --config configs/default.yaml --out results
    gridbias zeta       --config configs/default.yaml --out results

The zeta sweep is the expensive part (6 beta12 values x 5 grids x 20
replicates with 500 bootstrap refits each).  On a shared 2-core Intel Xeon
with Python 3.11 and numpy 2.4 the whole battery took 4.2-5.0 s, 3.9-4.6 s
of it the zeta sweep.
"""

import argparse
import sys
import time
from pathlib import Path

from gridbias.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[1]


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(REPO_ROOT / "configs" / "default.yaml"))
    parser.add_argument("--out", default=str(REPO_ROOT / "results"))
    args = parser.parse_args(argv)
    flags = ["--config", args.config, "--out", args.out]

    for command in ("bias-table", "simulate", "zeta"):
        print(f"== {command}")
        start = time.perf_counter()
        code = cli_main([command, *flags])
        if code != 0:
            print(f"{command} failed with exit code {code}", file=sys.stderr)
            return code
        print(f"   done in {time.perf_counter() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(run())
