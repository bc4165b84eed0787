"""Runs one gridbias CLI command in a fresh process and reports its timings.

    python3 bench/child.py --src SRC --command CMD --config CFG --out DIR \
        --result RESULT.json --trace 0|1

``setup_s`` covers importing ``gridbias`` and loading and validating the
config; ``wall_s`` covers the ``cli.main`` call; ``reference_s`` is the time
of a fixed reference workload (``reference_work``) run just before and just
after that call, which tells how fast the machine ran meanwhile;
``peak_rss_mb`` is this process's peak resident set.  With ``--trace 1`` every public function of
the package is wrapped (see ``tracer.py``) after set-up, and the spans are
written into the result file when the call returns.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def reference_work() -> float:
    """Seconds taken by a fixed sample of the kinds of work gridbias does:
    Python object churn, small least-squares solves, CSV formatting and a
    scalar recursion over NumPy values.  It never changes, so its time
    measures the machine, not the package."""
    import csv
    import io

    import numpy as np

    start = time.perf_counter()
    xs = [float(i) for i in range(30_000)]
    table = {i: x for i, x in enumerate(xs)}
    ordered = sorted(xs, key=lambda v: -v)
    rng = np.random.default_rng(0)
    design, target = rng.standard_normal((800, 3)), rng.standard_normal(800)
    for _ in range(40):
        idx = rng.integers(0, 800, 800)
        np.linalg.lstsq(design[idx], target[idx], rcond=None)
    writer = csv.writer(io.StringIO())
    values = rng.standard_normal(10_000)
    for i in range(5_000):
        writer.writerow((i, repr(float(values[i])), repr(float(values[i] * 2.0))))
    y = 1.0
    for v in values:
        y = 0.999 * y + 0.001 * v
    del table, ordered
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    for flag in ("--src", "--command", "--config", "--out", "--result"):
        parser.add_argument(flag, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import gridbias.cli
    import gridbias.config

    if src not in Path(gridbias.__file__).resolve().parents:
        raise SystemExit(f"gridbias imported from {gridbias.__file__}, not from {src}")
    gridbias.config.load_config(args.config)
    setup_s = time.perf_counter() - _T0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    argv = [args.command, "--config", args.config, "--out", args.out]
    reference_s = reference_work()
    start = time.perf_counter()
    code = gridbias.cli.main(argv)
    wall_s = time.perf_counter() - start
    reference_s = 0.5 * (reference_s + reference_work())

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "reference_s": reference_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["spans"] = tracer.export()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
