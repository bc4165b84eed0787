"""gridbias benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed).  The workload's config is generated from
``--seed`` and written under ``.bench_out/``; each CLI call runs in a fresh
child process (``child.py``) with ``threads`` left at its default, one child
at a time, until ``--seconds`` is used.  Every child's outputs must be
byte-identical to the first child's, and the first child's outputs are
checked against the benchmark's own references (``checks.py``).

``--trace 0`` reports the end-to-end metrics as medians over the children:
``setup_s``, ``wall_ref_s``, ``peak_rss_mb`` and ``max_rel_err``.  The two
times are the child's set-up time and the wall time of its ``cli.main``
call, each scaled by ``REFERENCE_S / reference_s``: ``reference_s`` is the
time the child took for a fixed reference workload just before and after
the call (``child.reference_work``).  On the shared 2-core machine this
benchmark was built on, the speed of the same code drifts by up to 2x over
minutes; the raw wall time then spreads 15-30% between runs and its median
moves 25% between sets of runs, which the scaling takes out.  The raw
seconds are in the detail line.  ``--trace 1``
alternates untraced and traced children and reports the per-layer metrics of
the traced ones (``tracer.py``), after checking that their call counts match
the config and that their outputs equal the untraced outputs byte for byte.

The last line of standard output is the result JSON
(``correct``, ``attempted``, ``failed``, ``metrics``); the line before it
holds quartiles, sample counts, provenance and the failures found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from tracer import LEAVES, aggregate
from workloads import WORKLOADS, make_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Enough children per run for a steady median; a run stops starting
# children once the next one would end after --seconds.
MIN_UNTRACED = 5
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 60.0
# The CLI runs single-threaded; so does BLAS.  OpenBLAS's default pool of
# nproc threads makes the small lstsq calls of the bootstrap contend with
# the interpreter (measured: 25% slower, with a wider spread, on 2 cores).
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# No child starts after this much of the run, whatever the minimum counts,
# so that a run ends within 180 s even if its last child times out.
RUN_BUDGET_S = 90.0

# Reference workload time on an idle core of that machine; scaled times read
# as seconds at that speed.
REFERENCE_S = 0.03


def _unit(name: str) -> str:
    if name.endswith((".calls", ".refits", ".steps")):
        return "count"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(".mb_per_s"):
        return "MB/s"
    if name.endswith("_ms") or ".ms_per_" in name:
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio"


PER_LAYER = (
    "estimation.bootstrap_ci.self_s",
    "estimation.bootstrap_ci.ms_per_refit",
    "estimation.bootstrap_ci.refits",
    "estimation.bootstrap_ci.share_of_zeta",
    "estimation.zeta.calls",
    "estimation.zeta.p50_ms",
    "estimation.zeta.tail_ms",  # highest percentile with >= 10 calls beyond it, else p50
    "estimation.estimate_contrast.self_s",
    "estimation.gformula_plugin.calls",
    "estimation.gformula_plugin.self_s",
    "sde.transition_law.calls",
    "sde.transition_law.self_s",
    "sde.transition_law.max_ms",
    "linalg2.matexp.calls",
    "linalg2.matexp.self_s",
    "sde.unit_stream.calls",
    "sde.unit_stream.self_s",
    "sde.simulate_panel.self_s",
    "sde.subsample_panel.self_s",
    "sde.write_panel_csv.self_s",
    "sde.write_panel_csv.bytes",
    "sde.write_panel_csv.mb_per_s",
    "sde.simulate_counterfactual.self_s",
    "estimands.theta_g.calls",
    "estimands.theta_g.steps",
    "estimands.theta_g.self_s",
    "estimands.true_eta.self_s",
    "estimands.plan_integral.calls",
    "estimands.plan_integral.self_s",
    "config.load_config.s",
    "cli.main.wall_s",
    "cli.self_s",
    "trace.overhead_frac",
)


# --------------------------------------------------------------------------
# provenance


def git_sha() -> str:
    """HEAD of the checkout's git metadata, read from files (the git binary
    could find a repository above a checkout that has none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    return {
        "seed": seed,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


# --------------------------------------------------------------------------
# children


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_child(command: str, cfg_path: Path, out_dir: Path, traced: bool) -> dict:
    """One CLI call in a fresh process.  Returns the child's result (timings,
    spans when traced) plus ``traced``, ``out_dir``, the ``digest`` of its
    outputs and ``error``, which is ``None`` unless the call failed."""
    result_path = out_dir.parent / f"{out_dir.name}.json"
    argv = [
        sys.executable, str(BENCH / "child.py"),
        "--src", str(SRC), "--command", command, "--config", str(cfg_path),
        "--out", str(out_dir), "--result", str(result_path), "--trace", str(int(traced)),
    ]
    child = {"traced": traced, "out_dir": out_dir, "error": None}
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {**child, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result_path.is_file():
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return {**child, "error": f"exit {proc.returncode}: {tail}"}
    child.update(json.loads(result_path.read_text()))
    result_path.unlink()
    scale = REFERENCE_S / child["reference_s"]
    child["setup_ref_s"] = child["setup_s"] * scale
    child["wall_ref_s"] = child["wall_s"] * scale
    child["digest"] = _digest(out_dir)
    return child


def warm_up() -> None:
    """Import the package once so that every timed child finds the bytecode
    caches a user's second run would find."""
    subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import gridbias.cli"],
        cwd=ROOT, env=CHILD_ENV, capture_output=True, timeout=CHILD_TIMEOUT_S, check=True,
    )


def run_children(command: str, cfg_path: Path, run_dir: Path, seconds: float, traced: bool) -> list[dict]:
    """Untraced children (or untraced/traced pairs, alternating which goes
    first) until the next one would end after ``seconds``.  Only the outputs
    of the first child that succeeds are kept, for the output check."""
    plan = [[False, True], [True, False]] if traced else [[False]]
    minimum = MIN_TRACED_PAIRS if traced else MIN_UNTRACED
    children: list[dict] = []
    rounds: list[float] = []
    kept = False
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for flag in plan[len(rounds) % len(plan)]:
            child = run_child(command, cfg_path, run_dir / f"c{len(children)}", flag)
            children.append(child)
            if kept or child["error"] is not None:
                shutil.rmtree(child["out_dir"], ignore_errors=True)
            else:
                kept = True
        rounds.append(time.perf_counter() - t0)
        finish = time.perf_counter() - start + statistics.median(rounds)
        if finish > RUN_BUDGET_S or (len(rounds) >= minimum and finish > seconds):
            return children


# --------------------------------------------------------------------------
# metrics


def summary(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values), "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    tail = tail_percentile(values)
    if tail is not None:
        out["tail"] = tail
    return out


def tail_percentile(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it: the
    eleventh-largest value, at percentile ``100 (n - 10) / n``.  ``None``
    below 20 samples, where that percentile would not be above the median."""
    if len(values) < 20:
        return None
    ordered = sorted(values)
    return {"pct": 100.0 * (len(values) - 10) / len(values), "value": ordered[-11]}


def layer_metrics(agg: dict) -> dict:
    """Per-layer numbers of one traced CLI call (no zeta percentiles, which
    pool every traced call of the run)."""

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    boot_s = get("estimation.bootstrap_ci", "total_s")
    refits = agg.get("estimation.bootstrap_ci", {}).get("attrs", {}).get("n_boot", 0)
    zeta_s = get("estimation.zeta", "total_s")
    law = agg.get("sde.transition_law", {}).get("durations", [])
    writes = agg.get("sde.write_panel_csv", {})
    write_bytes = writes.get("attrs", {}).get("bytes", 0)
    write_s = writes.get("total_s", 0.0)
    theta = agg.get("estimands.theta_g", {})
    m = {
        "estimation.bootstrap_ci.self_s": get("estimation.bootstrap_ci", "self_s"),
        "estimation.bootstrap_ci.ms_per_refit": 1e3 * boot_s / refits if refits else 0.0,
        "estimation.bootstrap_ci.refits": refits,
        "estimation.bootstrap_ci.share_of_zeta": boot_s / zeta_s if zeta_s else 0.0,
        "estimation.zeta.calls": get("estimation.zeta", "calls"),
        "sde.transition_law.max_ms": 1e3 * max((d for d, _, _ in law), default=0.0),
        "sde.write_panel_csv.bytes": write_bytes,
        "sde.write_panel_csv.mb_per_s": write_bytes / 1e6 / write_s if write_s else 0.0,
        "estimands.theta_g.steps": theta.get("attrs", {}).get("J", 0),
        "config.load_config.s": get("config.load_config", "total_s"),
        "cli.main.wall_s": get("cli.main", "total_s"),
        "cli.self_s": sum(v["self_s"] for k, v in agg.items() if k.startswith("cli.")),
    }
    for name in PER_LAYER:
        if name not in m and name.endswith((".calls", ".self_s")):
            layer, key = name.rsplit(".", 1)
            m[name] = get(layer, key)
    return m


def baseline_rows(agg: dict) -> dict:
    """Traced timings that correspond to rows of the ROADMAP baseline table."""
    rows: dict[str, list[float]] = {}

    def add(key, seconds):
        rows.setdefault(key, []).append(1e3 * seconds)

    for dur, attrs, _ in agg.get("estimation.bootstrap_ci", {}).get("durations", []):
        add(f"bootstrap_ci_ms_J{attrs['J']}", dur)
    for dur, attrs, _ in agg.get("estimation.zeta", {}).get("durations", []):
        add(f"zeta_cell_ms_J{attrs['J']}", dur)
    for dur, _, leaves in agg.get("sde.transition_law", {}).get("durations", []):
        route = "kronecker" if leaves.get("linalg2.matexp", 0) <= 1 else "simpson"
        add(f"transition_law_ms_{route}", dur)
    for dur, attrs, _ in agg.get("estimands.theta_g", {}).get("durations", []):
        if attrs["J"] == 16384:
            add("theta_g_ms_J16384", dur)
    plan = agg.get("estimands.plan_integral")
    if plan and plan["calls"]:
        add("plan_integral_ms", plan["total_s"] / plan["calls"])
    return {k: statistics.median(v) for k, v in sorted(rows.items())}


def count_errors(agg: dict, implied: dict) -> list[str]:
    return [
        f"{name}: {agg.get(name, {}).get('calls', 0)} calls, config implies {want}"
        for name, want in implied.items()
        if agg.get(name, {}).get("calls", 0) != want
    ]


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "gridbias" / "__init__.py").is_file():
        print(f"no gridbias sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    cfg = make_config(wl, args.seed)
    run_dir = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cfg_path = run_dir / "config.yaml"  # JSON is a subset of YAML
    cfg_path.write_text(json.dumps(cfg, indent=1))

    warm_up()
    children = run_children(wl.command, cfg_path, run_dir, args.seconds, bool(args.trace))

    ref = next((c for c in children if c["error"] is None), None)
    if ref is None:
        print("every CLI call failed: " + "; ".join(c["error"] for c in children), file=sys.stderr)
        return 1
    try:
        check_errors, max_rel_err = wl.check(cfg, ref["out_dir"])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        check_errors, max_rel_err = [f"output check failed: {exc!r}"], math.inf
    shutil.rmtree(ref["out_dir"], ignore_errors=True)
    if not math.isfinite(max_rel_err):  # outputs too broken to compare
        max_rel_err = 1.0
    failures = list(check_errors)
    for i, c in enumerate(children):
        if c["error"] is None and c["digest"] != ref["digest"]:
            c["error"] = f"outputs differ from those of child {children.index(ref)}"
        if c["error"] is not None:
            failures.append(f"child {i}: {c['error']}")
        c["failed"] = c["error"] is not None or bool(check_errors)

    ok = [c for c in children if c["error"] is None]
    untraced = [c for c in ok if not c["traced"]]
    traced = [c for c in ok if c["traced"]]
    detail: dict = {"workload": wl.name, "why": wl.why, "trace": args.trace,
                    "provenance": provenance(args.seed)}
    if args.trace:
        if not (traced and untraced):
            print("no traced/untraced pair succeeded: " + "; ".join(failures), file=sys.stderr)
            return 1
        implied = wl.implied_counts(cfg)
        per_child, zeta_ms, baselines = [], [], []
        for c in traced:
            agg = aggregate(c["spans"])
            errors = count_errors(agg, implied)
            if errors:
                c["failed"] = True
                failures += errors
            per_child.append(layer_metrics(agg))
            zeta_ms += [1e3 * d for d, _, _ in agg.get("estimation.zeta", {}).get("durations", [])]
            baselines.append(baseline_rows(agg))
        values = {name: statistics.median(m[name] for m in per_child) for name in per_child[0]}
        values["estimation.zeta.p50_ms"] = statistics.median(zeta_ms) if zeta_ms else 0.0
        tail = tail_percentile(zeta_ms)
        values["estimation.zeta.tail_ms"] = tail["value"] if tail else values["estimation.zeta.p50_ms"]
        values["trace.overhead_frac"] = (
            statistics.median(c["wall_ref_s"] for c in traced)
            / statistics.median(c["wall_ref_s"] for c in untraced) - 1.0
        )
        metrics = {name: {"value": values[name], "unit": _unit(name)} for name in PER_LAYER}
        self_times = {
            k[: -len(".self_s")]: v for k, v in values.items()
            if k.endswith(".self_s") and k[: -len(".self_s")] not in LEAVES
        }
        detail.update(
            traced=len(traced),
            zeta_ms=summary(zeta_ms) if zeta_ms else None,
            largest_self_s=sorted(self_times.items(), key=lambda kv: -kv[1])[:4],
            baseline_rows={k: statistics.median(b[k] for b in baselines if k in b)
                           for k in sorted({k for b in baselines for k in b})},
        )
        (run_dir / "spans.json").write_text(json.dumps(traced[-1]["spans"]))
    else:
        stats = {
            label: summary([c[key] for c in untraced])
            for label, key in (
                ("setup_s", "setup_ref_s"), ("wall_ref_s", "wall_ref_s"), ("peak_rss_mb", "peak_rss_mb"),
                ("raw_setup_s", "setup_s"), ("raw_wall_s", "wall_s"), ("reference_s", "reference_s"),
            )
        }
        metrics = {
            name: {"value": stats[name]["median"], "unit": unit}
            for name, unit in (("setup_s", "s"), ("wall_ref_s", "s"), ("peak_rss_mb", "MB"))
        }
        metrics["max_rel_err"] = {"value": max_rel_err, "unit": "ratio"}
        detail["stats"] = stats

    failed = sum(c["failed"] for c in children)
    detail.update(failed_frac=failed / len(children), failures=failures)
    result = {"correct": not failures, "attempted": len(children), "failed": failed, "metrics": metrics}
    (run_dir / "report.json").write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
