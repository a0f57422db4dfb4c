"""Benchmark of the `painleve` CLI: end-to-end times and per-layer traces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports `painleve` from
`src/` and reads its inputs from `tests/data/`.  Workloads, metric names and
units are those of `BENCHMARK.json`; `perfbench/NOTES.md` says why each
workload exists and what the seed commit measured.

With `--trace 0` it reports the end-to-end metrics: the median wall time of
one pass over the workload's jobs in one warm process (`pass_s`), the
median time for a fresh interpreter to import `painleve.cli` (`setup_s`),
and the peak resident memory of the process that ran the workload
(`peak_rss_mb`).  With `--trace 1` it reports the per-layer metrics from a
traced run and a separately counted pass.  Either way every job's exit code,
verdict, identity flags and stdout SHA-256 are checked against
`perfbench/expected.json`, and the last line printed is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`.

Load is a closed loop: one process runs one job at a time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 150
SETUP_SAMPLES = 21


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _worker_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup(env: dict) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter until it has imported
    `painleve.cli`, at reference speed and on the wall clock.  One untimed
    import first writes the bytecode cache, as an installed package would
    have it."""
    code = "import sys, speed; speed.report_import('painleve.cli', float(sys.argv[1]))"
    env = dict(env, PYTHONPATH=os.pathsep.join([env["PYTHONPATH"], str(HERE)]))
    reference, wall = [], []
    for i in range(SETUP_SAMPLES + 1):
        argv = [sys.executable, "-c", code, repr(time.perf_counter())]
        proc = subprocess.run(argv, env=env, check=True, capture_output=True, text=True, timeout=60)
        if i:
            sample = json.loads(proc.stdout)
            reference.append(sample["reference"])
            wall.append(sample["wall"])
    return reference, wall


def run_worker(workload: str, seed: int, seconds: int, mode: str, env: dict) -> dict:
    argv = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--mode", mode,
    ]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def highest_percentile(samples: list[float]) -> str:
    """The highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return f"none (n={n}; a percentile needs ten samples above it)"
    p = math.floor(100 * (n - 10) / n)
    value = sorted(samples)[max(math.ceil(p * n / 100) - 1, 0)]
    return f"p{p}={value:.4f}"


def layer_value(name: str, traced: dict) -> float:
    """Value of a per-layer metric `<key>.<stat>` from a traced worker result."""
    key, stat = name.rsplit(".", 1)
    if name == "trace.overhead_frac":
        return traced["traced_s"] / traced["untraced_s"] - 1
    if stat == "self_s":
        return traced["self_s"].get(key, 0.0)
    if stat == "calls":
        return traced["calls"][key]
    if stat == "terms_out":
        return traced["terms_out"][key]
    if stat == "share":
        return traced["share"][key]
    if name == "core.solve_dominant.hit_frac":
        calls = traced["calls"]["core.solve_dominant"]
        return traced["dominant_hits"] / calls if calls else 0.0
    raise KeyError(f"no source for per-layer metric {name}")


def end_to_end(args, env) -> tuple[dict, dict]:
    setup, setup_wall = measure_setup(env)
    result = run_worker(args.workload, args.seed, args.seconds, "timed", env)
    passes = result["passes"]
    _report("pass_s", "passes", passes, result["wall_passes"])
    _report("setup_s", "imports", setup, setup_wall)
    values = {
        "pass_s": statistics.median(passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return result, values


def _report(name: str, what: str, reference: list[float], wall: list[float]) -> None:
    print(f"{name}: median {statistics.median(reference):.4f} reference s "
          f"({statistics.median(wall):.4f} wall s) over {len(reference)} {what}; "
          f"highest supported percentile: {highest_percentile(reference)}")
    print("  reference: " + " ".join(f"{x:.4f}" for x in reference))
    print("  wall:      " + " ".join(f"{x:.4f}" for x in wall))


def per_layer(args, env, names: list[str]) -> tuple[dict, dict]:
    result = run_worker(args.workload, args.seed, args.seconds, "traced", env)
    values = {name: layer_value(name, result) for name in names}
    print(f"traced pass {result['traced_s']:.4f} reference s ({result['traced_wall_s']:.4f} wall s), "
          f"untraced {result['untraced_s']:.4f} ({result['untraced_wall_s']:.4f}), "
          f"overhead {values['trace.overhead_frac']:+.2%}")
    for key in sorted(result["share"]):
        print(f"  share of traced pass covered by {key}: {result['share'][key]:.1%}")
    return result, values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    for needed in ("src/painleve/cli.py", "tests/data", "BENCHMARK.json"):
        if not (ROOT / needed).exists():
            return _fail(f"{needed} is missing: run from the root of a painleve source checkout")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload}")
    group = spec["per_layer" if args.trace else "end_to_end"]

    env = _worker_env(args.seed)
    print(f"workload {args.workload}, seed {args.seed}, PYTHONHASHSEED {env['PYTHONHASHSEED']}, "
          f"trace {args.trace}, {os.cpu_count()} cpus")
    try:
        if args.trace:
            result, values = per_layer(args, env, [m["name"] for m in group])
        else:
            result, values = end_to_end(args, env)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError, KeyError) as err:
        return _fail(str(err))

    print(f"jobs attempted {result['attempted']}, failed {result['failed']}, "
          f"failed_frac {result['failed'] / result['attempted']:.4f}, peak_rss_mb {result['peak_rss_mb']:.2f}")
    for reason in result["reasons"]:
        print(f"  FAILED {reason}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
