"""Run one workload in this process and print one JSON result line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode timed|traced

`run.py` starts this in a fresh interpreter with PYTHONHASHSEED set from
the seed, so each workload's peak memory is its own.  The seed also fixes
the job order within each pass.

* `timed`: warm-up jobs, then whole passes over the job list until the
  next pass would end after S seconds (at least `MIN_PASSES`).  Only the
  CLI calls are timed; checking their output is not.
* `traced`: each job runs twice in a row, untraced and then with stage
  spans, so the two totals see the same machine conditions; then one pass
  with the counters installed.  Spans are written to
  `perfbench/out/spans-<workload>-<seed>.jsonl` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

import jobs
import spans
import speed

MIN_PASSES = 2


def load_cli():
    sys.path.insert(0, str(jobs.ROOT / "src"))
    import painleve
    import painleve.cli

    src = (jobs.ROOT / "src" / "painleve").resolve()
    if Path(painleve.__file__).resolve().parent != src:
        raise SystemExit(f"painleve imported from {painleve.__file__}, not from {src}")
    return painleve.cli


class Tally:
    """Attempted and failed jobs, with the first few failure reasons."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, argv: list[str], outcome: jobs.Outcome) -> None:
        self.attempted += 1
        reasons = jobs.check(self.expected[jobs.job_id(argv)], outcome)
        if reasons:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{jobs.job_id(argv)}: {'; '.join(reasons)}")


def _main_of(cli):
    # Looked up on every call so that an installed `cli.main` wrapper is used.
    return lambda argv: cli.main(argv)


def timed(cli, job_list, rng, seconds: float, tally: Tally) -> dict:
    main = _main_of(cli)
    for argv in jobs.WARMUP:
        tally.record(argv, jobs.run_job(main, argv))
    passes: list[float] = []
    wall_passes: list[float] = []
    start = time.perf_counter()
    while True:
        probe = speed.SpeedProbe()
        wall = 0.0
        for argv in rng.sample(job_list, len(job_list)):
            outcome = jobs.run_job(main, argv, probe)
            wall += outcome.seconds
            tally.record(argv, outcome)
        passes.append(probe.reference_seconds(wall))
        wall_passes.append(wall)
        typical = sorted(wall_passes)[len(wall_passes) // 2]
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + typical > seconds:
            return {"passes": passes, "wall_passes": wall_passes}


def traced(cli, job_list, rng, tally: Tally, spans_path) -> dict:
    main = _main_of(cli)
    for argv in jobs.WARMUP:
        tally.record(argv, jobs.run_job(main, argv))
    recorder = spans.SpanRecorder()
    untraced_probe, traced_probe = speed.SpeedProbe(), speed.SpeedProbe()
    untraced_wall = traced_wall = 0.0
    for argv in rng.sample(job_list, len(job_list)):
        plain = jobs.run_job(main, argv, untraced_probe)
        tally.record(argv, plain)
        recorder.job = jobs.job_id(argv)
        with recorder.installed():
            outcome = jobs.run_job(main, argv, traced_probe)
        tally.record(argv, outcome)
        untraced_wall += plain.seconds
        traced_wall += outcome.seconds
    untraced_s = untraced_probe.reference_seconds(untraced_wall)
    traced_s = traced_probe.reference_seconds(traced_wall)
    # Probes fire inside spans in proportion to their length, so one factor
    # takes them out of every span and puts the spans at reference speed.
    to_reference = traced_s / traced_wall

    counter = spans.CallCounter()
    with counter.installed():
        for argv in rng.sample(job_list, len(job_list)):
            tally.record(argv, jobs.run_job(main, argv))

    # The program is deterministic, so both passes call each stage equally
    # often; a difference means the instruments, not the program, are off.
    span_calls = _span_calls(recorder)
    for name, count in counter.calls.items():
        if name in spans.STAGE_NAMES and span_calls.get(name, 0) != count:
            raise SystemExit(f"{name}: {span_calls.get(name, 0)} spans but {count} counted calls")

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, job in recorder.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "job": job}) + "\n")

    front = {"core.enumerate_fuchsian_exponents", "core.solve_dominant"}
    return {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "self_s": {name: t * to_reference for name, t in recorder.self_times().items()},
        "share": {
            "core.front_end": recorder.covered(front) / traced_wall,
            "core.expand_balance": recorder.covered({"core.expand_balance"}) / traced_wall,
            "regularize.absorb_resonances": recorder.covered({"regularize.absorb_resonances"}) / traced_wall,
        },
        "calls": counter.calls,
        "terms_out": counter.terms_out,
        "dominant_hits": counter.dominant_hits,
    }


def _span_calls(recorder: spans.SpanRecorder) -> dict[str, int]:
    counts: dict[str, int] = {}
    for span in recorder.spans:
        counts[span[0]] = counts.get(span[0], 0) + 1
    return counts


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("timed", "traced"))
    args = parser.parse_args()

    cli = load_cli()
    tally = Tally(jobs.load_expected())
    rng = random.Random(args.seed)
    job_list = jobs.WORKLOADS[args.workload]
    if args.mode == "timed":
        result = timed(cli, job_list, rng, args.seconds, tally)
    else:
        path = jobs.ROOT / "perfbench" / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
        result = traced(cli, job_list, rng, tally, path)
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        reasons=tally.reasons,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
