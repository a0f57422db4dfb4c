"""Each benchmark workload runs once, end to end, with no failed job.

`perfbench/run.py` exits 2 when its worker exits non-zero or times out, and
a job whose report differs from `perfbench/expected.json` counts as failed.
The worker exits non-zero on a crash, and also when a timed pass ends with
no speed probe fired: the probe's 10 ms interval timer restarts at every
job, so a pass whose jobs all finish in under 10 ms draws none and
`speed.SpeedProbe.reference_seconds` raises.  This runs the worker of every
workload in `BENCHMARK.json` for its minimum of two shuffled timed passes
(`--seconds 0`), in a subprocess with the environment `run.py` gives it,
so a change that breaks the benchmark fails here first; on a fast host
the probe failure can show here too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_without_failed_jobs(workload):
    env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=str(ROOT / "src"))
    argv = [
        sys.executable,
        str(ROOT / "perfbench" / "worker.py"),
        "--workload", workload,
        "--seed", "1",
        "--seconds", "0",
        "--mode", "timed",
    ]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["reasons"]
