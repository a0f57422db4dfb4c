"""Self-test of the benchmark's output gate.

    python3 perfbench/selftest.py

Runs a few cheap jobs through the same check the benchmark applies and
shows that the gate catches what it must: with the expected-outcome table
as committed nothing fails, and after one expected hash is altered, one
identity flag is pinned to a report that lacks it, or the CLI raises, the
failed fraction rises above 0.  Exits 0 when every case holds.
"""

from __future__ import annotations

import copy
import sys

import jobs
import worker

JOBS = [
    ["test", "tests/data/riccati.sys"],
    ["test", "tests/data/nonpoly.sys"],
    ["regularize", "tests/data/pole2.sys"],
]


def failed_frac(main, expected: dict) -> float:
    tally = worker.Tally(expected)
    for argv in JOBS:
        tally.record(argv, jobs.run_job(main, argv))
    return tally.failed / tally.attempted


def _raising_main(argv):
    raise RuntimeError("injected fault")


def main() -> int:
    cli = worker.load_cli()
    expected = jobs.load_expected()

    altered_hash = copy.deepcopy(expected)
    entry = altered_hash["test tests/data/riccati.sys"]
    entry["stdout_sha256"] = entry["stdout_sha256"][::-1]

    missing_flag = copy.deepcopy(expected)
    missing_flag["test tests/data/riccati.sys"]["flags"] = {"canonical": True}

    cases = [
        ("table as committed", cli.main, expected, lambda frac: frac == 0),
        ("one expected hash altered", cli.main, altered_hash, lambda frac: frac > 0),
        ("identity flag absent from report", cli.main, missing_flag, lambda frac: frac > 0),
        ("CLI raises", _raising_main, expected, lambda frac: frac == 1),
    ]
    ok = True
    for name, main_fn, table, holds in cases:
        frac = failed_frac(main_fn, table)
        status = "ok" if holds(frac) else "WRONG"
        ok = ok and holds(frac)
        print(f"{status:5} {name}: failed_frac {frac:.3f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
