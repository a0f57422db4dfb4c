"""Workload job lists, the expected-outcome table, and one checked CLI call.

A job is a `painleve` argument list with paths relative to the checkout
root; `--json` is appended when it runs.  Its id is the arguments joined by
spaces, which keys the expected-outcome table in `expected.json`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
import traceback
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

_DATA = "tests/data/"

# Every input file at the default bound and order, the deeper exponent
# searches, both regularize front ends, and the hamiltonian rejection path.
SCREEN = [
    ["test", _DATA + name]
    for name in (
        "cubic.sys",
        "exp_family.sys",
        "gd.ham",
        "henon_heiles.ham",
        "inconsistent.sys",
        "nonpoly.sys",
        "pole2.sys",
        "riccati.sys",
    )
] + [
    ["test", _DATA + "henon_heiles.ham", "--bound", "18"],
    ["test", _DATA + "gd.ham", "--bound", "16"],
    ["regularize", _DATA + "pole2.sys"],
    ["regularize", _DATA + "exp_family.sys", "--exponents", "1,0", "--leading=-1,r"],
    ["hamiltonian", _DATA + "henon_heiles.ham"],
]

WORKLOADS = {
    "screen": SCREEN,
    "series_deep": [["test", _DATA + "henon_heiles.ham", "--order", "30"]],
    "gd_regularize": [
        ["regularize", _DATA + "gd.ham", "--order", "16"],
        ["hamiltonian", _DATA + "gd.ham", "--order", "16"],
    ],
}

# Cheap jobs run once before timing so that lazy imports inside the package
# and the interpreter's adaptive specialization are done.  They touch the
# test, regularize and hamiltonian paths.
WARMUP = [
    ["test", _DATA + "riccati.sys"],
    ["regularize", _DATA + "pole2.sys"],
    ["hamiltonian", _DATA + "henon_heiles.ham"],
]

# Exact-identity flags of a report, by their path in the JSON.
IDENTITY_FLAGS = {
    "regular": ("transformed_system", "regular"),
    "canonical": ("hamiltonian", "canonical"),
    "hamilton_equations_match": ("hamiltonian", "hamilton_equations_match"),
}


def job_id(argv: list[str]) -> str:
    return " ".join(argv)


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Outcome(NamedTuple):
    """What one CLI call returned; `code` is None when it raised."""

    code: int | None
    out: str
    err: str
    seconds: float


def run_job(main, argv: list[str], probe=None) -> Outcome:
    """Call `main(argv + ["--json"])` in-process with stdout and stderr
    captured.  Only the call itself is timed, with `probe` (a
    `speed.SpeedProbe`) armed around it when given.  An exception is caught
    and turned into an outcome with code None and the traceback as stderr."""
    args = [str(ROOT / a) if a.startswith(_DATA) else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    armed = probe if probe is not None else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), armed:
        start = time.perf_counter()
        try:
            code = main(args + ["--json"])
        except Exception:  # a raising job is a failed job, not a crashed run
            code = None
            traceback.print_exc(file=err)
        seconds = time.perf_counter() - start
    return Outcome(code, out.getvalue(), err.getvalue(), seconds)


def describe(outcome: Outcome) -> dict:
    """The fields the expected-outcome table records for one outcome."""
    try:
        report = json.loads(outcome.out) if outcome.out else None
    except json.JSONDecodeError:
        report = None
    verdict = report.get("verdict") if isinstance(report, dict) else None
    flags = {}
    for name, (section, key) in IDENTITY_FLAGS.items():
        if isinstance(report, dict) and key in report.get(section, {}):
            flags[name] = report[section][key]
    return {
        "exit": outcome.code,
        "verdict": verdict,
        "flags": flags,
        "stdout_sha256": hashlib.sha256(outcome.out.encode("utf-8")).hexdigest(),
    }


def check(expected: dict, outcome: Outcome) -> list[str]:
    """Reasons the outcome differs from its expected entry; empty if none.

    An expected non-zero exit is not a failure.  Every identity flag the
    table lists must be present and exactly `true`."""
    if outcome.code is None:
        last = outcome.err.strip().splitlines()[-1:] or ["exception"]
        return [f"raised: {last[0]}"]
    got = describe(outcome)
    reasons = []
    for field in ("exit", "verdict", "stdout_sha256"):
        if got[field] != expected[field]:
            reasons.append(f"{field}: expected {expected[field]!r}, got {got[field]!r}")
    for name in expected["flags"]:
        if got["flags"].get(name) is not True:
            reasons.append(f"flag {name}: expected true, got {got['flags'].get(name)!r}")
    return reasons
