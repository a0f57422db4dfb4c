"""Command-line front end.

    painleve test FILE        [--bound N] [--order M] [--exponents ...] [--leading ...] [--json]
    painleve regularize FILE  [--balance-index I] [--order M] [--json]
    painleve hamiltonian FILE [--balance-index I] [--order M] [--json]

Exit codes: 0 = at least one principal balance (and, for the deeper
commands, the construction succeeded), 1 = no principal balance or a
structural rejection, 2 = usage or parse error, unreadable input, a limit
the user set, or an exponent at the 2**31 limit of a packed monomial key,
3 = internal error (see `EXIT_CODES`).  Reports go to stdout, diagnostics
to stderr.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import asdict, is_dataclass

from .algebra import ExponentOverflow, MultiPoly, ShapeError
from .core import DEFAULT_BOUND, AnalysisResult, CandidateReport, LimitError, analyze_system
from .core import expanded_candidate
from .hamiltonian import (
    HamiltonianRejected,
    build_canonical_change,
    canonical_exchanges,
    check_almost_weighted_homogeneous,
    hamilton_equations_match,
    new_hamiltonian,
    resonance_columns,
    symplectic_normalize,
    symplectic_pairing,
    verify_canonical,
)
from .model import (
    HamiltonianSystem,
    ODESystem,
    ParseError,
    hamiltonian_to_system,
    jsonable,
    parse_expr,
    parse_input,
    serialize_report,
)
from .regularize import (
    NoRationalRootPivot,
    NonConstantResonanceBlock,
    PivotSelectionError,
    Regularization,
    regularize,
)
from .series import NotReversible, TruncationUnderflow, VariableMismatch

# a head coefficient of the change of variable prints bare when it is a
# rational, and in parentheses when it is a polynomial
RATIONAL = re.compile(r"-?\d+(/\d+)?")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="painleve",
        description="Painleve test and singularity regularization for polynomial ODE systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("test", "regularize", "hamiltonian"):
        p = sub.add_parser(name)
        p.add_argument("file", help="input file (system or hamiltonian grammar)")
        bound_help = "exponent search bound (default %(default)s)"
        p.add_argument("--bound", type=int, default=DEFAULT_BOUND, help=bound_help)
        p.add_argument("--order", type=int, default=None, help="series truncation order")
        p.add_argument("--exponents", default=None, help="comma-separated leading exponents")
        p.add_argument("--leading", default=None, help="comma-separated leading coefficients")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        if name in ("regularize", "hamiltonian"):
            p.add_argument(
                "--balance-index",
                type=int,
                default=0,
                help="which principal balance to use (default 0)",
            )
    return parser


# one parser for every call: a parser is a reference cycle that each `main`
# call would otherwise leave to the cyclic collector
PARSER = build_parser()


class UsageError(ValueError):
    pass


class NoPrincipalBalance(Exception):
    """The analysis found no principal balance to regularize."""


# Exit code per exception class, looked up along the raised exception's MRO;
# an exception with no entry there propagates as a traceback.
EXIT_CODES: dict[type, int] = {
    # usage or parse error, an unreadable input file, a limit the user set,
    # or an exponent at the 2**31 limit of a packed monomial key
    UsageError: 2, ParseError: 2, OSError: 2, UnicodeDecodeError: 2, LimitError: 2,
    ExponentOverflow: 2,
    # no principal balance, or a structural rejection of it
    NoPrincipalBalance: 1, NoRationalRootPivot: 1, PivotSelectionError: 1,
    NonConstantResonanceBlock: 1, NotReversible: 1,
    # internal error: any other ValueError is a fault of the engine
    TruncationUnderflow: 3, VariableMismatch: 3, ShapeError: 3, ValueError: 3, AssertionError: 3,
}


def exit_code(err: BaseException) -> int | None:
    return next((EXIT_CODES[c] for c in type(err).__mro__ if c in EXIT_CODES), None)


def _parse_spec(
    args, system: ODESystem
) -> tuple[tuple[int, ...] | None, tuple[MultiPoly, ...] | None]:
    """The --exponents and --leading overrides, each None when not given."""
    exponents = None
    leading = None
    if args.exponents is not None:
        try:
            exponents = tuple(int(x) for x in args.exponents.split(","))
        except ValueError as err:
            raise UsageError(f"bad --exponents: {err}")
        if len(exponents) != system.n:
            raise UsageError(f"--exponents needs {system.n} entries")
    if args.leading is not None:
        # each entry is a rational or a polynomial in the declared parameters
        try:
            leading = tuple(
                parse_expr(chunk, 0, set(system.param_symbols))
                for chunk in args.leading.split(",")
            )
        except ParseError as err:
            raise UsageError(f"bad --leading: {err}")
        if len(leading) != system.n:
            raise UsageError(f"--leading needs {system.n} entries")
    if exponents is None and leading is not None:
        raise UsageError("--leading requires --exponents")
    return exponents, leading


def _validate(args) -> None:
    if args.bound < 1:
        raise UsageError("--bound must be at least 1")
    if args.order is not None and args.order < 2:
        raise UsageError("--order must be at least 2")


# ----------------------------------------------------------------------
# report builders


def candidate_report(sys: ODESystem, cand: CandidateReport) -> dict:
    report: dict = {"verdict": cand.verdict, "exponents": list(cand.exponents)}
    if cand.leading is not None:
        report["leading"] = [str(c) for c in cand.leading]
    if cand.K is not None:
        report["kowalevskian"] = cand.K
    if cand.structure is not None:
        report["resonances"] = list(cand.structure.resonances)
    if cand.principal is not None:
        matrix, det = cand.principal
        report["resonance_matrix"] = [[str(entry) for entry in row] for row in matrix]
        report["resonance_matrix_det"] = str(det)
    if cand.balance is not None:
        report["balance_coefficients"] = {
            name: cand.balance.series(i) for i, name in enumerate(sys.u_symbols)
        }
        report["parameters"] = [
            {"name": nm, "resonance": r} for nm, r in cand.balance.parameters
        ]
    if cand.detail is not None:
        report["detail"] = _detail_json(cand.detail)
    return report


def _detail_json(detail) -> object:
    if is_dataclass(detail) and not isinstance(detail, type):
        return jsonable({"kind": type(detail).__name__, **asdict(detail)})
    return str(detail)


def regularization_report(reg: Regularization, sys: ODESystem) -> dict:
    """The change of variable, the transformed system and its Taylor balance."""
    cov = reg.change
    phi = cov.substitution()
    # the pivot row first, each row in ascending order of tau
    rows = {
        sys.u_symbols[i]: [[o, str(phi[i].coeffs[o])] for o in phi[i].orders()] for i in cov.order
    }
    ts = reg.transformed
    tb = reg.transformed_balance
    return {
        "change_of_variable": {
            "pivot_order": [sys.u_symbols[i] for i in cov.order],
            "root_beta": str(cov.beta),
            "tau": cov.tau_name,
            "new_variables": list(cov.new_names()),
            "rows": rows,
        },
        "transformed_system": {
            "variables": list(ts.names),
            "right_sides": {f"{name}'": g for name, g in zip(ts.names, ts.g)},
            "min_exponents": list(ts.min_exponents),
            "regular": reg.regularity is None,
        },
        # a singular transformed system has no Taylor solution
        "transformed_balance": None if tb is None else {
            "tau_series": tb.tau,
            "rho_series": tb.rho,
            "initial_values": {nm: str(p) for nm, p in tb.initial_values.items()},
            "tau_derivative_at_t0": str(cov.beta),
        },
    }


# ----------------------------------------------------------------------
# pretty printing, from the report dicts above


def _print_candidate(report: dict) -> None:
    leading = report.get("leading")
    c_text = "(" + ", ".join(leading) + ")" if leading else "?"
    print(f"candidate k={tuple(report['exponents'])} c={c_text}")
    print(f"  verdict: {report['verdict']}")
    if "resonances" in report:
        print(f"  resonances: {report['resonances']}")
    for name, series in report.get("balance_coefficients", {}).items():
        print(f"  {name} = {series}")
    if "detail" in report:
        print(f"  detail: {report['detail']}")


def _print_regularization(report: dict) -> None:
    cov = report["change_of_variable"]
    tau = cov["tau"]
    print(f"pivot order: {cov['pivot_order']}")
    print(f"tau'({tau}) at t0: {cov['root_beta']}")
    print("change of variable:")
    # the pivot row comes first; every other row ends with its rho term
    (pivot, [[pivot_exponent, _]]), *rows = cov["rows"].items()
    print(f"  {pivot} = {tau}^{pivot_exponent}")
    for name, (*head, (rho_exponent, rho)) in rows:
        parts = [f"{p if RATIONAL.fullmatch(p) else f'({p})'}*{tau}^{o}" for o, p in head]
        parts.append(f"({rho})*{tau}^{rho_exponent}")
        print(f"  {name} = " + " + ".join(parts))
    ts = report["transformed_system"]
    print("transformed system:")
    for lhs, g in ts["right_sides"].items():
        print(f"  {lhs} = {g}")
    print(f"regular: {ts['regular']}")


# ----------------------------------------------------------------------
# commands


def _analyze(args) -> tuple[ODESystem, HamiltonianSystem | None, AnalysisResult]:
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    parsed = parse_input(text)
    if isinstance(parsed, HamiltonianSystem):
        hs = parsed
        system = hamiltonian_to_system(parsed)
    else:
        hs = None
        system = parsed
    exponents, leading = _parse_spec(args, system)
    result = analyze_system(
        system, bound=args.bound, order=args.order, exponents=exponents, leading=leading
    )
    return system, hs, result


def _pick_principal(result: AnalysisResult, index: int) -> CandidateReport:
    principal = result.principal_candidates()
    if not principal:
        raise NoPrincipalBalance(f"no principal balance found (verdict {result.verdict})")
    if not 0 <= index < len(principal):
        raise UsageError(
            f"--balance-index {index} out of range (found {len(principal)} principal balances)"
        )
    return principal[index]


def cmd_test(args) -> int:
    system, _, result = _analyze(args)
    reports = [candidate_report(system, cand) for cand in result.candidates]
    principal = next((r for r in reports if r["verdict"] == "principal"), {})
    top = {**principal, "verdict": result.verdict, "balances": reports}
    if args.json:
        print(serialize_report(top))
    else:
        print(f"verdict: {result.verdict}")
        for report in reports:
            _print_candidate(report)
    return 0 if principal else 1


def cmd_regularize(args) -> int:
    system, _, result = _analyze(args)
    cand = _pick_principal(result, args.balance_index)
    assert cand.balance is not None
    reg = regularize(cand.balance)
    report = candidate_report(system, cand) | regularization_report(reg, system)
    if args.json:
        print(serialize_report(report))
    else:
        _print_candidate(report)
        _print_regularization(report)
    return 0 if report["transformed_system"]["regular"] else 1


def cmd_hamiltonian(args) -> int:
    system, hs, result = _analyze(args)
    if hs is None:
        raise UsageError("hamiltonian command requires a hamiltonian input file")
    cand = _pick_principal(result, args.balance_index)
    assert cand.balance is not None and cand.leading is not None
    n = hs.n_dof
    k = tuple(cand.exponents[:n])
    l = tuple(cand.exponents[n:])
    if not all(c.is_constant for c in cand.leading):
        print("error: canonical construction needs rational leading data", file=sys.stderr)
        return 1

    # sd is the result of the last stage run; each stage needs the one
    # before, and a rejection reports what the earlier stages found
    sub: dict = {}
    sd = d = check_almost_weighted_homogeneous(hs, k, l)
    if not isinstance(d, HamiltonianRejected):
        sub["d"] = d
        sd = pairing = symplectic_pairing(cand.balance.structure, d)
        if not isinstance(pairing, HamiltonianRejected):
            sub["pairing"] = [list(p) for p in pairing]
            sd = symplectic_normalize(resonance_columns(cand.balance), d)
    if isinstance(sd, HamiltonianRejected):
        sub["rejected"] = {"reason": sd.reason, "detail": str(sd.detail)}
        report = candidate_report(system, cand) | {"hamiltonian": sub}
        # a normalization rejection's text leaves out its detail, often a matrix
        detail = "" if "pairing" in sub else f" ({sd.detail})"
        print(serialize_report(report) if args.json else f"rejected: {sd.reason}{detail}")
        return 1
    sd = canonical_exchanges(sd)
    ehs, balance, reg = build_canonical_change(hs, cand.balance, sd)
    esys = balance.system
    canonical = verify_canonical(reg.change, n) is None
    regular_h, dropped = new_hamiltonian(ehs.H, reg.change, esys.u_symbols, hs.autonomous)
    sub |= {
        "S": sd.S,
        "exchange_set": list(sd.exchange_set),
        "row_swaps": [list(s) for s in sd.row_swaps],
        "canonical": canonical,
        "new_hamiltonian": str(regular_h),
        "dropped_singular": [[o, str(p)] for o, p in dropped],
    }
    if hs.autonomous:
        sub["hamilton_equations_match"] = hamilton_equations_match(regular_h, reg.transformed)
    # the candidate in the exchanged coordinates, in which the change is built
    report = (
        candidate_report(esys, expanded_candidate(balance))
        | regularization_report(reg, esys)
        | {"hamiltonian": sub}
    )
    if args.json:
        print(serialize_report(report))
    else:
        _print_candidate(report)
        print(f"d = {d}; pairing {pairing}; exchanges {sub['exchange_set']}")
        print(f"symplectic S = {sub['S']}")
        _print_regularization(report)
        print(f"canonical: {canonical}")
        print(f"new hamiltonian: {sub['new_hamiltonian']}")
        if sub["dropped_singular"]:
            print(f"dropped singular terms: {sub['dropped_singular']}")
    return 0 if report["transformed_system"]["regular"] and canonical else 1


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        _validate(args)
        if args.command == "test":
            return cmd_test(args)
        if args.command == "regularize":
            return cmd_regularize(args)
        if args.command == "hamiltonian":
            return cmd_hamiltonian(args)
        raise UsageError(f"unknown command {args.command}")
    except tuple(EXIT_CODES) as err:
        code = exit_code(err)
        print(f"{'internal error' if code == 3 else 'error'}: {err}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
