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
import sys
from dataclasses import asdict, is_dataclass, replace

from .algebra import ExponentOverflow, MultiPoly, ShapeError
from .core import AnalysisResult, CandidateReport, LimitError, analyze_system, check_principal
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

DT_DISPLAY = "(t-t0)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="painleve",
        description="Painleve test and singularity regularization for polynomial ODE systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("test", "regularize", "hamiltonian"):
        p = sub.add_parser(name)
        p.add_argument("file", help="input file (system or hamiltonian grammar)")
        p.add_argument("--bound", type=int, default=10, help="exponent search bound (default 10)")
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
            name: cand.balance.series(i).rename_var(DT_DISPLAY)
            for i, name in enumerate(sys.u_symbols)
        }
        report["parameters"] = [
            {"name": nm, "resonance": r} for nm, r in cand.balance.parameters
        ]
    if cand.detail is not None:
        report["detail"] = _detail_json(cand.detail)
    return report


def _detail_json(detail) -> object:
    if is_dataclass(detail) and not isinstance(detail, type):
        return jsonable(
            {"kind": type(detail).__name__, **{k: v for k, v in asdict(detail).items()}}
        )
    return jsonable(str(detail))


def change_of_variable_report(reg: Regularization, sys: ODESystem) -> dict:
    cov = reg.change
    rows = {
        sys.u_symbols[cov.pivot]: [[-cov.k[cov.pivot], "1"]],
    }
    for row in cov.rows:
        entries = [[o, str(p)] for o, p in row.head]
        rho = MultiPoly.var(row.rho_name) * row.rho_factor
        entries.append([row.exponent(cov.k), str(rho)])
        rows[sys.u_symbols[row.index]] = entries
    return {
        "pivot_order": [sys.u_symbols[i] for i in cov.order],
        "root_beta": str(cov.beta),
        "tau": cov.tau_name,
        "new_variables": list(cov.new_names()),
        "rows": rows,
    }


def transformed_system_report(reg: Regularization) -> dict:
    ts = reg.transformed
    return {
        "variables": list(ts.names),
        "right_sides": {
            f"{name}'": g for name, g in zip(ts.names, ts.g)
        },
        "min_exponents": list(ts.min_exponents),
        "regular": reg.regularity is None,
    }


def transformed_balance_report(reg: Regularization) -> dict | None:
    tb = reg.transformed_balance
    if tb is None:  # a singular transformed system has no Taylor solution
        return None
    return {
        "tau_series": tb.tau.rename_var(DT_DISPLAY),
        "rho_series": {nm: s.rename_var(DT_DISPLAY) for nm, s in tb.rho.items()},
        "initial_values": {nm: str(p) for nm, p in tb.initial_values.items()},
        "tau_derivative_at_t0": str(reg.normalized.beta),
    }


# ----------------------------------------------------------------------
# pretty printing


def _print_candidate(sys: ODESystem, cand: CandidateReport, out) -> None:
    c_text = (
        "(" + ", ".join(str(x) for x in cand.leading) + ")" if cand.leading else "?"
    )
    print(f"candidate k={tuple(cand.exponents)} c={c_text}", file=out)
    print(f"  verdict: {cand.verdict}", file=out)
    if cand.structure is not None:
        print(f"  resonances: {list(cand.structure.resonances)}", file=out)
    if cand.balance is not None:
        for i, name in enumerate(sys.u_symbols):
            series = cand.balance.series(i).rename_var(DT_DISPLAY)
            print(f"  {name} = {series}", file=out)
    if cand.detail is not None:
        print(f"  detail: {_detail_json(cand.detail)}", file=out)


def _print_regularization(sys: ODESystem, reg: Regularization, out) -> None:
    cov = reg.change
    print(f"pivot order: {[sys.u_symbols[i] for i in cov.order]}", file=out)
    print(f"tau'({cov.tau_name}) at t0: {cov.beta}", file=out)
    print("change of variable:", file=out)
    print(f"  {sys.u_symbols[cov.pivot]} = {cov.tau_name}^{-cov.k[cov.pivot]}", file=out)
    for row in cov.rows:
        parts = []
        for o, p in row.head:
            body = str(p) if p.is_constant else f"({p})"
            parts.append(f"{body}*{cov.tau_name}^{o}")
        rho = MultiPoly.var(row.rho_name) * row.rho_factor
        parts.append(f"({rho})*{cov.tau_name}^{row.exponent(cov.k)}")
        print(f"  {sys.u_symbols[row.index]} = " + " + ".join(parts), file=out)
    print("transformed system:", file=out)
    for name, g in zip(reg.transformed.names, reg.transformed.g):
        print(f"  {name}' = {g}", file=out)
    regular = reg.regularity is None
    print(f"regular: {regular}", file=out)


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
    top: dict = {"verdict": result.verdict}
    principal = result.principal_candidates()
    if principal:
        top.update(candidate_report(system, principal[0]))
        top["verdict"] = result.verdict
    top["balances"] = reports
    if args.json:
        print(serialize_report(top))
    else:
        print(f"verdict: {result.verdict}")
        for cand in result.candidates:
            _print_candidate(system, cand, sys.stdout)
    return 0 if principal else 1


def cmd_regularize(args) -> int:
    system, _, result = _analyze(args)
    cand = _pick_principal(result, args.balance_index)
    assert cand.balance is not None
    reg = regularize(cand.balance)
    report = candidate_report(system, cand)
    report["change_of_variable"] = change_of_variable_report(reg, system)
    report["transformed_system"] = transformed_system_report(reg)
    report["transformed_balance"] = transformed_balance_report(reg)
    regular = reg.regularity is None
    if args.json:
        print(serialize_report(report))
    else:
        _print_candidate(system, cand, sys.stdout)
        _print_regularization(system, reg, sys.stdout)
    return 0 if regular else 1


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
        sub["rejected"] = jsonable({"reason": sd.reason, "detail": str(sd.detail)})
        report = candidate_report(system, cand)
        report["hamiltonian"] = sub
        # a normalization rejection's text leaves out its detail, often a matrix
        detail = "" if "pairing" in sub else f" ({sd.detail})"
        print(serialize_report(report) if args.json else f"rejected: {sd.reason}{detail}")
        return 1
    sd = canonical_exchanges(sd)
    ehs, balance, reg = build_canonical_change(hs, cand.balance, sd)
    esys = balance.system
    # the candidate in the exchanged coordinates, in which the change is built
    cand = replace(
        cand,
        exponents=balance.dominant.exponents,
        leading=balance.dominant.leading,
        K=balance.structure.K,
        structure=balance.structure,
        balance=balance,
        principal=check_principal(balance),
    )
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
    report = candidate_report(esys, cand)
    report["change_of_variable"] = change_of_variable_report(reg, esys)
    report["transformed_system"] = transformed_system_report(reg)
    report["transformed_balance"] = transformed_balance_report(reg)
    report["hamiltonian"] = sub
    regular = reg.regularity is None
    ok = regular and canonical
    if args.json:
        print(serialize_report(report))
    else:
        _print_candidate(esys, cand, sys.stdout)
        print(f"d = {d}; pairing {pairing}; exchanges {list(sd.exchange_set)}", file=sys.stdout)
        print(f"symplectic S = {sd.S}", file=sys.stdout)
        _print_regularization(esys, reg, sys.stdout)
        print(f"canonical: {canonical}", file=sys.stdout)
        print(f"new hamiltonian: {regular_h}", file=sys.stdout)
        if dropped:
            print(f"dropped singular terms: {[[o, str(p)] for o, p in dropped]}")
    return 0 if ok else 1


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
