"""System data model, input-file parser, and report serialization.

Input grammar (UTF-8 text, one item per line, blank lines ignored):

    file        := header line*
    header      := "system" | "hamiltonian"
    vars-line   := "vars:" ident ("," ident)* [";" ident ("," ident)*]
    params-line := "params:" ident ("," ident)*
    eqn-line    := ident "'" "=" poly-expr          (system mode)
    ham-line    := "H" "=" poly-expr                (hamiltonian mode)
    poly-expr   := integers, rationals "p/q", identifiers, + - * ^ ( )

In hamiltonian mode the vars line splits position symbols from momentum
symbols with ";".  The time symbol is always "t" and needs no declaration.
No declared name may be "t0" or start with "_", and no parameter may be
"tau", "rho<n>", "Q<n>" or "P<n>": the engine uses those names itself.
Only exact rational literals are accepted; "^" takes a non-negative integer
exponent and "/" is valid only inside a rational literal.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from .algebra import MultiPoly, RatMatrix

T_SYMBOL = "t"
T0_SYMBOL = "t0"  # the pole position of a balance
SERIES_VAR = "(t-t0)"  # the variable of every series; not an identifier, so never a declared name

# Parameters live on into the regularized and canonical systems, whose new
# variables are tau and rho<n> (regularize) or Q<n> and P<n> (hamiltonian).
TAU = "tau"
RHO_PREFIX, Q_PREFIX, P_PREFIX = "rho", "Q", "P"
_NEW_VARIABLE = re.compile(rf"{TAU}|({RHO_PREFIX}|{Q_PREFIX}|{P_PREFIX})\d+")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UndeclaredSymbol(ParseError):
    pass


class NonPolynomial(ParseError):
    pass


@dataclass(frozen=True)
class ODESystem:
    """First-order polynomial system u_i' = f_i(t, u_1..u_n)."""

    u_symbols: tuple[str, ...]
    rhs: tuple[MultiPoly, ...]
    param_symbols: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.u_symbols) != len(self.rhs):
            raise ValueError("one right side per declared variable is required")
        allowed = set(self.u_symbols) | set(self.param_symbols) | {T_SYMBOL}
        for name, f in zip(self.u_symbols, self.rhs):
            bad = [s for s in f.symbols() if s not in allowed]
            if bad:
                raise ValueError(f"undeclared symbol {bad[0]} in equation for {name}")

    @property
    def n(self) -> int:
        return len(self.u_symbols)

    @property
    def autonomous(self) -> bool:
        return all(T_SYMBOL not in f.symbols() for f in self.rhs)


@dataclass(frozen=True)
class HamiltonianSystem:
    q_symbols: tuple[str, ...]
    p_symbols: tuple[str, ...]
    H: MultiPoly
    param_symbols: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.q_symbols) != len(self.p_symbols):
            raise ValueError("need equally many position and momentum symbols")
        allowed = set(self.q_symbols) | set(self.p_symbols) | set(self.param_symbols) | {T_SYMBOL}
        bad = [s for s in self.H.symbols() if s not in allowed]
        if bad:
            raise ValueError(f"undeclared symbol {bad[0]} in the Hamiltonian")

    @property
    def n_dof(self) -> int:
        return len(self.q_symbols)

    @property
    def autonomous(self) -> bool:
        return T_SYMBOL not in self.H.symbols()


def hamiltonian_to_system(hs: HamiltonianSystem) -> ODESystem:
    """Canonical equations q_i' = dH/dp_i, p_i' = -dH/dq_i, ordered (q..., p...)."""
    rhs = [hs.H.partial(p) for p in hs.p_symbols]
    rhs += [-hs.H.partial(q) for q in hs.q_symbols]
    return ODESystem(
        u_symbols=hs.q_symbols + hs.p_symbols,
        rhs=tuple(rhs),
        param_symbols=hs.param_symbols,
    )


# ----------------------------------------------------------------------
# tokenizer / recursive-descent expression parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()/]))"
)


def _tokenize(text: str, line: int) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", line, pos + 1)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup) + 1))
        pos = m.end()
    return tokens


class _ExprParser:
    def __init__(self, tokens, line: int, symbols: set[str]):
        self.tokens = tokens
        self.line = line
        self.symbols = symbols
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.line)
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        tok = self.take()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(f"expected {op!r}, found {tok[1]!r}", self.line, tok[2])

    def parse(self) -> MultiPoly:
        expr = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", self.line, tok[2])
        return expr

    def expr(self) -> MultiPoly:
        sign = 1
        tok = self.peek()
        while tok is not None and tok[0] == "op" and tok[1] in "+-":
            if tok[1] == "-":
                sign = -sign
            self.take()
            tok = self.peek()
        total = self.term() * sign
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                return total
            self.take()
            rhs = self.term()
            total = total + rhs if tok[1] == "+" else total - rhs

    def term(self) -> MultiPoly:
        total = self.factor()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "op" or tok[1] != "*":
                return total
            self.take()
            total = total * self.factor()

    def factor(self) -> MultiPoly:
        tok = self.peek()
        sign = 1
        while tok is not None and tok[0] == "op" and tok[1] == "-":
            sign = -sign
            self.take()
            tok = self.peek()
        base = self.atom()
        tok = self.peek()
        if tok is not None and tok[0] == "op" and tok[1] == "^":
            self.take()
            exp_tok = self.take()
            if exp_tok[0] != "number":
                if exp_tok[0] == "op" and exp_tok[1] == "-":
                    raise NonPolynomial("negative exponents are not polynomial", self.line, exp_tok[2])
                raise ParseError("exponent must be a non-negative integer", self.line, exp_tok[2])
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "/":
                raise NonPolynomial("fractional exponents are not polynomial", self.line, nxt[2])
            base = base ** int(exp_tok[1])
        return base * sign

    def atom(self) -> MultiPoly:
        tok = self.take()
        kind, value, col = tok
        if kind == "number":
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "/":
                self.take()
                den_tok = self.take()
                if den_tok[0] != "number":
                    raise NonPolynomial(
                        "division is only allowed inside a rational literal p/q",
                        self.line,
                        den_tok[2],
                    )
                if int(den_tok[1]) == 0:
                    raise ParseError("zero denominator", self.line, den_tok[2])
                return MultiPoly.const(Fraction(int(value), int(den_tok[1])))
            return MultiPoly.const(int(value))
        if kind == "ident":
            if value not in self.symbols:
                raise UndeclaredSymbol(f"undeclared symbol {value!r}", self.line, col)
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "/":
                raise NonPolynomial(
                    "division is only allowed inside a rational literal p/q", self.line, nxt[2]
                )
            return MultiPoly.var(value)
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            nxt = self.peek()
            if nxt is not None and nxt[0] == "op" and nxt[1] == "/":
                raise NonPolynomial(
                    "division is only allowed inside a rational literal p/q", self.line, nxt[2]
                )
            return inner
        if kind == "op" and value == "/":
            raise NonPolynomial("division by a non-constant is not polynomial", self.line, col)
        raise ParseError(f"unexpected token {value!r}", self.line, col)


def parse_expr(text: str, line: int, symbols: set[str]) -> MultiPoly:
    """One polynomial expression over `symbols`; errors name `line`."""
    tokens = _tokenize(text, line)
    if not tokens:
        raise ParseError("empty expression", line)
    return _ExprParser(tokens, line, symbols).parse()


def _split_idents(text: str, line: int) -> list[str]:
    names = []
    for chunk in text.split(","):
        name = chunk.strip()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name or ""):
            raise ParseError(f"bad identifier {name!r}", line)
        names.append(name)
    return names


def _scan_lines(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line:
            yield i, line


def parse_input(text: str) -> ODESystem | HamiltonianSystem:
    """Parse an input file in either mode, dispatching on the header."""
    lines = list(_scan_lines(text))
    if not lines:
        raise ParseError("empty input", 1)
    lineno, header = lines[0]
    if header == "system":
        return _parse_system_body(lines[1:])
    if header == "hamiltonian":
        return _parse_hamiltonian_body(lines[1:])
    raise ParseError("header must be 'system' or 'hamiltonian'", lineno)


def parse_system(text: str) -> ODESystem:
    result = parse_input(text)
    if not isinstance(result, ODESystem):
        raise ParseError("expected a 'system' input", 1)
    return result


def parse_hamiltonian(text: str) -> HamiltonianSystem:
    result = parse_input(text)
    if not isinstance(result, HamiltonianSystem):
        raise ParseError("expected a 'hamiltonian' input", 1)
    return result


def _parse_declarations(lines, *, hamiltonian: bool):
    u_names: list[str] | None = None
    p_names: list[str] | None = None
    params: list[str] = []
    at: dict[str, int] = {}  # the line of each declaration list
    body = []
    for lineno, line in lines:
        if line.startswith("vars:"):
            at["vars"] = lineno
            rest = line[len("vars:") :]
            if hamiltonian:
                if ";" not in rest:
                    raise ParseError("hamiltonian vars need a ';' between q-list and p-list", lineno)
                q_part, p_part = rest.split(";", 1)
                u_names = _split_idents(q_part, lineno)
                p_names = _split_idents(p_part, lineno)
                if len(u_names) != len(p_names):
                    raise ParseError("q-list and p-list have different lengths", lineno)
            else:
                if ";" in rest:
                    raise ParseError("';' is only valid in hamiltonian mode", lineno)
                u_names = _split_idents(rest, lineno)
        elif line.startswith("params:"):
            at["params"] = lineno
            params = _split_idents(line[len("params:") :], lineno)
        else:
            body.append((lineno, line))
    if u_names is None:
        raise ParseError("missing vars: line", lines[0][0] if lines else 1)
    # (name, line, is a parameter), in file order
    declared = sorted(
        [(nm, at["vars"], False) for nm in u_names + (p_names or [])]
        + [(nm, at["params"], True) for nm in params],
        key=lambda d: d[1],
    )
    for name, lineno, _ in declared:
        if name == T_SYMBOL:
            raise ParseError(f"'{T_SYMBOL}' is reserved for the time variable", lineno)
    for name, lineno, param in declared:
        # names starting with "_" are the engine's own unknowns
        if name == T0_SYMBOL or name.startswith("_") or (param and _NEW_VARIABLE.fullmatch(name)):
            raise ParseError(f"'{name}' is reserved for the engine", lineno)
    seen: set[str] = set()
    for name, lineno, _ in declared:
        if name in seen:
            raise ParseError("duplicate declaration", lineno)
        seen.add(name)
    return u_names, p_names, params, body


def _parse_system_body(lines) -> ODESystem:
    u_names, _, params, body = _parse_declarations(lines, hamiltonian=False)
    symbols = set(u_names) | set(params) | {T_SYMBOL}
    equations: dict[str, MultiPoly] = {}
    eqn_re = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)\s*'\s*=\s*(.*)$")
    for lineno, line in body:
        m = eqn_re.match(line)
        if m is None:
            raise ParseError(f"expected an equation of the form u' = ...: {line!r}", lineno)
        name, expr_text = m.group(1), m.group(2)
        if name not in u_names:
            raise UndeclaredSymbol(f"equation for undeclared variable {name!r}", lineno)
        if name in equations:
            raise ParseError(f"duplicate equation for {name!r}", lineno)
        equations[name] = parse_expr(expr_text, lineno, symbols)
    missing = [name for name in u_names if name not in equations]
    if missing:
        raise ParseError(f"missing equation for {missing[0]!r}", 1)
    return ODESystem(
        u_symbols=tuple(u_names),
        rhs=tuple(equations[name] for name in u_names),
        param_symbols=tuple(params),
    )


def _parse_hamiltonian_body(lines) -> HamiltonianSystem:
    q_names, p_names, params, body = _parse_declarations(lines, hamiltonian=True)
    assert p_names is not None
    symbols = set(q_names) | set(p_names) | set(params) | {T_SYMBOL}
    ham_re = re.compile(r"^H\s*=\s*(.*)$")
    H = None
    for lineno, line in body:
        m = ham_re.match(line)
        if m is None:
            raise ParseError(f"expected 'H = ...': {line!r}", lineno)
        if H is not None:
            raise ParseError("duplicate Hamiltonian line", lineno)
        H = parse_expr(m.group(1), lineno, symbols)
    if H is None:
        raise ParseError("missing 'H = ...' line", 1)
    return HamiltonianSystem(
        q_symbols=tuple(q_names),
        p_symbols=tuple(p_names),
        H=H,
        param_symbols=tuple(params),
    )


# ----------------------------------------------------------------------
# report serialization


def poly_json(p: MultiPoly) -> list:
    """Canonical term list: [coefficient, {symbol: exponent}] pairs."""
    out = []
    for exps, c in p.sorted_terms():
        mono = {v: e for v, e in zip(p.symbols(), exps) if e}
        out.append([str(c), mono])
    return out


def matrix_json(m: RatMatrix) -> list:
    return [[str(x) for x in row] for row in m.data]


def jsonable(value):
    """Recursively convert report values into JSON-serializable data."""
    from .series import KNOWN_COMPLETELY, TruncatedSeries

    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, MultiPoly):
        return {"str": str(value), "terms": poly_json(value)}
    if isinstance(value, RatMatrix):
        return matrix_json(value)
    if isinstance(value, TruncatedSeries):
        return {
            "var": value.var,
            "trunc": value.trunc if value.trunc < KNOWN_COMPLETELY else None,
            "terms": [[o, str(value.coeffs[o])] for o in value.orders()],
        }
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def serialize_report(report: dict) -> str:
    """Deterministic JSON: insertion key order, exact rationals as strings.
    The text of `json.dumps(..., indent=2)`, whose closures would leave a
    reference cycle per call."""
    out: list[str] = []
    _write_json(jsonable(report), "", out)
    return "".join(out)


def _write_json(value, indent: str, out: list[str]) -> None:
    inner = indent + "  "
    if isinstance(value, dict) and value:
        for n, (key, item) in enumerate(value.items()):
            out += (",\n" if n else "{\n", inner, json.dumps(key), ": ")
            _write_json(item, inner, out)
        out += ("\n", indent, "}")
    elif isinstance(value, list) and value:
        for n, item in enumerate(value):
            out += (",\n" if n else "[\n", inner)
            _write_json(item, inner, out)
        out += ("\n", indent, "]")
    else:  # a scalar or an empty container
        out.append(json.dumps(value))
