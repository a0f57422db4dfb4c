"""The Painleve test: exponent search, dominant balances, resonances, expansion.

A balance is a formal Laurent solution u_i = sum_j a_{i,j} (t-t0)^(j-k_i).
The leading exponents k must satisfy the Fuchsian inequality (weighted
degree of f_i at most k_i + 1), which makes the coefficient recursion
linear with the constant matrix K - jI, where K is the Kowalevskian matrix.
Integer eigenvalues of K are the resonances: the orders at which free
parameters can enter the series.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    Inconsistent,
    MultiPoly,
    Q,
    RatMatrix,
    SearchIncomplete,
    as_poly,
    integer_eigenvalues,
    nullspace,
    poly_det,
    rational_roots,
    solve_affine,
)
from .model import SERIES_VAR, T0_SYMBOL, T_SYMBOL, ODESystem
from .series import EXACT, RelaxedSubstitution, TruncatedSeries, substitute_poly

DEFAULT_BOUND = 10  # of the exponent search
# the time symbol as the exact series t0 + (t-t0)
TIME_SERIES = TruncatedSeries(SERIES_VAR, {0: MultiPoly.var(T0_SYMBOL), 1: 1}, EXACT)


class NonConstantKowalevskian(ValueError):
    """A Kowalevskian entry failed to evaluate to a rational constant."""


class LimitError(ValueError):
    """A limit the caller sets is too tight for the input: an expansion
    order that does not pass the largest resonance, or a bound whose
    exponent search exceeds EXPONENT_BUDGET."""


# ----------------------------------------------------------------------
# dominant data


@dataclass(frozen=True)
class DominantData:
    exponents: tuple[int, ...]
    leading: tuple[MultiPoly, ...]


@dataclass(frozen=True)
class Rejected:
    """A proposed dominant balance fails; carries the first failing equation."""

    index: int
    residual: MultiPoly


@dataclass(frozen=True)
class Unsolved:
    """The elimination stalled; leading coefficients must be user-supplied."""

    reason: str = "elimination stalled"


def _exponent_rows(sys: ODESystem) -> list[list[tuple[int, ...]]]:
    """For each equation, the distinct u-exponent vectors of its terms.

    Symbols other than the u_i (time, parameters) carry weight 0, so only
    the u-exponents decide the weighted degree k . m of a term.
    """
    rows = []
    for f in sys.rhs:
        where = [f.symbols().index(u) if u in f.symbols() else None for u in sys.u_symbols]
        rows.append(
            sorted({tuple(0 if i is None else e[i] for i in where) for e in f.terms})
        )
    return rows


def is_fuchsian(sys: ODESystem, k: tuple[int, ...]) -> bool:
    return all(
        sum(kj * mj for kj, mj in zip(k, m)) <= ki + 1
        for ki, ms in zip(k, _exponent_rows(sys))
        for m in ms
    )


# Values one exponent search may try, over all k_i, before it gives up:
# henon_heiles.ham tries about 20,500 at bound 37 and 72,000 at bound 60.
EXPONENT_BUDGET = 250_000


def enumerate_fuchsian_exponents(sys: ODESystem, bound: int = DEFAULT_BOUND) -> list[tuple[int, ...]]:
    """All exponent vectors 0 <= k_i <= bound (not all zero) passing the
    Fuchsian inequality, in lexicographic order.

    The search assigns k_1, k_2, ... depth first and drops a prefix as soon
    as a partial weighted degree exceeds its cap: k_i + 1 once k_i is
    assigned, bound + 1 before (the unassigned part of k . m is
    non-negative and k_i <= bound).  Each row's cap is linear in the next
    k_d, so one pass over the rows gives the interval of values that keep
    every prefix alive.  Its cost follows the Fuchsian set, not
    the (bound + 1)^n vectors it stands for.  A search that tries more than
    EXPONENT_BUDGET values of some k_i raises LimitError, with no partial list.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    n = sys.n
    rows = [(i, m) for i, ms in enumerate(_exponent_rows(sys)) for m in ms]
    found = []
    tries = 0
    # depth first over prefixes (k_1..k_d, sums), sums[r] the weighted degree
    # of row r over the prefix; the last node on the stack is extended next
    stack: list[tuple[tuple[int, ...], list[int]]] = [((), [0] * len(rows))]
    while stack:
        prefix, sums = stack.pop()
        d = len(prefix)
        if d == n:
            if any(prefix):
                found.append(prefix)
            continue
        tries += bound + 1
        if tries > EXPONENT_BUDGET:
            raise LimitError("exponent search space too large; lower the bound")
        # each row asks s + v * m_d <= cap, i.e. v * slope <= room: a half-line
        # in v, all of it or none of it; their intersection is [lo, hi]
        lo, hi = 0, bound
        for s, (i, m) in zip(sums, rows):
            if i == d:  # the cap v + 1 grows with v
                slope, room = m[d] - 1, 1 - s
            else:
                slope, room = m[d], (prefix[i] + 1 if i < d else bound + 1) - s
            if slope > 0:
                hi = min(hi, room // slope)
            elif slope < 0:  # slope -1: v >= -room
                lo = max(lo, -room)
            elif room < 0:
                hi = -1
        for v in range(hi, lo - 1, -1):  # pushed from the top, so extended from 0
            stack.append((prefix + (v,), [s + v * m[d] for s, (_, m) in zip(sums, rows)]))
    return found


def _unknowns(n: int) -> list[str]:
    return [f"_c{i}" for i in range(n)]  # the parser reserves names that start with "_"


def dominant_equations(sys: ODESystem, k) -> tuple[MultiPoly, ...]:
    """The dominant balance of the exponents k: R_i(c) = f_i^D(t0, c) + k_i c_i
    over the unknowns `_c<i>`, with f_i^D the part of f_i of weighted degree
    k_i + 1.  A leading vector c solves it iff R(c) = 0, and the Jacobian of
    R at c is the Kowalevskian matrix."""
    weights = dict(zip(sys.u_symbols, k))
    unknowns = [MultiPoly.var(nm) for nm in _unknowns(sys.n)]
    bindings = {**dict(zip(sys.u_symbols, unknowns)), T_SYMBOL: MultiPoly.var(T0_SYMBOL)}
    return tuple(
        f.weighted_part(weights, ki + 1).replace(bindings) + ci * ki
        for ki, f, ci in zip(k, sys.rhs, unknowns)
    )


def verify_dominant_balance(equations, k, c) -> DominantData | Rejected:
    """Check R(c) = 0, that is f_i^D(t0, c) = -k_i c_i, for every equation."""
    k = tuple(int(x) for x in k)
    c_polys = tuple(as_poly(x) for x in c)
    if len(k) != len(equations) or len(c_polys) != len(equations):
        raise ValueError("exponent and leading vectors must have length n")
    values = dict(zip(_unknowns(len(equations)), c_polys))
    for index, residual in enumerate(e.replace(values) for e in equations):
        if not residual.is_zero:
            return Rejected(index=index, residual=residual)
    return DominantData(exponents=k, leading=c_polys)


# Nodes one solve_dominant call may visit before it gives up; no solve over
# the tests/data inputs at bounds up to 18 needs more than 8.
SEARCH_BUDGET = 800


def _rational_roots(poly: MultiPoly, name: str) -> list[Fraction] | None:
    """`rational_roots` of a polynomial univariate in `name`."""
    coeffs = [Q(0)] * (poly.degree_in(name) + 1)
    for exps, c in poly.terms.items():
        e = exps[poly.symbols().index(name)] if name in poly.symbols() else 0
        coeffs[e] += c
    return rational_roots(coeffs)


def _monomial_content(eq: MultiPoly, name: str) -> int:
    """Largest e with name^e dividing every term of eq."""
    idx = eq.symbols().index(name)
    return min(exps[idx] for exps in eq.terms)


def _divide_out(eq: MultiPoly, name: str, e: int) -> MultiPoly:
    idx = eq.symbols().index(name)
    terms = {}
    for exps, c in eq.terms.items():
        key = list(exps)
        key[idx] -= e
        terms[tuple(key)] = c
    return MultiPoly(eq.symbols(), terms)


def _assign(eqs: list[MultiPoly], i: int, assigned, free, nm: str, value: MultiPoly) -> tuple:
    """Equation i is used up: substitute nm = value into the others."""
    rest = [e.replace({nm: value}) for e in eqs[:i] + eqs[i + 1 :]]
    return rest, assigned + [(nm, value)], free - {nm}


def _elimination_move(eqs: list[MultiPoly], assigned, free: set[str]) -> list[tuple] | None:
    """The nodes the first applicable move leads to, in search order; None
    if no move applies."""
    # rule 1: equation linear in an unknown with constant coefficient
    for i, eq in enumerate(eqs):
        for nm in eq.symbols():
            if nm not in free or eq.degree_in(nm) != 1:
                continue
            coeff = eq.partial(nm)
            if not coeff.is_constant:
                continue
            expr = eq.replace({nm: MultiPoly.const(0)}) * (Q(-1) / coeff.constant_value())
            return [_assign(eqs, i, assigned, free, nm, expr)]
    # rule 2: univariate equation, branch on rational roots
    for i, eq in enumerate(eqs):
        syms = [s for s in eq.symbols() if s in free]
        if len(syms) != 1 or len(eq.symbols()) != len(syms):
            continue
        roots = _rational_roots(eq, syms[0])
        if roots is None:
            continue
        return [_assign(eqs, i, assigned, free, syms[0], MultiPoly.const(root)) for root in roots]
    # rule 3: common monomial factor: the variable vanishes or divides out
    for i, eq in enumerate(eqs):
        for nm in eq.symbols():
            if nm not in free:
                continue
            content = _monomial_content(eq, nm)
            if content < 1:
                continue
            divided = eqs[:i] + [_divide_out(eq, nm, content)] + eqs[i + 1 :]
            vanishes = _assign(eqs, i, assigned, free, nm, MultiPoly.const(0))
            return [vanishes, (divided, assigned, free)]
    return None


def _solution(assigned: list[tuple[str, MultiPoly]], names, equations) -> tuple | None:
    """The solution a node without equations or free unknowns stands for.

    A substituted value mentions only unknowns assigned after it, so one
    backward pass resolves the chain; a family stays non-constant.  Branching
    may overshoot (divided-out factors): the values must solve the original
    equations, identically in any parameters they carry."""
    values: dict[str, Fraction] = {}
    for nm, expr in reversed(assigned):
        value = expr.replace(values)
        if not value.is_constant:
            return None
        values[nm] = value.constant_value()
    vec = tuple(values[nm] for nm in names)
    if any(vec) and all(eq.replace(values).is_zero for eq in equations):
        return vec
    return None


def solve_dominant(equations) -> list[tuple[Fraction, ...]] | Unsolved:
    """Rational solutions of R(c) = 0, the `dominant_equations`, by
    successive elimination.

    Three moves, repeated until nothing is left: substitute an equation that
    is linear in one unknown with a nonzero constant coefficient; branch on
    the rational roots of an equation univariate in one unknown; branch on a
    common monomial factor (the variable vanishes, or divide it out).
    Anything that still stalls, or leaves a parameterized family, is reported
    Unsolved and the caller must supply the leading coefficients explicitly.
    So is a search that runs past SEARCH_BUDGET nodes or meets a coefficient
    above algebra.ROOT_SEARCH_CAP, since its solutions may be incomplete.
    """
    names = _unknowns(len(equations))
    equations = [e for e in equations if not e.is_zero]
    if any(T0_SYMBOL in e.symbols() for e in equations):
        return Unsolved("time-dependent dominant equations")

    solutions: set[tuple[Fraction, ...]] = set()
    stalled = False
    # depth first over nodes (equations left, substitutions made in order,
    # unknowns free): the last node on the stack is searched next
    stack = [(equations, [], set(names))]
    try:
        for _ in range(SEARCH_BUDGET):
            if not stack:
                break
            eqs, assigned, free = stack.pop()
            eqs = [e for e in eqs if not e.is_zero]
            if eqs:
                nodes = _elimination_move(eqs, assigned, free)
                stalled |= nodes is None
                stack.extend(reversed(nodes or []))
            elif not free:  # a free unknown left is a parameterized family: not auto-emitted
                vec = _solution(assigned, names, equations)
                if vec is not None:
                    solutions.add(vec)
    except SearchIncomplete as incomplete:
        return Unsolved(str(incomplete))
    if stack:
        return Unsolved("search budget exhausted")
    if stalled and not solutions:
        return Unsolved()
    return sorted(solutions)


# ----------------------------------------------------------------------
# Kowalevskian matrix and resonances


def kowalevskian(equations, dd: DominantData) -> RatMatrix:
    """K = dR/dc at c, the Jacobian of the `dominant_equations`: that is
    d(f^D)/d(u) at (t0, c) plus diag(k)."""
    names = _unknowns(len(equations))
    values = dict(zip(names, dd.leading))
    rows = []
    for i, equation in enumerate(equations):
        row = []
        for j, name in enumerate(names):
            entry = equation.partial(name).replace(values)
            if not entry.is_constant:
                raise NonConstantKowalevskian(f"entry ({i},{j}) is not a rational constant: {entry}")
            row.append(entry.constant_value())
        rows.append(row)
    return RatMatrix(rows)


@dataclass(frozen=True)
class ResonanceStructure:
    K: RatMatrix
    resonances: tuple[int, ...]  # -1 first, strictly increasing
    multiplicities: tuple[int, ...]
    eigenbases: dict[int, tuple[tuple[Fraction, ...], ...]]

    @property
    def largest(self) -> int:
        return self.resonances[-1]


@dataclass(frozen=True)
class StructureFailure:
    # non_integer_spectrum | spectrum_search_capped | negative_resonance |
    # minus_one_multiplicity | not_diagonalizable
    reason: str
    detail: object = None


def resonance_structure(K: RatMatrix) -> ResonanceStructure | StructureFailure:
    """Classify the spectrum of K against the principal requirements:
    integer eigenvalues, -1 simple, nothing else below 0, diagonalizable.
    A capped eigenvalue search is a failure, not a guess."""
    try:
        roots, remainder = integer_eigenvalues(K)
    except SearchIncomplete as incomplete:
        return StructureFailure("spectrum_search_capped", str(incomplete))
    if len(remainder) > 1:
        lam = MultiPoly(("lambda",), {(i,): c for i, c in enumerate(remainder)})
        return StructureFailure("non_integer_spectrum", lam)
    negatives = tuple(r for r in roots if r < -1)
    if negatives:
        return StructureFailure("negative_resonance", negatives)
    # eigenbases are formed only for a spectrum that passed the gates above
    bases = {r: tuple(map(tuple, nullspace(K.shifted(r)))) for r in roots}
    if roots.get(-1) != 1 or len(bases[-1]) != 1:
        return StructureFailure("minus_one_multiplicity", len(bases.get(-1, ())))
    bad = tuple(r for r, m in roots.items() if len(bases[r]) != m)
    if bad:
        return StructureFailure("not_diagonalizable", bad)
    return ResonanceStructure(
        K=K,
        resonances=tuple(roots),
        multiplicities=tuple(roots.values()),
        eigenbases=bases,
    )


def basic_resonance_vector(dd: DominantData) -> tuple[MultiPoly, ...]:
    return tuple(-(ki * ci) for ki, ci in zip(dd.exponents, dd.leading))


def basic_resonance_check(dd: DominantData, K: RatMatrix) -> bool:
    """(K + I)(-k1 c1, ..., -kn cn)^T = 0 with a nonzero vector."""
    vec = basic_resonance_vector(dd)
    if all(v.is_zero for v in vec):
        return False
    n = K.rows
    shifted = K.shifted(-1)
    for i in range(n):
        total = MultiPoly.zero()
        for j in range(n):
            total = total + vec[j] * shifted.entry(i, j)
        if not total.is_zero:
            return False
    return True


# ----------------------------------------------------------------------
# balance expansion


@dataclass(frozen=True)
class Balance:
    system: ODESystem
    dominant: DominantData
    structure: ResonanceStructure
    order: int
    coeffs: tuple[tuple[MultiPoly, ...], ...]  # [i][j] for 0 <= j < order
    parameters: tuple[tuple[str, int], ...]  # (name, resonance), resonance 0 = leading level

    def series(self, i: int) -> TruncatedSeries:
        ki = self.dominant.exponents[i]
        coeffs = {j - ki: self.coeffs[i][j] for j in range(self.order)}
        return TruncatedSeries(SERIES_VAR, coeffs, self.order - ki)


@dataclass(frozen=True)
class FailureAtResonance:
    """The recursion is inconsistent at a resonance: a genuine test failure."""

    j: int
    witness: MultiPoly


def needed_parameter_count(rs: ResonanceStructure) -> int:
    """Number of fresh parameters the expansion will inject (resonances >= 1)."""
    return sum(m for r, m in zip(rs.resonances, rs.multiplicities) if r >= 1)


def expand_balance(
    sys: ODESystem,
    dd: DominantData,
    rs: ResonanceStructure,
    order: int,
    parameter_names: tuple[str, ...] | None = None,
) -> Balance | FailureAtResonance:
    """Solve the coefficient recursion (K - jI) a_j = rhs_j up to the order.

    At a resonance j the affine solution (free coordinates zero) is shifted
    by fresh parameters along the eigenbasis columns of `rs`; rescaling a
    column rescales the matching parameter.  Inconsistency at a resonance is
    a structured failure carrying the nonzero witness forced to vanish.
    """
    n = sys.n
    k = dd.exponents
    K = rs.K

    leading_params: list[str] = []
    for c in dd.leading:
        for s in c.symbols():
            if s != T0_SYMBOL and s not in leading_params:
                leading_params.append(s)

    injected = [(r, m) for r, m in zip(rs.resonances, rs.multiplicities) if r >= 1]
    needed = needed_parameter_count(rs)
    if parameter_names is None:
        declared = set(sys.u_symbols) | set(sys.param_symbols)
        fresh = (f"r{i}" for i in itertools.count(2 + len(leading_params)))
        parameter_names = tuple(itertools.islice((nm for nm in fresh if nm not in declared), needed))
    if len(parameter_names) != needed:
        raise ValueError(f"need {needed} parameter names, got {len(parameter_names)}")
    if order <= rs.largest:
        raise LimitError(f"order must exceed the largest resonance {rs.largest}")

    name_iter = iter(parameter_names)
    by_resonance: dict[int, list[str]] = {}
    parameters: list[tuple[str, int]] = [(nm, 0) for nm in leading_params]
    for r, m in injected:
        by_resonance[r] = [next(name_iter) for _ in range(m)]
        parameters.extend((nm, r) for nm in by_resonance[r])

    # rhs_j is [x^(j - k_i - 1)] f_i(U_{<j}) for each i.  U_{<j} are the
    # partial sums of the balance, read from `coeffs`, whose lists the
    # recursion extends in place; the time symbol is t0 + x.  Each f_i is one
    # term list of a `RelaxedSubstitution` over those lists, so an order
    # costs O(j) coefficient products instead of the O(j^2) of expanding
    # f(U_{<j}).
    coeffs: list[list[MultiPoly]] = [[as_poly(c)] for c in dd.leading]
    lists = dict(zip(sys.u_symbols, coeffs))
    first = {name: -ki for name, ki in zip(sys.u_symbols, k)}
    if not sys.autonomous:
        lists[T_SYMBOL] = [MultiPoly.var(T0_SYMBOL), MultiPoly.const(1)]
        first[T_SYMBOL] = 0
    sub = RelaxedSubstitution(lists, first)
    rhs_terms = [sub.terms(f) for f in sys.rhs]

    for j in range(1, order):
        rhs = [-sub.coeff(terms, j - ki - 1, j) for ki, terms in zip(k, rhs_terms)]
        solution = solve_affine(K.shifted(j), rhs)
        if isinstance(solution, Inconsistent):
            return FailureAtResonance(j=j, witness=solution.witness)
        a_j = list(solution)
        if j in by_resonance:
            for name, column in zip(by_resonance[j], rs.eigenbases[j]):
                p = MultiPoly.var(name)
                a_j = [a + p * col for a, col in zip(a_j, column)]
        for i in range(n):
            coeffs[i].append(a_j[i])

    return Balance(
        system=sys,
        dominant=dd,
        structure=rs,
        order=order,
        coeffs=tuple(tuple(row) for row in coeffs),
        parameters=tuple(parameters),
    )


def resonance_matrix_columns(balance: Balance) -> list[tuple[int, tuple[MultiPoly, ...]]]:
    """(resonance, column) pairs of the resonance matrix: the basic vector at
    -1, then one column per parameter, dc/dr at 0 and the parameter's
    eigenbasis column at a positive resonance."""
    columns = [(-1, basic_resonance_vector(balance.dominant))]
    for name, r in balance.parameters:
        if r == 0:
            column = tuple(c.partial(name) for c in balance.dominant.leading)
        else:
            names_at_r = [nm for nm, rr in balance.parameters if rr == r]
            basis = balance.structure.eigenbases[r][names_at_r.index(name)]
            column = tuple(as_poly(x) for x in basis)
        columns.append((r, column))
    return columns


def check_principal(balance: Balance) -> tuple[tuple[tuple[MultiPoly, ...], ...], MultiPoly]:
    """The resonance matrix (basic vector | dc/dr columns | eigenbases), one
    row per variable, and its determinant.  The determinant is zero unless
    the matrix is square, that is unless the free parameters number n, so
    the balance is principal iff it is nonzero."""
    columns = [column for _, column in resonance_matrix_columns(balance)]
    rows = tuple(zip(*columns))  # the basic vector is always a column
    det = poly_det(rows) if len(columns) == len(rows) else MultiPoly.zero()
    return rows, det


@dataclass(frozen=True)
class ResidualWitness:
    index: int
    order: int
    coefficient: MultiPoly


def residual_check(sys: ODESystem, balance: Balance) -> int | ResidualWitness:
    """Substitute the balance into u' - f and verify every coefficient of
    (t-t0)^o vanishes for o < order - k_max - 1; returns that bound."""
    k = balance.dominant.exponents
    bound = balance.order - max(k) - 1
    bindings = {name: balance.series(i) for i, name in enumerate(sys.u_symbols)}
    if not sys.autonomous:
        bindings[T_SYMBOL] = TIME_SERIES
    for i, name in enumerate(sys.u_symbols):
        derivative = bindings[name].var_derivative()
        rhs = substitute_poly(sys.rhs[i], bindings, order=bound)
        residual = derivative - rhs
        for o in sorted(residual.coeffs):
            if o >= bound:
                break
            if not residual.coeffs[o].is_zero:
                return ResidualWitness(index=i, order=o, coefficient=residual.coeffs[o])
    return bound


# ----------------------------------------------------------------------
# whole-system analysis


@dataclass(frozen=True)
class CandidateReport:
    exponents: tuple[int, ...]
    verdict: str  # principal | not_principal | fails:<stage>
    leading: tuple[MultiPoly, ...] | None = None
    detail: object = None
    K: RatMatrix | None = None
    structure: ResonanceStructure | None = None
    balance: Balance | None = None
    # (resonance matrix, determinant) of `check_principal`
    principal: tuple[tuple[tuple[MultiPoly, ...], ...], MultiPoly] | None = None


@dataclass
class AnalysisResult:
    candidates: list[CandidateReport]
    verdict: str

    def principal_candidates(self) -> list[CandidateReport]:
        return [c for c in self.candidates if c.verdict == "principal"]


_VERDICT_RANK = {
    "principal": 0,
    "not_principal": 1,
    "fails:resonance": 2,
    "fails:spectrum": 3,
    "fails:kowalevskian": 4,
    "fails:dominant": 5,
    "fails:exponents": 6,
}


def expanded_candidate(balance: Balance) -> CandidateReport:
    """The record of a candidate whose balance expanded, every field read
    from that balance: principal iff its resonance matrix is nonsingular."""
    principal = check_principal(balance)
    return CandidateReport(
        exponents=balance.dominant.exponents,
        verdict="not_principal" if principal[1].is_zero else "principal",
        leading=balance.dominant.leading,
        K=balance.structure.K,
        structure=balance.structure,
        balance=balance,
        principal=principal,
    )


def analyze_candidate(sys: ODESystem, equations, k, c, order: int | None) -> CandidateReport:
    """Dominant check, Kowalevskian, spectrum, expansion and principal check
    of one candidate (k, c) of the `dominant_equations` of k.  The declared
    parameters of `sys` name its resonance parameters when they fit: as many
    as it needs, and none of them in a right side or in the leading data."""
    dd = verify_dominant_balance(equations, k, c)
    if isinstance(dd, Rejected):
        return CandidateReport(k, "fails:dominant", detail=dd)
    try:
        K = kowalevskian(equations, dd)
    except NonConstantKowalevskian as err:
        return CandidateReport(k, "fails:kowalevskian", dd.leading, detail=str(err))
    rs = resonance_structure(K)
    if isinstance(rs, StructureFailure):
        return CandidateReport(k, "fails:spectrum", dd.leading, detail=rs, K=K)
    M = order if order is not None else max(rs.largest + 5, 2)
    names: tuple[str, ...] | None = sys.param_symbols
    if len(names) != needed_parameter_count(rs) or any(
        nm in f.symbols() for f in (*sys.rhs, *dd.leading) for nm in names
    ):
        names = None  # the declared names do not fit this candidate or already mean something
    balance = expand_balance(sys, dd, rs, M, names)
    if isinstance(balance, FailureAtResonance):
        return CandidateReport(k, "fails:resonance", dd.leading, detail=balance, K=K, structure=rs)
    return expanded_candidate(balance)


def analyze_system(
    sys: ODESystem,
    bound: int = DEFAULT_BOUND,
    order: int | None = None,
    exponents: tuple[int, ...] | None = None,
    leading: tuple[MultiPoly, ...] | None = None,
) -> AnalysisResult:
    """Run the full test: enumerate exponents, solve dominants, expand,
    classify.  Given `exponents`, and with them `leading`, the candidate is
    pinned instead of searched for; `leading` alone is a ValueError, since
    a leading vector solves the dominant balance of one exponent vector.  A
    pinned vector must lie in the searched box: k >= 0, k != 0, Fuchsian."""
    if leading is not None and exponents is None:
        raise ValueError("leading coefficients need the exponents they solve")
    candidates: list[CandidateReport] = []
    if exponents is not None:
        k = tuple(exponents)
        search = [k] if any(k) and min(k) >= 0 and is_fuchsian(sys, k) else []
    else:
        search = enumerate_fuchsian_exponents(sys, bound)
    if not search:
        return AnalysisResult([], "fails:exponents")

    for k in search:
        equations = dominant_equations(sys, k)
        solved = [leading] if leading is not None else solve_dominant(equations)
        if isinstance(solved, Unsolved):
            candidates.append(CandidateReport(k, "fails:dominant", detail=solved))
            continue
        candidates.extend(analyze_candidate(sys, equations, k, c, order) for c in solved)

    if not candidates:
        return AnalysisResult([], "fails:dominant")
    verdict = min((c.verdict for c in candidates), key=lambda v: _VERDICT_RANK.get(v, 9))
    return AnalysisResult(candidates, verdict)
