"""The Painleve test: exponent search, dominant balances, resonances, expansion.

A balance is a formal Laurent solution u_i = sum_j a_{i,j} (t-t0)^(j-k_i).
The leading exponents k must satisfy the Fuchsian inequality (weighted
degree of f_i at most k_i + 1), which makes the coefficient recursion
linear with the constant matrix K - jI, where K is the Kowalevskian matrix.
Integer eigenvalues of K are the resonances: the orders at which free
parameters can enter the series.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    Inconsistent,
    MultiPoly,
    NonIntegerSpectrum,
    Q,
    RatMatrix,
    _SearchIncomplete,
    as_poly,
    integer_eigen_data,
    poly_det,
    rational_roots,
    solve_affine,
)
from .model import BalanceSpec, ODESystem
from .series import EXACT, RelaxedSubstitution, TruncatedSeries, substitute_poly

T0_SYMBOL = "t0"
SERIES_VAR = "dt"  # stands for (t - t0)


class NonConstantKowalevskian(ValueError):
    """A Kowalevskian entry failed to evaluate to a rational constant."""


# ----------------------------------------------------------------------
# dominant data


@dataclass(frozen=True)
class DominantData:
    exponents: tuple[int, ...]
    leading: tuple[MultiPoly, ...]
    fuchsian: bool = True

    def weights(self, sys: ODESystem) -> dict[str, int]:
        return dict(zip(sys.u_symbols, self.exponents))


@dataclass(frozen=True)
class Rejected:
    """A proposed dominant balance fails; carries the first failing equation."""

    index: int
    residual: MultiPoly


@dataclass(frozen=True)
class Unsolved:
    """The elimination stalled; leading coefficients must be user-supplied."""

    reason: str = "elimination stalled"


def dominant_part(f: MultiPoly, weights: dict[str, int], degree: int | None = None) -> MultiPoly:
    """Terms of f with the designated weighted degree.

    With `degree` given this is the Fuchsian slice (used at degree k_i + 1);
    without it, the slice at the highest occurring weighted degree.
    """
    if f.is_zero:
        return f
    if degree is None:
        degree = f.weighted_degree(weights)
    w = [weights.get(v, 0) for v in f.symbols()]
    kept = {
        exps: c
        for exps, c in f.terms.items()
        if sum(wi * ei for wi, ei in zip(w, exps)) == degree
    }
    return MultiPoly(f.symbols(), kept)


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


def enumerate_fuchsian_exponents(
    sys: ODESystem, bound: int = 10
) -> list[tuple[tuple[int, ...], bool]]:
    """All exponent vectors 0 <= k_i <= bound (not all zero) passing the
    Fuchsian inequality, tagged with the natural-candidate filter, in
    lexicographic order.

    The tag is a necessary condition for a balance with every c_i nonzero:
    each equation must either have a nonempty slice at degree k_i + 1 or
    have k_i = 0.

    The search assigns k_1, k_2, ... depth first and drops a prefix as soon
    as a partial weighted degree exceeds its cap: k_i + 1 once k_i is
    assigned, bound + 1 before (the unassigned part of k . m is
    non-negative and k_i <= bound).  Its cost follows the Fuchsian set, not
    the (bound + 1)^n vectors it stands for.  A search that tries more than
    EXPONENT_BUDGET values of some k_i raises ValueError, with no partial list.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    n = sys.n
    rows = [(i, m) for i, ms in enumerate(_exponent_rows(sys)) for m in ms]
    k = [0] * n
    found = []
    budget = [EXPONENT_BUDGET]

    def extend(d: int, sums: list[int]) -> None:
        # sums[r] is the weighted degree of row r over k_1..k_d
        if d == n:
            if any(k):
                natural = all(
                    ki == 0 or any(s == ki + 1 for s, (i, _) in zip(sums, rows) if i == e)
                    for e, ki in enumerate(k)
                )
                found.append((tuple(k), natural))
            return
        for v in range(bound + 1):
            budget[0] -= 1
            if budget[0] < 0:
                raise ValueError("exponent search space too large; lower the bound")
            k[d] = v
            grown = [s + v * m[d] for s, (_, m) in zip(sums, rows)]
            # the cap of equation d grows with v, so a failure here may pass at v + 1
            if all(s <= (k[i] + 1 if i <= d else bound + 1) for s, (i, _) in zip(grown, rows)):
                extend(d + 1, grown)

    extend(0, [0] * len(rows))
    return found


def _dominant_residuals(sys: ODESystem, k, c_polys) -> list[MultiPoly]:
    """f_i^D(t0, c) + k_i c_i for each equation (zero iff the balance holds)."""
    weights = dict(zip(sys.u_symbols, k))
    bindings = {name: poly for name, poly in zip(sys.u_symbols, c_polys)}
    bindings[sys.t_symbol] = MultiPoly.var(T0_SYMBOL)
    out = []
    for ki, f, ci in zip(k, sys.rhs, c_polys):
        fd = dominant_part(f, weights, ki + 1)
        out.append(fd.replace(bindings) + ci * ki)
    return out


def verify_dominant_balance(sys: ODESystem, k, c) -> DominantData | Rejected:
    """Check f_i^D(t0, c) = -k_i c_i symbolically for every equation."""
    k = tuple(int(x) for x in k)
    c_polys = tuple(as_poly(x) for x in c)
    if len(k) != sys.n or len(c_polys) != sys.n:
        raise ValueError("exponent and leading vectors must have length n")
    for index, residual in enumerate(_dominant_residuals(sys, k, c_polys)):
        if not residual.is_zero:
            return Rejected(index=index, residual=residual)
    return DominantData(exponents=k, leading=c_polys, fuchsian=is_fuchsian(sys, k))


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


def solve_dominant(
    sys: ODESystem, k, require_nonzero: bool = False
) -> list[tuple[Fraction, ...]] | Unsolved:
    """Rational solutions of the dominant-balance equations by successive
    elimination.

    Three moves, repeated until nothing is left: substitute an equation that
    is linear in one unknown with a nonzero constant coefficient; branch on
    the rational roots of an equation univariate in one unknown; branch on a
    common monomial factor (the variable vanishes, or divide it out).
    Anything that still stalls, or leaves a parameterized family, is reported
    Unsolved and the caller must supply the leading coefficients explicitly.
    So is a search that runs past SEARCH_BUDGET nodes or meets a coefficient
    above algebra.ROOT_SEARCH_CAP, since its solutions may be incomplete.
    """
    k = tuple(int(x) for x in k)
    names = [f"_c{i}" for i in range(sys.n)]
    c_polys = [MultiPoly.var(nm) for nm in names]
    equations = [e for e in _dominant_residuals(sys, k, c_polys) if not e.is_zero]
    if any(T0_SYMBOL in e.symbols() for e in equations):
        return Unsolved("time-dependent dominant equations")

    solutions: list[dict[str, Fraction]] = []
    budget = [SEARCH_BUDGET]

    def finish(assignments: dict[str, MultiPoly]) -> None:
        # resolve the substitution chain to numbers; drop families
        values: dict[str, Fraction] = {}
        pending = dict(assignments)
        for _ in range(len(names) + 1):
            progress = False
            for nm, expr in list(pending.items()):
                resolved = expr.replace({m: MultiPoly.const(v) for m, v in values.items()})
                if resolved.is_constant:
                    values[nm] = resolved.constant_value()
                    del pending[nm]
                    progress = True
                else:
                    pending[nm] = resolved
            if not pending:
                break
            if not progress:
                return
        if pending or set(values) != set(names):
            return
        # branching may overshoot (divided-out factors): verify on the
        # originals, identically in any parameters they carry
        numbers = {nm: MultiPoly.const(v) for nm, v in values.items()}
        if all(eq.replace(numbers).is_zero for eq in equations):
            solutions.append(values)

    def search(eqs: list[MultiPoly], assignments: dict[str, MultiPoly], free: set[str]) -> None:
        if budget[0] <= 0:
            raise _SearchIncomplete("search budget exhausted")
        budget[0] -= 1
        eqs = [e for e in eqs if not e.is_zero]
        if not eqs:
            if free:
                return  # parameterized family: not auto-emitted
            finish(assignments)
            return
        # rule 1: equation linear in an unknown with constant coefficient
        for i, eq in enumerate(eqs):
            for nm in eq.symbols():
                if nm not in free or eq.degree_in(nm) != 1:
                    continue
                coeff = eq.partial(nm)
                if not coeff.is_constant:
                    continue
                a = coeff.constant_value()
                expr = (eq.replace({nm: MultiPoly.const(0)})) * (Q(-1) / a)
                rest = [e.replace({nm: expr}) for e in eqs[:i] + eqs[i + 1 :]]
                search(rest, {**assignments, nm: expr}, free - {nm})
                return
        # rule 2: univariate equation, branch on rational roots
        for i, eq in enumerate(eqs):
            syms = [s for s in eq.symbols() if s in free]
            if len(syms) != 1 or len(eq.symbols()) != len(syms):
                continue
            nm = syms[0]
            roots = _rational_roots(eq, nm)
            if roots is None:
                continue
            rest = eqs[:i] + eqs[i + 1 :]
            for root in roots:
                search(
                    [e.replace({nm: MultiPoly.const(root)}) for e in rest],
                    {**assignments, nm: MultiPoly.const(root)},
                    free - {nm},
                )
            return
        # rule 3: common monomial factor: the variable vanishes or divides out
        for i, eq in enumerate(eqs):
            for nm in eq.symbols():
                if nm not in free:
                    continue
                content = _monomial_content(eq, nm)
                if content < 1:
                    continue
                zero = MultiPoly.const(0)
                rest = eqs[:i] + eqs[i + 1 :]
                search(
                    [e.replace({nm: zero}) for e in rest],
                    {**assignments, nm: zero},
                    free - {nm},
                )
                search(
                    eqs[:i] + [_divide_out(eq, nm, content)] + eqs[i + 1 :],
                    assignments,
                    free,
                )
                return
        stalled.append(True)

    stalled: list[bool] = []
    try:
        search(equations, {}, set(names))
    except _SearchIncomplete as incomplete:
        return Unsolved(str(incomplete))
    if stalled and not solutions:
        return Unsolved()

    out = []
    seen = set()
    for values in solutions:
        vec = tuple(values[nm] for nm in names)
        if all(v == 0 for v in vec):
            continue
        if require_nonzero and any(v == 0 for v in vec):
            continue
        if vec not in seen:
            seen.add(vec)
            out.append(vec)
    out.sort()
    if not out and stalled:
        return Unsolved()
    return out


def solve_natural_dominant(sys: ODESystem, k) -> list[tuple[Fraction, ...]] | Unsolved:
    """Dominant-balance solutions with every leading coefficient nonzero."""
    return solve_dominant(sys, k, require_nonzero=True)


# ----------------------------------------------------------------------
# Kowalevskian matrix and resonances


def kowalevskian(sys: ODESystem, dd: DominantData) -> RatMatrix:
    """K = d(f^D)/d(u) at (t0, c) plus diag(k)."""
    if not dd.fuchsian:
        raise ValueError("Kowalevskian matrix requires Fuchsian exponents")
    weights = dd.weights(sys)
    bindings = {name: poly for name, poly in zip(sys.u_symbols, dd.leading)}
    bindings[sys.t_symbol] = MultiPoly.var(T0_SYMBOL)
    rows = []
    for i, (ki, f) in enumerate(zip(dd.exponents, sys.rhs)):
        fd = dominant_part(f, weights, ki + 1)
        row = []
        for j, name in enumerate(sys.u_symbols):
            entry = fd.partial(name).replace(bindings)
            if not entry.is_constant:
                raise NonConstantKowalevskian(
                    f"entry ({i},{j}) is not a rational constant: {entry}"
                )
            row.append(entry.constant_value() + (ki if i == j else 0))
        rows.append(row)
    return RatMatrix(rows)


@dataclass(frozen=True)
class ResonanceStructure:
    K: RatMatrix
    resonances: tuple[int, ...]  # -1 first, strictly increasing
    multiplicities: tuple[int, ...]
    eigenbases: dict[int, tuple[tuple[Fraction, ...], ...]]

    @property
    def partial_sums(self) -> tuple[int, ...]:
        sums = []
        total = 0
        for m in self.multiplicities:
            total += m
            sums.append(total)
        return tuple(sums)

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
        spectrum = integer_eigen_data(K)
    except _SearchIncomplete as incomplete:
        return StructureFailure("spectrum_search_capped", str(incomplete))
    if isinstance(spectrum, NonIntegerSpectrum):
        return StructureFailure("non_integer_spectrum", spectrum.remainder)
    negatives = [p.value for p in spectrum.pairs if p.value < -1]
    if negatives:
        return StructureFailure("negative_resonance", tuple(negatives))
    minus_one = next((p for p in spectrum.pairs if p.value == -1), None)
    if minus_one is None or minus_one.geometric != 1 or minus_one.algebraic != 1:
        return StructureFailure(
            "minus_one_multiplicity", 0 if minus_one is None else minus_one.geometric
        )
    bad = [p.value for p in spectrum.pairs if p.geometric != p.algebraic]
    if bad:
        return StructureFailure("not_diagonalizable", tuple(bad))
    return ResonanceStructure(
        K=K,
        resonances=tuple(p.value for p in spectrum.pairs),
        multiplicities=tuple(p.algebraic for p in spectrum.pairs),
        eigenbases={p.value: p.basis for p in spectrum.pairs},
    )


def basic_resonance_vector(dd: DominantData) -> tuple[MultiPoly, ...]:
    return tuple(-(ki * ci) for ki, ci in zip(dd.exponents, dd.leading))


def basic_resonance_check(dd: DominantData, K: RatMatrix) -> bool:
    """(K + I)(-k1 c1, ..., -kn cn)^T = 0 with a nonzero vector."""
    vec = basic_resonance_vector(dd)
    if all(v.is_zero for v in vec):
        return False
    n = K.rows
    shifted = K + RatMatrix.identity(n)
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
    t0_symbol: str = T0_SYMBOL

    def series(self, i: int, trunc: int | None = None) -> TruncatedSeries:
        ki = self.dominant.exponents[i]
        coeffs = {j - ki: self.coeffs[i][j] for j in range(self.order)}
        return TruncatedSeries(SERIES_VAR, coeffs, self.order - ki if trunc is None else trunc)

    def time_series(self) -> TruncatedSeries:
        """The time symbol as the exact series t0 + dt."""
        return TruncatedSeries(SERIES_VAR, {0: MultiPoly.var(self.t0_symbol), 1: 1}, EXACT)

    @property
    def n_s(self) -> int:
        return 1 + len(self.parameters)


@dataclass(frozen=True)
class FailureAtResonance:
    """The recursion is inconsistent at a resonance: a genuine test failure."""

    j: int
    witness: MultiPoly


def needed_parameter_count(rs: ResonanceStructure) -> int:
    """Number of fresh parameters the expansion will inject (resonances >= 1)."""
    return sum(m for r, m in zip(rs.resonances, rs.multiplicities) if r >= 1)


class _RecursionRhs:
    """[x^(j - k_i - 1)] f_i(U_{<j}) for each i, one order j at a time.

    U_{<j} are the partial sums of the balance, read from `coeffs`, whose
    lists the recursion extends in place; the time symbol is t0 + x.  Each
    f_i is one term list of a `RelaxedSubstitution` over those lists, so an
    order costs O(j) coefficient products instead of the O(j^2) of
    expanding f(U_{<j}).
    """

    def __init__(self, sys: ODESystem, k: tuple[int, ...], coeffs: list[list[MultiPoly]]):
        lists = dict(zip(sys.u_symbols, coeffs))
        first = {name: -ki for name, ki in zip(sys.u_symbols, k)}
        if not sys.autonomous:
            lists[sys.t_symbol] = [MultiPoly.var(T0_SYMBOL), MultiPoly.const(1)]
            first[sys.t_symbol] = 0
        self.sub = RelaxedSubstitution(lists, first)
        self.k = k
        self.terms = [self.sub.terms(f) for f in sys.rhs]

    def __call__(self, j: int) -> list[MultiPoly]:
        return [self.sub.coeff(terms, j - ki - 1, j) for ki, terms in zip(self.k, self.terms)]


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
    needed = sum(m for _, m in injected)
    if parameter_names is None:
        parameter_names = tuple(
            f"r{i}" for i in range(2 + len(leading_params), 2 + len(leading_params) + needed)
        )
    if len(parameter_names) != needed:
        raise ValueError(f"need {needed} parameter names, got {len(parameter_names)}")
    if order <= rs.largest:
        raise ValueError(f"order must exceed the largest resonance {rs.largest}")

    name_iter = iter(parameter_names)
    by_resonance: dict[int, list[str]] = {}
    parameters: list[tuple[str, int]] = [(nm, 0) for nm in leading_params]
    for r, m in injected:
        by_resonance[r] = [next(name_iter) for _ in range(m)]
        parameters.extend((nm, r) for nm in by_resonance[r])

    coeffs: list[list[MultiPoly]] = [[as_poly(c)] for c in dd.leading]
    rhs_at = _RecursionRhs(sys, k, coeffs)

    for j in range(1, order):
        rhs = [-c for c in rhs_at(j)]
        shifted = K - RatMatrix.identity(n).scale(j)
        solution = solve_affine(shifted, rhs)
        if isinstance(solution, Inconsistent):
            return FailureAtResonance(j=j, witness=solution.witness)
        a_j = list(solution.particular)
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


@dataclass(frozen=True)
class PrincipalVerdict:
    principal: bool
    n_s: int
    n: int
    resonance_matrix: tuple[tuple[MultiPoly, ...], ...]
    det: MultiPoly


def check_principal(balance: Balance) -> PrincipalVerdict:
    """Principal iff the free-parameter count is n and the resonance matrix
    (basic vector | dc/dr columns | eigenbases) has nonzero determinant."""
    n = balance.system.n
    columns: list[list[MultiPoly]] = [list(basic_resonance_vector(balance.dominant))]
    for name, r in balance.parameters:
        if r == 0:
            columns.append([c.partial(name) for c in balance.dominant.leading])
        else:
            idx = balance.structure.eigenbases[r]
            names_at_r = [nm for nm, rr in balance.parameters if rr == r]
            column = idx[names_at_r.index(name)]
            columns.append([as_poly(x) for x in column])
    n_s = len(columns)
    rows = [[columns[jc][ir] for jc in range(n_s)] for ir in range(n)]
    if n_s == n:
        det = poly_det(rows)
    else:
        det = MultiPoly.zero()
    return PrincipalVerdict(
        principal=(n_s == n and not det.is_zero),
        n_s=n_s,
        n=n,
        resonance_matrix=tuple(tuple(r) for r in rows),
        det=det,
    )


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
        bindings[sys.t_symbol] = balance.time_series()
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


@dataclass
class CandidateReport:
    exponents: tuple[int, ...]
    natural: bool
    stage: str  # dominant | kowalevskian | spectrum | resonance | balance
    verdict: str  # principal | not_principal | fails:<stage>
    leading: tuple[MultiPoly, ...] | None = None
    detail: object = None
    K: RatMatrix | None = None
    structure: ResonanceStructure | None = None
    balance: Balance | None = None
    principal: PrincipalVerdict | None = None


@dataclass
class AnalysisResult:
    system: ODESystem
    bound: int
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


def _candidate_for(
    sys: ODESystem,
    k: tuple[int, ...],
    c,
    natural: bool,
    order: int | None,
    parameter_names: tuple[str, ...] | None,
) -> CandidateReport:
    report = CandidateReport(exponents=k, natural=natural, stage="dominant", verdict="fails:dominant")
    dd = verify_dominant_balance(sys, k, c)
    if isinstance(dd, Rejected):
        report.detail = dd
        return report
    report.leading = dd.leading
    report.stage = "kowalevskian"
    try:
        K = kowalevskian(sys, dd)
    except NonConstantKowalevskian as err:
        report.verdict = "fails:kowalevskian"
        report.detail = str(err)
        return report
    report.K = K
    report.stage = "spectrum"
    rs = resonance_structure(K)
    if isinstance(rs, StructureFailure):
        report.verdict = "fails:spectrum"
        report.detail = rs
        return report
    report.structure = rs
    report.stage = "resonance"
    M = order if order is not None else max(rs.largest + 5, 2)
    if parameter_names is not None and len(parameter_names) != needed_parameter_count(rs):
        parameter_names = None  # declared names do not fit this candidate
    balance = expand_balance(sys, dd, rs, M, parameter_names)
    if isinstance(balance, FailureAtResonance):
        report.verdict = "fails:resonance"
        report.detail = balance
        return report
    report.balance = balance
    report.stage = "balance"
    verdict = check_principal(balance)
    report.principal = verdict
    report.verdict = "principal" if verdict.principal else "not_principal"
    return report


def analyze_system(
    sys: ODESystem,
    bound: int = 10,
    order: int | None = None,
    spec: BalanceSpec | None = None,
) -> AnalysisResult:
    """Run the full test: enumerate exponents, solve dominants, expand,
    classify.  A BalanceSpec pins the exponents and/or leading data instead
    of searching."""
    candidates: list[CandidateReport] = []
    spec_order = order
    names: tuple[str, ...] | None = None
    if spec is not None:
        spec_order = spec.order or order
        names = spec.parameter_names or None

    if spec is not None and spec.exponents is not None:
        k = tuple(spec.exponents)
        pairs: list[tuple[tuple[int, ...], bool]] = [(k, True)] if is_fuchsian(sys, k) else []
        if not pairs:
            return AnalysisResult(sys, bound, [], "fails:exponents")
    else:
        pairs = enumerate_fuchsian_exponents(sys, bound)
        if not pairs:
            return AnalysisResult(sys, bound, [], "fails:exponents")

    for k, natural in sorted(pairs):
        if spec is not None and spec.leading is not None:
            leadings: list = [spec.leading]
        else:
            solved = solve_dominant(sys, k)
            if isinstance(solved, Unsolved):
                candidates.append(
                    CandidateReport(
                        exponents=k,
                        natural=natural,
                        stage="dominant",
                        verdict="fails:dominant",
                        detail=solved,
                    )
                )
                continue
            leadings = solved
        for c in leadings:
            candidates.append(_candidate_for(sys, k, c, natural, spec_order, names))

    if not candidates:
        return AnalysisResult(sys, bound, [], "fails:dominant")
    verdict = min((c.verdict for c in candidates), key=lambda v: _VERDICT_RANK.get(v, 9))
    return AnalysisResult(sys, bound, candidates, verdict)
