"""Independent check machinery for the test suite.

A deliberately separate implementation of univariate Laurent arithmetic over
Fraction (plain dicts, no package types) used to validate balances and
transformed systems by direct substitution at instantiated parameter values,
a reference balance recursion that expands f over the partial sums
with the series engine at every order (quadratic work per order), and a
reference exponent enumeration that tests every vector of the box,
the `MultiPoly` ring operations as first written: build the raw term dict,
then let the validating constructor `MultiPoly(vars, dict)` normalize it,
the product loop on exponent tuples that packed keys replaced,
series composition and reversion with one full series product per
order, the relaxed product coefficient over every pair (no squaring),
polynomial substitution over a table of truncated series powers,
resonance absorption by growing precision, the Taylor re-expansion of a
balance in t instead of t0, the transformed balance by composing the
Laurent balance with the inverted change of variable, the pick of pivot
rows with one rank per row, the dominant-balance solver that resolves its
substitution chain by repeated sweeps, the Lagrangian transversal found
by backtracking, and the exact linear algebra as first written: Gauss-Jordan
over Fraction entries carrying a polynomial right-hand column (which the
reference balance recursion solves with), Faddeev-LeVerrier over Fraction
matrices, the rational-root test by Fraction synthetic division, and the
printing of a polynomial (text and JSON term list) from Fraction
coefficients.  `char_poly` wraps the package's coefficients as a
polynomial for the tests that compare it; `column` and `matvec` read a
`RatMatrix` for the tests alone, and the
matrix J of the standard symplectic form, with the transpose, gives the
S^T J S = J checks a form that does not share the package's code.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as Q
from math import lcm
from operator import add, mul
from typing import Iterable, Mapping

from painleve import core
from painleve.algebra import (
    ROOT_SEARCH_CAP,
    Inconsistent,
    MultiPoly,
    RatMatrix,
    SearchIncomplete,
    ShapeError,
    _divisors,
    as_poly,
    char_poly_coeffs,
    rank,
    sum_of_products,
)
from painleve.core import (
    SERIES_VAR,
    T0_SYMBOL,
    Balance,
    DominantData,
    FailureAtResonance,
    ResonanceStructure,
    Unsolved,
    _divide_out,
    _monomial_content,
    _rational_roots,
)
from painleve.model import T_SYMBOL, HamiltonianSystem, ODESystem
from painleve.regularize import (
    ChangeOfVariable,
    NormalizedBalance,
    PivotSelectionError,
    Stage,
    TransformedBalance,
    _greedy_rows,
    _resonance_entry,
)
from painleve.series import (
    EXACT,
    NotReversible,
    TruncatedSeries,
    TruncationUnderflow,
    VariableMismatch,
    substitute_coeffs,
    substitute_poly,
)

Laurent = dict  # order -> Fraction


def ladd(a: Laurent, b: Laurent) -> Laurent:
    out = dict(a)
    for o, c in b.items():
        out[o] = out.get(o, Q(0)) + c
        if out[o] == 0:
            del out[o]
    return out


def lneg(a: Laurent) -> Laurent:
    return {o: -c for o, c in a.items()}


def lmul(a: Laurent, b: Laurent, cut: int) -> Laurent:
    out: Laurent = {}
    for oa, ca in a.items():
        for ob, cb in b.items():
            o = oa + ob
            if o >= cut:
                continue
            out[o] = out.get(o, Q(0)) + ca * cb
    return {o: c for o, c in out.items() if c != 0}


def lpow(a: Laurent, n: int, cut: int) -> Laurent:
    out = {0: Q(1)}
    for _ in range(n):
        out = lmul(out, a, cut)
    return out


def lderiv(a: Laurent) -> Laurent:
    return {o - 1: c * o for o, c in a.items() if o != 0}


def poly_series(poly, bindings: dict[str, Laurent], cut: int) -> Laurent:
    """Evaluate a package MultiPoly whose symbols are all bound to Laurent
    series (the only package API touched is the term structure)."""
    total: Laurent = {}
    for exps, coeff in poly.terms.items():
        term = {0: Q(coeff)}
        for name, e in zip(poly.symbols(), exps):
            if e:
                term = lmul(term, lpow(bindings[name], e, cut), cut)
        total = ladd(total, term)
    return total


def residual_orders(rhs_polys, bindings: dict[str, Laurent], names, cut: int):
    """Nonzero orders of u_i' - f_i(u) below the cut, per equation."""
    bad = []
    for name, f in zip(names, rhs_polys):
        lhs = lderiv(bindings[name])
        rhs = poly_series(f, bindings, cut)
        diff = ladd(lhs, lneg(rhs))
        bad.append(sorted(o for o, c in diff.items() if o < cut and c != 0))
    return bad


def expand_balance_by_substitution(
    sys: ODESystem,
    dd: DominantData,
    rs: ResonanceStructure,
    order: int,
    parameter_names: tuple[str, ...] | None = None,
) -> Balance | FailureAtResonance:
    """The balance recursion as the engine first ran it: at each order j,
    rebuild the partial sums as exact series, expand f over them with
    `substitute_poly_by_power_table` and keep the coefficient at j - k_i - 1."""
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

    name_iter = iter(parameter_names)
    by_resonance: dict[int, list[str]] = {}
    parameters: list[tuple[str, int]] = [(nm, 0) for nm in leading_params]
    for r, m in injected:
        by_resonance[r] = [next(name_iter) for _ in range(m)]
        parameters.extend((nm, r) for nm in by_resonance[r])

    coeffs: list[list[MultiPoly]] = [[as_poly(c)] for c in dd.leading]
    autonomous = sys.autonomous
    t_series = TruncatedSeries(SERIES_VAR, {0: MultiPoly.var(T0_SYMBOL), 1: 1}, EXACT)

    for j in range(1, order):
        rhs = []
        # the partial sums are finite Laurent polynomials, hence exact
        partials = {
            name: TruncatedSeries(
                SERIES_VAR,
                {jj - k[i]: coeffs[i][jj] for jj in range(j)},
                EXACT,
            )
            for i, name in enumerate(sys.u_symbols)
        }
        if not autonomous:
            partials[T_SYMBOL] = t_series
        for i in range(n):
            expanded = substitute_poly_by_power_table(sys.rhs[i], partials, order=j - k[i])
            rhs.append(-expanded.coeff(j - k[i] - 1))
        shifted = matrix_sub(K, matrix_scale(RatMatrix.identity(n), j))
        solution = solve_affine_by_elimination(shifted, rhs)
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


def enumerate_fuchsian_by_product(sys: ODESystem, bound: int) -> list[tuple[int, ...]]:
    """The exponent enumeration as the engine first ran it: every vector of
    the box {0..bound}^n, in `itertools.product` order, kept when each f_i
    has weighted degree at most k_i + 1."""
    found = []
    for k in itertools.product(range(bound + 1), repeat=sys.n):
        if not any(k):
            continue
        weights = dict(zip(sys.u_symbols, k))
        if any(
            f.weighted_degree(weights) is not None and f.weighted_degree(weights) > ki + 1
            for ki, f in zip(k, sys.rhs)
        ):
            continue
        found.append(k)
    return found


def solve_dominant_by_fixed_point(sys: ODESystem, k) -> list[tuple[Q, ...]] | Unsolved:
    """`core.solve_dominant` as first written: the same three moves, but the
    substitution chain is resolved by sweeping it until nothing changes (at
    most n + 1 sweeps), solutions are collected in a list and deduplicated
    afterwards, and a stall is checked before and after dropping the zero
    vector.  Reads `core.SEARCH_BUDGET` at call time."""
    names = [f"_c{i}" for i in range(sys.n)]
    equations = [e for e in core.dominant_equations(sys, k) if not e.is_zero]
    if any(T0_SYMBOL in e.symbols() for e in equations):
        return Unsolved("time-dependent dominant equations")

    solutions: list[dict[str, Q]] = []
    budget = [core.SEARCH_BUDGET]

    def finish(assignments: dict[str, MultiPoly]) -> None:
        values: dict[str, Q] = {}
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
        numbers = {nm: MultiPoly.const(v) for nm, v in values.items()}
        if all(eq.replace(numbers).is_zero for eq in equations):
            solutions.append(values)

    def search(eqs: list[MultiPoly], assignments: dict[str, MultiPoly], free: set[str]) -> None:
        if budget[0] <= 0:
            raise SearchIncomplete("search budget exhausted")
        budget[0] -= 1
        eqs = [e for e in eqs if not e.is_zero]
        if not eqs:
            if free:
                return
            finish(assignments)
            return
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
    except SearchIncomplete as incomplete:
        return Unsolved(str(incomplete))
    if stalled and not solutions:
        return Unsolved()

    out = []
    seen = set()
    for values in solutions:
        vec = tuple(values[nm] for nm in names)
        if all(v == 0 for v in vec):
            continue
        if vec not in seen:
            seen.add(vec)
            out.append(vec)
    out.sort()
    if not out and stalled:
        return Unsolved()
    return out


def _on_union(a: MultiPoly, b: MultiPoly):
    union = tuple(sorted(set(a.vars) | set(b.vars)))

    def widen(p: MultiPoly) -> dict:
        idx = [union.index(v) for v in p.vars]
        out = {}
        for exps, c in p.terms.items():
            key = [0] * len(union)
            for i, e in zip(idx, exps):
                key[i] = e
            out[tuple(key)] = c
        return out

    return union, widen(a), widen(b)


def poly_add(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    union, ta, tb = _on_union(a, b)
    raw = dict(ta)
    for e, c in tb.items():
        raw[e] = raw.get(e, Q(0)) + c
    return MultiPoly(union, raw)


def poly_neg(a: MultiPoly) -> MultiPoly:
    return MultiPoly(a.vars, {e: -c for e, c in a.terms.items()})


def poly_sub(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    return poly_add(a, poly_neg(b))


def poly_mul(a: MultiPoly, b) -> MultiPoly:
    if not isinstance(b, MultiPoly):
        return MultiPoly(a.vars, {e: c * Q(b) for e, c in a.terms.items()})
    union, ta, tb = _on_union(a, b)
    raw: dict = {}
    for ea, ca in ta.items():
        for eb, cb in tb.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            raw[key] = raw.get(key, Q(0)) + ca * cb
    return MultiPoly(union, raw)


def sum_of_products_by_tuples(pairs: Iterable[tuple[MultiPoly, MultiPoly]]) -> MultiPoly:
    """The product loop before packed keys: every pair's exponent tuples
    widened to the union of all symbols, keys built by adding tuples, left
    and right numerators over the lcm of their sides' denominators."""
    pairs = [(a, b) for a, b in pairs if a.terms and b.terms]
    if not pairs:
        return MultiPoly.zero()
    union = tuple(sorted({v for a, b in pairs for v in a.vars + b.vars}))

    def widen(p: MultiPoly) -> dict:
        idx = [union.index(v) for v in p.vars]
        out = {}
        for exps, c in p.terms.items():
            key = [0] * len(union)
            for i, e in zip(idx, exps):
                key[i] = e
            out[tuple(key)] = c
        return out

    da = lcm(*(c.denominator for a, _ in pairs for c in a.terms.values()))
    db = lcm(*(c.denominator for _, b in pairs for c in b.terms.values()))
    acc: dict[tuple[int, ...], int] = {}
    for a, b in pairs:
        right = [(e, c.numerator * (db // c.denominator)) for e, c in widen(b).items()]
        for ea, ca in widen(a).items():
            na = ca.numerator * (da // ca.denominator)
            for eb, nb in right:
                key = tuple(map(add, ea, eb))
                acc[key] = acc.get(key, 0) + na * nb
    d = da * db
    out = {e: Q(v, d) for e, v in acc.items() if v}
    return MultiPoly(union, out)


def poly_partial(a: MultiPoly, name: str) -> MultiPoly:
    if name not in a.vars:
        return MultiPoly((), {})
    i = a.vars.index(name)
    raw: dict = {}
    for exps, c in a.terms.items():
        if exps[i]:
            key = list(exps)
            key[i] -= 1
            raw[tuple(key)] = raw.get(tuple(key), Q(0)) + c * exps[i]
    return MultiPoly(a.vars, raw)


def poly_replace(a: MultiPoly, bindings: dict[str, MultiPoly]) -> MultiPoly:
    """Term by term: the coefficient times each bound factor's power
    (repeated `poly_mul`) times the unbound factors, summed by `poly_add`."""
    result = MultiPoly((), {})
    for exps, c in a.terms.items():
        part = MultiPoly((), {(): c})
        for v, e in zip(a.vars, exps):
            if v in bindings:
                for _ in range(e):
                    part = poly_mul(part, bindings[v])
            else:
                part = poly_mul(part, MultiPoly((v,), {(e,): 1}))
        result = poly_add(result, part)
    return result


def poly_degree_in(a: MultiPoly, name: str) -> int:
    if name not in a.vars:
        return 0
    i = a.vars.index(name)
    return max(exps[i] for exps in a.terms)


def poly_weighted_degree(a: MultiPoly, weights: Mapping[str, int]) -> int | None:
    if not a.terms:
        return None
    return max(sum(weights.get(v, 0) * e for v, e in zip(a.vars, exps)) for exps in a.terms)


def poly_weighted_part(a: MultiPoly, weights: Mapping[str, int], degree: int) -> MultiPoly:
    w = [weights.get(v, 0) for v in a.vars]
    return MultiPoly(a.vars, {e: c for e, c in a.terms.items() if sum(map(mul, w, e)) == degree})


def poly_sorted_terms(a: MultiPoly) -> list:
    """Total degree descending, then the exponent tuples descending."""
    by_exponents = sorted(a.terms.items(), reverse=True)
    return sorted(by_exponents, key=lambda t: sum(t[0]), reverse=True)


def convolve_unsymmetric(node, n: int, j: int) -> MultiPoly:
    """Coefficient n of a relaxed product node, its leaves known below j,
    with every pair (m, n - m) formed: a square node forms each of its
    symmetric pairs twice, as the engine did before it squared."""
    left, right = node.left.coeff, node.right.coeff
    pairs = []
    for m in range(n + 1):
        a = left(m, j)
        if a:
            pairs.append((a, right(n - m, j)))
    return sum_of_products(pairs)


def compose_by_power_loop(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """outer(inner(x)) as the engine first ran it: inner^lo, then one full
    product per order up to the outer's truncation, each power scaled by
    its coefficient and summed."""
    if outer.var != inner.var or inner.is_zero or inner.min_exp < 1:
        raise ValueError("reference compose needs one variable and an inner of positive order")
    if outer.is_zero:
        return TruncatedSeries.zero(outer.var, trunc=outer.trunc * inner.min_exp)
    lo = outer.min_exp
    hi = outer.trunc if outer.trunc < EXACT else outer.max_exp + 1
    if lo < 0:
        result_cap = hi * inner.min_exp
        inner = inner.truncate(min(inner.trunc, result_cap - lo * inner.min_exp + 2))
    power = inner**lo
    result = TruncatedSeries.zero(outer.var, trunc=EXACT)
    for j in range(lo, hi):
        c = outer.coeffs.get(j)
        if c is not None:
            result = result + power.scale(c)
        if j + 1 < hi:
            power = power * inner
    if outer.trunc >= EXACT:
        return result
    return result.truncate(min(result.trunc, outer.trunc * inner.min_exp))


def revert_by_power_loop(s: TruncatedSeries) -> TruncatedSeries:
    """Lagrange reversion as the engine first ran it: phi = (s/x)^(-1), then
    phi^n = phi^(n-1) * phi for every n below the truncation, reading
    [x^(n-1)] phi^n / n from each."""
    if s.is_zero or s.min_exp != 1:
        raise NotReversible("reversion needs min_exp exactly 1")
    phi = s.shift(-1).inverse()
    coeffs, power = {}, TruncatedSeries.constant(s.var, 1)
    for n in range(1, s.trunc):
        power = power * phi
        coeffs[n] = power.coeff(n - 1) * Q(1, n)
    return TruncatedSeries(s.var, coeffs, s.trunc)


def _power_table(
    bindings: Mapping[str, TruncatedSeries], wanted: Iterable[tuple[MultiPoly, int]]
) -> dict[str, list[TruncatedSeries]]:
    """x^1 .. x^e for each binding x, e its top degree in the polynomials; x^e at [e - 1].

    `wanted` pairs each polynomial with the order below which it is needed
    (EXACT: all of it).  A power is multiplied out only as far as a term
    needs it, given the orders its cofactors start at, and keeps its leading
    coefficient, so every order is as without the bounds.  Filled in a loop:
    a self-referencing closure would form a reference cycle that keeps every
    cached series alive until the cyclic collector runs.
    """
    low = {name: s._eff_min() for name, s in bindings.items()}
    need: dict[str, list[int]] = {}  # need[x][e - 1]: x^e is wanted below this
    for f, cap in wanted:
        for exps in f.terms:
            factors = [(nm, e) for nm, e in zip(f.symbols(), exps) if e and nm in bindings]
            lift = sum(e * low[nm] for nm, e in factors)
            for nm, e in factors:
                row = need.setdefault(nm, [])
                row.extend([-EXACT] * (e - len(row)))
                bound = EXACT if cap >= EXACT else cap - lift + e * low[nm]
                row[e - 1] = max(row[e - 1], bound, e * low[nm] + 1)
    table: dict[str, list[TruncatedSeries]] = {}
    for name, row in need.items():
        for e in range(len(row) - 1, 0, -1):
            row[e - 1] = max(row[e - 1], row[e] - low[name])
        table[name] = [bindings[name].truncate(row[0])]
        for bound in row[1:]:
            table[name].append(table[name][-1].truncate(bound - low[name]) * bindings[name])
    return table


def _expand(
    f: MultiPoly, powers: Mapping[str, list[TruncatedSeries]], var: str, cap: int
) -> TruncatedSeries:
    """f with the symbols of a `_power_table` replaced; exact below `cap`."""
    result = TruncatedSeries.zero(var, trunc=EXACT)
    min_possible = None
    for exps, c in f.terms.items():
        residual_vars = []
        residual_exps = []
        acc = TruncatedSeries.constant(var, c, trunc=EXACT)
        term_min = 0
        dead_term = False  # a zero-series factor makes the term vanish
        for name, e in zip(f.symbols(), exps):
            if e == 0:
                continue
            if name in powers:
                acc = acc * powers[name][e - 1]
                if powers[name][0].is_zero:
                    dead_term = True
                else:
                    term_min += e * powers[name][0]._eff_min()
            else:
                residual_vars.append(name)
                residual_exps.append(e)
        if residual_vars:
            acc = acc.scale(MultiPoly(tuple(residual_vars), {tuple(residual_exps): 1}))
        result = result + acc
        if not dead_term:
            min_possible = term_min if min_possible is None else min(min_possible, term_min)
    # the order cap never triggers underflow: claiming zeros below every
    # possible contribution is valid knowledge.  Only the bindings' own
    # truncations can starve the result (a defensive check: honest truncation
    # propagation always leaves at least the lowest product order claimable).
    if min_possible is not None and result.trunc <= min_possible and result.trunc < cap and powers:
        raise TruncationUnderflow(
            f"truncation {result.trunc} cannot reach the lowest possible order {min_possible}"
        )
    return result


def substitute_poly_by_power_table(
    f: MultiPoly,
    bindings: Mapping[str, TruncatedSeries],
    order: int = EXACT,
) -> TruncatedSeries:
    """`series.substitute_poly` as the engine first ran it: the powers of
    each binding multiplied out as truncated series (`_power_table`), each
    monomial expanded as a product of series (`_expand`)."""
    if not bindings:
        raise ValueError("substitute_poly needs at least one binding")
    var = next(iter(bindings.values())).var
    for s in bindings.values():
        if s.var != var:
            raise VariableMismatch("bindings use different series variables")
    if f.is_zero:
        return TruncatedSeries.zero(var, trunc=order)
    return _expand(f, _power_table(bindings, [(f, order)]), var, order).truncate(order)


def substitute_coeffs_by_power_table(s: TruncatedSeries, bindings: Mapping[str, TruncatedSeries]) -> TruncatedSeries:
    """`series.substitute_coeffs` as the engine first ran it, over one
    `_power_table` for all coefficients."""
    bound = {o: p for o, p in s.coeffs.items() if any(v in bindings for v in p.symbols())}
    if not bound:
        return s
    caps = {o: s.trunc - o if s.trunc < EXACT else EXACT for o in bound}
    powers = _power_table(bindings, [(p, caps[o]) for o, p in bound.items()])
    out = TruncatedSeries(s.var, {o: p for o, p in s.coeffs.items() if o not in bound}, EXACT)
    for o, poly in bound.items():
        out = out + _expand(poly, powers, s.var, caps[o]).shift(o)
    return out.truncate(s.trunc)


def absorb_resonances_by_growing_precision(
    nb: NormalizedBalance,
    var_order: tuple[int, ...] | None = None,
    rho_names: tuple[str, ...] | None = None,
    last_factor: Q | None = None,
) -> tuple[tuple[Stage, ...], dict[int, TruncatedSeries], tuple[int, ...]]:
    """`regularize.absorb_resonances` as the engine first ran it, with
    `substitute_coeffs_by_power_table` for every substitution.

    The block parameters X are the unique fixed point of X = A^(-1) (base -
    tails(X)): the tails start at order 1, so coefficient o of tails(X) reads
    X only below order o.  Pass `known` therefore fixes X exactly below
    `known`, and runs at that precision only (Brent & Kung's growing
    precision); the last pass reaches truncation M - lambda.
    """
    balance = nb.balance
    k = balance.dominant.exponents
    M = balance.order
    tau = nb.tau_name

    remaining = list(var_order) if var_order is not None else [
        i for i in range(balance.system.n) if i != nb.pivot
    ]
    if sorted(remaining) != sorted(i for i in range(balance.system.n) if i != nb.pivot):
        raise ValueError("var_order must enumerate the non-pivot variables")
    series = {i: nb.series[i] for i in remaining}
    params = list(balance.parameters)  # (name, resonance), resonance-sorted
    if rho_names is None:
        rho_names = tuple(f"rho{i}" for i in range(2, 2 + len(remaining)))
    if len(rho_names) != len(remaining):
        raise ValueError("need one rho name per non-pivot variable")
    if len(params) != len(remaining):
        raise ValueError("balance is not principal: parameter count != n - 1")

    rho_iter = iter(rho_names)
    stages: list[Stage] = []
    rows: dict[int, TruncatedSeries] = {}
    construction_order: list[int] = [nb.pivot]

    for lam in sorted({r for _, r in params}):
        block_params = [nm for nm, r in params if r == lam]
        m = len(block_params)
        later_params = [nm for nm, r in params if r > lam]

        # pivot block A[v][p] = d a_{v,lam} / d r_p over the remaining rows
        full = [[_resonance_entry(series, k, v, lam, nm) for nm in block_params] for v in remaining]
        if var_order is None:
            pick = _greedy_rows(full, m)
        else:
            pick = list(range(m))
            if rank([full[i] for i in pick]) != m:
                raise PivotSelectionError(
                    f"prescribed rows {remaining[:m]} give a singular block at resonance {lam}"
                )
        block_vars = [remaining[i] for i in pick]
        A = RatMatrix([full[i] for i in pick])
        Ainv = A.inverse()

        # record the substitution rows for the block variables
        names_here = []
        for v in block_vars:
            rho = next(rho_iter)
            names_here.append(rho)
            head = {}
            for o in series[v].orders():
                if o >= lam - k[v]:
                    break
                coeff = series[v].coeffs[o]
                bad = [s for s in coeff.symbols() if s in block_params or s in later_params]
                if bad:
                    raise AssertionError(
                        f"head coefficient depends on unabsorbed parameter {bad}"
                    )
                head[o] = coeff
            rows[v] = TruncatedSeries(tau, head, EXACT) + TruncatedSeries.monomial(
                tau, lam - k[v], MultiPoly.var(rho)
            )
            construction_order.append(v)

        # invert: express the block parameters as tau-series in the rho's
        rho_polys = [MultiPoly.var(nm) for nm in names_here]
        a_lam = [series[v].coeff(lam - k[v]) for v in block_vars]
        a_hat = [
            a.replace({nm: MultiPoly.const(0) for nm in block_params}) for a in a_lam
        ]
        tails = [
            series[v].slice_from(lam - k[v] + 1).shift(k[v] - lam) for v in block_vars
        ]
        base = [
            TruncatedSeries.constant(tau, rho_polys[r] - a_hat[r], trunc=EXACT)
            for r in range(m)
        ]
        # a pass that knows X below order known - 1 fixes it below `known`
        X: dict[str, TruncatedSeries] = {}
        for known in range(min(M - lam, 1), M - lam + 1):
            adjusted = [
                (base[r] - substitute_coeffs_by_power_table(tails[r].truncate(known), X)).truncate(known)
                for r in range(m)
            ]
            X = {
                nm: series_linear_combo(Ainv.row(r), adjusted, tau, known)
                for r, nm in enumerate(block_params)
            }

        # substitute into the variables that remain
        remaining = [v for v in remaining if v not in block_vars]
        for v in remaining:
            series[v] = substitute_coeffs_by_power_table(series[v], X)
        params = [(nm, r) for nm, r in params if nm not in block_params]
        stages.append(
            Stage(
                resonance=lam,
                rho_names=tuple(names_here),
                pivot_block=A,
                param_series=X,
                a_lam=tuple(a_lam),
            )
        )

    if last_factor is not None and rows:
        v, rho = construction_order[-1], stages[-1].rho_names[-1]
        rows[v] = rows[v] + TruncatedSeries.monomial(
            tau, stages[-1].resonance - k[v], MultiPoly.var(rho) * (last_factor - 1)
        )
    return tuple(stages), rows, tuple(construction_order)


def phi_row(cov: ChangeOfVariable, i: int) -> tuple[tuple[tuple[int, MultiPoly], ...], int, Q]:
    """(head, exponent, factor) of the row phi_i = head + factor * rho *
    tau^exponent of an absorbed variable, rho the row's own new variable:
    the head is every term free of rho, ascending in tau."""
    rho = cov.names[cov.order.index(i)]
    row = cov.phi[i]
    (expo,) = [o for o in row.orders() if rho in row.coeffs[o].symbols()]
    factor = row.coeffs[expo].partial(rho).constant_value()
    assert row.coeffs[expo] == MultiPoly.var(rho) * factor
    return tuple((o, row.coeffs[o]) for o in row.orders() if o != expo), expo, factor


def series_linear_combo(
    weights, series_list: list[TruncatedSeries], var: str, trunc: int
) -> TruncatedSeries:
    """sum w s over the nonzero weights, truncated."""
    total = TruncatedSeries.zero(var, trunc=EXACT)
    for w, s in zip(weights, series_list):
        if w != 0:
            total = total + s.scale(w)
    return total.truncate(trunc)


def reexpanded_coeffs_by_taylor(balance: Balance) -> list[list[MultiPoly]]:
    """The balance coefficients as polynomials in t instead of t0, by hand.

    Substituting t0 = t - (t-t0) and regathering powers turns a_{i,j}(t0)
    into sum_m (-1)^m/m! (d^m a_{i,j-m}/d t0^m)(t).  Exact because the
    time dependence is polynomial; a no-op for autonomous systems.
    """
    t0 = T0_SYMBOL
    if all(t0 not in p.symbols() for row in balance.coeffs for p in row):
        return [list(row) for row in balance.coeffs]
    out: list[list[MultiPoly]] = []
    t_poly = MultiPoly.var(T_SYMBOL)
    for row in balance.coeffs:
        new_row = []
        for j in range(len(row)):
            total = MultiPoly.zero()
            factor = Q(1)
            derivative = row[j]
            for m in range(j + 1):
                if m > 0:
                    factor *= Q(-1, m)
                    derivative = row[j - m]
                    for _ in range(m):
                        derivative = derivative.partial(t0)
                    if derivative.is_zero:
                        continue
                total = total + derivative.replace({t0: t_poly}) * factor
            new_row.append(total)
        out.append(new_row)
    return out


def transform_balance_by_composition(nb: NormalizedBalance, cov: ChangeOfVariable) -> TransformedBalance:
    """`regularize.transform_balance` as the engine first ran it: invert
    each row of the change of variable on the Laurent balance.

    With tau_s the normalization's tau as a series in t - t0, each rho is
    (u - head(tau_s, earlier rho's, t)) tau_s^(k - lambda) over the row's
    factor, one power of tau_s per exponent; `nb` must be the normalization
    of the balance at its full order.  tau(t0) = 0 with tau'(t0) = beta != 0,
    and each rho series must carry no negative orders.
    """
    balance = nb.balance
    t_series = TruncatedSeries(SERIES_VAR, {0: MultiPoly.var(T0_SYMBOL), 1: 1}, EXACT)
    tau_s = substitute_coeffs(nb.tau_in_dt, {T_SYMBOL: t_series})
    rho_series: dict[str, TruncatedSeries] = {}
    initial: dict[str, MultiPoly] = {}

    tau_pows: dict[int, TruncatedSeries] = {}

    def tau_power(e: int) -> TruncatedSeries:
        if e not in tau_pows:
            tau_pows[e] = tau_s**e
        return tau_pows[e]

    for i, rho_name in zip(cov.order[1:], cov.names[1:]):
        head, expo, factor = phi_row(cov, i)
        u_series = balance.series(i)
        head_total = TruncatedSeries.zero(SERIES_VAR, trunc=EXACT)
        for o, poly in head:
            if poly.is_zero:
                continue
            bound = {nm: rho_series[nm] for nm in poly.symbols() if nm in rho_series}
            if T_SYMBOL in poly.symbols():
                bound[T_SYMBOL] = t_series
            coeff_series = (
                substitute_poly(poly, bound, order=EXACT)
                if bound
                else TruncatedSeries.constant(SERIES_VAR, poly, trunc=EXACT)
            )
            head_total = head_total + coeff_series * tau_power(o)
        remainder = (u_series - head_total) * tau_power(-expo)
        rho = remainder.scale(1 / factor)
        if rho.min_exp is not None and rho.min_exp < 0:
            raise AssertionError(
                f"transformed balance for {rho_name} has a negative order "
                f"{rho.min_exp}: {rho.coeffs[rho.min_exp]}"
            )
        rho_series[rho_name] = rho
        initial[rho_name] = rho.coeff(0) if rho.trunc > 0 else MultiPoly.zero()
    return TransformedBalance(tau=tau_s, rho=rho_series, initial_values=initial)


def greedy_rows_by_rank(columns_matrix: list[list[Q]], m: int) -> list[int]:
    """Indices of the first rows whose submatrix reaches rank m, one rank
    computation per row tried."""
    chosen: list[int] = []
    picked_rows: list[list[Q]] = []
    for idx, row in enumerate(columns_matrix):
        trial = picked_rows + [row]
        if rank(trial) == len(trial):
            chosen.append(idx)
            picked_rows = trial
        if len(chosen) == m:
            return chosen
    raise PivotSelectionError("no invertible pivot block; balance is not principal")


def transversal_rows_by_backtracking(block: list[list[Q]], n: int) -> list[int] | None:
    """One of rows {i, n+i} per degree of freedom with the picked rows
    independent, by backtracking that prefers the q-row and checks each
    trial set with one rank."""
    choice: list[int] = []

    def backtrack(i: int, picked: list[list[Q]]) -> bool:
        if i == n:
            return True
        for pick in (i, n + i):
            trial = picked + [block[pick]]
            if rank(trial) == len(trial):
                choice.append(pick)
                if backtrack(i + 1, trial):
                    return True
                choice.pop()
        return False

    if not backtrack(0, []):
        return None
    return choice


# ----------------------------------------------------------------------
# exact linear algebra as first written: one Fraction per entry operation


def rref_by_fractions(rows, ncols: int | None = None):
    """Gauss-Jordan elimination over Fraction entries: each pivot row is
    divided by its pivot and subtracted from every other row.  Columns past
    `ncols` are carried along and may hold polynomials."""
    m = [list(row) for row in rows]
    if ncols is None:
        ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    swaps: list[tuple[int, int]] = []
    r = 0
    for col in range(ncols):
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            swaps.append((r, pivot))
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - y * f for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    return m, pivots, swaps


def column(matrix: RatMatrix, j: int) -> tuple[Q, ...]:
    return tuple(row[j] for row in matrix.data)


def matvec(matrix: RatMatrix, vec) -> list[Q]:
    """M v for a vector of rationals."""
    if len(vec) != matrix.cols:
        raise ShapeError("matvec shape mismatch")
    return [sum((a * Q(b) for a, b in zip(row, vec)), Q(0)) for row in matrix.data]


def solve_affine_by_elimination(matrix: RatMatrix, rhs) -> tuple[MultiPoly, ...] | Inconsistent:
    """`solve_affine` by eliminating [M | b] with the polynomial column b
    carried through every row operation."""
    n = matrix.rows
    m, pivots, _ = rref_by_fractions(
        [list(row) + [as_poly(b)] for row, b in zip(matrix.data, rhs)], n
    )
    for row in m[len(pivots) :]:
        if not row[n].is_zero:
            return Inconsistent(witness=row[n])
    particular = [MultiPoly.zero()] * n
    for row, col in zip(m, pivots):
        particular[col] = row[n]
    return tuple(particular)


def char_poly_coeffs_by_fractions(matrix: RatMatrix) -> list[Q]:
    """Faddeev-LeVerrier over Fraction matrices: aux_k = M aux_(k-1) + c I."""
    n = matrix.rows
    coeffs = [Q(0)] * (n + 1)
    coeffs[n] = Q(1)
    aux = RatMatrix.identity(n)
    for k in range(1, n + 1):
        aux = matrix * aux
        c = -trace(aux) / k
        coeffs[n - k] = c
        if k < n:
            aux = matrix_add(aux, matrix_scale(RatMatrix.identity(n), c))
    return coeffs


def char_poly(matrix: RatMatrix, var: str = "lambda") -> MultiPoly:
    """Exact monic characteristic polynomial det(x*I - M) from the package's
    `char_poly_coeffs`."""
    return MultiPoly((var,), {(i,): c for i, c in enumerate(char_poly_coeffs(matrix))})


def rational_roots_by_synthetic_division(coeffs) -> list[Q] | None:
    """`rational_roots` with each candidate p/q tested by a Fraction Horner
    evaluation of the integer-cleared polynomial."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    if not ints:
        return None
    v = 0
    while ints[v] == 0:
        v += 1
    roots = {Q(0)} if v else set()
    ints = ints[v:]
    const, lead = ints[0], ints[-1]
    if len(ints) == 2:
        roots.add(Q(-const, lead))
    elif len(ints) > 2:
        if abs(const) > ROOT_SEARCH_CAP or abs(lead) > ROOT_SEARCH_CAP:
            raise SearchIncomplete("rational-root search capped")
        for p in _divisors(const):
            for q in _divisors(lead):
                for cand in (Q(p, q), Q(-p, q)):
                    acc = Q(0)
                    for c in reversed(ints):
                        acc = acc * cand + c
                    if acc == 0:
                        roots.add(cand)
    return sorted(roots)


def poly_json(poly: MultiPoly) -> list:
    """`algebra.poly_json`: [str(Fraction), {symbol: exponent}] per term, in
    the order of `poly_sorted_terms`."""
    return [[str(c), {v: e for v, e in zip(poly.vars, exps) if e}] for exps, c in poly_sorted_terms(poly)]


def poly_str(poly: MultiPoly) -> str:
    """`str(MultiPoly)` with the sign and size of each coefficient taken
    from Fractions, in the order of `poly_sorted_terms`."""
    if not poly.terms:
        return "0"
    parts = []
    for exps, c in poly_sorted_terms(poly):
        factors = []
        for v, e in zip(poly.vars, exps):
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append(f"{v}^{e}")
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


# ----------------------------------------------------------------------
# helpers only the tests use


def agrees_with(a: TruncatedSeries, b: TruncatedSeries, upto: int | None = None) -> bool:
    """Equality of coefficients on the common valid range (orders < bound)."""
    if a.var != b.var:
        raise VariableMismatch(f"{a.var} vs {b.var}")
    bound = min(a.trunc, b.trunc) if upto is None else min(a.trunc, b.trunc, upto)
    orders = {o for o in a.coeffs if o < bound} | {o for o in b.coeffs if o < bound}
    zero = MultiPoly.zero()
    return all(a.coeffs.get(o, zero) == b.coeffs.get(o, zero) for o in orders)


def print_system(sys: ODESystem) -> str:
    """Render a system back into the input grammar (round-trip stable)."""
    lines = ["system", "vars: " + ",".join(sys.u_symbols)]
    if sys.param_symbols:
        lines.append("params: " + ",".join(sys.param_symbols))
    for name, f in zip(sys.u_symbols, sys.rhs):
        lines.append(f"{name}' = {f}")
    return "\n".join(lines) + "\n"


def print_hamiltonian(hs: HamiltonianSystem) -> str:
    lines = [
        "hamiltonian",
        "vars: " + ",".join(hs.q_symbols) + "; " + ",".join(hs.p_symbols),
    ]
    if hs.param_symbols:
        lines.append("params: " + ",".join(hs.param_symbols))
    lines.append(f"H = {hs.H}")
    return "\n".join(lines) + "\n"


def resonance_matrix(nb: NormalizedBalance) -> RatMatrix:
    """R after the normalization: one row per remaining variable, one
    column per remaining parameter; entries must be rational constants."""
    balance = nb.balance
    k = balance.dominant.exponents
    return RatMatrix([
        [_resonance_entry(nb.series, k, i, r, nm) for nm, r in balance.parameters]
        for i in range(balance.system.n)
        if i != nb.pivot
    ])


def zeros(rows: int, cols: int) -> RatMatrix:
    return RatMatrix([[0] * cols for _ in range(rows)])


def trace(m: RatMatrix) -> Q:
    assert m.is_square(), "trace of a non-square matrix"
    return sum((m.data[i][i] for i in range(m.rows)), Q(0))


def matrix_add(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeError("matrix addition shape mismatch")
    return RatMatrix([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.data, b.data)])


def matrix_scale(m: RatMatrix, factor) -> RatMatrix:
    f = Q(factor)
    return RatMatrix([[x * f for x in row] for row in m.data])


def matrix_sub(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    return matrix_add(a, matrix_scale(b, -1))


def from_columns(columns) -> RatMatrix:
    """The matrix whose columns are the given vectors."""
    return RatMatrix([list(row) for row in zip(*columns)])


def transpose(m: RatMatrix) -> RatMatrix:
    return from_columns(m.data)


def J_matrix(n: int) -> RatMatrix:
    """The standard symplectic matrix [[0, I], [-I, 0]] of size 2n, from its
    blocks: the matrix form of `hamiltonian.symplectic_product`."""
    identity = RatMatrix.identity(n).data
    return RatMatrix(
        [[0] * n + list(row) for row in identity] + [[-x for x in row] + [0] * n for row in identity]
    )


def is_symplectic(S: RatMatrix) -> bool:
    """S^T J S = J, by matrix products."""
    J = J_matrix(S.rows // 2)
    return transpose(S) * J * S == J
