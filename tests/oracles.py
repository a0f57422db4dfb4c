"""Independent check machinery for the test suite.

A deliberately separate implementation of univariate Laurent arithmetic over
Fraction (plain dicts, no package types) used to validate balances and
transformed systems by direct substitution at instantiated parameter values,
a reference balance recursion that expands f over the partial sums
with the series engine at every order (quadratic work per order), and a
reference exponent enumeration that tests every vector of the box,
the `MultiPoly` ring operations as first written: build the raw term dict,
then let the validating constructor `MultiPoly(vars, dict)` normalize it,
and series composition and reversion with one full series product per
order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction as Q

from painleve.algebra import Inconsistent, MultiPoly, RatMatrix, as_poly, solve_affine
from painleve.core import (
    SERIES_VAR,
    T0_SYMBOL,
    Balance,
    DominantData,
    FailureAtResonance,
    ResonanceStructure,
    dominant_part,
)
from painleve.model import ODESystem
from painleve.series import EXACT, NotReversible, TruncatedSeries, substitute_poly

Laurent = dict  # order -> Fraction


def lseries(items) -> Laurent:
    return {o: Q(c) for o, c in dict(items).items() if Q(c) != 0}


def ladd(a: Laurent, b: Laurent) -> Laurent:
    out = dict(a)
    for o, c in b.items():
        out[o] = out.get(o, Q(0)) + c
        if out[o] == 0:
            del out[o]
    return out


def lneg(a: Laurent) -> Laurent:
    return {o: -c for o, c in a.items()}

def lscale(a: Laurent, f) -> Laurent:
    f = Q(f)
    return {} if f == 0 else {o: c * f for o, c in a.items()}


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
    `substitute_poly` and keep the coefficient at j - k_i - 1."""
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
            partials[sys.t_symbol] = t_series
        for i in range(n):
            expanded = substitute_poly(sys.rhs[i], partials, order=j - k[i])
            rhs.append(-expanded.coeff(j - k[i] - 1))
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


def enumerate_fuchsian_by_product(sys: ODESystem, bound: int) -> list[tuple[tuple[int, ...], bool]]:
    """The exponent enumeration as the engine first ran it: every vector of
    the box {0..bound}^n, in `itertools.product` order, kept when each f_i
    has weighted degree at most k_i + 1, tagged natural when each f_i with
    k_i > 0 has a nonzero slice at degree k_i + 1."""
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
        natural = all(
            ki == 0 or not dominant_part(f, weights, ki + 1).is_zero
            for ki, f in zip(k, sys.rhs)
        )
        found.append((k, natural))
    return found


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
