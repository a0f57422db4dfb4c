"""Independent check machinery for the test suite.

A deliberately separate implementation of univariate Laurent arithmetic over
Fraction (plain dicts, no package types) used to validate balances and
transformed systems by direct substitution at instantiated parameter values,
a reference balance recursion that expands f over the partial sums
with the series engine at every order (quadratic work per order), and a
reference exponent enumeration that tests every vector of the box,
the `MultiPoly` ring operations as first written: build the raw term dict,
then let the validating constructor `MultiPoly(vars, dict)` normalize it,
series composition and reversion with one full series product per
order, polynomial substitution over a table of truncated series powers,
and resonance absorption by growing precision.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction as Q
from typing import Iterable, Mapping

from painleve.algebra import Inconsistent, MultiPoly, RatMatrix, as_poly, rank, solve_affine
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
from painleve.regularize import (
    Absorption,
    NormalizedBalance,
    PivotSelectionError,
    Stage,
    VariableRow,
    _greedy_rows,
    _resonance_entry,
)
from painleve.series import (
    EXACT,
    NotReversible,
    TruncatedSeries,
    TruncationUnderflow,
    VariableMismatch,
)

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
            partials[sys.t_symbol] = t_series
        for i in range(n):
            expanded = substitute_poly_by_power_table(sys.rhs[i], partials, order=j - k[i])
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
) -> Absorption:
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
    rows: list[VariableRow] = []
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
            head = []
            for o in series[v].orders():
                if o >= lam - k[v]:
                    break
                coeff = series[v].coeffs[o]
                bad = [s for s in coeff.symbols() if s in block_params or s in later_params]
                if bad:
                    raise AssertionError(
                        f"head coefficient depends on unabsorbed parameter {bad}"
                    )
                head.append((o, coeff))
            rows.append(
                VariableRow(
                    index=v,
                    rho_name=rho,
                    rho_factor=Q(1),
                    resonance=lam,
                    head=tuple(head),
                )
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
                variables=tuple(block_vars),
                rho_names=tuple(names_here),
                pivot_block=A,
                param_series=X,
            )
        )

    if last_factor is not None and rows:
        rows[-1] = replace(rows[-1], rho_factor=last_factor)
    return Absorption(
        stages=tuple(stages), rows=tuple(rows), order=tuple(construction_order)
    )


def series_linear_combo(
    weights, series_list: list[TruncatedSeries], var: str, trunc: int
) -> TruncatedSeries:
    """sum w s over the nonzero weights, truncated."""
    total = TruncatedSeries.zero(var, trunc=EXACT)
    for w, s in zip(weights, series_list):
        if w != 0:
            total = total + s.scale(w)
    return total.truncate(trunc)
