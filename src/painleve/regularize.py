"""Triangular change of variable that resolves a movable singularity.

Given a principal balance, the construction proceeds in three phases:

1. Indicial normalization: a pivot variable with a pole is rewritten as
   u_1 = tau^(-k_1).  Taking the (-k_1)-th root of its series gives tau as
   a power series in (t - t0) with invertible rational leading coefficient;
   reverting it re-expands every other variable as a Laurent series in tau.

2. Resonance absorption: for each resonance, in increasing order, a block
   of variables is truncated at the resonance order and the coefficient
   there becomes a new dependent variable.  Substituting the inverted
   relation into the remaining series removes the block's free parameters.

3. The transformed balance: the new system is regular at tau = 0, so the
   balance in the new variables is its Taylor solution.

The result is the substitution u_i = (head polynomial in tau, t, earlier
new variables) + rho_i * tau^(lambda - k_i), triangular by construction.
Because the right sides are polynomial and each substitution row is a
finite Laurent polynomial in tau, the transformed right sides are finite
Laurent polynomials too; regularity is checked exactly, not just to a
truncation.  Phases 1 and 2 read the balance only up to its largest
resonance; only the Taylor solution runs to the full order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .algebra import MultiPoly, Q, RatMatrix, ShapeError, rref, sum_of_products
from .core import Balance
from .model import RHO_PREFIX, SERIES_VAR, T0_SYMBOL, T_SYMBOL, TAU, ODESystem
from .series import (
    EXACT,
    RelaxedSubstitution,
    TruncatedSeries,
    compose_many,
    rational_power_of_unit,
    revert_series,
    substitute_coeffs,
    substitute_poly,
)


class NoRationalRootPivot(ValueError):
    """No variable has k_i c_i != 0 with a rational (-k_i)-th root."""


class NonConstantResonanceBlock(ValueError):
    """A resonance-stage pivot block failed to be constant rational."""


class PivotSelectionError(ValueError):
    """No row choice makes the resonance pivot block invertible."""


def integer_nth_root(value: int, n: int) -> int | None:
    if value < 0:
        if n % 2 == 0:
            return None
        r = integer_nth_root(-value, n)
        return None if r is None else -r
    if value in (0, 1) or n == 1:
        return value
    lo, hi = 0, 1
    while hi**n < value:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**n < value:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**n == value else None


def rational_root(value: Fraction, n: int) -> Fraction | None:
    """The rational n-th root of `value` if one exists.

    For even n the positive branch is returned; for odd n the sign follows
    the radicand.
    """
    num = integer_nth_root(value.numerator, n)
    den = integer_nth_root(value.denominator, n)
    if num is None or den is None:
        return None
    root = Fraction(num, den)
    if n % 2 == 0 and root < 0:
        root = -root
    return root


# ----------------------------------------------------------------------


def _resonance_entry(
    series: dict[int, TruncatedSeries], k: tuple[int, ...], i: int, r: int, nm: str
) -> Fraction:
    """d a[i, r] / d nm, one entry of a resonance block; a rational constant."""
    entry = series[i].coeff(r - k[i]).partial(nm)
    if not entry.is_constant:
        raise NonConstantResonanceBlock(f"d a[{i},{r}]/d {nm} = {entry} is not constant")
    return entry.constant_value()


@dataclass(frozen=True)
class NormalizedBalance:
    """State after the indicial normalization."""

    balance: Balance
    pivot: int  # original index of the pivot variable
    beta: Fraction  # tau'(t0) = c_pivot^(-1/k_pivot)
    tau_name: str
    tau_in_dt: TruncatedSeries  # tau as a power series in (t - t0)
    series: dict[int, TruncatedSeries]  # remaining variables as tau-series


def _pivot_root(balance: Balance, i: int) -> Fraction | None:
    """beta = c_i^(-1/k_i) if variable i can be the pivot: k_i c_i != 0 and
    the root is rational; None otherwise."""
    k, c = balance.dominant.exponents[i], balance.dominant.leading[i]
    if k == 0 or not c.is_constant or c.constant_value() == 0:
        return None
    return rational_root(1 / c.constant_value(), k)


def choose_pivot(balance: Balance) -> int:
    """Smallest index with k_i c_i != 0 and a rational (-k_i)-th root of c_i."""
    for i in range(balance.system.n):
        if _pivot_root(balance, i) is not None:
            return i
    raise NoRationalRootPivot(
        "no variable with a nonzero rational leading coefficient admitting "
        "a rational root of the required order"
    )


def indicial_normalization(
    balance: Balance, pivot: int | None = None, tau_name: str = TAU
) -> NormalizedBalance:
    """Introduce tau with u_pivot = tau^(-k), revert, re-expand the others.

    All construction-side coefficients are rewritten in terms of t first, by
    substituting t0 = t - (t - t0), so the resulting substitution is a
    genuine coordinate change u = phi(t, ...); exact because the time
    dependence is polynomial, and a no-op for autonomous systems.
    """
    sysm = balance.system
    k = balance.dominant.exponents
    if pivot is None:
        pivot = choose_pivot(balance)
    beta = _pivot_root(balance, pivot)
    if beta is None:
        raise NoRationalRootPivot(
            f"leading coefficient {balance.dominant.leading[pivot]} has no rational "
            f"root of order {k[pivot]}"
        )

    t_minus_dt = TruncatedSeries(SERIES_VAR, {0: MultiPoly.var(T_SYMBOL), 1: -1}, EXACT)
    t0_binding = {T0_SYMBOL: t_minus_dt}
    in_t = [substitute_coeffs(balance.series(i), t0_binding) for i in range(sysm.n)]
    # u_pivot = c (t-t0)^(-k) (1 + w); tau = beta (t-t0) (1 + w)^(-1/k), beta^k = 1/c
    unit = in_t[pivot].shift(k[pivot]).scale(beta ** k[pivot])
    root_part = rational_power_of_unit(unit, -1, k[pivot])
    tau_in_dt = root_part.shift(1).scale(beta)
    dt_in_tau = revert_series(tau_in_dt).rename_var(tau_name)

    others = [i for i in range(sysm.n) if i != pivot]
    u_others = [in_t[i].rename_var(tau_name) for i in others]
    series = dict(zip(others, compose_many(u_others, dt_in_tau)))
    return NormalizedBalance(
        balance=balance,
        pivot=pivot,
        beta=beta,
        tau_name=tau_name,
        tau_in_dt=tau_in_dt,
        series=series,
    )


# ----------------------------------------------------------------------
# resonance absorption


@dataclass(frozen=True)
class Stage:
    resonance: int
    rho_names: tuple[str, ...]
    pivot_block: RatMatrix  # A^(l), invertible
    param_series: dict[str, TruncatedSeries]  # absorbed parameters as tau-series
    a_lam: tuple[MultiPoly, ...]  # a_(v, lambda) per block variable: its rho at tau = 0


def _greedy_rows(columns_matrix: list[list[Fraction]], m: int) -> list[int]:
    """Indices of the first m rows each independent of the rows before it:
    the Gauss-Jordan pivot columns of the transposed block."""
    pivots = rref([list(column) for column in zip(*columns_matrix)])[1]
    if len(pivots) < m:
        raise PivotSelectionError("no invertible pivot block; balance is not principal")
    return pivots[:m]


def absorb_resonances(
    nb: NormalizedBalance,
    var_order: tuple[int, ...] | None = None,
    rho_names: tuple[str, ...] | None = None,
    last_factor: Fraction | None = None,
) -> tuple[tuple[Stage, ...], dict[int, TruncatedSeries], tuple[int, ...]]:
    """Absorb each resonance block in increasing order: the stages, the rows
    of phi for the absorbed variables (original index -> head + rho *
    tau^(lambda - k), in construction order), and that order (the pivot
    first, then the absorbed variables in turn).

    `var_order` prescribes which variables are absorbed in which sequence
    (used by the canonical construction); otherwise rows are chosen greedily
    by smallest index subject to an invertible pivot block.  `last_factor`
    rescales the final variable's rho coefficient.

    The block parameters X are the unique fixed point of X = A^(-1) (base -
    tails(X)): the tails start at order 1, so coefficient n of tails(X) reads
    X only below order n.  One relaxed pass therefore computes X_0, X_1, ...
    in turn, each coefficient of tails(X) read from cached product nodes
    over the coefficients of X found so far (`series.RelaxedSubstitution`),
    up to truncation M - lambda.
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
        rho_names = tuple(f"{RHO_PREFIX}{i}" for i in range(2, 2 + len(remaining)))
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
        pick = _greedy_rows(full, m) if var_order is None else list(range(m))
        block_vars = [remaining[i] for i in pick]
        A = RatMatrix([full[i] for i in pick])
        try:
            Ainv = A.inverse()
        except ShapeError:  # only a prescribed block can be singular
            raise PivotSelectionError(
                f"prescribed rows {block_vars} give a singular block at resonance {lam}"
            ) from None

        # record the rows of phi for the block variables
        names_here = []
        for v in block_vars:
            rho = next(rho_iter)
            names_here.append(rho)
            terms = {}
            for o in series[v].orders():
                if o >= lam - k[v]:
                    break
                coeff = series[v].coeffs[o]
                bad = [s for s in coeff.symbols() if s in block_params or s in later_params]
                if bad:
                    raise AssertionError(
                        f"head coefficient depends on unabsorbed parameter {bad}"
                    )
                terms[o] = coeff
            last = last_factor is not None and len(rows) == len(rho_names) - 1
            terms[lam - k[v]] = MultiPoly.var(rho) * last_factor if last else MultiPoly.var(rho)
            rows[v] = TruncatedSeries(tau, terms, EXACT)
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
        # X = A^(-1) (base - tails(X)), one coefficient of X at a time
        lists: dict[str, list[MultiPoly]] = {nm: [] for nm in block_params}
        sub = RelaxedSubstitution(lists, dict.fromkeys(block_params, 0))
        tail_terms = [
            [term for o, c in tail.coeffs.items() for term in sub.terms(c, o)] for tail in tails
        ]
        trunc = min([M - lam] + [tail.trunc for tail in tails])
        base = [rho - a0 for rho, a0 in zip(rho_polys, a_hat)]
        weights = [[MultiPoly.const(w) for w in row] for row in Ainv.data]
        for n in range(trunc):
            adjusted = base if n == 0 else [-sub.coeff(terms, n, n) for terms in tail_terms]
            for r, nm in enumerate(block_params):
                lists[nm].append(sum_of_products(zip(adjusted, weights[r])))
        X = {nm: TruncatedSeries(tau, dict(enumerate(lists[nm])), trunc) for nm in block_params}

        # substitute into the variables that remain
        remaining = [v for v in remaining if v not in block_vars]
        for v in remaining:
            series[v] = substitute_coeffs(series[v], X)
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

    return tuple(stages), rows, tuple(construction_order)


# ----------------------------------------------------------------------
# the change of variable and the transformed system


@dataclass(frozen=True)
class ChangeOfVariable:
    """The triangular change of variable u = phi(tau, rho..., t)."""

    names: tuple[str, ...]  # tau, then the rho's, in construction order
    order: tuple[int, ...]  # construction order of the original indices, pivot first
    beta: Fraction  # tau'(t0)
    phi: dict[int, TruncatedSeries]  # original index -> finite Laurent polynomial in tau

    @cached_property
    def jacobian(self) -> dict[int, list[TruncatedSeries]]:
        """Original variable index -> d phi / d(tau, rho...), in the order of `names`."""
        return {
            i: [row.var_derivative()]
            + [row.map_coeffs(lambda p, nm=nm: p.partial(nm)) for nm in self.names[1:]]
            for i, row in self.phi.items()
        }


@dataclass(frozen=True)
class TransformedSystem:
    names: tuple[str, ...]  # tau + rho names, construction order
    g: tuple[TruncatedSeries, ...]  # right sides, finite Laurent in tau
    min_exponents: tuple[int, ...]  # per equation, before verification


@dataclass(frozen=True)
class SingularWitness:
    index: int
    name: str
    order: int
    coefficient: MultiPoly


def build_triangular_change(
    nb: NormalizedBalance,
    stages: tuple[Stage, ...],
    rows: dict[int, TruncatedSeries],
    order: tuple[int, ...],
) -> ChangeOfVariable:
    """phi: the pivot row tau^(-k), then the absorbed rows."""
    pivot_row = TruncatedSeries.monomial(nb.tau_name, -nb.balance.dominant.exponents[nb.pivot])
    return ChangeOfVariable(
        names=(nb.tau_name,) + tuple(nm for stage in stages for nm in stage.rho_names),
        order=order,
        beta=nb.beta,
        phi={nb.pivot: pivot_row, **rows},
    )


def _diagonal(entry: TruncatedSeries) -> tuple[int, Fraction]:
    """(e, c) of a Jacobian diagonal entry, which must be one rational monomial c tau^e."""
    if len(entry.coeffs) != 1 or not entry.coeffs[entry.min_exp].is_constant:
        raise AssertionError(f"Jacobian diagonal {entry} is not one rational monomial")
    return entry.min_exp, entry.coeffs[entry.min_exp].constant_value()


def transform_system(sys: ODESystem, cov: ChangeOfVariable) -> TransformedSystem:
    """New right sides g = J^(-1) (f o phi) - J^(-1) d(phi)/dt.

    The Jacobian is lower triangular in the construction order with monomial
    diagonal, so the solve is exact forward substitution and every g_i is a
    finite Laurent polynomial in tau.
    """
    bindings = {sys.u_symbols[i]: s for i, s in cov.phi.items()}
    g: list[TruncatedSeries] = []
    min_exps: list[int] = []
    for m, i in enumerate(cov.order):
        J = cov.jacobian[i]
        rhs = substitute_poly(sys.rhs[i], bindings, order=EXACT)
        rhs = rhs - cov.phi[i].map_coeffs(lambda p: p.partial(T_SYMBOL))
        for c in range(m):
            if not J[c].is_zero:
                rhs = rhs - J[c] * g[c]
        expo, factor = _diagonal(J[m])
        if not all(entry.is_zero for entry in J[m + 1 :]):
            raise AssertionError("Jacobian is not lower triangular")
        gm = rhs.shift(-expo).scale(1 / factor)
        g.append(gm)
        min_exps.append(gm.min_exp if gm.min_exp is not None else 0)
    return TransformedSystem(names=cov.names, g=tuple(g), min_exponents=tuple(min_exps))


def verify_regularity(ts: TransformedSystem) -> SingularWitness | None:
    """Every right side must have zero coefficient at every negative order:
    the first nonzero one is returned as a witness, None if there is none."""
    for idx, gm in enumerate(ts.g):
        for o in gm.orders():
            if o < 0:
                return SingularWitness(
                    index=idx, name=ts.names[idx], order=o, coefficient=gm.coeffs[o]
                )
    return None


# ----------------------------------------------------------------------
# transformed balance


@dataclass(frozen=True)
class TransformedBalance:
    tau: TruncatedSeries  # power series in (t - t0)
    rho: dict[str, TruncatedSeries]  # new variable name -> power series
    initial_values: dict[str, MultiPoly]  # values at t = t0


def regular_part(s: TruncatedSeries) -> MultiPoly:
    """The polynomial sum of c_o tau^o over the orders o >= 0 of a Laurent
    series in tau."""
    tau = MultiPoly.var(s.var)
    return sum((s.coeffs[o] * tau**o for o in s.orders() if o >= 0), MultiPoly.zero())


def transform_balance(
    balance: Balance, stages: tuple[Stage, ...], cov: ChangeOfVariable, ts: TransformedSystem
) -> TransformedBalance:
    """The Taylor solution x_j = [g(x)]_(j-1) / j of the regular transformed
    system, with t = t0 + (t - t0), tau(t0) = 0 and rho_v(t0) = a_(v,lambda)
    at the earlier initial values over the row's factor.  Each g_i is one
    `RelaxedSubstitution` term list over the lists the recursion extends.
    Like the composition with the balance of order M, tau stops below M + 1
    and a rho absorbed at lambda below M - lambda; reading a capped x_k past
    its end (a monomial of g_i with x_k and a tau exponent below
    T_i - 1 - T_k, T the truncations) is refused as a fault.
    """
    M, t0 = balance.order, MultiPoly.var(T0_SYMBOL)
    tau, rhos = ts.names[0], ts.names[1:]
    initial: dict[str, MultiPoly] = {}
    truncs = {tau: M + 1}
    for stage in stages:
        at_t0 = {**initial, T_SYMBOL: t0}
        for rho, a in zip(stage.rho_names, stage.a_lam):
            m = cov.names.index(rho)  # the row's factor is its Jacobian diagonal's
            initial[rho] = a.replace(at_t0) * (1 / _diagonal(cov.jacobian[cov.order[m]][m])[1])
            truncs[rho] = M - stage.resonance
    lists = {tau: [], T_SYMBOL: [t0, MultiPoly.const(1)], **{nm: [initial[nm]] for nm in rhos}}
    sub = RelaxedSubstitution(lists, {**dict.fromkeys(lists, 0), tau: 1})
    equations = [(nm, sub.terms(regular_part(g))) for nm, g in zip(ts.names, ts.g)]
    for nm, terms in equations:
        for _, _, tau_exponent, bound in terms:  # the offset counts tau only
            if any(tau_exponent < truncs[nm] - 1 - truncs.get(x, EXACT) for x, _ in bound):
                raise AssertionError(f"{nm}' reads a series beyond its truncation")
    for j in range(1, M + 1):  # order j - 1 of g reads no x_j: append each as found
        for nm, terms in equations:
            if j < truncs[nm]:
                lists[nm].append(sub.coeff(terms, j - 1, j) * Q(1, j))
    rho = {nm: TruncatedSeries(SERIES_VAR, dict(enumerate(lists[nm])), truncs[nm]) for nm in rhos}
    tau_series = TruncatedSeries(SERIES_VAR, dict(enumerate(lists[tau], start=1)), M + 1)
    return TransformedBalance(tau=tau_series, rho=rho, initial_values=initial)


# ----------------------------------------------------------------------
# one-call pipeline


@dataclass(frozen=True)
class Regularization:
    stages: tuple[Stage, ...]
    change: ChangeOfVariable
    transformed: TransformedSystem
    regularity: SingularWitness | None  # None: the transformed system is regular
    transformed_balance: TransformedBalance | None  # None for a singular system


def regularize(
    balance: Balance,
    pivot: int | None = None,
    var_order: tuple[int, ...] | None = None,
    rho_names: tuple[str, ...] | None = None,
    tau_name: str = TAU,
    last_factor: Fraction | None = None,
) -> Regularization:
    """Phases 1 and 2 run on the balance cut after its largest resonance
    (at least at order 1): they read nothing beyond it."""
    cut = min(balance.order, max(balance.structure.largest + 1, 1))
    truncated = replace(balance, order=cut, coeffs=tuple(row[:cut] for row in balance.coeffs))
    nb = indicial_normalization(truncated, pivot=pivot, tau_name=tau_name)
    stages, rows, order = absorb_resonances(
        nb, var_order=var_order, rho_names=rho_names, last_factor=last_factor
    )
    cov = build_triangular_change(nb, stages, rows, order)
    ts = transform_system(balance.system, cov)
    verdict = verify_regularity(ts)
    tb = transform_balance(balance, stages, cov, ts) if verdict is None else None
    return Regularization(
        stages=stages,
        change=cov,
        transformed=ts,
        regularity=verdict,
        transformed_balance=tb,
    )
