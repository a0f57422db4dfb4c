"""Triangular change of variable that resolves a movable singularity.

Given a principal balance, the construction proceeds in two phases:

1. Indicial normalization: a pivot variable with a pole is rewritten as
   u_1 = tau^(-k_1).  Taking the (-k_1)-th root of its series gives tau as
   a power series in (t - t0) with invertible rational leading coefficient;
   reverting it re-expands every other variable as a Laurent series in tau.

2. Resonance absorption: for each resonance, in increasing order, a block
   of variables is truncated at the resonance order and the coefficient
   there becomes a new dependent variable.  Substituting the inverted
   relation into the remaining series removes the block's free parameters.

The result is the substitution u_i = (head polynomial in tau, t, earlier
new variables) + rho_i * tau^(lambda - k_i), triangular by construction.
Because the right sides are polynomial and each substitution row is a
finite Laurent polynomial in tau, the transformed right sides are finite
Laurent polynomials too; regularity is checked exactly, not just to a
truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .algebra import MultiPoly, Q, RatMatrix, as_poly, rank
from .core import Balance, SERIES_VAR
from .model import ODESystem
from .series import (
    EXACT,
    TruncatedSeries,
    compose_many,
    rational_power_of_unit,
    revert_series,
    substitute_coeffs,
    substitute_poly,
)

TAU = "tau"


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
    dt_in_tau: TruncatedSeries  # (t - t0) as a power series in tau
    series: dict[int, TruncatedSeries]  # remaining variables as tau-series

    def resonance_matrix(self) -> RatMatrix:
        """R after the normalization: one row per remaining variable, one
        column per remaining parameter; entries must be rational constants."""
        k = self.balance.dominant.exponents
        return RatMatrix([
            [_resonance_entry(self.series, k, i, r, nm) for nm, r in self.balance.parameters]
            for i in range(self.balance.system.n)
            if i != self.pivot
        ])


def choose_pivot(balance: Balance) -> int:
    """Smallest index with k_i c_i != 0 and a rational (-k_i)-th root of c_i."""
    k = balance.dominant.exponents
    for i, c in enumerate(balance.dominant.leading):
        if k[i] == 0 or not c.is_constant:
            continue
        value = c.constant_value()
        if value == 0:
            continue
        if rational_root(1 / value, k[i]) is not None:
            return i
    raise NoRationalRootPivot(
        "no variable with a nonzero rational leading coefficient admitting "
        "a rational root of the required order"
    )


def _reexpanded_coeffs(balance: Balance) -> list[list[MultiPoly]]:
    """Coefficients as polynomials in t instead of t0.

    Substituting t0 = t - (t-t0) and regathering powers turns a_{i,j}(t0)
    into sum_m (-1)^m/m! (d^m a_{i,j-m}/d t0^m)(t).  Exact because the
    time dependence is polynomial; a no-op for autonomous systems.
    """
    t0 = balance.t0_symbol
    t = balance.system.t_symbol
    if all(t0 not in p.symbols() for row in balance.coeffs for p in row):
        return [list(row) for row in balance.coeffs]
    out: list[list[MultiPoly]] = []
    t_poly = MultiPoly.var(t)
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


def indicial_normalization(
    balance: Balance, pivot: int | None = None, tau_name: str = TAU
) -> NormalizedBalance:
    """Introduce tau with u_pivot = tau^(-k), revert, re-expand the others.

    All construction-side coefficients are rewritten in terms of t first, so
    the resulting substitution is a genuine coordinate change u = phi(t, ...).
    """
    sysm = balance.system
    k = balance.dominant.exponents
    if pivot is None:
        pivot = choose_pivot(balance)
    c_piv = balance.dominant.leading[pivot]
    if k[pivot] == 0 or not c_piv.is_constant or c_piv.constant_value() == 0:
        raise NoRationalRootPivot(f"variable {pivot} cannot serve as the pivot")
    beta = rational_root(1 / c_piv.constant_value(), k[pivot])
    if beta is None:
        raise NoRationalRootPivot(
            f"leading coefficient {c_piv} has no rational root of order {k[pivot]}"
        )

    M = balance.order
    c_value = c_piv.constant_value()
    table = _reexpanded_coeffs(balance)
    # u_pivot = c (t-t0)^(-k) (1 + w); tau = beta (t-t0) (1 + w)^(-1/k)
    unit = TruncatedSeries(
        SERIES_VAR,
        {0: 1, **{j: table[pivot][j] * (Q(1) / c_value) for j in range(1, M)}},
        M,
    )
    root_part = rational_power_of_unit(unit, -1, k[pivot])
    tau_in_dt = root_part.shift(1).scale(beta)
    dt_in_tau = revert_series(tau_in_dt).rename_var(tau_name)

    others = [i for i in range(sysm.n) if i != pivot]
    u_others = [
        TruncatedSeries(tau_name, {j - k[i]: table[i][j] for j in range(M)}, M - k[i])
        for i in others
    ]
    series = dict(zip(others, compose_many(u_others, dt_in_tau)))
    return NormalizedBalance(
        balance=balance,
        pivot=pivot,
        beta=beta,
        tau_name=tau_name,
        tau_in_dt=tau_in_dt,
        dt_in_tau=dt_in_tau,
        series=series,
    )


# ----------------------------------------------------------------------
# resonance absorption


@dataclass(frozen=True)
class Stage:
    resonance: int
    variables: tuple[int, ...]  # original indices absorbed at this stage
    rho_names: tuple[str, ...]
    pivot_block: RatMatrix  # A^(l), invertible
    param_series: dict[str, TruncatedSeries]  # absorbed parameters as tau-series


@dataclass(frozen=True)
class VariableRow:
    """One row of the triangular substitution for a non-pivot variable."""

    index: int  # original variable index
    rho_name: str
    rho_factor: Fraction
    resonance: int
    head: tuple[tuple[int, MultiPoly], ...]  # (tau exponent, coefficient)

    def exponent(self, k: tuple[int, ...]) -> int:
        return self.resonance - k[self.index]


@dataclass(frozen=True)
class Absorption:
    stages: tuple[Stage, ...]
    rows: tuple[VariableRow, ...]  # in construction order
    order: tuple[int, ...]  # pivot first, then absorbed variables in order


def _greedy_rows(columns_matrix: list[list[Fraction]], m: int) -> list[int]:
    """Indices of the first rows whose block-column submatrix reaches rank m."""
    chosen: list[int] = []
    picked_rows: list[list[Fraction]] = []
    for idx, row in enumerate(columns_matrix):
        trial = picked_rows + [row]
        if rank(trial) == len(trial):
            chosen.append(idx)
            picked_rows = trial
        if len(chosen) == m:
            return chosen
    raise PivotSelectionError("no invertible pivot block; balance is not principal")


def absorb_resonances(
    nb: NormalizedBalance,
    var_order: tuple[int, ...] | None = None,
    rho_names: tuple[str, ...] | None = None,
    last_factor: Fraction | None = None,
) -> Absorption:
    """Absorb each resonance block in increasing order.

    `var_order` prescribes which variables are absorbed in which sequence
    (used by the canonical construction); otherwise rows are chosen greedily
    by smallest index subject to an invertible pivot block.  `last_factor`
    rescales the final variable's rho coefficient.

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
                (base[r] - substitute_coeffs(tails[r].truncate(known), X)).truncate(known)
                for r in range(m)
            ]
            X = {
                nm: series_linear_combo(Ainv.row(r), adjusted, tau, known)
                for r, nm in enumerate(block_params)
            }

        # substitute into the variables that remain
        remaining = [v for v in remaining if v not in block_vars]
        for v in remaining:
            series[v] = substitute_coeffs(series[v], X)
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
    total = TruncatedSeries.zero(var, trunc=EXACT)
    for w, s in zip(weights, series_list):
        if w != 0:
            total = total + s.scale(w)
    return total.truncate(trunc)


# ----------------------------------------------------------------------
# the change of variable and the transformed system


@dataclass(frozen=True)
class ChangeOfVariable:
    tau_name: str
    pivot: int
    k: tuple[int, ...]  # exponents, original variable order
    beta: Fraction
    order: tuple[int, ...]  # construction order, pivot first
    rows: tuple[VariableRow, ...]
    variable_names: tuple[str, ...]  # original symbol names

    def new_names(self) -> tuple[str, ...]:
        return (self.tau_name,) + tuple(r.rho_name for r in self.rows)

    def substitution(self) -> dict[int, TruncatedSeries]:
        """Original variable index -> finite Laurent polynomial in tau."""
        subs = {
            self.pivot: TruncatedSeries.monomial(self.tau_name, -self.k[self.pivot])
        }
        for row in self.rows:
            terms = {o: p for o, p in row.head}
            terms[row.exponent(self.k)] = (
                MultiPoly.var(row.rho_name) * row.rho_factor
            )
            subs[row.index] = TruncatedSeries(self.tau_name, terms, EXACT)
        return subs


@dataclass(frozen=True)
class TransformedSystem:
    tau_name: str
    names: tuple[str, ...]  # tau + rho names, construction order
    g: tuple[TruncatedSeries, ...]  # right sides, finite Laurent in tau
    min_exponents: tuple[int, ...]  # per equation, before verification


@dataclass(frozen=True)
class Regular:
    min_exponents: tuple[int, ...]


@dataclass(frozen=True)
class SingularWitness:
    index: int
    name: str
    order: int
    coefficient: MultiPoly


def build_triangular_change(nb: NormalizedBalance, absorption: Absorption) -> ChangeOfVariable:
    balance = nb.balance
    return ChangeOfVariable(
        tau_name=nb.tau_name,
        pivot=nb.pivot,
        k=balance.dominant.exponents,
        beta=nb.beta,
        order=absorption.order,
        rows=absorption.rows,
        variable_names=balance.system.u_symbols,
    )


def transform_system(
    sys: ODESystem, cov: ChangeOfVariable, trunc: int | None = None
) -> TransformedSystem:
    """New right sides g = J^(-1) (f o phi) - J^(-1) d(phi)/dt.

    The Jacobian is lower triangular in the construction order with monomial
    diagonal, so the solve is exact forward substitution and every g_i is a
    finite Laurent polynomial in tau.  `trunc` only trims the report.
    """
    tau = cov.tau_name
    subs = cov.substitution()
    bindings = {sys.u_symbols[i]: s for i, s in subs.items()}
    order = cov.order
    n = len(order)
    new_syms = cov.new_names()

    def J_entry(m: int, c: int) -> TruncatedSeries:
        phi = subs[order[m]]
        if c == 0:
            return phi.var_derivative()
        return phi.map_coeffs(lambda p: p.partial(new_syms[c]))

    g: list[TruncatedSeries] = []
    min_exps: list[int] = []
    for m in range(n):
        i = order[m]
        rhs = substitute_poly(sys.rhs[i], bindings, order=EXACT)
        phi_t = subs[i].map_coeffs(lambda p: p.partial(sys.t_symbol))
        rhs = rhs - phi_t
        for c in range(m):
            Jmc = J_entry(m, c)
            if not Jmc.is_zero:
                rhs = rhs - Jmc * g[c]
        if m == 0:
            kp = cov.k[cov.pivot]
            gm = rhs.shift(kp + 1).scale(Q(-1, kp))
        else:
            row = cov.rows[m - 1]
            diag = J_entry(m, m)
            expo = row.exponent(cov.k)
            if diag.orders() != [expo] or diag.coeffs[expo] != as_poly(row.rho_factor):
                raise AssertionError("Jacobian diagonal is not the expected monomial")
            gm = rhs.shift(-expo).scale(1 / row.rho_factor)
        for c in range(m + 1, n):
            if not J_entry(m, c).is_zero:
                raise AssertionError("Jacobian is not lower triangular")
        g.append(gm)
        min_exps.append(gm.min_exp if gm.min_exp is not None else 0)
    if trunc is not None:
        g = [gm.truncate(trunc) for gm in g]
    return TransformedSystem(
        tau_name=tau, names=new_syms, g=tuple(g), min_exponents=tuple(min_exps)
    )


def verify_regularity(ts: TransformedSystem) -> Regular | SingularWitness:
    """Every right side must have zero coefficient at every negative order."""
    for idx, gm in enumerate(ts.g):
        for o in gm.orders():
            if o < 0:
                return SingularWitness(
                    index=idx, name=ts.names[idx], order=o, coefficient=gm.coeffs[o]
                )
    return Regular(min_exponents=ts.min_exponents)


# ----------------------------------------------------------------------
# transformed balance


@dataclass(frozen=True)
class TransformedBalance:
    tau: TruncatedSeries  # power series in (t - t0)
    rho: dict[str, TruncatedSeries]  # new variable name -> power series
    initial_values: dict[str, MultiPoly]  # values at t = t0


def transform_balance(nb: NormalizedBalance, cov: ChangeOfVariable) -> TransformedBalance:
    """Convert the Laurent balance into power series for the new variables.

    tau(t0) = 0 with tau'(t0) = beta != 0, and each rho series must carry no
    negative orders; an implementation fault there is surfaced loudly.
    """
    balance = nb.balance
    t_series = balance.time_series()
    tau_s = substitute_coeffs(nb.tau_in_dt, {balance.system.t_symbol: t_series})
    rho_series: dict[str, TruncatedSeries] = {}
    initial: dict[str, MultiPoly] = {}

    tau_pows: dict[int, TruncatedSeries] = {}

    def tau_power(e: int) -> TruncatedSeries:
        if e not in tau_pows:
            tau_pows[e] = tau_s**e
        return tau_pows[e]

    for row in cov.rows:
        u_series = balance.series(row.index)
        head_total = TruncatedSeries.zero(SERIES_VAR, trunc=EXACT)
        for o, poly in row.head:
            if poly.is_zero:
                continue
            bound = {
                nm: rho_series[nm] for nm in poly.symbols() if nm in rho_series
            }
            if balance.system.t_symbol in poly.symbols():
                bound[balance.system.t_symbol] = t_series
            coeff_series = (
                substitute_poly(poly, bound, order=EXACT)
                if bound
                else TruncatedSeries.constant(SERIES_VAR, poly, trunc=EXACT)
            )
            head_total = head_total + coeff_series * tau_power(o)
        expo = row.exponent(cov.k)
        remainder = (u_series - head_total) * tau_power(-expo)
        rho = remainder.scale(1 / row.rho_factor)
        if rho.min_exp is not None and rho.min_exp < 0:
            raise AssertionError(
                f"transformed balance for {row.rho_name} has a negative order "
                f"{rho.min_exp}: {rho.coeffs[rho.min_exp]}"
            )
        rho_series[row.rho_name] = rho
        initial[row.rho_name] = rho.coeff(0) if rho.trunc > 0 else MultiPoly.zero()
    return TransformedBalance(tau=tau_s, rho=rho_series, initial_values=initial)


# ----------------------------------------------------------------------
# one-call pipeline


@dataclass(frozen=True)
class Regularization:
    normalized: NormalizedBalance
    absorption: Absorption
    change: ChangeOfVariable
    transformed: TransformedSystem
    regularity: Regular | SingularWitness
    transformed_balance: TransformedBalance


def regularize(
    balance: Balance,
    pivot: int | None = None,
    var_order: tuple[int, ...] | None = None,
    rho_names: tuple[str, ...] | None = None,
    tau_name: str = TAU,
    last_factor: Fraction | None = None,
    trunc: int | None = None,
) -> Regularization:
    nb = indicial_normalization(balance, pivot=pivot, tau_name=tau_name)
    absorption = absorb_resonances(
        nb, var_order=var_order, rho_names=rho_names, last_factor=last_factor
    )
    cov = build_triangular_change(nb, absorption)
    ts = transform_system(balance.system, cov, trunc=trunc)
    verdict = verify_regularity(ts)
    tb = transform_balance(nb, cov)
    return Regularization(
        normalized=nb,
        absorption=absorption,
        change=cov,
        transformed=ts,
        regularity=verdict,
        transformed_balance=tb,
    )
