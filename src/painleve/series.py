"""Truncated Laurent series in one distinguished variable.

Coefficients are MultiPoly values (parameter symbols, possibly the time
symbol), orders may be negative.  A series with truncation T asserts that
the coefficient of every order o < T equals `coeffs.get(o, 0)`; orders at
or beyond T are unknown.  All operations propagate the truncation so that
only genuinely known coefficients are ever produced.

EXACT is a sentinel truncation for objects that are known completely
(finite Laurent polynomials); arithmetic keeps it out of the way.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, Sequence

from .algebra import MultiPoly, PolyLike, Q, as_poly

EXACT = 1 << 30


class VariableMismatch(ValueError):
    """Operands are series in different variables."""


class NotReversible(ValueError):
    """Leading coefficient is zero or not an invertible rational constant."""


class TruncationUnderflow(ValueError):
    """The inputs are too shallow to determine any coefficient of the result."""


class TruncatedSeries:
    __slots__ = ("var", "trunc", "coeffs")

    def __init__(self, var: str, coeffs: Mapping[int, PolyLike], trunc: int):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "trunc", trunc)
        cleaned = {}
        for order, poly in coeffs.items():
            if order >= trunc:
                continue
            p = as_poly(poly)
            if not p.is_zero:
                cleaned[order] = p
        object.__setattr__(self, "coeffs", cleaned)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("TruncatedSeries is immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, var: str, trunc: int = EXACT) -> TruncatedSeries:
        return cls(var, {}, trunc)

    @classmethod
    def constant(cls, var: str, value: PolyLike, trunc: int = EXACT) -> TruncatedSeries:
        return cls(var, {0: as_poly(value)}, trunc)

    @classmethod
    def monomial(cls, var: str, order: int, value: PolyLike = 1, trunc: int = EXACT) -> TruncatedSeries:
        return cls(var, {order: as_poly(value)}, trunc)

    @property
    def min_exp(self) -> int | None:
        return min(self.coeffs) if self.coeffs else None

    @property
    def max_exp(self) -> int | None:
        return max(self.coeffs) if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _eff_min(self) -> int:
        # earliest order at which the series could be nonzero
        return min(self.coeffs) if self.coeffs else self.trunc

    def coeff(self, order: int) -> MultiPoly:
        if order >= self.trunc:
            raise ValueError(f"order {order} is beyond truncation {self.trunc}")
        return self.coeffs.get(order, MultiPoly.zero())

    def orders(self) -> list[int]:
        return sorted(self.coeffs)

    # ------------------------------------------------------------------
    # arithmetic

    def _check_var(self, other: TruncatedSeries) -> None:
        if self.var != other.var:
            raise VariableMismatch(f"{self.var} vs {other.var}")

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check_var(other)
        trunc = min(self.trunc, other.trunc)
        out = dict(self.coeffs)
        for o, p in other.coeffs.items():
            prev = out.get(o)
            out[o] = p if prev is None else prev + p
        return TruncatedSeries(self.var, out, trunc)

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        return self + (-other)

    def __neg__(self) -> TruncatedSeries:
        return TruncatedSeries(self.var, {o: -p for o, p in self.coeffs.items()}, self.trunc)

    def scale(self, factor: PolyLike) -> TruncatedSeries:
        f = as_poly(factor)
        return TruncatedSeries(self.var, {o: p * f for o, p in self.coeffs.items()}, self.trunc)

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check_var(other)
        trunc = min(
            self.trunc + other._eff_min(),
            other.trunc + self._eff_min(),
        )
        out: dict[int, MultiPoly] = {}
        for oa, pa in self.coeffs.items():
            for ob, pb in other.coeffs.items():
                o = oa + ob
                if o >= trunc:
                    continue
                prod = pa * pb
                prev = out.get(o)
                out[o] = prod if prev is None else prev + prod
        return TruncatedSeries(self.var, out, trunc)

    def shift(self, by: int) -> TruncatedSeries:
        return TruncatedSeries(
            self.var, {o + by: p for o, p in self.coeffs.items()}, self.trunc + by
        )

    def truncate(self, trunc: int) -> TruncatedSeries:
        return TruncatedSeries(self.var, self.coeffs, min(self.trunc, trunc))

    def slice_from(self, min_order: int) -> TruncatedSeries:
        """Tail of the series: orders >= min_order only."""
        return TruncatedSeries(
            self.var, {o: p for o, p in self.coeffs.items() if o >= min_order}, self.trunc
        )

    def inverse(self) -> TruncatedSeries:
        """Multiplicative inverse; requires an invertible rational leading coefficient."""
        return self ** -1

    def __pow__(self, n: int) -> TruncatedSeries:
        """Integer power; beyond n = 0, 1 the operand is written c x^m (1 + w),
        which requires an invertible rational leading coefficient c."""
        if n == 0:
            return TruncatedSeries.constant(self.var, 1, trunc=EXACT)
        if n == 1:
            return self
        m = self.min_exp
        if m is None:
            if n < 0:
                raise NotReversible("cannot invert the zero series")
            return TruncatedSeries.zero(self.var, trunc=n * self.trunc)
        lead = self.coeffs[m]
        if not lead.is_constant or lead.constant_value() == 0:
            raise NotReversible(f"leading coefficient {lead} is not an invertible constant")
        c = lead.constant_value()
        unit = self.shift(-m).scale(1 / c)
        return rational_power_of_unit(unit, n, 1).shift(n * m).scale(c**n)

    def map_coeffs(self, fn: Callable[[MultiPoly], MultiPoly]) -> TruncatedSeries:
        return TruncatedSeries(self.var, {o: fn(p) for o, p in self.coeffs.items()}, self.trunc)

    def rename_var(self, var: str) -> TruncatedSeries:
        return TruncatedSeries(var, self.coeffs, self.trunc)

    def var_derivative(self) -> TruncatedSeries:
        """d/dx of the series in its own variable."""
        return TruncatedSeries(
            self.var,
            {o - 1: p * o for o, p in self.coeffs.items() if o != 0},
            self.trunc - 1,
        )

    def agrees_with(self, other: TruncatedSeries, upto: int | None = None) -> bool:
        """Equality of coefficients on the common valid range (orders < bound)."""
        self._check_var(other)
        bound = min(self.trunc, other.trunc)
        if upto is not None:
            bound = min(bound, upto)
        orders = {o for o in self.coeffs if o < bound} | {o for o in other.coeffs if o < bound}
        return all(
            self.coeffs.get(o, MultiPoly.zero()) == other.coeffs.get(o, MultiPoly.zero())
            for o in orders
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.var == other.var
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.var, self.trunc, tuple(sorted((o, str(p)) for o, p in self.coeffs.items()))))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        chunks = []
        for o in self.orders():
            p = self.coeffs[o]
            if o == 0:
                chunks.append(str(p) if p.is_constant else f"({p})")
                continue
            power = self.var if o == 1 else f"{self.var}^{o}"
            if p.is_constant:
                c = p.constant_value()
                if c == 1:
                    chunks.append(power)
                elif c == -1:
                    chunks.append(f"-{power}")
                else:
                    chunks.append(f"{c}*{power}")
            else:
                chunks.append(f"({p})*{power}")
        out = chunks[0]
        for text in chunks[1:]:
            out += f" - {text[1:]}" if text.startswith("-") else f" + {text}"
        return out

    def __repr__(self) -> str:
        return f"TruncatedSeries({self}, trunc={self.trunc})"


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


def substitute_poly(
    f: MultiPoly,
    bindings: Mapping[str, TruncatedSeries],
    order: int = EXACT,
) -> TruncatedSeries:
    """Expand a polynomial with some symbols bound to series.

    Unbound symbols stay inside the coefficient polynomials (this is how the
    time symbol and not-yet-absorbed parameters ride along).  `order` caps
    the truncation of the result; bindings impose their own caps through the
    ordinary truncation bookkeeping.
    """
    if not bindings:
        raise ValueError("substitute_poly needs at least one binding")
    var = next(iter(bindings.values())).var
    for s in bindings.values():
        if s.var != var:
            raise VariableMismatch("bindings use different series variables")
    if f.is_zero:
        return TruncatedSeries.zero(var, trunc=order)
    return _expand(f, _power_table(bindings, [(f, order)]), var, order).truncate(order)


def substitute_coeffs(s: TruncatedSeries, bindings: Mapping[str, TruncatedSeries]) -> TruncatedSeries:
    """Replace symbols inside the coefficients of `s` by series in its variable.

    Coefficient a_o becomes a_o(bindings) x^o, expanded only below the
    truncation of `s`.  Each binding's powers are built once for all
    coefficients.  Returns `s` when no coefficient uses a bound symbol.
    """
    bound = {o: p for o, p in s.coeffs.items() if any(v in bindings for v in p.symbols())}
    if not bound:
        return s
    caps = {o: s.trunc - o if s.trunc < EXACT else EXACT for o in bound}
    powers = _power_table(bindings, [(p, caps[o]) for o, p in bound.items()])
    out = TruncatedSeries(s.var, {o: p for o, p in s.coeffs.items() if o not in bound}, EXACT)
    for o, poly in bound.items():
        out = out + _expand(poly, powers, s.var, caps[o]).shift(o)
    return out.truncate(s.trunc)


def compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """outer(inner(x)), exact to the tracked truncation; see `compose_many`."""
    return compose_many([outer], inner)[0]


def compose_many(outers: Sequence[TruncatedSeries], inner: TruncatedSeries) -> list[TruncatedSeries]:
    """[outer(inner(x)) for outer in outers], exact to the tracked truncations.

    The inner series must vanish at the origin (min_exp m >= 1).  An outer
    truncated at T is known only below T * m after composition; an outer
    with a negative order j sees the inner truncated where its j-th power
    stops mattering.  Unless the lowest order of the outers is 0 or 1, the
    first power of the inner series (negative orders included) requires an
    invertible rational inner leading coefficient; NotReversible otherwise.

    The powers inner^j are built once for all outers, one at a time from
    the lowest order to the highest, restarting at j = 0.  Each is
    multiplied out only below the highest order an outer still needs from
    it or from a later power, and is cut to each outer's own bound before
    it is scaled, so every coefficient and truncation is as if each outer
    were composed alone with the full powers.
    """
    for outer in outers:
        if outer.var != inner.var:
            raise VariableMismatch(f"{outer.var} vs {inner.var}")
    if inner.is_zero or inner.min_exp < 1:
        raise ValueError("inner series must have min_exp >= 1")
    m = inner.min_exp
    results: list[TruncatedSeries] = []
    jobs = []  # (index, outer, lowest order, inner truncation it sees, result bound)
    for index, outer in enumerate(outers):
        if outer.is_zero:
            results.append(TruncatedSeries.zero(outer.var, trunc=outer.trunc * m))
            continue
        lo = outer.min_exp
        hi = outer.trunc if outer.trunc < EXACT else outer.max_exp + 1  # exclusive
        # below hi * m, a negative power of the inner needs no more than this;
        # it keeps negative powers of an exactly-known inner finite objects
        seen = inner.trunc if lo >= 0 else min(inner.trunc, (hi - lo) * m + 2)
        bound = outer.trunc * m if outer.trunc < EXACT else math.inf
        jobs.append((index, outer, lo, seen, bound))
        results.append(TruncatedSeries.zero(outer.var, trunc=EXACT))
    if not jobs:
        return results
    lo = min(job[2] for job in jobs)
    hi = max(max(job[1].coeffs) + 1 for job in jobs)
    # need[j - lo]: inner^j is wanted below this order (j m: not at all).
    # A bound exceeds the order of the coefficient it serves, so every power
    # on the way to a wanted one keeps its leading coefficient.
    need = [j * m for j in range(lo, hi)]
    for _, outer, _, _, bound in jobs:
        for j in outer.coeffs:
            need[j - lo] = max(need[j - lo], bound)
    for j in range(hi - 2, lo - 1, -1):
        if j != -1:  # inner^0 is not built from inner^-1
            need[j - lo] = max(need[j - lo], need[j + 1 - lo] - m)
    negative = inner.truncate(max((job[3] for job in jobs if job[2] < 0), default=EXACT))
    for j in range(lo, hi):
        base = negative if j < 0 else inner
        if j in (lo, 0):
            # inner^j with truncation min(t + (j - 1) m, need), t that of the base
            power = base.truncate(need[j - lo] - (j - 1) * m) ** j
        else:
            power = power.truncate(need[j - lo] - m) * base
        for index, outer, first, seen, bound in jobs:
            c = outer.coeffs.get(j)
            if c is None:
                continue
            # the truncation of inner^j built alone from inner truncated at `seen`
            alone = EXACT if j == first == 0 else seen + (j - 1) * m
            results[index] = results[index] + power.truncate(min(alone, bound)).scale(c)
    for index, _, _, _, bound in jobs:
        results[index] = results[index].truncate(bound)
    return results


def revert_series(s: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse w with s(w(x)) = x modulo x^trunc.

    Lagrange inversion: with phi = (s/x)^(-1), the coefficients are
    [x^n] w = [x^(n-1)] phi^n / n.  The identity holds over any coefficient
    ring containing Q, so the result is exact.  With T = trunc - 1 and
    K = isqrt(T), baby steps phi^0 .. phi^K and giant steps phi^(gK) give
    [x^(n-1)] phi^n for n = gK + i as one dot product of the coefficients of
    phi^(gK) and phi^i (Brent and Kung, JACM 1978): one inverse and about
    K + T / K products instead of T, all truncated at T.
    """
    if s.is_zero or s.min_exp != 1:
        raise NotReversible("reversion needs min_exp exactly 1")
    lead = s.coeffs[1]
    if not lead.is_constant or lead.constant_value() == 0:
        raise NotReversible(f"leading coefficient {lead} is not an invertible constant")
    phi = s.shift(-1).inverse()
    top = s.trunc - 1
    step = math.isqrt(top)
    baby = [TruncatedSeries.constant(s.var, 1), phi]
    while len(baby) <= step:
        baby.append(baby[-1] * phi)
    coeffs = {}
    giant = baby[0]
    for start in range(0, top + 1, step):
        if start:
            giant = giant * baby[step] if start > step else baby[step]
        for i, small in enumerate(baby[:step]):
            n = start + i
            if not 1 <= n <= top:
                continue
            acc = MultiPoly.zero()
            for a, p in giant.coeffs.items():
                q = small.coeffs.get(n - 1 - a)
                if q is not None:
                    acc = acc + p * q
            coeffs[n] = acc * Q(1, n)
    return TruncatedSeries(s.var, coeffs, s.trunc)


def rational_power_of_unit(s: TruncatedSeries, num: int, den: int) -> TruncatedSeries:
    """(1 + w)^(num/den) for a series s = 1 + w with w of positive order.

    J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): with
    alpha = num/den, v = s^alpha satisfies v_0 = 1 and
    n v_n = sum_{k=1..n} ((alpha + 1) k - n) w_k v_{n-k}, which costs O(T^2)
    coefficient products and divides only by n, so it stays exact over any
    coefficient ring containing Q.  An untruncated s has an exact power only
    for a non-negative integer exponent.
    """
    w = {o: p for o, p in s.coeffs.items() if o != 0}
    if s.coeffs.get(0) != 1 or (w and min(w) < 0):
        raise NotReversible("rational power needs a unit series 1 + O(x)")
    alpha = Q(num, den)
    top = s.trunc if w else 1
    if top > 1 << 20:
        if alpha.denominator != 1 or alpha < 0:
            raise ValueError(
                "power of an untruncated non-monomial series is an infinite "
                "object; truncate the operand first"
            )
        top = int(alpha) * max(w) + 1
    v = [MultiPoly.const(1)]
    for n in range(1, top):
        acc = MultiPoly.zero()
        for k, wk in w.items():
            if k <= n and v[n - k]:
                acc = acc + wk * v[n - k] * ((alpha + 1) * k - n)
        v.append(acc * Q(1, n))
    return TruncatedSeries(s.var, dict(enumerate(v)), s.trunc)
