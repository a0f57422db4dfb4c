"""Truncated Laurent series in one distinguished variable.

Coefficients are MultiPoly values (parameter symbols, possibly the time
symbol), orders may be negative.  A series with truncation T asserts that
the coefficient of every order o < T equals `coeffs.get(o, 0)`; orders at
or beyond T are unknown.  All operations propagate the truncation so that
only genuinely known coefficients are ever produced.

EXACT is a sentinel truncation for objects that are known completely
(finite Laurent polynomials); arithmetic keeps it out of the way.  Shifts
and products move it by a few orders, so any truncation from
KNOWN_COMPLETELY up counts as known completely.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from .algebra import MultiPoly, PolyLike, Q, as_poly, sum_of_products

EXACT = 1 << 30
KNOWN_COMPLETELY = 1 << 20


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
    def monomial(cls, var: str, order: int, value: PolyLike = 1) -> TruncatedSeries:
        return cls(var, {order: as_poly(value)}, EXACT)

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
        pairs: dict[int, list] = {}
        for oa, pa in self.coeffs.items():
            for ob, pb in other.coeffs.items():
                if oa + ob < trunc:
                    pairs.setdefault(oa + ob, []).append((pa, pb))
        return TruncatedSeries(self.var, {o: sum_of_products(p) for o, p in pairs.items()}, trunc)

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
        c = _constant_lead(self)
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


_ZERO = MultiPoly.zero()


def _constant_lead(s: TruncatedSeries) -> Q:
    """The leading coefficient of a nonzero series, an invertible rational;
    NotReversible otherwise."""
    lead = s.coeffs[s.min_exp]
    if not lead.is_constant or lead.constant_value() == 0:
        raise NotReversible(f"leading coefficient {lead} is not an invertible constant")
    return lead.constant_value()


class _Leaf:
    """A coefficient list from index 0 that its owner only appends to."""

    __slots__ = ("entries",)

    def __init__(self, entries: list[MultiPoly]):
        self.entries = entries

    def coeff(self, n: int, j: int) -> MultiPoly:
        return self.entries[n] if n < len(self.entries) else _ZERO


class _Product:
    """Coefficients of left * right, two nodes from index 0.

    With the leaves known below index j, a product coefficient n < j reads
    only known entries, so it is computed once and kept in `done`; one at
    n >= j is recomputed at each j with the unknown entries read as zero,
    exactly as in the product of the partial sums (van der Hoeven's relaxed
    product, "Relax, but don't be too lazy", JSC 2002).
    """

    __slots__ = ("left", "right", "done")

    def __init__(self, left, right):
        self.left, self.right = left, right
        self.done: list[MultiPoly] = []

    def coeff(self, n: int, j: int) -> MultiPoly:
        if n < j:
            while len(self.done) <= n:
                self.done.append(self._convolve(len(self.done), j))
            return self.done[n]
        return self._convolve(n, j)

    def _convolve(self, n: int, j: int) -> MultiPoly:
        left, right = self.left.coeff, self.right.coeff
        pairs = []
        for m in range(n + 1):
            a = left(m, j)
            if a:
                pairs.append((a, right(n - m, j)))
        return sum_of_products(pairs)


class RelaxedSubstitution:
    """Polynomials in symbols bound to series, read one coefficient at a time.

    `lists[x]` holds the coefficients of the series bound to x from its order
    `first[x]` on; a caller may append to the lists between reads.  A
    polynomial becomes terms (unbound part, product node, order of the
    node's index 0, bound factors): the bound factors of each monomial are
    one chain of cached `_Product` nodes over one `_Leaf` per list, powers
    of one symbol, then prefix products, shared by every polynomial read
    over the same lists.  Reading order o of a sum of terms with the lists
    known below index j costs O(j) coefficient products per term once the
    lower coefficients are cached.
    """

    def __init__(self, lists: Mapping[str, list[MultiPoly]], first: Mapping[str, int]):
        self.lists, self.first = lists, first
        self.nodes: dict[tuple[tuple[str, int], ...], object] = {(): _Leaf([MultiPoly.const(1)])}

    def terms(self, f: MultiPoly, shift: int = 0) -> list[tuple[MultiPoly, object, int, tuple]]:
        """The terms of f times x^shift."""
        out = []
        for exps, c in f.terms.items():
            factors, rest, offset = [], {}, shift
            for name, e in zip(f.symbols(), exps):
                if e and name in self.lists:
                    factors.append((name, e))
                    offset += e * self.first[name]
                elif e:
                    rest[name] = e
            unbound = MultiPoly(tuple(rest), {tuple(rest.values()): c})
            out.append((unbound, self._node(tuple(factors)), offset, tuple(factors)))
        return out

    def _node(self, factors: tuple[tuple[str, int], ...]):
        """The node of the product of name^e over `factors`."""
        if factors not in self.nodes:
            name, e = factors[-1]
            if len(factors) > 1:
                node = _Product(self._node(factors[:-1]), self._node(factors[-1:]))
            elif e > 1:
                node = _Product(self._node(((name, e - 1),)), self._node(((name, 1),)))
            else:
                node = _Leaf(self.lists[name])
            self.nodes[factors] = node
        return self.nodes[factors]

    @staticmethod
    def coeff(terms, order: int, j: int) -> MultiPoly:
        """Coefficient at `order` of the sum of `terms`, the lists known below j."""
        pairs = [(u, node.coeff(order - offset, j)) for u, node, offset, _ in terms if order >= offset]
        return sum_of_products(pairs)


def _substitute(
    var: str,
    bindings: Mapping[str, TruncatedSeries],
    sums: Sequence[tuple[Mapping[int, MultiPoly], int]],
) -> list[TruncatedSeries]:
    """For each (polys, cap) of `sums`, the sum of polys[o](bindings) x^o,
    known below `cap` at most.

    All sums are read over one `RelaxedSubstitution`, so a power or product
    of the bindings that several of them need is multiplied out once, as
    far as the deepest of them reads it.

    With m_x the first order of a binding (its truncation when it is zero)
    and T_x its truncation, a term c prod x^e is known below
    sum e m_x + min(T_x - m_x) over its truncated factors, and completely
    (EXACT) when all its bound factors are.  The order cap never causes an
    underflow: claiming zeros below every possible contribution is valid
    knowledge.  Only the bindings' own truncations can starve a polynomial,
    which happens only through a truncated zero binding.
    """
    first = {nm: s._eff_min() for nm, s in bindings.items()}
    lists = {
        nm: [s.coeffs.get(o, _ZERO) for o in range(first[nm], s.max_exp + 1)] if s.coeffs else []
        for nm, s in bindings.items()
    }
    reach = {nm: s.trunc - first[nm] for nm, s in bindings.items() if s.trunc < EXACT}
    sub = RelaxedSubstitution(lists, first)
    results = []
    for polys, cap in sums:
        trunc, live = cap, []
        for o, f in polys.items():
            known, lowest = EXACT, None  # relative to o, as for f alone
            for term in sub.terms(f, o):
                offset, factors = term[2] - o, term[3]
                reaches = [reach[nm] for nm, _ in factors if nm in reach]
                if reaches:
                    known = min(known, offset + min(reaches))
                if all(lists[nm] for nm, _ in factors):  # no zero binding
                    lowest = offset if lowest is None else min(lowest, offset)
                    live.append(term)
            if lowest is not None and known <= lowest and known < (cap - o if cap < EXACT else EXACT):
                raise TruncationUnderflow(
                    f"truncation {known} cannot reach the lowest possible order {lowest}"
                )
            if known < EXACT:
                trunc = min(trunc, o + known)
        pairs: dict[int, list] = {}
        for unbound, node, offset, factors in live:
            span = 1 + sum(e * (len(lists[nm]) - 1) for nm, e in factors)
            for n in range(min(span, trunc - offset)):
                # the lists are complete
                pairs.setdefault(offset + n, []).append((unbound, node.coeff(n, n + 1)))
        coeffs = {o: sum_of_products(p) for o, p in pairs.items()}
        results.append(TruncatedSeries(var, coeffs, trunc))
    return results


def substitute_poly(
    f: MultiPoly,
    bindings: Mapping[str, TruncatedSeries],
    order: int = EXACT,
) -> TruncatedSeries:
    """Expand a polynomial with some symbols bound to series.

    Unbound symbols stay inside the coefficient polynomials (this is how the
    time symbol and not-yet-absorbed parameters ride along).  `order` caps
    the truncation of the result; bindings impose their own caps, as set
    out in `_substitute`.
    """
    if not bindings:
        raise ValueError("substitute_poly needs at least one binding")
    var = next(iter(bindings.values())).var
    for s in bindings.values():
        if s.var != var:
            raise VariableMismatch("bindings use different series variables")
    if f.is_zero:
        return TruncatedSeries.zero(var, trunc=order)
    return _substitute(var, bindings, [({0: f}, order)])[0]


def substitute_coeffs(s: TruncatedSeries, bindings: Mapping[str, TruncatedSeries]) -> TruncatedSeries:
    """Replace symbols inside the coefficients of `s` by series in its variable.

    Coefficient a_o becomes a_o(bindings) x^o, expanded only below the
    truncation of `s`.  Returns `s` when no coefficient uses a bound symbol.
    """
    bound = {o: p for o, p in s.coeffs.items() if any(v in bindings for v in p.symbols())}
    if not bound:
        return s
    out = _substitute(s.var, bindings, [(bound, s.trunc)])[0]
    return out + TruncatedSeries(s.var, {o: p for o, p in s.coeffs.items() if o not in bound}, EXACT)


# The symbols that composition and reversion bind to the inner series and to
# its inverse.  They are not identifiers, so no symbol of a coefficient (an
# input's names, the engine's own) can be one of them.
_INNER, _INVERSE = "(inner)", "(inner)^-1"


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

    Each outer is a polynomial in two symbols, one bound to the inner
    series and one to its inverse (for the negative orders), and all of
    them are read through `_substitute` over one set of bindings, so the
    powers of the inner series are built once for all outers.
    """
    for outer in outers:
        if outer.var != inner.var:
            raise VariableMismatch(f"{outer.var} vs {inner.var}")
    if inner.is_zero or inner.min_exp < 1:
        raise ValueError("inner series must have min_exp >= 1")
    m = inner.min_exp
    if min((outer.min_exp for outer in outers if not outer.is_zero), default=0) not in (0, 1):
        _constant_lead(inner)
    sums, seen = [], []  # seen: the inner truncation each negative outer needs
    for outer in outers:
        if outer.is_zero:
            sums.append(({}, outer.trunc * m))
            continue
        lo = outer.min_exp
        cap = outer.trunc * m if outer.trunc < EXACT else EXACT
        if lo < 0:
            hi = outer.trunc if outer.trunc < EXACT else outer.max_exp + 1  # exclusive
            # below hi * m, a negative power of the inner needs no more than
            # this; it keeps the inverse of an exactly-known inner finite
            seen.append(min(inner.trunc, (hi - lo) * m + 2))
            # inner^lo built from that cut is known below this; the one
            # inverse of all outers may be cut deeper for another outer
            cap = min(cap, seen[-1] + (lo - 1) * m)
        poly = _ZERO
        for j, c in outer.coeffs.items():
            poly = poly + c * MultiPoly((_INNER if j >= 0 else _INVERSE,), {(abs(j),): 1})
        sums.append(({0: poly}, cap))
    bindings = {_INNER: inner}
    if seen:
        bindings[_INVERSE] = inner.truncate(max(seen)).inverse()
    return _substitute(inner.var, bindings, sums)


def revert_series(s: TruncatedSeries) -> TruncatedSeries:
    """Compositional inverse w with s(w(x)) = x modulo x^trunc.

    With c the leading coefficient of s and g = s - c x, w solves
    c w + g(w) = x: w_1 = 1/c and w_n = -[x^n] g(w) / c.  Since g starts at
    order 2, [x^n] g(w) reads only w_1 .. w_(n-1), so w is the relaxed
    fixed point of one `RelaxedSubstitution` list, extended one coefficient
    at a time (van der Hoeven, JSC 2002).  Exact over any coefficient ring
    containing Q.
    """
    if s.is_zero or s.min_exp != 1:
        raise NotReversible("reversion needs min_exp exactly 1")
    scale = -1 / _constant_lead(s)
    if s.trunc >= KNOWN_COMPLETELY:  # only a monomial c x has an exact inverse, x / c
        if len(s.coeffs) > 1:
            raise ValueError(
                "reversion of an untruncated non-monomial series is an infinite "
                "object; truncate the operand first"
            )
        return TruncatedSeries.monomial(s.var, 1, -scale)
    g = _ZERO
    for k, c in s.coeffs.items():
        if k != 1:
            g = g + c * MultiPoly((_INNER,), {(k,): 1})
    w = [MultiPoly.const(-scale)]
    sub = RelaxedSubstitution({_INNER: w}, {_INNER: 1})
    terms = sub.terms(g)
    for n in range(2, s.trunc):
        w.append(sub.coeff(terms, n, n - 1) * scale)
    return TruncatedSeries(s.var, dict(enumerate(w, 1)), s.trunc)


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
    if top >= KNOWN_COMPLETELY:
        if alpha.denominator != 1 or alpha < 0:
            raise ValueError(
                "power of an untruncated non-monomial series is an infinite "
                "object; truncate the operand first"
            )
        top = int(alpha) * max(w) + 1
    v = [MultiPoly.const(1)]
    for n in range(1, top):
        pairs = [(wk, v[n - k] * ((alpha + 1) * k - n)) for k, wk in w.items() if k <= n and v[n - k]]
        v.append(sum_of_products(pairs) * Q(1, n))
    return TruncatedSeries(s.var, dict(enumerate(v)), s.trunc)
