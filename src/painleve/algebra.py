"""Exact arithmetic: multivariate polynomials over Q and rational linear algebra.

Every operation in this module is exact.  A polynomial is stored as integer
numerators over one common denominator, each monomial packed into one int
key, with a fixed field of the key per symbol; two polynomials representing
the same abstract polynomial compare equal structurally.  The key format is
private to this module: callers read a polynomial through `vars` (its
symbols, sorted by name) and `terms` (exponent tuples over `vars` to
`fractions.Fraction` coefficients), built on demand.

The public constructor validates its input; the ring operations build their
results already canonical.  `sum_of_products` is the one product loop: a
term product is an int addition of keys and an int product of numerators.
It serves `*`, `replace`, the truncated series products and the relaxed
series engine.
`rref` is the one elimination: it takes rational rows and eliminates on
integer rows, fraction-free; the characteristic polynomial and the
rational-root test also run on integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul, or_
from typing import Iterable, Mapping, Sequence, Union

Q = Fraction
_Q0 = Q(0)

Scalar = Union[Fraction, int]
PolyLike = Union["MultiPoly", Fraction, int]


class ShapeError(ValueError):
    """Matrix dimensions are inconsistent for the requested operation."""


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class ExponentOverflow(ArithmeticError):
    """An exponent reached 2**31, the limit of a packed exponent field."""


# A monomial is one int key: each symbol gets a fixed field of the key, in
# the order the process first meets it, and the exponent of the symbol in
# field i is (key >> 32 i) & _FIELD_MASK, so adding two keys multiplies the
# monomials.  The top bit of a field is a guard: an exponent below 2**31
# leaves it clear, so the sum of two exponents never carries into the next
# field, and a result that sets it raises ExponentOverflow instead of being
# used again.  The map only grows; nothing sorts or prints by key, so the
# numbering depends on what the process built before and never shows in a
# result.
_FIELD_BITS = 32
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_EXPONENT_LIMIT = 1 << (_FIELD_BITS - 1)
_OVERFLOW = f"an exponent reaches 2**{_FIELD_BITS - 1}, the limit of a packed monomial key"
_FIELDS: dict[str, int] = {}
_GUARD = 0  # the guard bits of every field in use
# symbol bits -> (the symbols in sorted order, the field offset of each)
_SYMBOLS: dict[int, tuple[tuple[str, ...], tuple[int, ...]]] = {}


def _field(name: str) -> int:
    """The field of a symbol, numbered on first use."""
    global _GUARD
    field = _FIELDS.get(name)
    if field is None:
        field = _FIELDS[name] = len(_FIELDS)
        _GUARD |= 1 << (field * _FIELD_BITS + _FIELD_BITS - 1)
    return field


def _symbols_of(bits: int) -> tuple[tuple[str, ...], tuple[int, ...]]:
    symbols = _SYMBOLS.get(bits)
    if symbols is not None:
        return symbols
    names = sorted(name for name, field in _FIELDS.items() if bits >> field & 1)
    _SYMBOLS[bits] = symbols = (tuple(names), tuple(_FIELDS[n] * _FIELD_BITS for n in names))
    return symbols


class MultiPoly:
    """Sparse multivariate polynomial over Q.

    Stored as an int denominator `_den`, a dict `_nums` from packed monomial
    keys to nonzero int numerators, and the symbol bits `_bits`, bit i set
    for the symbol of field i.  Canonical form: `_den` is positive and
    coprime to the numerators, and `_bits` names exactly the symbols that
    occur in some term, so equal polynomials have equal fields.  Instances
    are immutable and may share their `_nums` dict (an operator may return
    an operand), so nothing may mutate it after construction.

    `vars` (the symbols, sorted by name) and `terms` (exponent tuples over
    `vars` to Fractions) are the read-only tuple view, built on demand.
    """

    __slots__ = ("_den", "_nums", "_bits")

    def __init__(self, vars: Sequence[str], terms: Mapping[tuple[int, ...], Scalar]):
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise ValueError(f"duplicate symbols in {vars}")
        cleaned: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != len(vars):
                raise ValueError("exponent tuple does not match variable list")
            if min(exps, default=0) < 0:
                raise ValueError(f"negative exponent in {exps}")
            c = _as_fraction(coeff)
            if c != 0:
                acc = cleaned.get(exps, _Q0) + c
                if acc == 0:
                    cleaned.pop(exps, None)
                else:
                    cleaned[exps] = acc
        if any(e >= _EXPONENT_LIMIT for exps in cleaned for e in exps):
            raise ExponentOverflow(_OVERFLOW)
        used = sorted((vars[i], i) for i in range(len(vars)) if any(e[i] for e in cleaned))
        shifts = [(i, _field(name) * _FIELD_BITS) for name, i in used]
        den = lcm(*[c.denominator for c in cleaned.values()])
        nums = {
            sum(exps[i] << s for i, s in shifts): c.numerator * (den // c.denominator)
            for exps, c in cleaned.items()
        }
        _init(self, den, nums, sum(1 << (s // _FIELD_BITS) for _, s in shifts))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("MultiPoly is immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls) -> MultiPoly:
        return _ZERO

    @classmethod
    def const(cls, value: Scalar) -> MultiPoly:
        c = _as_fraction(value)
        return _poly(c.denominator, {0: c.numerator}, 0) if c else _ZERO

    @classmethod
    def var(cls, name: str) -> MultiPoly:
        field = _field(name)
        return _poly(1, {1 << field * _FIELD_BITS: 1}, 1 << field)

    # ------------------------------------------------------------------
    # predicates and accessors

    @property
    def vars(self) -> tuple[str, ...]:
        return _symbols_of(self._bits)[0]

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        shifts = _symbols_of(self._bits)[1]
        den = self._den
        return {tuple([k >> s & _FIELD_MASK for s in shifts]): Q(v, den) for k, v in self._nums.items()}

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def is_constant(self) -> bool:
        return not self._bits

    def constant_value(self) -> Fraction:
        if self._bits:
            raise ValueError(f"not a constant polynomial: {self}")
        return Q(self._nums.get(0, 0), self._den)

    def symbols(self) -> tuple[str, ...]:
        return self.vars

    def degree_in(self, name: str) -> int:
        """Degree in one variable; 0 if the variable does not occur."""
        field = _FIELDS.get(name)
        if field is None or not self._bits >> field & 1:
            return 0
        s = field * _FIELD_BITS
        return max(k >> s & _FIELD_MASK for k in self._nums)

    def weighted_degree(self, weights: Mapping[str, int]) -> int | None:
        """Max of sum(weight * exponent) over terms; None for the zero polynomial.

        Symbols missing from `weights` contribute 0 (this is how the time
        variable and parameter symbols are kept weightless).
        """
        if not self._nums:
            return None
        w = self._weights(weights)
        return max(sum(wi * (k >> s & _FIELD_MASK) for wi, s in w) for k in self._nums)

    def weighted_part(self, weights: Mapping[str, int], degree: int) -> MultiPoly:
        """The terms of weighted degree `degree`, weighted as in `weighted_degree`."""
        w = self._weights(weights)
        kept = {
            k: v for k, v in self._nums.items() if sum(wi * (k >> s & _FIELD_MASK) for wi, s in w) == degree
        }
        if len(kept) == len(self._nums):
            return self
        return _reduced(self._den, kept, self._bits, True)

    def _weights(self, weights: Mapping[str, int]) -> list[tuple[int, int]]:
        """(weight, field offset) of each symbol of self with a nonzero weight."""
        return [(weights[v], s) for v, s in zip(*_symbols_of(self._bits)) if weights.get(v)]

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other: PolyLike) -> MultiPoly:
        other = as_poly(other)
        b = other._nums
        if not b:
            return self
        a = self._nums
        if not a:
            return other
        den = self._den
        if den == other._den:
            if len(a) < len(b):
                a, b = b, a
            out, sb = dict(a), 1
        else:
            den = lcm(den, other._den)
            sa, sb = den // self._den, den // other._den
            out = {k: v * sa for k, v in a.items()} if sa != 1 else dict(a)
        cancelled = False
        for k, v in b.items():
            if sb != 1:
                v *= sb
            prev = out.get(k)
            if prev is None:
                out[k] = v
            else:
                v += prev
                if v:
                    out[k] = v
                else:
                    del out[k]
                    cancelled = True
        return _reduced(den, out, self._bits | other._bits, cancelled)

    __radd__ = __add__

    def __sub__(self, other: PolyLike) -> MultiPoly:
        return self + (-as_poly(other))

    def __rsub__(self, other: PolyLike) -> MultiPoly:
        return as_poly(other) + (-self)

    def __neg__(self) -> MultiPoly:
        return _poly(self._den, {k: -v for k, v in self._nums.items()}, self._bits)

    def __mul__(self, other: PolyLike) -> MultiPoly:
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return _scaled(self, c.numerator, c.denominator)
        if not other._bits:
            return _scaled(self, other._nums.get(0, 0), other._den)
        if not self._bits:
            return _scaled(other, self._nums.get(0, 0), self._den)
        return sum_of_products([(self, other)])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> MultiPoly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def partial(self, name: str) -> MultiPoly:
        """Partial derivative with respect to one symbol."""
        field = _FIELDS.get(name)
        if field is None or not self._bits >> field & 1:
            return _ZERO
        s = field * _FIELD_BITS
        one = 1 << s
        out = {}
        for k, v in self._nums.items():
            e = k >> s & _FIELD_MASK
            if e:
                out[k - one] = v * e
        # distinct terms stay distinct; a symbol may occur in no term now
        return _reduced(self._den, out, self._bits, True)

    # ------------------------------------------------------------------
    # substitution

    def replace(self, bindings: Mapping[str, PolyLike]) -> MultiPoly:
        """Substitute the given symbols at once; symbols without a binding are kept.

        A kept symbol leaves its field of each key alone.  A symbol bound to
        at most one term (zero, a constant, a scaled monomial) maps each term
        to at most one term: its field moves into the binding's monomial, its
        exponent times the binding's key, and the coefficient takes the
        binding's coefficient to that power.  The mapped terms are grouped
        by their exponents in the symbols bound to several terms, and each
        group times its product of powers of those bindings is summed in one
        `sum_of_products` pass.
        """
        names, shifts = _symbols_of(self._bits)
        bound = [(as_poly(bindings[v]), s) for v, s in zip(names, shifts) if v in bindings]
        if not bound:
            return self
        keep = ~sum(_FIELD_MASK << s for _, s in bound)
        bits = self._bits & ~sum(1 << (s // _FIELD_BITS) for _, s in bound)
        # per symbol bound to at most one term: its field offset, and None if
        # it maps every term it divides to zero, else its key, the largest
        # exponent in it, and its numerator and denominator
        singles: list = []
        multi: list[tuple[MultiPoly, int]] = []
        for p, s in bound:
            if not p._nums:
                singles.append((s, None))
            elif len(p._nums) == 1:
                ((key, num),) = p._nums.items()
                top = max([key >> t & _FIELD_MASK for t in _symbols_of(p._bits)[1]], default=0)
                singles.append((s, (key, top, num, p._den)))
                bits |= p._bits
            else:
                multi.append((p, s))
        mapped = []  # (group, key, numerator, denominator factor)
        rescan = False  # a term dropped or a key cancelled: a symbol may be gone
        for k, v in self._nums.items():
            mono = k & keep
            scale = 1
            for s, single in singles:
                e = k >> s & _FIELD_MASK
                if not e:
                    continue
                if single is None:
                    rescan = True
                    break
                key, top, num, den = single
                if e * top >= _EXPONENT_LIMIT:
                    raise ExponentOverflow(_OVERFLOW)
                mono += e * key
                if mono & _GUARD:
                    raise ExponentOverflow(_OVERFLOW)
                if num != 1:
                    v *= num**e
                if den != 1:
                    scale *= den**e
            else:
                group = tuple([k >> s & _FIELD_MASK for _, s in multi])
                mapped.append((group, mono, v, scale))
        common = lcm(*[scale for *_, scale in mapped])
        groups: dict[tuple[int, ...], dict[int, int]] = {}
        for group, key, v, scale in mapped:
            if scale != common:
                v *= common // scale
            out = groups.get(group)
            if out is None:
                out = groups[group] = {}
            prev = out.get(key)
            if prev is not None:
                v += prev
                if not v:
                    del out[key]
                    rescan = True
                    continue
            out[key] = v
        den = self._den * common
        if not multi:
            return _reduced(den, groups.get((), {}), bits, rescan)
        powers = {s: [p] for p, s in multi}  # powers[s][e - 1] = p**e
        pairs = []
        for group, out in groups.items():
            product = None
            for (_, s), e in zip(multi, group):
                if e:
                    chain = powers[s]
                    while len(chain) < e:
                        chain.append(chain[-1] * chain[0])
                    product = chain[e - 1] if product is None else product * chain[e - 1]
            # a group may miss symbols that other groups use
            pairs.append((_reduced(den, out, bits, True), product or MultiPoly.const(1)))
        return sum_of_products(pairs)

    # ------------------------------------------------------------------
    # comparisons and printing

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = as_poly(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._nums.items())))

    def __bool__(self) -> bool:
        return bool(self._nums)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in canonical print order: total degree, then exponents, descending."""
        return sorted(self.terms.items(), key=lambda t: (-sum(t[0]), tuple(-x for x in t[0])))

    def __str__(self) -> str:
        if not self._nums:
            return "0"
        vars = self.vars
        parts = []
        for exps, c in self.sorted_terms():
            num, den = c.numerator, c.denominator
            size = -num if num < 0 else num
            coeff = str(size) if den == 1 else f"{size}/{den}"
            factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(vars, exps) if e]
            if not factors:
                body = coeff
            elif size == 1 and den == 1:
                body = "*".join(factors)
            else:
                body = coeff + "*" + "*".join(factors)
            if parts:
                parts.append(("- " if num < 0 else "+ ") + body)
            else:
                parts.append("-" + body if num < 0 else body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


# the slot setters, which the immutability guard does not intercept
_set_den, _set_nums, _set_bits = (MultiPoly.__dict__[f].__set__ for f in MultiPoly.__slots__)


def _init(poly: MultiPoly, den: int, nums: dict[int, int], bits: int) -> None:
    _set_den(poly, den)
    _set_nums(poly, nums)
    _set_bits(poly, bits)


def _poly(den: int, nums: dict[int, int], bits: int) -> MultiPoly:
    """Wrap canonical fields unchecked."""
    poly = object.__new__(MultiPoly)
    _init(poly, den, nums, bits)
    return poly


_ZERO = _poly(1, {}, 0)


def _reduced(den: int, nums: dict[int, int], bits: int, rescan: bool) -> MultiPoly:
    """The polynomial of numerators `nums` over `den`, in lowest terms; with
    `rescan` (after a cancellation, a dropped term or a derivative), `bits`
    may name symbols that occur in no term and is cut to those that do."""
    if not nums:
        return _ZERO
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {k: v // g for k, v in nums.items()}
    if rescan:
        used = reduce(or_, nums)
        bits = sum(1 << (s // _FIELD_BITS) for s in _symbols_of(bits)[1] if used >> s & _FIELD_MASK)
    return _poly(den, nums, bits)


def _scaled(poly: MultiPoly, num: int, den: int) -> MultiPoly:
    """poly * num / den, for coprime num and den > 0."""
    if not num:
        return _ZERO
    if num == den:
        return poly
    # poly's own numerators are coprime to its denominator, and num to den,
    # so only num against that denominator and den against the numerators'
    # content can cancel
    g = gcd(num, poly._den)
    h = gcd(den, *poly._nums.values()) if den != 1 else 1
    num //= g
    nums = {k: v // h * num for k, v in poly._nums.items()}
    return _poly(poly._den // g * (den // h), nums, poly._bits)


def sum_of_products(pairs: Iterable[tuple[MultiPoly, MultiPoly]]) -> MultiPoly:
    """The sum of a * b over `pairs`: the one product loop of the package.

    Every pair is written over the lcm of the pairs' denominators, so each
    term product is a sum of two int keys and a product of int numerators,
    summed per key; the result takes one gcd.  Pairs with a zero factor
    are skipped.  ExponentOverflow if a result exponent reaches 2**31.
    """
    pairs = [(a, b) for a, b in pairs if a._nums and b._nums]
    if not pairs:
        return _ZERO
    den = lcm(*[a._den * b._den for a, b in pairs])
    bits = 0
    acc: dict[int, int] = {}
    get = acc.get
    for a, b in pairs:
        bits |= a._bits | b._bits
        scale = den // (a._den * b._den)
        tb = b._nums.items()
        for ka, na in a._nums.items():
            na *= scale
            for kb, nb in tb:
                k = ka + kb
                acc[k] = get(k, 0) + na * nb
    cancelled = not all(acc.values())
    if cancelled:
        acc = {k: v for k, v in acc.items() if v}
        if not acc:
            return _ZERO
    if reduce(or_, acc) & _GUARD:
        raise ExponentOverflow(_OVERFLOW)
    return _reduced(den, acc, bits, cancelled)


def as_poly(value: PolyLike) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    return MultiPoly.const(value)


# ----------------------------------------------------------------------
# rational matrices


class RatMatrix:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[Scalar]]):
        rows = tuple(tuple(_as_fraction(x) for x in row) for row in data)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ShapeError("ragged rows")
        object.__setattr__(self, "data", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", len(rows[0]) if rows else 0)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("RatMatrix is immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    @classmethod
    def identity(cls, n: int) -> RatMatrix:
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int) -> Fraction:
        return self.data[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.data[i]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def shifted(self, c: Scalar) -> RatMatrix:
        """M - c*I, built in one pass."""
        if not self.is_square():
            raise ShapeError("shift of a non-square matrix")
        c = _as_fraction(c)
        return RatMatrix(
            [[x - c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(self.data)]
        )

    def __mul__(self, other: RatMatrix) -> RatMatrix:
        if self.cols != other.rows:
            raise ShapeError("matrix product shape mismatch")
        return RatMatrix(
            [
                [
                    sum((self.data[i][k] * other.data[k][j] for k in range(self.cols)), Q(0))
                    for j in range(other.cols)
                ]
                for i in range(self.rows)
            ]
        )

    def inverse(self) -> RatMatrix:
        if not self.is_square():
            raise ShapeError("inverse of a non-square matrix")
        n = self.rows
        augmented = [list(a) + list(b) for a, b in zip(self.data, RatMatrix.identity(n).data)]
        m, pivots, _ = rref(augmented, n)
        if len(pivots) < n:
            raise ShapeError("matrix is singular")
        return RatMatrix([row[n:] for row in m])

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.data) + "]"

    def __repr__(self) -> str:
        return f"RatMatrix({self})"


def rref(
    rows: Sequence[Sequence[Scalar]], ncols: int | None = None
) -> tuple[list[list[Fraction]], list[int], list[tuple[int, int]]]:
    """Gauss-Jordan elimination: the one elimination routine of the package.

    Pivots on the first `ncols` columns (default: all) of rational rows.
    Each pivot is the first row with a nonzero entry, scanning columns left
    to right, which fixes the free-column convention used everywhere
    downstream.  Returns the reduced rows, the pivot columns and the row
    swaps, as position swaps in the order they were made.

    The elimination runs fraction-free on integer rows: each row is held as
    its rational value times an exact scale, a row operation is
    p*R_i - f*R_r divided by the row's content, and only the final division
    by the pivot (or, below the rank, by the scale) builds Fractions.  The
    reduced rows, rows below the rank included, are those of Gauss-Jordan
    over Q.
    """
    # integer row m[i] = (num[i] / den[i]) * rational row i
    m: list[list[int]] = []
    num: list[int] = []
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (d // x.denominator) for x in row])
        num.append(d)
    den = [1] * len(m)
    if ncols is None:
        ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    swaps: list[tuple[int, int]] = []
    r = 0
    for col in range(ncols):
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            for lst in (m, num, den):
                lst[r], lst[pivot] = lst[pivot], lst[r]
            swaps.append((r, pivot))
        prow = m[r]
        p = prow[col]
        for i in range(len(m)):
            f = m[i][col]
            if f and i != r:
                row = [p * x - f * y for x, y in zip(m[i], prow)]
                g = gcd(*row) or 1
                m[i] = [x // g for x in row] if g > 1 else row
                num[i] *= p
                den[i] *= g
        pivots.append(col)
        r += 1
    out = [[Q(x, row[col]) if x else _Q0 for x in row] for row, col in zip(m, pivots)]
    for i in range(r, len(m)):
        out.append([Q(x * den[i], num[i]) if x else _Q0 for x in m[i]])
    return out, pivots, swaps


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a rational matrix given as a list of rows; 0 for no rows."""
    return len(rref(RatMatrix(rows).data)[1])


def nullspace(matrix: RatMatrix) -> list[list[Fraction]]:
    """Exact basis of the kernel, read off the reduced rows; each vector has
    1 in its free coordinate."""
    m, pivots, _ = rref(matrix.data)
    basis = []
    for free in range(matrix.cols):
        if free in pivots:
            continue
        vec = [Q(0)] * matrix.cols
        vec[free] = Q(1)
        for r, col in enumerate(pivots):
            vec[col] = -m[r][free]
        basis.append(vec)
    return basis


def char_poly_coeffs(matrix: RatMatrix) -> list[Fraction]:
    """Coefficients c_0..c_n of the characteristic polynomial det(x*I - M), ascending.

    Faddeev-LeVerrier on the integer matrix A = d*M, d the lcm of the
    denominators: every step stays integral and divides exactly by k, and
    c_i(M) = c_i(A) / d^(n-i).
    """
    if not matrix.is_square():
        raise ShapeError("characteristic polynomial of a non-square matrix")
    n = matrix.rows
    d = lcm(*(x.denominator for row in matrix.data for x in row))
    A = [[x.numerator * (d // x.denominator) for x in row] for row in matrix.data]
    ints = [0] * (n + 1)
    ints[n] = 1
    aux = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        aux = [[sum(map(mul, row, col)) for col in zip(*aux)] for row in A]
        c = -sum(aux[i][i] for i in range(n)) // k
        ints[n - k] = c
        for i in range(n):
            aux[i][i] += c
    return [Q(c, d ** (n - i)) for i, c in enumerate(ints)]


# Past this size the divisor search of a coefficient is too slow to run.
ROOT_SEARCH_CAP = 10**12


class SearchIncomplete(Exception):
    """A capped or budgeted search could not finish."""


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _synthetic_division(coeffs: Sequence[Scalar], x: Scalar) -> tuple[list, Fraction]:
    """Horner's rule on ascending coefficients: (quotient by (X - x), value at x)."""
    acc = Q(0)
    partial = []
    for c in reversed(coeffs):
        acc = acc * x + c
        partial.append(acc)
    value = partial.pop()
    return partial[::-1], value


def rational_roots(coeffs: Sequence[Scalar]) -> list[Fraction] | None:
    """Distinct rational roots, ascending, of sum(coeffs[i] * x^i); None if
    every coefficient is zero (every value is a root).

    A linear factor (after dividing out x^v) is solved exactly; otherwise the
    candidates p/q, p dividing the constant and q the leading coefficient of
    the integer-cleared polynomial, are tried.  Raises SearchIncomplete when
    that search would have to factor a coefficient above ROOT_SEARCH_CAP.
    """
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
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
        for q in _divisors(lead):
            q_powers = [q**i for i in range(len(ints))]
            for p in _divisors(const):
                if gcd(p, q) > 1:
                    continue  # p/q in lowest terms is tried too
                for sp in (p, -p):
                    # the homogeneous Horner sum of ints[i] * sp^i * q^(deg - i)
                    acc = 0
                    for c, qi in zip(reversed(ints), q_powers):
                        acc = acc * sp + c * qi
                    if acc == 0:
                        roots.add(Q(sp, q))
    return sorted(roots)


def integer_eigenvalues(matrix: RatMatrix) -> tuple[dict[int, int], list[Fraction]]:
    """Integer eigenvalues, ascending, with their algebraic multiplicities,
    and the remainder of the characteristic polynomial (ascending
    coefficients) once their linear factors are divided out.

    The integer roots come from `rational_roots` and are divided out as
    often as they divide the polynomial, so the remainder is [1] exactly
    when the spectrum splits over Z.  Raises SearchIncomplete when the root
    search is capped.
    """
    poly = char_poly_coeffs(matrix)
    roots: dict[int, int] = {}
    for root in rational_roots(poly):
        if root.denominator != 1:
            continue
        quotient, value = _synthetic_division(poly, root)
        while value == 0:
            roots[int(root)] = roots.get(int(root), 0) + 1
            poly = quotient
            quotient, value = _synthetic_division(poly, root)
    return roots, poly


@dataclass(frozen=True)
class Inconsistent:
    """The elimination forced `witness = 0` for a nonzero polynomial."""

    witness: MultiPoly


def solve_affine(
    matrix: RatMatrix, rhs: Sequence[PolyLike]
) -> tuple[MultiPoly, ...] | Inconsistent:
    """One solution of M x = b, exact, where b has polynomial entries.

    The elimination of [M | I] records in its identity block the row
    operations E it applies (the pivots depend on M alone), so each particular
    coordinate and each consistency witness is one row of E b, formed in one
    `sum_of_products` pass.  Free coordinates are set to zero: callers that
    need the kernel of M add it themselves.
    """
    if not matrix.is_square():
        raise ShapeError("solve_affine expects a square matrix")
    if len(rhs) != matrix.rows:
        raise ShapeError("right side length mismatch")
    n = matrix.rows
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    m, pivots, _ = rref([list(row) + e for row, e in zip(matrix.data, unit)], n)
    b = [as_poly(x) for x in rhs]

    def combine(row: list[Fraction]) -> MultiPoly:
        return sum_of_products([(bk, MultiPoly.const(w)) for bk, w in zip(b, row[n:])])

    for row in m[len(pivots) :]:
        witness = combine(row)
        if not witness.is_zero:
            return Inconsistent(witness=witness)
    particular = [MultiPoly.zero()] * n
    for row, col in zip(m, pivots):
        particular[col] = combine(row)
    return tuple(particular)


def poly_det(rows: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Determinant of a small matrix with polynomial entries (cofactor expansion)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ShapeError("poly_det expects a square matrix")
    if n == 0:
        return MultiPoly.const(1)
    if n == 1:
        return rows[0][0]
    total = MultiPoly.zero()
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = entry * poly_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total
