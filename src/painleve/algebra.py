"""Exact arithmetic: multivariate polynomials over Q and rational linear algebra.

Coefficients are `fractions.Fraction` throughout (always in lowest terms,
positive denominator), so every operation in this module is exact.  A
polynomial is a sparse map from exponent tuples to coefficients, aligned
with a sorted tuple of symbol names; two polynomials representing the same
abstract polynomial compare equal structurally.

The public constructor validates its input; the ring operations build their
results, already canonical, through the trusted `MultiPoly._canonical`.
`packed_products` is the one product loop: it runs on packed polynomials,
integer numerators over a common denominator with each monomial packed into
one int key, so a term product is an int addition and an int product.
`sum_of_products` (pack, loop, unpack) serves `*`, `replace` and the
truncated series product; the relaxed series engine keeps its coefficients
packed between products.
`rref` is the one elimination: it takes rational rows and eliminates on
integer rows, fraction-free; the characteristic polynomial and the
rational-root test also run on integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import lshift, mul, or_
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


class MultiPoly:
    """Sparse multivariate polynomial with Fraction coefficients.

    Canonical form: `vars` is sorted and unique, every exponent tuple has
    one entry per variable, every variable occurs in some term with positive
    exponent, and no zero coefficients are stored.  Instances are immutable
    and may share their `terms` dict (an operator may return an operand), so
    nothing may mutate `terms` after construction.
    """

    __slots__ = ("vars", "terms")

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
                acc = cleaned.get(exps, Q(0)) + c
                if acc == 0:
                    cleaned.pop(exps, None)
                else:
                    cleaned[exps] = acc
        # drop variables unused by every term, then sort the remainder
        used = [i for i in range(len(vars)) if any(e[i] for e in cleaned)]
        order = sorted(used, key=lambda i: vars[i])
        object.__setattr__(self, "vars", tuple(vars[i] for i in order))
        object.__setattr__(
            self,
            "terms",
            {tuple(exps[i] for i in order): c for exps, c in cleaned.items()},
        )

    @classmethod
    def _canonical(cls, vars: tuple[str, ...], terms: dict, rescan: bool = False) -> MultiPoly:
        """Wrap `terms` unchecked: canonical, except that with `rescan` (after
        a cancellation or a derivative) some variable may occur in no term."""
        if not terms:
            vars = ()
        elif rescan:
            used = [i for i in range(len(vars)) if any(e[i] for e in terms)]
            if len(used) < len(vars):
                vars = tuple(vars[i] for i in used)
                terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
        poly = object.__new__(cls)
        object.__setattr__(poly, "vars", vars)
        object.__setattr__(poly, "terms", terms)
        return poly

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
        return cls._canonical((), {(): c}) if c else _ZERO

    @classmethod
    def var(cls, name: str) -> MultiPoly:
        return cls._canonical((name,), {(1,): Q(1)})

    # ------------------------------------------------------------------
    # predicates and accessors

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return not self.vars

    def constant_value(self) -> Fraction:
        if self.vars:
            raise ValueError(f"not a constant polynomial: {self}")
        return self.terms.get((), Q(0))

    def symbols(self) -> tuple[str, ...]:
        return self.vars

    def degree_in(self, name: str) -> int:
        """Degree in one variable; 0 if the variable does not occur."""
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def weighted_degree(self, weights: Mapping[str, int]) -> int | None:
        """Max of sum(weight * exponent) over terms; None for the zero polynomial.

        Symbols missing from `weights` contribute 0 (this is how the time
        variable and parameter symbols are kept weightless).
        """
        if not self.terms:
            return None
        w = [weights.get(v, 0) for v in self.vars]
        return max(sum(wi * ei for wi, ei in zip(w, e)) for e in self.terms)

    # ------------------------------------------------------------------
    # ring operations

    def _aligned(self, other: MultiPoly) -> tuple[tuple[str, ...], dict, dict]:
        if self.vars == other.vars:
            return self.vars, self.terms, other.terms
        union = tuple(sorted(set(self.vars) | set(other.vars)))
        return union, _remap(self, union), _remap(other, union)

    def __add__(self, other: PolyLike) -> MultiPoly:
        other = as_poly(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        vars, a, b = self._aligned(other)
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        return MultiPoly._canonical(vars, out, _merge_into(out, b))

    __radd__ = __add__

    def __sub__(self, other: PolyLike) -> MultiPoly:
        return self + (-as_poly(other))

    def __rsub__(self, other: PolyLike) -> MultiPoly:
        return as_poly(other) + (-self)

    def __neg__(self) -> MultiPoly:
        return MultiPoly._canonical(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: PolyLike) -> MultiPoly:
        if isinstance(other, (int, Fraction)):
            return _scaled(self, _as_fraction(other))
        if not other.vars:
            return _scaled(self, other.terms.get((), Q(0)))
        if not self.vars:
            return _scaled(other, self.terms.get((), Q(0)))
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
        if name not in self.vars:
            return _ZERO
        i = self.vars.index(name)
        out = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e:
                out[exps[:i] + (e - 1,) + exps[i + 1 :]] = c * e
        # distinct terms stay distinct; a variable may occur in no term now
        return MultiPoly._canonical(self.vars, out, rescan=True)

    # ------------------------------------------------------------------
    # substitution

    def replace(self, bindings: Mapping[str, PolyLike]) -> MultiPoly:
        """Substitute the given symbols at once; symbols without a binding are kept.

        A symbol kept or bound to at most one term (zero, a constant, a scaled
        monomial) maps each term to at most one term, written straight into
        its exponent key and coefficient.  The mapped terms are grouped by
        their exponents in the symbols bound to several terms, and each group
        times its product of powers of those bindings is summed in one
        `sum_of_products` pass.
        """
        if not any(v in bindings for v in self.vars):
            return self
        polys = [as_poly(bindings[v]) if v in bindings else None for v in self.vars]
        symbols = {v for v, p in zip(self.vars, polys) if p is None}
        for p in polys:
            if p is not None and len(p.terms) == 1:
                symbols.update(p.vars)
        union = tuple(sorted(symbols))
        at = {v: j for j, v in enumerate(union)}
        # per symbol of self: None if it maps every term it divides to zero,
        # else the (position, multiple) pairs its exponent adds to the key and
        # the factor its coefficient takes per unit of exponent
        plans: list = []
        multi: list[int] = []
        for i, (v, p) in enumerate(zip(self.vars, polys)):
            if p is None:
                plans.append((((at[v], 1),), None))
            elif not p.terms:
                plans.append(None)
            elif len(p.terms) == 1:
                ((exps, c),) = p.terms.items()
                plans.append((tuple(zip(map(at.get, p.vars), exps)), None if c == 1 else c))
            else:
                plans.append(((), None))
                multi.append(i)
        groups: dict[tuple[int, ...], dict] = {}
        rescan = False  # a term dropped or a key cancelled: a symbol may be gone
        for exps, c in self.terms.items():
            key = [0] * len(union)
            for e, plan in zip(exps, plans):
                if not e:
                    continue
                if plan is None:
                    rescan = True
                    break
                shifts, factor = plan
                for j, k in shifts:
                    key[j] += k * e
                if factor is not None:
                    c *= factor**e
            else:
                group = tuple(exps[i] for i in multi)
                out = groups.get(group)
                if out is None:
                    out = groups[group] = {}
                key = tuple(key)
                prev = out.get(key)
                if prev is not None:
                    c += prev
                    if not c:
                        del out[key]
                        rescan = True
                        continue
                out[key] = c
        if not multi:
            return MultiPoly._canonical(union, groups.get((), {}), rescan)
        powers = {i: [polys[i]] for i in multi}  # powers[i][e - 1] = polys[i]**e
        pairs = []
        for group, out in groups.items():
            product = None
            for i, e in zip(multi, group):
                if e:
                    chain = powers[i]
                    while len(chain) < e:
                        chain.append(chain[-1] * chain[0])
                    product = chain[e - 1] if product is None else product * chain[e - 1]
            # a group may miss symbols of `union` that other groups use
            left = MultiPoly._canonical(union, out, rescan=True)
            pairs.append((left, product or MultiPoly.const(1)))
        return sum_of_products(pairs)

    # ------------------------------------------------------------------
    # comparisons and printing

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = as_poly(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in canonical print order: total degree, then exponents, descending."""
        return sorted(self.terms.items(), key=lambda t: (-sum(t[0]), tuple(-x for x in t[0])))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            num, den = c.numerator, c.denominator
            size = -num if num < 0 else num
            coeff = str(size) if den == 1 else f"{size}/{den}"
            factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(self.vars, exps) if e]
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


_ZERO = MultiPoly._canonical((), {})


def _remap(poly: MultiPoly, union: tuple[str, ...]) -> dict:
    """`poly.terms` with exponent tuples widened to `union` (a sorted superset)."""
    if poly.vars == union:
        return poly.terms
    idx = [union.index(v) for v in poly.vars]
    out = {}
    for exps, c in poly.terms.items():
        key = [0] * len(union)
        for i, e in zip(idx, exps):
            key[i] = e
        out[tuple(key)] = c
    return out


def _scaled(poly: MultiPoly, c: Fraction) -> MultiPoly:
    if not c:
        return _ZERO
    return MultiPoly._canonical(poly.vars, {e: x * c for e, x in poly.terms.items()})


def _merge_into(acc: dict, terms: Mapping[tuple[int, ...], Fraction]) -> bool:
    """Add `terms` into `acc` in place; True if some coefficient cancelled."""
    cancelled = False
    for e, c in terms.items():
        prev = acc.get(e)
        if prev is None:
            acc[e] = c
        else:
            c += prev
            if c:
                acc[e] = c
            else:
                del acc[e]
                cancelled = True
    return cancelled


# ----------------------------------------------------------------------
# packed monomials and the one product loop


class ExponentOverflow(ArithmeticError):
    """An exponent reached 2**31, the limit of a packed exponent field."""


# Each symbol gets a fixed field of a packed monomial key, in the order the
# process first packs it: the exponent of the symbol in field i is
# (key >> 32 i) & _FIELD_MASK, so adding two keys multiplies the monomials.
# The top bit of a field is a guard: an exponent below 2**31 leaves it clear,
# so the sum of two packed exponents never carries into the next field, and a
# result that sets it raises ExponentOverflow instead of being used again.
# The map only grows; nothing sorts or prints by key, so the numbering
# depends on what the process packed before and never shows in a result.
_FIELD_BITS = 32
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_EXPONENT_LIMIT = 1 << (_FIELD_BITS - 1)
_OVERFLOW = f"an exponent reaches 2**{_FIELD_BITS - 1}, the limit of a packed monomial key"
_FIELDS: dict[str, int] = {}
_GUARD = 0  # the guard bits of every field in use
# vars of a canonical polynomial -> (field offset of each var, its symbol bits)
_PACKERS: dict[tuple[str, ...], tuple[tuple[int, ...], int]] = {}
# symbol bits -> (the symbols in sorted order, the field offset of each)
_UNPACKERS: dict[int, tuple[tuple[str, ...], tuple[int, ...]]] = {}

# A packed polynomial is (den, [(key, numerator), ...], symbol bits): the sum
# of numerator/den times the monomial of each key, with bit i of the symbol
# bits set for the symbol of field i when it occurs in some term.
Packed = tuple[int, list[tuple[int, int]], int]
PACKED_ZERO: Packed = (1, [], 0)


def _packer(vars: tuple[str, ...]) -> tuple[tuple[int, ...], int]:
    global _GUARD
    packer = _PACKERS.get(vars)
    if packer is not None:
        return packer
    shifts, bits = [], 0
    for name in vars:
        field = _FIELDS.get(name)
        if field is None:
            field = _FIELDS[name] = len(_FIELDS)
            _GUARD |= 1 << (field * _FIELD_BITS + _FIELD_BITS - 1)
        shifts.append(field * _FIELD_BITS)
        bits |= 1 << field
    _PACKERS[vars] = packer = (tuple(shifts), bits)
    return packer


def _unpacker(bits: int) -> tuple[tuple[str, ...], tuple[int, ...]]:
    unpacker = _UNPACKERS.get(bits)
    if unpacker is not None:
        return unpacker
    names = sorted(name for name, field in _FIELDS.items() if bits >> field & 1)
    _UNPACKERS[bits] = unpacker = (tuple(names), tuple(_FIELDS[n] * _FIELD_BITS for n in names))
    return unpacker


def pack(p: MultiPoly) -> Packed:
    """p over the lcm of its denominators, with packed monomial keys;
    ExponentOverflow if some exponent of p is 2**31 or more."""
    terms = p.terms
    if not p.vars:
        return _packed_constant(terms.get((), _Q0))
    shifts, bits = _packer(p.vars)
    den = lcm(*[c.denominator for c in terms.values()])
    if den == 1:
        nums = [c.numerator for c in terms.values()]
    else:
        nums = [c.numerator * (den // c.denominator) for c in terms.values()]
    if max(map(max, terms)) >= _EXPONENT_LIMIT:
        raise ExponentOverflow(_OVERFLOW)
    if len(shifts) == 1:
        (s,) = shifts
        keys = [e << s for (e,) in terms]
    else:
        keys = [sum(map(lshift, e, shifts)) for e in terms]
    return den, list(zip(keys, nums)), bits


def _packed_constant(c: Fraction) -> Packed:
    return (c.denominator, [(0, c.numerator)], 0) if c else PACKED_ZERO


def unpack(p: Packed) -> MultiPoly:
    """The canonical polynomial of a packed one."""
    den, terms, bits = p
    if not terms:
        return _ZERO
    names, shifts = _unpacker(bits)
    if len(shifts) == 1:
        (s,) = shifts
        exps = [(k >> s,) for k, _ in terms]
    else:
        exps = [tuple([k >> s & _FIELD_MASK for s in shifts]) for k, _ in terms]
    if den == 1:
        coeffs = [Q(v) for _, v in terms]
    else:
        coeffs = [Q(v, den) for _, v in terms]
    return MultiPoly._canonical(names, dict(zip(exps, coeffs)))


def packed_products(pairs: Iterable[tuple[Packed, Packed]]) -> Packed:
    """The sum of a * b over pairs of packed polynomials: the one product
    loop of the package.

    Every pair is written over the lcm of the pairs' denominators, so each
    term product is a sum of two int keys and a product of int numerators,
    summed per key; the result takes one gcd.  Pairs with a zero factor
    are skipped.  ExponentOverflow if a result exponent reaches 2**31.
    """
    pairs = [(a, b) for a, b in pairs if a[1] and b[1]]
    if not pairs:
        return PACKED_ZERO
    den = lcm(*[a[0] * b[0] for a, b in pairs])
    bits = 0
    acc: dict[int, int] = {}
    get = acc.get
    for (da, ta, ba), (db, tb, bb) in pairs:
        bits |= ba | bb
        scale = den // (da * db)
        for ka, na in ta:
            na *= scale
            for kb, nb in tb:
                k = ka + kb
                acc[k] = get(k, 0) + na * nb
    terms = [(k, v) for k, v in acc.items() if v]
    if den != 1:
        g = gcd(den, *[v for _, v in terms])
        if g != 1:
            den //= g
            terms = [(k, v // g) for k, v in terms]
    used = reduce(or_, [k for k, _ in terms], 0)
    if used & _GUARD:
        raise ExponentOverflow(_OVERFLOW)
    if len(terms) < len(acc):  # a key cancelled: a symbol may occur in no term
        bits = sum(1 << (s // _FIELD_BITS) for s in _unpacker(bits)[1] if used >> s & _FIELD_MASK)
    return den, terms, bits


def sum_of_products(pairs: Iterable[tuple[MultiPoly, MultiPoly]]) -> MultiPoly:
    """The sum of a * b over `pairs`, formed by `packed_products`."""
    return unpack(packed_products([(pack(a), pack(b)) for a, b in pairs if a.terms and b.terms]))


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

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[Scalar]]) -> RatMatrix:
        if not columns:
            return cls([])
        n = len(columns[0])
        return cls([[columns[j][i] for j in range(len(columns))] for i in range(n)])

    def entry(self, i: int, j: int) -> Fraction:
        return self.data[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.data[i]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(self.data[i][j] for i in range(self.rows))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def __add__(self, other: RatMatrix) -> RatMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix addition shape mismatch")
        return RatMatrix(
            [
                [self.data[i][j] + other.data[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __sub__(self, other: RatMatrix) -> RatMatrix:
        return self + other.scale(-1)

    def scale(self, factor: Scalar) -> RatMatrix:
        f = _as_fraction(factor)
        return RatMatrix([[x * f for x in row] for row in self.data])

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

    def matvec(self, vec: Sequence[Scalar]) -> list[Fraction]:
        if len(vec) != self.cols:
            raise ShapeError("matvec shape mismatch")
        v = [_as_fraction(x) for x in vec]
        return [sum((row[k] * v[k] for k in range(self.cols)), Q(0)) for row in self.data]

    def transpose(self) -> RatMatrix:
        return RatMatrix([[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def det(self) -> Fraction:
        if not self.is_square():
            raise ShapeError("determinant of a non-square matrix")
        _, pivots, det, _ = rref(self.data)
        return det if len(pivots) == self.rows else Q(0)

    def inverse(self) -> RatMatrix:
        if not self.is_square():
            raise ShapeError("inverse of a non-square matrix")
        n = self.rows
        augmented = [list(a) + list(b) for a, b in zip(self.data, RatMatrix.identity(n).data)]
        m, pivots, _, _ = rref(augmented, n)
        if len(pivots) < n:
            raise ShapeError("matrix is singular")
        return RatMatrix([row[n:] for row in m])

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in row) for row in self.data) + "]"

    def __repr__(self) -> str:
        return f"RatMatrix({self})"


def rref(
    rows: Sequence[Sequence[Scalar]], ncols: int | None = None
) -> tuple[list[list[Fraction]], list[int], Fraction, list[tuple[int, int]]]:
    """Gauss-Jordan elimination: the one elimination routine of the package.

    Pivots on the first `ncols` columns (default: all) of rational rows.
    Each pivot is the first row with a nonzero entry, scanning columns left
    to right, which fixes the free-column convention used everywhere
    downstream.  Returns the reduced rows, the pivot columns, the signed
    product of the pivots (the determinant when they cover a square matrix)
    and the row swaps, as position swaps in the order they were made.

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
    det_num = det_den = 1
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
            det_num = -det_num
        prow = m[r]
        p = prow[col]
        det_num *= p * den[r]
        det_den *= num[r]
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
    return out, pivots, Q(det_num, det_den), swaps


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a rational matrix given as a list of rows; 0 for no rows."""
    return len(rref(RatMatrix(rows).data)[1])


def _kernel(m: list[list], pivots: list[int], ncols: int) -> list[list[Fraction]]:
    """Kernel basis read off reduced rows; each vector has 1 in its free coordinate."""
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Q(0)] * ncols
        vec[free] = Q(1)
        for r, col in enumerate(pivots):
            vec[col] = -m[r][free]
        basis.append(vec)
    return basis


def nullspace(matrix: RatMatrix) -> list[list[Fraction]]:
    """Exact basis of the kernel; each vector has 1 in its free coordinate."""
    m, pivots, _, _ = rref(matrix.data)
    return _kernel(m, pivots, matrix.cols)


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


def _univariate(coeffs: Sequence[Fraction], var: str) -> MultiPoly:
    """The polynomial sum(coeffs[i] * var^i)."""
    return MultiPoly((var,), {(i,): c for i, c in enumerate(coeffs)})


# Past this size the divisor search of a coefficient is too slow to run.
ROOT_SEARCH_CAP = 10**12


class _SearchIncomplete(Exception):
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
    the integer-cleared polynomial, are tried.  Raises _SearchIncomplete when
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
            raise _SearchIncomplete("rational-root search capped")
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


@dataclass(frozen=True)
class EigenPair:
    value: int
    algebraic: int
    geometric: int
    basis: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class IntegerSpectrum:
    pairs: tuple[EigenPair, ...]


@dataclass(frozen=True)
class NonIntegerSpectrum:
    """The characteristic polynomial does not split over Z.

    Carries the unfactored remainder plus whatever integer eigenvalues were
    found before the search stalled (their multiplicities and the remainder
    degree account for the full dimension)."""

    remainder: MultiPoly
    partial: tuple[EigenPair, ...] = ()


def integer_eigen_data(matrix: RatMatrix) -> IntegerSpectrum | NonIntegerSpectrum:
    """Integer eigenvalues with multiplicities and exact eigenbases.

    The integer roots of the characteristic polynomial come from
    `rational_roots` and are divided out as often as they divide it.  If the
    polynomial does not split over Z, the unfactored remainder is reported
    instead of an eigenvalue list.  Raises _SearchIncomplete when the root
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

    pairs = []
    for value in sorted(roots):
        basis = nullspace(matrix.shifted(value))
        pairs.append(
            EigenPair(
                value=value,
                algebraic=roots[value],
                geometric=len(basis),
                basis=tuple(tuple(v) for v in basis),
            )
        )
    if len(poly) > 1:
        return NonIntegerSpectrum(_univariate(poly, "lambda"), tuple(pairs))
    return IntegerSpectrum(tuple(pairs))


@dataclass(frozen=True)
class AffineSolution:
    """Particular solution (free coordinates set to 0) plus kernel basis."""

    particular: tuple[MultiPoly, ...]
    nullspace: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class Inconsistent:
    """The elimination forced `witness = 0` for a nonzero polynomial."""

    witness: MultiPoly


def solve_affine(
    matrix: RatMatrix, rhs: Sequence[PolyLike]
) -> AffineSolution | Inconsistent:
    """Solve M x = b exactly, where b has polynomial entries.

    The elimination of [M | I] records in its identity block the row
    operations E it applies (the pivots depend on M alone), so each particular
    coordinate and each consistency witness is one row of E b, formed in one
    `packed_products` pass over the right sides, packed once.  Free
    coordinates are set to zero; the kernel of M is returned separately so
    callers can attach parameters themselves.
    """
    if not matrix.is_square():
        raise ShapeError("solve_affine expects a square matrix")
    if len(rhs) != matrix.rows:
        raise ShapeError("right side length mismatch")
    n = matrix.rows
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    m, pivots, _, _ = rref([list(row) + e for row, e in zip(matrix.data, unit)], n)
    b = [pack(as_poly(x)) for x in rhs]

    def combine(row: list[Fraction]) -> MultiPoly:
        return unpack(packed_products([(bk, _packed_constant(w)) for bk, w in zip(b, row[n:])]))

    for row in m[len(pivots) :]:
        witness = combine(row)
        if not witness.is_zero:
            return Inconsistent(witness=witness)
    particular = [MultiPoly.zero()] * n
    for row, col in zip(m, pivots):
        particular[col] = combine(row)
    kernel = _kernel(m, pivots, n)
    return AffineSolution(tuple(particular), tuple(tuple(v) for v in kernel))


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
