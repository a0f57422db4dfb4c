"""Composition, reversion and the coefficient-stream substitution against
the one-product-per-order loops and the table of series powers they
replaced.  Series equality includes the truncation, so `==` checks both."""

import random
from fractions import Fraction as Q

from oracles import (
    compose_by_power_loop,
    revert_by_power_loop,
    substitute_coeffs_by_power_table,
    substitute_poly_by_power_table,
)
from painleve.algebra import MultiPoly
from painleve.series import (
    EXACT,
    TruncatedSeries,
    TruncationUnderflow,
    compose,
    compose_many,
    revert_series,
    substitute_coeffs,
    substitute_poly,
)

X = "x"
R, P = MultiPoly.var("r"), MultiPoly.var("p")


def _coefficient(rng, with_params):
    """A nonzero rational, or with `with_params` sometimes a polynomial in r, p."""
    c = Q(rng.choice((1, -1, 2, -3, 5)), rng.choice((1, 2, 3)))
    if with_params and rng.random() < 0.5:
        return rng.choice((R, P, R * P, R**2 + P, R - 1)) * c
    return MultiPoly.const(c)


def _inner(rng, min_exp, invertible_lead=True):
    """min_exp 1 or 2, a truncation from one past the lead (shallow) up to
    nine orders beyond it, or EXACT for a finite polynomial."""
    lead = MultiPoly.const(Q(rng.choice((1, -1, 2, 3)), rng.choice((1, 2)))) if invertible_lead else R
    trunc = rng.choice((min_exp + 1, min_exp + 2, min_exp + rng.randint(3, 9), EXACT))
    top = min(trunc, min_exp + 5)
    coeffs = {min_exp: lead}
    for order in range(min_exp + 1, top):
        if rng.random() < 0.6:
            coeffs[order] = _coefficient(rng, with_params=True)
    return TruncatedSeries(X, coeffs, trunc)


def _outer(rng, lo_choices=range(-3, 4)):
    """A sparse outer series starting at a negative, zero or positive order,
    truncated a few orders on or EXACT; sometimes the zero series."""
    lo = rng.choice(lo_choices)
    if rng.random() < 0.1:
        return TruncatedSeries.zero(X, trunc=rng.choice((lo + 3, EXACT)))
    exact = rng.random() < 0.2
    trunc = EXACT if exact else lo + rng.randint(1, 8)
    top = lo + rng.randint(1, 4) if exact else trunc
    coeffs = {lo: _coefficient(rng, with_params=True)}
    for order in range(lo + 1, top):
        if rng.random() < 0.5:
            coeffs[order] = _coefficient(rng, with_params=True)
    return TruncatedSeries(X, coeffs, trunc)


def _cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        inner = _inner(rng, rng.choice((1, 1, 2)))
        yield inner, [_outer(rng) for _ in range(rng.randint(1, 4))]


def test_compose_matches_power_loop():
    seen = set()
    for inner, outers in _cases(20261018, 150):
        for outer in outers:
            assert compose(outer, inner) == compose_by_power_loop(outer, inner)
            seen.add(
                (
                    "zero" if outer.is_zero else ("negative" if outer.min_exp < 0 else "non-negative"),
                    "exact outer" if outer.trunc >= EXACT else "truncated outer",
                    inner.min_exp,
                    "exact inner" if inner.trunc >= EXACT else "truncated inner",
                )
            )
    # every kind of outer met every kind of inner
    assert len(seen) >= 20


def test_compose_many_matches_composing_one_at_a_time():
    ranges = set()
    for inner, outers in _cases(4107, 150):
        assert compose_many(outers, inner) == [compose(o, inner) for o in outers]
        ranges.add(len({(o.min_exp, o.trunc) for o in outers if not o.is_zero}))
    assert max(ranges) >= 3  # outers whose ranges differ share one power chain


def test_compose_many_with_a_parameter_lead():
    # outers starting at order 0 or 1 need no inverse of the inner lead
    rng = random.Random(77)
    for _ in range(40):
        inner = _inner(rng, 1, invertible_lead=False)
        outers = [_outer(rng, lo_choices=(0, 1)) for _ in range(3)]
        assert compose_many(outers, inner) == [compose_by_power_loop(o, inner) for o in outers]


def test_compose_many_of_no_outers():
    assert compose_many([], TruncatedSeries(X, {1: 1}, 5)) == []


# The engine's own names: solve_dominant's unknowns start with "_" and the
# regularizer's new variable is tau.  Composition and reversion bind symbols
# of their own, which must capture none of them.
ENGINE_NAMES = {"r": MultiPoly.var("_c0"), "p": MultiPoly.var("tau") + MultiPoly.var("_inner")}


def _engine_named(s):
    return s.map_coeffs(lambda c: c.replace(ENGINE_NAMES))


def test_compose_and_revert_with_engine_names_in_the_coefficients():
    for inner, outers in _cases(1618, 60):
        inner = _engine_named(inner)
        for outer in map(_engine_named, outers):
            assert compose(outer, inner) == compose_by_power_loop(outer, inner)
    rng = random.Random(2718)
    symbols = set()
    for _ in range(20):
        trunc = rng.randint(3, 9)
        coeffs = {1: Q(rng.choice((1, -2, 3)), rng.choice((1, 2)))}
        coeffs.update({order: _coefficient(rng, with_params=True) for order in range(2, trunc)})
        s = _engine_named(TruncatedSeries(X, coeffs, trunc))
        assert revert_series(s) == revert_by_power_loop(s)
        symbols.update(*(c.symbols() for c in s.coeffs.values()))
    assert symbols == {"_c0", "_inner", "tau"}


def test_revert_matches_power_loop():
    rng = random.Random(5150)
    for case in range(60):
        # parameters make the coefficients grow fast: keep those series short
        with_params = case % 2 == 0
        trunc = rng.randint(2, 10 if with_params else 20)
        coeffs = {1: Q(rng.choice((1, -1, 2, -3, 5)), rng.choice((1, 2, 3)))}
        for order in range(2, trunc):
            if rng.random() < 0.6:
                coeffs[order] = _coefficient(rng, with_params)
        s = TruncatedSeries(X, coeffs, trunc)
        assert revert_series(s) == revert_by_power_loop(s)


# Substitution.  The table of powers shifts EXACT truncations into values
# such as EXACT - 4, which mean "exact" too; the coefficient stream keeps
# them at EXACT.  Truncations are compared exactly below 2^29 only.
NEAR_EXACT = 1 << 29
A, B, T = MultiPoly.var("a"), MultiPoly.var("b"), MultiPoly.var("t")


def _binding(rng):
    """A first order from -2 to 2, a truncation one to five orders on or
    EXACT; sometimes the zero series, truncated or exact."""
    lo = rng.randint(-2, 2)
    if rng.random() < 0.12:
        return TruncatedSeries.zero(X, trunc=rng.choice((lo, lo + 2, EXACT)))
    trunc = rng.choice((lo + 1, lo + rng.randint(2, 5), EXACT))
    top = trunc if trunc < EXACT else lo + rng.randint(1, 4)
    coeffs = {lo: _coefficient(rng, with_params=True)}
    for order in range(lo + 1, top):
        if rng.random() < 0.6:
            coeffs[order] = _coefficient(rng, with_params=True)
    return TruncatedSeries(X, coeffs, trunc)


def _polynomial(rng):
    """One to four monomials in a, b (bound or not) and the unbound t, p."""
    total = MultiPoly.zero()
    for _ in range(rng.randint(1, 4)):
        term = MultiPoly.const(Q(rng.choice((1, -1, 2, 3)), rng.choice((1, 2))))
        for symbol, top in ((A, 3), (B, 2), (T, 1), (P, 1)):
            term = term * symbol ** rng.randint(0, top)
        total = total + term
    return total


def _bindings(rng):
    return {name: _binding(rng) for name in rng.choice((("a",), ("a", "b")))}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except TruncationUnderflow:
        return TruncationUnderflow


def _kind(new, ref):
    """Asserts that two substitution outcomes agree; returns what they were."""
    if ref is TruncationUnderflow or new is TruncationUnderflow:
        assert new is ref
        return "underflow"
    assert new.var == ref.var and new.coeffs == ref.coeffs
    if ref.trunc >= NEAR_EXACT:
        assert new.trunc >= NEAR_EXACT
        return "exact"
    assert new.trunc == ref.trunc
    return "truncated"


def test_substitute_poly_matches_power_table():
    rng = random.Random(20261018)
    kinds = []
    for _ in range(1500):
        bindings = _bindings(rng)
        f = _polynomial(rng)
        cap = rng.choice(list(range(-10, 11)) + [EXACT] * 4)
        new = _outcome(substitute_poly, f, bindings, cap)
        kinds.append(_kind(new, _outcome(substitute_poly_by_power_table, f, bindings, cap)))
    assert min(kinds.count(kind) for kind in ("underflow", "exact", "truncated")) >= 10


def test_substitute_coeffs_matches_power_table():
    rng = random.Random(8128)
    kinds = []
    for _ in range(800):
        bindings = _bindings(rng)
        lo = rng.randint(-3, 2)
        trunc = rng.choice((lo + rng.randint(0, 6), EXACT))
        top = trunc if trunc < EXACT else lo + rng.randint(1, 4)
        s = TruncatedSeries(X, {o: _polynomial(rng) for o in range(lo, top)}, trunc)
        new = _outcome(substitute_coeffs, s, bindings)
        kinds.append(_kind(new, _outcome(substitute_coeffs_by_power_table, s, bindings)))
    assert min(kinds.count(kind) for kind in ("underflow", "exact", "truncated")) >= 10
