"""The shared, truncation-bounded composition and the baby-step/giant-step
reversion against the one-product-per-order loops they replaced.  Series
equality includes the truncation, so `==` checks both."""

import random
from fractions import Fraction as Q

from oracles import compose_by_power_loop, revert_by_power_loop
from painleve.algebra import MultiPoly
from painleve.series import EXACT, TruncatedSeries, compose, compose_many, revert_series

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
