import gc
import random
from fractions import Fraction as Q

import pytest

from oracles import agrees_with
from painleve.algebra import MultiPoly
from painleve.series import (
    EXACT,
    NotReversible,
    TruncatedSeries,
    TruncationUnderflow,
    VariableMismatch,
    compose,
    rational_power_of_unit,
    revert_series,
    substitute_coeffs,
    substitute_poly,
)

X = "x"


def S(coeffs, trunc=EXACT):
    return TruncatedSeries(X, coeffs, trunc)


def test_laurent_times_monomial():
    assert agrees_with(S({-1: 1, 0: 1}, 5) * S({1: 1}), S({0: 1, 1: 1}))


def test_truncate():
    assert S({0: 1, 1: 1, 2: 1}, 5).truncate(2) == S({0: 1, 1: 1}, 2)


def test_shift():
    assert S({0: 1, 1: 1}, 5).shift(-2) == S({-2: 1, -1: 1}, 3)


def test_add_respects_truncation():
    out = S({0: 1}, 3) + S({1: 2}, 7)
    assert out.trunc == 3
    assert out.coeff(1) == MultiPoly.const(2)


def test_variable_mismatch():
    with pytest.raises(VariableMismatch):
        S({0: 1}) + TruncatedSeries("y", {0: 1}, EXACT)


def test_substitute_square_of_pole():
    out = substitute_poly(MultiPoly.var("u") ** 2, {"u": S({-1: -1})})
    assert agrees_with(out, S({-2: 1}))


def test_substitute_identity_binding():
    r = MultiPoly.var("r")
    series = TruncatedSeries(X, {-3: -2, 3: 4 * r}, EXACT)
    out = substitute_poly(MultiPoly.var("u2"), {"u2": series})
    assert agrees_with(out, series)
    assert out.coeffs == series.coeffs


def test_substitute_frozen_example():
    # 6 u^2 at u = x^-2 + r x^4 (trunc 8): hand expansion
    # 6 x^-4 + 12 r x^2 + 6 r^2 x^8, truncated to orders < 6
    r = MultiPoly.var("r")
    u_series = TruncatedSeries(X, {-2: 1, 4: r}, 8)
    out = substitute_poly(6 * MultiPoly.var("u") ** 2, {"u": u_series})
    assert out.trunc == 6
    assert out.coeff(-4) == MultiPoly.const(6)
    assert out.coeff(2) == 12 * r
    assert out.coeff(0) == MultiPoly.zero()


def test_substitute_shallow_bindings():
    # one known coefficient still determines the lowest product order
    shallow = TruncatedSeries(X, {-1: 1}, -1 + 1)
    out = substitute_poly(MultiPoly.var("u") ** 3, {"u": shallow})
    assert out.trunc == -2
    assert out.coeff(-3) == MultiPoly.const(1)


def test_substitute_low_order_cap_is_valid_zero_knowledge():
    # asking only for orders below every possible contribution yields an
    # honestly-empty series, not an error (the coefficient recursion relies
    # on this when later variables have zero leading data)
    s = TruncatedSeries(X, {1: 1}, 5)
    out = substitute_poly(MultiPoly.var("u") ** 2, {"u": s}, order=1)
    assert out.is_zero and out.trunc == 1
    # the cap bounds the products as they are formed; every order below it,
    # and the truncation, are those of the full expansion cut at the cap
    a, b, r = (MultiPoly.var(nm) for nm in ("a", "b", "r"))
    f = a**3 * b - 2 * a * b**2 * r + 5 * b**3 + a**2
    cases = [
        {"a": S({-1: 2, 0: r, 2: -1}, 4), "b": S({1: 1, 2: 3}, 5)},  # truncated
        {"a": S({-2: 1, 1: -1}), "b": S({0: r, 3: 2})},  # exact
        {"a": S({0: 1, 1: 1}, 3), "b": S({-1: 1, 0: -2})},  # mixed
        {"a": S({1: 1}, 4), "b": S({}, 2)},  # a zero binding known below 2
    ]
    for bindings in cases:
        full = substitute_poly(f, bindings)
        # N = -10 lies below the lowest order any term can reach
        for N in range(-10, 12):
            assert substitute_poly(f, bindings, order=N) == full.truncate(N)


def test_revert_identity_and_linear():
    assert agrees_with(revert_series(S({1: 1}, 6)), S({1: 1}))
    assert agrees_with(revert_series(S({1: 2}, 6)), S({1: Q(1, 2)}))


def test_revert_frozen_example():
    # w with s(w(x)) = x mod x^5 for s = x + x^2: x - x^2 + 2x^3 - 5x^4
    w = revert_series(S({1: 1, 2: 1}, 5))
    assert w.coeff(1) == MultiPoly.const(1)
    assert w.coeff(2) == MultiPoly.const(-1)
    assert w.coeff(3) == MultiPoly.const(2)
    assert w.coeff(4) == MultiPoly.const(-5)
    assert agrees_with(compose(S({1: 1, 2: 1}, 5), w), S({1: 1}))


def test_revert_of_an_exact_series():
    # an exact monomial c x reverts to the exact x / c; any other exactly
    # known series has an infinite inverse and is refused, not expanded
    assert revert_series(S({1: 2})) == S({1: Q(1, 2)})
    assert revert_series(S({1: -1})) == S({1: -1})
    with pytest.raises(ValueError, match="infinite object"):
        revert_series(S({1: 1, 2: 1}))


def test_revert_requires_unit_leading():
    with pytest.raises(NotReversible):
        revert_series(S({2: 1}, 5))
    with pytest.raises(NotReversible):
        revert_series(TruncatedSeries(X, {1: MultiPoly.var("r")}, 5))


def test_compose_scaling():
    out = compose(S({-1: 1}, 4), S({1: 2}))
    assert out.coeff(-1) == MultiPoly.const(Q(1, 2))


def test_compose_negative_binomial():
    # x^-2 at x + x^2: binomial oracle (1+x)^-2 = 1 - 2x + 3x^2 - 4x^3 ...
    out = compose(S({-2: 1}, 6), S({1: 1, 2: 1}))
    for order, expected in [(-2, 1), (-1, -2), (0, 3), (1, -4), (2, 5)]:
        assert out.coeff(order) == MultiPoly.const(expected)


def test_compose_requires_positive_inner_order():
    with pytest.raises(ValueError):
        compose(S({0: 1}, 3), S({0: 1, 1: 1}))


def _random_series(rng, with_params=False):
    coeffs = {1: Q(rng.choice((1, -1, 2, 3)), rng.choice((1, 2)))}
    for order in range(2, 6):
        pick = rng.randrange(4)
        if pick == 0:
            continue
        if with_params and pick == 1:
            coeffs[order] = MultiPoly.var("r") * Q(rng.randint(-2, 2))
        else:
            coeffs[order] = Q(rng.randint(-3, 3))
    return TruncatedSeries(X, coeffs, 7)


def test_reversion_round_trip_random():
    rng = random.Random(23)
    ident = S({1: 1})
    for _ in range(12):
        s = _random_series(rng, with_params=rng.random() < 0.5)
        w = revert_series(s)
        assert agrees_with(compose(s, w), ident)
        assert agrees_with(compose(w, s), ident)


def _oracle_reversion(coeffs, trunc):
    """Reversion by sympy's ring_series, as {order: Fraction}."""
    from sympy import QQ
    from sympy.polys.ring_series import rs_series_reversion
    from sympy.polys.rings import ring

    _, x, y = ring("x, y", QQ)
    p = sum((QQ(c.numerator, c.denominator) * x**o for o, c in coeffs.items()), 0 * x)
    out = rs_series_reversion(p, x, trunc, y)
    return {e[1]: Q(int(c.numerator), int(c.denominator)) for e, c in out.terms()}


def _rational_coeffs(w):
    return {o: p.constant_value() for o, p in w.coeffs.items()}


def test_reversion_matches_sympy():
    pytest.importorskip("sympy")
    example = {1: Q(2), 2: Q(1), 3: Q(5)}
    expected = {1: Q(1, 2), 2: Q(-1, 8), 3: Q(-1, 4), 4: Q(45, 128), 5: Q(13, 64)}
    assert _oracle_reversion(example, 6) == expected
    assert _rational_coeffs(revert_series(S(example, 6))) == expected
    rng = random.Random(41)
    for _ in range(20):
        trunc = rng.randint(2, 12)
        coeffs = {1: Q(rng.choice((1, -1, 2, -3, 5)), rng.choice((1, 2, 3)))}
        for order in range(2, trunc):
            if rng.random() < 0.7:
                coeffs[order] = Q(rng.randint(-4, 4), rng.randint(1, 3))
        w = revert_series(S(coeffs, trunc))
        assert w.trunc == trunc
        assert _rational_coeffs(w) == _oracle_reversion(coeffs, trunc)


def test_substitute_coeffs_matches_termwise_substitution():
    rng = random.Random(13)
    a, b, c = (MultiPoly.var(nm) for nm in "abc")
    pool = [a, b, a * b, a**3, b**2 * c, c, a**2 + 3 * b]
    for _ in range(30):
        s = S({o: rng.choice(pool) * rng.randint(-2, 2) for o in range(-1, 5)}, rng.choice((4, 5, EXACT)))
        bindings = {
            "a": _random_series(rng).shift(rng.choice((-2, 0, 2))),
            "b": rng.choice((_random_series(rng).shift(-1), S({}))),
        }
        expected = S({})
        for o, poly in s.coeffs.items():
            expected = expected + substitute_poly(poly, bindings).shift(o)
        out = substitute_coeffs(s, bindings)
        assert out.trunc == min(expected.trunc, s.trunc)
        assert agrees_with(out, expected)
    plain = S({0: c, 2: 1}, 4)
    assert substitute_coeffs(plain, {"a": S({1: 1})}) is plain


def test_substitute_coeffs_underflow_only_within_truncation():
    # b is known only below order 1, so b's share of x^3 b is unknown from
    # x^4 on: that starves a series kept to x^6, not one kept to x^4
    a, b = MultiPoly.var("a"), MultiPoly.var("b")
    bindings = {"a": S({2: 1}, 5), "b": S({}, 1)}
    out = substitute_coeffs(S({3: a**2 + b}, 4), bindings)
    assert out.is_zero and out.trunc == 4
    with pytest.raises(TruncationUnderflow):
        substitute_coeffs(S({3: a**2 + b}, 6), bindings)


def test_substitution_leaves_no_garbage_cycle():
    a, b = MultiPoly.var("a"), MultiPoly.var("b")
    bindings = {"a": S({0: 1, 1: 2}, 6), "b": S({1: 1, 2: -1}, 6)}
    s = S({-1: a**4 * b, 1: a**2 + b**3, 2: 7}, 6)
    gc.collect()
    gc.disable()
    try:
        substitute_poly(a**5 * b**2, bindings)
        assert gc.collect() == 0
        substitute_coeffs(s, bindings)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_substitute_multiplicative_random():
    rng = random.Random(5)
    names = ("a", "b")
    for _ in range(12):
        f = MultiPoly.zero()
        g = MultiPoly.zero()
        for _ in range(3):
            ea, eb = rng.randrange(3), rng.randrange(2)
            f = f + MultiPoly(("a", "b"), {(ea, eb): rng.randint(-2, 2)})
            g = g + MultiPoly(("a", "b"), {(rng.randrange(2), rng.randrange(2)): rng.randint(-2, 2)})
        bindings = {nm: _random_series(rng).shift(rng.choice((-1, 0))) for nm in names}
        lhs = substitute_poly(f * g, bindings)
        rhs = substitute_poly(f, bindings) * substitute_poly(g, bindings)
        assert agrees_with(lhs, rhs)


def test_ring_axioms_random():
    rng = random.Random(17)
    for _ in range(10):
        a = _random_series(rng).shift(rng.choice((-2, 0)))
        b = _random_series(rng).shift(rng.choice((-1, 0)))
        c = _random_series(rng)
        assert agrees_with(a + b, b + a)
        assert agrees_with((a + b) + c, a + (b + c))
        assert agrees_with(a * b, b * a)
        assert agrees_with((a * b) * c, a * (b * c))
        assert agrees_with(a * (b + c), a * b + a * c)
        assert (a - a).is_zero


def test_inverse_is_reciprocal():
    rng = random.Random(29)
    one = S({0: 1})
    for _ in range(8):
        s = _random_series(rng, with_params=True).shift(rng.choice((-2, -1, 0)))
        inv = s.inverse()
        assert agrees_with(s * inv, one)


def test_rational_power_of_unit():
    unit = S({0: 1, 1: 1}, 9)
    half = rational_power_of_unit(unit, -1, 2)
    assert agrees_with(half * half * unit, S({0: 1}))


def test_var_derivative():
    s = S({-1: 1, 0: 5, 2: 3}, 5)
    d = s.var_derivative()
    assert d.coeff(-2) == MultiPoly.const(-1)
    assert d.coeff(1) == MultiPoly.const(6)
    assert d.trunc == 4


def _oracle_unit_power(coeffs, num, den, trunc):
    """(1 + w)^(num/den) by sympy's ring_series, as {order: Fraction}."""
    from sympy import QQ, Rational
    from sympy.polys.ring_series import rs_pow
    from sympy.polys.rings import ring

    _, x = ring("x", QQ)
    p = sum((QQ(c.numerator, c.denominator) * x**o for o, c in coeffs.items()), 1 + 0 * x)
    out = rs_pow(p, Rational(num, den), x, trunc)
    return {e[0]: Q(int(c.numerator), int(c.denominator)) for e, c in out.terms()}


def test_rational_power_of_unit_matches_sympy():
    pytest.importorskip("sympy")
    rng = random.Random(61)
    for num, den in ((-3, 1), (-1, 1), (-1, 2), (1, 3), (5, 2)):
        for _ in range(8):
            trunc = rng.randint(1, 12)
            coeffs = {
                o: Q(rng.randint(-4, 4), rng.randint(1, 3))
                for o in range(1, trunc)
                if rng.random() < 0.7
            }
            out = rational_power_of_unit(S({0: 1, **coeffs}, trunc), num, den)
            assert out.trunc == trunc
            assert _rational_coeffs(out) == _oracle_unit_power(coeffs, num, den, trunc)


def test_power_times_inverse_power_is_one_with_parameters():
    rng = random.Random(67)
    one = S({0: 1})
    for _ in range(10):
        s = _random_series(rng, with_params=True).shift(rng.choice((-2, -1, 0)))
        for n in (1, 2, 3, 5):
            assert agrees_with(s**n * s**-n, one)
            assert agrees_with(s**-n, s.inverse() ** n)


def test_power_needs_an_invertible_rational_lead():
    s = S({1: MultiPoly.var("r"), 2: 1}, 6)
    assert s**1 is s
    with pytest.raises(NotReversible):
        s**2


def test_inverse_products_grow_quadratically(count_products):
    # Miller's recurrence costs O(T^2) coefficient products, so doubling the
    # truncation multiplies the count by about 4; summing (-w)^j gives about 8
    at_30, at_60 = (
        count_products(S({o: Q(o % 5 + 1, o % 3 + 1) for o in range(trunc)}, trunc).inverse)
        for trunc in (30, 60)
    )
    assert at_60 / at_30 < 5
