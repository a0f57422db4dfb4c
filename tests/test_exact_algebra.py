import random
from fractions import Fraction as Q

import pytest

import oracles
from oracles import char_poly
from painleve import algebra
from painleve.algebra import (
    ExponentOverflow,
    Inconsistent,
    MultiPoly,
    RatMatrix,
    ShapeError,
    integer_eigenvalues,
    nullspace,
    poly_det,
    poly_json,
    rank,
    solve_affine,
)
from painleve.model import T_SYMBOL
from test_exponent_search import DATA_SYSTEMS

u = MultiPoly.var("u")
t = MultiPoly.var("t")


def test_difference_of_squares():
    assert (u + 1) * (u - 1) == u**2 - 1


def test_partial_derivative():
    assert (u**2 * 6).partial("u") == 12 * u
    assert (u**2 * 6).partial("v") == MultiPoly.zero()


def test_replace_partial():
    assert (u * t + u).replace({"t": MultiPoly.const(2)}) == 3 * u


def test_structural_equality_independent_of_var_list():
    a = MultiPoly(("u", "v"), {(1, 0): 1, (0, 0): 1})
    b = MultiPoly(("u",), {(1,): 1, (0,): 1})
    assert a == b
    assert hash(a) == hash(b)


def test_weighted_degree():
    q1, p2 = MultiPoly.var("q1"), MultiPoly.var("p2")
    f = -q1 * p2**2
    assert f.weighted_degree({"q1": 2, "p2": 3}) == 8
    assert (u**2).weighted_degree({"u": 1}) == 2
    assert MultiPoly.zero().weighted_degree({"u": 1}) is None


def test_weighted_degree_ignores_time():
    f = u**2 * t**5
    assert f.weighted_degree({"u": 1}) == 2


def test_str_canonical():
    assert str(u**2 - 1) == "u^2 - 1"
    assert str(MultiPoly.zero()) == "0"
    assert str(-u * Q(1, 2)) == "-1/2*u"


def test_printers_follow_names_not_fields():
    # fields numbered in reverse alphabetical order, so that key order and
    # print order disagree; large and negative coefficients over one
    # denominator that only some of them share
    pc, pb, pa = (MultiPoly.var(name) for name in ("prn_c", "prn_b", "prn_a"))
    big = Q(-(10**40), 3)
    polys = [
        pa * big + pb**2 * pc - 1,
        (pa + pb + pc + Q(1, 7)) ** 3 * big,
        pc**2 * pb * Q(10**40 + 1, 6) - pa**3 * Q(5, 2) + pb * pa * 3,
        MultiPoly.const(big),
        MultiPoly.const(-1) + pa,
        -(pa * pb * pc),
        MultiPoly.zero(),
    ]
    assert str(polys[0]) == "prn_b^2*prn_c - 10000000000000000000000000000000000000000/3*prn_a - 1"
    for p in polys:
        assert str(p) == oracles.poly_str(p)
        assert poly_json(p) == oracles.poly_json(p)


def test_char_poly_1x1():
    lam = MultiPoly.var("lambda")
    assert char_poly(RatMatrix([[-1]])) == lam + 1


def test_char_poly_2x2_hand_oracle():
    # trace 5, det 2*3 - 1*12 = -6
    lam = MultiPoly.var("lambda")
    assert char_poly(RatMatrix([[2, 1], [12, 3]])) == lam**2 - 5 * lam - 6


def test_char_poly_gd_factors():
    K = RatMatrix([[2, 0, 0, -2], [-2, 4, -2, -2], [12, -6, 5, 2], [-6, 2, 0, 3]])
    lam = MultiPoly.var("lambda")
    expected = (lam + 1) * (lam - 2) * (lam - 5) * (lam - 8)
    assert char_poly(K) == expected


def test_char_poly_requires_square():
    with pytest.raises(ShapeError):
        char_poly(RatMatrix([[1, 2]]))


def _is_multiple(v, w):
    pairs = [(a, b) for a, b in zip(v, w)]
    scale = None
    for a, b in pairs:
        if (a == 0) != (b == 0):
            return False
        if a != 0:
            r = b / a
            if scale is None:
                scale = r
            elif r != scale:
                return False
    return scale is not None and scale != 0


def test_integer_eigen_2x2():
    M = RatMatrix([[2, 1], [12, 3]])
    roots, remainder = integer_eigenvalues(M)
    assert roots == {-1: 1, 6: 1} and list(roots) == [-1, 6]
    assert remainder == [1]
    # hand oracle: (M - lambda I) v = 0 gives (1,-3) and (1,4)
    (minus_one,) = nullspace(M.shifted(-1))
    (six,) = nullspace(M.shifted(6))
    assert _is_multiple(minus_one, (Q(1), Q(-3)))
    assert _is_multiple(six, (Q(1), Q(4)))


def test_integer_eigen_gd():
    K = RatMatrix([[2, 0, 0, -2], [-2, 4, -2, -2], [12, -6, 5, 2], [-6, 2, 0, 3]])
    roots, remainder = integer_eigenvalues(K)
    assert list(roots.items()) == [(-1, 1), (2, 1), (5, 1), (8, 1)]
    assert remainder == [1]
    assert all(len(nullspace(K.shifted(r))) == 1 for r in roots)


def test_non_integer_spectrum():
    roots, remainder = integer_eigenvalues(RatMatrix([[0, 1], [-1, 0]]))
    assert roots == {}
    assert remainder == [1, 0, 1]  # lambda^2 + 1


def test_eigen_exactness_random():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice((2, 3))
        M = RatMatrix(
            [[Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)]
        )
        roots, remainder = integer_eigenvalues(M)
        # multiplicities plus the unfactored degree cover the dimension
        assert sum(roots.values()) + len(remainder) - 1 == n
        # and no integer root is left in the remainder
        assert all(r.denominator != 1 for r in oracles.rational_roots_by_synthetic_division(remainder))
        for value in roots:
            shifted = oracles.matrix_sub(M, oracles.matrix_scale(RatMatrix.identity(n), value))
            assert M.shifted(value) == shifted
            basis = nullspace(shifted)
            assert 1 <= len(basis) <= roots[value]
            for vec in basis:
                assert all(x == 0 for x in oracles.matvec(shifted, vec))


def test_cayley_hamilton_random():
    rng = random.Random(11)
    lam = "lambda"
    for _ in range(15):
        n = rng.choice((2, 3))
        M = RatMatrix(
            [[Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        )
        p = char_poly(M, var=lam)
        coeffs = [Q(0)] * (n + 1)
        for exps, c in p.terms.items():
            coeffs[exps[0] if exps else 0] = c
        acc = oracles.zeros(n, n)
        for c in reversed(coeffs):
            acc = oracles.matrix_add(acc * M, oracles.matrix_scale(RatMatrix.identity(n), c))
        assert acc == oracles.zeros(n, n)


r2 = MultiPoly.var("r2")
r3 = MultiPoly.var("r3")


def test_solve_affine_identity():
    assert solve_affine(RatMatrix.identity(2), [r2, r3 + 1]) == (r2, r3 + 1)


def test_solve_affine_free_coordinate():
    # the free coordinate is set to zero
    sol = solve_affine(RatMatrix([[0, 0], [0, 1]]), [MultiPoly.zero(), r2])
    assert sol == (MultiPoly.zero(), r2)


def test_solve_affine_inconsistent():
    out = solve_affine(RatMatrix([[0, 0], [0, 1]]), [r2, MultiPoly.zero()])
    assert isinstance(out, Inconsistent)
    assert out.witness == r2


def test_solve_affine_shape_error():
    with pytest.raises(ShapeError):
        solve_affine(RatMatrix([[1, 2]]), [r2])


def test_solve_affine_solution_property_random():
    rng = random.Random(3)
    syms = [MultiPoly.var(s) for s in ("a", "b")]
    for _ in range(20):
        n = rng.choice((2, 3))
        M = RatMatrix([[Q(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        x_true = [
            syms[rng.randrange(2)] * Q(rng.randint(-2, 2)) + Q(rng.randint(-1, 1))
            for _ in range(n)
        ]
        b = [
            sum((x_true[j] * M.entry(i, j) for j in range(n)), MultiPoly.zero())
            for i in range(n)
        ]
        sol = solve_affine(M, b)
        assert isinstance(sol, tuple)
        # M (particular + sum c_k v_k) = b for arbitrary rational c_k
        kernel = nullspace(M)
        weights = [Q(rng.randint(-3, 3)) for _ in kernel]
        x = [
            sol[j] + sum((Q(w) * v[j] for w, v in zip(weights, kernel)), MultiPoly.zero())
            for j in range(n)
        ]
        for i in range(n):
            residual = (
                sum((x[j] * M.entry(i, j) for j in range(n)), MultiPoly.zero()) - b[i]
            )
            assert residual.is_zero


def test_fraction_canonical_random():
    rng = random.Random(19)
    for _ in range(200):
        a = Q(rng.randint(-40, 40), rng.randint(1, 30))
        b = Q(rng.randint(-40, 40), rng.randint(1, 30))
        for value in (a + b, a - b, a * b) + ((a / b,) if b else ()):
            from math import gcd

            assert value.denominator > 0
            assert gcd(abs(value.numerator), value.denominator) == 1


def test_rank():
    assert rank([]) == 0
    assert rank([[Q(0), Q(0)]]) == 0
    assert rank([[Q(1), Q(2)], [Q(2), Q(4)]]) == 1
    assert rank([[Q(1), Q(2)], [Q(2), Q(4)], [Q(0), Q(1)]]) == 2


def test_nullspace_free_coordinate_convention():
    basis = nullspace(RatMatrix([[1, 2, 3], [0, 0, 0], [1, 2, 3]]))
    assert len(basis) == 2
    for vec in basis:
        assert any(x == 1 for x in vec)


def test_poly_det():
    a = MultiPoly.var("a")
    rows = [[a, MultiPoly.const(1)], [MultiPoly.const(2), a]]
    assert poly_det(rows) == a**2 - 2


# ----------------------------------------------------------------------
# the ring operations against the validating references in `oracles`

x, y = MultiPoly.var("x"), MultiPoly.var("y")
SCALARS = (0, -1, Q(3, 7))
LIMIT = 1 << 31  # the first exponent a packed field refuses
# fresh symbols whose fields are numbered against the order the canonical
# form sorts them in
REVERSED = ("rev_z", "rev_y", "rev_x", "rev_w")
for _name in REVERSED:
    MultiPoly.var(_name)


def _check(op, ref, *args):
    """op(*args) equals ref(*args), is canonical, and left every operand
    (and the shared zero) as it was."""
    polys = [MultiPoly.zero()]
    for arg in args:
        polys.extend(arg.values() if isinstance(arg, dict) else [arg])
    polys = [p for p in polys if isinstance(p, MultiPoly)]
    before = [(p.vars, dict(p.terms)) for p in polys]
    result = op(*args)
    assert [(p.vars, p.terms) for p in polys] == before
    expected = ref(*args)
    assert result == expected
    assert (result.vars, result.terms) == (expected.vars, expected.terms)
    assert hash(result) == hash(expected)
    assert list(result.vars) == sorted(set(result.vars))
    assert all(any(e[i] for e in result.terms) for i in range(len(result.vars)))
    assert all(len(e) == len(result.vars) for e in result.terms)
    assert all(type(c) is Q and c != 0 for c in result.terms.values())
    assert MultiPoly(result.vars, result.terms) == result
    return result


def _battery(a, b, rng):
    _check_readers(a, b)
    _check(lambda p, q: p + q, oracles.poly_add, a, b)
    _check(lambda p, q: p - q, oracles.poly_sub, a, b)
    _check(lambda p, q: p * q, oracles.poly_mul, a, b)
    _check(lambda p: -p, oracles.poly_neg, a)
    for s in SCALARS:
        _check(lambda p, c: p * c, oracles.poly_mul, a, s)
        _check(lambda p, c: c * p, oracles.poly_mul, a, s)
        _check(lambda p, c: p + c, oracles.poly_add, a, MultiPoly.const(s))
    for name in a.vars + ("absent",):
        _check(lambda p, v: p.partial(v), oracles.poly_partial, a, name)
    if a.vars:
        names = rng.sample(a.vars, rng.randint(1, len(a.vars)))
        bindings = {v: rng.choice((b, a, MultiPoly.zero(), MultiPoly.const(2))) for v in names}
        _check(_replace, oracles.poly_replace, a, bindings)
        first, *rest = rng.sample(a.vars, len(a.vars))
        # scaled monomials, and a rename onto a symbol that stays unbound
        for one in (y * Q(-3, 2), x**2 * t * 2, MultiPoly.var(rest[0]) if rest else -t):
            _check(_replace, oracles.poly_replace, a, {first: one})
            if rest:  # beside a binding of several terms
                for many in (b, x - 2 * y):
                    _check(_replace, oracles.poly_replace, a, {first: one, rest[-1]: many})
        _check(_replace, oracles.poly_replace, a, {first: MultiPoly.zero()})
        if rest:  # a binding under which every term cancels
            onto = {first: MultiPoly.var(rest[0])}
            renamed = _check(_replace, oracles.poly_replace, a, onto)
            assert _check(_replace, oracles.poly_replace, oracles.poly_sub(a, renamed), onto).is_zero
        _check_overflow(a, first)


def _check_readers(a, b):
    """The tuple readers, `==` and `hash` of a and b against the references."""
    for p in (a, b):
        for name in p.vars + ("absent",):
            assert p.degree_in(name) == oracles.poly_degree_in(p, name)
        for weights in ({v: i + 1 for i, v in enumerate(p.vars)}, {v: 2 for v in p.vars[1:]}, {}):
            top = p.weighted_degree(weights)
            assert top == oracles.poly_weighted_degree(p, weights)
            for degree in (top or 0, (top or 0) - 1, 2):
                _check(_weighted_part, oracles.poly_weighted_part, p, weights, degree)
        assert str(p) == oracles.poly_str(p)
        assert poly_json(p) == oracles.poly_json(p)
    assert (a == b) == ((a.vars, a.terms) == (b.vars, b.terms))
    # the same polynomial by other routes: rebuilt from its tuple view, as
    # (a - b) + b through the references, as a sum of its terms in reverse
    # print order, and as (a + b) - b
    routes = [MultiPoly(a.vars, a.terms), oracles.poly_add(oracles.poly_sub(a, b), b)]
    routes.append(sum((MultiPoly(a.vars, {e: c}) for e, c in reversed(oracles.poly_sorted_terms(a))), MultiPoly.zero()))
    routes.append((a + b) - b)
    for other in routes:
        assert other == a and hash(other) == hash(a)


def _check_overflow(a, name):
    """A one-term binding of `name` in a and a power that shift a field to
    2**31 raise ExponentOverflow; one exponent less is exact."""
    d = a.degree_in(name)
    fresh = "rev_w" if "rev_w" not in a.vars else "x_fresh"
    top = MultiPoly((fresh,), {((LIMIT - 1) // d,): 1})
    below = _check(_replace, oracles.poly_replace, a, {name: top})
    assert below.degree_in(fresh) == (LIMIT - 1) // d * d
    with pytest.raises(ExponentOverflow):
        a.replace({name: MultiPoly((fresh,), {(-(-LIMIT // d),): Q(-1, 3)})})
    with pytest.raises(ExponentOverflow):  # 3 (2**31 - 1) would carry past the field's guard
        (MultiPoly.var(name) ** 3).replace({name: MultiPoly((fresh,), {(LIMIT - 1,): 1})})
    with pytest.raises(ExponentOverflow):
        below * MultiPoly((fresh,), {(LIMIT - below.degree_in(fresh),): 1})
    with pytest.raises(ExponentOverflow):
        MultiPoly.var(name) ** LIMIT


def _replace(p, bindings):
    return p.replace(bindings)


def _weighted_part(p, weights, degree):
    return p.weighted_part(weights, degree)


def _random_poly(rng, pool=("a", "b", "t", "x", "y")):
    names = rng.sample(pool, rng.randint(0, min(3, len(pool))))
    raw = {}
    for _ in range(rng.randint(0, 4)):
        raw[tuple(rng.randint(0, 2) for _ in names)] = Q(rng.randint(-4, 4), rng.randint(1, 3))
    return MultiPoly(names, raw)


def _random_pair(rng):
    a = _random_poly(rng)
    kind = rng.randrange(4)
    if kind == 0:  # a free second operand
        return a, _random_poly(rng)
    if kind == 1:  # cancels most of a
        return a, oracles.poly_add(oracles.poly_neg(a), _random_poly(rng, ("a", "x")))
    if kind == 2:  # on variables a does not use
        return a, _random_poly(rng, tuple(v for v in ("a", "b", "t", "x", "y", "z") if v not in a.vars))
    return a, oracles.poly_neg(a)


FIXED_PAIRS = [
    (x + 1, y * 2),  # disjoint variables
    (x * y + x, x - y),  # overlapping variables
    (x + y, -y),  # the sum loses y
    (x * y - 3, x * y - 3),  # p - p
    (MultiPoly.zero(), x + y),
    (x**2 + y, MultiPoly.zero()),
    (MultiPoly.const(Q(5, 2)), x - y),
    (MultiPoly.const(-2), MultiPoly.const(2)),
]


@pytest.mark.parametrize("a,b", FIXED_PAIRS, ids=[f"{a}|{b}" for a, b in FIXED_PAIRS])
def test_ring_operations_match_reference_on_fixed_pairs(a, b):
    _battery(a, b, random.Random(3))


REPLACE_CASES = [
    (x + y, {"x": -y}, MultiPoly.zero()),  # cancels to zero
    (x * y - y**2, {"x": y}, MultiPoly.zero()),
    (x * t + y * t + 2, {"x": -y}, MultiPoly.const(2)),  # loses y and t
    (x * y + x + y, {"x": MultiPoly.zero()}, y),  # a zero binding drops terms
    (x * y + 3, {"x": y - 1, "y": x}, x * y - x + 3),  # simultaneous, onto a bound name
]


@pytest.mark.parametrize("a,bindings,expected", REPLACE_CASES, ids=[str(c[0]) for c in REPLACE_CASES])
def test_replace_cancels_and_drops_symbols(a, bindings, expected):
    assert _check(_replace, oracles.poly_replace, a, bindings) == expected


def test_one_term_bindings_form_no_products(count_products):
    # renaming every corpus right side as the dominant solve does (u_i to _c<i>,
    # t to t0) maps each term to one term; the term-by-term route it replaces
    # multiplied out every bound factor and counted 74 products here
    def rename_all():
        for sys in DATA_SYSTEMS.values():
            bindings = {u: MultiPoly.var(f"_c{i}") for i, u in enumerate(sys.u_symbols)}
            bindings[T_SYMBOL] = MultiPoly.var("t0")
            for f in sys.rhs:
                f.replace(bindings)

    assert count_products(rename_all) == 0


def test_ring_operations_cancel_variables_and_reuse_zero():
    assert ((x + y) + (-y)).vars == ("x",)
    p = x * y - 3
    assert (p - p).vars == () and (p - p).is_zero
    assert (p * 0) is MultiPoly.zero() and MultiPoly.const(0) is MultiPoly.zero()
    assert ((x + 1) * (x - 1)).vars == ("x",)
    assert (x * y + x).partial("y").vars == ("x",)


def test_ring_operations_match_reference_on_random_pairs():
    rng = random.Random(20261018)
    for _ in range(300):
        a, b = _random_pair(rng)
        _battery(a, b, rng)


def test_ring_operations_match_reference_over_reversed_fields():
    fields = [algebra._FIELDS[name] for name in REVERSED]
    assert fields == sorted(fields) and sorted(REVERSED) != list(REVERSED)
    rng = random.Random(20261019)
    for _ in range(200):
        a = _random_poly(rng, REVERSED)
        b = rng.choice(
            (
                _random_poly(rng, REVERSED),
                oracles.poly_add(oracles.poly_neg(a), _random_poly(rng, REVERSED[1:])),
                oracles.poly_neg(a),
            )
        )
        _battery(a, b, rng)
