"""sympy oracles for the exact kernels: the one elimination (`rref`) behind
inverse, rank, nullspace and solve_affine, the characteristic
polynomial, the one rational-root search, and the Kowalevskian matrix
rebuilt from each right side's dominant part; and the one product loop,
`sum_of_products`, against a fold of the validating ring references and,
with `==`, against the tuple-key loop that packed keys replaced.

The integer-row kernels are also compared with `==` against the Fraction
versions they replaced (`oracles.rref_by_fractions` and the routes built on
it), so that no returned value, rows below the rank included, moved."""

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
    SearchIncomplete,
    ShapeError,
    nullspace,
    char_poly_coeffs,
    rank,
    rational_roots,
    rref,
    solve_affine,
    sum_of_products,
)
from painleve.core import analyze_system
from painleve.model import T0_SYMBOL, T_SYMBOL
from painleve.series import RelaxedSubstitution
from test_exponent_search import DATA_SYSTEMS

sympy = pytest.importorskip("sympy")


def _rational(rng):
    return Q(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 7)))


def _random_matrix(rng, n):
    """A square rational matrix: dense, sparse, or of a chosen lower rank."""
    kind = rng.randrange(3)
    if kind == 0:
        return RatMatrix([[_rational(rng) for _ in range(n)] for _ in range(n)])
    if kind == 1:
        return RatMatrix(
            [[_rational(rng) if rng.random() < 0.3 else 0 for _ in range(n)] for _ in range(n)]
        )
    r = rng.randint(0, n - 1)
    if r == 0:
        return oracles.zeros(n, n)
    left = RatMatrix([[_rational(rng) for _ in range(r)] for _ in range(n)])
    return left * RatMatrix([[_rational(rng) for _ in range(n)] for _ in range(r)])


def _to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


def _from_sympy(value):
    value = sympy.Rational(value)
    return Q(int(value.p), int(value.q))


MATRICES = [_random_matrix(random.Random(seed), 1 + seed % 6) for seed in range(200)]


def _sympy_expr(p: MultiPoly):
    symbols = [sympy.Symbol(name) for name in p.symbols()]
    return sum(
        (
            sympy.Rational(c.numerator, c.denominator)
            * sympy.prod([x**e for x, e in zip(symbols, exps)])
            for exps, c in p.terms.items()
        ),
        sympy.Integer(0),
    )


def _sympy_kowalevskian(system, k, leading):
    """d(f^D)/d(u) at u = c, t = t0, plus diag(k): f_i^D keeps the terms of
    the sympy `Poly` of f_i in u whose weighted degree is k_i + 1."""
    u = [sympy.Symbol(name) for name in system.u_symbols]
    dominant = []
    for ki, f in zip(k, system.rhs):
        poly = sympy.Poly(_sympy_expr(f), *u)
        dominant.append(
            sum(
                (
                    coeff * sympy.prod([x**m for x, m in zip(u, monom)])
                    for monom, coeff in poly.terms()
                    if sum(kj * mj for kj, mj in zip(k, monom)) == ki + 1
                ),
                sympy.Integer(0),
            )
        )
    at = {x: _sympy_expr(c) for x, c in zip(u, leading)}
    at[sympy.Symbol(T_SYMBOL)] = sympy.Symbol(T0_SYMBOL)
    jacobian = sympy.Matrix(dominant).jacobian(u).subs(at, simultaneous=True)
    return (jacobian + sympy.diag(*k)).applyfunc(sympy.expand)


@pytest.mark.parametrize("name", sorted(DATA_SYSTEMS))
def test_kowalevskian_matches_sympy_on_data(name):
    system = DATA_SYSTEMS[name]
    reached = [c for c in analyze_system(system).candidates if c.K is not None]
    for cand in reached:
        assert _sympy_kowalevskian(system, cand.exponents, cand.leading) == _to_sympy(
            cand.K.data
        ), cand.exponents
    assert reached or name == "cubic.sys"  # u' = u^3 has no Fuchsian exponents


def test_oracle_matrices_cover_singular_and_rank_deficient():
    ranks = [rank([list(r) for r in M.data]) for M in MATRICES]
    assert sum(r < M.rows for r, M in zip(ranks, MATRICES)) >= 40
    assert sum(0 < r < M.rows - 1 for r, M in zip(ranks, MATRICES)) >= 10
    assert sum(r == M.rows for r, M in zip(ranks, MATRICES)) >= 80


def test_elimination_matches_sympy():
    for M in MATRICES:
        _check_elimination(M)


def _check_elimination(M):
    n = M.rows
    ref = _to_sympy(M.data)
    assert rank([list(r) for r in M.data]) == ref.rank()
    if ref.det() != 0:
        assert M.inverse() == RatMatrix([[_from_sympy(x) for x in row] for row in ref.inv().tolist()])
    else:
        with pytest.raises(ShapeError):
            M.inverse()
    # nullspace: same span as sympy's basis
    ours = nullspace(M)
    theirs = ref.nullspace()
    assert len(ours) == len(theirs) == n - ref.rank()
    if ours:
        ours_m = _to_sympy(ours)
        assert (ref * ours_m.T).is_zero_matrix
        assert sympy.Matrix.vstack(ours_m, *[v.T for v in theirs]).rank() == len(ours)
    lam = sympy.Symbol("lambda")
    expected = ref.charpoly(lam).all_coeffs()[::-1]
    x = MultiPoly.var("lambda")
    assert char_poly(M) == sum(
        (x**i * _from_sympy(c) for i, c in enumerate(expected)), MultiPoly.zero()
    )


def test_solve_affine_matches_sympy():
    rng = random.Random(1000)
    outcomes = [_check_solve_affine(M, rng) for M in MATRICES]
    assert outcomes.count("inconsistent") >= 20
    assert outcomes.count("family") >= 20


def _check_solve_affine(M, rng):
    ref = _to_sympy(M.data)
    # a consistent right side half of the time, an arbitrary one otherwise
    if rng.random() < 0.5:
        b = oracles.matvec(M, [_rational(rng) for _ in range(M.cols)])
    else:
        b = [_rational(rng) for _ in range(M.rows)]
    out = solve_affine(M, b)
    try:
        sol, params = ref.gauss_jordan_solve(_to_sympy([b]).T)
    except ValueError:
        assert isinstance(out, Inconsistent)
        assert out.witness.is_constant and not out.witness.is_zero
        return "inconsistent"
    # free coordinates set to zero, as in sympy's parametrized solution
    particular = sol.subs({p: 0 for p in params})
    assert list(out) == [MultiPoly.const(_from_sympy(v)) for v in particular]
    return "family" if nullspace(M) else "unique"


def _oracle_roots(coeffs):
    x = sympy.Symbol("x")
    poly = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], x, domain="QQ"
    )
    return sorted(_from_sympy(r) for r in poly.ground_roots())


def _random_polynomial(rng):
    """Ascending coefficients of a product of rational linear factors, x^v
    and an optional factor without rational roots."""
    poly = [Q(rng.choice((1, -1, 2, 3, Q(1, 2))))]
    factors = [[Q(0), Q(1)]] * rng.randint(0, 2)
    for _ in range(rng.randint(0, 4)):
        p, q = rng.randint(-9, 9), rng.randint(1, 6)
        factors.append([Q(-p), Q(q)])
    if rng.random() < 0.4:
        factors.append([Q(rng.choice((2, 3, 5, 7))), Q(0), Q(1)])  # x^2 + prime
    for f in factors:
        out = [Q(0)] * (len(poly) + len(f) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(f):
                out[i + j] += a * b
        poly = out
    return poly


def test_rational_roots_match_sympy():
    rng = random.Random(20261019)
    for _ in range(300):
        coeffs = _random_polynomial(rng)
        assert rational_roots(coeffs) == _oracle_roots(coeffs)
        # trailing zero coefficients do not change the polynomial
        assert rational_roots(coeffs + [Q(0)]) == _oracle_roots(coeffs)


def test_rational_roots_of_zero_and_constant_polynomials():
    assert rational_roots([]) is None
    assert rational_roots([Q(0), Q(0)]) is None
    assert rational_roots([Q(3)]) == []
    assert rational_roots([Q(0), Q(0), Q(5)]) == [Q(0)]


# ----------------------------------------------------------------------
# the one product loop against a fold of oracles.poly_add(oracles.poly_mul)

u, v, w = MultiPoly.var("u"), MultiPoly.var("v"), MultiPoly.var("w")
ZERO = MultiPoly.zero()


def _check_sum_of_products(pairs):
    """sum_of_products(pairs) equals the fold of the references, is canonical
    (so structural equality holds), and left every operand as it was."""
    before = [(p.vars, dict(p.terms)) for pair in pairs for p in pair]
    result = sum_of_products(iter(pairs))
    assert [(p.vars, p.terms) for pair in pairs for p in pair] == before
    expected = ZERO
    for a, b in pairs:
        expected = oracles.poly_add(expected, oracles.poly_mul(a, b))
    assert result == expected
    assert hash(result) == hash(expected)
    assert list(result.vars) == sorted(set(result.vars))
    assert all(any(e[i] for e in result.terms) for i in range(len(result.vars)))
    assert all(type(c) is Q and c != 0 for c in result.terms.values())
    return result


def test_sum_of_products_fixed_cases():
    cases = {
        "no pairs": [],
        "disjoint symbols": [(u + 1, v * Q(2, 3)), (w, w + Q(1, 2))],
        "mixed symbols": [(u * v + Q(1, 2), u - v), (v, w * Q(5, 7) + 1), (w, u)],
        "mixed denominators": [
            (u * Q(1, 6) + Q(3, 4), v * Q(2, 9) - Q(1, 10)),
            (u * Q(5, 14), v * Q(7, 15) + Q(-11, 6)),
        ],
        "zero operands": [(ZERO, u), (v, ZERO), (ZERO, ZERO)],
        "constant operands": [
            (MultiPoly.const(Q(3, 2)), MultiPoly.const(Q(-4, 5))),
            (MultiPoly.const(2), u * v),
            (w, MultiPoly.const(Q(1, 3))),
        ],
        "constants cancel": [(MultiPoly.const(2), MultiPoly.const(3)), (MultiPoly.const(-6), MultiPoly.const(1))],
    }
    for name, pairs in cases.items():
        assert _check_sum_of_products(pairs) is not None, name
    # (u + v)(u - v) + (v - u)(u + v) = 0
    assert _check_sum_of_products([(u + v, u - v), (v - u, u + v)]).is_zero
    # u v - u (v - w) = u w: v occurs in no term only after the cancellation
    vanished = _check_sum_of_products([(u, v * Q(2, 3)), (u * Q(-2, 3), v - w)])
    assert vanished.vars == ("u", "w")
    assert vanished == u * w * Q(2, 3)


def _kernel_operand(rng, pool):
    names = rng.sample(pool, rng.randint(0, len(pool)))
    raw = {}
    for _ in range(rng.randint(0, 4)):
        raw[tuple(rng.randint(0, 2) for _ in names)] = Q(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 9)))
    return MultiPoly(names, raw)


def test_sum_of_products_matches_fold_of_references():
    rng = random.Random(20261018)
    pools = (("u", "v"), ("v", "w", "x"), ("u",), ("x", "y"))
    for _ in range(400):
        pairs = []
        for _ in range(rng.randint(1, 5)):
            a = _kernel_operand(rng, rng.choice(pools))
            b = _kernel_operand(rng, rng.choice(pools))
            pairs.append((a, b))
            if rng.random() < 0.2:  # a pair that cancels the one before
                pairs.append((oracles.poly_neg(a), b))
        _check_sum_of_products(pairs)


# ----------------------------------------------------------------------
# the packed loop against the tuple-key loop it replaced

LIMIT = 1 << 31  # the first exponent a packed field refuses


def _check_packed(pairs):
    """sum_of_products(pairs), the packed loop, equals the tuple-key loop
    with ==."""
    expected = oracles.sum_of_products_by_tuples(pairs)
    assert sum_of_products(pairs) == expected
    return expected


def test_packed_loop_matches_tuple_loop():
    # fresh names, registered first in reverse alphabetical order, so their
    # fields run against the order the canonical form sorts them in
    names = ["pk_z", "pk_y", "pk_x", "pk_w"]
    assert not set(names) & set(algebra._FIELDS)
    for name in names:
        MultiPoly.var(name)
    fields = [algebra._FIELDS[name] for name in names]
    assert fields == sorted(fields) and sorted(names) != names
    rng = random.Random(20261019)
    pools = (names[:2], names[1:], names[::2], names[:1] + ["u"])
    for _ in range(300):
        pairs = []
        for _ in range(rng.randint(1, 5)):
            a = _kernel_operand(rng, rng.choice(pools))
            b = _kernel_operand(rng, rng.choice(pools))
            pairs.append((a, b))
            if rng.random() < 0.2:  # a pair that cancels the one before
                pairs.append((oracles.poly_neg(a), b))
        _check_packed(pairs)


def test_packed_loop_exponents_just_below_the_guard():
    rng = random.Random(20261020)
    x, y = "pk_big_x", "pk_big_y"
    for _ in range(100):
        pairs = []
        for _ in range(rng.randint(1, 3)):
            # factor exponents that sum to at most LIMIT - 1 in each symbol
            ea, fa = rng.randint(LIMIT // 2 - 8, LIMIT // 2 - 1), rng.randint(0, 3)
            eb, fb = rng.randint(0, LIMIT // 2 - 1), rng.randint(LIMIT - 8, LIMIT - 4)
            a = MultiPoly((x, y), {(ea, fa): _rational(rng) or 1, (ea - 1, 0): Q(1, 3)})
            b = MultiPoly((x, y), {(eb, fb): _rational(rng) or 1, (0, 1): -1})
            pairs.append((a, b))
        _check_packed(pairs)
    top = MultiPoly((x,), {(LIMIT - 1,): 1})
    assert _check_packed([(top, MultiPoly.const(Q(2, 3)))]) == top * Q(2, 3)
    assert _check_packed([(MultiPoly((x,), {(LIMIT // 2,): 1}), MultiPoly((x,), {(LIMIT // 2 - 1,): 1}))]) == top


def test_packed_loop_cancels_to_zero_and_drops_symbols():
    a, b, c = (MultiPoly.var(name) for name in ("pk_c", "pk_b", "pk_a"))
    # (a + b)(a - b) + (b - a)(a + b) = 0: every key cancels
    zero = _check_packed([(a + b, a - b), (b - a, a + b)])
    assert zero.is_zero and zero.vars == ()
    assert sum_of_products([(a + b, a - b), (b - a, a + b)]) is MultiPoly.zero()
    # a b c - a (b c - c^2 / 2) = a c^2 / 2: b is dropped by the cancellation
    dropped = _check_packed([(a * b, c * Q(2, 3)), (a * Q(-2, 3), b * c - c * c * Q(1, 2))])
    assert dropped.vars == ("pk_a", "pk_c")
    assert dropped == a * c * c * Q(1, 3)
    # the result's symbol bits drop b as well
    assert sum_of_products([(a * b, c), (-a, b * c - c)]).vars == (a * c).vars
    # denominators that cancel leave integer numerators over 1
    assert _check_packed([(a * Q(1, 6), b * 3), (a * Q(1, 4), b * 2)]) == a * b


def test_packed_exponent_at_the_guard_raises():
    x = "pk_guard_x"
    half = MultiPoly((x,), {(LIMIT // 2,): 1})
    with pytest.raises(ExponentOverflow):
        sum_of_products([(half, half)])
    with pytest.raises(ExponentOverflow):
        half * half
    with pytest.raises(ExponentOverflow):
        MultiPoly((x,), {(LIMIT,): 1})
    # the guard of a field at any position
    with pytest.raises(ExponentOverflow):
        MultiPoly(("pk_guard_a", x), {(1, LIMIT // 2): 1}) * half
    # a negative exponent would borrow from the next field: the constructor refuses it
    with pytest.raises(ValueError):
        MultiPoly((x,), {(-1,): 1})


def test_relaxed_leaf_takes_a_new_symbol_after_packing():
    # as expand_balance appends a coefficient with a fresh resonance
    # parameter after the nodes cached products of the earlier ones, the
    # parameter's field numbered only then: f = x^2 + s x
    entries = [MultiPoly.const(2), MultiPoly.var("pk_s") + Q(1, 2)]
    sub = RelaxedSubstitution({"x": entries}, {"x": 0})
    s = MultiPoly.var("pk_s")
    terms = sub.terms(MultiPoly.var("x") ** 2 + s * MultiPoly.var("x"))

    def expected(n, known):
        xs = entries[:known] + [ZERO] * (n + 1)
        total = oracles.poly_mul(s, xs[n])
        for m in range(n + 1):
            total = oracles.poly_add(total, oracles.poly_mul(xs[m], xs[n - m]))
        return total

    assert [sub.coeff(terms, n, 2) for n in range(4)] == [expected(n, 2) for n in range(4)]
    assert "pk_fresh_r" not in algebra._FIELDS
    fresh = MultiPoly.var("pk_fresh_r")
    entries.append(fresh * Q(3, 7) - 1)
    entries.append(fresh * fresh + s)
    assert [sub.coeff(terms, n, 4) for n in range(7)] == [expected(n, 4) for n in range(7)]


# ----------------------------------------------------------------------
# the integer-row kernels against the Fraction versions they replaced


def _check_rref(rows, ncols=None):
    ours = rref(rows, ncols)
    assert ours == oracles.rref_by_fractions(rows, ncols)
    assert all(type(x) is Q for row in ours[0] for x in row)
    return ours


def _with_identity(M):
    n = M.rows
    return [list(row) + [Q(int(i == j)) for j in range(n)] for i, row in enumerate(M.data)]


def test_rref_matches_fraction_elimination():
    for M in MATRICES:
        _check_rref(M.data)
        _check_rref(_with_identity(M), M.rows)
    rng = random.Random(20261020)
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        block = [[_rational(rng) if rng.random() < 0.6 else Q(0) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.3:  # a dependent row below the others
            block.append([2 * x - y for x, y in zip(block[0], block[-1])])
        _check_rref(block)
        _check_rref(block, rng.randint(0, cols))


def test_rref_of_zero_empty_and_degenerate_rows():
    assert _check_rref([]) == ([], [], [])
    _check_rref([[], []])
    _check_rref([[Q(0)] * 3] * 4)
    _check_rref([[Q(0), Q(0)], [Q(0), Q(3, 2)], [Q(0), Q(0)]])
    _check_rref([[Q(5, 3)]], 0)
    # rows below the rank keep their value, not only their span
    m, pivots, _ = _check_rref([[Q(2), Q(4), Q(1, 3)], [Q(1), Q(2), Q(5, 7)], [Q(3), Q(6), Q(1)]], 2)
    assert pivots == [0] and m[1] == [Q(0), Q(0), Q(5, 7) - Q(1, 6)]


def _poly_vector(rng, n):
    return [_kernel_operand(rng, ("u", "v", "w")) for _ in range(n)]


def test_solve_affine_matches_polynomial_column_elimination():
    rng = random.Random(20261021)
    outcomes = []
    for M in MATRICES:
        n = M.rows
        if rank([list(r) for r in M.data]) == n and rng.random() < 0.7:
            continue  # mostly rank-deficient matrices
        if rng.random() < 0.5:  # consistent: b = M x for a polynomial x
            x = _poly_vector(rng, n)
            b = [sum_of_products(zip(x, (MultiPoly.const(e) for e in row))) for row in M.data]
        else:
            b = _poly_vector(rng, n)
        out = solve_affine(M, b)
        assert out == oracles.solve_affine_by_elimination(M, b)
        outcomes.append(type(out))
    assert outcomes.count(Inconsistent) >= 10
    assert outcomes.count(tuple) >= 40


def test_char_poly_coeffs_match_fraction_faddeev_leverrier():
    rng = random.Random(20261022)
    dens = (1, 2, 3, 4, 6, 7, 9, 10)
    for M in MATRICES:
        assert char_poly_coeffs(M) == oracles.char_poly_coeffs_by_fractions(M)
    for _ in range(100):
        n = rng.randint(1, 6)
        M = RatMatrix([[Q(rng.randint(-9, 9), rng.choice(dens)) for _ in range(n)] for _ in range(n)])
        coeffs = char_poly_coeffs(M)
        assert coeffs == oracles.char_poly_coeffs_by_fractions(M)
        assert all(type(c) is Q for c in coeffs)
    assert char_poly_coeffs(RatMatrix([])) == [Q(1)]


def test_rational_roots_match_synthetic_division():
    rng = random.Random(20261023)
    for _ in range(300):
        coeffs = _random_polynomial(rng)
        # a non-monic, non-integral scaling moves no root
        coeffs = [c * Q(rng.choice((-3, -1, 2, 5)), rng.choice((1, 4, 9))) for c in coeffs]
        assert rational_roots(coeffs) == oracles.rational_roots_by_synthetic_division(coeffs)
    # non-monic, with negative, fractional and double roots
    for coeffs, roots in (
        ([Q(-6), Q(-17), Q(-1), Q(10)], [Q(-1), Q(-2, 5), Q(3, 2)]),
        ([Q(c, 6) for c in (-16, -60, -68, -15, 9)], [Q(-1), Q(-2, 3), Q(4)]),  # (3x + 2)^2 (x - 4)(x + 1) / 6
    ):
        ours = rational_roots(coeffs)
        assert ours == oracles.rational_roots_by_synthetic_division(coeffs)
        assert ours == roots
    capped = [Q(10**12 + 1), Q(0), Q(1)]
    for search in (rational_roots, oracles.rational_roots_by_synthetic_division):
        with pytest.raises(SearchIncomplete):
            search(capped)


def test_str_matches_fraction_printing():
    rng = random.Random(20261024)
    coeffs = (Q(1), Q(-1), Q(2), Q(-3), Q(1, 2), Q(-1, 2), Q(7, 3), Q(-22, 7), Q(10))
    pool = ("q1", "p1", "r2", "t0")
    polys = [MultiPoly.zero(), MultiPoly.const(1), MultiPoly.const(-1), MultiPoly.const(Q(-5, 3))]
    for _ in range(400):
        names = rng.sample(pool, rng.randint(0, len(pool)))
        raw = {}
        for _ in range(rng.randint(1, 6)):
            raw[tuple(rng.randint(0, 3) for _ in names)] = rng.choice(coeffs)
        polys.append(MultiPoly(names, raw))
    for poly in polys:
        assert str(poly) == oracles.poly_str(poly)
