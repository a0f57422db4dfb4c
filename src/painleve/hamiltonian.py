"""Symplectic structure on balances of Hamiltonian systems.

For an almost weighted homogeneous Hamiltonian (k_i + l_i = d - 1), the
Kowalevskian matrix has the form J*Hess + Gamma, which forces resonance
eigenvectors with eigenvalue sums different from d - 1 to be J-orthogonal.
The resonance matrix can then be rescaled into a symplectic matrix S, and
the triangular construction run in the order q_1, ..., q_n, p_n, ..., p_1
(after "canonical exchanges" that keep S symplectic and the system
Hamiltonian) produces a canonical change of variable.  Substituting it into
an autonomous Hamiltonian gives the new Hamiltonian directly; in the
non-autonomous case the regular part is the new Hamiltonian.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

from .algebra import MultiPoly, Q, RatMatrix, ShapeError, rank, rref
from .core import Balance, ResonanceStructure, resonance_matrix_columns
from .model import P_PREFIX, Q_PREFIX, HamiltonianSystem, hamiltonian_to_system
from .regularize import (
    ChangeOfVariable,
    Regularization,
    TransformedSystem,
    regular_part,
    regularize,
)
from .series import EXACT, TruncatedSeries, substitute_poly


def symplectic_product(v, w):
    """omega(v, w) = sum_i v_i w_(n+i) - v_(n+i) w_i: the one symplectic form
    of the package, over Fractions or the series of a Jacobian column."""
    n = len(v) // 2
    terms = [v[i] * w[n + i] - v[n + i] * w[i] for i in range(n)]
    return sum(terms[1:], terms[0])  # no Fraction start: a series cannot add one


@dataclass(frozen=True)
class HamiltonianRejected:
    reason: str
    detail: object = None


def check_almost_weighted_homogeneous(
    hs: HamiltonianSystem, k: tuple[int, ...], l: tuple[int, ...]
) -> int | HamiltonianRejected:
    """Weighted degree d of H with k_i + l_i = d - 1 for every pair."""
    if not any(x > 0 for x in tuple(k) + tuple(l)):
        return HamiltonianRejected("degenerate", "no positive leading exponent")
    weights = {**dict(zip(hs.q_symbols, k)), **dict(zip(hs.p_symbols, l))}
    d = hs.H.weighted_degree(weights)
    if d is None:
        return HamiltonianRejected("degenerate", "zero Hamiltonian")
    for i, (ki, li) in enumerate(zip(k, l)):
        if ki + li != d - 1:
            return HamiltonianRejected("not_almost_weighted_homogeneous", i)
    return d


def symplectic_pairing(
    rs: ResonanceStructure, d: int
) -> list[tuple[int, int]] | HamiltonianRejected:
    """Pair resonances lambda <-> d-1-lambda with matching multiplicities.

    The J-orthogonality of eigenvectors whose resonances do not sum to d-1
    is verified once, by `symplectic_normalize` on the columns of S.
    """
    counts = dict(zip(rs.resonances, rs.multiplicities))
    for lam, m in counts.items():
        mu = d - 1 - lam
        if counts.get(mu, 0) != m:
            return HamiltonianRejected("unpaired_resonance", lam)
    pairs = []
    for lam in rs.resonances:
        mu = d - 1 - lam
        if lam <= mu:
            pairs.append((lam, mu))
    return pairs


@dataclass(frozen=True)
class SymplecticData:
    S: RatMatrix
    exchange_set: tuple[int, ...] = ()  # dof indices with q <-> p exchanged
    row_swaps: tuple[tuple[int, int], ...] = ()  # paired dof swaps by position, in order

    @property
    def n_dof(self) -> int:
        return self.S.rows // 2


def resonance_columns(balance: Balance) -> list[tuple[int, tuple[Fraction, ...]]]:
    """`core.resonance_matrix_columns` over the rationals."""
    columns = []
    for r, column in resonance_matrix_columns(balance):
        if not all(x.is_constant for x in column):
            raise ValueError(
                "parameterized leading data: basic vector not rational"
                if r == -1
                else "leading data is not affine in its parameters"
            )
        columns.append((r, tuple(x.constant_value() for x in column)))
    return columns


def _split_merged_block(
    vectors: list[tuple[Fraction, ...]]
) -> tuple[list[tuple[Fraction, ...]], list[tuple[Fraction, ...]]] | None:
    """Symplectic Gram-Schmidt inside an eigenspace paired with itself:
    returns (first-half vectors, second-half partners) or None if the form
    degenerates on the block."""
    pool = [list(v) for v in vectors]
    firsts, seconds = [], []
    while pool:
        v = pool.pop(0)
        w = None
        for idx, cand in enumerate(pool):
            if symplectic_product(v, cand) != 0:
                w = pool.pop(idx)
                break
        if w is None:
            return None
        scale = symplectic_product(v, w)
        w = [x / scale for x in w]
        reduced = []
        for x in pool:
            a = symplectic_product(x, w)
            b = symplectic_product(x, v)  # = -omega(v, x)
            x2 = [xi - a * vi + b * wi for xi, vi, wi in zip(x, v, w)]
            reduced.append(x2)
        pool = reduced
        firsts.append(tuple(v))
        seconds.append(tuple(w))
    return firsts, seconds


def symplectic_normalize(
    columns: list[tuple[int, tuple[Fraction, ...]]], d: int
) -> SymplecticData | HamiltonianRejected:
    """Reverse the last n columns and rescale them so that
    omega(S_a, S_b) = J_ab, J the standard form (ones at (i, n+i)).

    The Gram matrix G_ab = omega(S0_a, S0_b) of the reversed columns is block
    anti-diagonal by the pairing orthogonality, so the rescaling is the exact
    inverse of the top-right Gram block applied to the second half (a
    per-column division in the simple-eigenvalue case).  A merged
    self-paired block is split by symplectic Gram-Schmidt first.
    """
    n2 = len(columns[0][1])
    n = n2 // 2
    if len(columns) != n2:
        return HamiltonianRejected("wrong_column_count", len(columns))

    if (d - 1) % 2 == 0 and any(lam == d - 1 - lam for lam, _ in columns):
        self_paired = (d - 1) // 2
        merged = [vec for lam, vec in columns if lam == self_paired]
        split = _split_merged_block(merged)
        if split is None:
            return HamiltonianRejected("degenerate_merged_block", self_paired)
        firsts, seconds = split
        rebuilt = [item for item in columns if item[0] < self_paired]
        rebuilt += [(self_paired, v) for v in firsts]
        rebuilt += [(self_paired, w) for w in seconds]
        rebuilt += [item for item in columns if item[0] > self_paired]
        columns = rebuilt

    ordered = columns[:n] + columns[n:][::-1]
    vectors = [v for _, v in ordered]
    G = [[symplectic_product(v, w) for w in vectors] for v in vectors]
    # the structural zeros of G are the one orthogonality verification
    for a, (lam, _) in enumerate(ordered):
        for b, (mu, _) in enumerate(ordered):
            if lam + mu != d - 1 and G[a][b] != 0:
                return HamiltonianRejected("nonzero_pairing", {"cols": (a, b), "value": G[a][b]})
    phi = RatMatrix([row[n:] for row in G[:n]])
    try:
        phi_inv = phi.inverse()
    except ShapeError:  # phi is square, so singular
        return HamiltonianRejected("singular_gram_block", phi)
    # W phi^-1, W the second-half columns side by side
    W2 = RatMatrix(list(zip(*vectors[n:]))) * phi_inv
    S = RatMatrix([left + right for left, right in zip(zip(*vectors[:n]), W2.data)])
    S_columns = list(zip(*S.data))
    for a in range(n2):
        for b in range(n2):
            if symplectic_product(S_columns[a], S_columns[b]) != (b == a + n) - (a == b + n):
                return HamiltonianRejected("not_symplectic", S)
    return SymplecticData(S=S)


# ----------------------------------------------------------------------
# canonical exchanges


def _transversal_rows(block: list[list[Fraction]], n: int) -> list[int] | None:
    """Pick one of rows {i, n+i} per dof so the picked rows are independent.

    The first choice in `itertools.product` order, q-rows first, whose rows
    have full rank: the pick of a backtracking search, since every prefix of
    an independent set is independent.  The Lagrangian-frame property of a
    symplectic matrix guarantees a choice exists.
    """
    for picks in itertools.product(*[(i, n + i) for i in range(n)]):
        if rank([block[p] for p in picks]) == n:
            return list(picks)
    return None


def exchange_permutation(sd: SymplecticData) -> tuple[tuple[int, int], ...]:
    """The exchanges, then the row swaps in order, as one signed permutation
    of (q..., p...): entry a is (b, s) for new x_a = s * old x_b."""
    n = sd.n_dof
    perm = [(a, 1) for a in range(2 * n)]
    for i in sd.exchange_set:
        # (q_i, p_i) -> (p_i, -q_i): new q_i = -old p_i, new p_i = old q_i
        perm[i], perm[n + i] = (n + i, -1), (i, 1)
    for i, j in sd.row_swaps:
        perm[i], perm[j] = perm[j], perm[i]
        perm[n + i], perm[n + j] = perm[n + j], perm[n + i]
    return tuple(perm)


def canonical_exchanges(sd: SymplecticData) -> SymplecticData:
    """Make the top-left n x n block of S invertible and LU-decomposable.

    First q_i <-> p_i exchanges (substituting (q_i, p_i) -> (p_i, -q_i))
    choose a transversal of the Lagrangian frame; then paired row swaps
    (q_i <-> q_j together with p_i <-> p_j) order the pivots.  Both keep S
    symplectic and the system Hamiltonian; S goes to P S, P the signed
    permutation of `exchange_permutation`.
    """
    n = sd.n_dof
    first_cols = [list(row[:n]) for row in sd.S.data]
    picks = _transversal_rows(first_cols, n)
    if picks is None:
        raise AssertionError("no Lagrangian transversal; S is not symplectic")
    # paired row swaps so that A has an LU decomposition without pivoting:
    # the elimination's own swaps, applied by position in the same order
    # (an exchange negates a picked row, which moves no pivot)
    _, pivots, swaps = rref([first_cols[p] for p in picks])
    if len(pivots) < n:
        raise AssertionError("A is singular after exchanges")
    exchange_set = tuple(i for i in range(n) if picks[i] == n + i)
    out = replace(sd, exchange_set=exchange_set, row_swaps=tuple(swaps))
    S = [[x * s for x in sd.S.row(b)] for b, s in exchange_permutation(out)]
    return replace(out, S=RatMatrix(S))


def apply_exchanges(
    hs: HamiltonianSystem, balance: Balance, sd: SymplecticData
) -> tuple[HamiltonianSystem, Balance]:
    """Rewrite H and the balance in the exchanged coordinates.

    The signed permutation P of `exchange_permutation` is canonical, so H
    composed with P^T generates the exchanged system and the permuted balance
    solves it: coefficient rows, exponents and leading data permute, K goes
    to P K P^T and each eigenbasis vector v to P v.  The parameters and
    their names are unchanged.
    """
    perm = exchange_permutation(sd)
    u = hs.q_symbols + hs.p_symbols
    H = hs.H.replace({u[b]: MultiPoly.var(u[a]) * s for a, (b, s) in enumerate(perm)})
    ehs = replace(hs, H=H)

    def signed(v: tuple) -> tuple:  # P v
        return tuple(v[b] * s for b, s in perm)

    dd, rs = balance.dominant, balance.structure
    K = RatMatrix([[rs.K.entry(i, j) * si * sj for j, sj in perm] for i, si in perm])
    structure = replace(
        rs, K=K, eigenbases={r: tuple(map(signed, basis)) for r, basis in rs.eigenbases.items()}
    )
    dominant = replace(
        dd, exponents=tuple(dd.exponents[b] for b, _ in perm), leading=signed(dd.leading)
    )
    rows = tuple(tuple(c * s for c in balance.coeffs[b]) for b, s in perm)
    system = hamiltonian_to_system(ehs)
    return ehs, replace(balance, system=system, dominant=dominant, structure=structure, coeffs=rows)


# ----------------------------------------------------------------------
# canonical change of variable


def canonical_variable_names(n: int) -> tuple[str, tuple[str, ...]]:
    """tau name and rho names in construction order q_1..q_n, p_n..p_1."""
    rho = [f"{Q_PREFIX}{i}" for i in range(2, n + 1)] + [f"{P_PREFIX}{i}" for i in range(n, 0, -1)]
    return f"{Q_PREFIX}1", tuple(rho)


def build_canonical_change(
    hs: HamiltonianSystem, balance: Balance, sd: SymplecticData
) -> tuple[HamiltonianSystem, Balance, Regularization]:
    """Run the triangular construction on the balance in the symplectic order;
    the Hamiltonian, the balance and its regularization, all three in the
    exchanged coordinates.

    The variables go q_1, ..., q_n, p_n, ..., p_1 (after exchanges) and the
    last variable's coefficient carries the -1/k_1 factor that makes the
    2-form bookkeeping close up."""
    ehs, balance = apply_exchanges(hs, balance, sd)
    n = ehs.n_dof
    tau_name, rho_names = canonical_variable_names(n)
    # construction order: q_2..q_n then p_n..p_1 (indices into the 2n system)
    var_order = tuple(range(1, n)) + tuple(range(2 * n - 1, n - 1, -1))
    reg = regularize(
        balance,
        pivot=0,
        var_order=var_order,
        rho_names=rho_names,
        tau_name=tau_name,
        last_factor=Q(-1, balance.dominant.exponents[0]),
    )
    return ehs, balance, reg


# ----------------------------------------------------------------------
# canonicity and the new Hamiltonian


@dataclass(frozen=True)
class CanonicalWitness:
    var_a: str
    var_b: str
    order: int
    coefficient: MultiPoly


def verify_canonical(
    cov: ChangeOfVariable, n_dof: int
) -> CanonicalWitness | None:
    """Expand sum dq_i ^ dp_i under the substitution, as omega of the
    Jacobian columns, and compare with sum dQ_i ^ dP_i, coefficient by
    coefficient, exactly: the first coefficient that differs is returned as
    a witness, None if none does."""
    names = cov.names
    partials = cov.jacobian
    columns = [[partials[i][a] for i in range(2 * n_dof)] for a in range(len(names))]
    pos = {name: a for a, name in enumerate(names)}
    standard = {(pos[f"{Q_PREFIX}{i}"], pos[f"{P_PREFIX}{i}"]) for i in range(1, n_dof + 1)}
    for a, b in itertools.combinations(range(len(names)), 2):
        expected = Q(((a, b) in standard) - ((b, a) in standard))
        omega = symplectic_product(columns[a], columns[b])
        residual = omega - TruncatedSeries.constant(names[0], expected)
        if not residual.is_zero:
            o = residual.min_exp
            return CanonicalWitness(
                var_a=names[a], var_b=names[b], order=o, coefficient=residual.coeffs[o]
            )
    return None


def new_hamiltonian(
    H: MultiPoly,
    cov: ChangeOfVariable,
    u_symbols: tuple[str, ...],
    autonomous: bool,
) -> tuple[MultiPoly, tuple[tuple[int, MultiPoly], ...]]:
    """Substitute the change of variable into H and split off the regular part:
    that part, a polynomial in (t, Q..., P...), and the singular coefficients
    as (order, coefficient) pairs.

    Autonomous systems must come out with an identically zero singular part;
    anything else is an implementation fault and raises.
    """
    bindings = {u_symbols[i]: s for i, s in cov.phi.items()}
    expanded = substitute_poly(H, bindings, order=EXACT)
    regular = regular_part(expanded)
    dropped = [(o, expanded.coeffs[o]) for o in expanded.orders() if o < 0]
    if autonomous and dropped:
        raise AssertionError(
            f"autonomous Hamiltonian produced singular terms: {dropped}"
        )
    return regular, tuple(dropped)


def hamilton_equations_match(h0: MultiPoly, ts: TransformedSystem) -> bool:
    """Hamilton's equations of the regular part h0 of the new Hamiltonian
    equal the transformed right sides exactly (autonomous finite check)."""
    for m, name in enumerate(ts.names):
        if any(o < 0 for o in ts.g[m].coeffs):
            return False
        g_poly = regular_part(ts.g[m])
        if name.startswith(Q_PREFIX):
            expected = h0.partial(P_PREFIX + name[len(Q_PREFIX) :])
        else:
            expected = -h0.partial(Q_PREFIX + name[len(P_PREFIX) :])
        if g_poly != expected:
            return False
    return True
