"""Reference routines in `Fraction` arithmetic, and the Grams they run on.

These are the rational Gaussian eliminations that k3lat used before its
eliminations became fraction-free, the entry-by-entry Gram loops,
per-vector solves and Smith forms it used before its Gram changes became
matrix products, the Smith form over Z, with both transforms, that it
used before its discriminant groups came from Smith forms modulo p^k,
the Fraction Gram of the discriminant form that it built before forms
kept integer tables only, and the Fraction inverse it had before
rational matrices became integer rows over one denominator.  They are
kept here, outside the package, as oracles for k3lat's routines.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from hypothesis import strategies as st

from k3lat.intmat import (
    adjugate,
    freeze,
    hnf_basis,
    identity,
    local_snf,
    mat_mul,
    prime_factors,
    require,
    transpose,
    xgcd,
)


def signature_frac(gram):
    """(n_plus, n_minus, n_zero) by symmetric congruence reduction over Q.

    A block with all-zero diagonal is handled by the congruence
    row_i += row_j (a 2x2 hyperbolic pivot, which contributes one positive
    and one negative inertia index).
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    active = list(range(n))
    pos = neg = 0
    while active:
        i = next((k for k in active if a[k][k]), None)
        if i is None:
            pair = next(
                ((k, l) for k in active for l in active if k != l and a[k][l]), None
            )
            if pair is None:
                break  # remaining block is identically zero
            k, l = pair
            for j in range(n):
                a[k][j] += a[l][j]
            for j in range(n):
                a[j][k] += a[j][l]
            i = k
        d = a[i][i]
        if d > 0:
            pos += 1
        else:
            neg += 1
        active.remove(i)
        for k in active:
            if a[k][i]:
                f = a[k][i] / d
                for j in range(n):
                    a[k][j] -= f * a[i][j]
                for j in range(n):
                    a[j][k] -= f * a[j][i]
    return pos, neg, n - pos - neg


def ldl_frac(gram):
    """LDL^T of a positive definite symmetric matrix over Q.

    Returns (d, l) with Q(x) = sum_i d_i (x_i + sum_{j>i} l[i][j] x_j)^2.
    Raises ValueError if the matrix is not positive definite.
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    d = [Fraction(0)] * n
    l = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        if d[i] <= 0:
            raise ValueError("matrix is not positive definite")
        for j in range(i + 1, n):
            l[i][j] = a[i][j] / d[i]
        for j in range(i + 1, n):
            for k in range(j, n):
                a[j][k] -= a[i][j] * a[i][k] / d[i]
                a[k][j] = a[j][k]
    return tuple(d), tuple(map(tuple, l))


def solve_frac(a, b):
    """One rational solution of a @ x = b, or None if inconsistent.

    When the solution space is positive-dimensional an arbitrary (but
    deterministic) representative is returned.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    for i in range(m):
        if aug[i][n] and not any(aug[i][j] for j in range(n)):
            return None
    x = [Fraction(0)] * n
    for r, c in pivots:
        x[c] = aug[r][n]
    return tuple(x)


def solve_integral(a, b):
    """The solution of a @ x = b for `a` of full column rank, as integers:
    the unique solution of `solve_frac`, or None when there is none or it
    is not integral."""
    x = solve_frac(a, b)
    if x is None or any(c.denominator != 1 for c in x):
        return None
    return tuple(int(c) for c in x)


def inv_gauss_jordan(a):
    """Inverse of a square matrix over Q by Gauss-Jordan elimination."""
    n = len(a)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(a)
    ]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c]), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return tuple(tuple(row[n:]) for row in aug)


def inv_frac(a):
    """Exact inverse of a nonsingular integer matrix over Q: its adjugate
    over its determinant."""
    d, adj = adjugate(a)
    return freeze(tuple(Fraction(x, d) for x in row) for row in adj)


def snf_with_transforms(a):
    """Smith normal form with both transforms: (D, U, V) with U*a*V == D
    diagonal, d_1 | d_2 | ... nonnegative, U and V unimodular.  The pivot
    is an entry of least magnitude of the remaining block, and each step
    is the xgcd step on a row pair or a column pair."""
    d = [list(map(int, row)) for row in a]
    m = len(d)
    n = len(d[0]) if m else 0
    u = [list(row) for row in identity(m)]
    v = [list(row) for row in identity(n)]

    def row_op(i, j, s, t, p, q):
        for w in (d, u):
            w[i], w[j] = (
                [s * x + t * y for x, y in zip(w[i], w[j])],
                [p * y - q * x for x, y in zip(w[i], w[j])],
            )

    def col_op(i, j, s, t, p, q):
        for w in (d, v):
            for row in w:
                row[i], row[j] = s * row[i] + t * row[j], p * row[j] - q * row[i]

    t0 = 0
    while t0 < min(m, n):
        best = None
        for i in range(t0, m):
            for j in range(t0, n):
                if d[i][j] and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        d[t0], d[bi] = d[bi], d[t0]
        u[t0], u[bi] = u[bi], u[t0]
        if bj != t0:
            for w in (d, v):
                for row in w:
                    row[t0], row[bj] = row[bj], row[t0]
        while True:
            for i in range(t0 + 1, m):
                if d[i][t0]:
                    g, s, t = xgcd(d[t0][t0], d[i][t0])
                    row_op(t0, i, s, t, d[t0][t0] // g, d[i][t0] // g)
            if any(d[t0][j] for j in range(t0 + 1, n)):
                for j in range(t0 + 1, n):
                    if d[t0][j]:
                        g, s, t = xgcd(d[t0][t0], d[t0][j])
                        col_op(t0, j, s, t, d[t0][t0] // g, d[t0][j] // g)
                continue
            if any(d[i][t0] for i in range(t0 + 1, m)):
                continue
            break
        stray = next((i for i in range(t0 + 1, m)
                      if any(d[i][j] % d[t0][t0] for j in range(t0 + 1, n))), None)
        if stray is not None:
            for w in (d, u):
                w[t0] = [x + y for x, y in zip(w[t0], w[stray])]
            continue
        if d[t0][t0] < 0:
            for w in (d, u):
                w[t0] = [-x for x in w[t0]]
        t0 += 1
    return freeze(d), freeze(u), freeze(v)


@st.composite
def unimodular_mats(draw, n):
    """A random n x n matrix in GL_n(Z), built from elementary row operations."""
    u = [list(row) for row in identity(n)]
    for _ in range(draw(st.integers(0, 10))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i == j:
            u[i] = [-x for x in u[i]]
        else:
            c = draw(st.integers(-3, 3))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return tuple(map(tuple, u))


@st.composite
def conjugated_grams(draw):
    """A symmetric integer Gram G, possibly singular and sometimes with an
    all-zero diagonal, and U G U^T for a random U in GL_n(Z)."""
    n = draw(st.integers(1, 5))
    zero_diagonal = draw(st.booleans())
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or not zero_diagonal:
                g[i][j] = g[j][i] = draw(st.integers(-6, 6))
    u = draw(unimodular_mats(n))
    return tuple(map(tuple, g)), mat_mul(mat_mul(u, g), transpose(u))


def gram_in_basis_loops(gram, rows):
    """Gram matrix of coordinate rows, one double loop v_i G_ij w_j per entry."""
    n = len(gram)
    return tuple(
        tuple(
            sum(v[i] * gram[i][j] * w[j] for i in range(n) for j in range(n))
            for w in rows
        )
        for v in rows
    )


def _fraction_gram(gram, orders, cols):
    """(orders, Fraction Gram) of the lifts cols[i] / orders[i] in L*: q and
    b are (c_i^T G c_j) / (d_i d_j), reduced mod 2 on the diagonal and mod
    1 off it; only the d_i > 1 are kept."""
    keep = [i for i, o in enumerate(orders) if o > 1]
    cgc = gram_in_basis_loops(gram, [cols[i] for i in keep])
    return tuple(orders[i] for i in keep), tuple(
        tuple(
            Fraction(cgc[a][b], orders[i] * orders[j]) % (2 if a == b else 1)
            for b, j in enumerate(keep)
        )
        for a, i in enumerate(keep)
    )


def smith_gram_frac(gram):
    """(orders, Fraction Gram) of L*/L for a non-degenerate even Gram G on
    the generators of its Smith form over Z: with U G V = D, generator i
    lifts to column i of V over d_i."""
    d, _, v = snf_with_transforms(gram)
    return _fraction_gram(gram, [d[i][i] for i in range(len(gram))], transpose(v))


def discriminant_gram_frac(gram):
    """(orders, Fraction Gram) of L*/L for a non-degenerate even Gram G on
    the generators that k3lat presents it by: for each p | det, the columns
    of `local_snf(G, p, v_p(det))` over their orders.  Those orders must be
    the p-parts of the invariant factors of `snf_with_transforms`."""
    d, _, _ = snf_with_transforms(gram)
    factors = [d[i][i] for i in range(len(gram))]
    det = prod(factors)
    orders, cols = [], []
    for p in prime_factors(det):
        k = 0
        while det % p**(k + 1) == 0:
            k += 1
        part = local_snf(gram, p, k)
        # each invariant factor divides det, so its p-part divides p^k
        require(part[0] == tuple(gcd(x, p**k) for x in factors),
                f"the {p}-part orders are not the oracle's")
        orders += part[0]
        cols += part[1]
    return _fraction_gram(gram, orders, cols)


def glue_overlattice_by_solves(gram, lifts):
    """(Gram, embedding rows) of the lattice generated by L = (Z^n, gram)
    and rational glue rows, the Gram in Fractions (integral exactly when the
    glue pairs integrally), and row i of the embedding the solution y of
    basis^T y = den * e_i, one rational elimination per basis vector of L
    (`solve_integral`), so the oracle runs none of the k3lat eliminations
    it checks."""
    n = len(gram)
    den = 1
    for lift in lifts:
        for c in lift:
            den = lcm(den, c.denominator)
    rows = [[den if i == j else 0 for j in range(n)] for i in range(n)]
    rows += [[int(c * den) for c in lift] for lift in lifts]
    basis = hnf_basis(rows)
    z = tuple(
        tuple(Fraction(x, den * den) for x in row)
        for row in gram_in_basis_loops(gram, basis)
    )
    emb_rows = [
        solve_integral(transpose(basis), tuple(den if i == j else 0 for j in range(n)))
        for i in range(n)
    ]
    return z, tuple(emb_rows)


def group_invariants_snf(orders):
    """Invariant factors > 1 of a product of cyclic groups, read off the
    Smith form of the diagonal matrix of their orders."""
    k = len(orders)
    if k == 0:
        return ()
    diag = tuple(
        tuple(orders[i] if i == j else 0 for j in range(k)) for i in range(k)
    )
    d, _, _ = snf_with_transforms(diag)
    return tuple(d[i][i] for i in range(k) if d[i][i] > 1)


@st.composite
def symmetric_grams(draw, min_rank=0, max_rank=5):
    """A symmetric integer matrix with small entries, possibly singular."""
    n = draw(st.integers(min_rank, max_rank))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(st.integers(-6, 6))
    return tuple(map(tuple, g))
