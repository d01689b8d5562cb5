"""Reference routines in `Fraction` arithmetic, and the Grams they run on.

These are the rational Gaussian eliminations that k3lat used before its
eliminations became fraction-free.  They are kept here, outside the
package, as oracles for `intmat`'s integer routines.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from k3lat.intmat import identity, mat_mul, transpose


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
