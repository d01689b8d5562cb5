"""Exact linear algebra over Z for small dense matrices.

Everything here runs on arbitrary-precision integers; there is
deliberately no floating point anywhere, and no `Fraction` either.
The eliminations are fraction-free: Hermite forms by extended gcds, and
determinants, LDL^T and adjugates by Bareiss elimination; a symmetric
matrix gets its signature and determinant from one symmetric pass.  A
rational matrix or vector is an integer one over one denominator:
`adjugate` gives the inverse as adj over det, and `fp_enumerate` takes
the centre of its shell as an integer vector over `den`.  Its
Fincke-Pohst recursion returns the vectors of one exact value, and takes
an integer coordinate box and cuts each level's range to it instead of
filtering the shell afterwards.

The one Smith form, `local_snf`, works over Z/p^k for one prime p with
k = v_p(det): its entries stay below p^k, and it returns V mod p^k only,
which is all that `lattice.discriminant_group` needs to present the
p-part of L*/L.
Matrices are plain sequences of row sequences.
Functions return tuples of tuples so results can live inside frozen
dataclasses.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Sequence

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def require(ok: bool, message: str) -> None:
    """A check on a certificate or a search invariant that, unlike
    `assert`, still runs under `python -O`."""
    if not ok:
        raise ArithmeticError(message)


def freeze(rows: Iterable[Sequence]) -> tuple:
    return tuple(tuple(r) for r in rows)


def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a: Sequence[Sequence]) -> tuple:
    return tuple(zip(*a)) if a else ()


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    bt = list(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_vec(a: Sequence[Sequence], v: Sequence) -> tuple:
    return tuple(sum(map(mul, row, v)) for row in a)


def vec_mat(v: Sequence, a: Sequence[Sequence]) -> tuple:
    return tuple(sum(map(mul, v, col)) for col in zip(*a))


def dot(u: Sequence, v: Sequence):
    return sum(map(mul, u, v))


def vec_add(u: Sequence, v: Sequence) -> tuple:
    return tuple(x + y for x, y in zip(u, v))


def vec_sub(u: Sequence, v: Sequence) -> tuple:
    return tuple(x - y for x, y in zip(u, v))


def vec_scale(v: Sequence, c) -> tuple:
    return tuple(c * x for x in v)


def vec_neg(v: Sequence) -> tuple:
    return tuple(-x for x in v)


def diagonal_blocks(a: Mat) -> tuple[Mat, ...]:
    """The contiguous diagonal blocks of a symmetric matrix: the finest split
    of its indices into consecutive runs with no nonzero entry between two
    runs.  These are the summands of a block-diagonal orthogonal sum, as
    `lattice.direct_sum` and `forms.sum_forms` lay them out; a matrix that
    is no such sum is its own single block, and the empty matrix has none."""
    n = len(a)
    out, start, reach = [], 0, 0
    for i, row in enumerate(a):
        # the last nonzero entry of the row beyond the block's reach so far
        reach = max(i, next((j for j in range(n - 1, reach, -1) if row[j]), reach))
        if reach == n - 1:
            # the block reaches the last index: the rest is one block
            return tuple(out) + (tuple(r[start:] for r in a[start:]),)
        if reach == i:
            out.append(tuple(r[start:i + 1] for r in a[start:i + 1]))
            start = i + 1
    return ()


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b == g == gcd(a, b), g >= 0.

    The pair (s, t) is normalized to minimal |t|; in particular a | b gives
    (|a|, sign(a), 0), which keeps the HNF pivot operations from
    cycling.
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    g, s, t = old_r, old_s, old_t
    if g < 0:
        g, s, t = -g, -s, -t
    if a and g:
        m = a // g
        am = abs(m)
        t2 = t % am
        if 2 * t2 > am:
            t2 -= am
        k = (t2 - t) // m
        s -= k * (b // g)
        t = t2
    return g, s, t


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms
# ---------------------------------------------------------------------------


def hnf_row(a: Sequence[Sequence[int]]) -> tuple[Mat, Mat]:
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular, U*a == H, pivots positive, entries
    above each pivot reduced into [0, pivot), zero rows at the bottom.
    """
    h = [list(map(int, row)) for row in a]
    m = len(h)
    n = len(h[0]) if m else 0
    u = [list(row) for row in identity(m)]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if h[i][c]), None)
        if piv is None:
            continue
        h[r], h[piv] = h[piv], h[r]
        u[r], u[piv] = u[piv], u[r]
        for i in range(r + 1, m):
            if not h[i][c]:
                continue
            g, s, t = xgcd(h[r][c], h[i][c])
            p, q = h[r][c] // g, h[i][c] // g
            h[r], h[i] = (
                [s * x + t * y for x, y in zip(h[r], h[i])],
                [p * y - q * x for x, y in zip(h[r], h[i])],
            )
            u[r], u[i] = (
                [s * x + t * y for x, y in zip(u[r], u[i])],
                [p * y - q * x for x, y in zip(u[r], u[i])],
            )
        if h[r][c] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = h[i][c] // h[r][c]
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
        if r == m:
            break
    return freeze(h), freeze(u)


def hnf_basis(a: Sequence[Sequence[int]]) -> Mat:
    """Canonical basis (nonzero HNF rows) of the row lattice of `a`."""
    h, _ = hnf_row(a)
    return tuple(row for row in h if any(row))


def kernel_int(a: Sequence[Sequence[int]]) -> Mat:
    """Basis rows of {x in Z^n : a @ x = 0}, or () when the kernel is 0.

    The kernel of an integer matrix is saturated by construction.
    """
    if not a:
        return ()
    h, u = hnf_row(transpose(a))
    return tuple(u[i] for i in range(len(h)) if not any(h[i]))


# The Smith form over Z is a test oracle now; the name stays because the
# benchmark (k3bench/spans.py) wraps it, and a call fails loudly.
def snf(*args, **kwargs):
    raise RuntimeError("snf has moved to tests/rational_oracles.py")


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + [n] if n > 1 else out


def local_snf(a: Sequence[Sequence[int]], p: int, k: int) -> tuple[Vec, Mat]:
    """The Smith form of a square integer matrix over Z/p^k: returns
    (orders, cols) with orders[i] = p^e_i, e_1 <= e_2 <= ..., and cols[i]
    column i of a unimodular V mod p^k such that U*a*V = diag(orders) mod
    p^k for some U invertible mod p^k.  When k = v_p(det a), the orders
    are the p-parts of the invariant factors of `a`, and they multiply to
    p^k.

    Each pivot is an entry of least p-valuation e in the remaining block,
    scaled to p^e by a unit mod p^k (a row operation, like every one that
    acts on the block alone; no caller needs U).  Every entry of the block
    is a multiple of p^e, so each clearing step is one exact subtraction,
    and every entry stays in [0, p^k).  Once the pivot column is cleared,
    a column operation against the pivot changes the pivot row alone, so
    the pivot row is cleared on V's columns only.  A block that is 0 mod
    p^k leaves one generator of order p^k per row."""
    mod = p**k
    n = len(a)
    block = [[x % mod for x in row] for row in a]
    # the columns of V that belong to the block's columns, in their order
    one = 1 % mod
    vcols = [[one if i == j else 0 for i in range(n)] for j in range(n)]
    orders: list[int] = []
    cols: list[list[int]] = []
    pe = 1
    while block:
        # the block is a multiple of pe: look for an entry that p*pe does
        # not divide, or raise pe
        hit = None
        while hit is None and pe < mod:
            hit = next(((i, j) for i, row in enumerate(block)
                        for j, x in enumerate(row) if x % (p * pe)), None)
            if hit is None:
                pe *= p
        if hit is None:
            orders += [mod] * len(block)
            cols += vcols
            break
        i, j = hit
        head = block.pop(i)
        inv = pow(head.pop(j) // pe, -1, mod)
        head = [x * inv % mod for x in head]
        rest = []
        for row in block:
            c = row.pop(j) // pe
            rest.append([(y - c * x) % mod for x, y in zip(head, row)] if c else row)
        block = rest
        pivot = vcols.pop(j)
        for x, col in zip(head, vcols):
            if x:
                c = x // pe
                col[:] = [(y - c * z) % mod for y, z in zip(col, pivot)]
        orders.append(pe)
        cols.append(pivot)
    return tuple(orders), freeze(cols)


# ---------------------------------------------------------------------------
# Fraction-free (Bareiss) elimination
# ---------------------------------------------------------------------------
#
# Every elimination below runs on integers.  After k pivots of the one-step
# scheme of Bareiss (1968, "Sylvester's identity and multistep
# integer-preserving Gaussian elimination") each remaining entry is a minor
# of order k + 1 of the input, so the division by the previous pivot is
# exact; `require` checks that it is, also under `python -O`.


def _bareiss_update(
    p: int, f: int, row: Sequence[int], pivot_row: Sequence[int], prev: int
) -> list[int]:
    """(p * row - f * pivot_row) / prev, entry by entry: one fraction-free
    elimination step of `row` against the pivot row, whose pivot is p."""
    nums = [p * x - f * y for x, y in zip(row, pivot_row)]
    if prev == 1:
        return nums
    require(not any(x % prev for x in nums),
            "a fraction-free elimination step is not exact")
    return [x // prev for x in nums]


def _bareiss_step(a: list[list[int]], prev: int) -> list[list[int]]:
    """Eliminate the first row and column of the block `a`, whose pivot
    a[0][0] is nonzero; `prev` is the pivot of the step before (1 at the
    first).  Returns the remaining block, one order smaller."""
    p = a[0][0]
    head = a[0][1:]
    return [_bareiss_update(p, row[0], row[1:], head, prev) for row in a[1:]]


def det_int(a: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = [list(map(int, row)) for row in a]
    if not m:
        return 1
    sign = prev = 1
    while len(m) > 1:
        if not m[0][0]:
            piv = next((i for i in range(1, len(m)) if m[i][0]), None)
            if piv is None:
                return 0
            m[0], m[piv] = m[piv], m[0]
            sign = -sign
        p = m[0][0]
        m = _bareiss_step(m, prev)
        prev = p
    return sign * m[0][0]


def adjugate(a: Sequence[Sequence[int]]) -> tuple[int, Mat]:
    """(det a, adj a) of a nonsingular integer matrix, adj a @ a = det a * I.

    Fraction-free Gauss-Jordan elimination of [a | I]: every row but the
    pivot row takes the Bareiss step, so the left block ends as d * I and
    the right block as d * a^-1, where d = +-det a (the sign of the row
    swaps).  Raises ZeroDivisionError if `a` is singular.
    """
    n = len(a)
    m = [list(map(int, row)) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    sign = prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        p = m[k][k]
        pivot_row = m[k]
        m = [row if i == k else _bareiss_update(p, row[k], row, pivot_row, prev)
             for i, row in enumerate(m)]
        prev = p
    return sign * prev, freeze(tuple(sign * x for x in row[n:]) for row in m)


def signature(gram: Sequence[Sequence[int]]) -> tuple[int, int, int, int]:
    """Exact signature and determinant (n_plus, n_minus, n_zero, det) of a
    symmetric integer matrix, from one elimination.

    Symmetric Bareiss elimination: each pivot is a nonzero diagonal entry
    of the remaining block, moved to the front by a symmetric permutation.
    A block whose diagonal is all zero first takes the congruence
    row_k += row_l, col_k += col_l with a_kl != 0, which makes a_kk = 2 a_kl.
    The pivots p_1, p_2, ... are the leading principal minors of the
    permuted and transformed matrix, so the i-th diagonal entry of its
    LDL^T is p_i / p_{i-1} and has the sign of p_i * p_{i-1} (p_0 = 1).
    Both moves keep the determinant, so it is the last pivot, or 0 when an
    identically zero block is left.
    """
    a = [list(map(int, row)) for row in gram]
    n = len(a)
    pos = neg = 0
    prev = 1
    while a:
        k = len(a)
        t = next((i for i in range(k) if a[i][i]), None)
        if t is None:
            pair = next(((i, j) for i in range(k) for j in range(i + 1, k) if a[i][j]), None)
            if pair is None:
                return pos, neg, n - pos - neg, 0  # the remaining block is identically zero
            t, j = pair
            a[t] = [x + y for x, y in zip(a[t], a[j])]
            for row in a:
                row[t] += row[j]
        a[0], a[t] = a[t], a[0]
        for row in a:
            row[0], row[t] = row[t], row[0]
        p = a[0][0]
        if p * prev > 0:
            pos += 1
        else:
            neg += 1
        a = _bareiss_step(a, prev)
        prev = p
    return pos, neg, 0, prev


def ldl_int(gram: Sequence[Sequence[int]]) -> tuple[Vec, Mat]:
    """Fraction-free LDL^T of the positive definite leading block.

    Symmetric Bareiss elimination in the given order, which stops before
    the first pivot that is not positive.  Returns (p, rows): p[i] is the
    leading principal minor of order i + 1 and rows[i] the Bareiss row i,
    over columns i..n-1 (so rows[i][0] = p[i]).  With p_{-1} = 1,

        Q(x) = sum_i d_i (x_i + sum_{j>i} l_ij x_j)^2,
        d_i = p[i] / p[i-1],   l_ij = rows[i][j - i] / p[i],

    over the first len(p) coordinates; len(p) is the order of the largest
    positive definite leading block, n when the matrix is positive definite.
    """
    a = [list(map(int, row)) for row in gram]
    pivots: list[int] = []
    rows: list[Vec] = []
    prev = 1
    while a and a[0][0] > 0:
        p = a[0][0]
        pivots.append(p)
        rows.append(tuple(a[0]))
        a = _bareiss_step(a, prev)
        prev = p
    return tuple(pivots), tuple(rows)


def _div_exact(num: int, den: int) -> int:
    q, r = divmod(num, den)
    require(not r, f"{num} is not divisible by {den}")
    return q


# ---------------------------------------------------------------------------
# Inverting
# ---------------------------------------------------------------------------


def inv_unimodular(a: Sequence[Sequence[int]]) -> Mat:
    """Inverse of a unimodular integer matrix, as an integer matrix: the
    transform U of the row Hermite form U @ a = H, which is I exactly when
    `a` is unimodular."""
    h, u = hnf_row(a)
    if h != identity(len(a)):
        raise ValueError("matrix is not unimodular")
    return u


def fp_enumerate(
    gram_posdef: Sequence[Sequence[int]],
    value: int,
    center: Sequence[int] | None = None,
    den: int = 1,
    box: Sequence[tuple[int | None, int | None]] | None = None,
) -> list[Vec]:
    """All integer x with Q(den x + center) = value, Q positive definite:
    the shell Q(x + center / den) = value / den^2, for an integer vector
    `center` (0 when None) and den >= 1.

    Fincke-Pohst over the integers.  The LDL^T data d_i = p_i / p_{i-1}
    and l_ij = r_ij / p_i are read off the Bareiss minors p_i and rows r_i
    of `ldl_int` and scaled once to common denominators: with L the lcm of
    the denominators of the l_ij, D that of the d_i and y = den x + center,

        Q(y) D L^2 = sum_i a_i z_i^2,   z_i = L y_i + sum_{j>i} (L l_ij) y_j,

    where a_i = D d_i and L l_ij are integers, so z_i = L den x_i + K_i.
    Q(den x + center) is a polynomial in x with integer coefficients, so a
    value outside Q(center) + m Z, m the gcd of those coefficients, has an
    empty shell, returned as [] before any search.  From the last
    coordinate down, each level takes its range of x_i from
    s = isqrt(rem // a_i) and two floor divisions by L den.  The last two
    levels are one loop: for each x_1 in its range, x_0 solves
    a_0 z_0^2 = rem - a_1 z_1^2, at most two roots, with no call per x_1;
    a rank 1 shell runs the same loop under a unit level x_1 = 0.  With
    no `center`, Q is even in x, so only one vector of each pair {x, -x}
    is returned: the recursion keeps x_{n-1} >= 0, and x_i >= 0 while
    every coordinate above i is 0, so the last nonzero coordinate is
    positive.

    `box`, if given, holds one inclusive (lo, hi) per coordinate, either
    side None for no bound; each level intersects its range with it, so
    the result is the unboxed result restricted to the box (with no
    `center`, the sign representatives that lie in it).  Results come in
    the order of the recursion, unsorted: x_{n-1} outermost, each range
    ascending, the roots x_0 of one x_1 ascending, so two calls give the
    same list.
    """
    n = len(gram_posdef)
    if box is not None and len(box) != n:
        raise ValueError("box needs one (lo, hi) per coordinate")
    if den < 1:
        raise ValueError("den must be positive")
    if n == 0:
        return [()] if value == 0 else []
    if n == 1:
        # x_1 = 0 on the unit level: the results are (x_0, 0), cut below
        gram_posdef = ((gram_posdef[0][0], 0), (0, 1))
        center = None if center is None else (center[0], 0)
        box = ((None, None) if box is None else box[0], (0, 0))
    p, rows = ldl_int(gram_posdef)
    if len(p) < len(gram_posdef):
        raise ValueError("matrix is not positive definite")
    cen = tuple(center) if center is not None else (0,) * len(p)
    # the coefficients of Q(den x + c) = Q(c) + 2 den (G c).x + den^2 Q(x)
    # on the n given coordinates (a unit level stays 0) have gcd m
    gc = mat_vec(gram_posdef, cen)
    m = den * gcd(*(den * gram_posdef[i][i] for i in range(n)),
                  *(2 * den * gram_posdef[i][j] for i in range(n) for j in range(i + 1, n)),
                  *(2 * gc[i] for i in range(n)))
    if (value - dot(cen, gc)) % m:
        return []
    prev = (1,) + p[:-1]
    scale = lcm(*(pm // gcd(pi, pm) for pi, pm in zip(p, prev)))
    big = lcm(*(pi // gcd(r, pi) for pi, row in zip(p, rows) for r in row[1:]))
    step = big * den
    a = [_div_exact(pi * scale, pm) for pi, pm in zip(p, prev)]
    # K_i = k0[i] + den * sum_{j>i} ll[i][j - i - 1] * x_j
    ll = [[_div_exact(r * big, pi) for r in row[1:]] for pi, row in zip(p, rows)]
    k0 = [big * c + sum(map(mul, ll[i], cen[i + 1:])) for i, c in enumerate(cen)]
    top = value * scale * big * big
    if top < 0:
        return []
    box_lo, box_hi = zip(*box) if box is not None else ((None,) * len(p), (None,) * len(p))
    a0, a1 = a[0], a[1]
    lo0, hi0 = box_lo[0], box_hi[0]
    # K_0 moves by d0 per unit of x_1
    d0 = den * ll[0][0]
    found: list[Vec] = []
    x = [0] * len(p)

    def recurse(i: int, rem: int, signed: bool) -> None:
        # rem = top minus the value of the levels above i, never negative;
        # unless `signed`, there is no centre and x_j = 0 for j > i, so k = 0
        k = k0[i] + den * sum(map(mul, ll[i], x[i + 1:]))
        lo, hi = box_lo[i], box_hi[i]
        s = isqrt(rem // a[i])
        first = -((s + k) // step) if signed else 0
        last = (s - k) // step
        if lo is not None and lo > first:
            first = lo
        if hi is not None and hi < last:
            last = hi
        if i > 1:
            for xi in range(first, last + 1):
                z = step * xi + k
                x[i] = xi
                recurse(i - 1, rem - a[i] * z * z, signed or xi != 0)
            x[i] = 0
            return
        rest = tuple(x[2:])
        # K_0 at x_1 = 0
        k_base = k0[0] + den * sum(map(mul, ll[0][1:], x[2:]))
        for x1 in range(first, last + 1):
            z1 = step * x1 + k
            q, r = divmod(rem - a1 * z1 * z1, a0)
            if r:
                continue
            s0 = isqrt(q)
            if s0 * s0 != q:
                continue
            k_0 = k_base + d0 * x1
            for z0 in ((-s0, s0) if (signed or x1) and s0 else (s0,)):
                x0, r = divmod(z0 - k_0, step)
                if not r and (lo0 is None or lo0 <= x0) and (hi0 is None or x0 <= hi0):
                    found.append((x0, x1) + rest)

    # The recursive closure is a reference cycle; breaking it frees the
    # closure at once instead of at the next garbage collection.
    try:
        recurse(len(p) - 1, top, center is not None)
    finally:
        del recurse
    return found if n > 1 else [v[:1] for v in found]
