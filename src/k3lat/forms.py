"""Finite quadratic forms on finite abelian groups.

A form lives on A = Z/d_1 x ... x Z/d_k and takes values q(x) in Q/2Z with
associated pairing b(x, y) in Q/Z.  The public constructor takes the Gram
data as exact fractions: the diagonal holds q-values reduced into [0, 2),
off-diagonal entries hold pairing values reduced into [0, 1).  It converts
them once into integers over the level N = lcm(d_1, ..., d_k), an
isomorphism invariant: N*q(e_i) mod 2N on the diagonal and N*b(e_i, e_j)
mod N off it.  Every computation below reads only that integer table;
`q_value` and `b_value` turn their result back into a fraction for
outside callers.

Whatever needs every element of the group reads one walk, `_walk`: an
odometer over all coordinates but the last, in itertools.product order,
that carries the value, row sums and order of each prefix forward and
yields the run of the last coordinate in one piece.  The elements of
wanted value classes, the value multiset and the Gauss sums of the Milgram
signature are built from it, and all three are cached per form, the first
per form and set of classes (forms are frozen and hashable; a raised
ArithmeticError is not cached).

A subgroup H of A is L/diag(d)Z^k for exactly one lattice
diag(d)Z^k <= L <= Z^k, of index |A|/|H|, and L has exactly one
upper-triangular Hermite normal form basis: row i is (0, ..., 0, h_i,
t_{i+1}, ..., t_{k-1}) with h_i | d_i and 0 <= t_j < h_j, and
(d_i/h_i)*row_i lies in d_i*e_i + span(rows below).  `isotropic_subgroups`
builds these bases bottom row first, pruning on the index left over and on
isotropy row by row, so it meets each isotropic subgroup once, and lists
its elements sum c_i*row_i mod d, 0 <= c_i < d_i/h_i, by one odometer.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Iterator, Sequence

from .intmat import (
    Mat,
    Vec,
    freeze,
    hnf_basis,
    identity,
    inv_unimodular,
    kernel_int,
    mat_mul,
    mat_vec,
    require,
    snf,
    solve_int,
    transpose,
)


class SearchBudgetExceeded(RuntimeError):
    """A bounded backtracking search ran out of nodes before deciding."""


@dataclass(frozen=True)
class FiniteQuadraticForm:
    """Finite quadratic form given by generator orders and a Gram table."""

    orders: tuple[int, ...]
    q_gram: tuple[tuple[Fraction, ...], ...]
    level: int = field(init=False, repr=False, compare=False)
    table: Mat = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k = len(self.orders)
        if any(o < 2 for o in self.orders):
            raise ValueError("generator orders must be >= 2")
        if len(self.q_gram) != k or any(len(r) != k for r in self.q_gram):
            raise ValueError("Gram table shape does not match orders")
        n = lcm(*self.orders)
        table = []
        for row in self.q_gram:
            scaled = [x * n for x in row]
            if any(v.denominator != 1 for v in scaled):
                raise ValueError("Gram entry incompatible with generator orders")
            table.append(tuple(int(v) for v in scaled))
        for i, di in enumerate(self.orders):
            t = table[i][i]
            if not 0 <= t < 2 * n:
                raise ValueError("diagonal entries must lie in [0, 2)")
            # q is well defined on Z/d_i iff d_i*q_ii is in Z and
            # d_i^2*q_ii in 2Z
            if (t * di) % n or (t * di * di) % (2 * n):
                raise ValueError("q-value incompatible with generator order")
            for j in range(i):
                s = table[i][j]
                if s != table[j][i]:
                    raise ValueError("Gram table must be symmetric")
                if not 0 <= s < n:
                    raise ValueError("pairing entries must lie in [0, 1)")
                if (s * di) % n or (s * self.orders[j]) % n:
                    raise ValueError("pairing incompatible with generator orders")
        object.__setattr__(self, "level", n)
        object.__setattr__(self, "table", tuple(table))

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def group_order(self) -> int:
        n = 1
        for o in self.orders:
            n *= o
        return n

    def elements(self) -> Iterator[Vec]:
        return itertools.product(*(range(o) for o in self.orders))

    def q_value(self, x: Sequence[int]) -> Fraction:
        return Fraction(self._q_int(x), self.level)

    def b_value(self, x: Sequence[int], y: Sequence[int]) -> Fraction:
        return Fraction(self._b_int(x, y), self.level)

    def _q_int(self, x: Sequence[int]) -> int:
        """N*q(x) mod 2N for any integer vector x."""
        t = self.table
        k = len(t)
        total = 0
        for i in range(k):
            xi = x[i]
            if xi:
                row = t[i]
                s = row[i] * xi
                for j in range(i + 1, k):
                    if x[j]:
                        s += 2 * row[j] * x[j]
                total += s * xi
        return total % (2 * self.level)

    def _b_int(self, x: Sequence[int], y: Sequence[int]) -> int:
        """N*b(x, y) mod N for any integer vectors x and y."""
        t = self.table
        k = len(t)
        total = 0
        for i in range(k):
            if x[i]:
                row = t[i]
                total += x[i] * sum(row[j] * y[j] for j in range(k) if y[j])
        return total % self.level

    def element_order(self, x: Sequence[int]) -> int:
        n = 1
        for xi, oi in zip(x, self.orders):
            n = lcm(n, oi // gcd(oi, xi))
        return n

    def reduce(self, x: Sequence[int]) -> Vec:
        return tuple(xi % oi for xi, oi in zip(x, self.orders))


def trivial_form() -> FiniteQuadraticForm:
    return FiniteQuadraticForm((), ())


def cyclic_block(order: int, value: Fraction | int) -> FiniteQuadraticForm:
    """Cyclic form Z/order with q(generator) = value in Q/2Z."""
    value = Fraction(value) % 2
    if order < 1:
        raise ValueError("order must be positive")
    if order == 1:
        if value % 2:
            raise ValueError("nontrivial value on the trivial group")
        return trivial_form()
    return FiniteQuadraticForm((order,), ((value,),))


def u_block(n: int) -> FiniteQuadraticForm:
    """Hyperbolic block u(n) on (Z/n)^2: q = 0 on generators, b = -1/n."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return trivial_form()
    b = Fraction(-1, n) % 1
    z = Fraction(0)
    return FiniteQuadraticForm((n, n), ((z, b), (b, z)))


def sum_forms(parts: Iterable[FiniteQuadraticForm]) -> FiniteQuadraticForm:
    parts = list(parts)
    orders = tuple(o for p in parts for o in p.orders)
    k = len(orders)
    gram = [[Fraction(0)] * k for _ in range(k)]
    off = 0
    for p in parts:
        r = p.rank
        for i in range(r):
            for j in range(r):
                gram[off + i][off + j] = p.q_gram[i][j]
        off += r
    return FiniteQuadraticForm(orders, freeze(gram))


def negate(q: FiniteQuadraticForm) -> FiniteQuadraticForm:
    k = q.rank
    gram = [
        [
            (-q.q_gram[i][j]) % (2 if i == j else 1)
            for j in range(k)
        ]
        for i in range(k)
    ]
    return FiniteQuadraticForm(q.orders, freeze(gram))


def group_invariants(orders: Sequence[int]) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of the product of cyclic groups.

    Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b); applied to every pair i < j in
    turn, it leaves d_i dividing every later entry.
    """
    d = list(orders)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return tuple(x for x in d if x > 1)


def length(q: FiniteQuadraticForm) -> int:
    """Minimal number of generators of the underlying group."""
    return len(group_invariants(q.orders))


def is_degenerate(q: FiniteQuadraticForm) -> bool:
    """True iff some nonzero element pairs integrally with the whole group.

    The adjoint map A -> Hom(A, Q/Z) is bijective exactly when the index of
    {x in Z^k : table*x = 0 mod N} in Z^k equals |A|.
    """
    k = q.rank
    if k == 0:
        return False
    n = q.level
    gens = [list(row) for row in q.table]  # the table is symmetric
    for i in range(k):
        e = [0] * k
        e[i] = n
        gens.append(e)
    lam = hnf_basis(gens)
    index = 1
    for i, row in enumerate(lam):
        index *= row[i]
    # adjoint image size inside (Z/N)^k is N^k / [Z^k : table Z^k + N Z^k]
    return n**k // index != q.group_order


# ---------------------------------------------------------------------------
# Milgram / Gauss-sum signature, exact cyclotomic arithmetic
# ---------------------------------------------------------------------------


def _cyclotomic_reduce(poly: list[int], m: int) -> list[int]:
    """Remainder of poly (coefficients, low degree first) mod Phi_m.

    Only the shapes needed here are supported: m a power of two, or
    m = 4 * p^a with p an odd prime.
    """
    if m & (m - 1) == 0:  # power of two: Phi_m = x^(m/2) + 1
        half = m // 2
        out = [0] * half
        for e, c in enumerate(poly):
            if c:
                out[e % half] += -c if (e // half) % 2 else c
        return out
    # m = 4 * p^a: Phi_m(x) = Phi_{p^a}(-x^2), explicit coefficients
    odd = m // 4
    p = min(f for f in range(3, odd + 1, 2) if odd % f == 0)
    a = 0
    t = odd
    while t % p == 0:
        t //= p
        a += 1
    if t != 1 or m != 4 * p**a:
        raise ValueError(f"unsupported cyclotomic modulus {m}")
    step = 2 * p ** (a - 1)
    phi = [0] * ((p - 1) * step + 1)
    for i in range(p):
        phi[i * step] = (-1) ** i
    # polynomial remainder over Z (Phi is monic up to sign of leading coeff)
    rem = list(poly)
    dphi = len(phi) - 1
    lead = phi[-1]
    while len(rem) > dphi:
        c = rem[-1]
        if c:
            if c % lead:
                # leading coefficient is +-1 for these shapes
                raise ArithmeticError("non-monic cyclotomic division")
            f = c // lead
            for i, pc in enumerate(phi):
                rem[len(rem) - 1 - dphi + i] -= f * pc
        rem.pop()
    return rem


def _cyclo_equal(counts: dict[int, int], other: dict[int, int], m: int) -> bool:
    poly = [0] * m
    for e, c in counts.items():
        poly[e % m] += c
    for e, c in other.items():
        poly[e % m] -= c
    return not any(_cyclotomic_reduce(poly, m))


def _prime_part(
    q: FiniteQuadraticForm, p: int
) -> tuple[list[list[int]], list[int], int]:
    """Gram of the p-Sylow subgroup over its exponent P.

    The subgroup is generated by the multiples m_i*e_i that kill the
    prime-to-p part of each order.  Returns (gram, orders, P): entry (i, j)
    of gram is an integer representative of P*b(g_i, g_j), of P*q(g_i) on
    the diagonal; representatives are enough because q(x) is computed
    mod 2 and off-diagonal terms enter doubled.
    """
    idx, mult, orders = [], [], []
    for i, o in enumerate(q.orders):
        t = o
        while t % p == 0:
            t //= p
        if t != o:
            idx.append(i)
            mult.append(t)
            orders.append(o // t)
    exp = max(orders, default=1)
    scale = q.level // exp  # N*q(g) and N*b(g, h) are multiples of N/P
    gram = []
    for a, i in enumerate(idx):
        row = []
        for b, j in enumerate(idx):
            v = mult[a] * mult[b] * q.table[i][j]
            require(v % scale == 0, f"the {p}-part has values outside (1/{exp})Z")
            row.append(v // scale)
        gram.append(row)
    return gram, orders, exp


def _walk(
    gram: Sequence[Sequence[int]], orders: Sequence[int], c: int
) -> Iterator[tuple[Vec, tuple[int, ...], tuple[int, ...]]]:
    """Walk Z/o_1 x ... x Z/o_s (s >= 1) in itertools.product order, one run
    of the last coordinate at a time.

    gram is symmetric and holds integer representatives of c*b on the
    generators, of c*q on the diagonal.  Yields (prefix, ords, vals) for
    each prefix of the first s-1 coordinates: the element prefix + (t,)
    has order ords[t] and value c*q mod 2c equal to vals[t].  An odometer
    over the prefix carries its value, its row sums (gram @ prefix mod c)
    and the lcm of its coordinates' orders; a run depends only on the
    value, the last row sum and that lcm, so equal runs are one object.
    """
    k = len(orders) - 1
    mod = 2 * c
    last = orders[k]
    ord_last = [last // gcd(last, t) for t in range(last)]
    squares = [gram[k][k] * t * t for t in range(last)]
    ord_prefix = [[o // gcd(o, x) for x in range(o)] for o in orders[:k]]
    ord_runs: dict[int, tuple[int, ...]] = {}
    val_runs: dict[tuple[int, int], tuple[int, ...]] = {}
    coords = [0] * k
    pre = [1] * k  # pre[j]: lcm of the orders of coords[0..j]
    row = [0] * (k + 1)
    val, order = 0, 1
    while True:
        ords = ord_runs.get(order)
        if ords is None:
            ords = ord_runs[order] = tuple(lcm(order, o) for o in ord_last)
        lin = 2 * row[k]
        vals = val_runs.get((val, lin))
        if vals is None:
            vals = val_runs[val, lin] = tuple(
                [(val + lin * t + sq) % mod for t, sq in enumerate(squares)])
        yield tuple(coords), ords, vals
        # odometer increment, last prefix coordinate fastest; a wrap back
        # to 0 is one more step, as values depend on coords mod the orders
        j = k - 1
        while j >= 0:
            col = gram[j]
            val = (val + 2 * row[j] + col[j]) % mod
            row = [(r + g) % c for r, g in zip(row, col)]
            x = coords[j] + 1
            if x < orders[j]:
                coords[j] = x
                order = lcm(pre[j - 1] if j else 1, ord_prefix[j][x])
                pre[j:] = [order] * (k - j)
                break
            coords[j] = 0
            j -= 1
        else:
            return


def _gauss_counts(
    gmat: list[list[int]], orders: list[int], d: int, m: int
) -> dict[int, int]:
    """Exponent histogram over the group of zeta_m^(q(x) * m/2), where
    gmat holds d*q and d*b on generators of the given orders."""
    if m % (2 * d):
        raise ArithmeticError("modulus does not clear denominators")
    f = m // (2 * d)
    counts: dict[int, int] = {}
    runs = Counter(vals for _, _, vals in _walk(gmat, orders, d))
    for vals, n in runs.items():
        for v in vals:
            counts[v * f] = counts.get(v * f, 0) + n
    return counts


def _mul_counts(a: dict[int, int], b: dict[int, int], m: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = (e1 + e2) % m
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _scale_counts(a: dict[int, int], c: int) -> dict[int, int]:
    return {e: v * c for e, v in a.items()}


@lru_cache(maxsize=None)
def milgram_signature(q: FiniteQuadraticForm) -> int:
    """Signature invariant mod 8 via exact prime-split Gauss sums.

    For each prime p the Gauss sum over the p-part equals
    sqrt(|A_p|) * zeta_8^sigma_p; the eight candidate phases are compared
    exactly in a cyclotomic ring (sqrt(2) and the odd quadratic Gauss sums
    are themselves cyclotomic integers).  Raises ArithmeticError when no
    phase matches, which signals a degenerate or corrupted form.  Cached
    per form; a raise is not, so a degenerate form raises on every call.
    """
    if is_degenerate(q):
        raise ArithmeticError("Milgram invariant requires a non-degenerate form")
    n = q.group_order
    sigma = 0
    primes = []
    rest = n
    f = 2
    while f * f <= rest:
        if rest % f == 0:
            primes.append(f)
            while rest % f == 0:
                rest //= f
        f += 1
    if rest > 1:
        primes.append(rest)
    for p in primes:
        gmat, orders, d = _prime_part(q, p)
        size = 1
        for o in orders:
            size *= o
        k = 0
        t = size
        while t > 1:
            t //= p
            k += 1
        # cyclotomic modulus: the p-part has exponent d, and the sum lives
        # in Z[zeta_{2d}]; enlarge to a supported shape.
        if p == 2:
            m = max(8, 2 * d)  # both are powers of two
        else:
            m = 4 * d  # d = p^a with a >= 1 for a non-degenerate p-part
        s = _gauss_counts(gmat, orders, d, m)
        matched = None
        if p == 2:
            root2 = {m // 8: 1, (7 * m) // 8: 1}  # zeta_8 + zeta_8^-1
            base = {0: 2 ** (k // 2)}
            if k % 2:
                base = _mul_counts(_scale_counts(root2, 2 ** ((k - 1) // 2)), {0: 1}, m)
            for sig8 in range(8):
                cand = _mul_counts(base, {(sig8 * m // 8) % m: 1}, m)
                if _cyclo_equal(s, cand, m):
                    matched = sig8
                    break
        else:
            gp = {}
            step = m // p
            for x in range(p):
                e = (x * x * step) % m
                gp[e] = gp.get(e, 0) + 1  # quadratic Gauss sum over Z/p
            base = {0: p ** (k // 2)}
            eps = k % 2
            if eps:
                base = _scale_counts(gp, p ** ((k - 1) // 2))
            for tau in range(4):
                cand = _mul_counts(base, {(tau * m // 4) % m: 1}, m)
                if _cyclo_equal(s, cand, m):
                    if eps and p % 4 == 3:
                        matched = (2 * tau + 2) % 8
                    else:
                        matched = (2 * tau) % 8
                    break
        if matched is None:
            raise ArithmeticError(
                f"Gauss sum for p={p} matches no admissible phase (corrupted form?)"
            )
        sigma = (sigma + matched) % 8
    return sigma % 8


# ---------------------------------------------------------------------------
# Isomorphism testing
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _value_classes(
    q: FiniteQuadraticForm, classes: tuple[tuple[int, int], ...]
) -> tuple[tuple[Vec, ...], ...]:
    """For each (order, N*q mod 2N) class in `classes`, its elements in
    itertools.product order (zero is the one element of class (1, 0)).
    Which last coordinates hit a wanted class depends only on the run,
    which `_walk` yields as one shared object kept alive while it walks, so
    it is worked out once per run id.  Only the kept elements are held."""
    if q.rank == 0:
        return tuple(((),) if c == (1, 0) else () for c in classes)
    index = {c: i for i, c in enumerate(classes)}
    found: list[list[Vec]] = [[] for _ in classes]
    lasts = [(t,) for t in range(q.orders[-1])]
    hits: dict[tuple[int, int], list[tuple[int, Vec]]] = {}
    for prefix, ords, vals in _walk(q.table, q.orders, q.level):
        run = hits.get((id(ords), id(vals)))
        if run is None:
            run = hits[id(ords), id(vals)] = [
                (index[ov], lasts[t]) for t, ov in enumerate(zip(ords, vals)) if ov in index
            ]
        for i, last in run:
            found[i].append(prefix + last)
    return tuple(map(tuple, found))


@lru_cache(maxsize=None)
def _value_multiset(q: FiniteQuadraticForm) -> tuple[tuple[int, int, int], ...]:
    """Sorted (order, N*q mod 2N, count) over the nonzero elements."""
    if q.rank == 0:
        return ()
    tally: Counter[tuple[int, int]] = Counter()
    runs = Counter((ords, vals) for _, ords, vals in _walk(q.table, q.orders, q.level))
    for (ords, vals), n in runs.items():
        for key in zip(ords, vals):
            tally[key] += n
    del tally[1, 0]  # zero, the only element of order 1
    return tuple(sorted((o, v, n) for (o, v), n in tally.items()))


def _subgroup_size(q: FiniteQuadraticForm, vecs: Sequence[Vec]) -> int:
    """Order of the subgroup generated by the given elements."""
    k = q.rank
    if k == 0:
        return 1
    rows = [list(v) for v in vecs]
    rows += [
        [q.orders[i] if i == j else 0 for j in range(k)] for i in range(k)
    ]
    h = hnf_basis(rows)
    idx = 1
    for i, row in enumerate(h):
        idx *= row[i]
    return q.group_order // idx


def forms_isomorphic(
    q1: FiniteQuadraticForm,
    q2: FiniteQuadraticForm,
    budget: int = 10**7,
) -> tuple[Vec, ...] | None:
    """Search for an isomorphism of finite quadratic forms.

    Returns a tuple of images (coordinates in q2) for the generators of q1,
    or None when the forms are provably non-isomorphic.  The search is a
    backtracking match of generators ordered by descending order and then
    by rarest q-value; exceeding the node budget raises
    SearchBudgetExceeded rather than answering.
    """
    if q1.group_order != q2.group_order:
        return None
    if group_invariants(q1.orders) != group_invariants(q2.orders):
        return None
    if q1.rank == 0:
        return ()
    if _value_multiset(q1) != _value_multiset(q2):
        return None
    if milgram_signature(q1) != milgram_signature(q2):
        return None

    gens1 = [(i, (o, q1.table[i][i])) for i, o in enumerate(q1.orders)]
    # equal group invariants give equal levels, so the integer values of
    # both forms are over the same N; only the generators' value classes
    # need candidates (sorted, so that one class set is one cache entry)
    wanted = tuple(sorted({g[1] for g in gens1}))
    buckets = dict(zip(wanted, _value_classes(q2, wanted)))
    # larger order first, then the rarest value class
    gens1.sort(key=lambda g: (-g[1][0], len(buckets[g[1]]), g[0]))

    nodes = 0
    chosen: list[Vec] = []
    # table2 @ chosen[lv], so that N*b(chosen[lv], cand) is one dot product
    paired: list[Vec] = []
    level2 = q2.level

    def extend(level: int) -> bool:
        nonlocal nodes
        if level == len(gens1):
            return _subgroup_size(q2, chosen) == q2.group_order
        i, ov = gens1[level]
        # N*b of this generator with the earlier ones, which are distinct
        # unit vectors: off-diagonal entries of q1's table
        wants = [q1.table[gens1[lv][0]][i] for lv in range(level)]
        for cand in buckets[ov]:
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(
                    f"forms_isomorphic exceeded {budget} nodes"
                )
            if any(sum(map(mul, r, cand)) % level2 != w for r, w in zip(paired, wants)):
                continue
            chosen.append(cand)
            paired.append(mat_vec(q2.table, cand))
            if extend(level + 1):
                return True
            chosen.pop()
            paired.pop()
        return False

    # A recursive closure is a reference cycle; break it on every exit,
    # SearchBudgetExceeded included.
    try:
        if not extend(0):
            return None
    finally:
        del extend
    images = [None] * q1.rank
    for (i, _), img in zip(gens1, chosen):
        images[i] = img
    out = tuple(images)  # type: ignore[arg-type]
    # transporting q and b is guaranteed by the constraints; re-verify
    for i in range(q1.rank):
        require(q2._q_int(out[i]) == q1.table[i][i],
                f"the image of generator {i} does not keep its q-value")
    return out


# ---------------------------------------------------------------------------
# Isotropic subgroups and quotients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of a finite quadratic form's group, listed element-wise:
    `elements` sorted, and `gens` any tuple that generates exactly them
    (callers use only their span)."""

    form: FiniteQuadraticForm
    elements: tuple[Vec, ...]
    gens: tuple[Vec, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def _isotropic_hnf(
    q: FiniteQuadraticForm, index: int, below: tuple[Vec, ...] = ()
) -> Iterator[tuple[Vec, ...]]:
    """HNF bases, rows top-down, of the isotropic lattices that end in the
    rows `below` and whose rows above those have pivots multiplying to
    `index` (see the module docstring)."""
    i = q.rank - len(below) - 1
    if i < 0:
        yield below
        return
    d = q.orders[i]
    room = prod(q.orders[:i])
    for h in range(1, d + 1):
        if d % h or index % h or room % (index // h):
            continue
        # (d/h)*row must lie in d*e_i + span(below): column by column, the
        # entry left in column j must be a multiple of the pivot h_j, which
        # fixes t_j mod h_j/gcd(d/h, h_j) and the coefficient c of row j
        rows = [((0,) * i + (h,), (0,) * q.rank)]
        for j, rj in enumerate(below, start=i + 1):
            rows = [(row + (t,), tuple(a - c * b for a, b in zip(rest, rj)))
                    for row, rest in rows for t in range(rj[j])
                    for c, r in [divmod(d // h * t + rest[j], rj[j])] if not r]
        for row, _ in rows:
            # a row with h = d is d*e_i plus a vector of span(below); others
            # must be isotropic and pair to zero with the rows below, as
            # q(x + y) = q(x) + q(y) + 2b(x, y)
            if h == d or (
                q._q_int(row) == 0 and not any(q._b_int(row, r) for r in below)
            ):
                yield from _isotropic_hnf(q, index // h, (row,) + below)


def isotropic_subgroups(q: FiniteQuadraticForm, order: int) -> list[Subgroup]:
    """All subgroups H with |H| = order, q = 0 on H (hence b = 0 on HxH),
    once each, sorted by element tuples.  `gens` are the reduced HNF rows
    with pivot h_i < d_i."""
    if order < 1:
        raise ValueError(f"subgroup order must be positive, got {order}")
    if q.group_order % order:
        return []
    out = []
    for basis in _isotropic_hnf(q, q.group_order // order):
        members = [(0,) * q.rank]
        gens = []
        for i, row in enumerate(basis):
            m = q.orders[i] // row[i]
            if m > 1:
                g = q.reduce(row)
                gens.append(g)
                members = [q.reduce(tuple(a + c * b for a, b in zip(x, g)))
                           for c in range(m) for x in members]
        elements = tuple(sorted(members))
        # q = 0 elementwise forces b = 0 on H x H; check q again
        for x in elements:
            require(q._q_int(x) == 0, f"subgroup element {x} is not isotropic")
        out.append(Subgroup(q, elements, tuple(gens)))
    out.sort(key=lambda s: s.elements)
    return out


def _orthogonal_lattice(q: FiniteQuadraticForm, gens: Sequence[Vec]) -> Mat:
    """Rows generating {x in Z^k : b(x, g) integral for all gens g}."""
    k = q.rank
    if not gens:
        return identity(k)
    n = q.level
    s = len(gens)
    # x satisfies (table g_j) . x == 0 mod N for all j; take the x-part of
    # the integer kernel of (x, y) -> B^T x + N*y
    amat = [
        mat_vec(q.table, g) + tuple(n if t == j else 0 for t in range(s))
        for j, g in enumerate(gens)
    ]
    ker = kernel_int(amat)
    rows = [tuple(col[:k]) for col in transpose(ker)]
    rows += [tuple(q.orders[i] if i == j else 0 for j in range(k)) for i in range(k)]
    return hnf_basis(rows)


def _quotient_structure(sup_rows: Mat, sub_rows: Mat) -> tuple[tuple[int, ...], Mat]:
    """Structure of (row lattice of sup)/(row lattice of sub).

    Returns invariant factor orders (including 1s) and lift rows: row i
    generates the Z/orders[i] factor, expressed in ambient coordinates.
    """
    k = len(sup_rows)
    coords = []
    for row in sub_rows:
        x = solve_int(transpose(sup_rows), row)
        if x is None:
            raise ValueError("sub lattice is not contained in sup lattice")
        coords.append(x)
    d, v = snf(coords)
    vi = inv_unimodular(v)
    orders = []
    for i in range(k):
        di = d[i][i] if i < len(d) and i < len(d[0]) else 0
        if di == 0:
            raise ValueError("quotient is infinite")
        orders.append(di)
    lifts = mat_mul(vi, sup_rows)
    return tuple(orders), freeze(lifts)


def _form_on_subquotient(
    q: FiniteQuadraticForm, orders: Sequence[int], lifts: Mat
) -> FiniteQuadraticForm:
    keep = [i for i, o in enumerate(orders) if o > 1]
    gram = [
        [
            Fraction(
                q._q_int(lifts[a]) if a == b else q._b_int(lifts[a], lifts[b]),
                q.level,
            )
            for b in keep
        ]
        for a in keep
    ]
    return FiniteQuadraticForm(tuple(orders[i] for i in keep), freeze(gram))


def quotient_form(q: FiniteQuadraticForm, h: Subgroup) -> FiniteQuadraticForm:
    """Induced form on H-perp / H for an isotropic subgroup H."""
    perp = _orthogonal_lattice(q, h.gens)
    k = q.rank
    sub_rows = [list(g) for g in h.gens]
    sub_rows += [[q.orders[i] if i == j else 0 for j in range(k)] for i in range(k)]
    sub = hnf_basis(sub_rows)
    orders, lifts = _quotient_structure(perp, sub)
    out = _form_on_subquotient(q, orders, lifts)
    if out.group_order * h.order * h.order != q.group_order:
        raise ArithmeticError("quotient size mismatch: subgroup not isotropic?")
    return out


def find_u_block(q: FiniteQuadraticForm, m: int) -> tuple[Vec, Vec]:
    """Locate a hyperbolic u(m) pair inside q (first in canonical order)."""
    (cands,) = _value_classes(q, ((m, 0),))
    target = q.level - q.level // m  # N*(-1/m) mod N
    for x in cands:
        for y in cands:
            if y != x and q._b_int(x, y) == target:
                return x, y
    raise ValueError(f"no u({m}) block found")
