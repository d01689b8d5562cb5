"""Finite quadratic forms on finite abelian groups.

A form lives on A = Z/d_1 x ... x Z/d_k and takes values q(x) in Q/2Z with
associated pairing b(x, y) in Q/Z.  It is stored as integers only: over
the level N = lcm(d_1, ..., d_k), an isomorphism invariant, its table holds
N*q(e_i) mod 2N on the diagonal and N*b(e_i, e_j) mod N off it, and
equality and hashing read that table.  Gram data as exact fractions
(q-values in [0, 2), pairings in [0, 1)) enters in one place,
`FiniteQuadraticForm.from_gram`; builders that change the level pass
integers through `from_table`, which checks that the division is exact.
`q_value`, `b_value` and `q_gram` turn results back into fractions for
outside callers.

Isomorphism and the Milgram signature read one normal form per form
(`_normal_form`, cached), computed on generators, so its cost does not
grow with |A|:

- Jordan splitting (Nikulin 1979, 1.8-1.16): split A into p-parts and in
  each peel blocks from the top scale p^k down: a cyclic block <x> when
  p^k*q(x) is a unit, otherwise a pair with a unit pairing (for odd p,
  x + y is then cyclic; for p = 2 it becomes u(2^k) or v(2^k)), the other
  generators projected off it.  No unit pairing at the top scale means a
  degenerate form, and ArithmeticError.
- Normal form (Miranda-Morrison, Embeddings of integral quadratic forms,
  ch. IV; the sign walking and oddity fusion of Conway-Sloane's 2-adic
  symbol): for odd p each scale becomes <1, ..., 1, d>, d = 1 or a
  non-residue; for p = 2 each scale becomes u ... u, at most one v and at
  most two w's, and then, from the top scale down, fixed moves of rank at
  most 4 on two or three adjacent scales set each scale's oddity and sign
  as far as the scales below allow.  Every move is a basis change applied
  to rows and Gram matrix together, and the result is checked again on
  the form's own table.
- `milgram_signature` adds the blocks' Gauss-sum phases in closed form;
  `forms_isomorphic` compares normal forms and composes one form's basis
  change with the inverse of the other's.  Both read the whole form's
  normal form, also for an orthogonal sum: its blocks' forms add up to it
  (Nikulin 1979, sec. 1), but they need not pair up with another sum's
  blocks for the sums to be isomorphic.

Value counts and u(m) pairs are read off the normal form too, not off a
walk over the group.  `_block_form` turns one entry of its key back into a
form; `value_counts` (genus records) convolves the blocks' own value
counts, and `find_u_block` reads the complement of a u(m) off the key and
lets `forms_isomorphic` map u(m) plus that complement onto the form.

`quotient_form` takes a subgroup H by generator rows alone, a cyclic glue's
one word included: H is L/diag(d)Z^k for the lattice L that those rows
span with diag(d)Z^k, so |H| = |A|/(h_1 ... h_k) for the diagonal h_i of
the Hermite normal form of L.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from typing import Iterable, Iterator, Sequence

from .intmat import (
    Mat,
    Vec,
    adjugate,
    freeze,
    hnf_basis,
    identity,
    inv_unimodular,
    kernel_int,
    mat_mul,
    mat_vec,
    require,
    snf,
    transpose,
    vec_mat,
)


class SearchBudgetExceeded(RuntimeError):
    """A bounded backtracking search ran out of nodes before deciding.  The
    package runs no such search; the oracles in tests/ raise it, and the
    benchmark worker (k3bench/worker.py) still imports it."""


@dataclass(frozen=True)
class FiniteQuadraticForm:
    """Finite quadratic form given by generator orders and its integer
    table over the level N = lcm(orders): N*q(e_i) mod 2N on the diagonal,
    N*b(e_i, e_j) mod N off it.  Fraction Gram data enters only through
    `from_gram`."""

    orders: tuple[int, ...]
    table: Mat
    level: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k = len(self.orders)
        if any(o < 2 for o in self.orders):
            raise ValueError("generator orders must be >= 2")
        table = freeze(self.table)
        if len(table) != k or any(len(r) != k for r in table):
            raise ValueError("Gram table shape does not match orders")
        if not all(type(t) is int for row in table for t in row):
            raise TypeError("the table holds integers; use from_gram for a Fraction Gram")
        n = lcm(*self.orders)
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
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "level", n)

    @classmethod
    def from_gram(
        cls, orders: Sequence[int], gram: Sequence[Sequence[Fraction | int]]
    ) -> FiniteQuadraticForm:
        """The form with Gram data as exact fractions: q-values in [0, 2)
        on the diagonal, pairing values in [0, 1) off it."""
        n = lcm(*orders)
        scaled = [[Fraction(x) * n for x in row] for row in gram]
        if any(v.denominator != 1 for row in scaled for v in row):
            raise ValueError("Gram entry incompatible with generator orders")
        return cls(tuple(orders), tuple(tuple(v.numerator for v in row) for row in scaled))

    @classmethod
    def from_table(
        cls, orders: Sequence[int], table: Sequence[Sequence[int]], level: int
    ) -> FiniteQuadraticForm:
        """The form whose q-values and pairings are table/level, rescaled to
        N = lcm(orders) and reduced mod 2N on the diagonal, mod N off it.
        ValueError when an entry is not a multiple of 1/N."""
        n = lcm(*orders)
        scaled = [[divmod(t * n, level) for t in row] for row in table]
        if any(r for row in scaled for _, r in row):
            raise ValueError("Gram entry incompatible with generator orders")
        return cls(tuple(orders), tuple(
            tuple(v % (2 * n if i == j else n) for j, (v, _) in enumerate(row))
            for i, row in enumerate(scaled)))

    @property
    def q_gram(self) -> tuple[tuple[Fraction, ...], ...]:
        """The table as fractions: q-values on the diagonal, pairings off it."""
        return tuple(tuple(Fraction(t, self.level) for t in row) for row in self.table)

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def group_order(self) -> int:
        return prod(self.orders)

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
        return lcm(*(oi // gcd(oi, xi) for xi, oi in zip(x, self.orders)))

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
    return FiniteQuadraticForm.from_gram((order,), ((value,),))


def u_block(n: int) -> FiniteQuadraticForm:
    """Hyperbolic block u(n) on (Z/n)^2: q = 0 on generators, b = -1/n."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return trivial_form()
    return FiniteQuadraticForm((n, n), ((0, n - 1), (n - 1, 0)))


def sum_forms(parts: Iterable[FiniteQuadraticForm]) -> FiniteQuadraticForm:
    """Orthogonal sum: each part's table rescaled to the common level; a
    single part is its own sum."""
    parts = list(parts)
    if len(parts) == 1:
        return parts[0]
    orders = tuple(o for p in parts for o in p.orders)
    n = lcm(*orders)
    table: list[Vec] = []
    for p in parts:
        off, s = len(table), n // p.level
        table += [(0,) * off + tuple(s * t for t in row) + (0,) * (len(orders) - off - p.rank)
                  for row in p.table]
    return FiniteQuadraticForm(orders, tuple(table))


def negate(q: FiniteQuadraticForm) -> FiniteQuadraticForm:
    n = q.level
    return FiniteQuadraticForm(q.orders, tuple(
        tuple(-t % (2 * n if i == j else n) for j, t in enumerate(row))
        for i, row in enumerate(q.table)))


def group_invariants(orders: Sequence[int]) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of the product of cyclic groups.

    Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b); applied to every pair i < j in
    turn, it leaves d_i dividing every later entry.  Cached per orders.
    """
    return _group_invariants(tuple(orders))


@lru_cache(maxsize=None)
def _group_invariants(orders: tuple[int, ...]) -> tuple[int, ...]:
    d = list(orders)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return tuple(x for x in d if x > 1)


def length(q: FiniteQuadraticForm) -> int:
    """Minimal number of generators of the underlying group."""
    return len(group_invariants(q.orders))


# ---------------------------------------------------------------------------
# Jordan splitting and normal form
# ---------------------------------------------------------------------------


def _prime_factors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out + [n] if n > 1 else out


def _poly(coeffs: Sequence[int], t: int) -> int:
    s = 0
    for c in reversed(coeffs):
        s = s * t + c
    return s


def _lift_root(f: Sequence[int], x: int, p: int, m: int) -> int:
    """A root mod p^m of the polynomial f (coefficients, lowest degree
    first), by Newton's iteration from a root x mod p at which f' is a
    unit; each step doubles the precision, so it takes about log2(m)."""
    mod = p**m
    df = [i * c for i, c in enumerate(f)][1:]
    require(_poly(f, x) % p == 0 and _poly(df, x) % p != 0,
            "no simple root to lift")
    while _poly(f, x) % mod:
        x = (x - _poly(f, x) * pow(_poly(df, x), -1, mod)) % mod
    return x


def _sqrt_unit(u: int, p: int, m: int) -> int:
    """A square root mod p^m of a unit u that is a square mod p^m (for
    p = 2 and m >= 3, u = 1 mod 8): a scan mod p, then Newton's iteration;
    for p = 2, bit by bit, as (r + 2^(i-1))^2 = r^2 + 2^i mod 2^(i+1)."""
    mod = p**m
    if p == 2:
        r = 1
        for i in range(3, m):
            if (r * r - u) >> i & 1:
                r += 1 << (i - 1)
        require((r * r - u) % mod == 0, f"{u} is not a square mod {mod}")
        return r
    r = next((t for t in range(1, p) if (t * t - u) % p == 0), None)
    require(r is not None, f"{u} is not a square mod {p}")
    return _lift_root((-u, 0, 1), r, p, m)


class _Frame:
    """Elements of the p-part of a form, in the form's coordinates, with
    their Gram matrix over the exponent P of that part: g[i][j] is
    P*b(x_i, x_j) mod P off the diagonal and P*q(x_i) mod 2P on it.  Every
    basis change below is made of `add`, `scale` and `transform`, which
    update rows and Gram matrix together."""

    def __init__(self, q: FiniteQuadraticForm, p: int) -> None:
        idx, mult, orders = [], [], []
        for i, o in enumerate(q.orders):
            t = o
            while t % p == 0:
                t //= p
            if t != o:
                idx.append(i)
                mult.append(t)
                orders.append(o // t)
        self.q, self.p = q, p
        self.P = max(orders, default=1)
        s = q.level // self.P  # N*q(x) and N*b(x, y) are multiples of N/P
        self.rows = [[m if j == i else 0 for j in range(q.rank)] for i, m in zip(idx, mult)]
        self.g = []
        for a, i in enumerate(idx):
            row = []
            for b, j in enumerate(idx):
                v = mult[a] * mult[b] * q.table[i][j]
                require(v % s == 0, f"the {p}-part has values outside (1/{self.P})Z")
                row.append(v // s % (2 * self.P if a == b else self.P))
            self.g.append(row)

    def Q(self, i: int, k: int) -> int:
        """p^k*q(x_i) mod 2p^k, for x_i of order at most p^k."""
        return self.g[i][i] // (self.P // self.p**k) % (2 * self.p**k)

    def B(self, i: int, j: int, k: int) -> int:
        """p^k*b(x_i, x_j) mod p^k, for x_i or x_j of order at most p^k."""
        return self.g[i][j] // (self.P // self.p**k) % self.p**k

    def _reduce(self, row: list[int]) -> list[int]:
        return [x % o for x, o in zip(row, self.q.orders)]

    def add(self, i: int, j: int, c: int) -> None:
        """x_i += c*x_j."""
        if not c:
            return
        g, P = self.g, self.P
        gi, gj = g[i], g[j]
        diag = (gi[i] + 2 * c * gi[j] + c * c * gj[j]) % (2 * P)
        for m in range(len(g)):
            if m != i:
                gi[m] = g[m][i] = (gi[m] + c * gj[m]) % P
        gi[i] = diag
        self.rows[i] = self._reduce([a + c * b for a, b in zip(self.rows[i], self.rows[j])])

    def scale(self, i: int, c: int) -> None:
        """x_i *= c."""
        if c == 1:
            return
        g, P = self.g, self.P
        gi = g[i]
        for m in range(len(g)):
            if m != i:
                gi[m] = g[m][i] = c * gi[m] % P
        gi[i] = c * c * gi[i] % (2 * P)
        self.rows[i] = self._reduce([c * a for a in self.rows[i]])

    def transform(self, idx: Sequence[int], mat: Sequence[Sequence[int]]) -> None:
        """Rows idx -> mat @ rows idx."""
        g, P = self.g, self.P
        old = [g[a][:] for a in idx]
        cross = [[sum(c * o[m] for c, o in zip(coeffs, old)) for m in range(len(g))]
                 for coeffs in mat]
        rows = [self._reduce([sum(c * self.rows[a][t] for c, a in zip(coeffs, idx))
                              for t in range(self.q.rank)]) for coeffs in mat]
        for r, i in enumerate(idx):
            for m in range(len(g)):
                if m not in idx:
                    g[i][m] = g[m][i] = cross[r][m] % P
            for s, j in enumerate(idx):
                if s != r:
                    g[i][j] = sum(c * cross[r][a] for c, a in zip(mat[s], idx)) % P
            ci = mat[r]
            g[i][i] = (sum(c * c * old[a][idx[a]] for a, c in enumerate(ci))
                       + 2 * sum(ci[a] * ci[b] * old[a][idx[b]]
                                 for a in range(len(idx)) for b in range(a + 1, len(idx)))
                       ) % (2 * P)
            self.rows[i] = rows[r]

    def project(self, z: int, block: Sequence[int], k: int) -> None:
        """Make x_z orthogonal to a block at scale p^k whose pairing
        matrix times p^k is invertible mod p^k."""
        mod = self.p**k
        if len(block) == 1:
            (x,) = block
            self.add(z, x, -self.B(z, x, k) * pow(self.B(x, x, k), -1, mod) % mod)
            return
        x, y = block
        bxx, bxy, byy = self.B(x, x, k), self.B(x, y, k), self.B(y, y, k)
        inv = pow(bxx * byy - bxy * bxy, -1, mod)
        bx, by = self.B(z, x, k), self.B(z, y, k)
        self.add(z, x, -inv * (byy * bx - bxy * by) % mod)
        self.add(z, y, -inv * (bxx * by - bxy * bx) % mod)

    def plane(self, k: int, x: int, y: int) -> str:
        """Turn an even unimodular pair at scale 2^k (Q even, B(x, y) odd)
        into u(2^k) (Q = 0, 0) or v(2^k) (Q = 2, 2), with B(x, y) = 1; the
        Arf invariant a*c mod 2 of Q = (2a, 2c) tells which."""
        m = 2 << k
        self.scale(y, pow(self.B(x, y, k), -1, m))
        a, c = self.Q(x, k) // 2, self.Q(y, k) // 2
        if a % 2 and c % 2:
            # Q(x + t*y) = 2 needs c*t^2 + t + a - 1 = 0 mod 2^k
            self.add(x, y, _lift_root((a - 1, 1, c), 0, 2, k))
            self.scale(y, pow(self.B(x, y, k), -1, m))
            # y' = X*x + (1 - 2X)*y has B(x, y') = 1 and Q(y') = 2 when
            # (4c - 1)X^2 + (1 - 4c)X + c - 1 = 0 mod 2^k
            c = self.Q(y, k) // 2
            t = _lift_root((c - 1, 1 - 4 * c, 4 * c - 1), 0, 2, k)
            self.scale(y, 1 - 2 * t)
            self.add(y, x, t)
            kind, want = "v", 2
        else:
            # an isotropic x: c*t^2 + t + a = 0 mod 2^k, then y -= (Q(y)/2)*x
            self.add(x, y, _lift_root((a, 1, c), a % 2, 2, k))
            self.scale(y, pow(self.B(x, y, k), -1, m))
            self.add(y, x, -(self.Q(y, k) // 2))
            kind, want = "u", 0
        require(self.Q(x, k) == self.Q(y, k) == want and self.B(x, y, k) == 1 % (m // 2),
                f"the pair at scale 2^{k} did not reduce to {kind}")
        return kind


Block = tuple[str, tuple[int, ...]]


def _split(fr: _Frame) -> dict[int, list[Block]]:
    """Jordan splitting of the p-part: {k: blocks at scale p^k}, each
    ("w", (x,)) cyclic or, for p = 2, ("p", (x, y)) an even pair.  Blocks
    are peeled from the top scale down: a cyclic block on a row whose
    p^k*q is a unit, else an even pair with a unit pairing (for odd p,
    x + y is then cyclic); the other rows are projected off it.  A p-part
    with no unit pairing at its top scale is degenerate."""
    q, p = fr.q, fr.p
    levels: dict[int, list[Block]] = {}
    active = [i for i, r in enumerate(fr.rows) if any(r)]
    while active:
        # the entries' orders are powers of p, so their lcm is their max
        order = {i: max(o // gcd(o, x) for o, x in zip(q.orders, fr.rows[i]))
                 for i in active}
        top = max(order.values())
        k = 0
        while p**k < top:
            k += 1
        tops = [i for i in active if order[i] == top]
        x = next((i for i in tops if fr.Q(i, k) % p), None)
        if x is not None:
            block: Block = ("w", (x,))
        else:
            pair = next(((i, j) for a, i in enumerate(tops) for j in tops[a + 1:]
                         if fr.B(i, j, k) % p), None)
            if pair is None:
                raise ArithmeticError(
                    f"degenerate form: no unit pairing at scale {p}^{k}")
            if p == 2:
                block = ("p", pair)
            else:
                fr.add(pair[0], pair[1], 1)
                block = ("w", pair[:1])
        rest = [i for i in active if i not in block[1]]
        for z in rest:
            fr.project(z, block[1], k)
        levels.setdefault(k, []).append(block)
        active = [i for i in rest if any(fr.rows[i])]
    return levels


# pairs of w values (mod 8) that the move (a, b) -> (a + 4, b + 4) replaces
_MOVED_PAIRS = {(3, 3), (3, 5), (5, 5), (5, 7)}


def _hnf2(fr: _Frame, k: int, blocks: list[Block]) -> list[Block]:
    """Homogeneous normal form of the scale-2^k blocks: u ... u, at most
    one v, at most two w's, in that order.

    - www -> w + even pair: (x, y, z) -> (x + y + z, e2*x - e1*y, e3*x - e1*z)
      for values (e1, e2, e3);
    - vv -> uu: x = e1 + e2 + d*f2 with d^2 + d + 2 = 0 mod 2^k is
      isotropic, and the pair (x, f1) and its complement are both u;
    - v + ww -> u + ww when the two w values agree mod 4 (`_trade_v`);
    - w values to 1, 3, 5, 7 by a unit square, and the pairs in
      _MOVED_PAIRS moved by (x, y) -> (x + 2y, -2*e2*x + e1*y), whose
      values are (e1 + 4e2, e1*e2*(e1 + 4e2)) = (e1 + 4, e2 + 4) mod 8.

    At k = 1 the w values are only defined mod 4 and the last move is the
    identity."""
    ws = [rows[0] for kind, rows in blocks if kind == "w"]
    planes = {"u": [], "v": []}
    for kind, rows in blocks:
        if kind != "w":
            planes[fr.plane(k, *rows)].append(rows)
    while len(ws) >= 3:
        x, y, z = ws[:3]
        e1, e2, e3 = fr.Q(x, k), fr.Q(y, k), fr.Q(z, k)
        fr.transform((x, y, z), ((1, 1, 1), (e2, -e1, 0), (e3, 0, -e1)))
        planes[fr.plane(k, y, z)].append((y, z))
        ws = [x] + ws[3:]
    us, vs = planes["u"], planes["v"]
    while len(vs) >= 2:
        (e1, f1), (e2, f2) = vs.pop(), vs.pop()
        fr.add(e1, e2, 1)
        fr.add(e1, f2, _lift_root((2, 1, 1), 0, 2, k))
        fr.project(e2, (e1, f1), k)
        fr.project(f2, (e1, f1), k)
        for pair in ((e1, f1), (e2, f2)):
            require(fr.plane(k, *pair) == "u", "two v blocks did not give two u blocks")
            us.append(pair)
    if len(ws) == 2 and vs and (fr.Q(ws[0], k) - fr.Q(ws[1], k)) % 4 == 0:
        ws = _trade_v(fr, k, vs.pop(), ws, us)
    for x in ws:
        _unit_w(fr, k, x)
    if len(ws) == 2 and k >= 2 and tuple(sorted(fr.Q(x, k) for x in ws)) in _MOVED_PAIRS:
        x, y = ws
        fr.transform(ws, ((1, 2), (-2 * fr.Q(y, k), fr.Q(x, k))))
        for x in ws:
            _unit_w(fr, k, x)
    ws.sort(key=lambda x: fr.Q(x, k))
    return ([("u", b) for b in us] + [("v", b) for b in vs]
            + [("w", (x,)) for x in ws])


def _unit_w(fr: _Frame, k: int, x: int) -> None:
    """Scale a cyclic block at scale 2^k to the value Q mod 8."""
    if k >= 3:
        m = 2 << k
        e = fr.Q(x, k)
        fr.scale(x, _sqrt_unit(e % 8 * pow(e, -1, m), 2, k + 1))


def _trade_v(fr: _Frame, k: int, v: tuple[int, int], ws: list[int],
             us: list) -> list[int]:
    """v + w(e1) + w(e2) with e1 = e2 mod 4 -> u + ww.  x + e is odd and
    of the other class mod 4, and the rest of v + w(e1) splits into two
    w's; then (a, b, c) -> (a + b + c, e2*a - e1*b, e3*a - e1*c) on w's
    with e1 + e2 = 0 mod 4 gives a u pair."""
    e, f = v
    x, y = ws
    fr.add(x, e, 1)
    fr.project(e, (x,), k)
    fr.project(f, (x,), k)
    fr.project(e, (f,), k)
    require(fr.Q(e, k) % 2 == fr.Q(f, k) % 2 == 1, "v + w did not split into w's")
    e1, e2, e3 = fr.Q(x, k), fr.Q(y, k), fr.Q(f, k)
    require((e1 + e2) % 4 == 0, "v + w gave no w of the other class")
    fr.transform((x, y, f), ((1, 1, 1), (e2, -e1, 0), (e3, 0, -e1)))
    require(fr.plane(k, y, f) == "u", "v + ww did not give u + ww")
    us.append((y, f))
    return [x, e]


def _sign_negative(fr: _Frame, k: int, blocks: list[Block]) -> bool:
    """Whether the determinant of the scale-2^k constituent is 3 or 5 mod 8
    (u counts -1, v 3, w its value)."""
    d = 1
    for kind, rows in blocks:
        d *= {"u": -1, "v": 3}.get(kind) or fr.Q(rows[0], k)
    return d % 8 in (3, 5)


def _shear(fr: _Frame, k: int, h: int, g: int) -> None:
    """h += g for a cyclic h at scale 2^k and a w row g at a lower scale,
    then g is projected off h: for g at scale 2^(k-1) the values (a, b)
    become a(1 + 2ab), b(1 + 2ab) mod 8, for g at 2^(k-2) (a + 4, b + 4)."""
    fr.add(h, g, 1)
    fr.project(g, (h,), k)


def _normal2(fr: _Frame, levels: dict[int, list[Block]]) -> None:
    """Normal form of the 2-part, in place: every scale in homogeneous
    normal form, and from the top scale k down, with moves that change
    only the scales below k:

    - (b) if scale k-1 has a w, a v at k becomes u (its pair sheared by
      that w: e += g, f += g flips the Arf invariant) and every w at k
      is made 1 mod 4 (`_shear`);
    - (c) if the constituent at k has w's and determinant 3 or 5 mod 8,
      its last w is moved by +4 (sign walking) through a u or v at k-1
      (h += e + f), a w at k-2 (`_shear`), or two w's at k-1 that agree
      mod 4 (`_shear` twice), the first of these that exists."""
    for k in levels:
        levels[k] = _hnf2(fr, k, levels[k])
    for k in sorted(levels, reverse=True):
        below = levels.get(k - 1, [])
        w1 = [rows[0] for kind, rows in below if kind == "w"]
        here = levels[k]
        if w1:
            for kind, rows in here:
                if kind == "v":
                    e, f = rows
                    fr.add(e, w1[0], 1)
                    fr.add(f, w1[0], 1)
                    fr.project(w1[0], rows, k)
                elif kind == "w" and fr.Q(rows[0], k) % 4 == 3:
                    _shear(fr, k, rows[0], w1[0])
            here = _hnf2(fr, k, here)
        ws = [rows[0] for kind, rows in here if kind == "w"]
        if ws and _sign_negative(fr, k, here):
            h = ws[-1]
            uv1 = [rows for kind, rows in below if kind != "w"]
            w2 = [rows[0] for kind, rows in levels.get(k - 2, []) if kind == "w"]
            if uv1:
                e, f = uv1[-1]
                fr.add(h, e, 1)
                fr.add(h, f, 1)
                fr.project(e, (h,), k)
                fr.project(f, (h,), k)
            elif w2:
                _shear(fr, k, h, w2[0])
            elif len(w1) == 2 and (fr.Q(w1[0], k - 1) - fr.Q(w1[1], k - 1)) % 4 == 0:
                _shear(fr, k, h, w1[0])
                _shear(fr, k, h, w1[1])
            here = _hnf2(fr, k, here)
        levels[k] = here
        for j in (k - 1, k - 2):
            if j in levels:
                levels[j] = _hnf2(fr, j, levels[j])


def _normal_odd(fr: _Frame, levels: dict[int, list[Block]]) -> None:
    """Normal form of an odd p-part, in place: at each scale p^k the
    cyclic blocks <a_i> (p^k*q = 2a_i) become <1, ..., 1, d> with d = 1
    or the least non-residue mod p, so that the rank and the Legendre
    symbol of the determinant are the invariant.  Two non-residues a, b
    become <1, ab> through x' = s*x + t*y, y' = -t*b*x + s*a*y, where
    a*s^2 + b*t^2 = 1 mod p^k: s by a scan mod p, t by Newton's
    iteration; then each block is scaled by a unit."""
    p = fr.p
    nu = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    for k, blocks in levels.items():
        mod = p**k
        xs = [rows[0] for _, rows in blocks]

        def a(x: int) -> int:
            return fr.Q(x, k) // 2

        bad = [x for x in xs if pow(a(x), (p - 1) // 2, p) != 1]
        for x, y in zip(bad[0::2], bad[1::2]):
            ax, ay = a(x), a(y)
            for s in range(1, p):
                r = (1 - ax * s * s) * pow(ay, -1, p) % p
                if pow(r, (p - 1) // 2, p) == 1:
                    break
            t = _lift_root((ax * s * s - 1, 0, ay), _sqrt_unit(r, p, 1), p, k)
            fr.transform((x, y), ((s, t), (-t * ay, s * ax)))
        last = bad[-1] if len(bad) % 2 else None
        for x in xs:
            target = nu if x == last else 1
            fr.scale(x, _sqrt_unit(target * pow(a(x), -1, mod), p, k))
        xs.sort(key=lambda x: x == last)
        levels[k] = [("w", (x,)) for x in xs]


@dataclass(frozen=True)
class NormalForm:
    """A form's normal form: `key` lists its blocks (p, k, kind, p^k*q on
    the first generator), primes ascending and scales descending; `basis`
    holds the blocks' generators, elements of the form's group, in the
    same order; `coords` row i holds the coordinates of generator e_i in
    that basis, read off the pairings with it."""

    key: tuple[tuple[int, int, str, int], ...]
    basis: tuple[Vec, ...]
    coords: tuple[Vec, ...]


_BLOCK_VALUES = {"u": (0, 0), "v": (2, 2)}


def _block_form(p: int, k: int, kind: str, value: int) -> FiniteQuadraticForm:
    """One normal-form block, an entry of `NormalForm.key`, as a form over
    its level p^k: the cyclic table (value,) for "w", `_BLOCK_VALUES` on
    the diagonal and pairing 1 for "u" and "v"."""
    qs = _BLOCK_VALUES.get(kind, (value,))
    return FiniteQuadraticForm((p**k,) * len(qs), tuple(
        tuple(t if i == j else 1 for j in range(len(qs))) for i, t in enumerate(qs)))


@lru_cache(maxsize=None)
def _normal_form(q: FiniteQuadraticForm) -> NormalForm:
    """Jordan splitting and normal form of a non-degenerate form, checked
    again on the form's own table: the basis Gram matrix must be the
    block-diagonal matrix the key describes, and the blocks' orders must
    multiply to |A|.  Those two checks fix each basis row's order too.
    Every block of the key is non-degenerate at its scale p^k (a w value
    is a unit, u and v have unit determinant), so the key's form F on the
    product of the blocks' cyclic groups is.  The rows x_i pair like F's
    generators e_i, so sum c_i x_i = 0 forces sum c_i e_i = 0 in F, the
    x_i generate all of A (|F| = |A|), and p^k x_i, pairing to 0 with
    every x_j, is 0 (A is non-degenerate).  Raises ArithmeticError on a
    degenerate form.  Cached per form; a raise is not, so a degenerate
    form raises on every call."""
    key, basis, gram = [], [], []
    for p in _prime_factors(q.group_order):
        fr = _Frame(q, p)
        levels = _split(fr)
        (_normal2 if p == 2 else _normal_odd)(fr, levels)
        for k in sorted(levels, reverse=True):
            for kind, rows in levels[k]:
                value = fr.Q(rows[0], k)
                key.append((p, k, kind, value))
                qs = _BLOCK_VALUES.get(kind, (value,))
                gram.append((p**k, qs))
                basis.extend(tuple(fr.rows[x]) for x in rows)
    n = q.level
    require(prod(o ** len(qs) for o, qs in gram) == q.group_order,
            "the normal form blocks do not multiply to the group order")
    want = [[0] * len(basis) for _ in basis]
    at = 0
    for o, qs in gram:
        for i, t in enumerate(qs, start=at):
            for j in range(at, at + len(qs)):
                want[i][j] = t * n // o if i == j else n // o
        at += len(qs)
    bad = _first_bad(mat_mul(mat_mul(basis, q.table), transpose(basis)), want, n)
    require(bad is None, f"the normal form table is wrong at {bad}")
    return NormalForm(tuple(key), tuple(basis), _coordinates(q, gram, basis))


def _first_bad(gram: Mat, table: Sequence[Sequence[int]], n: int) -> tuple[int, int] | None:
    """The first entry (i, j), row by row with j <= i, where an integer
    Gram over the level n differs from a form table over n: mod 2n on the
    diagonal, mod n off it.  None when they agree."""
    return next(((i, j) for i, (g, t) in enumerate(zip(gram, table)) for j in range(i + 1)
                 if (g[j] - t[j]) % (2 * n if i == j else n)), None)


def _coordinates(q: FiniteQuadraticForm, gram: list, basis: list) -> tuple[Vec, ...]:
    """Coordinates of each generator of q in an orthogonal basis of
    unimodular blocks: for a block X at scale o, the coefficients c of e_i
    solve (o*b(X, X)) c = o*b(e_i, X) mod o."""
    n = q.level
    cols: list[list[int]] = []
    at = 0
    for o, qs in gram:
        s = n // o
        xs = basis[at:at + len(qs)]
        pair = [mat_vec(q.table, x) for x in xs]  # N*b(e_i, x) for every i
        if len(xs) == 1:
            inv = pow(q._q_int(xs[0]) // s, -1, o)
            cols.append([t // s * inv % o for t in pair[0]])
        else:
            bxx, byy = q._q_int(xs[0]) // s, q._q_int(xs[1]) // s
            bxy = q._b_int(xs[0], xs[1]) // s
            inv = pow(bxx * byy - bxy * bxy, -1, o)
            bx = [t // s for t in pair[0]]
            by = [t // s for t in pair[1]]
            cols.append([inv * (byy * u - bxy * w) % o for u, w in zip(bx, by)])
            cols.append([inv * (bxx * w - bxy * u) % o for u, w in zip(bx, by)])
        at += len(qs)
    return tuple(zip(*cols)) if cols else ((),) * q.rank


def _block_signature(p: int, k: int, kind: str, value: int) -> int:
    """Milgram signature mod 8 of one normal-form block, from its Gauss
    sum: w(e) at 2^k gives e, plus 4 when k is odd and e = 3, 5 mod 8; v
    at odd k gives 4, u 0; a cyclic block <a> at odd p^k gives 0 for even
    k, else 0 (p = 1 mod 4) or 2 (p = 3 mod 4), plus 4 when a is a
    non-residue."""
    if p == 2:
        if kind == "w":
            return value + (4 if k % 2 and value % 8 in (3, 5) else 0)
        return 4 if kind == "v" and k % 2 else 0
    if k % 2 == 0:
        return 0
    return (0 if p % 4 == 1 else 2) + (4 if pow(value // 2, (p - 1) // 2, p) != 1 else 0)


@lru_cache(maxsize=None)
def milgram_signature(q: FiniteQuadraticForm) -> int:
    """Signature invariant mod 8: the Gauss sum over the group is
    sqrt(|A|) * zeta_8^sigma, and it is the product of the blocks' Gauss
    sums, each in closed form (`_block_signature`), read off q's normal
    form.  Raises ArithmeticError on a degenerate form.  Cached per form; a
    raise is not."""
    return sum(_block_signature(*block) for block in _normal_form(q).key) % 8


def value_counts(q: FiniteQuadraticForm) -> tuple[tuple[int, int], ...]:
    """Sorted (N*q mod 2N, count) over the nonzero elements.  The counts
    of an orthogonal sum are its blocks' own value counts convolved under
    + mod 2N, so the cost grows with the blocks' sizes times the number of
    distinct values, not with |A|.  Raises ArithmeticError on a degenerate
    form."""
    n = q.level
    counts = Counter({0: 1})
    for block in _normal_form(q).key:
        b = _block_form(*block)
        s = n // b.level
        own = Counter(b._q_int(x) * s for x in b.elements())
        step: Counter[int] = Counter()
        for v1, c1 in counts.items():
            for v2, c2 in own.items():
                step[(v1 + v2) % (2 * n)] += c1 * c2
        counts = step
    counts[0] -= 1  # zero
    return tuple(sorted((v, c) for v, c in counts.items() if c))


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------


def forms_isomorphic(q1: FiniteQuadraticForm, q2: FiniteQuadraticForm) -> tuple[Vec, ...] | None:
    """An isomorphism of finite quadratic forms, or None when there is none.

    Returns a tuple of images (coordinates in q2) for the generators of
    q1: T2^-1 . T1, with T1 the coordinates of q1's generators in its
    normal basis and T2^-1 the normal basis of q2.  Equal normal forms are
    the complete invariant, so no search runs.  The whole forms decide,
    not their orthogonal summands: a sum can be isomorphic although its
    summands are not (<5/4> + <5/4> = <1/4> + <1/4>).  The images are
    checked again on every generator's q and every pair's b, and that
    check fixes their orders too: the images x_i pair like the e_i, so
    sum c_i x_i = 0 forces sum c_i e_i = 0 (q1 is non-degenerate), the x_i
    generate all of q2 (|A1| = |A2|), and d_i x_i, pairing to 0 with every
    x_j, is 0 (q2 is non-degenerate).  Raises ArithmeticError on a
    degenerate form.
    """
    if q1.group_order != q2.group_order:
        return None
    if group_invariants(q1.orders) != group_invariants(q2.orders):
        return None
    if q1.rank == 0:
        return ()
    n1, n2 = _normal_form(q1), _normal_form(q2)
    if n1.key != n2.key:
        return None
    out = tuple(q2.reduce(vec_mat(row, n2.basis)) for row in n1.coords)
    # equal group invariants give equal levels, so both tables are over N
    bad = _first_bad(mat_mul(mat_mul(out, q2.table), transpose(out)), q1.table, q1.level)
    if bad is not None:
        i, j = bad
        require(i != j, f"the image of generator {i} does not keep its q-value")
        require(False, f"the images of generators {j} and {i} do not keep their pairing")
    return out


# The subgroup enumeration is a test oracle now; the name stays because the
# benchmark (k3bench/spans.py) wraps it, and a call fails loudly.
def isotropic_subgroups(*args, **kwargs):
    raise RuntimeError("isotropic_subgroups has moved to tests/search_oracles.py")


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------


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
    rows = [x[:k] for x in kernel_int(amat)]
    rows += [tuple(q.orders[i] if i == j else 0 for j in range(k)) for i in range(k)]
    return hnf_basis(rows)


def _quotient_structure(sup_rows: Mat, sub_rows: Mat) -> tuple[tuple[int, ...], Mat]:
    """Structure of (row lattice of sup)/(row lattice of sub).

    Returns invariant factor orders (including 1s) and lift rows: row i
    generates the Z/orders[i] factor, expressed in ambient coordinates.
    sup is square and nonsingular: a sub row's coordinates are row.adj/det.
    """
    k = len(sup_rows)
    det, adj = adjugate(sup_rows)
    coords = []
    for row in sub_rows:
        x = vec_mat(row, adj)
        if any(c % det for c in x):
            raise ValueError("sub lattice is not contained in sup lattice")
        coords.append(tuple(c // det for c in x))
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
    table = [
        [q._q_int(lifts[a]) if a == b else q._b_int(lifts[a], lifts[b]) for b in keep]
        for a in keep
    ]
    return FiniteQuadraticForm.from_table([orders[i] for i in keep], table, q.level)


def quotient_form(q: FiniteQuadraticForm, gens: Sequence[Vec]) -> FiniteQuadraticForm:
    """Induced form on H-perp / H for the subgroup H generated by the rows
    `gens`, which must be isotropic: q = 0 on each row and b = 0 on each
    pair, or ArithmeticError (q(x + y) = q(x) + q(y) + 2b(x, y))."""
    require(all(q._q_int(g) == 0 for g in gens)
            and not any(q._b_int(g, h) for g, h in itertools.combinations(gens, 2)),
            "the subgroup is not isotropic")
    perp = _orthogonal_lattice(q, gens)
    k = q.rank
    sub_rows = [list(g) for g in gens]
    sub_rows += [[q.orders[i] if i == j else 0 for j in range(k)] for i in range(k)]
    sub = hnf_basis(sub_rows)
    order = q.group_order // prod(sub[i][i] for i in range(k))
    orders, lifts = _quotient_structure(perp, sub)
    out = _form_on_subquotient(q, orders, lifts)
    require(out.group_order * order * order == q.group_order, "quotient size mismatch")
    return out


@lru_cache(maxsize=None)
def find_u_block(q: FiniteQuadraticForm, m: int) -> tuple[Vec, Vec]:
    """A hyperbolic u(m) pair (x, y) in q: q(x) = q(y) = 0, both of order
    m, and b(x, y) = -1/m.

    The complement A' of u(m) is read off the normal-form key, one
    p^k || m at a time.  At p = 2 a u block at 2^k is dropped; failing
    that, a v at 2^k is, and 4 is added to the value of a w at 2^(k+1), as
    v + w(e) = u + w(e + 4) there (sign walking upward, the mirror of
    `_normal2` move (b)).  At odd p the scale-p^k blocks <a_1>, ...,
    <a_r> need r >= 2: two are dropped and the next, if any, is scaled by
    -a_1*a_2, which divides the determinant by that of u, -1.
    `forms_isomorphic` then maps u(m) + A' onto q, or finds that q has no
    u(m) summand (for r = 2 exactly when -a_1*a_2 is not a square mod p),
    and the pair is the image of u(m)'s generators.  It is not checked
    again here: `forms_isomorphic` has checked that the images keep every
    q-value and pairing of u(m) + A', so x and y are isotropic with
    b(x, y) = -1/m, and that check fixes their orders to m as well (see
    its docstring).  ValueError for m < 2 or when q has no u(m) summand;
    ArithmeticError on a degenerate form.  Cached per (q, m); a raise is
    not."""
    if m < 2:
        raise ValueError(f"u({m}) needs m >= 2")
    blocks = list(_normal_form(q).key)
    for p in _prime_factors(m):
        k = 0
        while m % p**(k + 1) == 0:
            k += 1
        at = [i for i, b in enumerate(blocks) if b[:2] == (p, k)]
        kinds = [blocks[i][2] for i in at]
        up = [i for i, b in enumerate(blocks) if b[:3] == (p, k + 1, "w")]
        if p == 2 and "u" in kinds:
            drop = [at[kinds.index("u")]]
        elif p == 2 and "v" in kinds and up:
            drop = [at[kinds.index("v")]]
            value = blocks[up[0]][3]
            blocks[up[0]] = (p, k + 1, "w", (value + 4) % (4 << k))
        elif p > 2 and len(at) >= 2:
            if len(at) > 2:
                c = -(blocks[at[0]][3] // 2) * (blocks[at[1]][3] // 2)
                blocks[at[2]] = (p, k, "w", c * blocks[at[2]][3] % (2 * p**k))
            drop = at[:2]
        else:
            raise ValueError(f"no u({m}) block found")
        blocks = [b for i, b in enumerate(blocks) if i not in drop]
    images = forms_isomorphic(sum_forms([u_block(m)] + [_block_form(*b) for b in blocks]), q)
    if images is None:
        raise ValueError(f"no u({m}) block found")
    return images[0], images[1]
