"""The finite-form kernels that k3lat used before its Jordan splitting and
normal form, kept outside the package as oracles: the degeneracy test by
the index of the adjoint lattice, the Milgram signature from exact Gauss
sums over the whole group, compared phase by phase in a cyclotomic ring,
and the budgeted backtracking search for an isomorphism, which matches
generators to elements of the same order and value.  The last two read the
package's walk over the group, not its normal form.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from operator import mul
from typing import Sequence

from k3lat.forms import (
    FiniteQuadraticForm,
    SearchBudgetExceeded,
    _value_classes,
    _value_multiset,
    _walk,
    group_invariants,
)
from k3lat.intmat import Vec, hnf_basis, mat_vec, require


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
def gauss_milgram_signature(q: FiniteQuadraticForm) -> int:
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


def backtrack_isomorphism(
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
    if gauss_milgram_signature(q1) != gauss_milgram_signature(q2):
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
