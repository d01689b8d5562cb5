"""The finite-form kernels that k3lat used before its Jordan splitting and
normal form, kept outside the package as oracles: the degeneracy test by
the index of the adjoint lattice, the Milgram signature from exact Gauss
sums over the whole group, compared phase by phase in a cyclotomic ring,
the budgeted backtracking search for an isomorphism, which matches
generators to elements of the same order and value, and the search for a
u(m) pair among the isotropic elements of order m.  The last three read
`_walk`, an odometer over the whole group, not the normal form.

`quotient_form` takes the form on H-perp/H for an isotropic subgroup H
given by generator rows alone, a cyclic glue's one word included: H is
L/diag(d)Z^k for the lattice L that those rows span with diag(d)Z^k, so
|H| = |A|/(h_1 ... h_k) for the diagonal h_i of the Hermite normal form
of L.  H-perp comes from an integer kernel, and the quotient's structure
from the Smith form over Z of `rational_oracles.snf_with_transforms`.
The package takes the one quotient it needs, the congruence lemma's, in
closed form.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul
from typing import Iterator, Sequence

from k3lat.forms import (
    FiniteQuadraticForm,
    SearchBudgetExceeded,
    group_invariants,
)
from k3lat.intmat import (
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
    vec_mat,
)
from rational_oracles import snf_with_transforms


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


def walk_u_block(q: FiniteQuadraticForm, m: int) -> tuple[Vec, Vec]:
    """The first hyperbolic u(m) pair of q in itertools.product order:
    two isotropic elements of order m with b = -1/m.  ValueError when there
    is none."""
    (cands,) = _value_classes(q, ((m, 0),))
    target = q.level - q.level // m  # N*(-1/m) mod N
    for x in cands:
        for y in cands:
            if y != x and q._b_int(x, y) == target:
                return x, y
    raise ValueError(f"no u({m}) block found")


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
    d, _, v = snf_with_transforms(coords)
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
