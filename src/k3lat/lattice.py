"""Integral lattices: even bilinear forms over Z with exact arithmetic.

A lattice is stored as an integer Gram matrix G; a vector is an integer
coordinate tuple of length `rank` (any other length raises ValueError), and
the pairing of v, w is v * G * w^T.  The Gram matrix of basis rows B is the
matrix product B * G * B^T, so every change of basis, embedding check and
isometry check is one `gram_in_basis`.  A lattice basis is always rows:
row i is the i-th basis vector in ambient coordinates, for kernels,
saturations, complements and the image of an `Embedding`.  Operators act
on coordinate columns (`IsometryAction`: x -> M x).  The
generator lifts of a discriminant group are integer rows over the level of
its form, one denominator for all of them.  A Gram's determinant and
signature come from one symmetric elimination (`intmat.signature`),
cached per Gram; an orthogonal sum laid out by `direct_sum` is first
split into its diagonal blocks (`diagonal_blocks`), whose cached results
multiply and add.  All computations are exact (no floating point).
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm, prod
from typing import Sequence

from .forms import FiniteQuadraticForm
from .intmat import (
    Mat,
    Record,
    Vec,
    det_int,
    diagonal_blocks,
    dot,
    fp_enumerate,
    freeze,
    hnf_basis,
    hnf_row,
    identity,
    inv_unimodular,
    kernel_int,
    local_snf,
    mat_mul,
    mat_vec,
    prime_factors,
    require,
    signature,
    transpose,
    vec_neg,
)


class IntegralLattice(Record):
    """Free Z-module with an integer-valued symmetric bilinear form.  The
    Gram matrix is stored as a tuple of tuples; `label` is left out of `==`
    and the hash."""

    __slots__ = _repr = ("gram", "label")

    def __init__(self, gram: Sequence[Sequence[int]], label: str | None = None) -> None:
        g = freeze(gram)
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "label", label)
        # the transpose is the Gram itself exactly when it is square and
        # symmetric
        if tuple(zip(*g)) != g:
            n = len(g)
            raise ValueError("Gram matrix must be square" if any(len(row) != n for row in g)
                             else "Gram matrix must be symmetric")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.gram == other.gram
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.gram,))

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def det(self) -> int:
        return _invariants_cached(self.gram)[0]

    @property
    def signature(self) -> tuple[int, int]:
        """(positive, negative) inertia indices of the form."""
        _, pos, neg = _invariants_cached(self.gram)
        return pos, neg

    @property
    def is_even(self) -> bool:
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def norm(self, v: Sequence[int]) -> int:
        return self.pairing(v, v)

    def pairing(self, v: Sequence[int], w: Sequence[int]) -> int:
        _check_lengths(self, (v, w))
        return dot(v, mat_vec(self.gram, w))

    def relabel(self, label: str | None) -> "IntegralLattice":
        return IntegralLattice(self.gram, label)


@lru_cache(maxsize=None)
def _invariants_cached(gram: Mat) -> tuple[int, int, int]:
    """(det, positive, negative inertia index) of a Gram from one symmetric
    elimination; over its diagonal blocks the dets multiply and the indices
    add, each block cached."""
    blocks = diagonal_blocks(gram)
    if len(blocks) > 1:
        dets, pos, neg = zip(*map(_invariants_cached, blocks))
        return prod(dets), sum(pos), sum(neg)
    pos, neg, _, det = signature(gram)
    return det, pos, neg


def from_rows(
    gram_rows: Sequence[Sequence[int]], label: str | None = None
) -> IntegralLattice:
    return IntegralLattice(gram_rows, label)


def direct_sum(*parts: IntegralLattice) -> IntegralLattice:
    n = sum(p.rank for p in parts)
    g = [[0] * n for _ in range(n)]
    off = 0
    for p in parts:
        r = p.rank
        for i in range(r):
            for j in range(r):
                g[off + i][off + j] = p.gram[i][j]
        off += r
    return IntegralLattice(g)


def _check_lengths(lat: IntegralLattice, vectors: Sequence[Sequence[int]]) -> None:
    n = len(lat.gram)
    for v in vectors:
        if len(v) != n:
            raise ValueError(f"coordinate vectors must have length {n}, the rank")


def gram_in_basis(lat: IntegralLattice, rows: Sequence[Sequence[int]]) -> Mat:
    """Gram matrix B * G * B^T of the coordinate rows B inside the lattice."""
    _check_lengths(lat, rows)
    return tuple(
        tuple(dot(bg, w) for w in rows) for bg in mat_mul(rows, lat.gram)
    )


def sublattice(lat: IntegralLattice, rows: Sequence[Sequence[int]]) -> IntegralLattice:
    return IntegralLattice(gram_in_basis(lat, rows))


# ---------------------------------------------------------------------------
# Embeddings and isometries
# ---------------------------------------------------------------------------


class Embedding(Record):
    """Sublattice of a host: row j of `vectors` is the image of the j-th
    basis vector of `sub` in host coordinates."""

    __slots__ = _repr = ("host", "sub", "vectors")

    def __init__(self, host: IntegralLattice, sub: IntegralLattice, vectors: Mat) -> None:
        self._fill(host=host, sub=sub, vectors=freeze(vectors))
        n, k = self.host.rank, self.sub.rank
        if len(self.vectors) != k or any(len(r) != n for r in self.vectors):
            raise ValueError("embedding rows have the wrong shape")
        if gram_in_basis(self.host, self.vectors) != self.sub.gram:
            raise ValueError("embedding does not transport the form")
        # A nonsingular transported Gram already proves the rows
        # independent; only a degenerate one needs the rank.
        if k and self.sub.det == 0 and len(hnf_basis(self.vectors)) != k:
            raise ValueError("embedding rows are dependent")


def embedding_of(
    host: IntegralLattice, vectors: Sequence[Sequence[int]]
) -> Embedding:
    """Embedding of the abstract lattice spanned by the given coordinate
    vectors (one vector per row)."""
    rows = freeze(vectors)
    return Embedding(host, sublattice(host, rows), rows)


class IsometryAction(Record):
    """Self-isometry acting on coordinate columns: x -> matrix @ x.  `label`
    is left out of `==` and the hash."""

    __slots__ = _repr = ("lattice", "matrix", "label")

    def __init__(self, lattice: IntegralLattice, matrix: Mat, label: str | None = None) -> None:
        self._fill(lattice=lattice, matrix=freeze(matrix), label=label)
        lat = self.lattice
        if gram_in_basis(lat, transpose(self.matrix)) != lat.gram:
            raise ValueError("matrix does not preserve the form")
        if det_int(self.matrix) not in (1, -1):
            raise ValueError("matrix is not invertible over Z")

    def _key(self) -> tuple:
        return self.lattice, self.matrix

    def apply(self, v: Sequence[int]) -> Vec:
        _check_lengths(self.lattice, (v,))
        return mat_vec(self.matrix, v)

    @property
    def is_involution(self) -> bool:
        return mat_mul(self.matrix, self.matrix) == identity(self.lattice.rank)

    def compose(self, other: "IsometryAction") -> "IsometryAction":
        """Action applying `other` first, then self."""
        if self.lattice != other.lattice:
            raise ValueError("actions live on different lattices")
        return IsometryAction(self.lattice, mat_mul(self.matrix, other.matrix))


# ---------------------------------------------------------------------------
# Discriminant group and form
# ---------------------------------------------------------------------------


class DiscriminantData(Record):
    """Discriminant group L*/L with generator lifts.

    `form` lives on p-primary generators g_1, ..., g_k, the primes p | det
    ascending and, within one p, the orders p^e ascending; `lifts` holds
    integer rows over N = `form.level`: row i over N is a coordinate
    vector representing g_i inside L*, with every entry in [0, N).
    `forms.group_invariants` reads the invariant factors off the orders.
    """

    __slots__ = _repr = ("form", "lifts")

    def __init__(self, form: FiniteQuadraticForm, lifts: Mat) -> None:
        self._fill(form=form, lifts=freeze(lifts))


def discriminant_group(lat: IntegralLattice) -> DiscriminantData:
    """Structure of L*/L, computed once per Gram matrix (lattices with equal
    Grams share one result).  ValueError if L is odd, where q is not
    defined on L*/L, or degenerate (det 0)."""
    if not lat.is_even:
        raise ValueError("discriminant form requires an even lattice")
    return _discriminant_cached(lat.gram)


@lru_cache(maxsize=None)
def _discriminant_cached(gram: Mat) -> DiscriminantData:
    """L*/L of a non-degenerate even Gram G from its p-local Smith forms:
    for each p | det with k = v_p(det), the columns c of
    `local_snf(G, p, k)` whose orders d > 1 must multiply to p^k and must
    have G c = 0 mod d, so that the lift c/d lies in L*.

    Those lifts x_i = c_i/d_i give a map phi, e_i -> x_i, from the form F
    on the product of the Z/d_i that their table describes into L*/L,
    keeping q and b (d_i x_i = c_i lies in L, and reducing c_i mod d_i
    moves x_i by a vector of L, which leaves q mod 2 and b mod 1 as they
    are on an even lattice).  The orders multiply to |det| = |L*/L|, so
    phi is an isomorphism once it is onto, as V invertible mod p makes
    it, or one-to-one: phi(c) = 0 gives b(c, e_j) = 0 for every j, so
    c = 0 when F is non-degenerate, which the normal form that `genus_of`
    reads checks.  Cached per Gram."""
    det = abs(_invariants_cached(gram)[0])
    if not det:
        raise ValueError("discriminant group requires a non-degenerate form")
    orders: list[int] = []
    cols: list[Vec] = []
    for p in prime_factors(det):
        k = 0
        while det % p**(k + 1) == 0:
            k += 1
        part = local_snf(gram, p, k)
        require(prod(part[0]) == p**k, f"the {p}-part of L*/L does not have order {p}^{k}")
        for o, c in zip(*part):
            if o > 1:
                require(not any(x % o for x in mat_vec(gram, c)),
                        f"a lift of the {p}-part of L*/L is not in L*")
                orders.append(o)
                cols.append(c)
    # over N = lcm(d_i), x_i is (N/d_i) (c_i mod d_i), entries in [0, N);
    # N^2 q and N^2 b on the lifts are the Gram of those rows
    level = lcm(*orders)
    lifts = tuple(tuple(level // o * (x % o) for x in c) for o, c in zip(orders, cols))
    form = FiniteQuadraticForm.from_table(
        orders, gram_in_basis(IntegralLattice(gram), lifts), level * level)
    return DiscriminantData(form, lifts)


def discriminant_form(lat: IntegralLattice) -> FiniteQuadraticForm:
    return discriminant_group(lat).form


# ---------------------------------------------------------------------------
# Saturation, complements, radicals
# ---------------------------------------------------------------------------


def _saturation_rows(rows: Sequence[Sequence[int]]) -> Mat:
    """Basis (HNF rows) of (span_Q of rows) intersected with Z^n."""
    if not rows:
        return ()
    # the vectors orthogonal to every x with rows @ x = 0; all of Z^n when
    # there is no such x
    ker = kernel_int(rows)
    return hnf_basis(kernel_int(ker)) if ker else identity(len(rows[0]))


def saturation(emb: Embedding) -> Embedding:
    """Smallest primitive sublattice of the host containing the image."""
    return embedding_of(emb.host, _saturation_rows(emb.vectors))


def is_primitive(emb: Embedding) -> bool:
    """True when the image is saturated (host/image is torsion-free)."""
    return hnf_basis(emb.vectors) == _saturation_rows(emb.vectors)


def _complement_rows(
    lat: IntegralLattice, rows: Sequence[Sequence[int]]
) -> Mat:
    if not rows:
        return identity(lat.rank)
    return hnf_basis(kernel_int(mat_mul(rows, lat.gram)))


def orthogonal_complement(emb: Embedding) -> Embedding:
    """Embedding of {v in host : v . image = 0}; always primitive, and
    degenerate exactly when the complement meets the image (isotropic
    directions)."""
    return embedding_of(emb.host, _complement_rows(emb.host, emb.vectors))


def radical(lat: IntegralLattice) -> Mat:
    """Basis rows of the kernel of the bilinear form."""
    return _complement_rows(lat, identity(lat.rank))


def quotient_by_radical(lat: IntegralLattice) -> tuple[IntegralLattice, Mat]:
    """Non-degenerate quotient L / rad(L) and coordinate rows of the
    complement basis used to present it."""
    rad = radical(lat)
    n = lat.rank
    if not rad:
        return lat, identity(n)
    # rad is saturated, so u @ rad^T = [I; 0] and rad is the first r rows
    # of (u^T)^-1; the rest descend to a basis of the quotient
    _, u = hnf_row(transpose(rad))
    vi = inv_unimodular(transpose(u))
    comp = tuple(vi[i] for i in range(len(rad), n))
    return sublattice(lat, comp), freeze(comp)


# ---------------------------------------------------------------------------
# Short vectors (definite lattices)
# ---------------------------------------------------------------------------


def _definite_sign(lat: IntegralLattice) -> int:
    pos, neg = lat.signature
    if pos + neg < lat.rank:
        raise ValueError("short vectors require a non-degenerate lattice")
    if neg == 0:
        return 1
    if pos == 0:
        return -1
    raise ValueError("short vectors require a definite lattice")


def short_vectors(lat: IntegralLattice, norm: int) -> list[Vec]:
    """Sign representatives of the vectors with |v.v| = norm, sorted.

    One vector per pair {v, -v} (the lexicographically larger).  Only
    definite lattices are supported.
    """
    g = lat.gram if _definite_sign(lat) > 0 else freeze(map(vec_neg, lat.gram))
    # fp_enumerate gives one vector of each pair; keep the larger one
    return sorted(max(vec, vec_neg(vec)) for vec in fp_enumerate(g, norm))


@lru_cache(maxsize=None)
def root_count(lat: IntegralLattice) -> int:
    """Number of vectors of squared length +-2, counting both signs.
    Cached by Gram, so a lattice met again is not enumerated again."""
    return 2 * len(short_vectors(lat, 2))


# The definite isometry search is a test oracle now; the name stays because
# the benchmark (k3bench/spans.py) wraps it, and a call fails loudly.
def is_isometric_definite(*args, **kwargs):
    raise RuntimeError("is_isometric_definite has moved to tests/search_oracles.py")


# ---------------------------------------------------------------------------
# Involutions
# ---------------------------------------------------------------------------


def invariant_split(g: IsometryAction) -> tuple[Embedding, Embedding]:
    """Fixed and anti-invariant primitive sublattices of an involution."""
    if not g.is_involution:
        raise ValueError("action is not an involution")
    lat = g.lattice
    n = lat.rank
    out = []
    for sign in (1, -1):
        a = tuple(
            tuple(g.matrix[i][j] - (sign if i == j else 0) for j in range(n))
            for i in range(n)
        )
        # rows x with g x = x (sign=1) or g x = -x (sign=-1)
        out.append(embedding_of(lat, hnf_basis(kernel_int(a))))
    return out[0], out[1]
