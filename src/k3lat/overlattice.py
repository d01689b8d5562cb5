"""Even overlattices from glue groups, and genus-level machinery.

An even overlattice of L of index m corresponds to an isotropic subgroup H
of the discriminant form of L with |H| = m: the overlattice is generated by
L together with dual lifts of H.  `_glue_one` is the one single-vector
glue: the index-m overlattice of head + W along head/m + eps, eps of
order m in the discriminant form of W, with both summands primitive
(Nikulin 1979, 1.4).  The congruence lemma, the Mp/Lp(d,2) families and
the primed rank-10 models are all built by it.  Genus data (signature
plus discriminant form) suffices to identify many indefinite lattices up
to isometry via the rank-versus-length criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Sequence

from .forms import (
    FiniteQuadraticForm,
    cyclic_subgroup,
    forms_isomorphic,
    isotropic_subgroups,
    length,
    milgram_signature,
    quotient_form,
)
from .intmat import Mat, Vec, freeze, hnf_basis, require, transpose, vec_mat, vec_scale
from .lattice import (
    DiscriminantData,
    Embedding,
    IntegralLattice,
    direct_sum,
    discriminant_group,
    from_rows,
    gram_in_basis,
    is_primitive,
)


def _lift_of(disc: DiscriminantData, coords: Sequence[int]) -> Vec:
    """Ambient row, over `disc.form.level`, of a discriminant group element."""
    return vec_mat(coords, disc.lifts)


def _congruence_quotient(d: int, m: int) -> int:
    """k with d = 2km, the congruence d = 0 mod 2m that the glue needs."""
    if d <= 0 or m <= 0:
        raise ValueError("d and m must be positive")
    if d % (2 * m):
        raise ValueError(f"congruence violated: {d} is not 0 mod {2 * m}")
    return d // (2 * m)


def _u_pair(
    q: FiniteQuadraticForm,
    e1: Sequence[int],
    e2: Sequence[int],
    m: int,
    orthogonal_to: Sequence[int] | None = None,
) -> tuple[Vec, Vec]:
    """The u(m) pair (e1, e2) of q, with e2 negated if need be so that
    b(e1, e2) = -1/m: both of order m with q = 0 (and, if given, orthogonal
    to `orthogonal_to`)."""
    e1, e2 = tuple(e1), tuple(e2)
    for e in (e1, e2):
        if q.element_order(e) != m or q._q_int(e) != 0:
            raise ValueError("u(m) block not found at the supplied coordinates")
        if orthogonal_to is not None and q._b_int(orthogonal_to, e) != 0:
            raise ValueError("u(m) block is not orthogonal to the (1/2d) part")
    b, unit = q._b_int(e1, e2), q.level // m
    if b == unit % q.level:
        e2 = tuple(-c for c in e2)
    elif b != -unit % q.level:
        raise ValueError("u(m) block not found at the supplied coordinates")
    return e1, e2


def _scaled_inverse(b: Mat, den: int) -> Mat:
    """den * b^-1 for a nonsingular upper-triangular integer matrix b, by
    back-substitution; ArithmeticError unless it is integral."""
    n = len(b)
    out = []
    for i in range(n):
        # row i of X with X b = den * I: entry j is fixed by those before
        # it, so the first non-integral entry shows as an inexact division
        row = [0] * n
        for j in range(i, n):
            row[j], r = divmod(den * (i == j) - sum(row[k] * b[k][j] for k in range(i, j)), b[j][j])
            if r:
                raise ArithmeticError("original lattice does not embed")
        out.append(tuple(row))
    return tuple(out)


def _glue_overlattice(
    lat: IntegralLattice,
    glue: Sequence[Sequence[int]],
    den: int,
) -> tuple[IntegralLattice, Embedding]:
    """Lattice generated by L and the glue vectors row / den for the
    integer rows of `glue`.  Any common denominator gives the same lattice
    and embedding: scaling rows and den by c scales the HNF basis by c."""
    n = lat.rank
    rows = [[den if i == j else 0 for j in range(n)] for i in range(n)]
    rows += glue
    basis = hnf_basis(rows)
    scaled = gram_in_basis(lat, basis)
    den2 = den * den
    if any(x % den2 for row in scaled for x in row):
        raise ArithmeticError("glue lift does not pair integrally")
    z = IntegralLattice(freeze(tuple(x // den2 for x in row) for row in scaled))
    # basis vector i of L is den * e_i = y @ basis, so y is row i of
    # den * basis^-1, and basis is upper triangular (full-rank HNF): the
    # embedding columns
    emb = _scaled_inverse(basis, den)
    return z, Embedding(z, lat, transpose(emb))


def overlattices(
    lat: IntegralLattice, index: int
) -> list[tuple[IntegralLattice, Embedding]]:
    """All even overlattices of the given index, with the embedding of L.

    One overlattice per isotropic subgroup of order `index` in the
    discriminant form; candidates that fail evenness are excluded silently.
    The list is empty when no isotropic subgroup of that order exists.
    """
    if index < 1:
        raise ValueError(f"overlattice index must be positive, got {index}")
    if not lat.is_even:
        raise ValueError("overlattice construction requires an even lattice")
    disc = discriminant_group(lat)
    out = []
    for h in isotropic_subgroups(disc.form, index):
        z, emb = _glue_overlattice(lat, [_lift_of(disc, g) for g in h.gens], disc.form.level)
        if not z.is_even:
            continue
        require(z.det * index * index == lat.det,
                "overlattice determinant does not match its index")
        out.append((z, emb))
    return out


def _glue_one(
    head: IntegralLattice,
    head_coords: Sequence[int],
    w: IntegralLattice,
    eps: Sequence[int],
    m: int,
) -> tuple[IntegralLattice, Embedding]:
    """Index-m even overlattice of head + W glued along head_coords/m + eps,
    with eps given by its coordinates in the discriminant group of W.

    The glue row is over lcm(m, N), N the level of W.  It must have order
    dividing m and be isotropic, and the result must be even of index m
    with W primitive in it (Nikulin 1979, 1.4).  Returns the overlattice
    and the embedding of head + W.
    """
    v = direct_sum(head, w)
    wdisc = discriminant_group(w)
    level = wdisc.form.level
    den = lcm(m, level)
    row = vec_scale(head_coords, den // m) + vec_scale(_lift_of(wdisc, eps), den // level)
    # isotropic of order dividing m: m*glue is integral and its norm lies
    # in 2Z
    require(all(m * c % den == 0 for c in row), "glue order does not divide m")
    require(v.norm(row) % (2 * den * den) == 0, "glue is not isotropic")
    z, emb = _glue_overlattice(v, [row], den)
    if not z.is_even:
        raise ArithmeticError("glue produced an odd lattice")
    require(z.det * m * m == v.det, "glue changed the determinant by the wrong index")
    # W is primitively embedded: its image spans a saturated sublattice
    w_emb = Embedding(z, w, transpose(emb.vectors[head.rank:]))
    require(is_primitive(w_emb), "W is not primitively embedded")
    return z, emb


def lemma_overlattice(
    d: int,
    m: int,
    w: IntegralLattice,
    block: Sequence[Sequence[int]],
) -> tuple[IntegralLattice, Embedding]:
    """Index-m even overlattice of <2d> + W from the congruence d = 0 mod 2m,
    with the embedding of W.

    `block` gives the coordinates (in the discriminant group of W) of a
    hyperbolic pair spanning a u(m) block: two elements of order m with
    q = 0 and mutual pairing -1/m.  Writing 2d = 4km, the glue group is
    generated by (4k)h + e1 + (2k)e2 where h generates the dual of <2d>,
    and (4k)h is the basis vector over m.  For m = 1, eps = 0 and the
    glue gives the direct sum itself (`block` is not read).
    """
    k = _congruence_quotient(d, m)
    qw = discriminant_group(w).form
    eps = (0,) * qw.rank
    if m > 1:
        if len(block) != 2:
            raise ValueError("block must supply two generator coordinate rows")
        e1, e2 = _u_pair(qw, block[0], block[1], m)
        eps = tuple(a + 2 * k * b for a, b in zip(e1, e2))
    z, emb = _glue_one(from_rows([[2 * d]]), (1,), w, eps, m)
    return z, Embedding(z, w, transpose(emb.vectors[1:]))


# ---------------------------------------------------------------------------
# Genus descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenusDescriptor:
    """Signature pair plus discriminant form, the genus data of an even
    lattice."""

    sig_plus: int
    sig_minus: int
    disc: FiniteQuadraticForm

    def __post_init__(self) -> None:
        if self.sig_plus < 0 or self.sig_minus < 0:
            raise ValueError("signature entries must be non-negative")
        if self.rank < length(self.disc):
            raise ValueError("rank is smaller than the length of the form")
        if milgram_signature(self.disc) != (self.sig_plus - self.sig_minus) % 8:
            raise ValueError("signature does not match the form invariant mod 8")

    @property
    def rank(self) -> int:
        return self.sig_plus + self.sig_minus

    @property
    def is_indefinite(self) -> bool:
        return self.sig_plus >= 1 and self.sig_minus >= 1


def genus_of(lat: IntegralLattice) -> GenusDescriptor:
    """Genus of an even lattice; `discriminant_group` rejects a degenerate one."""
    if not lat.is_even:
        raise ValueError("genus descriptor is defined here for even lattices")
    pos, neg = lat.signature
    return GenusDescriptor(pos, neg, discriminant_group(lat).form)


def genus_equal(
    g1: GenusDescriptor, g2: GenusDescriptor, budget: int = 10**7
) -> bool:
    if (g1.sig_plus, g1.sig_minus) != (g2.sig_plus, g2.sig_minus):
        return False
    return forms_isomorphic(g1.disc, g2.disc, budget=budget) is not None


def unique_in_genus_by_length(g: GenusDescriptor) -> bool:
    """Sufficient uniqueness criterion: indefinite and rank >= 2 + length.

    False certifies nothing (the criterion is inconclusive, not a
    non-uniqueness statement).
    """
    return g.is_indefinite and g.rank >= 2 + length(g.disc)


def genus_lemma_quotient(
    gv: GenusDescriptor,
    block: Sequence[Sequence[int]],
    d: int,
    m: int,
) -> GenusDescriptor:
    """Form-level version of the congruence overlattice: quotient the genus.

    `block` designates generators inside gv.disc: (h,) for m = 1, or
    (h, e1, e2) with h the order-2d element of q-value 1/(2d) and (e1, e2)
    a u(m) pair orthogonal to h.  Returns the genus with the glue group
    quotiented out of the discriminant form; the signature is unchanged.
    """
    k = _congruence_quotient(d, m)
    q = gv.disc
    if not block:
        raise ValueError("block must designate at least the (1/2d) generator")
    h = tuple(block[0])
    if q.element_order(h) != 2 * d or q._q_int(h) != q.level // (2 * d):
        raise ValueError("designated generator does not carry (1/2d)")
    if m == 1:
        return gv
    if len(block) != 3:
        raise ValueError("block must be (h, e1, e2) when m > 1")
    e1, e2 = _u_pair(q, block[1], block[2], m, orthogonal_to=h)
    glue = q.reduce(
        tuple(4 * k * hc + a + 2 * k * b for hc, a, b in zip(h, e1, e2))
    )
    require(q._q_int(glue) == 0 and q.element_order(glue) == m,
            "glue is not isotropic of order m")
    return GenusDescriptor(gv.sig_plus, gv.sig_minus, quotient_form(q, cyclic_subgroup(q, glue)))
