"""Named lattices and the rank-9-family constructors.

The fixed lattices (U, U(n), A-chains, D4, the two E8 rescalings, N, and
the rank-10 models UN = U + N and UE8 = U + E8(-2)) carry the Gram
conventions used throughout: negative-definite blocks have -2 on the
diagonal and +1 on diagram edges.  M_n lattices are index-n glue
overlattices of seeded A-type root sums.  The candidate glue codes are the
cyclic ones, each carried as one glue word y that generates it: per block
size, a multiset of folded glue classes [i] of A_m (Conway-Sloane, SPLAG
ch. 4), so that every orbit of the root-sum symmetries has a listed word.
They are judged on the code by their root count alone, which comes from
the glue words of coset minimum 2.  Only the accepted word is glued, and
the glued lattice is checked again for evenness, rank, length and roots.
The L/Lp/M/Mp families and the rank-9 membership test sit on top, one
return shape each: `family_lattice` gives a lattice and refuses L/Lp with
n >= 3, which have only a genus; `family_genus` gives every family's
genus.  The index-2 families Mp/Lp(d,2) follow the one glue rule of
`overlattice`: they are the congruence lemma's glue at m = 2,
g/2 + x + (d/2)y for the u(2) pair (x, y) of q_W that `find_u_block` gives.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import comb, lcm, prod
from typing import Sequence

from .forms import (
    FiniteQuadraticForm,
    length,
    sum_forms,
    u_block,
)
from .intmat import Record, Vec, adjugate, freeze, require, vec_scale
from .lattice import (
    DiscriminantData,
    IntegralLattice,
    direct_sum,
    discriminant_form,
    discriminant_group,
    from_rows,
    root_count,
)
from .overlattice import (
    GenusDescriptor,
    _glue_one,
    _glue_overlattice,
    _lift_of,
    _rank1_sum_genus,
    genus_equal,
    genus_of,
    genus_lemma_quotient,
)

# Seeded A-type root configurations underlying M_n (block sizes m for
# A_m(-1)), with the frozen rank/length targets the build must reproduce.
MN_ROOT_CONFIG: dict[int, tuple[int, ...]] = {
    2: (1,) * 8,
    3: (2,) * 6,
    4: (1, 1, 3, 3, 3, 3),
    5: (4,) * 4,
    6: (1, 1, 2, 2, 5, 5),
    7: (6, 6, 6),
    8: (1, 3, 7, 7),
}
MN_RANK = {2: 8, 3: 12, 4: 14, 5: 16, 6: 16, 7: 18, 8: 18}
MN_LENGTH = {2: 6, 3: 4, 4: 4, 5: 2, 6: 2, 7: 1, 8: 2}


def _a_gram(m: int) -> tuple[tuple[int, ...], ...]:
    """A_m(-1): chain of m nodes, diagonal -2, edges +1."""
    g = [[0] * m for _ in range(m)]
    for i in range(m):
        g[i][i] = -2
        if i + 1 < m:
            g[i][i + 1] = g[i + 1][i] = 1
    return freeze(g)


def _d4_gram() -> tuple[tuple[int, ...], ...]:
    """D4(-1): central node 2 joined to 1, 3, 4."""
    g = [[0] * 4 for _ in range(4)]
    for i in range(4):
        g[i][i] = -2
    for j in (0, 2, 3):
        g[1][j] = g[j][1] = 1
    return freeze(g)


def _e8_gram(scale: int) -> tuple[tuple[int, ...], ...]:
    """E8(-scale) in the basis with the branch node at position 3:
    e_i.e_{i+1} = scale for i = 1..6, e_3.e_8 = scale, e_i^2 = -2 scale."""
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = -2 * scale
    for i in range(6):
        g[i][i + 1] = g[i + 1][i] = scale
    g[2][7] = g[7][2] = scale
    return freeze(g)


def _n_gram() -> tuple[tuple[int, ...], ...]:
    """N in the basis (N_1+...+N_8)/2, N_1, ..., N_7."""
    g = [[0] * 8 for _ in range(8)]
    g[0][0] = -4
    for i in range(1, 8):
        g[0][i] = g[i][0] = -1
        g[i][i] = -2
    return freeze(g)


_NAME_RE = re.compile(r"^(U|A)\((\d+)\)$")


@lru_cache(maxsize=None)
def named(name: str) -> IntegralLattice:
    """Fixed lattice by display name: U, U(n), A(m), D4, E8(-1), E8(-2), N,
    and the rank-10 models UN = U + N and UE8 = U + E8(-2)."""
    if name == "UN":
        return direct_sum(named("U"), named("N")).relabel("UN")
    if name == "UE8":
        return direct_sum(named("U"), named("E8(-2)")).relabel("UE8")
    if name == "U":
        return from_rows([[0, 1], [1, 0]], "U")
    if name == "D4":
        return IntegralLattice(_d4_gram(), "D4")
    if name == "E8(-1)":
        return IntegralLattice(_e8_gram(1), "E8(-1)")
    if name == "E8(-2)":
        return IntegralLattice(_e8_gram(2), "E8(-2)")
    if name == "N":
        return IntegralLattice(_n_gram(), "N")
    m = _NAME_RE.match(name)
    if m:
        kind, arg = m.group(1), int(m.group(2))
        if arg < 1:
            raise ValueError(f"bad parameter in {name!r}")
        if kind == "U":
            return from_rows([[0, arg], [arg, 0]], name)
        return IntegralLattice(_a_gram(arg), name)
    raise ValueError(f"unknown lattice name {name!r}")


# ---------------------------------------------------------------------------
# M_n from seeded root configurations
# ---------------------------------------------------------------------------


def _block_disc(config: Sequence[int]) -> tuple[IntegralLattice, DiscriminantData]:
    """Root sum of A_m(-1) blocks with one discriminant generator per block.

    The generator of block A_m is the class of the first dual basis vector;
    its lift is the first column of the inverse Gram, padded into root-sum
    coordinates and put over the level.  Blocks are mutually orthogonal, so
    the form is diagonal.
    """
    blocks = [IntegralLattice(_a_gram(m)) for m in config]
    lat = direct_sum(*blocks)
    n = lat.rank
    orders = [b.rank + 1 for b in blocks]
    level = lcm(*orders)
    lifts = []
    qdiag = []
    off = 0
    for b in blocks:
        det, adj = adjugate(b.gram)  # b.gram^-1 = adj / det, det = +-(m + 1)
        lifts.append(tuple(level // det * adj[r - off][0] if off <= r < off + b.rank
                           else 0 for r in range(n)))
        qdiag.append(adj[0][0] * level // det)
        off += b.rank
    k = len(blocks)
    table = [[qdiag[i] if i == j else 0 for j in range(k)] for i in range(k)]
    form = FiniteQuadraticForm.from_table(orders, table, level)
    return lat, DiscriminantData(form, lifts)


def _place(config: Sequence[int], words: Sequence[Sequence[int]]) -> Vec:
    """The glue word whose coordinates in the blocks of the i-th least
    size, in config order, are words[i]."""
    y = [0] * len(config)
    for s, word in zip(sorted(set(config)), words):
        for j, c in zip((j for j, m in enumerate(config) if m == s), word):
            y[j] = c
    return tuple(y)


def _cyclic_glue_codes(config: Sequence[int], q: FiniteQuadraticForm, n: int) -> list[Vec]:
    """The placed fold-words y of order n with q(y) = 0 on the diagonal form
    q of the A_m root sum `config`: per block size, each multiset of folded
    glue classes min(i, m + 1 - i) of A_m (SPLAG ch. 4) placed in the blocks
    of that size.  Each y generates a cyclic isotropic glue group of order
    n, as q(ky) = k^2 q(y).  A flip negates one coordinate and a swap
    permutes the coordinates of equal-size blocks, so folding any generator
    of a cyclic glue group gives a listed word: every orbit of the root-sum
    symmetries on that glue has a listed word."""
    words = (_place(config, parts)
             for parts in product(*(combinations_with_replacement(range((s + 1) // 2 + 1),
                                                                  config.count(s))
                                    for s in sorted(set(config)))))
    return [y for y in words if q.element_order(y) == n and q._q_int(y) == 0]


def _glue_root_count(config: Sequence[int], elements: Sequence[Vec]) -> int:
    """Root count of the overlattice glued onto the A_m root sum by the
    glue code `elements` (SPLAG ch. 4).  The glue class [i] of A_m has
    minimal norm i(m + 1 - i)/(m + 1), reached by binom(m + 1, i) vectors.
    So a glue word x adds prod binom(m_j + 1, x_j) roots when its coset
    minimum sum x_j(m_j + 1 - x_j)/(m_j + 1) is 2, and none otherwise."""
    level = lcm(*(m + 1 for m in config))
    count = sum(m * (m + 1) for m in config)
    for x in elements:
        scaled = sum(i * (m + 1 - i) * (level // (m + 1)) for i, m in zip(x, config))
        if scaled == 2 * level:
            count += prod(comb(m + 1, i) for i, m in zip(x, config))
    return count


@lru_cache(maxsize=None)
def build_Mn(n: int) -> IntegralLattice:
    """The unique index-n glue overlattice of the seeded root sum whose
    rank, length and root count match the frozen tables (2 <= n <= 8).
    Each listed glue word is judged on the code by its root count; the one
    accepted word is glued, and the lattice is checked again for evenness,
    rank, length and roots.  A word with the seeded root count but another
    length is refused by that check."""
    if n not in MN_ROOT_CONFIG:
        raise ValueError("n must be between 2 and 8")
    config = MN_ROOT_CONFIG[n]
    if sum(config) != MN_RANK[n]:
        raise RuntimeError(f"seeded configuration for n={n} has the wrong rank")
    root_sum, disc = _block_disc(config)
    target_roots = sum(m * (m + 1) for m in config)
    # the roots of an orthogonal sum of definite lattices are those of its
    # summands, and root_count counts each distinct A_m once
    require(sum(root_count(named(f"A({m})")) for m in config) == target_roots,
            f"seeded configuration for n={n} has the wrong root count")

    # every orbit of cyclic glue has a listed word, so exactly one accepted
    # word means exactly one accepted orbit
    q = disc.form
    accepted = [y for y in _cyclic_glue_codes(config, q, n)
                if _glue_root_count(config, [q.reduce(vec_scale(y, k)) for k in range(n)])
                == target_roots]
    if not accepted:
        raise RuntimeError(
            f"no valid glue candidate for n={n}: seeded configuration is wrong"
        )
    require(len(accepted) == 1,
            f"ambiguous construction for n={n}: two glue words pass")
    # glue the accepted word and check the judgement on the lattice
    z, _ = _glue_overlattice(root_sum, [_lift_of(disc, accepted[0])], q.level)
    require(z.is_even and z.rank == MN_RANK[n] and length(genus_of(z).disc) == MN_LENGTH[n],
            f"the glue for n={n} is not even of rank {MN_RANK[n]} and length {MN_LENGTH[n]}")
    require(root_count(z) == target_roots,
            f"the glue for n={n} does not have {target_roots} roots")
    return z.relabel(f"M({n})")


@lru_cache(maxsize=None)
def omega_genus(n: int) -> GenusDescriptor:
    """Genus of the rank-matching negative-definite partner of M_n: signature
    (0, rank(M_n)) with discriminant form u(n) + q_{M_n}."""
    mn = build_Mn(n)
    g = GenusDescriptor(
        0, mn.rank, sum_forms([u_block(n), discriminant_form(mn)])
    )
    if n == 2:
        # rank-8 case is a known explicit lattice; cross-check the surrogate
        require(genus_equal(g, genus_of(named("E8(-2)"))),
                "the rank-8 partner genus is not that of E8(-2)")
    return g


# ---------------------------------------------------------------------------
# The L / Lp / M / Mp families
# ---------------------------------------------------------------------------


class FamilyDescriptor(Record):
    """One of the rank-(1 + rank M_n) family classes.

    kind L = <2d> + (negative partner of M_n); Lp = its index-n overlattice;
    kind M = <2d> + M_n; Mp = the index-2 overlattice of M (n = 2 only).
    """

    __slots__ = _repr = ("kind", "d", "n")

    def __init__(self, kind: str, d: int, n: int) -> None:
        self._fill(kind=kind, d=d, n=n)
        if self.kind not in ("L", "Lp", "M", "Mp"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.d < 1:
            raise ValueError("parameter d must be positive")
        if not 2 <= self.n <= 8:
            raise ValueError("n must be between 2 and 8")
        if self.kind == "Mp" and (self.n != 2 or self.d % 2):
            raise ValueError("Mp exists only for n = 2 and even parameter")
        if self.kind == "Lp":
            need = 2 if self.n == 2 else 2 * self.n
            if self.d % need:
                raise ValueError(
                    f"Lp requires the parameter to be 0 mod {need}"
                )

    @property
    def label(self) -> str:
        return f"{self.kind}({self.d},{self.n})"

    @property
    def has_gram(self) -> bool:
        """False for L and Lp with n >= 3: the partner of M_n in them is
        known only by its genus (`omega_genus`)."""
        return self.kind in ("M", "Mp") or self.n == 2


def _scaled_rank1(d: int) -> IntegralLattice:
    return from_rows([[2 * d]], f"<{2 * d}>")


def _primitive_index2_overlattice(
    d: int, w: IntegralLattice, label: str
) -> IntegralLattice:
    """The even index-2 overlattice of <2d> + W in which both summands stay
    primitive: glue g/2 + eps with eps = x + (d/2)y for the u(2) pair
    (x, y) of `find_u_block`, the lemma's glue at m = 2.  eps is nonzero
    and q(eps) = -d/2 mod 2.

    q_W must be 2-elementary with integer values, as q_N and q_E8(-2) are,
    and any other form is refused.  Such a form is a quadratic space over
    F_2, and by Witt's theorem O(q_W) is transitive on the nonzero elements
    of each q-value.  So every such eps gives the same overlattice up to an
    isometry of <2d> + W, and gluing this one loses nothing."""
    if d % 2:
        raise ValueError("index-2 overlattice requires an even parameter")
    qw = discriminant_group(w).form
    # the level is 2, and q is integral on the group when it is on the
    # generators, as 2b is integral
    require(all(o == 2 for o in qw.orders)
            and not any(row[i] % qw.level for i, row in enumerate(qw.table)),
            "the index-2 glue needs a 2-elementary W with integer q-values")
    z, _ = _glue_one(_scaled_rank1(d), (1,), w, 2, d // 2)
    return z.relabel(label)


@lru_cache(maxsize=None)
def family_lattice(f: FamilyDescriptor) -> IntegralLattice:
    """Lattice of a family class; ValueError for a genus-level class (see
    `FamilyDescriptor.has_gram`), whose genus `family_genus` gives."""
    if not f.has_gram:
        raise ValueError(f"{f.label!r} is a genus-level family with no canonical Gram matrix")
    if f.kind == "M":
        return direct_sum(_scaled_rank1(f.d), build_Mn(f.n)).relabel(f.label)
    if f.kind == "Mp":
        return _primitive_index2_overlattice(f.d, named("N"), f.label)
    if f.kind == "L":
        return direct_sum(_scaled_rank1(f.d), named("E8(-2)")).relabel(f.label)
    return _primitive_index2_overlattice(f.d, named("E8(-2)"), f.label)


def family_genus(f: FamilyDescriptor) -> GenusDescriptor:
    """Genus of any family class.  A genus-level class takes the genus of
    the partner of M_n: <2d> plus it for L, and its lemma quotient for Lp,
    whose form is <1/2d> plus the complement of u(n) in q_Omega
    (`genus_lemma_quotient`)."""
    if f.has_gram:
        return genus_of(family_lattice(f))
    og = omega_genus(f.n)
    if f.kind == "L":
        return _rank1_sum_genus(f.d, og)
    return genus_lemma_quotient(f.d, f.n, og)


# ---------------------------------------------------------------------------
# Membership of a rank-9 lattice in the two geometric families
# ---------------------------------------------------------------------------


class MembershipFlags(Record):
    __slots__ = _repr = ("covers_K3", "covered_by_K3", "matches")

    def __init__(self, covers_K3: bool, covered_by_K3: bool,
                 matches: tuple[FamilyDescriptor, ...]) -> None:
        self._fill(covers_K3=covers_K3, covered_by_K3=covered_by_K3, matches=matches)


def membership_classification(ns: IntegralLattice) -> MembershipFlags:
    """Match a rank-9 even hyperbolic lattice against the four n=2 family
    classes by genus.  covers_K3: the lattice carries the rank-8 partner
    primitively (kinds L/Lp); covered_by_K3: it carries M_2 = N (kinds
    M/Mp).  Both flags hold exactly for the shared Lp = M classes."""
    if ns.rank != 9 or not ns.is_even or ns.signature != (1, 8):
        raise ValueError("expected an even hyperbolic lattice of rank 9")
    det = abs(ns.det)
    g = genus_of(ns)
    candidates = []
    if det % 512 == 0:
        candidates.append(FamilyDescriptor("L", det // 512, 2))
    if det % 128 == 0:
        d = det // 128
        if d % 2 == 0:
            candidates.append(FamilyDescriptor("Lp", d, 2))
        candidates.append(FamilyDescriptor("M", d, 2))
    if det % 32 == 0 and (det // 32) % 2 == 0:
        candidates.append(FamilyDescriptor("Mp", det // 32, 2))
    matches = tuple(
        f for f in candidates if genus_equal(g, family_genus(f))
    )
    if not matches:
        raise ValueError(
            "lattice does not belong to any of the four rank-9 classes"
        )
    covers = any(f.kind in ("L", "Lp") for f in matches)
    covered = any(f.kind in ("M", "Mp") for f in matches)
    return MembershipFlags(covers, covered, matches)


# ---------------------------------------------------------------------------
# Display-name resolution (CLI surface)
# ---------------------------------------------------------------------------

_FAMILY_RE = re.compile(r"^(L|Lp|M|Mp)\((\d+),(\d+)\)$")
_MN_RE = re.compile(r"^M\((\d+)\)$")


def parse_family(text: str) -> FamilyDescriptor | None:
    """The family class a display name like Lp(4,2) names, else None."""
    m = _FAMILY_RE.match(text)
    return FamilyDescriptor(m.group(1), int(m.group(2)), int(m.group(3))) if m else None


def resolve_name(text: str) -> IntegralLattice:
    """Lattice for a display name: fixed names, M(n), or families like
    Lp(4,2).  A genus-level family raises ValueError, as in `family_lattice`."""
    m = _MN_RE.match(text)
    if m:
        return build_Mn(int(m.group(1)))
    f = parse_family(text)
    return named(text) if f is None else family_lattice(f)
