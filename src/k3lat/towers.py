"""Degree-2 isogeny chains between the rank-9 families.

A family with an eight-fiber double cover sits in a chain whose parameter
doubles with every cover and halves with every quotient: L(e,2) descends
to Mp(2e,2), Lp(2e,2) descends to M(e,2), and the primed family with even
parameter is a second name for the unprimed one of the same parameter.
This module walks those chains, carries the rank-13 transcendental
complement alongside (certifying that its discriminant form is minus the
NS form at every node), cross-checks the twisted-partner description of
the degree-4 jump, and evaluates the numeric invariants of the associated
Galois covers.

Why every storey, not only the ones checked: storey m over d has
T = U + U + N + <-2e> and NS = M(e,2) = <2e> + M_2 with e = 2^m d, and
M_2 has the Gram of N.  The discriminant form of an orthogonal sum is the
sum of its blocks' forms (Nikulin 1979, section 1); U is unimodular and
adds nothing, <-2e> is -<2e>, and q_N = -q_N (its diagonal is 2 mod 4 and
its pairings are 1/2).  So q_T = q_N + <-1/2e> = -(<1/2e> + q_N) = -q_NS,
the two blocks swapped, for every e; rank 13 and signature (2,11) do not
depend on e.  `TowerNode` checks exactly these finite facts.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from .catalog import FamilyDescriptor, family_genus, family_lattice, named
from .forms import negate
from .intmat import Record, diagonal_blocks, freeze, hnf_basis, mat_mul
from .lattice import (
    IntegralLattice,
    direct_sum,
    embedding_of,
    from_rows,
    orthogonal_complement,
    quotient_by_radical,
    radical,
)
from .overlattice import genus_equal, genus_of
from .report import check

__all__ = [
    "TowerNode",
    "quotient_step",
    "cover_step",
    "tower",
    "tower_related",
    "mukai_twisted_check",
    "GaloisInvariants",
    "galois_cover_invariants",
]


# ---------------------------------------------------------------------------
# Quotient / cover steps on family descriptors
# ---------------------------------------------------------------------------


def _chain_descriptor(f: FamilyDescriptor, kinds: tuple[str, ...]) -> None:
    if f.n != 2:
        raise ValueError("only the n = 2 families form quotient chains")
    if f.kind not in kinds:
        raise ValueError(
            f"{f.label} admits no step in this direction "
            f"(expected kind in {kinds})"
        )


def quotient_step(f: FamilyDescriptor) -> FamilyDescriptor:
    """Family of the quotient surface: L(e,2) -> Mp(2e,2), Lp(2e,2) -> M(e,2).

    M and Mp descriptors are rejected: nothing guarantees an involution on
    a surface that merely contains the eight-fiber frame."""
    _chain_descriptor(f, ("L", "Lp"))
    if f.kind == "L":
        return FamilyDescriptor("Mp", 2 * f.d, 2)
    return FamilyDescriptor("M", f.d // 2, 2)


def cover_step(f: FamilyDescriptor) -> FamilyDescriptor:
    """Family of the double cover: M(e,2) -> Lp(2e,2), Mp(2e,2) -> L(e,2).

    Exact inverse of quotient_step on its whole domain."""
    _chain_descriptor(f, ("M", "Mp"))
    if f.kind == "M":
        return FamilyDescriptor("Lp", 2 * f.d, 2)
    return FamilyDescriptor("L", f.d // 2, 2)


# ---------------------------------------------------------------------------
# Towers of covers with their transcendental complements
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _storey_free_facts() -> bool:
    """The facts of the block witness that no storey changes, checked once:
    U is unimodular, and the table of q_N is its own negative."""
    q_n = genus_of(named("N")).disc
    return abs(named("U").det) == 1 and negate(q_n).table == q_n.table


@lru_cache(maxsize=None)
def _minus_ns_form(ns: FamilyDescriptor, t: IntegralLattice) -> bool:
    """Whether q_t is minus the discriminant form of ns, by the block
    witness: ns is M(e,2), whose Gram splits into <2e> and N, t splits into
    U, U, N and <-2e> (-<2e> entry for entry), and `_storey_free_facts`
    holds.  No form is normalised and no isomorphism is searched.  Only
    the layout `tower` builds is certified; a storey in another basis is
    refused, never wrongly accepted.  Cached, since towers over d and 2d
    share all storeys but one."""
    if ns.kind != "M" or ns.n != 2:
        return False
    u, n, two_e = named("U").gram, named("N").gram, 2 * ns.d
    return (diagonal_blocks(t.gram) == (u, u, n, ((-two_e,),))
            and diagonal_blocks(family_lattice(ns).gram) == (((two_e,),), n)
            and _storey_free_facts())


class TowerNode(Record):
    """One storey of a cover tower: the NS family, the transcendental
    lattice, and the storey index (isogeny degree 2^depth down to the
    base).  Construction certifies rank 13, signature (2,11), and that
    the transcendental discriminant form is minus the NS one, from the
    Gram blocks: ns = M(e,2) = <2e> + N and t = U + U + N + <-2e>, so
    q_t = q_N + <-1/2e> = -(<1/2e> + q_N) = -q_ns by Nikulin's sum rule,
    as U is unimodular, <-2e> = -<2e> and q_N = -q_N.  These facts hold
    for every e, so the check is the same at every storey.  It accepts
    exactly the block layout `tower` builds: a transcendental lattice in
    another basis, or an NS family of another kind, raises ValueError
    like any mismatch."""

    __slots__ = _repr = ("ns", "transcendental", "depth")

    def __init__(self, ns: FamilyDescriptor, transcendental: IntegralLattice, depth: int) -> None:
        self._fill(ns=ns, transcendental=transcendental, depth=depth)
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        t = self.transcendental
        if t.rank != 13 or t.signature != (2, 11):
            raise ValueError(
                f"transcendental part has signature {t.signature}, "
                "expected (2, 11)"
            )
        if not _minus_ns_form(self.ns, t):
            raise ValueError(
                f"the Gram blocks of storey {self.depth} do not certify its "
                f"transcendental discriminant form as minus the {self.ns.label} form"
            )


def tower(d: int, depth: int) -> list[TowerNode]:
    """The cover tower over the parameter-d family: storey m carries
    ns = M(2^m d, 2) and transcendental U + U + N + <-2^(m+1) d>."""
    if d < 1:
        raise ValueError("the family parameter must be positive")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    out = []
    for m in range(depth + 1):
        t = direct_sum(
            named("U"),
            named("U"),
            named("N"),
            from_rows([[-(2 ** (m + 1)) * d]], f"<{-(2 ** (m + 1)) * d}>"),
        )
        out.append(TowerNode(FamilyDescriptor("M", (2 ** m) * d, 2), t, m))
    return out


def tower_related(d: int, e: int) -> int | None:
    """Exponent m > 0 with d = 2^m e or e = 2^m d; 0 when the parameters
    coincide (the same family, not a relation); None otherwise."""
    if d < 1 or e < 1:
        raise ValueError("family parameters must be positive")
    if d == e:
        return 0
    lo, hi = min(d, e), max(d, e)
    if hi % lo:
        return None
    ratio, m = hi // lo, 0
    while ratio % 2 == 0:
        ratio //= 2
        m += 1
    return m if ratio == 1 else None


# ---------------------------------------------------------------------------
# The twisted-partner cross-check for the degree-4 jump
# ---------------------------------------------------------------------------


def mukai_twisted_check(m: int, d: int) -> list[dict]:
    """Verify the twisted-partner description of the two-storey jump:
    inside the rank-11 lattice [[0,2,0],[2,0,1],[0,1,2^(m+1)d]] + N the
    class v = 2^m d f2 - f3 is isotropic, spans the radical of its own
    complement, and v-perp/Zv lies in the genus of M(2^(m+2) d, 2)."""
    if m < 0 or d < 1:
        raise ValueError("need m >= 0 and d >= 1")
    tag = f"m{m}-d{d}"
    top = from_rows(
        [[0, 2, 0], [2, 0, 1], [0, 1, (2 ** (m + 1)) * d]], "twisted-frame"
    )
    lat = direct_sum(top, named("N"))
    v = (0, (2 ** m) * d, -1) + (0,) * 8
    out = [check(
        f"twisted-isotropic-{tag}", lat.norm(v) == 0,
        "the twisting class v is isotropic",
        f"v has square {lat.norm(v)}, expected 0",
        {"v": v})]

    perp = orthogonal_complement(embedding_of(lat, [v]))
    rad = radical(perp.sub)
    rad_in_host = hnf_basis(mat_mul(freeze(rad), freeze(perp.vectors)))
    out.append(check(
        f"twisted-radical-{tag}", rad_in_host == hnf_basis(freeze([v])),
        "the radical of v-perp is spanned by v itself",
        "the radical of v-perp is not Zv",
        {"radical": rad_in_host}))

    quot, _ = quotient_by_radical(perp.sub)
    partner = FamilyDescriptor("M", (2 ** (m + 2)) * d, 2)
    out.append(check(
        f"twisted-quotient-genus-{tag}",
        genus_equal(genus_of(quot), family_genus(partner)),
        f"v-perp/Zv lies in the genus of {partner.label}",
        f"v-perp/Zv is not in the genus of {partner.label}",
        {"rank": quot.rank, "det": quot.det}))
    return out


# ---------------------------------------------------------------------------
# Numeric invariants of the associated Galois covers
# ---------------------------------------------------------------------------


class GaloisInvariants(NamedTuple):
    chi_w: int
    h20_w: int
    h20_v: int
    h10: int


def galois_cover_invariants(d: int, ks: Sequence[int]) -> GaloisInvariants:
    """Euler characteristic and Hodge numbers of the degree-4 cover built
    from eight bisection multiplicities k_1..k_8 (each N_i + N_i' = k_i H
    with k_i >= 1): chi(W) = 4 + (d/2)(sum k_i)^2, h^(2,0) = chi(W) - 1,
    h^(1,0) = 0.  As sum k_i >= 8, h^(2,0) >= 3 + 32d >= 35.  ValueError
    when d (sum k_i)^2 is odd, as chi(W) is an integer."""
    ks = tuple(ks)
    if len(ks) != 8:
        raise ValueError("need exactly eight multiplicities")
    if any(k < 1 for k in ks) or d < 1:
        raise ValueError("multiplicities and the degree must be positive")
    bulk, odd = divmod(d * sum(ks) ** 2, 2)
    if odd:
        raise ValueError("d (sum k_i)^2 is odd, so chi(W) would not be an integer")
    return GaloisInvariants(4 + bulk, 3 + bulk, 3 + bulk, 0)
