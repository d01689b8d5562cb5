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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .catalog import FamilyDescriptor, family_genus, named
from .forms import forms_isomorphic, negate
from .intmat import freeze, hnf_basis, mat_mul, require
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
def _minus_ns_form(ns: FamilyDescriptor, t: IntegralLattice) -> bool:
    """Whether q_t is minus the discriminant form of ns, both read off
    their genus (the forms of their diagonal blocks, summed): cached, since
    towers over d and 2d share all storeys but one."""
    return forms_isomorphic(genus_of(t).disc, negate(family_genus(ns).disc)) is not None


@dataclass(frozen=True)
class TowerNode:
    """One storey of a cover tower: the NS family, the transcendental
    lattice, and the storey index (isogeny degree 2^depth down to the
    base).  Construction certifies rank 13, signature (2,11), and that
    the transcendental discriminant form is minus the NS one."""

    ns: FamilyDescriptor
    transcendental: IntegralLattice
    depth: int

    def __post_init__(self) -> None:
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
                f"transcendental discriminant form of storey {self.depth} "
                f"is not minus the {self.ns.label} form"
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
    chi_w: Fraction
    h20_w: Fraction
    h20_v: Fraction
    h10: Fraction


def galois_cover_invariants(d: int, ks: Sequence[int]) -> GaloisInvariants:
    """Euler characteristic and Hodge numbers of the degree-4 cover built
    from eight bisection multiplicities k_1..k_8 (each N_i + N_i' = k_i H
    with k_i >= 1): chi(W) = 4 + (d/2)(sum k_i)^2, h^(2,0) = chi(W) - 1,
    h^(1,0) = 0."""
    ks = tuple(ks)
    if len(ks) != 8:
        raise ValueError("need exactly eight multiplicities")
    if any(k < 1 for k in ks) or d < 1:
        raise ValueError("multiplicities and the degree must be positive")
    bulk = Fraction(d, 2) * sum(ks) ** 2
    inv = GaloisInvariants(4 + bulk, 3 + bulk, 3 + bulk, Fraction(0))
    require(inv.h20_v >= 3 + 32 * d >= 35, "h^(2,0) is below its lower bound")
    return inv
