"""Tests for the isogeny-chain combinatorics.

tower_related is validated against a brute-force oracle that walks the
actual cover/quotient step functions (renaming the primed family of even
parameter to its unprimed twin) and counts steps, so the closed-form
power-of-two answer is checked against the chain it summarizes.
"""

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lat import towers
from k3lat.catalog import FamilyDescriptor, build_Mn, family_genus, family_lattice, named
from k3lat.forms import cyclic_block, forms_isomorphic, negate
from k3lat.lattice import direct_sum, discriminant_form, from_rows
from k3lat.overlattice import genus_equal, genus_of
from k3lat.towers import (
    GaloisInvariants,
    TowerNode,
    _minus_ns_form,
    _storey_free_facts,
    cover_step,
    galois_cover_invariants,
    mukai_twisted_check,
    quotient_step,
    tower,
    tower_related,
)


def test_quotient_and_cover_step_examples():
    assert quotient_step(FamilyDescriptor("Lp", 4, 2)) == FamilyDescriptor("M", 2, 2)
    assert quotient_step(FamilyDescriptor("L", 2, 2)) == FamilyDescriptor("Mp", 4, 2)
    assert cover_step(FamilyDescriptor("M", 2, 2)) == FamilyDescriptor("Lp", 4, 2)
    assert cover_step(FamilyDescriptor("Mp", 4, 2)) == FamilyDescriptor("L", 2, 2)
    # The cover of M(2,2) and M(4,2) itself are the same family.
    assert genus_equal(
        family_genus(cover_step(FamilyDescriptor("M", 2, 2))),
        family_genus(FamilyDescriptor("M", 4, 2)),
    )


def test_step_domain_errors():
    with pytest.raises(ValueError):
        quotient_step(FamilyDescriptor("M", 1, 2))
    with pytest.raises(ValueError):
        quotient_step(FamilyDescriptor("Mp", 2, 2))
    with pytest.raises(ValueError):
        cover_step(FamilyDescriptor("L", 1, 2))
    with pytest.raises(ValueError):
        cover_step(FamilyDescriptor("Lp", 2, 2))
    with pytest.raises(ValueError):
        quotient_step(FamilyDescriptor("L", 1, 3))


@pytest.mark.parametrize("f", [
    FamilyDescriptor("L", 1, 2),
    FamilyDescriptor("L", 5, 2),
    FamilyDescriptor("Lp", 2, 2),
    FamilyDescriptor("Lp", 12, 2),
])
def test_cover_inverts_quotient(f):
    assert cover_step(quotient_step(f)) == f


@pytest.mark.parametrize("f", [
    FamilyDescriptor("M", 1, 2),
    FamilyDescriptor("M", 6, 2),
    FamilyDescriptor("Mp", 2, 2),
    FamilyDescriptor("Mp", 8, 2),
])
def test_quotient_inverts_cover(f):
    assert quotient_step(cover_step(f)) == f


@given(st.sampled_from(["L", "Lp", "M", "Mp"]), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_parameter_doubles_up_and_halves_down(kind, e):
    d = 2 * e if kind in ("Lp", "Mp") else e
    f = FamilyDescriptor(kind, d, 2)
    if kind in ("L", "Lp"):
        g = quotient_step(f)
        assert g.d == (2 * d if kind == "L" else d // 2)
    else:
        g = cover_step(f)
        assert g.d == (2 * d if kind == "M" else d // 2)


def test_tower_of_depth_three():
    nodes = tower(1, 3)
    assert [n.ns.label for n in nodes] == ["M(1,2)", "M(2,2)", "M(4,2)", "M(8,2)"]
    assert [n.depth for n in nodes] == [0, 1, 2, 3]
    for m, node in enumerate(nodes):
        t = node.transcendental
        assert t.rank == 13
        assert t.signature == (2, 11)
        assert t.gram[12][12] == -(2 ** (m + 1))
        assert t.det == -64 * 2 ** (m + 1)


def test_tower_depth_zero_is_the_base():
    (node,) = tower(1, 0)
    assert node.ns == FamilyDescriptor("M", 1, 2)
    assert node.transcendental.gram[12][12] == -2
    # The invariant the constructor certifies, recomputed here directly.
    assert forms_isomorphic(
        discriminant_form(node.transcendental),
        negate(discriminant_form(family_lattice(node.ns))),
    ) is not None


def test_tower_node_validation():
    good = tower(1, 0)[0]
    with pytest.raises(ValueError):
        TowerNode(good.ns, good.transcendental, -1)
    with pytest.raises(ValueError):  # rank 12
        TowerNode(good.ns, direct_sum(named("U"), named("U"), named("N")), 0)
    with pytest.raises(ValueError):  # wrong discriminant group order
        TowerNode(
            good.ns,
            direct_sum(named("U"), named("U"), named("N"), from_rows([[-6]])),
            0,
        )
    with pytest.raises(ValueError):
        tower(0, 1)
    with pytest.raises(ValueError):
        tower(1, -1)


def _genus_oracle(ns, t):
    """The storey check by normal forms: q_t isomorphic to minus the NS
    genus form, found by search rather than read off the blocks."""
    return forms_isomorphic(genus_of(t).disc, negate(family_genus(ns).disc)) is not None


def test_block_witness_agrees_with_genus_oracle_on_every_storey():
    storeys = {(n.ns, n.transcendental) for d in range(1, 17) for n in tower(d, 8)}
    assert len(storeys) == 80
    for ns, t in storeys:
        assert _minus_ns_form(ns, t) is True
        assert _genus_oracle(ns, t), ns.label


def test_storey_free_facts_hold():
    q_n = discriminant_form(named("N"))
    assert q_n.orders == (2,) * 6
    assert negate(q_n).table == q_n.table
    assert named("U").det == -1
    assert build_Mn(2).gram == named("N").gram
    assert _storey_free_facts() is True


def test_q_n_that_is_not_its_own_negative_is_refused(monkeypatch):
    # <1/4> on Z/4: its negative has q = 7/4, another table
    monkeypatch.setattr(towers, "genus_of",
                        lambda lat: SimpleNamespace(disc=cyclic_block(4, 1)))
    assert towers._storey_free_facts.__wrapped__() is False
    monkeypatch.setattr(towers, "_storey_free_facts", lambda: False)
    node = tower(1, 0)[0]
    assert towers._minus_ns_form.__wrapped__(node.ns, node.transcendental) is False


def _storey(names, c):
    """The orthogonal sum of the named lattices and <c>, in that order."""
    return direct_sum(*map(named, names), from_rows([[c]]))


# a wrong cyclic entry is planted in test_tower_node_validation
@pytest.mark.parametrize("ns,t,oracle", [
    # an N block replaced by another rank-8 even lattice
    (FamilyDescriptor("M", 1, 2), _storey(("U", "U", "E8(-2)"), -2), False),
    # the right blocks in another order: the same genus, refused all the same
    (FamilyDescriptor("M", 2, 2), _storey(("U", "N", "U"), -4), True),
    # NS families of another kind, refused by kind; Lp(2,2) has the genus
    # of M(2,2)
    (FamilyDescriptor("Mp", 2, 2), _storey(("U", "U", "N"), -4), False),
    (FamilyDescriptor("Lp", 2, 2), _storey(("U", "U", "N"), -4), True),
])
def test_planted_storeys_are_refused(ns, t, oracle):
    assert t.rank == 13 and t.signature == (2, 11)
    with pytest.raises(ValueError, match="do not certify"):
        TowerNode(ns, t, 0)
    assert _minus_ns_form(ns, t) is False
    assert _genus_oracle(ns, t) is oracle


def chain_distances(d, cap):
    """Step counts of every M-parameter reachable from M(d,2) by walking
    cover_step / quotient_step, with Lp(2f,2) renamed to M(2f,2)."""
    seen = {d: 0}
    frontier = [d]
    while frontier:
        nxt = []
        for p in frontier:
            moves = [cover_step(FamilyDescriptor("M", p, 2)).d]
            if p % 2 == 0:
                moves.append(quotient_step(FamilyDescriptor("Lp", p, 2)).d)
            for q in moves:
                if q <= cap and q not in seen:
                    seen[q] = seen[p] + 1
                    nxt.append(q)
        frontier = nxt
    return seen


def test_tower_related_against_chain_walk():
    cap = 64
    for d in range(1, cap + 1):
        seen = chain_distances(d, cap)
        for e in range(1, cap + 1):
            got = tower_related(d, e)
            assert got == tower_related(e, d)
            if e == d:
                assert got == 0
            elif e in seen:
                assert got == seen[e], (d, e)
            else:
                assert got is None, (d, e)


def test_tower_related_examples():
    assert tower_related(3, 24) == 3
    assert tower_related(24, 3) == 3
    assert tower_related(5, 7) is None
    assert tower_related(4, 4) == 0
    assert tower_related(2, 6) is None
    with pytest.raises(ValueError):
        tower_related(0, 1)


@given(st.integers(1, 100), st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_tower_related_power_law(e, m):
    assert tower_related(e, e * 2 ** m) == m
    assert tower_related(e * 2 ** m, e) == m
    assert tower_related(e, 3 * e) is None


@pytest.mark.parametrize("m,d", list(itertools.product((0, 1), (1, 2))))
def test_twisted_partner_check(m, d):
    report = mukai_twisted_check(m, d)
    assert [e["status"] for e in report] == ["pass"] * 3
    # Agreement with the tower: the twisted partner of storey m is the
    # NS genus of storey m + 2.
    nodes = tower(d, m + 2)
    assert genus_equal(
        family_genus(nodes[m + 2].ns),
        family_genus(FamilyDescriptor("M", 2 ** (m + 2) * d, 2)),
    )


def test_twisted_partner_errors():
    with pytest.raises(ValueError):
        mukai_twisted_check(-1, 1)
    with pytest.raises(ValueError):
        mukai_twisted_check(0, 0)


def test_galois_cover_invariants_values():
    inv = galois_cover_invariants(1, [1] * 8)
    assert inv == GaloisInvariants(36, 35, 35, 0)
    assert galois_cover_invariants(2, [1] * 8).chi_w == 68
    # Non-uniform multiplicities: d (sum k_i)^2 = 81 is odd, and chi(W) = 89/2
    # is no Euler characteristic, so the data are refused.
    with pytest.raises(ValueError):
        galois_cover_invariants(1, (1, 1, 1, 1, 1, 1, 1, 2))
    inv = galois_cover_invariants(1, (1, 1, 1, 1, 1, 1, 2, 2))
    assert inv == GaloisInvariants(54, 53, 53, 0)
    assert all(type(x) is int for x in inv)
    assert galois_cover_invariants(3, [2] * 8).h20_v == 3 + 3 * 256 // 2


def test_galois_cover_invariants_errors():
    with pytest.raises(ValueError):
        galois_cover_invariants(1, [1] * 7)
    with pytest.raises(ValueError):
        galois_cover_invariants(1, [1] * 9)
    with pytest.raises(ValueError):
        galois_cover_invariants(1, [1, 1, 1, 0, 1, 1, 1, 1])
    with pytest.raises(ValueError):
        galois_cover_invariants(0, [1] * 8)


_MULTIPLICITIES = st.lists(st.integers(1, 5), min_size=8, max_size=8)


@st.composite
def _cover_data(draw):
    """(d, ks) with d (sum k_i)^2 even: the data of a cover."""
    ks = draw(_MULTIPLICITIES)
    return draw(st.integers(1, 6).filter(lambda d: d * sum(ks) % 2 == 0)), ks


@given(_cover_data())
@settings(max_examples=60, deadline=None)
def test_galois_bound_holds(data):
    d, ks = data
    inv = galois_cover_invariants(d, ks)
    assert inv.h20_v >= 3 + 32 * d >= 35
    assert inv.chi_w - inv.h20_w == 1
    assert inv.h10 == 0


@given(st.integers(1, 6), _MULTIPLICITIES)
@settings(max_examples=60, deadline=None)
def test_galois_invariants_refuse_exactly_the_odd_case(d, ks):
    if d * sum(ks) ** 2 % 2:
        with pytest.raises(ValueError):
            galois_cover_invariants(d, ks)
    else:
        assert 2 * (galois_cover_invariants(d, ks).chi_w - 4) == d * sum(ks) ** 2
