"""Tests for the two labeled rank-9/rank-10 models, their involutions,
the even-set search of `k3lat.evensets` on them, and the glue/report
surface.

The displayed coordinates (sections, orbit classes, polarization,
base-change identities) are frozen here and re-derived from the Gram by
direct arithmetic, independently of the module's own report checks.  The
bounded vector enumeration is cross-checked against a full box scan at
bound 1.  The translate search is cross-checked against the 8-clique
search it replaced (`clique_oracles`), whose packed adjacency is checked
against plain pairings and whose cliques are checked against an
itertools.combinations sweep over the same candidates; its box-test masks
are checked against the packed-key lookups they replaced.
"""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import k3lat
from k3lat.catalog import FamilyDescriptor, family_genus, named
from k3lat.evensets import (
    EvenSets,
    _bounded_sections,
    _packing,
    _section_frame,
    _translate_shapes,
    find_even_sets,
)
from k3lat.intmat import (
    det_int,
    dot,
    freeze,
    identity,
    inv_unimodular,
    kernel_int,
    mat_mul,
    mat_vec,
    transpose,
    vec_add,
    vec_mat,
    vec_neg,
    vec_scale,
    vec_sub,
)
from k3lat.lattice import (
    IsometryAction,
    direct_sum,
    from_rows,
    gram_in_basis,
    hnf_basis,
    invariant_split,
    short_vectors,
)
from k3lat.nsgeometry import (
    LabeledLattice,
    _certified_definite_isometry,
    _e8_labelling,
    _simple_root_rows,
    _unit,
    base_change,
    base_change_report,
    build_UN_vgs,
    build_X2,
    involutions_X2,
    known_even_sets,
    no_reducible_fibers,
    orbit_and_even_sets,
    ue8_checks,
    un_checks,
    verify_sections,
    vgs_polarized_complement,
    x2_checks,
)
from k3lat.overlattice import genus_equal, genus_of
from k3lat.report import run

from clique_oracles import even_eight_cliques, lookup_masks, packed_adjacency


def statuses(report):
    return {e["check"]: e["status"] for e in report}


# ---------------------------------------------------------------------------
# The degree-4 model: basis, labels, involutions
# ---------------------------------------------------------------------------


def test_x2_gram_matches_independent_construction():
    # Rebuild the Gram from the defining relations by a different route:
    # assemble the scaled-diagram block entry by entry, then border it.
    x2 = build_X2()
    g = x2.lattice.gram
    assert x2.lattice.rank == 9
    assert x2.lattice.signature == (1, 8)
    edges = {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8)}
    for i in range(1, 9):
        for j in range(1, 9):
            if i == j:
                want = -4
            elif (i, j) in edges or (j, i) in edges:
                want = 2
            else:
                want = 0
            assert g[i][j] == want, (i, j)
    assert g[0][0] == 0
    assert g[0][1] == g[1][0] == -2
    assert g[0][2] == g[2][0] == 1
    assert all(g[0][j] == 0 for j in range(3, 9))
    assert x2.lattice.det == 256


def test_x2_labels_frozen_coordinates():
    x2 = build_X2()
    assert x2.vec("E1") == (1, 0, 0, 0, 0, 0, 0, 0, 0)
    assert x2.vec("E2") == (1, -1, 0, 0, 0, 0, 0, 0, 0)
    assert x2.vec("L") == (2, -1, 0, 0, 0, 0, 0, 0, 0)
    assert x2.vec("H") == (6, -1, 2, 0, 0, 0, 0, 0, -2)
    assert x2.vec("N1") == (1, 0, 1, 0, 0, 0, 0, 0, 0)
    assert x2.vec("N8") == (3, 0, 1, 0, 0, 0, 0, 0, -1)
    assert x2.vec("N8''") == (3, -2, 1, 0, 0, 0, 0, 0, -1)
    # E2 = E1 - e1, L = 2 E1 - e1 hold coordinatewise.
    assert x2.vec("E2") == vec_sub(x2.vec("E1"), x2.vec("e1"))
    assert x2.vec("L") == vec_sub(vec_scale(x2.vec("E1"), 2), x2.vec("e1"))


def test_x2_pencil_and_polarization_arithmetic():
    x2 = build_X2()
    assert x2.norm("E1") == 0
    assert x2.norm("E2") == 0
    assert x2.pairing("E1", "E2") == 2
    assert x2.norm("L") == 4
    assert x2.norm("H") == 4
    assert genus_equal(
        genus_of(x2.lattice), family_genus(FamilyDescriptor("M", 2, 2))
    )


def test_sections_defining_relations():
    x2 = build_X2()
    names = [f"N{i}" for i in range(1, 9)]
    for a in names:
        assert x2.norm(a) == -2, a
        assert x2.pairing(a, "E1") == 1, a
        assert x2.pairing(a, "H") == 0, a
    for a, b in itertools.combinations(names, 2):
        assert x2.pairing(a, b) == 0, (a, b)
    # The alternate eighth section is a 5-section of one pencil and a
    # section of the other.
    assert x2.pairing("N8''", "E1") == 5
    assert x2.pairing("N8''", "E2") == 1
    assert x2.pairing("N8", "E2") == 5


def test_half_sums_are_integral_classes():
    x2 = build_X2()
    total = (0,) * 9
    for i in range(1, 9):
        total = vec_add(total, x2.vec(f"N{i}"))
    assert all(c % 2 == 0 for c in total)
    s = tuple(c // 2 for c in total)
    assert s == (5, -1, 2, 0, 0, 0, 0, 0, -2)
    # H - S = E1 and 2H - S - 2 N8 = E2: the two displayed identities.
    assert vec_sub(x2.vec("H"), s) == x2.vec("E1")
    assert vec_sub(
        vec_sub(vec_scale(x2.vec("H"), 2), s), vec_scale(x2.vec("N8"), 2)
    ) == x2.vec("E2")
    # The alternate even set is 2-divisible as well.
    alt = x2.vec("N8''")
    for i in range(1, 8):
        alt = vec_add(alt, x2.vec(f"N{i}"))
    assert all(c % 2 == 0 for c in alt)


def test_verify_sections_report_is_clean():
    assert set(statuses(verify_sections()).values()) == {"pass"}


def test_an_odd_section_sum_fails_with_the_halves_as_witness(monkeypatch):
    # N1 moved by E1 makes the first coordinate of the section sum odd: the
    # half-sum check fails, and its witness prints each half in lowest
    # terms, "c/2" for an odd c, as str(Fraction(c, 2)) does
    x2 = build_X2()
    labels = dict(x2.labels, N1=vec_add(x2.vec("N1"), x2.vec("E1")))
    monkeypatch.setattr(k3lat.nsgeometry, "build_X2",
                        lambda: LabeledLattice(x2.lattice, labels, x2.relations))
    total = [sum(c) for c in zip(*(labels[f"N{i}"] for i in range(1, 9)))]
    assert total[0] % 2 == 1
    (entry,) = [e for e in verify_sections() if e["check"] == "x2-even-set-halfsum"]
    assert entry["status"] == "fail"
    assert entry["witness"] == [str(Fraction(c, 2)) for c in total]
    assert entry["witness"][0] == f"{total[0]}/2"


def test_involution_tables():
    x2 = build_X2()
    sigma, iota_q, iota_dp = involutions_X2()
    e = {i: x2.vec(f"e{i}") for i in range(1, 9)}

    assert sigma.apply(x2.vec("E1")) == x2.vec("E2")
    for i in range(1, 9):
        assert sigma.apply(e[i]) == vec_neg(e[i]), i

    assert iota_q.apply(x2.vec("E1")) == x2.vec("E1")
    assert iota_q.apply(e[1]) == e[1]
    assert iota_q.apply(e[2]) == vec_neg(vec_add(e[1], e[2]))
    for i in range(3, 9):
        assert iota_q.apply(e[i]) == vec_neg(e[i]), i

    assert iota_dp.apply(x2.vec("E1")) == x2.vec("E2")
    assert iota_dp.apply(e[1]) == vec_neg(e[1])
    assert iota_dp.apply(e[2]) == vec_add(e[1], e[2])
    for i in range(3, 9):
        assert iota_dp.apply(e[i]) == e[i], i


def test_involutions_generate_a_four_group():
    sigma, iota_q, iota_dp = involutions_X2()
    for g in (sigma, iota_q, iota_dp):
        assert g.is_involution
    assert iota_q.compose(iota_dp).matrix == sigma.matrix
    assert iota_dp.compose(iota_q).matrix == sigma.matrix
    group = {identity(9), sigma.matrix, iota_q.matrix, iota_dp.matrix}
    assert len(group) == 4
    for a in group:
        for b in group:
            assert mat_mul(a, b) in group


def test_invariant_splits_of_the_three_involutions():
    x2 = build_X2()
    sigma, iota_q, iota_dp = involutions_X2()

    fixed, anti = invariant_split(sigma)
    assert fixed.sub.gram == ((4,),)
    assert fixed.vectors[0] in (x2.vec("L"), vec_neg(x2.vec("L")))
    assert anti.sub.rank == 8
    m = _certified_definite_isometry(anti.sub, named("E8(-2)"))
    assert m is not None
    # m holds image rows: row i is anti's i-th basis vector in E8(-2)
    assert gram_in_basis(named("E8(-2)"), m) == anti.sub.gram

    fixed_q, anti_q = invariant_split(iota_q)
    pencil = freeze([x2.vec("E1"), x2.vec("E2")])
    assert hnf_basis(fixed_q.vectors) == hnf_basis(pencil)
    assert gram_in_basis(x2.lattice, pencil) == ((0, 2), (2, 0))
    assert anti_q.sub.rank == 7

    fixed_dp, _ = invariant_split(iota_dp)
    assert fixed_dp.sub.rank == 8


def test_labeled_lattice_rejects_a_false_relation():
    lat = from_rows([[2]])
    with pytest.raises(ValueError):
        LabeledLattice(lat, {"v": (1,)}, (("v", "v", 4),))
    with pytest.raises(ValueError):
        LabeledLattice(lat, {"v": (1, 0)})
    model = LabeledLattice(lat, {"v": (1,)}, (("v", "v", 2),))
    with pytest.raises(KeyError):
        model.vec("w")


# ---------------------------------------------------------------------------
# Fibers, orbits, base change
# ---------------------------------------------------------------------------


def test_no_reducible_fibers_examples():
    x2 = build_X2()
    assert no_reducible_fibers(x2, "E1") is True
    assert no_reducible_fibers(x2, "E2") is True
    with pytest.raises(ValueError):
        no_reducible_fibers(x2, "H")
    model, _ = build_UN_vgs()
    assert no_reducible_fibers(model, "F") is False
    with pytest.raises(ValueError):
        no_reducible_fibers(model, "O")


def test_orbit_of_the_eighth_section():
    x2 = build_X2()
    sigma, iota_q, iota_dp = involutions_X2()
    n8 = x2.vec("N8")
    orbit = {n8, sigma.apply(n8), iota_q.apply(n8), iota_dp.apply(n8)}
    assert orbit == {
        x2.vec("N8"), x2.vec("N8'"), x2.vec("N8''"), x2.vec("N8'''")
    }
    total = (0,) * 9
    for v in orbit:
        total = vec_add(total, v)
    assert total == vec_scale(x2.vec("L"), 6)


def test_which_involution_fixes_the_sections():
    # iotaDP is the involution fixing N1..N7 pointwise; iotaQ moves each
    # of them (onto its sigma-image), giving the size-2 orbits.
    x2 = build_X2()
    sigma, iota_q, iota_dp = involutions_X2()
    for i in range(1, 8):
        v = x2.vec(f"N{i}")
        assert iota_dp.apply(v) == v, i
        assert iota_q.apply(v) == sigma.apply(v), i
        assert iota_q.apply(v) != v, i
    report = statuses(orbit_and_even_sets())
    assert report["x2-fixing-involution-attribution"] == "discrepancy"
    del report["x2-fixing-involution-attribution"]
    assert set(report.values()) == {"pass"}


def test_iota_dp_maps_one_even_set_to_the_other():
    x2 = build_X2()
    _, _, iota_dp = involutions_X2()
    image = {iota_dp.apply(x2.vec(f"N{i}")) for i in range(1, 9)}
    known1, known2 = known_even_sets()
    assert image == set(known2)
    assert {x2.vec(f"N{i}") for i in range(1, 9)} == set(known1)


def test_base_change_matrix_and_inverse_identities():
    x2 = build_X2()
    b = base_change()
    assert det_int(b) in (1, -1)
    # New basis {H, N1..N7, S}: the Gram is <4> + (the eight-component
    # block), written down entry by entry.
    expected = [[0] * 9 for _ in range(9)]
    expected[0][0] = 4
    for i in range(1, 8):
        expected[i][i] = -2
        expected[i][8] = expected[8][i] = -1
    expected[8][8] = -4
    assert gram_in_basis(x2.lattice, b) == freeze(expected)
    # Coordinates of E1 and E2 in the new basis reproduce the displayed
    # identities E1 = H - S and E2 = 2H + 2(N1+..+N7) - 5S.
    b_inv = inv_unimodular(b)
    assert vec_mat(x2.vec("E1"), b_inv) == (1, 0, 0, 0, 0, 0, 0, 0, -1)
    assert vec_mat(x2.vec("E2"), b_inv) == (2, 2, 2, 2, 2, 2, 2, 2, -5)


def test_base_change_conjugates_sigma_into_the_new_gram():
    x2 = build_X2()
    sigma, _, _ = involutions_X2()
    b = base_change()
    bt = transpose(b)
    m = mat_mul(mat_mul(inv_unimodular(bt), sigma.matrix), bt)
    conj = IsometryAction(from_rows(gram_in_basis(x2.lattice, b)), m)
    assert conj.is_involution
    assert set(statuses(base_change_report()).values()) == {"pass"}


# ---------------------------------------------------------------------------
# The bounded even-set search
# ---------------------------------------------------------------------------


def brute_candidates(lat, e, bound):
    out = []
    for v in itertools.product(range(-bound, bound + 1), repeat=lat.rank):
        if lat.norm(v) == -2 and lat.pairing(v, e) == 1:
            out.append(v)
    return sorted(out)


def test_bounded_sections_against_box_scan():
    x2 = build_X2()
    lat = x2.lattice
    for e_label in ("E1", "E2"):
        e = x2.vec(e_label)
        assert _bounded_sections(lat, e, 0) == []
        got = _bounded_sections(lat, e, 1)
        assert got == brute_candidates(lat, e, 1)
        assert len(got) == 22
        for v in got:
            assert lat.norm(v) == -2
            assert lat.pairing(v, e) == 1
            assert all(abs(c) <= 1 for c in v)


def hyperbolic_lattice(tail_norm):
    """U + <tail_norm>^3, which splits into the prefix U and a negative
    definite tail."""
    g = [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0]] + [
        [0, 0] + [tail_norm * (i == j) for j in range(3)] for i in range(3)]
    return from_rows(g)


def test_bounded_sections_with_a_kernel_column_of_two_rows():
    # E = (1, 0, -2, -3, -5) pairs with the tail as (2, 3, 5), whose kernel
    # has the HNF basis (1, 1, -1), (0, 5, -3): both rows move columns 1
    # and 2, so only the final filter bounds those coordinates, and at
    # bound 3 it drops a shell vector that the box keeps.
    lat, e = hyperbolic_lattice(-1), (1, 0, -2, -3, -5)
    assert mat_vec(lat.gram, e)[2:] == (2, 3, 5)
    assert hnf_basis(kernel_int(((2, 3, 5),))) == ((1, 1, -1), (0, 5, -3))
    for bound in (1, 2, 3):
        got = _bounded_sections(lat, e, bound)
        assert got == brute_candidates(lat, e, bound), bound
    assert len(got) == 23


def test_bounded_sections_with_an_unconstrained_tail():
    # E = (1, 0, 0, 0, 0) pairs with the tail as 0, so v.E = 1 fixes the
    # prefix alone and the tail coordinates are bounded by the box only.
    lat, e = hyperbolic_lattice(-2), (1, 0, 0, 0, 0)
    assert mat_vec(lat.gram, e)[2:] == (0, 0, 0)
    for bound in (1, 2):
        got = _bounded_sections(lat, e, bound)
        assert got and got == brute_candidates(lat, e, bound), bound


def test_bounded_sections_where_the_pencil_pairs_only_with_the_prefix():
    # U + A2(-1) with E = e1 pairs with the tail as 0: the kernel of f_tail
    # is all of Z^2, and with gcd(f_tail) = 0 the slice refuses every
    # prefix but those with f_pre . pre = 1.
    a2 = from_rows([[-2, 1], [1, -2]])
    lat, e = direct_sum(named("U"), a2), (1, 0, 0, 0)
    assert mat_vec(lat.gram, e)[2:] == (0, 0)
    for bound in (1, 2, 3):
        got = _bounded_sections(lat, e, bound)
        assert got and got == brute_candidates(lat, e, bound), bound
    # Rank-0 shells: U has no tail at all, and in U + <-2> with
    # E = (1, 0, 1) the tail pairs with E as -2, whose kernel in Z is 0
    # and whose gcd 2 refuses the prefixes of odd 1 - f_pre . pre.
    for lat, e in ((named("U"), (1, 0)), (direct_sum(named("U"), from_rows([[-2]])), (1, 0, 1))):
        for bound in (1, 2, 3):
            got = _bounded_sections(lat, e, bound)
            assert got and got == brute_candidates(lat, e, bound), (e, bound)


def sweep_even_sets(lat, cands):
    """Every even 8-subset of the candidates, by a sweep over all of them."""
    paired = [mat_vec(lat.gram, v) for v in cands]
    brute = set()
    for combo in itertools.combinations(range(len(cands)), 8):
        ok = True
        for a, b in itertools.combinations(combo, 2):
            if sum(x * y for x, y in zip(cands[a], paired[b])):
                ok = False
                break
        if ok:
            total = (0,) * lat.rank
            for i in combo:
                total = vec_add(total, cands[i])
            if all(c % 2 == 0 for c in total):
                brute.add(tuple(sorted(cands[i] for i in combo)))
    return sorted(brute)


def test_even_set_search_against_combination_sweep():
    # At bound 1 the candidate lists are small enough to sweep every 8-subset.
    x2 = build_X2()
    for e_label in ("E1", "E2"):
        e = x2.vec(e_label)
        cands = _bounded_sections(x2.lattice, e, 1)
        assert sweep_even_sets(x2.lattice, cands) == list(find_even_sets(x2.lattice, e, 1))


def test_even_cliques_against_combination_sweep_with_odd_cliques():
    # The bound-1 sweeps find nothing, so the parity filter needs a graph
    # with both kinds of clique: in Z^12 the vectors e_2i +- e_2i+1 are
    # pairwise orthogonal, and eight of them sum to an even vector exactly
    # when they fill four of the six blocks (15 of the 495 8-subsets).
    # 2e_4 and 2e_5 meet block 2 only; with three more full blocks they
    # make 10 more even sets.  e_0 + e_2 meets blocks 0 and 1 and lies in
    # no even set.
    lat = from_rows(identity(12))
    cands = []
    for i in range(0, 12, 2):
        for sign in (1, -1):
            v = [0] * 12
            v[i], v[i + 1] = 1, sign
            cands.append(tuple(v))
    cands.append(tuple(int(j in (0, 2)) for j in range(12)))
    cands.append(tuple(2 * int(j == 4) for j in range(12)))
    cands.append(tuple(2 * int(j == 5) for j in range(12)))
    cands.sort()
    got = even_eight_cliques(lat, cands)
    assert got == sweep_even_sets(lat, cands)
    assert len(got) == 15 + 10


def reference_rows(lat, cands, rows):
    """Adjacency rows by plain pairings: bit j set iff cands[i].cands[j] = 0."""
    return [
        sum(1 << j for j, w in enumerate(cands)
            if j != i and lat.pairing(cands[i], w) == 0)
        for i in rows
    ]


def test_packed_adjacency_against_plain_pairings():
    # A plain pairing costs about 10 microseconds, so past 100 candidates
    # (bounds 3 to 5) about 40 evenly spaced rows are compared; the whole
    # matrix must still be symmetric.
    x2 = build_X2()
    for e_label in ("E1", "E2"):
        for bound in range(1, 6):
            cands = _bounded_sections(x2.lattice, x2.vec(e_label), bound)
            k = len(cands)
            packed = packed_adjacency(x2.lattice, cands)
            rows = range(0, k, 1 if k <= 100 else k // 40)
            want = reference_rows(x2.lattice, cands, rows)
            assert [packed[i] for i in rows] == want, (e_label, bound)
            for i, row in enumerate(packed):
                while row:
                    j = (row & -row).bit_length() - 1
                    row ^= 1 << j
                    assert packed[j] >> i & 1, (e_label, bound, i, j)


def test_packed_adjacency_with_wide_fields():
    # Coordinates in the thousands make pairings far wider than 16 bits;
    # each vector comes with a partner orthogonal to it, and a zero vector
    # is orthogonal to everything.
    lat = from_rows([[2, 1, 0], [1, -4, 3], [0, 3, -6]])
    rng = random.Random(7)
    cands = [(0, 0, 0)]
    for _ in range(30):
        v = tuple(rng.randint(-3000, 3000) for _ in range(3))
        p = mat_vec(lat.gram, v)
        cands += [v, (p[1], -p[0], 0)]
    assert max(abs(lat.pairing(v, w)) for v in cands for w in cands) > 1 << 16
    packed = packed_adjacency(lat, cands)
    assert packed == reference_rows(lat, cands, range(len(cands)))
    assert packed_adjacency(lat, []) == []


def test_frame_of_the_x2_pencils_is_e7_minus_2():
    # W = <E, O>^perp has rank 7, det -256, 126 vectors of norm -4 and no
    # roots; every section is O + kE + w with k = -w.w/2.
    x2 = build_X2()
    for e_label in ("E1", "E2"):
        e = x2.vec(e_label)
        cands = _bounded_sections(x2.lattice, e, 2)
        o = cands[0]
        w_lat, basis, to_frame = _section_frame(x2.lattice, e, o)
        assert (w_lat.rank, w_lat.det) == (7, -256)
        assert [w_lat.norm(r) for r in short_vectors(w_lat, 4)] == [-4] * 63
        assert short_vectors(w_lat, 2) == []
        assert mat_mul(basis, to_frame) == identity(9)
        assert basis[-2:] == (e, o)
        for v in cands:
            c = vec_mat(v, to_frame)
            assert vec_mat(c, basis) == v
            assert c[-1] == 1
            assert 2 * c[-2] == -w_lat.norm(c[:-2])


def test_sections_are_disjoint_exactly_when_frame_parts_differ_by_a_norm_minus_4_vector():
    # For both pencils at bounds 1-5: v.v' = 0 iff w - w' lies in R4.  Past
    # 100 candidates about 40 evenly spaced rows are compared.
    x2 = build_X2()
    lat = x2.lattice
    for e_label in ("E1", "E2"):
        for bound in range(1, 6):
            cands = _bounded_sections(lat, x2.vec(e_label), bound)
            w_lat, _, to_frame = _section_frame(lat, x2.vec(e_label), cands[0])
            ws = [vec_mat(v, to_frame)[:-2] for v in cands]
            r4 = {v for r in short_vectors(w_lat, 4) for v in (r, vec_neg(r))}
            k = len(cands)
            for i in range(0, k, 1 if k <= 100 else k // 40):
                p = mat_vec(lat.gram, cands[i])
                for j in range(k):
                    disjoint = sum(x * y for x, y in zip(p, cands[j])) == 0
                    assert disjoint == (vec_sub(ws[i], ws[j]) in r4), (e_label, bound, i, j)


def test_translate_search_equals_the_clique_oracle_on_x2():
    x2 = build_X2()
    for e_label in ("E1", "E2"):
        for bound in (3, 4, 5):
            e = x2.vec(e_label)
            cands = _bounded_sections(x2.lattice, e, bound)
            assert list(find_even_sets(x2.lattice, e, bound)) == even_eight_cliques(
                x2.lattice, cands), (e_label, bound)


def test_box_test_masks_equal_the_lookup_oracle():
    # The fits of a root come from one box test on T_r(v) = v + r + (2 - v.r)E
    # for all candidates v; the oracle looks each v + r up by its packed
    # W-key.  Both X2 pencils at bounds 1-6, and U + E8(-2) at bound 2 with
    # its odd shapes put back in, so that every one of its roots is used.
    x2 = build_X2()
    for e_label in ("E1", "E2"):
        for bound in range(1, 7):
            sets = find_even_sets(x2.lattice, x2.vec(e_label), bound)
            assert sets.masks == lookup_masks(sets), (e_label, bound)
    sets = find_even_sets(direct_sum(named("U"), named("E8(-2)")), _unit(10, 0), 2)
    keys = [dot(r, sets.functional) for r in sets.roots]
    every = EvenSets(sets.lattice, sets.e, sets.bound, sets.cands, sets.functional, sets.roots,
                     tuple(_translate_shapes(keys)))
    assert (len(every.roots), len(every.shapes)) == (120, 25920)
    assert every.masks == lookup_masks(every)
    assert sum(map(int.bit_count, every.masks)) == 3992


# The box test packs each candidate's coordinates into fields of
# `_FIELD_BITS` bits.  At 8 bits the E1 fields at bound 6 still fit (at most
# 112 of 128) and give the full count; the E2 ones (137) must be refused,
# also when `python -O` strips asserts, rather than read off carried bits.
_NARROW_FIELDS = """
import sys
if __debug__:
    sys.exit("asserts are enabled")
from k3lat import evensets, nsgeometry
evensets._FIELD_BITS = 8
x2 = nsgeometry.build_X2()
print(len(evensets.find_even_sets(x2.lattice, x2.vec("E1"), 6)))
try:
    evensets.find_even_sets(x2.lattice, x2.vec("E2"), 6)
except ArithmeticError as exc:
    print(exc)
"""


def test_fields_too_narrow_for_the_box_test_are_refused_under_python_O():
    src = os.path.dirname(os.path.dirname(k3lat.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _NARROW_FIELDS],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines() == [
        "12936",
        "|T_r(v)| + bound may reach 137, past the 8-bit fields of the box test"]


def count_eight_cliques(lat, cands):
    """The number of pairwise orthogonal 8-subsets, of either parity."""
    adj = packed_adjacency(lat, cands)

    def count(allowed, need):
        if need == 1:
            return allowed.bit_count()
        total = 0
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            total += count(allowed & adj[low.bit_length() - 1], need - 1)
        return total

    return count((1 << len(cands)) - 1, 8)


def test_parity_is_a_property_of_the_shape_on_u_plus_e8_minus_2():
    # On X2 every shape is even, so the parity rule needs a frame with odd
    # shapes too: W = E8(-2) has 8640 even and 17280 odd ones.  At bound 2
    # the candidates hold 3992 8-cliques, of which 1200 are even.
    w = named("E8(-2)")
    roots = short_vectors(w, 4)
    pack = _packing(roots)
    shapes = _translate_shapes([pack(r) for r in roots])
    for shape in shapes[::50]:
        members = [(0,) * 8] + [roots[j] for j in shape]
        for a, b in itertools.combinations(members, 2):
            assert w.norm(vec_sub(a, b)) == -4
    even = [s for s in shapes
            if all(sum(roots[j][t] for j in s) % 2 == 0 for t in range(8))]
    assert (len(even), len(shapes) - len(even)) == (8640, 17280)

    lat = direct_sum(named("U"), w)
    cands = _bounded_sections(lat, _unit(10, 0), 2)
    got = list(find_even_sets(lat, _unit(10, 0), 2))
    assert got == even_eight_cliques(lat, cands)
    assert len(got) == 1200
    assert count_eight_cliques(lat, cands) == 3992


def test_even_set_search_rejects_frames_it_cannot_build():
    # E.E = 2 in U + E8(-1): E = e + f meets f + r once for each of the 240
    # roots r, so there are sections but no frame.
    e8, e = direct_sum(named("U"), named("E8(-1)")), (1, 1) + (0,) * 8
    assert len(_bounded_sections(e8, e, 1)) >= 8
    with pytest.raises(ValueError, match="not isotropic"):
        find_even_sets(e8, e, 1)
    # U + U has signature (2, 2): W would be indefinite.
    uu, e = direct_sum(named("U"), named("U")), (1, 0, 0, 0)
    assert len(_bounded_sections(uu, e, 2)) >= 8
    with pytest.raises(ValueError, match="not hyperbolic"):
        find_even_sets(uu, e, 2)


def test_even_set_counts_grow_with_the_bound():
    # Regression pins from a verified run, plus the containment property:
    # enlarging the coordinate box can only add results.
    x2 = build_X2()
    lat, e1 = x2.lattice, x2.vec("E1")
    sets2 = list(find_even_sets(lat, e1, 2))
    sets3 = find_even_sets(lat, e1, 3)
    sets4 = find_even_sets(lat, e1, 4)
    assert sets2 == []
    assert len(sets3) == 280
    assert len(sets4) == 1720
    assert set(sets3) <= set(sets4)


def test_even_set_search_output_properties():
    x2 = build_X2()
    lat = x2.lattice
    e1 = x2.vec("E1")
    results = list(find_even_sets(lat, e1, 3))
    assert results == sorted(set(results))
    for s in results:
        assert len(s) == 8
        assert len(set(s)) == 8
        total = (0,) * 9
        for v in s:
            assert lat.norm(v) == -2
            assert lat.pairing(v, e1) == 1
            assert all(abs(c) <= 3 for c in v)
            total = vec_add(total, v)
        for a, b in itertools.combinations(s, 2):
            assert lat.pairing(a, b) == 0
        assert all(c % 2 == 0 for c in total)


def test_even_set_search_recovers_both_displayed_sets_at_bound_5():
    x2 = build_X2()
    known1, known2 = known_even_sets()
    sets1 = find_even_sets(x2.lattice, x2.vec("E1"), 5)
    sets2 = find_even_sets(x2.lattice, x2.vec("E2"), 5)
    assert known1 in sets1
    assert known2 in sets2
    # Each displayed set contains sections of its own pencil only: the
    # other search cannot return it (N8.E2 = N8''.E1 = 5).
    assert known2 not in sets1
    assert known1 not in sets2
    assert len(sets1) == 10608
    assert len(sets2) == 8396


def test_even_sets_len_membership_and_iteration_agree():
    # len() counts mask bits and `in` reads one bit; both must agree with
    # the listed sets, and the listed sets with the clique oracle.
    x2 = build_X2()
    surrogate = direct_sum(from_rows([[2]]), named("E8(-2)"))
    for lat, e in ((x2.lattice, x2.vec("E1")), (x2.lattice, x2.vec("E2")),
                   (surrogate, _unit(9, 0))):
        for bound in (1, 2, 3):
            sets = find_even_sets(lat, e, bound)
            listed = list(sets)
            cands = _bounded_sections(lat, e, bound)
            assert listed == even_eight_cliques(lat, cands)
            assert list(sets) == listed
            assert len(sets) == len(listed)
            assert bool(sets) == bool(listed)
            assert all(s in sets for s in listed)


def test_even_set_counts_per_pencil_at_bounds_5_and_6():
    x2 = build_X2()
    sets = {(e, b): find_even_sets(x2.lattice, x2.vec(e), b)
            for e in ("E1", "E2") for b in (5, 6)}
    assert {key: len(found) for key, found in sets.items()} == {
        ("E1", 5): 10608, ("E2", 5): 8396, ("E1", 6): 12936, ("E2", 6): 12518}
    # enlarging the box only adds sets
    assert all(s in sets["E2", 6] for s in sets["E2", 5])


def test_even_set_membership_rejects_non_members():
    x2 = build_X2()
    e1 = x2.vec("E1")
    known1, known2 = known_even_sets()
    sets1 = find_even_sets(x2.lattice, e1, 5)
    sets2 = find_even_sets(x2.lattice, x2.vec("E2"), 5)
    assert known1 in sets1 and known2 in sets2
    # a 7-set, and the set itself as a list, out of order or not a set
    for item in (known1[:7], list(known1), tuple(reversed(known1)), None, ()):
        assert item not in sets1
    # one member swapped for a non-section: v + E1 has the packed W-key of
    # v but square 0, and 0 is not a section at all
    for v in (vec_add(known1[0], e1), (0,) * 9):
        assert tuple(sorted(known1[1:] + (v,))) not in sets1
    # each displayed set belongs to the other pencil's search only
    assert known2 not in sets1 and known1 not in sets2


def first_odd_clique(lat, cands):
    """The first pairwise orthogonal 8-subset, in candidate order, whose sum
    is not 2-divisible."""
    adj = packed_adjacency(lat, cands)
    stack = [((), (1 << len(cands)) - 1)]
    while stack:
        chosen, allowed = stack.pop()
        if len(chosen) == 8:
            clique = tuple(cands[i] for i in chosen)
            if any(sum(col) % 2 for col in zip(*clique)):
                return clique
            continue
        for i in reversed(range(allowed.bit_length())):
            if allowed >> i & 1:
                stack.append((chosen + (i,), allowed & adj[i] & ~((2 << i) - 1)))
    return None


def test_even_set_membership_rejects_an_odd_translate():
    # On X2 every shape is even; U + E8(-2) has odd shapes, so its
    # candidates hold 8-cliques of sections whose sum is odd.
    lat = direct_sum(named("U"), named("E8(-2)"))
    cands = _bounded_sections(lat, _unit(10, 0), 2)
    sets = find_even_sets(lat, _unit(10, 0), 2)
    assert len(sets) == 1200 and all(s in sets for s in sets)
    odd = first_odd_clique(lat, cands)
    for a, b in itertools.combinations(odd, 2):
        assert lat.pairing(a, b) == 0
    assert odd not in sets


# The E1 search at bound 4 misses {N1..N8} (N7 has a coordinate 5), though
# its anchor is a candidate there; one wrong bit in an anchor mask marks it.
# Membership must then raise, also when `python -O` strips asserts.
_CORRUPT_MASK = """
import sys
if __debug__:
    sys.exit("asserts are enabled")
from k3lat import evensets, nsgeometry
known1 = nsgeometry.known_even_sets()[0]
x2 = nsgeometry.build_X2()
sets = evensets.find_even_sets(x2.lattice, x2.vec("E1"), 4)
print(known1 in sets)
i, s = sets._locate(known1)
masks = list(sets.masks)
masks[s] |= 1 << i
object.__setattr__(sets, "masks", tuple(masks))
try:
    known1 in sets
except ArithmeticError as exc:
    print(exc)
"""


def test_corrupt_anchor_mask_is_rejected_under_python_O():
    src = os.path.dirname(os.path.dirname(k3lat.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_MASK],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert lines[0] == "False"
    assert lines[1].endswith("where the shape leaves the sections"), lines


# Each clause of the re-check that `in` runs on a hit, planted one at a time
# in an `EvenSets` built around a known set, must raise, also under
# `python -O`.  The planted data pass the bit and the rebuilt members, so
# only the re-check can refuse them.  The masks come from a box test on
# each root's T_r(v), so a smaller bound would clear the bit: the "bound"
# case keeps the masks of the bound-5 search.
_PLANTED_RECHECK = """
import sys
if __debug__:
    sys.exit("asserts are enabled")
from k3lat import evensets, nsgeometry
from k3lat.catalog import named
from k3lat.intmat import dot, vec_add, vec_scale, vec_sub
from k3lat.lattice import direct_sum
x2 = nsgeometry.build_X2()
lat, e1 = x2.lattice, x2.vec("E1")
known1 = nsgeometry.known_even_sets()[0]
sets = evensets.find_even_sets(lat, e1, 5)
key = {v: dot(v, sets.functional) for v in sets.cands}
anchor = min(known1, key=key.get)
case = sys.argv[1]
if case == "sections":
    # v + E has the packed W-key of v, but square 0
    v = known1[-1]
    cands = tuple(vec_add(v, e1) if c == v else c for c in sets.cands)
    planted = evensets.EvenSets(sets.lattice, sets.e, sets.bound, cands, sets.functional, sets.roots,
                                sets.shapes)
    item = tuple(sorted(known1[:-1] + (vec_add(v, e1),)))
elif case == "bound":
    # N7 has a coordinate 5
    planted = evensets.EvenSets(sets.lattice, sets.e, 4, sets.cands, sets.functional, sets.roots,
                                sets.shapes)
    item = known1
    object.__setattr__(planted, "masks", sets.masks)
elif case == "meet":
    # the root that leads from the anchor to member m is swapped for
    # d = c - anchor, where the section c meets another member and
    # T_d(anchor) = c + (2 - anchor.d)E lies in the box: the box test sets
    # the bit, and the W-keys rebuild c
    m = next(v for v in known1 if v != anchor)
    rest = [v for v in known1 if v != m]
    root_keys = [dot(r, sets.functional) for r in sets.roots]

    def image(c):
        return vec_add(c, vec_scale(e1, 2 - lat.pairing(anchor, vec_sub(c, anchor))))

    c = next(c for c in sets.cands
             if c not in known1 and key[c] > key[anchor]
             and key[c] - key[anchor] not in root_keys
             and any(lat.pairing(c, v) for v in rest)
             and max(map(abs, image(c))) <= 5)
    d = vec_sub(c, anchor)
    roots = tuple(d if dot(r, sets.functional) == key[m] - key[anchor] else r
                  for r in sets.roots)
    planted = evensets.EvenSets(sets.lattice, sets.e, sets.bound, sets.cands, sets.functional, roots,
                                sets.shapes)
    item = tuple(sorted(rest + [c]))
else:
    # U + E8(-2) has odd shapes, which the search leaves out
    u_e8 = direct_sum(named("U"), named("E8(-2)"))
    sets = evensets.find_even_sets(u_e8, (1,) + (0,) * 9, 2)
    root_keys = [dot(r, sets.functional) for r in sets.roots]
    planted = evensets.EvenSets(sets.lattice, sets.e, sets.bound, sets.cands, sets.functional, sets.roots,
                                tuple(evensets._translate_shapes(root_keys)))
    item = next(s for s in planted if any(sum(col) % 2 for col in zip(*s)))
try:
    print(item in planted)
except ArithmeticError as exc:
    print(exc)
"""


@pytest.mark.parametrize("case, message", [
    ("sections", "not sections (v.v = -2, v.E = 1)"),
    ("bound", "outside the coefficient bound 4"),
    ("meet", "sections that meet"),
    ("2L", "the sum of the set is not in 2L"),
])
def test_planted_even_set_is_rejected_by_the_recheck_under_python_O(case, message):
    src = os.path.dirname(os.path.dirname(k3lat.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _PLANTED_RECHECK, case],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message), lines


# A shell enumeration that hands back a vector off the shell: z = 0, whose
# value Q(den 0 + centre) is not the level asked for.  The section search
# must re-check each candidate, also when `python -O` strips asserts.
_OFF_SHELL = """
import sys
if __debug__:
    sys.exit("asserts are enabled")
from k3lat import evensets, nsgeometry
from k3lat.intmat import dot, mat_vec
planted = []
def off_shell(gram, value, center=None, den=1, box=None):
    planted.append(dot(center, mat_vec(gram, center)) != value)
    return [(0,) * len(gram)]
evensets.fp_enumerate = off_shell
x2 = nsgeometry.build_X2()
try:
    evensets._bounded_sections(x2.lattice, x2.vec("E1"), 2)
except ArithmeticError as exc:
    print(planted[-1])
    print(exc)
"""


def test_off_shell_candidate_is_rejected_under_python_O():
    src = os.path.dirname(os.path.dirname(k3lat.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _OFF_SHELL],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert lines[0] == "True"
    assert lines[1].endswith("does not satisfy v.v = -2, v.E = 1"), lines


# A shell enumeration that hands back its first vector twice.  The map
# (prefix, z) -> v is one-to-one, so the section search would keep the
# repeat and count some even sets twice; it must refuse it, also when
# `python -O` strips asserts.
_DUPLICATE = """
import sys
if __debug__:
    sys.exit("asserts are enabled")
from k3lat import evensets, nsgeometry
real = evensets.fp_enumerate
def duplicate(*args, **kwargs):
    shell = real(*args, **kwargs)
    return shell + shell[:1]
evensets.fp_enumerate = duplicate
x2 = nsgeometry.build_X2()
try:
    evensets._bounded_sections(x2.lattice, x2.vec("E1"), 2)
except ArithmeticError as exc:
    print(exc)
"""


def test_duplicate_candidate_is_rejected_under_python_O():
    src = os.path.dirname(os.path.dirname(k3lat.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _DUPLICATE],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert len(lines) == 1 and lines[0].endswith("was enumerated twice"), lines


def test_bound_too_small_is_reported_not_silent():
    # N7 has a coordinate of absolute value 5, so bound 4 misses both
    # displayed sets; the report entries flag this as failures.
    report = statuses([e for e, _ in run(x2_checks(4))])
    assert report["x2-even-set-search-E1"] == "fail"
    assert report["x2-even-set-search-E2"] == "fail"


# ---------------------------------------------------------------------------
# The eight-I2 model and its torsion translation
# ---------------------------------------------------------------------------


def test_un_model_frozen_gram_and_labels():
    model, _ = build_UN_vgs()
    g = model.lattice.gram
    assert model.lattice.rank == 10
    assert model.lattice.signature == (1, 9)
    assert g[0] == (0, 1, 0, 0, 0, 0, 0, 0, 0, 0)
    for j in range(2, 9):
        assert g[j][j] == -2
        assert g[j][9] == g[9][j] == -1
    assert g[9][9] == -4
    assert model.vec("F") == _unit(10, 0)
    assert model.vec("O") == (-1, 1, 0, 0, 0, 0, 0, 0, 0, 0)
    assert model.vec("t") == (1, 1, 0, 0, 0, 0, 0, 0, 0, -1)
    assert model.vec("C1_8") == (0, 0, -1, -1, -1, -1, -1, -1, -1, 2)
    assert model.norm("F") == 0
    assert model.pairing("F", "O") == 1
    assert model.norm("O") == -2
    assert model.norm("t") == -2
    assert model.pairing("O", "t") == 0
    twice_s = (0,) * 10
    for j in range(1, 9):
        assert model.norm(f"C1_{j}") == -2, j
        assert model.pairing(f"C1_{j}", "F") == 0, j
        assert model.pairing(f"C1_{j}", "O") == 0, j
        assert model.pairing(f"C1_{j}", "t") == 1, j
        assert model.vec(f"C0_{j}") == vec_sub(model.vec("F"), model.vec(f"C1_{j}"))
        twice_s = vec_add(twice_s, model.vec(f"C1_{j}"))
    # t = 2F + O - (sum C1_j)/2, i.e. the half-sum is 2F + O - t.
    assert all(c % 2 == 0 for c in twice_s)
    s = tuple(c // 2 for c in twice_s)
    assert s == vec_sub(
        vec_add(vec_scale(model.vec("F"), 2), model.vec("O")), model.vec("t")
    )
    assert s == model.vec("S")


def test_torsion_translation_action():
    model, sigma_t = build_UN_vgs()
    assert sigma_t.is_involution
    assert sigma_t.apply(model.vec("F")) == model.vec("F")
    assert sigma_t.apply(model.vec("O")) == model.vec("t")
    assert sigma_t.apply(model.vec("t")) == model.vec("O")
    for j in range(1, 9):
        assert sigma_t.apply(model.vec(f"C1_{j}")) == model.vec(f"C0_{j}"), j
        assert sigma_t.apply(model.vec(f"C0_{j}")) == model.vec(f"C1_{j}"), j


def test_torsion_translation_invariant_split():
    model, sigma_t = build_UN_vgs()
    fixed, anti = invariant_split(sigma_t)
    u = vec_add(vec_add(model.vec("F"), model.vec("O")), model.vec("t"))
    span = freeze([model.vec("F"), u])
    assert hnf_basis(fixed.vectors) == hnf_basis(span)
    assert gram_in_basis(model.lattice, span) == ((0, 2), (2, 0))
    assert anti.sub.rank == 8
    m = _certified_definite_isometry(anti.sub, named("E8(-2)"))
    assert m is not None
    # m holds image rows: row i is anti's i-th basis vector in E8(-2)
    assert gram_in_basis(named("E8(-2)"), m) == anti.sub.gram
    assert genus_equal(
        genus_of(model.lattice), genus_of(direct_sum(named("U"), named("N")))
    )


_CORRUPT_CERTIFICATE = """
import sys
if __debug__:
    sys.exit("asserts are enabled")
from k3lat import nsgeometry
from k3lat.catalog import named
from k3lat.lattice import invariant_split
_, anti = invariant_split(nsgeometry.build_UN_vgs()[1])
labelling = nsgeometry._e8_labelling
def swapped(g):
    labels = labelling(g)
    labels[0], labels[7] = labels[7], labels[0]  # e1 and e8 exchanged
    return labels
nsgeometry._e8_labelling = swapped
try:
    nsgeometry._certified_definite_isometry(anti.sub, named("E8(-2)"))
except ArithmeticError:
    print("rejected")
"""


def test_corrupt_isometry_certificate_is_rejected_under_python_O():
    # The re-check of the certificate must not be an assert, which
    # `python -O` strips: a matrix from a wrong labelling has to raise.
    src = os.path.dirname(os.path.dirname(k3lat.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_CERTIFICATE],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["rejected"]


_CORRUPT_FRAME = """
import sys
if __debug__:
    sys.exit("asserts are enabled")
from k3lat import evensets, nsgeometry
from k3lat.intmat import vec_add, vec_scale
x2 = nsgeometry.build_X2()
e = x2.vec("E1")
rows = evensets._complement_rows
for corrupt in (lambda r: (vec_scale(r[0], 2),) + r[1:],
                lambda r: (vec_add(r[0], e),) + r[1:]):
    evensets._complement_rows = lambda lat, vs, c=corrupt: c(rows(lat, vs))
    try:
        evensets.find_even_sets(x2.lattice, e, 3)
    except ArithmeticError as exc:
        print(exc)
"""


def test_corrupt_frame_is_rejected_under_python_O():
    # A W basis of index 2, and one whose first row meets O, must each stop
    # the search by a frame check that `python -O` keeps.
    src = os.path.dirname(os.path.dirname(k3lat.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_FRAME],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines() == [
        "the frame W + <E, O> is not a basis of the lattice",
        "the frame Gram is not W + [[0, 1], [1, -2]]",
    ]


def _diagram_gram(n, edges):
    g = [[-4 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        g[i][j] = g[j][i] = 2
    return g


def test_e8_labelling_reads_the_diagram():
    # the E8 diagram with its nodes shuffled is labelled back onto
    # _e8_gram's basis; A8, D8, E7 + A1, E6 + A2 and a node of degree 4
    # are not E8, nor is E7 on seven nodes
    e8 = named("E8(-2)").gram
    rng = random.Random(5)
    for _ in range(20):
        perm = list(range(8))
        rng.shuffle(perm)
        g = [[e8[perm[i]][perm[j]] for j in range(8)] for i in range(8)]
        labels = _e8_labelling(g)
        assert [[g[a][b] for b in labels] for a in labels] == [list(r) for r in e8]
    chain = [(i, i + 1) for i in range(7)]
    for edges in (chain, chain[:6] + [(5, 7)], chain[:5] + [(2, 6)],
                  chain[:4] + [(2, 5), (6, 7)], chain[:3] + [(2, 4), (2, 5), (5, 6)]):
        assert _e8_labelling(_diagram_gram(8, edges)) is None
    assert _e8_labelling(_diagram_gram(7, chain[:5] + [(2, 6)])) is None


def test_simple_root_rows_give_a_unimodular_small_basis():
    _, sigma_t = build_UN_vgs()
    _, anti = invariant_split(sigma_t)
    rows = _simple_root_rows(anti.sub)
    assert len(rows) == 8
    assert det_int(rows) in (1, -1)
    g = gram_in_basis(anti.sub, rows)
    for i in range(8):
        assert g[i][i] == -4
        for j in range(8):
            if i != j:
                assert g[i][j] in (0, 2)
    with pytest.raises(ArithmeticError):
        _simple_root_rows(from_rows([[-2]]))  # no norm -4 vectors at all


def test_polarized_complement_matches_the_primed_family():
    for e in (1, 2, 3):
        g = vgs_polarized_complement(e)
        assert (g.sig_plus, g.sig_minus) == (1, 8)
        assert genus_equal(g, family_genus(FamilyDescriptor("Lp", 2 * e, 2)))
    with pytest.raises(ValueError):
        vgs_polarized_complement(0)
    with pytest.raises(ValueError):
        vgs_polarized_complement(-1)


def test_polarization_literal_reading_square():
    # F - e(O + t) squares to -4e(1+e): for e = 1 that is -8, not -4, so
    # the fixed-part generator must be F + O + t.
    model, _ = build_UN_vgs()
    lat = model.lattice
    for e in (1, 2, 3):
        literal = vec_sub(
            model.vec("F"),
            vec_scale(vec_add(model.vec("O"), model.vec("t")), e),
        )
        assert lat.norm(literal) == -4 * e * (1 + e)
        u = vec_add(vec_add(model.vec("F"), model.vec("O")), model.vec("t"))
        v = vec_sub(model.vec("F"), vec_scale(u, e))
        assert lat.norm(v) == -4 * e


# ---------------------------------------------------------------------------
# Glue constructions and the three reports
# ---------------------------------------------------------------------------


def test_glue_constructions_all_pass():
    # the glue checks of both rank-10 models and the rank-10 genera: every
    # check of un and ue8 but the models' own
    report = [e for e, _ in run(c for c in un_checks((1, 2, 3, 4)) + ue8_checks(3)
                                if not c[0].startswith(("un-", "ue8-")))]
    assert set(statuses(report).values()) == {"pass"}
    names = [e["check"] for e in report]
    for want in (
        "u2n-overlattice",
        "u2e8-overlattice",
        "m-embedding-d3",
        "l-embedding-d3",
        "mp-saturation-d1",
        "lp-saturation-d3",
        "rank10-genus-pair",
        "rank10-genus-distinct",
    ):
        assert want in names, want


def test_x2_report_is_clean_with_two_discrepancies():
    report = [e for e, _ in run(x2_checks(5))]
    by_status = statuses(report)
    assert "fail" not in by_status.values()
    flagged = sorted(k for k, v in by_status.items() if v == "discrepancy")
    assert flagged == [
        "x2-even-set-pencil-attribution",
        "x2-fixing-involution-attribution",
    ]
    for e in report:
        assert set(e) == {"check", "status", "detail", "witness"}


def test_un_report_is_clean_with_one_discrepancy():
    report = [e for e, _ in run(un_checks((1, 2)))]
    by_status = statuses(report)
    assert "fail" not in by_status.values()
    flagged = [k for k, v in by_status.items() if v == "discrepancy"]
    assert flagged == ["un-polarization-reading"]
    witness = next(
        e["witness"] for e in report if e["check"] == "un-polarization-reading"
    )
    assert witness["literal_square"] == -8
    assert witness["corrected_square"] == -4


def test_ue8_report_and_absence_example():
    report = [e for e, _ in run(ue8_checks(3))]
    assert set(statuses(report).values()) == {"pass"}
    # The degree-2 surrogate <2> + E8(-2) meets every class evenly, so the
    # search finds nothing at any bound; cross-check the empty candidate
    # list by a box scan at bound 1.
    surrogate = direct_sum(from_rows([[2]]), named("E8(-2)"))
    assert list(find_even_sets(surrogate, _unit(9, 0), 3)) == []
    assert brute_candidates(surrogate, _unit(9, 0), 1) == []
