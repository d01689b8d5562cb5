"""End-to-end acceptance gate.

Ten headline certifications, each timed against an explicit wall-clock
budget and reported as one PASS/FAIL line (run ``pytest -s`` to watch the
lines appear; under plain ``pytest -v`` each criterion is one test).
Every check is exact integer/rational arithmetic -- tolerance zero.
"""

import hashlib
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from itertools import combinations, combinations_with_replacement, product
from math import prod

from k3lat.catalog import (
    FamilyDescriptor,
    _block_disc,
    _cyclic_glue_codes,
    build_Mn,
    family_genus,
    family_lattice,
    membership_classification,
    named,
    omega_genus,
)
from k3lat.cli import _catalog_builders
from k3lat.forms import (
    forms_isomorphic,
    length,
    milgram_signature,
    quotient_form,
    sum_forms,
    u_block,
)
from k3lat.lattice import direct_sum, discriminant_form, from_rows
from k3lat.nsgeometry import (
    build_X2,
    find_even_sets,
    known_even_sets,
    ue8_checks,
    un_checks,
    x2_checks,
)
from k3lat.overlattice import (
    genus_equal,
    genus_lemma_quotient,
    genus_of,
    lemma_overlattice,
    unique_in_genus_by_length,
)
from k3lat.report import run
from k3lat.towers import cover_step, mukai_twisted_check, tower, tower_related
from search_oracles import isotropic_subgroups


@contextmanager
def criterion(num, budget_s, headline):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num:2d}: {headline}", flush=True)
        raise
    dt = time.perf_counter() - t0
    if dt >= budget_s:
        print(
            f"FAIL criterion {num:2d}: {headline} "
            f"({dt:.1f}s, over the {budget_s:.0f}s budget)",
            flush=True,
        )
        raise AssertionError(
            f"criterion {num} took {dt:.1f}s, budget {budget_s:.0f}s"
        )
    print(
        f"PASS criterion {num:2d}: {headline} "
        f"({dt:.1f}s, budget {budget_s:.0f}s)",
        flush=True,
    )


# ---------------------------------------------------------------------------
# 1. Discriminant-form identities for the two workhorse lattices
# ---------------------------------------------------------------------------


def test_criterion_01_discriminant_identities():
    with criterion(1, 1, "q(N) = u(2)^3 and q(E8(-2)) = u(2)^4"):
        qn = discriminant_form(named("N"))
        qe = discriminant_form(named("E8(-2)"))
        assert forms_isomorphic(qn, sum_forms([u_block(2)] * 3)) is not None
        assert forms_isomorphic(qe, sum_forms([u_block(2)] * 4)) is not None


# ---------------------------------------------------------------------------
# 2. The exceptional-curve lattices M_n, n = 2..8
# ---------------------------------------------------------------------------


def test_criterion_02_mn_rank_length_table():
    expected = [(8, 6), (12, 4), (14, 4), (16, 2), (16, 2), (18, 1), (18, 2)]
    with criterion(2, 60, "M_n rank/length table for n = 2..8"):
        got = []
        for n in range(2, 9):
            mn = build_Mn(n)
            got.append((mn.rank, length(discriminant_form(mn))))
        assert got == expected, got


# ---------------------------------------------------------------------------
# 3. The glue construction lands in the genus of M(d,n), unique by length
# ---------------------------------------------------------------------------


def _glue_route_genus(d, n):
    """Genus of the index-n overlattice of <2d> + (negative partner of M_n),
    built from the congruence d = 0 mod 2n -- at lattice level for n = 2
    (explicit Gram available) and at form level otherwise."""
    if n == 2:
        z, _ = lemma_overlattice(d, 2, named("E8(-2)"))
        return genus_of(z)
    return genus_lemma_quotient(d, n, omega_genus(n))


def test_criterion_03_overlattice_genus_certification():
    with criterion(
        3, 120, "glued overlattice = genus of M(d,n), unique by length"
    ):
        for n in range(2, 9):
            for d in (2 * n, 4 * n):
                gm = family_genus(FamilyDescriptor("M", d, n))
                g = _glue_route_genus(d, n)
                assert genus_equal(g, gm), f"genus mismatch at n={n}, d={d}"
                assert unique_in_genus_by_length(gm), f"n={n}, d={d}"


# ---------------------------------------------------------------------------
# 4. The rank-9 families: length separation and membership flags
# ---------------------------------------------------------------------------


def test_criterion_04_family_non_intersection():
    with criterion(4, 1, "lengths 9 > 7 and membership flags"):
        for d in (1, 2, 3):
            assert length(family_genus(FamilyDescriptor("L", d, 2)).disc) == 9
        for e in (1, 2, 3):
            assert length(family_genus(FamilyDescriptor("M", e, 2)).disc) == 7

        flags_l = membership_classification(
            family_lattice(FamilyDescriptor("L", 1, 2))
        )
        assert flags_l.covers_K3 and not flags_l.covered_by_K3
        assert {f.kind for f in flags_l.matches} == {"L"}

        flags_m_odd = membership_classification(
            family_lattice(FamilyDescriptor("M", 1, 2))
        )
        assert flags_m_odd.covered_by_K3 and not flags_m_odd.covers_K3
        assert {f.kind for f in flags_m_odd.matches} == {"M"}

        flags_m_even = membership_classification(
            family_lattice(FamilyDescriptor("M", 2, 2))
        )
        assert flags_m_even.covers_K3 and flags_m_even.covered_by_K3
        assert {"Lp", "M"} <= {f.kind for f in flags_m_even.matches}


# ---------------------------------------------------------------------------
# 5. The degree-4 model: full report plus the bounded even-set search
# ---------------------------------------------------------------------------


def test_criterion_05_degree4_model_report_and_even_sets():
    with criterion(
        5, 60, "degree-4 model report clean; both even sets found at bound 5"
    ):
        report = [e for e, _ in run(x2_checks(5))]
        assert report and all(e["status"] != "fail" for e in report)
        by_name = {e["check"]: e["status"] for e in report}
        must_pass = [
            # the section relations
            "x2-section-norms",
            "x2-section-disjoint",
            "x2-section-degree",
            "x2-even-set-halfsum",
            "x2-polarization",
            "x2-pencil-from-sections",
            "x2-orbit-section-degrees",
            "x2-even-set-alternate",
            # both genus-1 pencils
            "x2-irreducible-fibers-E1",
            "x2-irreducible-fibers-E2",
            # the orbit of the eighth section and the even-set image
            "x2-orbit-of-N8",
            "x2-orbit-sum",
            "x2-section-orbits",
            "x2-even-set-image",
            # the degree-2 base change
            "x2-base-change-unimodular",
            "x2-base-change-gram",
            "x2-base-change-conjugation",
            "x2-base-change-inverse",
            # the bounded search recovers both displayed configurations
            "x2-even-set-search-E1",
            "x2-even-set-search-E2",
        ]
        for name in must_pass:
            assert by_name[name] == "pass", name

        x2 = build_X2()
        known1, known2 = known_even_sets()
        sets1 = find_even_sets(x2.lattice, x2.vec("E1"), 5)
        sets2 = find_even_sets(x2.lattice, x2.vec("E2"), 5)
        assert known1 in sets1 and known1 not in sets2
        assert known2 in sets2 and known2 not in sets1


# ---------------------------------------------------------------------------
# 6. The eight-I2 model: involution split, glue certificates, complements
# ---------------------------------------------------------------------------


def test_criterion_06_eight_i2_model_certificates():
    with criterion(
        6, 120, "eight-I2 split = E8(-2); glue certificates; complements"
    ):
        glue = [e for e, _ in run(c for c in un_checks((1, 2, 3, 4)) + ue8_checks(3)
                                  if not c[0].startswith(("un-", "ue8-")))]
        assert glue and all(e["status"] == "pass" for e in glue)
        names = {e["check"] for e in glue}
        assert {
            "u2n-overlattice",
            "u2e8-overlattice",
            "rank10-genus-pair",
            "rank10-genus-distinct",
        } <= names

        report = [e for e, _ in run(un_checks((1, 2, 3, 4)))]
        by_name = {e["check"]: e["status"] for e in report}
        assert by_name["un-model"] == "pass"
        for e in (1, 2, 3, 4):
            assert by_name[f"un-polarized-complement-e{e}"] == "pass"
        assert by_name["un-polarization-reading"] == "discrepancy"
        assert all(s != "fail" for s in by_name.values())


# ---------------------------------------------------------------------------
# 7. Towers, the chain-degree oracle, and the twisted partners
# ---------------------------------------------------------------------------


def _chain_walk(d, e):
    """Brute chain oracle: climb from the smaller parameter one cover step
    at a time (renaming Lp(2x,2) to the coinciding class M(2x,2)) and count
    the storeys needed to hit the larger one."""
    if d == e:
        return 0
    lo, hi = sorted((d, e))
    f = FamilyDescriptor("M", lo, 2)
    storeys = 0
    while f.d < hi:
        f = cover_step(f)
        f = FamilyDescriptor("M", f.d, 2)
        storeys += 1
    return storeys if f.d == hi else None


def test_criterion_07_towers_and_twisted_partners():
    with criterion(7, 60, "towers, chain-degree oracle, twisted partners"):
        for d in range(1, 9):
            nodes = tower(d, 5)
            assert len(nodes) == 6
            for m, node in enumerate(nodes):
                assert node.depth == m
                assert node.ns == FamilyDescriptor("M", (2**m) * d, 2)
                assert node.transcendental.rank == 13
                assert node.transcendental.signature == (2, 11)

        for d in range(1, 65):
            for e in range(1, 65):
                assert tower_related(d, e) == _chain_walk(d, e), (d, e)

        for m in (0, 1):
            for d in (1, 2):
                entries = mukai_twisted_check(m, d)
                assert entries
                assert all(e["status"] == "pass" for e in entries)


# ---------------------------------------------------------------------------
# 8. Milgram's identity across the whole catalog
# ---------------------------------------------------------------------------


def test_criterion_08_milgram_matches_signature_everywhere():
    with criterion(8, 10, "Milgram invariant = signature mod 8, full catalog"):
        lattices = [build() for _, build in _catalog_builders()]
        assert lattices
        for lat in lattices:
            sp, sm = lat.signature
            q = discriminant_form(lat)
            assert (milgram_signature(q) - (sp - sm)) % 8 == 0, lat.label


# ---------------------------------------------------------------------------
# 9. Isotropic subgroups, quotient forms and M_n glue words against
#    exhaustive brute force
# ---------------------------------------------------------------------------


def _elements(q):
    return [tuple(x) for x in product(*[range(o) for o in q.orders])]


def _add(q, x, y):
    return q.reduce(tuple(a + b for a, b in zip(x, y)))


def _closure(q, gens, cap):
    """Subgroup generated by gens, or None once it grows past cap."""
    zero = (0,) * q.rank
    members = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = _add(q, x, g)
            if y not in members:
                if len(members) >= cap:
                    return None
                members.add(y)
                frontier.append(y)
    return frozenset(members)


def _brute_isotropic(q, order):
    """All subgroups of the given order on which q vanishes, found by closing
    every <= 3-element generating set of isotropic elements (3 generators
    suffice for abelian groups of order <= 8)."""
    iso = [
        x
        for x in _elements(q)
        if q.q_value(x) == 0 and order % q.element_order(x) == 0
    ]
    found = set()
    for r in (1, 2, 3):
        for gens in combinations(iso, r):
            h = _closure(q, gens, order)
            if h is not None and len(h) == order:
                if all(q.q_value(x) == 0 for x in h):
                    found.add(h)
    return found


def _coset_order(q, x, h_elements):
    k = 1
    while q.reduce(tuple(k * a for a in x)) not in h_elements:
        k += 1
    return k


def _check_quotient(q, sub):
    """Validate quotient_form(q, sub) coset by coset."""
    qq = quotient_form(q, sub.gens)
    h_set = set(sub.elements)
    perp = [
        x
        for x in _elements(q)
        if all(q.b_value(x, g) == 0 for g in sub.elements)
    ]
    assert len(perp) * sub.order == q.group_order
    cosets = {}
    for x in perp:
        rep = min(_add(q, x, g) for g in sub.elements)
        cosets.setdefault(rep, []).append(x)
    assert len(cosets) * sub.order == len(perp)
    for rep, members in cosets.items():
        assert len({q.q_value(x) for x in members}) == 1, "q not coset-constant"
    assert qq.group_order == len(cosets)
    want_values = Counter(q.q_value(rep) for rep in cosets)
    want_orders = Counter(_coset_order(q, rep, h_set) for rep in cosets)
    qq_elems = _elements(qq)
    assert Counter(qq.q_value(y) for y in qq_elems) == want_values
    assert Counter(qq.element_order(y) for y in qq_elems) == want_orders
    assert milgram_signature(qq) == milgram_signature(q)


def _fold(config, x):
    """x with each coordinate i of an A_m block folded to min(i, m + 1 - i),
    and the folded coordinates of equal-size blocks sorted in config order:
    the one word of its class under the flips and swaps of the root sum."""
    folded = [min(c, m + 1 - c) for c, m in zip(x, config)]
    out = list(folded)
    for size in set(config):
        at = [j for j, m in enumerate(config) if m == size]
        for j, c in zip(at, sorted(folded[j] for j in at)):
            out[j] = c
    return tuple(out)


# every A_m root sum, m <= 7 (the block sizes of M_n), with |A| <= 64, in
# ascending block order and, where the sizes differ, reversed
_A_SUMS = [c for k in range(1, 7) for c in combinations_with_replacement(range(1, 8), k)
           if prod(m + 1 for m in c) <= 64]
_A_SUMS += [c[::-1] for c in _A_SUMS if len(set(c)) > 1]


def _check_glue_words(config, n):
    """The words `build_Mn` judges on the root sum `config`: each listed
    word has order n and q = 0, and every cyclic isotropic subgroup of
    order n has a generator that folds onto a listed word."""
    q = _block_disc(config)[1].form
    listed = _cyclic_glue_codes(config, q, n)
    for y in listed:
        assert q.element_order(y) == n and q.q_value(y) == 0
    for h in _brute_isotropic(q, n):
        gens = [x for x in h if q.element_order(x) == n]
        assert not gens or any(_fold(config, x) in listed for x in gens), (config, n)


def test_criterion_09_subgroup_machinery_vs_brute_force():
    fixtures = [
        discriminant_form(named("A(1)")),
        discriminant_form(named("A(2)")),
        discriminant_form(named("A(3)")),
        discriminant_form(named("A(4)")),
        discriminant_form(named("D4")),
        discriminant_form(from_rows([[8]])),
        discriminant_form(direct_sum(from_rows([[4]]), from_rows([[-4]]))),
        u_block(2),
        u_block(3),
        u_block(4),
        u_block(6),
        sum_forms([u_block(2)] * 2),
        discriminant_form(named("N")),
    ]
    with criterion(
        9, 30, "isotropic subgroups, quotients and M_n glue words match brute force, |A| <= 64"
    ):
        for q in fixtures:
            assert q.group_order <= 64
            trivial = isotropic_subgroups(q, 1)
            assert [set(h.elements) for h in trivial] == [{(0,) * q.rank}]
            for order in range(2, 9):
                mine = isotropic_subgroups(q, order)
                keys = {frozenset(h.elements) for h in mine}
                assert len(keys) == len(mine), "duplicate subgroup returned"
                for h in mine:
                    assert h.order == order
                    assert _closure(q, h.gens, order + 1) == frozenset(
                        h.elements
                    )
                assert keys == _brute_isotropic(q, order)
                for h in mine:
                    _check_quotient(q, h)
        # the subgroup enumeration above is a test oracle; build_Mn lists
        # its glue with _cyclic_glue_codes, checked here on every small A_m sum
        for config in _A_SUMS:
            for n in range(2, 9):
                _check_glue_words(config, n)


# ---------------------------------------------------------------------------
# 10. Determinism of the whole verification surface
# ---------------------------------------------------------------------------


VERIFY_ALL_SHA256 = "fc6ca61ae78935cfc7f82d7d8bf532a7e3a558c2a7f7efcd3186a5c4ea1b5e6e"


def test_criterion_10_verify_all_is_byte_deterministic():
    cmd = [sys.executable, "-m", "k3lat.cli", "verify", "all", "--json"]
    with criterion(10, 1200, "two verify-all JSON runs are byte-identical"):
        first = subprocess.run(cmd, capture_output=True, timeout=600)
        second = subprocess.run(cmd, capture_output=True, timeout=600)
        assert first.returncode == 0, first.stderr.decode()[-2000:]
        assert second.returncode == 0, second.stderr.decode()[-2000:]
        assert first.stdout
        assert first.stdout == second.stdout
        # the bytes themselves are pinned too (the digest k3bench/golden.json
        # records): a faster kernel must not change any verdict or witness
        assert hashlib.sha256(first.stdout).hexdigest() == VERIFY_ALL_SHA256
