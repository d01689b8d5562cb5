"""Tests for the lattice catalog: named Grams, the M_n builders, the
rank-9 families and their membership classification.

The E8 entries are validated against the coordinate model from
test_lattice; the M_n builders against frozen rank/length/determinant
tables and a root-sublattice isometry check.
"""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import k3lat
from k3lat import catalog
from k3lat.catalog import (
    MN_LENGTH,
    MN_RANK,
    MN_ROOT_CONFIG,
    FamilyDescriptor,
    _block_disc,
    _cyclic_glue_codes,
    _glue_root_count,
    build_Mn,
    family_genus,
    family_lattice,
    membership_classification,
    named,
    omega_genus,
    resolve_name,
)
from k3lat.forms import (
    _normal_form,
    cyclic_block,
    forms_isomorphic,
    group_invariants,
    length,
    milgram_signature,
    split_u_block,
    sum_forms,
    u_block,
)
from k3lat.intmat import freeze, hnf_basis, mat_mul, transpose, vec_neg, vec_scale
from k3lat.lattice import (
    IntegralLattice,
    direct_sum,
    discriminant_form,
    discriminant_group,
    from_rows,
    gram_in_basis,
    root_count,
    short_vectors,
)
from k3lat.overlattice import (
    genus_equal,
    genus_lemma_quotient,
    genus_of,
    unique_in_genus_by_length,
)
from form_oracles import gauss_milgram_signature, quotient_form
from glue_oracles import (
    cyclic_isotropic_subgroups,
    glue_candidate,
    lattice_filter,
    orbit_classes,
    transvection_orbits,
)
from lattice_builders import rescale
from rational_oracles import (
    b_value,
    discriminant_gram_frac,
    elements,
    from_gram,
    q_gram,
    q_value,
    smith_gram_frac,
)
import search_oracles
from search_oracles import is_isometric_definite, isotropic_subgroups
from test_forms import assert_decides_like_the_search, assert_matches_closure_search, v_block
from test_intmat import _gl_conjugate
from test_lattice import E8  # coordinate-model oracle


# ---------------------------------------------------------------------------
# named lattices
# ---------------------------------------------------------------------------


def test_named_n_lattice():
    n = named("N")
    assert n.gram[0] == (-4, -1, -1, -1, -1, -1, -1, -1)
    assert all(n.gram[i][i] == -2 for i in range(1, 8))
    assert (n.rank, n.det, n.signature) == (8, 64, (0, 8))
    assert root_count(n) == 16
    assert n.is_even


def test_named_e8_rescalings_match_coordinate_model():
    e81 = named("E8(-1)")
    assert (e81.rank, e81.det, e81.signature) == (8, 1, (0, 8))
    assert root_count(e81) == 240
    assert is_isometric_definite(e81, rescale(E8, -1)) is not None
    e82 = named("E8(-2)")
    assert e82.gram == rescale(e81, 2).gram
    q = discriminant_form(e82)
    assert group_invariants(q.orders) == (2,) * 8
    assert forms_isomorphic(q, sum_forms([u_block(2)] * 4)) is not None


def test_named_small_entries():
    assert named("U").gram == ((0, 1), (1, 0))
    assert named("U(3)").gram == ((0, 3), (3, 0))
    assert named("A(1)").gram == ((-2,),)
    a3 = named("A(3)")
    assert a3.det == -4 and a3.signature == (0, 3)
    d4 = named("D4")
    assert (d4.rank, d4.det, d4.signature) == (4, 4, (0, 4))
    assert root_count(d4) == 24
    for bad in ("E7", "A(0)", "U(0)", "M", ""):
        with pytest.raises(ValueError):
            named(bad)


# ---------------------------------------------------------------------------
# build_Mn
# ---------------------------------------------------------------------------


def test_m2_is_the_nikulin_lattice():
    m2 = build_Mn(2)
    assert is_isometric_definite(m2, named("N")) is not None


@pytest.mark.parametrize("n", range(2, 9))
def test_mn_tables(n):
    m = build_Mn(n)
    assert m.rank == MN_RANK[n]
    assert m.signature == (0, MN_RANK[n])
    assert m.is_even
    assert length(discriminant_form(m)) == MN_LENGTH[n]
    config = MN_ROOT_CONFIG[n]
    # index-n glue: det of the A-type sum divided by n^2
    bare = 1
    for k in config:
        bare *= k + 1
    assert abs(m.det) * n * n == bare
    assert root_count(m) == sum(k * (k + 1) for k in config)


def _simple_roots(lat):
    """A base of the (-2)-root system: indecomposable positive roots with
    respect to a functional that is nonzero on every root."""
    roots = [v for r in short_vectors(lat, 2) for v in (r, vec_neg(r))]
    base = 2 * max(abs(c) for r in roots for c in r) + 1
    weights = [base ** i for i in range(lat.rank)]
    positive = [
        r for r in roots if sum(w * c for w, c in zip(weights, r)) > 0
    ]
    pos = set(positive)
    return [
        r
        for r in positive
        if not any(
            tuple(a - b for a, b in zip(r, p)) in pos for p in positive
        )
    ]


@pytest.mark.parametrize("n", range(2, 9))
def test_mn_root_sublattice_is_the_seeded_sum(n):
    m = build_Mn(n)
    simple = _simple_roots(m)
    assert len(simple) == m.rank
    # the base spans the same sublattice as the full root set
    assert hnf_basis([list(r) for r in simple]) == hnf_basis(
        [list(r) for r in short_vectors(m, 2)]
    )
    sub = IntegralLattice(gram_in_basis(m, simple))
    seed = direct_sum(*(named(f"A({k})") for k in MN_ROOT_CONFIG[n]))
    assert is_isometric_definite(sub, seed) is not None


def test_mn_build_reports_cyclic_glue():
    # each listed code is one isotropic glue word of order n
    for n in range(2, 9):
        config = MN_ROOT_CONFIG[n]
        q = _block_disc(config)[1].form
        codes = _cyclic_glue_codes(config, q, n)
        assert codes
        assert all(q.element_order(y) == n and q._q_int(y) == 0 for y in codes)


def test_mn_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_Mn(1)
    with pytest.raises(ValueError):
        build_Mn(9)


# per n: the cyclic glue words listed, and the words accepted among them
MN_BUILD_REPORTS = {
    2: (2, 1),
    3: (2, 1),
    4: (3, 1),
    5: (2, 1),
    6: (5, 1),
    7: (1, 1),
    8: (1, 1),
}


def root_count_accepts(config, q, n, y):
    """Whether the code-level judgement of `build_Mn` accepts the glue
    <y>, y of order n: the seeded root count."""
    code = [q.reduce(vec_scale(y, k)) for k in range(n)]
    return _glue_root_count(config, code) == sum(m * (m + 1) for m in config)


@pytest.mark.parametrize("n", range(2, 9))
def test_mn_build_report_is_pinned(n):
    reps, accepted = MN_BUILD_REPORTS[n]
    config = MN_ROOT_CONFIG[n]
    q = _block_disc(config)[1].form
    codes = _cyclic_glue_codes(config, q, n)
    assert len(codes) == reps
    assert sum(root_count_accepts(config, q, n, y) for y in codes) == accepted


# ---------------------------------------------------------------------------
# M_n glue codes against the BFS orbits and the glued lattices
# ---------------------------------------------------------------------------


def generator(s):
    """An element of the cyclic subgroup s that generates it."""
    return next(x for x in s.elements if s.form.element_order(x) == s.order)


def assert_glue_code_matches_the_lattices(config, n):
    """On the A_m root sum of `config` and its isotropic glue of order n:
    on one glue of each BFS orbit the code-level root count and length are
    those of the glued lattice.  Returns the root sum, its discriminant data
    and the cyclic glue."""
    lat, disc = _block_disc(config)
    q = disc.form
    subs = isotropic_subgroups(q, n)
    cyclic = [s for s in subs if any(q.element_order(x) == n for x in s.elements)]
    for h, *_ in orbit_classes(subs, config):
        z = glue_candidate(lat, disc, h)
        assert z.is_even and z.rank == lat.rank
        assert _glue_root_count(config, h.elements) == root_count(z)
        assert length(quotient_form(q, h.gens)) == length(discriminant_form(z))
    return lat, disc, cyclic


@pytest.mark.parametrize("n", range(2, 9))
def test_mn_glue_code_judgement_matches_the_lattice_filter(n):
    config = MN_ROOT_CONFIG[n]
    lat, disc, cyclic = assert_glue_code_matches_the_lattices(config, n)
    classes = orbit_classes(cyclic, config)
    reps = [cls[0] for cls in classes]
    q = disc.form
    codes = _cyclic_glue_codes(config, q, n)
    assert len(reps) == len(codes) == MN_BUILD_REPORTS[n][0]
    roots = sum(m * (m + 1) for m in config)
    # the lattice filter also tests the length, and it accepts what the
    # root count alone accepts
    accepted = lattice_filter(lat, disc, reps, MN_RANK[n], MN_LENGTH[n], roots)
    assert accepted == [s for s in reps if root_count_accepts(config, q, n, generator(s))]
    assert len(accepted) == 1
    # build_Mn glues the one listed word the root count accepts, which
    # generates a group of the accepted BFS orbit but need not be its first
    # member
    (y,) = [y for y in codes if root_count_accepts(config, q, n, y)]
    (glue,) = [s for s in classes[reps.index(accepted[0])] if y in s.elements]
    assert glue_candidate(lat, disc, glue).gram == build_Mn(n).gram


@st.composite
def a_sums_with_glue_order(draw):
    """A shuffled sum of A_m blocks, m <= 4, |A| <= 1000, with one block
    size repeated so that some order n > 1 has n^2 dividing |A|, and such
    an n."""
    m = draw(st.integers(1, 4))
    c = draw(st.integers(2, max(k for k in range(2, 10) if (m + 1) ** k <= 1000)))
    rest = draw(st.lists(st.integers(1, 4), max_size=3).filter(
        lambda r: (m + 1) ** c * prod(k + 1 for k in r) <= 1000))
    config = draw(st.permutations([m] * c + rest))
    size = prod(k + 1 for k in config)
    n = draw(st.sampled_from([d for d in range(2, 32) if size % (d * d) == 0]))
    return tuple(config), n


@settings(max_examples=25, deadline=None)
@given(a_sums_with_glue_order())
def test_glue_code_matches_the_lattices_on_small_a_sums(case):
    assert_glue_code_matches_the_lattices(*case)


def assert_listed_words_meet_every_orbit(config, n):
    """The listed glue words are complete: each generates a cyclic isotropic
    group of order n, and every BFS orbit of those groups has a group that
    holds a listed word."""
    _, disc = _block_disc(config)
    q = disc.form
    cyclic = cyclic_isotropic_subgroups(q, n)
    listed = _cyclic_glue_codes(config, q, n)
    # a word of order n lies in a cyclic group of order n exactly when it
    # generates it
    for y in listed:
        assert q.element_order(y) == n and any(y in s.elements for s in cyclic)
    for cls in orbit_classes(cyclic, config):
        assert any(y in s.elements for s in cls for y in listed)


@pytest.mark.parametrize("n", range(2, 9))
def test_mn_listed_words_have_the_tabled_length_and_distinct_orbits(n):
    # on M_n's root sums no listed word has another length than the table,
    # so a length judgement on the code would refuse none, and no two
    # listed words share a BFS orbit, so merging them by orbit merges none
    config = MN_ROOT_CONFIG[n]
    q = _block_disc(config)[1].form
    listed = _cyclic_glue_codes(config, q, n)
    assert all(length(quotient_form(q, (y,))) == MN_LENGTH[n] for y in listed)
    classes = orbit_classes(cyclic_isotropic_subgroups(q, n), config)
    orbit_of = [next(i for i, cls in enumerate(classes) for s in cls if y in s.elements)
                for y in listed]
    assert len(set(orbit_of)) == len(listed)


@pytest.mark.parametrize("n", range(2, 9))
def test_mn_listed_words_meet_every_orbit(n):
    assert_listed_words_meet_every_orbit(MN_ROOT_CONFIG[n], n)


@settings(max_examples=25, deadline=None)
@given(a_sums_with_glue_order())
def test_listed_words_meet_every_orbit_on_small_a_sums(case):
    assert_listed_words_meet_every_orbit(*case)


def test_build_mn_and_the_lemma_quotient_build_no_subgroup(monkeypatch):
    # the glue path carries the glue word alone: no subgroup listing its
    # elements is built for M_n or for a lemma quotient.  The package's
    # `isotropic_subgroups` only raises, so the plain calls below show that
    # nothing enumerates subgroups; the oracle's `Subgroup` is refused too
    grams = {n: build_Mn(n).gram for n in range(2, 9)}

    def genera():
        return [family_genus(FamilyDescriptor("Lp", 6, 3)),
                family_genus(FamilyDescriptor("Lp", 8, 4)),
                genus_lemma_quotient(4, 2, genus_of(named("U(2)")))]
    before = genera()

    def refuse(*args):
        raise AssertionError("a Subgroup was built")

    monkeypatch.setattr(search_oracles, "Subgroup", refuse)
    assert genera() == before
    for n in range(2, 9):
        assert build_Mn.__wrapped__(n).gram == grams[n]


@pytest.mark.parametrize("table,n,value,error,message", [
    (MN_LENGTH, 2, 5, ArithmeticError, "the glue for n=2 is not even of rank 8 and length 5"),
    (MN_ROOT_CONFIG, 3, (2,) * 5, RuntimeError, "seeded configuration for n=3 has the wrong rank"),
])
def test_build_mn_rejects_a_wrong_table(monkeypatch, table, n, value, error, message):
    monkeypatch.setitem(table, n, value)
    with pytest.raises(error, match=message):
        build_Mn.__wrapped__(n)


def test_build_mn_rejects_two_accepted_glue_codes(monkeypatch):
    monkeypatch.setattr(catalog, "_glue_root_count",
                        lambda config, elements: sum(m * (m + 1) for m in config))
    with pytest.raises(ArithmeticError, match="ambiguous construction for n=2"):
        build_Mn.__wrapped__(2)


def test_build_mn_rejects_a_root_count_that_no_glue_code_has(monkeypatch):
    monkeypatch.setattr(catalog, "_glue_root_count", lambda config, elements: 0)
    with pytest.raises(RuntimeError, match="no valid glue candidate for n=2"):
        build_Mn.__wrapped__(2)


def test_build_mn_checks_the_root_count_of_the_seeded_sum(monkeypatch):
    # an A_m sum always has sum m(m + 1) roots, so no seeded table can make
    # this check fail; a root count that is off by one pair does
    monkeypatch.setattr(catalog, "root_count", lambda lat: root_count(lat) + 2)
    with pytest.raises(ArithmeticError, match="seeded configuration for n=2 has the wrong root count"):
        build_Mn.__wrapped__(2)


# The code-level root count turned round for n = 2 accepts the glue of
# weight 4, which has the tabled length but 32 roots.  The glued lattice is
# checked again, so build_Mn must raise, also when `python -O` strips
# asserts.
_WRONG_M2 = """
import sys
if __debug__:
    sys.exit("asserts are enabled")
from k3lat import catalog
count = catalog._glue_root_count
accepted = []
def wrong(config, elements):
    seeded = sum(m * (m + 1) for m in config)
    roots = count(config, elements)
    if roots == seeded:
        return seeded + 1
    accepted.append(roots)
    return seeded
catalog._glue_root_count = wrong
try:
    catalog.build_Mn(2)
except ArithmeticError as exc:
    print(accepted)
    print(exc)
"""


def test_wrong_m2_glue_is_rejected_on_the_lattice_under_python_O():
    src = os.path.dirname(os.path.dirname(k3lat.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_M2],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines() == ["[32]", "the glue for n=2 does not have 16 roots"]


# omega_genus(2) checks its genus against that of E8(-2).  With that name
# resolving to the unimodular E8(-1), whose form is trivial, the two genera
# differ, and the check must raise, also when `python -O` strips asserts.
_WRONG_E8 = """
import sys
if __debug__:
    sys.exit("asserts are enabled")
from k3lat import catalog
named = catalog.named
catalog.named = lambda name: named("E8(-1)" if name == "E8(-2)" else name)
try:
    catalog.omega_genus.__wrapped__(2)
    print("accepted")
except ArithmeticError as exc:
    print(exc)
"""


def test_wrong_rank8_partner_is_rejected_under_python_O():
    src = os.path.dirname(os.path.dirname(k3lat.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_E8],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines() == ["the rank-8 partner genus is not that of E8(-2)"]


# ---------------------------------------------------------------------------
# glue groups against the closure and transvection searches
# ---------------------------------------------------------------------------


def q_of(name):
    return discriminant_group(named(name)).form


@pytest.mark.parametrize(
    "q,order",
    [(_block_disc(MN_ROOT_CONFIG[n])[1].form, n) for n in range(2, 9)]
    + [(q_of(name), order) for name in ("N", "E8(-2)") for order in (2, 4)],
)
def test_isotropic_subgroups_match_closure_search_on_glue_forms(q, order):
    assert_matches_closure_search(q, order)


def _conjugate(lat, seed):
    """U G U^T for a seeded U in GL_n(Z): row transvections, then a shuffle."""
    rng = random.Random(seed)
    n = lat.rank
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    rng.shuffle(u)
    return IntegralLattice(mat_mul(mat_mul(u, lat.gram), transpose(u)))


CATALOG_LATTICES = (
    [named(name) for name in ("U(2)", "U(3)", "A(1)", "A(2)", "A(3)", "A(4)", "D4",
                              "E8(-2)", "N")]
    + [_block_disc(MN_ROOT_CONFIG[n])[0] for n in range(2, 9)]
    + [family_lattice(FamilyDescriptor(kind, d, 2))
       for kind, ds in (("L", (1, 2, 3)), ("M", (1, 2, 4)), ("Mp", (2, 4)), ("Lp", (2, 4)))
       for d in ds]
)


def test_catalog_forms_against_the_oracles():
    # every catalog form: closed-form Milgram against the Gauss-sum walk,
    # one normal form for a GL_n(Z) conjugate, and, among forms on one
    # group, equal normal forms exactly when the search finds an isomorphism
    by_group = {}
    for seed, lat in enumerate(CATALOG_LATTICES):
        q = discriminant_form(lat)
        assert milgram_signature(q) == gauss_milgram_signature(q)
        conj = discriminant_form(_conjugate(lat, seed))
        assert _normal_form(conj).key == _normal_form(q).key
        assert forms_isomorphic(conj, q) is not None
        by_group.setdefault(group_invariants(q.orders), []).append(q)
    for qs in by_group.values():
        for q1, q2 in itertools.combinations(qs, 2):
            assert_decides_like_the_search(q1, q2)


def _smith_form_oracle(lat):
    """The discriminant form on the generators of the whole Gram's Smith
    form over Z, from the Fraction oracle."""
    return from_gram(*smith_gram_frac(lat.gram))


def test_genus_forms_are_the_discriminant_forms_on_the_catalog():
    # the p-local genus form of each catalog lattice and of a GL_n(Z)
    # conjugate against the whole Gram's Smith form over Z
    for seed, lat in enumerate(CATALOG_LATTICES):
        for conj in (lat, _conjugate(lat, seed)):
            assert forms_isomorphic(genus_of(conj).disc, _smith_form_oracle(conj)) is not None


@pytest.mark.parametrize("kind, d", [("L", 4), ("M", 8), ("Mp", 16), ("Lp", 16)])
@pytest.mark.parametrize("seed", range(3))
def test_genus_forms_are_the_discriminant_forms_on_family_conjugates(kind, d, seed):
    # the 9x9 conjugates of test_snf_matches_transform_oracle_on_family_conjugates
    rng = random.Random(f"snf:{kind}:{d}:{seed}")
    conj = IntegralLattice(_gl_conjugate(rng, family_lattice(FamilyDescriptor(kind, d, 2)).gram))
    assert forms_isomorphic(genus_of(conj).disc, _smith_form_oracle(conj)) is not None


def test_catalog_discriminant_forms_match_the_fraction_gram_oracle():
    # the integer table against the Fraction Gram of the same p-local Smith
    # forms, on each catalog lattice and on a GL_n(Z) conjugate of it
    for seed, lat in enumerate(CATALOG_LATTICES):
        for g in (lat.gram, _conjugate(lat, seed).gram):
            orders, gram = discriminant_gram_frac(g)
            q = discriminant_form(IntegralLattice(g))
            assert q == from_gram(orders, gram)
            assert q_gram(q) == gram


# The Mp/Lp(d,2) Grams as the glue gave them while `discriminant_group`
# read its generators off the Smith form over Z.  The u(2) pair that
# `find_u_block` gives now comes from the p-primary generators, so the glue
# vector and the printed Gram differ; by Witt's argument in
# `_primitive_index2_overlattice` the lattices are isometric.
OLD_INDEX2_GRAMS = {
    ("Mp", 2): (
        (0, -1, 0, 0, 0, 0, -1, -1, 0),
        (-1, -4, -1, -1, -1, -1, -1, -1, -1),
        (0, -1, -2, 0, 0, 0, 0, 0, 0),
        (0, -1, 0, -2, 0, 0, 0, 0, 0),
        (0, -1, 0, 0, -2, 0, 0, 0, 0),
        (0, -1, 0, 0, 0, -2, 0, 0, 0),
        (-1, -1, 0, 0, 0, 0, -2, 0, 0),
        (-1, -1, 0, 0, 0, 0, 0, -2, 0),
        (0, -1, 0, 0, 0, 0, 0, 0, -2),
    ),
    ("Mp", 4): (
        (0, -2, -1, 0, -1, -1, -1, 0, 0),
        (-2, -4, -1, -1, -1, -1, -1, -1, -1),
        (-1, -1, -2, 0, 0, 0, 0, 0, 0),
        (0, -1, 0, -2, 0, 0, 0, 0, 0),
        (-1, -1, 0, 0, -2, 0, 0, 0, 0),
        (-1, -1, 0, 0, 0, -2, 0, 0, 0),
        (-1, -1, 0, 0, 0, 0, -2, 0, 0),
        (0, -1, 0, 0, 0, 0, 0, -2, 0),
        (0, -1, 0, 0, 0, 0, 0, 0, -2),
    ),
    ("Mp", 6): (
        (2, -1, 0, 0, 0, 0, -1, -1, 0),
        (-1, -4, -1, -1, -1, -1, -1, -1, -1),
        (0, -1, -2, 0, 0, 0, 0, 0, 0),
        (0, -1, 0, -2, 0, 0, 0, 0, 0),
        (0, -1, 0, 0, -2, 0, 0, 0, 0),
        (0, -1, 0, 0, 0, -2, 0, 0, 0),
        (-1, -1, 0, 0, 0, 0, -2, 0, 0),
        (-1, -1, 0, 0, 0, 0, 0, -2, 0),
        (0, -1, 0, 0, 0, 0, 0, 0, -2),
    ),
    ("Mp", 8): (
        (2, -2, -1, 0, -1, -1, -1, 0, 0),
        (-2, -4, -1, -1, -1, -1, -1, -1, -1),
        (-1, -1, -2, 0, 0, 0, 0, 0, 0),
        (0, -1, 0, -2, 0, 0, 0, 0, 0),
        (-1, -1, 0, 0, -2, 0, 0, 0, 0),
        (-1, -1, 0, 0, 0, -2, 0, 0, 0),
        (-1, -1, 0, 0, 0, 0, -2, 0, 0),
        (0, -1, 0, 0, 0, 0, 0, -2, 0),
        (0, -1, 0, 0, 0, 0, 0, 0, -2),
    ),
    ("Mp", 16): (
        (6, -2, -1, 0, -1, -1, -1, 0, 0),
        (-2, -4, -1, -1, -1, -1, -1, -1, -1),
        (-1, -1, -2, 0, 0, 0, 0, 0, 0),
        (0, -1, 0, -2, 0, 0, 0, 0, 0),
        (-1, -1, 0, 0, -2, 0, 0, 0, 0),
        (-1, -1, 0, 0, 0, -2, 0, 0, 0),
        (-1, -1, 0, 0, 0, 0, -2, 0, 0),
        (0, -1, 0, 0, 0, 0, 0, -2, 0),
        (0, -1, 0, 0, 0, 0, 0, 0, -2),
    ),
    ("Lp", 2): (
        (0, 0, 0, 0, 1, -2, 1, 0, 0),
        (0, -4, 2, 0, 0, 0, 0, 0, 0),
        (0, 2, -4, 2, 0, 0, 0, 0, 0),
        (0, 0, 2, -4, 2, 0, 0, 0, 2),
        (1, 0, 0, 2, -4, 2, 0, 0, 0),
        (-2, 0, 0, 0, 2, -4, 2, 0, 0),
        (1, 0, 0, 0, 0, 2, -4, 2, 0),
        (0, 0, 0, 0, 0, 0, 2, -4, 0),
        (0, 0, 0, 2, 0, 0, 0, 0, -4),
    ),
    ("Lp", 4): (
        (0, 1, -2, 2, -2, 1, 0, 0, 0),
        (1, -4, 2, 0, 0, 0, 0, 0, 0),
        (-2, 2, -4, 2, 0, 0, 0, 0, 0),
        (2, 0, 2, -4, 2, 0, 0, 0, 2),
        (-2, 0, 0, 2, -4, 2, 0, 0, 0),
        (1, 0, 0, 0, 2, -4, 2, 0, 0),
        (0, 0, 0, 0, 0, 2, -4, 2, 0),
        (0, 0, 0, 0, 0, 0, 2, -4, 0),
        (0, 0, 0, 2, 0, 0, 0, 0, -4),
    ),
    ("Lp", 6): (
        (2, 0, 0, 0, 1, -2, 1, 0, 0),
        (0, -4, 2, 0, 0, 0, 0, 0, 0),
        (0, 2, -4, 2, 0, 0, 0, 0, 0),
        (0, 0, 2, -4, 2, 0, 0, 0, 2),
        (1, 0, 0, 2, -4, 2, 0, 0, 0),
        (-2, 0, 0, 0, 2, -4, 2, 0, 0),
        (1, 0, 0, 0, 0, 2, -4, 2, 0),
        (0, 0, 0, 0, 0, 0, 2, -4, 0),
        (0, 0, 0, 2, 0, 0, 0, 0, -4),
    ),
    ("Lp", 8): (
        (2, 1, -2, 2, -2, 1, 0, 0, 0),
        (1, -4, 2, 0, 0, 0, 0, 0, 0),
        (-2, 2, -4, 2, 0, 0, 0, 0, 0),
        (2, 0, 2, -4, 2, 0, 0, 0, 2),
        (-2, 0, 0, 2, -4, 2, 0, 0, 0),
        (1, 0, 0, 0, 2, -4, 2, 0, 0),
        (0, 0, 0, 0, 0, 2, -4, 2, 0),
        (0, 0, 0, 0, 0, 0, 2, -4, 0),
        (0, 0, 0, 2, 0, 0, 0, 0, -4),
    ),
    ("Lp", 16): (
        (6, 1, -2, 2, -2, 1, 0, 0, 0),
        (1, -4, 2, 0, 0, 0, 0, 0, 0),
        (-2, 2, -4, 2, 0, 0, 0, 0, 0),
        (2, 0, 2, -4, 2, 0, 0, 0, 2),
        (-2, 0, 0, 2, -4, 2, 0, 0, 0),
        (1, 0, 0, 0, 2, -4, 2, 0, 0),
        (0, 0, 0, 0, 0, 2, -4, 2, 0),
        (0, 0, 0, 0, 0, 0, 2, -4, 0),
        (0, 0, 0, 2, 0, 0, 0, 0, -4),
    ),
}


@pytest.mark.parametrize("kind, d", sorted(OLD_INDEX2_GRAMS))
def test_index2_family_grams_are_isometric_to_the_smith_form_glue(kind, d):
    # same genus, and the genus has one class: rank 9 >= 2 + length
    new = genus_of(family_lattice(FamilyDescriptor(kind, d, 2)))
    old = genus_of(IntegralLattice(OLD_INDEX2_GRAMS[kind, d]))
    assert genus_equal(new, old)
    assert unique_in_genus_by_length(new)


@pytest.mark.parametrize("n", range(2, 9))
def test_root_sum_block_forms_match_their_lifts(n):
    # the A_m blocks' form, built from adjugates, against q and b of the
    # lifts (first dual basis vectors, integer rows over the level) computed
    # in the lattice
    lat, data = _block_disc(MN_ROOT_CONFIG[n])
    k = data.form.rank
    assert all(type(x) is int for lift in data.lifts for x in lift)
    lifts = [[F(x, data.form.level) for x in lift] for lift in data.lifts]
    pair = [[sum(x * lat.gram[r][c] * y for r, x in enumerate(u) for c, y in enumerate(v))
             for v in lifts] for u in lifts]
    gram = tuple(tuple(pair[i][j] % (2 if i == j else 1) for j in range(k)) for i in range(k))
    assert q_gram(data.form) == gram
    assert data.form == from_gram(data.form.orders, gram)


# every 2-elementary form with integer values of rank at most 4
WITT_FORMS = {
    "u(2)": u_block(2),
    "v(2)": v_block(2),
    "u(2)+u(2)": sum_forms([u_block(2), u_block(2)]),
    "u(2)+v(2)": sum_forms([u_block(2), v_block(2)]),
    "v(2)+v(2)": sum_forms([v_block(2), v_block(2)]),
}


def brute_isometries(q):
    """O(q) by brute force: every tuple of generator images that keeps q
    and b and generates the group."""
    nonzero = [x for x in elements(q) if any(x)]
    cands = [[y for y in nonzero if q_value(q, y) == q_value(q, e)] for e in unit_vectors(q)]
    out = []
    for images in itertools.product(*cands):
        if any(
            b_value(q, images[i], images[j]) != q_gram(q)[i][j]
            for i in range(q.rank) for j in range(i)
        ):
            continue
        if len({apply(q, images, x) for x in elements(q)}) == q.group_order:
            out.append(images)
    return out


def unit_vectors(q):
    return [tuple(int(i == j) for j in range(q.rank)) for i in range(q.rank)]


def apply(q, images, x):
    return q.reduce(tuple(sum(c * y[t] for c, y in zip(x, images)) for t in range(q.rank)))


def orbits(q, group):
    """Orbits of the group on the nonzero elements, in element order."""
    out = []
    seen = set()
    for x in elements(q):
        if any(x) and x not in seen:
            orbit = {apply(q, g, x) for g in group}
            seen |= orbit
            out.append(orbit)
    return out


def q_classes(q, xs):
    classes = {}
    for x in xs:
        classes.setdefault(q_value(q, x), []).append(x)
    return list(classes.values())


@pytest.mark.parametrize("name", WITT_FORMS)
def test_isometry_orbits_are_the_q_classes(name):
    q = WITT_FORMS[name]
    nonzero = [x for x in elements(q) if any(x)]
    classes = q_classes(q, nonzero)
    assert sorted(map(sorted, orbits(q, brute_isometries(q)))) == sorted(map(sorted, classes))


@pytest.mark.parametrize("name", [*WITT_FORMS, "N", "E8(-2)"])
def test_transvection_orbits_lie_in_the_q_classes(name):
    q = WITT_FORMS[name] if name in WITT_FORMS else q_of(name)
    nonzero = [x for x in elements(q) if any(x)]
    classes = q_classes(q, nonzero)
    per_class = [transvection_orbits(q, c) for c in classes]
    # an orbit that met two classes would get one representative in the
    # whole list but one in each class
    assert sum(map(len, per_class)) == len(transvection_orbits(q, nonzero))
    if name in ("N", "E8(-2)"):
        # each nonzero q-class is one orbit (Witt), which is why the Mp/Lp
        # index-2 glue may take the first element of its q-class
        assert len(transvection_orbits(q, nonzero)) == len(classes)


def test_transvections_are_not_transitive_on_u2_u2():
    q = WITT_FORMS["u(2)+u(2)"]
    nonzero = [x for x in elements(q) if any(x)]
    group = brute_isometries(q)
    assert len(group) == 72
    assert len(orbits(q, group)) == 2
    assert len(transvection_orbits(q, nonzero)) == 3


# ---------------------------------------------------------------------------
# omega_genus
# ---------------------------------------------------------------------------


def test_omega_genus_rank8_case_is_e8_minus_2():
    assert genus_equal(omega_genus(2), genus_of(named("E8(-2)")))


def test_omega_genus_shapes():
    g3 = omega_genus(3)
    assert (g3.sig_plus, g3.sig_minus) == (0, 12)
    assert group_invariants(g3.disc.orders) == (3,) * 6
    g7 = omega_genus(7)
    assert group_invariants(g7.disc.orders) == (7,) * 3
    for n in range(2, 9):
        og = omega_genus(n)
        assert og.sig_minus == MN_RANK[n]
        assert length(og.disc) == 2 + MN_LENGTH[n]


# The theorem for every d = 0 mod 2n, one check per n.  Lp(d,n) has the
# form <1/2d> + A' with A' the complement of u(n) in q_Omega
# (`genus_lemma_quotient`), and M(d,n) = <2d> + M_n has <1/2d> + q_{M_n};
# both have signature (1, rank M_n).  So A' = q_{M_n} puts them in one genus
# for every such d.  The length of <1/2d> + q is at most 1 + length(q), and
# the rank is 1 + rank(M_n), so rank(M_n) >= 2 + length(q_{M_n}) makes the
# length criterion hold for every d.  (rank M_n, length q_{M_n}):
THEOREM_ROW = {2: (8, 6), 3: (12, 4), 4: (14, 4), 5: (16, 2), 6: (16, 2), 7: (18, 1), 8: (18, 2)}


@pytest.mark.parametrize("n", range(2, 9))
def test_the_theorem_holds_for_every_d_by_one_check_per_n(n):
    mn, og = build_Mn(n), omega_genus(n)
    _, rest = split_u_block(og.disc, n)
    q_mn = genus_of(mn).disc
    assert forms_isomorphic(rest, q_mn) is not None
    assert (og.sig_plus, og.sig_minus) == mn.signature
    rank, ell = THEOREM_ROW[n]
    assert (mn.rank, length(q_mn)) == (rank, ell)
    assert rank >= 2 + ell
    for d in (2 * n, 2 * n * 7):
        lp = genus_lemma_quotient(d, n, og)
        assert lp.disc == sum_forms([cyclic_block(2 * d, 1), rest])
        assert genus_equal(lp, family_genus(FamilyDescriptor("M", d, n)))


# ---------------------------------------------------------------------------
# family descriptors and lattices
# ---------------------------------------------------------------------------


def test_descriptor_validation():
    assert FamilyDescriptor("L", 5, 3).label == "L(5,3)"
    # only L and Lp past n = 2 lack a Gram
    assert [f.has_gram for f in (
        FamilyDescriptor("L", 1, 2), FamilyDescriptor("Lp", 2, 2),
        FamilyDescriptor("M", 1, 3), FamilyDescriptor("Mp", 2, 2),
        FamilyDescriptor("L", 1, 3), FamilyDescriptor("Lp", 6, 3))] == [True] * 4 + [False] * 2
    for bad in [
        ("UN", 1, 2),
        ("UE8", 1, 2),
        ("Mp", 3, 2),
        ("Mp", 2, 3),
        ("Lp", 3, 2),
        ("Lp", 4, 3),
        ("X", 1, 2),
        ("L", 0, 2),
        ("L", 1, 9),
        ("L", 1, 1),
    ]:
        with pytest.raises(ValueError):
            FamilyDescriptor(*bad)


def test_rank9_family_grams():
    l12 = family_lattice(FamilyDescriptor("L", 1, 2))
    assert l12.gram == direct_sum(from_rows([[2]]), named("E8(-2)")).gram
    m32 = family_lattice(FamilyDescriptor("M", 3, 2))
    assert m32.gram == direct_sum(from_rows([[6]]), build_Mn(2)).gram
    assert (l12.rank, l12.det, l12.signature) == (9, 512, (1, 8))
    assert (m32.rank, m32.det, m32.signature) == (9, 128 * 3, (1, 8))


def test_rank9_family_lengths_and_determinants():
    cases = {
        ("L", 1): (512, 9),
        ("L", 2): (1024, 9),
        ("Lp", 2): (256, 7),
        ("Lp", 4): (512, 7),
        ("M", 1): (128, 7),
        ("M", 2): (256, 7),
        ("Mp", 2): (64, 5),
        ("Mp", 4): (128, 5),
    }
    for (kind, d), (det, ln) in cases.items():
        lat = family_lattice(FamilyDescriptor(kind, d, 2))
        assert lat.rank == 9
        assert lat.signature == (1, 8)
        assert lat.det == det
        assert length(discriminant_form(lat)) == ln


def test_index2_families_keep_the_definite_part_primitive():
    # Lp/Mp determinants drop by 4 against the split sum, never by more
    for kind, d in [("Lp", 4), ("Lp", 8), ("Mp", 4), ("Mp", 8)]:
        lat = family_lattice(FamilyDescriptor(kind, d, 2))
        split = 512 * d if kind == "Lp" else 128 * d
        assert lat.det * 4 == split


def test_index2_glue_refuses_a_w_that_is_not_2_elementary():
    # q_A2(-1) is cyclic of order 3: Witt's theorem does not apply
    with pytest.raises(ArithmeticError, match="2-elementary"):
        catalog._primitive_index2_overlattice(2, named("A(2)"), "Mp(2,2)")


def test_mp_needs_even_parameter():
    with pytest.raises(ValueError):
        family_lattice(FamilyDescriptor("Mp", 3, 2))


def test_family_genus_level_for_higher_order():
    for kind in ("L", "Lp"):
        f = FamilyDescriptor(kind, 6, 3)
        assert not f.has_gram
        with pytest.raises(ValueError, match="no canonical Gram"):
            family_lattice(f)
    g = family_genus(FamilyDescriptor("L", 6, 3))
    assert (g.sig_plus, g.sig_minus) == (1, 12)
    target = sum_forms(
        [cyclic_block(12, 1), u_block(3), discriminant_form(build_Mn(3))]
    )
    assert forms_isomorphic(g.disc, target) is not None
    gp = family_genus(FamilyDescriptor("Lp", 6, 3))
    assert (gp.sig_plus, gp.sig_minus) == (1, 12)
    reduced = sum_forms(
        [cyclic_block(12, 1), discriminant_form(build_Mn(3))]
    )
    assert forms_isomorphic(gp.disc, reduced) is not None


def test_quotient_family_matches_direct_construction():
    # same parameter: the quotiented L-genus lands exactly on <2d> + M_n
    for n, d in [(3, 6), (5, 10)]:
        gp = family_genus(FamilyDescriptor("Lp", d, n))
        gm = family_genus(FamilyDescriptor("M", d, n))
        assert genus_equal(gp, gm)


@pytest.mark.parametrize("n", range(2, 9))
def test_quotient_pipeline_certifies_isometry(n):
    """For the three smallest admissible parameters, the index-n overlattice
    of the hyperbolic family lands in the genus of <2d> + M_n, and the
    length criterion promotes that to an isometry."""
    for d in (2 * n, 4 * n, 6 * n):
        gp = family_genus(FamilyDescriptor("Lp", d, n))
        gm = family_genus(FamilyDescriptor("M", d, n))
        assert genus_equal(gp, gm)
        assert unique_in_genus_by_length(gm)


def test_even_parameter_family_coincidence():
    # Lp(2d,2) and M(2d,2) are genus-equal with the length criterion
    # conclusive, for every 2d up to 24
    for d in range(1, 13):
        gp = family_genus(FamilyDescriptor("Lp", 2 * d, 2))
        gm = family_genus(FamilyDescriptor("M", 2 * d, 2))
        assert genus_equal(gp, gm)
        assert unique_in_genus_by_length(gm)


def test_rank10_models():
    un, ue8 = named("UN"), named("UE8")
    assert (un.label, ue8.label) == ("UN", "UE8")
    assert un.gram == direct_sum(named("U"), named("N")).gram
    assert ue8.gram == direct_sum(named("U"), named("E8(-2)")).gram
    assert genus_equal(genus_of(un), genus_of(ue8)) is False
    # but U(2) + N glued to index 2 matches U + E8(-2)'s genus partner:
    # covered in test_overlattice


# ---------------------------------------------------------------------------
# membership classification
# ---------------------------------------------------------------------------


def test_membership_shared_class():
    flags = membership_classification(family_lattice(FamilyDescriptor("M", 4, 2)))
    assert flags.covers_K3 and flags.covered_by_K3
    kinds = {f.kind for f in flags.matches}
    assert kinds == {"Lp", "M"}
    assert all(f.d == 4 for f in flags.matches)


def test_membership_one_sided_classes():
    flags = membership_classification(family_lattice(FamilyDescriptor("L", 1, 2)))
    assert flags.covers_K3 and not flags.covered_by_K3
    flags = membership_classification(family_lattice(FamilyDescriptor("M", 1, 2)))
    assert not flags.covers_K3 and flags.covered_by_K3


def test_membership_rejects_wrong_shape():
    with pytest.raises(ValueError):
        membership_classification(named("E8(-2)"))  # wrong rank/signature
    with pytest.raises(ValueError):
        # even hyperbolic rank 9, but determinant 2: no family class
        membership_classification(direct_sum(from_rows([[2]]), rescale(E8, -1)))


def test_membership_is_basis_invariant():
    lat = family_lattice(FamilyDescriptor("Lp", 2, 2))
    t = [[int(i == j) for j in range(9)] for i in range(9)]
    t[0][3] = 2
    t[5][1] = -1
    t[8][2] = 3
    moved = IntegralLattice(
        freeze(mat_mul(mat_mul(transpose(t), lat.gram), t))
    )
    a = membership_classification(lat)
    b = membership_classification(moved)
    assert (a.covers_K3, a.covered_by_K3, a.matches) == (
        b.covers_K3,
        b.covered_by_K3,
        b.matches,
    )


# ---------------------------------------------------------------------------
# name resolution
# ---------------------------------------------------------------------------


def test_resolve_name_dispatch():
    assert resolve_name("N") == named("N")
    assert resolve_name("M(3)") == build_Mn(3)
    assert resolve_name("M(3,2)").gram == direct_sum(
        from_rows([[6]]), build_Mn(2)
    ).gram
    assert resolve_name("UE8") == named("UE8")
    with pytest.raises(ValueError, match="no canonical Gram"):
        resolve_name("Lp(6,3)")
    g = family_genus(FamilyDescriptor("Lp", 6, 3))
    assert genus_equal(g, family_genus(FamilyDescriptor("M", 6, 3)))
    with pytest.raises(ValueError):
        resolve_name("Q(1,2)")
