"""Tests for overlattice glue, genus descriptors, and uniqueness-by-length.

Small-rank glue results are checked against a brute-force GL(2,Z) basis
change search, so the HNF construction is validated independently.
"""

import itertools
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import k3lat
from k3lat.forms import (
    _normal_form,
    cyclic_block,
    find_u_block,
    forms_isomorphic,
    length,
    milgram_signature,
    sum_forms,
    u_block,
)
from k3lat.intmat import adjugate, det_int, freeze, mat_mul, signature, transpose
from k3lat.lattice import (
    Embedding,
    IntegralLattice,
    direct_sum,
    discriminant_form,
    discriminant_group,
    from_rows,
    is_primitive,
)
from k3lat.overlattice import (
    GenusDescriptor,
    _glue_overlattice,
    _lift_of,
    _scaled_inverse,
    genus_equal,
    genus_lemma_quotient,
    genus_of,
    lemma_overlattice,
    unique_in_genus_by_length,
)
from form_oracles import quotient_form
from lattice_builders import rescale
from rational_oracles import glue_overlattice_by_solves, unimodular_mats
from search_oracles import isotropic_subgroups

U = from_rows([[0, 1], [1, 0]])
A2 = from_rows([[2, 1], [1, 2]])


def neg(lat):
    return rescale(lat, -1)


def rank2_equivalent(g1, g2, bound=5):
    """Brute-force search for T in GL(2,Z) with T^t g1 T = g2."""
    rng = range(-bound, bound + 1)
    for a, b, c, d in itertools.product(rng, repeat=4):
        if a * d - b * c not in (1, -1):
            continue
        t = ((a, b), (c, d))
        if mat_mul(mat_mul(transpose(t), g1), t) == freeze(g2):
            return True
    return False


# ---------------------------------------------------------------------------
# Glue along isotropic subgroups
# ---------------------------------------------------------------------------


def even_glues(lat, index):
    """(H, overlattice, embedding of lat) for each isotropic subgroup H of
    order `index` whose glue gives an even lattice."""
    disc = discriminant_group(lat)
    for h in isotropic_subgroups(disc.form, index):
        z, emb = _glue_overlattice(lat, [_lift_of(disc, g) for g in h.gens], disc.form.level)
        if z.is_even:
            yield h, z, emb


def test_index2_overlattice_of_split_rank2():
    lat = from_rows([[4, 0], [0, -4]])
    out = list(even_glues(lat, 2))
    assert len(out) == 1
    _, z, emb = out[0]
    assert z.det * 4 == lat.det
    # independent target: brute-force over half-integer glue vectors found
    # a single even index-2 overlattice, with this Gram
    assert rank2_equivalent(z.gram, ((4, 2), (2, 0)))
    # the embedding really is the inclusion: images span an index-2 sublattice
    assert emb.sub == lat
    assert emb.host == z


def test_index2_overlattice_of_twisted_hyperbolic_is_unimodular():
    for lat in (rescale(U, 2), from_rows([[2, 0], [0, -2]])):
        assert any(rank2_equivalent(z.gram, ((0, 1), (1, 0))) for _, z, _ in even_glues(lat, 2))


def test_index3_glue_of_opposite_a2_pair():
    lat = direct_sum(A2, neg(A2))
    hits = [z for _, z, _ in even_glues(lat, 3) if abs(z.det) == 1]
    assert hits
    g = genus_of(hits[0])
    assert genus_equal(g, genus_of(direct_sum(U, U)))
    # rank 4 >= 2 + 0 and indefinite: the genus has a single class
    assert unique_in_genus_by_length(g)


GLUE_CASES = [
    (from_rows([[4, 0], [0, -4]]), 2),
    (rescale(U, 2), 2),
    (direct_sum(rescale(U, 2), rescale(U, 2)), 2),
    (direct_sum(A2, neg(A2)), 3),
    (direct_sum(from_rows([[6]]), neg(A2)), 3),
]


@pytest.mark.parametrize("lat,index", GLUE_CASES)
def test_overlattice_determinant_and_quotient_form(lat, index):
    disc = discriminant_group(lat)
    for h, z, emb in even_glues(lat, index):
        assert z.det * index * index == lat.det
        assert (
            forms_isomorphic(discriminant_form(z), quotient_form(disc.form, h.gens))
            is not None
        )
        assert emb.sub == lat


@st.composite
def _glue_case(draw):
    """A glue fixture in a random basis, with glue from its isotropic
    subgroups or drawn from its whole discriminant group: integer rows over
    the level of the form."""
    lat, index = draw(st.sampled_from(GLUE_CASES))
    u = draw(unimodular_mats(lat.rank))
    moved = IntegralLattice(mat_mul(mat_mul(u, lat.gram), transpose(u)))
    disc = discriminant_group(moved)
    gens = [h.gens for h in isotropic_subgroups(disc.form, index)]
    gens.append(tuple(
        tuple(draw(st.integers(0, d - 1)) for d in disc.form.orders)
        for _ in range(draw(st.integers(0, 2)))
    ))
    glue = [_lift_of(disc, g) for g in draw(st.sampled_from(gens))]
    return moved, glue, disc.form.level


@settings(max_examples=80, deadline=None)
@given(_glue_case())
def test_glue_overlattice_matches_per_vector_solves(case):
    # the oracle reads the glue as Fractions; the glue over c times the
    # denominator must give the same lattice and embedding
    lat, glue, den = case
    lifts = [[F(x, den) for x in row] for row in glue]
    gram, rows = glue_overlattice_by_solves(lat.gram, lifts)
    integral = all(x.denominator == 1 for row in gram for x in row)
    for c in (1, 2, 3):
        scaled = [[c * x for x in row] for row in glue]
        if not integral:
            with pytest.raises(ArithmeticError):
                _glue_overlattice(lat, scaled, c * den)
            continue
        z, emb = _glue_overlattice(lat, scaled, c * den)
        assert z.gram == gram
        assert emb.vectors == rows and emb.sub == lat


@st.composite
def _upper_triangular(draw):
    """A nonsingular upper-triangular integer matrix and a scale."""
    n = draw(st.integers(1, 5))
    b = [
        [draw(st.integers(-9, 9).filter(bool)) if i == j
         else draw(st.integers(-9, 9)) if j > i else 0 for j in range(n)]
        for i in range(n)
    ]
    return freeze(b), draw(st.integers(1, 12))


@settings(max_examples=150, deadline=None)
@given(_upper_triangular(), st.booleans())
def test_scaled_inverse_matches_adjugate(case, integral):
    b, den = case
    det_b, adj_b = adjugate(b)
    if integral:
        den *= det_b  # den * b^-1 is then integral
    if any(den * x % det_b for row in adj_b for x in row):
        with pytest.raises(ArithmeticError, match="does not embed"):
            _scaled_inverse(b, den)
        return
    assert _scaled_inverse(b, den) == tuple(
        tuple(den * x // det_b for x in row) for row in adj_b
    )


def test_u2_plus_n_has_an_overlattice_isometric_to_u_plus_n():
    from k3lat.catalog import named
    from k3lat.nsgeometry import _primed_model

    z, emb = _primed_model(named("N"))
    assert emb.sub == direct_sum(rescale(U, 2), named("N"))
    target = genus_of(direct_sum(U, named("N")))
    assert genus_equal(genus_of(z), target)
    # rank 10, length 6: the length criterion upgrades genus to isometry
    assert unique_in_genus_by_length(target)


# ---------------------------------------------------------------------------
# lemma_overlattice
# ---------------------------------------------------------------------------


def test_lemma_glue_over_e8_minus_2():
    from k3lat.catalog import named

    w = named("E8(-2)")
    z, emb = lemma_overlattice(4, 2, w)
    assert z.rank == 9
    assert z.signature == (1, 8)
    assert z.det == 512
    assert z.is_even
    target = sum_forms([cyclic_block(8, F(1, 8))] + [u_block(2)] * 3)
    assert forms_isomorphic(discriminant_form(z), target) is not None
    assert emb.host == z
    assert emb.sub == w
    assert is_primitive(emb)


def test_lemma_glue_order_3():
    # disc of A2 + A2(-1) is a hyperbolic u(3) pair, so the glue removes
    # the whole form except the rank-one part
    w = direct_sum(A2, neg(A2))
    z, emb = lemma_overlattice(6, 3, w)
    assert z.rank == 5
    assert z.det * 9 == 12 * 9
    assert forms_isomorphic(
        discriminant_form(z), cyclic_block(12, F(1, 12))
    ) is not None
    assert is_primitive(emb)


def test_lemma_identity_when_m_is_1():
    w = neg(A2)
    z, emb = lemma_overlattice(2, 1, w)
    assert z.gram == direct_sum(from_rows([[4]]), w).gram
    assert emb.sub == w


def test_lemma_congruence_violation():
    from k3lat.catalog import named

    w = named("E8(-2)")
    with pytest.raises(ValueError):
        lemma_overlattice(2, 2, w)


@pytest.mark.parametrize("d", [4, 8, 12])
def test_lemma_glue_is_the_lp_family_glue(d):
    # one glue rule: the lemma at m = 2 on E8(-2) and the Lp(d,2) family
    # take the same eps from find_u_block, so they give one Gram
    from k3lat.catalog import FamilyDescriptor, family_lattice, named

    z, _ = lemma_overlattice(d, 2, named("E8(-2)"))
    assert z.gram == family_lattice(FamilyDescriptor("Lp", d, 2)).gram


_CORRUPT_GLUE = """
import sys
if __debug__:
    sys.exit("asserts are enabled")
from fractions import Fraction
from k3lat import overlattice
from k3lat.catalog import _primitive_index2_overlattice, named
from k3lat.lattice import direct_sum, discriminant_form
from k3lat.nsgeometry import _primed_model

lift_of = overlattice._lift_of


def lemma(w):
    return lambda: overlattice.lemma_overlattice(4, 2, w)


def attempt(label, build, corrupt):
    overlattice._lift_of = corrupt
    try:
        build()
        print(label, "accepted")
    except ArithmeticError as exc:
        print(label, exc)
    finally:
        overlattice._lift_of = lift_of


def order_10(disc, coords):
    # every lift moved by 1/10 in each coordinate: the glue has order 10
    return tuple(x + Fraction(disc.form.level, 10) for x in lift_of(disc, coords))


attempt("order", lemma(direct_sum(named("U(2)"), named("U(5)"))), order_10)
# the Mp/Lp(d,2) families and the primed rank-10 models share the lemma's
# glue, and so its checks
attempt("index-2", lambda: _primitive_index2_overlattice(4, named("N"), "Mp(4,2)"),
        order_10)
attempt("primed", lambda: _primed_model(named("N")), order_10)
# both lifts replaced by that of an element of order 2 with q = 1: the
# glue keeps order 2, but its q-value is 1
qw = discriminant_form(named("E8(-2)"))
odd = next(x for x in qw.elements() if qw._q_int(x) == qw.level)
attempt("isotropy", lemma(named("E8(-2)")), lambda disc, coords: lift_of(disc, odd))
"""


def test_lemma_rejects_corrupt_glue_under_python_O():
    # the glue checks of _glue_one are `require` calls, which `python -O`
    # keeps: a lift of the wrong order or q-value must raise in each of the
    # three builders that glue through it
    src = os.path.dirname(os.path.dirname(k3lat.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_GLUE],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines() == [
        "order glue order does not divide m",
        "index-2 glue order does not divide m",
        "primed glue order does not divide m",
        "isotropy glue is not isotropic",
    ]


# A glued lattice that is not what the glue row asks for: _glue_overlattice
# is made to drop the row, or the row's head part, and genus_lemma_quotient
# is given a complement of u(2) of the right order but the wrong Arf
# invariant.  The checks after the glue are `require` calls, and the
# complement is refused by the isomorphism that `split_u_block` checks, so
# each must raise under `python -O`.
_WRONG_GLUE_RESULTS = """
import sys
if __debug__:
    sys.exit("asserts are enabled")
from k3lat import forms, overlattice
from k3lat.catalog import named

glue_overlattice = overlattice._glue_overlattice


def attempt(label, build):
    try:
        build()
        print(label, "accepted")
    except (ArithmeticError, ValueError) as exc:
        print(label, exc)


def lemma():
    return overlattice.lemma_overlattice(4, 2, named("E8(-2)"))


# no glue: the direct sum itself comes back, of index 1, not 2
overlattice._glue_overlattice = lambda lat, glue, den: glue_overlattice(lat, [], den)
attempt("index", lemma)
# the glue h/2 + eps without h/2: eps is isotropic of order 2, so E8(-2)
# is glued onto itself, with the right index and W not primitive
overlattice._glue_overlattice = lambda lat, glue, den: glue_overlattice(
    lat, [(0,) + tuple(row[1:]) for row in glue], den)
attempt("primitive", lemma)
overlattice._glue_overlattice = glue_overlattice
# q_E8(-2) = u(2)^4, and v(2) + u(2)^2 in place of u(2)^3: u(2) plus it is
# v(2) + u(2)^3, of the same order and another Arf invariant
complement_key = forms._complement_key
forms._complement_key = lambda q, m: [(2, 1, "v", 2)] + complement_key(q, m)[1:]
forms.split_u_block.cache_clear()
attempt("complement", lambda: overlattice.genus_lemma_quotient(
    4, 2, overlattice.genus_of(named("E8(-2)"))))
"""


def test_wrong_glue_results_are_refused_under_python_O():
    src = os.path.dirname(os.path.dirname(k3lat.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_GLUE_RESULTS],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines() == [
        "index glue changed the determinant by the wrong index",
        "primitive W is not primitively embedded",
        "complement no u(2) block found",
    ]


# A p-local Smith form that is not one: the kernel is made to drop a
# generator, or to return a column whose lift is not in L*.  The checks on
# its output are `require` calls, so each must raise under `python -O`, in
# a genus and in the glue and `disc` paths, which read `discriminant_group`.
_WRONG_LOCAL_SMITH = """
import sys
if __debug__:
    sys.exit("asserts are enabled")
from k3lat import lattice, overlattice
from k3lat.catalog import named
from k3lat.lattice import direct_sum, discriminant_group

local_snf = lattice.local_snf


def attempt(label, run, kernel):
    lattice.local_snf = kernel
    try:
        run()
        print(label, "accepted")
    except ArithmeticError as exc:
        print(label, exc)
    finally:
        lattice.local_snf = local_snf


def dropped(gram, p, k):
    # the generator of largest order becomes one of order 1
    orders, cols = local_snf(gram, p, k)
    return orders[:-1] + (1,), cols


def moved(gram, p, k):
    # every column gains e_0, whose image under the Grams of A(2) and A(5)
    # has odd entries and entries prime to 3
    orders, cols = local_snf(gram, p, k)
    return orders, tuple((c[0] + 1,) + c[1:] for c in cols)


attempt("dropped", lambda: overlattice.genus_of(direct_sum(named("U"), named("A(2)"))), dropped)
attempt("moved", lambda: overlattice.genus_of(named("A(2)")), moved)
attempt("glue", lambda: overlattice.lemma_overlattice(4, 2, named("E8(-2)")), dropped)
attempt("disc", lambda: discriminant_group(named("A(5)")), moved)
"""


def test_wrong_local_smith_forms_are_refused_under_python_O():
    src = os.path.dirname(os.path.dirname(k3lat.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_LOCAL_SMITH],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines() == [
        "dropped the 3-part of L*/L does not have order 3^1",
        "moved a lift of the 3-part of L*/L is not in L*",
        "glue the 2-part of L*/L does not have order 2^8",
        "disc a lift of the 2-part of L*/L is not in L*",
    ]


# `_glue_one` derives its glue eps = x + c*y from the pair `find_u_block`
# gives.  Planted here: for m = 3 on E8(-2), whose form has no u(3), a pair
# (x, 0) with x of order 2, so that eps has order 2, which does not divide
# 3.  The order check is a `require`, so the glue must be refused under
# `python -O`, in the lemma and in a direct call alike.
_WRONG_ORDER_PAIR = """
import sys
if __debug__:
    sys.exit("asserts are enabled")
from k3lat import overlattice
from k3lat.catalog import named
from k3lat.lattice import from_rows

w = named("E8(-2)")
q = overlattice.discriminant_group(w).form
x = next(x for x in q.elements() if any(x))
overlattice.find_u_block = lambda form, m: (x, (0,) * form.rank)
for label, build in (("lemma", lambda: overlattice.lemma_overlattice(6, 3, w)),
                     ("direct", lambda: overlattice._glue_one(from_rows([[2]]), (1,), w, 3, 1))):
    try:
        build()
        print(label, "accepted")
    except ArithmeticError as exc:
        print(label, exc)
"""


def test_glue_of_the_wrong_order_is_refused():
    src = os.path.dirname(os.path.dirname(k3lat.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_ORDER_PAIR],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines() == [
        "lemma glue order does not divide m",
        "direct glue order does not divide m",
    ]


@pytest.mark.parametrize("name", ["N", "E8(-2)"])
def test_primed_model_keeps_w_primitive(name):
    from k3lat.catalog import named
    from k3lat.nsgeometry import _primed_model

    w = named(name)
    z, emb = _primed_model(w)
    assert 4 * z.det == direct_sum(named("U(2)"), w).det
    assert is_primitive(Embedding(z, w, emb.vectors[2:]))


# ---------------------------------------------------------------------------
# genus descriptors
# ---------------------------------------------------------------------------


def test_genus_descriptor_validation():
    g = GenusDescriptor(1, 1, u_block(2))
    assert g.rank == 2
    assert g.is_indefinite
    with pytest.raises(ValueError):
        GenusDescriptor(1, 0, u_block(2))  # form invariant is 0, not 1 mod 8
    with pytest.raises(ValueError):
        GenusDescriptor(0, 0, u_block(2))  # rank below the length
    with pytest.raises(ValueError):
        GenusDescriptor(-1, 1, u_block(2))


def test_genus_of_requires_even_nondegenerate():
    with pytest.raises(ValueError):
        genus_of(from_rows([[1]]))
    with pytest.raises(ValueError):
        genus_of(from_rows([[0]]))
    with pytest.raises(ValueError):
        genus_of(from_rows([[2, 2], [2, 2]]))


def test_genus_of_is_cached_per_gram_and_raises_every_time():
    # equal Grams share one genus, labels aside; an odd lattice, or one
    # with a degenerate block, raises on every call, not once
    a = direct_sum(U, from_rows([[4]]))
    assert genus_of(a) is genus_of(a.relabel("again"))
    for bad in (from_rows([[2, 0], [0, 1]]), direct_sum(U, from_rows([[0]])),
                direct_sum(from_rows([[2, 2], [2, 2]]), U)):
        for _ in range(2):
            with pytest.raises(ValueError):
                genus_of(bad)


def test_rank10_genus_pair_agrees():
    from k3lat.catalog import named

    g1 = genus_of(direct_sum(U, named("E8(-2)")))
    g2 = genus_of(direct_sum(rescale(U, 2), named("N")))
    assert genus_equal(g1, g2)
    assert g1.rank == 10
    assert length(g1.disc) == 8


def test_rank10_genus_pair_with_different_groups_differs():
    from k3lat.catalog import named

    g1 = genus_of(direct_sum(U, named("D4"), named("D4")))
    g2 = genus_of(direct_sum(U, named("E8(-2)")))
    assert not genus_equal(g1, g2)
    assert genus_equal(g1, g1)


def _shear(n, i, j, c):
    m = [[int(r == s) for s in range(n)] for r in range(n)]
    m[i][j] = c
    return m


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 3), st.integers(0, 3), st.integers(-2, 2)
        ),
        max_size=5,
    )
)
def test_genus_equal_is_basis_invariant(ops):
    lat = direct_sum(rescale(U, 2), A2)
    g = [list(r) for r in lat.gram]
    for i, j, c in ops:
        if i == j:
            continue
        t = _shear(4, i, j, c)
        g = mat_mul(mat_mul(transpose(t), g), t)
    moved = IntegralLattice(freeze(g))
    assert genus_equal(genus_of(moved), genus_of(lat))


@st.composite
def _even_lattice_and_conjugate(draw):
    """An even non-degenerate lattice with |A| <= 256 and U G U^T for a
    random U in GL_n(Z)."""
    n = draw(st.integers(1, 4))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(st.integers(-3, 3)) * (2 if i == j else 1)
    assume(0 < abs(det_int(g)) <= 256)
    u = draw(unimodular_mats(n))
    return IntegralLattice(freeze(g)), IntegralLattice(mat_mul(mat_mul(u, g), transpose(u)))


@settings(max_examples=60, deadline=None)
@given(st.lists(_even_lattice_and_conjugate(), min_size=1, max_size=3))
def test_genus_of_a_block_sum_matches_the_whole_gram(cases):
    # the summed forms of the blocks against the discriminant form of the
    # whole block-diagonal Gram, up to isomorphism, with the signature and
    # Gauss-sum invariant of the whole Gram
    lat = direct_sum(*(conj for _, conj in cases))
    g, whole = genus_of(lat), discriminant_group(lat).form
    assert (g.sig_plus, g.sig_minus, 0, lat.det) == signature(lat.gram)
    assert forms_isomorphic(g.disc, whole) is not None
    assert milgram_signature(g.disc) == milgram_signature(whole)
    assert g.disc.group_order == abs(det_int(lat.gram))


@settings(max_examples=100, deadline=None)
@given(_even_lattice_and_conjugate())
def test_conjugate_discriminant_forms_are_isomorphic(case):
    # GL_n(Z) conjugates have one normal form, and the certificate built
    # from the two basis changes transports q and b
    lat, conj = case
    q1, q2 = discriminant_form(lat), discriminant_form(conj)
    assert _normal_form(q1).key == _normal_form(q2).key
    images = forms_isomorphic(q1, q2)
    assert images is not None
    gens = [tuple(int(i == j) for j in range(q1.rank)) for i in range(q1.rank)]
    for i, (g, x) in enumerate(zip(gens, images)):
        assert q2.q_value(x) == q1.q_value(g)
        for h, y in zip(gens[:i], images):
            assert q2.b_value(x, y) == q1.b_value(g, h)
    assert genus_equal(genus_of(lat), genus_of(conj))


def test_unique_by_length_criterion():
    from k3lat.catalog import named

    z, _ = lemma_overlattice(4, 2, named("E8(-2)"))
    g = genus_of(z)
    assert g.rank == 9
    assert length(g.disc) == 7
    assert unique_in_genus_by_length(g)
    # rank 1 can never satisfy rank >= 2 + length, and is definite anyway
    assert not unique_in_genus_by_length(genus_of(from_rows([[2]])))
    # definite genus of the same rank/length profile is inconclusive
    assert not unique_in_genus_by_length(
        GenusDescriptor(0, 8, sum_forms([u_block(2)] * 2))
    )


# ---------------------------------------------------------------------------
# genus_lemma_quotient
# ---------------------------------------------------------------------------


def test_genus_quotient_matches_lattice_level_glue():
    # the form-level quotient of <1/2d> + q_W and the glued lattice take
    # the same eps from find_u_block, and land in one genus
    from k3lat.catalog import named

    for name, m in [(f"U({m})", m) for m in range(2, 7)] + [("E8(-2)", 2)]:
        w = named(name)
        for d in (2 * m, 4 * m):
            z, _ = lemma_overlattice(d, m, w)
            out = genus_lemma_quotient(d, m, genus_of(w))
            assert (out.sig_plus, out.sig_minus) == z.signature
            assert genus_equal(out, genus_of(z)), (name, d)


def oracle_lemma_quotient(d, m, g_w):
    """The form of the lemma quotient by the subquotient oracle: H-perp/H
    in <1/2d> + q_W for the glue H = <2c*h + x + c*y>, c = d/m, with the
    u(m) pair (x, y) of `find_u_block`."""
    c = d // m
    x, y = find_u_block(g_w.disc, m)
    q = sum_forms([cyclic_block(2 * d, F(1, 2 * d)), g_w.disc])
    return quotient_form(q, (q.reduce((2 * c,) + tuple(a + c * b for a, b in zip(x, y))),))


def test_closed_form_quotient_is_the_subquotient_oracles():
    # <1/2d> + A' against H-perp/H, up to isomorphism and not only in
    # genus: the partners of M_n and U(m) for d = 2m*k, k <= 24, and
    # E8(-2) for d = 4..256
    from k3lat.catalog import named, omega_genus

    bases = ([(omega_genus(n), n) for n in range(2, 9)]
             + [(genus_of(named(f"U({m})")), m) for m in range(2, 7)])
    cases = [(g_w, m, 2 * m * k) for g_w, m in bases for k in range(1, 25)]
    cases += [(genus_of(named("E8(-2)")), 2, d) for d in range(4, 257, 4)]
    assert len(cases) == 352
    for g_w, m, d in cases:
        out = genus_lemma_quotient(d, m, g_w)
        assert (out.sig_plus, out.sig_minus) == (g_w.sig_plus + 1, g_w.sig_minus)
        assert forms_isomorphic(out.disc, oracle_lemma_quotient(d, m, g_w)) is not None, (m, d)


def test_genus_quotient_order_3():
    w = direct_sum(A2, neg(A2))
    out = genus_lemma_quotient(6, 3, genus_of(w))
    assert (out.sig_plus, out.sig_minus) == (3, 2)
    assert forms_isomorphic(out.disc, cyclic_block(12, F(1, 12))) is not None
    z, _ = lemma_overlattice(6, 3, w)
    assert genus_equal(out, genus_of(z))


def test_genus_quotient_m1_is_identity():
    # m = 1 glues nothing: the genus of <2d> + W itself
    g_w = genus_of(neg(A2))
    out = genus_lemma_quotient(2, 1, g_w)
    assert out == GenusDescriptor(1, 2, sum_forms([cyclic_block(4, F(1, 4)), g_w.disc]))
    assert genus_equal(out, genus_of(direct_sum(from_rows([[4]]), neg(A2))))


def test_genus_quotient_error_cases():
    g_w = GenusDescriptor(4, 4, u_block(2))
    with pytest.raises(ValueError, match="congruence violated"):
        genus_lemma_quotient(2, 2, g_w)
    with pytest.raises(ValueError, match="must be positive"):
        genus_lemma_quotient(0, 2, g_w)
    with pytest.raises(ValueError, match="no u"):
        # q_W has no u(3) summand
        genus_lemma_quotient(6, 3, g_w)
