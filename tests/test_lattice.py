"""Tests for integral lattices.

The root-system checks use an independent coordinate model (the D8 + glue
vector construction inside R^8 with its standard inner product), so Gram
based enumeration is validated against a completely separate description.
"""

import gc
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
    FiniteQuadraticForm,
    SearchBudgetExceeded,
    cyclic_block,
    forms_isomorphic,
    milgram_signature,
    sum_forms,
    u_block,
)
from k3lat.intmat import (
    det_int,
    freeze,
    hnf_basis,
    local_snf,
    mat_mul,
    prime_factors,
    signature,
    transpose,
)
from k3lat.lattice import (
    IntegralLattice,
    IsometryAction,
    diagonal_blocks,
    direct_sum,
    discriminant_form,
    discriminant_group,
    embedding_of,
    from_rows,
    gram_in_basis,
    invariant_split,
    is_primitive,
    orthogonal_complement,
    quotient_by_radical,
    radical,
    root_count,
    saturation,
    short_vectors,
    sublattice,
)
from lattice_builders import rescale
from rational_oracles import (
    discriminant_gram_frac,
    gram_in_basis_loops,
    smith_gram_frac,
    snf_with_transforms,
    solve_integral,
    symmetric_grams,
    unimodular_mats,
)
from search_oracles import is_isometric_definite

U = from_rows([[0, 1], [1, 0]])
A1 = from_rows([[2]])
A2 = from_rows([[2, 1], [1, 2]])


def neg(lat):
    return rescale(lat, -1)


# ---------------------------------------------------------------------------
# Coordinate-model oracle for the positive even unimodular rank-8 lattice
# ---------------------------------------------------------------------------


def build_e8_from_coordinates():
    """Basis and Gram from the D8 + half-sum glue model, scaled by 2."""
    gens = [[1] * 8]  # 2 * (1/2, ..., 1/2)
    for i in range(7):
        row = [0] * 8
        row[i], row[i + 1] = 2, -2
        gens.append(row)
    row = [0] * 8
    row[6] = row[7] = 2
    gens.append(row)
    basis2 = hnf_basis(gens)  # doubled coordinates
    gram = [
        [sum(a * b for a, b in zip(r1, r2)) // 4 for r2 in basis2]
        for r1 in basis2
    ]
    return basis2, freeze(gram)


def coordinate_model_roots():
    """All 240 norm-2 vectors of the model, in doubled coordinates."""
    roots = []
    for i, j in itertools.combinations(range(8), 2):
        for si in (2, -2):
            for sj in (2, -2):
                v = [0] * 8
                v[i], v[j] = si, sj
                roots.append(tuple(v))
    for signs in itertools.product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            roots.append(signs)
    return roots


E8_BASIS2, E8_GRAM = build_e8_from_coordinates()
E8 = IntegralLattice(E8_GRAM)


def test_e8_model_is_even_unimodular():
    assert E8.det == 1
    assert E8.is_even
    assert E8.signature == (8, 0)


def test_e8_root_count_matches_coordinate_model():
    roots = coordinate_model_roots()
    assert len(roots) == 240
    # every model root lies in the lattice (doubled coordinates)
    for v in roots:
        assert sum(x * x for x in v) == 8  # norm 2, doubled
        assert solve_integral(transpose(E8_BASIS2), v) is not None
    assert root_count(E8) == 240
    assert root_count(neg(E8)) == 240


def test_e8_has_no_odd_norm_vectors():
    assert short_vectors(E8, 1) == []
    assert short_vectors(E8, 3) == []
    assert [E8.norm(v) for v in short_vectors(E8, 4)] == [4] * 1080


# ---------------------------------------------------------------------------
# Basic structure
# ---------------------------------------------------------------------------


def test_constructor_validation():
    with pytest.raises(ValueError):
        from_rows([[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        from_rows([[0, 1]])


def test_basic_invariants():
    assert U.det == -1 and U.signature == (1, 1) and U.is_even
    assert A2.det == 3 and A2.signature == (2, 0)
    assert neg(A2).det == 3 and neg(A2).signature == (0, 2)
    assert from_rows([[1]]).is_even is False
    assert rescale(U, 2).gram == ((0, 2), (2, 0))
    s = direct_sum(U, A1)
    assert s.rank == 3 and s.det == -2
    assert s.pairing((1, 1, 1), (0, 1, 1)) == 3
    assert s.norm((1, 1, 1)) == 4
    assert (s.rank, s.det, s.signature) == (3, -2, (2, 1))
    e82 = rescale(E8, -2)
    assert (e82.rank, e82.det, e82.signature) == (8, 256, (0, 8))


def test_vectors_of_the_wrong_length_are_rejected():
    # a vector has exactly `rank` coordinates: a longer one is not cut down
    # to its first `rank` entries, and a shorter one is not padded
    swap = IsometryAction(U, ((0, 1), (1, 0)))
    for bad in ((1, 1, 7), (1,), ()):
        with pytest.raises(ValueError):
            U.norm(bad)
        with pytest.raises(ValueError):
            U.pairing((1, 0), bad)
        with pytest.raises(ValueError):
            U.pairing(bad, (1, 0))
        with pytest.raises(ValueError):
            gram_in_basis(U, [(1, 0), bad])
        with pytest.raises(ValueError):
            sublattice(U, [bad])
        with pytest.raises(ValueError):
            embedding_of(U, [bad])
        with pytest.raises(ValueError):
            swap.apply(bad)
    assert U.norm((1, 1)) == 2 and swap.apply((1, 7)) == (7, 1)


@st.composite
def _grams_and_bases(draw):
    gram = draw(symmetric_grams())
    n = len(gram)
    k = draw(st.integers(0, 7))
    rows = [tuple(draw(st.integers(-4, 4)) for _ in range(n)) for _ in range(k)]
    return gram, rows


@settings(max_examples=150, deadline=None)
@given(_grams_and_bases())
def test_gram_in_basis_matches_entry_loops(case):
    # k x n bases with k = 0, k < n, k = n and k > n, rank 0 included
    gram, rows = case
    lat = IntegralLattice(gram)
    got = gram_in_basis(lat, rows)
    assert got == gram_in_basis_loops(gram, rows)
    assert all(got[i][j] == lat.pairing(v, w)
               for i, v in enumerate(rows) for j, w in enumerate(rows))


def test_labels_do_not_affect_equality():
    named = from_rows([[2]], "A1")
    assert named.label == "A1"
    assert named == A1
    assert named.relabel(None) == A1
    assert hash(named) == hash(A1)


def test_rescale_must_stay_even():
    odd = from_rows([[1]])
    assert rescale(odd, 2).gram == ((2,),)
    with pytest.raises(ValueError):
        rescale(odd, 3)
    with pytest.raises(ValueError):
        rescale(U, 0)


def test_degenerate_flags():
    d = from_rows([[2, 2], [2, 2]])
    assert d.is_degenerate and d.det == 0
    assert not U.is_degenerate
    with pytest.raises(ValueError):
        discriminant_group(d)


# ---------------------------------------------------------------------------
# Discriminant groups
# ---------------------------------------------------------------------------


def check_discriminant_data(lat):
    """Structural oracle: lifts generate L*/L with the stated orders."""
    data = discriminant_group(lat)
    form = data.form
    # the lifts are integer rows over the level
    assert all(type(x) is int for lift in data.lifts for x in lift)
    lifts = [[F(x, form.level) for x in lift] for lift in data.lifts]
    n = lat.rank
    total = 1
    for o in form.orders:
        total *= o
    assert total == abs(lat.det)
    for o, lift in zip(form.orders, lifts):
        # lift pairs integrally with the lattice: it lies in the dual
        pair = [
            sum(lift[r] * lat.gram[r][s] for r in range(n)) for s in range(n)
        ]
        assert all(x.denominator == 1 for x in pair)
        # exact order o in Q^n / Z^n
        assert all((o * c).denominator == 1 for c in lift)
        for p in {f for f in range(2, o + 1) if o % f == 0}:
            if all(((o // p) * c).denominator == 1 for c in lift):
                assert False, "lift has smaller order than declared"
            break
        # Gram entries of the form match the lift pairings
    k = form.rank
    for i in range(k):
        qi = sum(
            lifts[i][r] * lat.gram[r][s] * lifts[i][s]
            for r in range(n)
            for s in range(n)
        )
        assert form.q_gram[i][i] == qi % 2
        for j in range(i):
            bij = sum(
                lifts[i][r] * lat.gram[r][s] * lifts[j][s]
                for r in range(n)
                for s in range(n)
            )
            assert form.q_gram[i][j] == bij % 1
    # independence: subgroup generated in Q^n/Z^n has order |det|
    if k:
        den = 1
        for lift in lifts:
            for c in lift:
                den = den * c.denominator // __import__("math").gcd(
                    den, c.denominator
                )
        rows = [[int(c * den) for c in lift] for lift in lifts]
        rows += [[den if i == j else 0 for j in range(n)] for i in range(n)]
        h = hnf_basis(rows)
        idx = 1
        for i, row in enumerate(h):
            idx *= row[i]
        assert den**n // idx == total


DISC_CASES = [
    U,
    rescale(U, 2),
    rescale(U, 3),
    A2,
    neg(A2),
    A1,
    rescale(A1, -3),
    direct_sum(A2, rescale(U, 2)),
    E8,
    rescale(E8, -1),
    rescale(E8, -2),
    from_rows([[2, 0], [0, 6]]),
    from_rows([[4, 1], [1, 4]]),
]


@pytest.mark.parametrize("lat", DISC_CASES)
def test_discriminant_group_structure(lat):
    check_discriminant_data(lat)


@pytest.mark.parametrize("gram", [[[2, 1], [1, 3]], [[3, 1], [1, 3]], [[3]]])
def test_discriminant_group_refuses_odd_lattices(gram):
    # q on L*/L is only defined when L is even; the refusal is not cached
    # away, so it holds on every call
    lat = from_rows(gram)
    for _ in range(2):
        with pytest.raises(ValueError, match="even lattice"):
            discriminant_group(lat)


def test_discriminant_group_is_shared_by_equal_grams():
    g = [[2, 1], [1, 4]]
    assert discriminant_group(from_rows(g, "a")) is discriminant_group(from_rows(g, "b"))


@pytest.mark.parametrize("lat", DISC_CASES)
def test_discriminant_lifts_are_columns_of_v_mod_their_order(lat):
    # V is that of local_snf mod p^k, one per p^k exactly dividing det:
    # the generators are its columns of order > 1, p ascending
    data = discriminant_group(lat)
    level = data.form.level
    det = abs(lat.det)
    orders, lifts = [], []
    for p in prime_factors(det):
        k = next(k for k in range(det.bit_length()) if det % p**(k + 1))
        for o, col in zip(*local_snf(lat.gram, p, k)):
            if o > 1:
                orders.append(o)
                lifts.append(tuple(level // o * (x % o) for x in col))
    assert data.form.orders == tuple(orders)
    assert data.lifts == tuple(lifts)
    assert all(0 <= x < level for lift in data.lifts for x in lift)


@st.composite
def _even_conjugate_pairs(draw):
    """A non-degenerate even Gram G and U G U^T for a random U in GL_n(Z)."""
    g = draw(symmetric_grams(min_rank=1, max_rank=4))
    n = len(g)
    g = tuple(tuple(2 * x if i == j else x for j, x in enumerate(row))
              for i, row in enumerate(g))
    assume(det_int(g) != 0)
    u = draw(unimodular_mats(n))
    return g, mat_mul(mat_mul(u, g), transpose(u))


@settings(max_examples=100, deadline=None)
@given(_even_conjugate_pairs())
def test_discriminant_form_matches_fraction_gram_oracle(pair):
    # the integer table equals the Fraction Gram (c_i^T G c_j) / d_i d_j of
    # the same p-local Smith forms, on G and on a GL_n(Z) conjugate; the two
    # forms are isomorphic, and so is the form on the generators of the
    # Smith form over Z
    forms = []
    for g in pair:
        orders, gram = discriminant_gram_frac(g)
        q = discriminant_form(from_rows(g))
        assert q == FiniteQuadraticForm.from_gram(orders, gram)
        assert q.q_gram == gram
        forms.append(q)
    assert forms_isomorphic(*forms) is not None
    assert forms_isomorphic(forms[0], FiniteQuadraticForm.from_gram(
        *smith_gram_frac(pair[0]))) is not None


def test_discriminant_forms_known():
    assert discriminant_form(U).rank == 0
    assert discriminant_form(E8).rank == 0
    assert (
        forms_isomorphic(discriminant_form(rescale(U, 2)), u_block(2))
        is not None
    )
    assert (
        forms_isomorphic(discriminant_form(neg(A2)), cyclic_block(3, F(4, 3)))
        is not None
    )
    # <2d> and its negative: cyclic of order 2d with q = +-1/(2d)
    for d in (1, 2, 3, 5):
        qp = discriminant_form(from_rows([[2 * d]]))
        qm = discriminant_form(from_rows([[-2 * d]]))
        assert forms_isomorphic(qp, cyclic_block(2 * d, F(1, 2 * d))) is not None
        assert forms_isomorphic(qm, cyclic_block(2 * d, F(-1, 2 * d) % 2)) is not None


def test_discriminant_form_of_doubled_even_unimodular():
    q = discriminant_form(rescale(E8, -2))
    assert q.orders == (2,) * 8
    assert forms_isomorphic(q, sum_forms([u_block(2)] * 4)) is not None


@settings(max_examples=100, deadline=None)
@given(st.lists(symmetric_grams(max_rank=3), min_size=1, max_size=4))
def test_block_sum_det_and_signature_match_the_whole_gram(grams):
    # the blocks rebuild the Gram and split no further, and their cached
    # det and signature, multiplied and summed, equal elimination on the
    # whole Gram
    lat = direct_sum(*map(from_rows, grams))
    blocks = diagonal_blocks(lat.gram)
    assert direct_sum(*map(IntegralLattice, blocks)).gram == lat.gram
    assert all(len(diagonal_blocks(b)) == 1 for b in blocks)
    assert len(blocks) >= sum(1 for g in grams if g)
    assert lat.det == det_int(lat.gram)
    assert lat.signature == signature(lat.gram)[:2]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            [U, rescale(U, 2), A2, neg(A2), A1, rescale(A1, -2), from_rows([[2, 0], [0, 6]])]
        ),
        min_size=1,
        max_size=3,
    )
)
def test_signature_identity_mod_8(parts):
    """Signature of the discriminant form equals the lattice signature mod 8."""
    lat = direct_sum(*parts)
    pos, neg_ = lat.signature
    assert milgram_signature(discriminant_form(lat)) == (pos - neg_) % 8


# ---------------------------------------------------------------------------
# Embeddings: saturation, complements, radicals
# ---------------------------------------------------------------------------

Z3 = from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 2]])


def test_embedding_validation():
    emb = embedding_of(direct_sum(U, A1), [(1, 0, 0), (0, 0, 1)])
    assert emb.sub.gram == ((0, 0), (0, 2))
    assert emb.vectors == ((1, 0, 0), (0, 0, 1))
    with pytest.raises(ValueError, match="rows are dependent"):
        embedding_of(Z3, [(1, 0, 0), (2, 0, 0)])
    from k3lat.lattice import Embedding

    with pytest.raises(ValueError, match="does not transport the form"):
        # the rows give diag(2, 2), not the hyperbolic plane
        Embedding(Z3, U, ((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError, match="wrong shape"):
        Embedding(Z3, A1, ((1, 0),))  # a row of length 2 in a rank-3 host
    with pytest.raises(ValueError, match="wrong shape"):
        Embedding(Z3, A1, ((1, 0, 0), (0, 1, 0)))  # two rows for a rank-1 sub


def test_saturation_and_primitivity():
    emb = embedding_of(Z3, [[2, 0, 0], [0, 3, 0]])
    sat = saturation(emb)
    assert sat.vectors == ((1, 0, 0), (0, 1, 0))
    assert not is_primitive(emb)
    assert is_primitive(sat)
    assert is_primitive(embedding_of(Z3, [[1, 2, 3]]))
    assert not is_primitive(embedding_of(Z3, [[2, 4, 6]]))
    # mixed: index-2 sublattice of a plane
    emb = embedding_of(Z3, [[1, 1, 0], [1, -1, 0]])
    sat = saturation(emb)
    d, _, _ = snf_with_transforms(sat.vectors)
    assert [d[i][i] for i in range(2)] == [1, 1]
    for r in emb.vectors:
        assert solve_integral(transpose(sat.vectors), r) is not None


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3),
        min_size=1,
        max_size=2,
    )
)
def test_saturation_properties(rows):
    if len(hnf_basis(rows)) != len(rows):
        return  # embeddings require independent images
    emb = embedding_of(Z3, rows)
    sat = saturation(emb)
    # same rational span: every input row solves in sat, ranks agree
    for r in rows:
        assert solve_integral(transpose(sat.vectors), r) is not None
    d, _, _ = snf_with_transforms(sat.vectors)
    assert all(d[i][i] == 1 for i in range(len(sat.vectors)))
    assert saturation(sat).vectors == sat.vectors
    assert is_primitive(sat)


def test_orthogonal_complement_basic():
    lat = direct_sum(U, A1)
    comp = orthogonal_complement(embedding_of(lat, [(1, 0, 0)]))
    # (1,0,0) pairs via U: x . (1,0,0) = x_2; complement is x_2 = 0
    assert comp.vectors == ((1, 0, 0), (0, 0, 1))
    assert comp.sub.is_degenerate  # (1,0,0) is isotropic and survives
    comp2 = orthogonal_complement(embedding_of(lat, [(0, 0, 1)]))
    assert comp2.vectors == ((1, 0, 0), (0, 1, 0))
    assert comp2.sub == U
    everything = orthogonal_complement(embedding_of(lat, []))
    assert everything.vectors == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_orthogonal_complement_properties():
    lat = direct_sum(A2, rescale(U, 2), A1)
    probe_sets = [
        [(1, 0, 0, 0, 0)],
        [(1, 1, 0, 0, 0), (0, 0, 1, 0, 0)],
        [(1, 0, 1, 0, 1)],
    ]
    for rows in probe_sets:
        comp = orthogonal_complement(embedding_of(lat, rows))
        for c in comp.vectors:
            for r in rows:
                assert lat.pairing(c, r) == 0
        assert is_primitive(comp)
        assert comp.sub.rank == lat.rank - len(rows)


def test_e8_complement_of_root_is_e7_like():
    root = short_vectors(E8, 2)[0]
    comp = orthogonal_complement(embedding_of(E8, [root]))
    sub = comp.sub
    assert sub.rank == 7
    assert sub.det == 2
    assert root_count(sub) == 126  # rank-7 root system of the chain type


def test_radical_and_quotient():
    d = from_rows([[2, 2, 0], [2, 2, 0], [0, 0, 4]])
    rad = radical(d)
    assert rad == ((1, -1, 0),)
    q, comp = quotient_by_radical(d)
    assert not q.is_degenerate
    assert q.rank == 2
    assert abs(q.det) == 8
    assert radical(U) == ()
    same, ident = quotient_by_radical(U)
    assert same == U and ident == ((1, 0), (0, 1))


@settings(max_examples=100, deadline=None)
@given(symmetric_grams(min_rank=1))
def test_quotient_by_radical_completes_the_radical(gram):
    # the radical rows and the complement rows form a basis of Z^n, and
    # the form on the complement is non-degenerate
    lat = from_rows(gram)
    rad = radical(lat)
    q, comp = quotient_by_radical(lat)
    assert abs(det_int(rad + comp)) == 1
    assert q == sublattice(lat, comp)
    assert q.rank == lat.rank - len(rad) and not q.is_degenerate


# ---------------------------------------------------------------------------
# Short vectors
# ---------------------------------------------------------------------------


def brute_short(lat, bound):
    """Box-search oracle: {norm: sign representatives} for every |norm| <= bound."""
    n = lat.rank
    # crude box: diagonal dominance bound on coordinates
    box = 8
    found = {m: set() for m in range(bound + 1)}
    for v in itertools.product(range(-box, box + 1), repeat=n):
        val = abs(lat.norm(v))
        if val <= bound:
            found[val].add(max(v, tuple(-x for x in v)))
    return found


@pytest.mark.parametrize(
    "lat,bound",
    [
        (A2, 8),
        (neg(A2), 8),
        (direct_sum(A1, rescale(A1, 3)), 12),
        (from_rows([[4, 1], [1, 4]]), 10),
        (neg(from_rows([[2, 1, 0], [1, 2, 1], [0, 1, 2]])), 6),
    ],
)
def test_short_vectors_match_brute_force(lat, bound):
    # brute box is wide enough for these cases; every norm up to the bound,
    # 0 (the zero vector) included, as sorted +- class representatives
    for norm, expect in brute_short(lat, bound).items():
        assert short_vectors(lat, norm) == sorted(expect), norm
    assert short_vectors(lat, -2) == []


def test_short_vectors_rejects_indefinite():
    with pytest.raises(ValueError):
        short_vectors(U, 2)
    with pytest.raises(ValueError):
        short_vectors(from_rows([[2, 2], [2, 2]]), 2)


# ---------------------------------------------------------------------------
# Isometry
# ---------------------------------------------------------------------------


def test_is_isometry():
    IsometryAction(U, ((0, 1), (1, 0)))
    IsometryAction(A2, ((0, 1), (1, 0)))
    for m in (((1, 0), (1, 1)), ((2, 0), (0, 2))):
        with pytest.raises(ValueError):
            IsometryAction(A2, m)


def test_isometric_after_base_change():
    t = freeze([[1, 1], [0, 1]])
    g2 = mat_mul(mat_mul(t, A2.gram), transpose(t))
    l2 = IntegralLattice(g2)
    found = is_isometric_definite(A2, l2)
    assert found is not None
    assert mat_mul(mat_mul(transpose(found), l2.gram), found) == A2.gram


def test_isometric_diag_vs_skewed():
    l1 = from_rows([[2, 0], [0, 2]])
    l2 = from_rows([[4, 2], [2, 2]])
    assert is_isometric_definite(l1, l2) is not None
    n1, n2 = neg(l1), neg(l2)
    assert is_isometric_definite(n1, n2) is not None


def test_non_isometric_same_determinant():
    l1 = from_rows([[2, 0], [0, 6]])
    l2 = from_rows([[4, 2], [2, 4]])
    assert l1.det == l2.det == 12
    assert is_isometric_definite(l1, l2) is None
    assert is_isometric_definite(neg(l1), neg(l2)) is None
    assert is_isometric_definite(l1, A2) is None  # different determinant
    assert is_isometric_definite(l1, neg(l1)) is None  # different signature


def test_isometry_budget():
    with pytest.raises(SearchBudgetExceeded):
        is_isometric_definite(E8, E8, budget=3)


def test_isometry_search_leaves_no_cyclic_garbage():
    # The backtracking closure refers to itself; it must be freed when the
    # search ends, also when it ends by running out of budget.
    gc.collect()
    gc.disable()
    try:
        assert is_isometric_definite(A2, A2) is not None
        assert gc.collect() == 0
        with pytest.raises(SearchBudgetExceeded):
            is_isometric_definite(E8, E8, budget=3)
        assert gc.collect() == 0
    finally:
        gc.enable()


_CORRUPT_CERTIFICATES = """
import dataclasses
import sys
if __debug__:
    sys.exit("asserts are enabled")
from fractions import Fraction
from k3lat import forms, lattice
import search_oracles

# A basis change T1 for the first form that sends its generator to 3
# times its normal-basis image: an element of the same order with q-value
# 9/8, not 1/8.
q1 = forms.cyclic_block(8, Fraction(1, 8))
q2 = forms.cyclic_block(8, Fraction(1, 8))
normal_form = forms._normal_form
forms._normal_form = lambda q: dataclasses.replace(
    normal_form(q), coords=tuple(tuple(3 * c for c in row) for row in normal_form(q).coords)
) if q is q1 else normal_form(q)
try:
    print("forms", forms.forms_isomorphic(q1, q2))
except ArithmeticError:
    print("forms", "rejected")

# A pairing with its off-diagonal signs flipped: the search then accepts
# columns that do not carry one Gram matrix to the other.
a2 = lattice.from_rows([[2, 1], [1, 2]])
lattice.IntegralLattice.pairing = lambda self, v, w: sum(
    v[i] * (1 if i == j else -1) * self.gram[i][j] * w[j]
    for i in range(self.rank) for j in range(self.rank)
)
try:
    print("lattice", search_oracles.is_isometric_definite(a2, a2))
except ArithmeticError:
    print("lattice", "rejected")
"""


def test_corrupt_certificates_are_rejected_under_python_O():
    # The final re-checks of forms_isomorphic and of the isometry search
    # oracle must not be asserts, which `python -O` strips: a wrong answer
    # has to raise.
    src = os.path.dirname(os.path.dirname(k3lat.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_CERTIFICATES],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines() == ["forms rejected", "lattice rejected"]


def test_e8_self_isometry():
    t = is_isometric_definite(E8, E8)
    assert t is not None
    assert det_int(t) in (1, -1)


# ---------------------------------------------------------------------------
# Involutions
# ---------------------------------------------------------------------------


def test_isometry_action_validation():
    swap = IsometryAction(U, ((0, 1), (1, 0)))
    assert swap.is_involution
    assert swap.apply((3, 5)) == (5, 3)
    rot = IsometryAction(A2, ((0, 1), (-1, -1)))  # order three
    assert not rot.is_involution
    assert rot.compose(rot).compose(rot).matrix == ((1, 0), (0, 1))
    with pytest.raises(ValueError):
        IsometryAction(A2, ((1, 0), (0, -1)))  # involution, not an isometry
    with pytest.raises(ValueError):
        IsometryAction(A2, ((2, 0), (0, 2)))


def test_invariant_split_swap():
    lat = direct_sum(U, U)
    g = IsometryAction(
        lat,
        (
            (0, 0, 1, 0),
            (0, 0, 0, 1),
            (1, 0, 0, 0),
            (0, 1, 0, 0),
        ),
    )
    plus, minus = invariant_split(g)
    assert plus.sub.gram == ((0, 2), (2, 0))
    assert minus.sub.gram in (((0, -2), (-2, 0)), ((0, 2), (2, 0)))
    assert is_primitive(plus) and is_primitive(minus)
    assert plus.sub.rank == minus.sub.rank == 2


def test_invariant_split_identity_and_minus():
    lat = direct_sum(A1, A1)
    plus, minus = invariant_split(IsometryAction(lat, ((1, 0), (0, 1))))
    assert plus.sub.rank == 2 and minus.sub.rank == 0
    plus, minus = invariant_split(IsometryAction(lat, ((-1, 0), (0, -1))))
    assert plus.sub.rank == 0 and minus.sub.rank == 2


def test_invariant_split_rejects_non_involution():
    rot = IsometryAction(A2, ((0, 1), (-1, -1)))
    with pytest.raises(ValueError):
        invariant_split(rot)


def test_invariant_split_orthogonal_pieces():
    lat = direct_sum(A1, A1, A1)
    g = IsometryAction(lat, ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    plus, minus = invariant_split(g)
    for p in plus.vectors:
        for m in minus.vectors:
            assert lat.pairing(p, m) == 0
    assert plus.sub.rank + minus.sub.rank == 3
