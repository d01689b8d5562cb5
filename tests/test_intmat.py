"""Exact linear algebra kernel, checked against independent oracles."""

from __future__ import annotations

import ast
import gc
import itertools
import pathlib
import random
from fractions import Fraction
from math import isqrt, prod
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import k3lat
from k3lat.intmat import (
    adjugate,
    det_int,
    diagonal_blocks,
    fp_enumerate,
    hnf_basis,
    hnf_row,
    identity,
    inv_unimodular,
    kernel_int,
    ldl_int,
    local_snf,
    mat_mul,
    mat_vec,
    prime_factors,
    signature,
    transpose,
    xgcd,
)
from rational_oracles import (
    conjugated_grams,
    inv_frac,
    inv_gauss_jordan,
    ldl_frac,
    signature_frac,
    snf_with_transforms,
    solve_frac,
    unimodular_mats,
)

# --- independent oracles ---------------------------------------------------


def det_gauss(a):
    """Determinant by plain rational Gaussian elimination (oracle)."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    assert det.denominator == 1
    return int(det)


def charpoly(a):
    """Characteristic polynomial coefficients via Faddeev-LeVerrier (oracle)."""
    n = len(a)
    am = [[Fraction(x) for x in row] for row in a]
    m = [[Fraction(0)] * n for _ in range(n)]
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{k-1} I
        prev = m
        m = [
            [
                sum(am[i][l] * prev[l][j] for l in range(n))
                + (coeffs[-1] if i == j else 0)
                for j in range(n)
            ]
            for i in range(n)
        ]
        c = -sum(
            sum(am[i][l] * m[l][i] for l in range(n)) for i in range(n)
        ) / k
        coeffs.append(c)
    return coeffs  # p(x) = sum coeffs[k] * x^(n-k)


def signature_oracle(a):
    """Signature from sign variations of the characteristic polynomial.

    A real symmetric matrix has all-real eigenvalues, so Descartes' rule is
    exact: positive eigenvalue count = sign variations of p(x), negative =
    variations of p(-x), zero = multiplicity of the zero root.
    """
    n = len(a)
    coeffs = charpoly(a)

    def variations(cs):
        signs = [c for c in cs if c]
        return sum(1 for u, v in zip(signs, signs[1:]) if (u > 0) != (v > 0))

    zero = 0
    while coeffs[-1] == 0:
        coeffs.pop()
        zero += 1
    minus = [c * (-1) ** (len(coeffs) - 1 - k) for k, c in enumerate(coeffs)]
    return variations(coeffs), variations(minus), zero


def quad_value(g, x):
    return sum(g[i][j] * x[i] * x[j] for i in range(len(g)) for j in range(len(g)))


small_mats = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


def symmetrize(a):
    n = len(a)
    return tuple(tuple(a[i][j] + a[j][i] for j in range(n)) for i in range(n))


# --- tests -----------------------------------------------------------------


def test_xgcd_basics():
    for a, b in [(0, 0), (4, 6), (-4, 6), (7, 0), (0, -5), (12, 18), (-9, -6)]:
        g, s, t = xgcd(a, b)
        assert g == s * a + t * b
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


@settings(max_examples=120)
@given(small_mats)
def test_hnf_row_properties(a):
    h, u = hnf_row(a)
    assert mat_mul(u, a) == h
    assert abs(det_gauss(u)) == 1
    # echelon shape with positive pivots and reduced columns
    last = -1
    for row in h:
        if not any(row):
            continue
        piv = next(j for j, x in enumerate(row) if x)
        assert piv > last
        assert row[piv] > 0
        last = piv
    # canonical: HNF of the HNF is itself
    nz = tuple(row for row in h if any(row))
    assert hnf_basis(h) == nz


@st.composite
def wide_mats(draw):
    """Matrices up to 6x6 with entries up to 10^4 in absolute value: on
    some draws all multiples of a common factor, on some mostly zeros, so
    that corners go negative, the corner fails to divide an entry, and a
    non-unit corner meets a stray row."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = _wide_entries(draw)
    return [[draw(entry) for _ in range(n)] for _ in range(m)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_mats, wide_mats()))
def test_snf_properties(a):
    # the Smith form over Z of the oracle, against which local_snf and the
    # saturation and kernel tests are read
    d, u, v = snf_with_transforms(a)
    assert mat_mul(mat_mul(u, a), v) == d
    assert abs(det_gauss(u)) == 1
    assert abs(det_gauss(v)) == 1
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if x:
            assert y % x == 0
        else:
            assert y == 0


def _gl_conjugate(rng, gram, steps=40):
    """U G U^T for a random U in GL_n(Z): row transvections, then a row
    shuffle."""
    n = len(gram)
    u = [list(row) for row in identity(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    rng.shuffle(u)
    return mat_mul(mat_mul(u, gram), transpose(u))


@pytest.mark.parametrize("kind, d", [("L", 4), ("M", 8), ("Mp", 16), ("Lp", 16)])
@pytest.mark.parametrize("seed", range(3))
def test_snf_matches_transform_oracle_on_family_conjugates(kind, d, seed):
    # local_snf on 9x9 conjugates of the rank-9 family Grams, whose Smith
    # transforms over Z run to hundreds of bits, for each p | det
    rng = random.Random(f"snf:{kind}:{d}:{seed}")
    gram = k3lat.family_lattice(k3lat.FamilyDescriptor(kind, d, 2)).gram
    a = _gl_conjugate(rng, gram)
    for p in prime_factors(abs(det_int(a))):
        assert_local_snf_matches_the_oracle(a, p)


def _wide_entries(draw):
    """Entries up to 10^4 in absolute value, all multiples of one drawn
    factor, on some draws mostly zeros."""
    k = draw(st.sampled_from((1, 2, 6, 30)))
    entry = st.integers(-(10**4 // k), 10**4 // k).map(lambda x: k * x)
    if draw(st.booleans()):
        entry = st.one_of(st.just(0), entry)
    return entry


def _valuation(x, p):
    k = 0
    while x and x % p**(k + 1) == 0:
        k += 1
    return k


def assert_local_snf_matches_the_oracle(a, p):
    """local_snf(a, p, v_p(det a)) against the p-parts of the oracle's
    invariant factors: the same orders, columns reduced mod p^k with
    a @ col = 0 mod its order, and V invertible mod p when k > 0."""
    k = _valuation(det_int(a), p)
    d, _, _ = snf_with_transforms(a)
    orders, cols = local_snf(a, p, k)
    assert orders == tuple(p**_valuation(d[i][i], p) for i in range(len(a)))
    assert prod(orders) == p**k
    assert all(0 <= x < p**k for col in cols for x in col)
    for o, col in zip(orders, cols):
        assert not any(x % o for x in mat_vec(a, col))
    assert not k or det_int(cols) % p


@st.composite
def wide_nonsingular_mats(draw):
    """Square matrices up to 6x6 from `wide_mats`' entries, nonsingular."""
    n = draw(st.integers(1, 6))
    entry = _wide_entries(draw)
    a = [[draw(entry) for _ in range(n)] for _ in range(n)]
    assume(det_int(a))
    return a


@settings(max_examples=200, deadline=None)
@given(wide_nonsingular_mats(), st.sampled_from((2, 3, 5, 7)))
def test_local_snf_matches_the_transform_oracle_on_wide_entries(a, p):
    assert_local_snf_matches_the_oracle(a, p)


@settings(max_examples=60, deadline=None)
@given(unimodular_mats(5), unimodular_mats(5), st.integers(0, 6))
def test_local_snf_on_a_composite_determinant(u, w, a):
    # U diag(1, 1, 2^a, 3, 10) W has det 2^(a+1) * 3 * 5
    m = mat_mul(mat_mul(u, [[x if i == j else 0 for j in range(5)]
                            for i, x in enumerate((1, 1, 2**a, 3, 10))]), w)
    assert prime_factors(abs(det_int(m))) == [2, 3, 5]
    for p in (2, 3, 5):
        assert_local_snf_matches_the_oracle(m, p)


@settings(max_examples=40, deadline=None)
@given(unimodular_mats(4))
def test_local_snf_of_a_unimodular_matrix_has_no_generator(u):
    # det +-1: k = 0 for every p, and mod p^0 every row is one generator of
    # order p^0 = 1
    for p in (2, 3):
        orders, cols = local_snf(u, p, 0)
        assert orders == (1,) * 4
        assert cols == ((0,) * 4,) * 4


@pytest.mark.parametrize("gram, p, want", [
    (((4,),), 2, (4,)),
    (((2, 1, 0), (1, 2, 0), (0, 0, 8)), 2, (1, 1, 8)),
    (((2, 1, 0), (1, 2, 0), (0, 0, 8)), 3, (1, 1, 3)),
    (((0, 2), (2, 0)), 2, (2, 2)),
])
def test_local_snf_keeps_a_zero_block_as_one_generator(gram, p, want):
    # a cyclic p-part such as that of <2d> leaves a block that is 0 mod
    # p^k: one generator of order p^k
    assert local_snf(gram, p, _valuation(det_int(gram), p))[0] == want
    assert_local_snf_matches_the_oracle(gram, p)


@settings(max_examples=120)
@given(small_mats)
def test_det_matches_gauss_oracle(a):
    assert det_int(a) == det_gauss(a)


@settings(max_examples=120)
@given(small_mats)
def test_kernel_is_exact_and_saturated(a):
    k = kernel_int(a)  # basis rows, () when the kernel is 0
    assert len(hnf_basis(a)) + len(k) == len(a[0])
    for row in k:
        assert len(row) == len(a[0])
        assert all(x == 0 for x in mat_vec(a, row))
    # saturation: SNF invariants of the kernel basis are all 1
    if k:
        d, _, _ = snf_with_transforms(k)
        assert all(d[i][i] == 1 for i in range(len(k)))


@settings(max_examples=100)
@given(small_mats)
def test_signature_matches_charpoly_oracle(a):
    s = symmetrize(a)
    assert signature(s)[:3] == signature_oracle(s)
    assert signature(s)[3] == det_gauss(s)


def test_inverse_roundtrip():
    a = ((3, 1, 0), (1, 2, 1), (0, 1, 4))
    assert mat_mul(inv_frac(a), a) == tuple(
        tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)
    )
    u = ((1, 3, 0), (0, 1, 2), (0, 0, 1))
    assert mat_mul(inv_unimodular(u), u) == identity(3)
    for bad in (a, ((2, 0), (0, 1)), ((1, 2), (2, 4)), ((1, 0, 0), (0, 1, 0))):
        with pytest.raises(ValueError, match="not unimodular"):
            inv_unimodular(bad)
    with pytest.raises(ZeroDivisionError):
        inv_frac(((1, 2), (2, 4)))


def ldl_rebuild(p, rows, n):
    """The Gram sum_i r_i r_i^T / (p_{i-1} p_i) of ldl_int's data, each r_i
    padded with i leading zeros: G itself when G is positive definite."""
    prev = (1,) + tuple(p[:-1])
    out = [[Fraction(0)] * n for _ in range(n)]
    for i, (pi, pm, row) in enumerate(zip(p, prev, rows)):
        r = (0,) * i + tuple(row)
        for j in range(n):
            for k in range(n):
                out[j][k] += Fraction(r[j] * r[k], pm * pi)
    return tuple(map(tuple, out))


def ldl_frac_data(p, rows):
    """(d, l) of ldl_frac read off ldl_int's minors and Bareiss rows."""
    n = len(p)
    prev = (1,) + tuple(p[:-1])
    d = tuple(Fraction(pi, pm) for pi, pm in zip(p, prev))
    l = tuple(
        tuple(Fraction(rows[i][j - i], p[i]) if j > i else Fraction(0) for j in range(n))
        for i in range(n)
    )
    return d, l


def test_ldl_reconstructs_quadratic_form():
    g = ((4, 2, 0), (2, 3, 1), (0, 1, 5))
    p, rows = ldl_int(g)
    d, l = ldl_frac_data(p, rows)
    for x in itertools.product(range(-2, 3), repeat=3):
        q = sum(
            d[i] * (x[i] + sum(l[i][j] * x[j] for j in range(i + 1, 3))) ** 2
            for i in range(3)
        )
        assert q == quad_value(g, x)
    assert (d, l) == ldl_frac(g)
    assert ldl_rebuild(p, rows, 3) == g


def posdef_of(a):
    """a a^T + I, positive definite for any square integer matrix a."""
    n = len(a)
    aat = mat_mul(a, transpose(a))
    return tuple(tuple(x + (i == j) for j, x in enumerate(row)) for i, row in enumerate(aat))


@settings(max_examples=200, deadline=None)
@given(conjugated_grams())
def test_bareiss_signature_matches_rational_oracle(case):
    # h = U g U^T with det U = +-1 keeps the inertia and the determinant
    g, h = case
    assert signature(g)[:3] == signature_frac(g)
    assert signature(h)[:3] == signature_frac(h) == signature(g)[:3]
    assert signature(h)[3] == signature(g)[3] == det_int(g)


def test_diagonal_blocks_is_the_one_splitter():
    # lattice, genus and tower-storey Grams split by the same function;
    # the empty matrix has no block and the empty elimination gives det 1
    from k3lat import lattice, overlattice, towers

    assert lattice.diagonal_blocks is diagonal_blocks
    assert overlattice.diagonal_blocks is towers.diagonal_blocks is diagonal_blocks
    assert diagonal_blocks(()) == () and signature(()) == (0, 0, 0, 1)
    g = ((2, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, -2))
    assert diagonal_blocks(g) == (((2,),), ((0, 1), (1, 0)), ((-2,),))
    # an entry that joins the first and last index makes one block
    h = ((2, 0, 1), (0, 2, 0), (1, 0, 2))
    assert diagonal_blocks(h) == (h,)


def with_dependent_vector(g, c):
    """The Gram of e_1, ..., e_n and v = sum c_i e_i, degenerate."""
    col = mat_vec(g, c)
    return tuple(row + (x,) for row, x in zip(g, col)) + (col + (sum(map(mul, c, col)),),)


@settings(max_examples=200, deadline=None)
@given(conjugated_grams(), st.booleans(), st.lists(st.integers(-2, 2), min_size=5, max_size=5))
def test_one_elimination_gives_det_and_inertia(case, degenerate, c):
    # the symmetric pass's last pivot is the determinant, 0 when it is left
    # with a zero block, on Grams with a zero diagonal (the first of the
    # case, half the time) and on degenerate ones alike
    for g in case:
        if degenerate:
            g = with_dependent_vector(g, c[:len(g)])
        pos, neg, zero, det = signature(g)
        assert (pos, neg, zero) == signature_frac(g)
        assert det == det_int(g) == det_gauss(g)
        assert (det == 0) == (zero > 0)


@settings(max_examples=150, deadline=None)
@given(conjugated_grams())
def test_ldl_int_matches_rational_oracle(case):
    for a in case + tuple(posdef_of(a) for a in case):
        n = len(a)
        p, rows = ldl_int(a)
        # len(p) is the order of the largest positive definite leading block
        k = 0
        while k < n:
            try:
                ldl_frac([row[:k + 1] for row in a[:k + 1]])
            except ValueError:
                break
            k += 1
        assert len(p) == len(rows) == k
        assert all(len(row) == n - i for i, row in enumerate(rows))
        if k == n:
            assert ldl_frac_data(p, rows) == ldl_frac(a)
            assert ldl_rebuild(p, rows, n) == a


@settings(max_examples=150, deadline=None)
@given(conjugated_grams(), st.lists(st.integers(-9, 9), min_size=5, max_size=5))
def test_adjugate_solves_and_inverts_like_rational_oracle(case, b):
    for a in case:
        n = len(a)
        b = tuple(b[:n])
        if det_int(a) == 0:
            with pytest.raises(ZeroDivisionError):
                adjugate(a)
            with pytest.raises(ZeroDivisionError):
                inv_gauss_jordan(a)
            continue
        d, adj = adjugate(a)
        assert d == det_int(a)
        assert mat_mul(adj, a) == mat_mul(a, adj) == tuple(
            tuple(d * (i == j) for j in range(n)) for i in range(n))
        beta = tuple(Fraction(x, d) for x in mat_vec(adj, b))
        assert beta == solve_frac(a, b)
        assert inv_frac(a) == inv_gauss_jordan(a)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(unimodular_mats(n), small_mats)))
def test_inv_unimodular_matches_rational_oracle(case):
    u, a = case
    assert inv_unimodular(u) == inv_gauss_jordan(u)
    assert mat_mul(inv_unimodular(u), u) == identity(len(u))
    if abs(det_int(a)) != 1:
        with pytest.raises(ValueError, match="not unimodular"):
            inv_unimodular(a)
    else:
        assert inv_unimodular(a) == inv_gauss_jordan(a)


def brute_ellipsoid(g, value, box=8):
    """Every x in the box [-box, box]^n with Q(x) = value, sorted (oracle)."""
    return [x for x in itertools.product(range(-box, box + 1), repeat=len(g))
            if quad_value(g, x) == value]


def sign_representatives(hits):
    """The hits whose last nonzero coordinate is positive, and x = 0: one
    vector of each pair {x, -x}."""
    return [x for x in hits if not any(x) or [c for c in x if c][-1] > 0]


def test_fp_enumerate_matches_brute_force():
    cases = [
        (((2,),), 8),
        (((2, 1), (1, 2)), 6),
        (((2, 0), (0, 6)), 12),
        (((4, 2, 0), (2, 3, 1), (0, 1, 5)), 10),
    ]
    for g, top in cases:
        for value in range(-1, top + 1):
            brute = brute_ellipsoid(g, value)
            assert sorted(fp_enumerate(g, value, center=(0,) * len(g))) == brute
            # with no centre, one vector of each sign pair
            assert sorted(fp_enumerate(g, value)) == sign_representatives(brute)


def test_fp_enumerate_with_center():
    # the centre (1/2, 0) as (1, 0) over den = 2
    g = ((2, 1), (1, 2))
    for value in range(13):
        got = fp_enumerate(g, value, center=(1, 0), den=2)
        want = [x for x in itertools.product(range(-8, 9), repeat=2)
                if quad_value(g, (2 * x[0] + 1, 2 * x[1])) == value]
        assert sorted(got) == want, value


def test_fp_enumerate_rejects_indefinite():
    try:
        fp_enumerate(((2, 0), (0, -2)), 4)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError on indefinite input")


def test_fp_enumerate_rejects_a_den_below_one():
    for den in (0, -2):
        with pytest.raises(ValueError, match="den must be positive"):
            fp_enumerate(((2,),), 2, center=(1,), den=den)


def test_fp_enumerate_leaf_roots_on_either_side_of_a_box_bound():
    # (2 x + 1)^2 = 9 at x = -2 and x = 1: a box bound between the two
    # keeps one root, and a box around both keeps both, in ascending order
    g = ((1,),)
    for box, want in (((None, None), [(-2,), (1,)]), ((-1, None), [(1,)]),
                      ((None, 0), [(-2,)]), ((-2, 1), [(-2,), (1,)]),
                      ((-1, 0), [])):
        assert fp_enumerate(g, 9, center=(1,), den=2, box=[box]) == want, box
    # (3 x + 1)^2 = 4: 3 x + 1 = 2 has no integer root, 3 x + 1 = -2 has x = -1
    assert fp_enumerate(g, 4, center=(1,), den=3) == [(-1,)]
    # in rank 2 the last level sees both roots of each row x_1
    g = ((2, 1), (1, 2))
    shell = brute_ellipsoid(g, 14)
    assert sorted(fp_enumerate(g, 14, center=(0, 0))) == shell
    for lo in range(-3, 4):
        want = [x for x in shell if lo <= x[0]]
        got = fp_enumerate(g, 14, center=(0, 0), box=[(lo, None), (None, None)])
        assert sorted(got) == want, lo


def test_fp_enumerate_leaf_remainder_that_is_not_a_square_multiple():
    # 2 z^2 = rem at the leaf: rem odd (3), rem / 2 not a square (4, 6),
    # and rem / 2 a square (8) for comparison
    g = ((2,),)
    assert fp_enumerate(g, 3) == []
    assert fp_enumerate(g, 4) == []
    assert fp_enumerate(g, 6, center=(0,)) == []
    assert fp_enumerate(g, 8) == [(2,)]
    assert fp_enumerate(g, 8, center=(0,)) == [(-2,), (2,)]
    # on diag(2, 6) the rows x_1 = +-1 leave 2 z^2 = 8 - 6 = 2 (z = +-1) and
    # the row x_1 = 0 leaves 2 z^2 = 8 (z = +-2); level 10 leaves 4 and 10
    g = ((2, 0), (0, 6))
    assert sorted(fp_enumerate(g, 8, center=(0, 0))) == [
        (-2, 0), (-1, -1), (-1, 1), (1, -1), (1, 1), (2, 0)]
    assert fp_enumerate(g, 10, center=(0, 0)) == []


def test_fp_enumerate_level_below_zero_is_empty():
    g = ((4, 2, 0), (2, 3, 1), (0, 1, 5))
    for value in (-1, -7):
        assert fp_enumerate(g, value) == []
        assert fp_enumerate(g, value, center=(1, 0, -1), den=3) == []
        assert fp_enumerate((), value) == []


def test_fp_enumerate_value_off_the_class_of_the_centre_is_empty():
    # Q(2x + (1, 0)) = 2 + 4 (2 x_0 + x_1) + 4 Q(x) takes only values
    # 2 mod 4, so every other value has an empty shell, found without a
    # search; the values in the class still match the box scan
    g, center, den = ((2, 1), (1, 2)), (1, 0), 2
    for value in range(0, 80):
        got = fp_enumerate(g, value, center=center, den=den)
        assert sorted(got) == brute_shell(g, value, center, den), value
        if value % 4 != 2:
            assert got == [], value
    # rank 1, on its unit level: Q(3x + 1) = 5 + 30 x + 45 x^2 is 5 mod 15
    for value in range(0, 200):
        got = fp_enumerate(((5,),), value, center=(1,), den=3)
        assert sorted(got) == brute_shell(((5,),), value, (1,), 3), value


def test_fp_enumerate_rank_0():
    # the only vector of Z^0 is (), of value 0
    assert fp_enumerate((), 0) == [()]
    assert fp_enumerate((), 0, center=(), den=5, box=[]) == [()]
    assert fp_enumerate((), 2) == []
    with pytest.raises(ValueError, match="one \\(lo, hi\\) per coordinate"):
        fp_enumerate((), 0, box=[(0, 1)])


def scan_box(g, value, center, den):
    """Integer ranges that hold every x with Q(den x + center) = value >= 0:
    |den x_i + center_i| <= sqrt(value (G^-1)_ii)."""
    ginv = inv_frac(g) if g else ()
    box = []
    for i in range(len(g)):
        r = isqrt(int(value * ginv[i][i])) + 1
        box.append(range((-center[i] - r) // den, (r - center[i]) // den + 1))
    return box


def brute_shell(g, value, center, den):
    """Every x with Q(den x + center) = value, sorted, by a box scan (oracle)."""
    if value < 0:
        return []
    return [x for x in itertools.product(*scan_box(g, value, center, den))
            if quad_value(g, [den * xi + c for xi, c in zip(x, center)]) == value]


@st.composite
def fp_cases(draw):
    """A Gram B^T B with det B != 0, an integer centre over a denominator
    and one level: a shell through a lattice point or a shell at a random
    level, which may lie below 0."""
    n = draw(st.integers(0, 4))
    b = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    assume(det_int(b) != 0)
    g = mat_mul(transpose(b), b)
    den = draw(st.integers(1, 12))
    center = tuple(draw(st.lists(st.integers(-3 * den, 3 * den), min_size=n, max_size=n)))
    if draw(st.sampled_from(["hit", "shell"])) == "hit":
        x = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        value = quad_value(g, [den * xi + c for xi, c in zip(x, center)])
    else:
        value = draw(st.integers(-2 * den * den, 14 * den * den))
    return g, value, center, den


@settings(max_examples=300, deadline=None)
@given(fp_cases())
def test_fp_enumerate_against_box_scan(case):
    g, value, center, den = case
    assume(value < 0 or prod(map(len, scan_box(g, value, center, den))) <= 4000)
    got = fp_enumerate(g, value, center=center, den=den)
    assert sorted(got) == brute_shell(g, value, center, den)
    assert all(type(c) is int for x in got for c in x)
    if not any(center):
        assert sorted(fp_enumerate(g, value, den=den)) == sign_representatives(sorted(got))


@st.composite
def coordinate_boxes(draw, n, reach):
    """One inclusive (lo, hi) per coordinate: open, open on one side, a
    finite range, an empty range (lo > hi), or [-reach, reach]."""
    box = []
    for _ in range(n):
        lo, hi = sorted(draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2)))
        kind = draw(st.sampled_from(["open", "lower", "upper", "both", "empty", "wide"]))
        box.append({"open": (None, None), "lower": (lo, None), "upper": (None, hi),
                    "both": (lo, hi), "empty": (hi, lo - 1), "wide": (-reach, reach)}[kind])
    return box


def inside(hits, box):
    return [x for x in hits
            if all((lo is None or lo <= c) and (hi is None or c <= hi)
                   for c, (lo, hi) in zip(x, box))]


@settings(max_examples=300, deadline=None)
@given(fp_cases(), st.data())
def test_fp_enumerate_box_restricts_the_shell(case, data):
    # A box is a filter: with a centre and without one (sign
    # representatives), the result is the unboxed shell cut to the box.
    # `reach` lies past every scanned range, so a "wide" side holds the
    # whole shell.
    g, value, center, den = case
    zero = (0,) * len(g)
    scans = [scan_box(g, value, c, den) for c in (center, zero)] if value >= 0 else []
    assume(all(prod(map(len, scan)) <= 4000 for scan in scans))
    reach = 1 + max((max(-r.start, r.stop) for scan in scans for r in scan), default=0)
    box = data.draw(coordinate_boxes(len(g), reach))
    got = fp_enumerate(g, value, center=center, den=den, box=box)
    assert sorted(got) == inside(brute_shell(g, value, center, den), box)
    got = fp_enumerate(g, value, den=den, box=box)
    assert sorted(got) == inside(sign_representatives(brute_shell(g, value, zero, den)), box)


def test_fp_enumerate_box_on_sign_representatives():
    # The drawn shells above seldom hold a lattice point when the centre is
    # dropped, so every box here is tried on whole shells with no centre:
    # levels 0 and above, where the recursion starts a sign representative
    # at 0, None sides, an empty range and a box wider than the shell.
    cases = [
        (((2,),), 8),
        (((2, 1), (1, 2)), 6),
        (((4, 2, 0), (2, 3, 1), (0, 1, 5)), 10),
    ]
    for g, top in cases:
        n = len(g)
        for value in range(top + 1):
            shell = brute_ellipsoid(g, value)
            for box in ([(1, None)] * n, [(None, -1)] * n, [(None, None)] * (n - 1) + [(1, 2)],
                        [(-1, 0)] * n, [(2, 1)] + [(None, None)] * (n - 1), [(-9, 9)] * n):
                assert sorted(fp_enumerate(g, value, box=box)) == inside(
                    sign_representatives(shell), box), (g, value, box)
                assert sorted(fp_enumerate(g, value, center=(0,) * n, box=box)) == inside(
                    shell, box), (g, value, box)


def test_fp_enumerate_order_is_reproducible():
    # unsorted, in the recursion's order, which two calls repeat exactly
    g = ((4, 2, 0), (2, 3, 1), (0, 1, 5))
    for center, den, value in ((None, 1, 51), ((3, 0, -2), 6, 2084)):
        first = fp_enumerate(g, value, center=center, den=den)
        assert len(first) > 10
        assert fp_enumerate(g, value, center=center, den=den) == first


def test_fp_enumerate_order_is_the_documented_one():
    # x_{n-1} outermost, each range ascending, the roots x_0 of one x_1
    # ascending: the unsorted lists of two shells, as recorded before the
    # last two levels became one loop
    assert fp_enumerate(((4, 2, 0), (2, 3, 1), (0, 1, 5)), 54) == [
        (1, -5, 1), (4, -5, 1), (-3, -1, 1), (4, -1, 1), (-4, 3, 1),
        (1, 3, 1), (0, -3, 3), (3, -3, 3), (-1, 1, 3), (0, 1, 3)]
    g = ((2, 1), (1, 3))
    assert fp_enumerate(g, 138, center=(1, 0), den=2) == [
        (-3, -2), (4, -2), (-4, -1), (4, -1), (-5, 1), (3, 1), (-5, 2), (2, 2)]
    # -4 <= x_0 <= 3 keeps one of the two roots x_0 of each x_1
    assert fp_enumerate(g, 138, center=(1, 0), den=2, box=[(-4, 3), (None, None)]) == [
        (-3, -2), (-4, -1), (3, 1), (2, 2)]


def test_fp_enumerate_box_needs_one_range_per_coordinate():
    with pytest.raises(ValueError, match="one \\(lo, hi\\) per coordinate"):
        fp_enumerate(((2, 1), (1, 2)), 6, box=[(0, 1)])


def test_fp_enumerate_leaves_no_cyclic_garbage():
    # The recursion is a closure that refers to itself; it must be freed
    # when the enumeration ends.
    gc.collect()
    gc.disable()
    try:
        got = fp_enumerate(((2, 1), (1, 2)), 6, center=(1, 0), den=2)
        assert got
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_package_has_no_assert_statements():
    # `python -O` strips asserts; checks in the package use `require`.
    pkg = pathlib.Path(k3lat.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(pkg.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
