"""Tests for finite quadratic forms.

Oracles used here are deliberately independent of the implementation:
the signature invariant is checked against a floating-point Gauss sum and
the exact Gauss-sum walk, the normal form against the backtracking
isomorphism search and Nikulin's classification of 2-elementary forms,
subgroup/quotient routines against brute-force enumeration over all
group elements, and degeneracy against a direct adjoint scan.
"""

import cmath
import gc
import itertools
import math
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lat.forms import (
    FiniteQuadraticForm,
    NormalForm,
    SearchBudgetExceeded,
    _block_signature,
    _first_bad,
    _normal_form,
    cyclic_block,
    find_u_block,
    forms_isomorphic,
    group_invariants,
    length,
    milgram_signature,
    negate,
    sum_forms,
    trivial_form,
    u_block,
)
from k3lat.catalog import named
from k3lat.intmat import mat_mul, transpose
from k3lat.lattice import direct_sum, discriminant_form, from_rows
from form_oracles import (
    _gauss_counts,
    _quotient_structure,
    _value_classes,
    _value_multiset,
    backtrack_isomorphism,
    gauss_milgram_signature,
    is_degenerate,
    quotient_form,
    walk_u_block,
)
from glue_oracles import close_subgroup, closure_isotropic_subgroups, value_listing
from rational_oracles import (
    b_value,
    cyclic,
    elements,
    from_gram,
    group_invariants_snf,
    q_gram,
    q_value,
)
from search_oracles import isotropic_subgroups

# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def gauss_sum_signature_oracle(q):
    """Signature mod 8 via a numeric Gauss sum over the whole group.

    For a non-degenerate form the normalized sum has modulus 1 and its
    phase is 2*pi*sigma/8.
    """
    total = 0 + 0j
    for x in elements(q):
        total += cmath.exp(1j * math.pi * float(q_value(q, x)))
    total /= math.sqrt(q.group_order)
    assert abs(abs(total) - 1.0) < 1e-9, "oracle: degenerate form"
    sigma = round(4 * cmath.phase(total) / math.pi) % 8
    # the rounding must be unambiguous
    assert abs(cmath.exp(1j * math.pi * sigma / 4) - total) < 1e-9
    return sigma


def brute_subgroups(q, order):
    """All subgroups of the given order, as frozensets of element tuples.

    Closes every subset of at most three elements; subgroups of the orders
    exercised here (<= 8, abelian) need at most three generators.
    """
    elems = [x for x in elements(q)]
    found = set()
    for r in range(0, 4):
        for gens in itertools.combinations(elems, r):
            sub = close_subgroup(q, gens)
            if len(sub) == order:
                found.add(sub)
    return found


def brute_isotropic_subgroups(q, order):
    return {
        sub
        for sub in brute_subgroups(q, order)
        if all(q_value(q, x) == 0 for x in sub)
    }


def brute_perp(q, given):
    """All group elements pairing integrally with every given element."""
    return [
        x
        for x in elements(q)
        if all(b_value(q, x, h) == 0 for h in given)
    ]


def coset_profile(q, subgroup_elements):
    """Multiset of (coset order, q-value) over H-perp / H, computed directly."""
    perp = brute_perp(q, subgroup_elements)
    hset = set(subgroup_elements)
    seen = set()
    profile = {}
    for x in perp:
        coset = frozenset(
            q.reduce(tuple(a + b for a, b in zip(x, h))) for h in hset
        )
        if coset in seen:
            continue
        seen.add(coset)
        # order of x + H in the quotient: least k >= 1 with k*x in H
        k = 1
        y = x
        while tuple(y) not in hset:
            y = q.reduce(tuple(a + b for a, b in zip(y, x)))
            k += 1
        key = (k, q_value(q, x))
        profile[key] = profile.get(key, 0) + 1
    return profile


def form_profile(q):
    """Multiset of (element order, q-value) over all elements of a form."""
    profile = {}
    for x in elements(q):
        key = (q.element_order(x) if any(x) else 1, q_value(q, x))
        profile[key] = profile.get(key, 0) + 1
    return profile


def brute_is_degenerate(q):
    nonzero = [x for x in elements(q) if any(x)]
    return any(
        all(b_value(q, x, y) == 0 for y in elements(q)) for x in nonzero
    )


def regram(q, new_gens):
    """Present q on a new generating family (orders must be preserved)."""
    k = len(new_gens)
    gram = [[F(0)] * k for _ in range(k)]
    for i in range(k):
        gram[i][i] = q_value(q, new_gens[i])
        for j in range(i):
            gram[i][j] = gram[j][i] = b_value(q, new_gens[i], new_gens[j])
    orders = tuple(q.element_order(g) for g in new_gens)
    return from_gram(orders, tuple(tuple(r) for r in gram))


# a diagonal q = 1 analogue of the hyperbolic two-by-two block
def v_block(n):
    b = F(-1, n) % 1
    return from_gram((n, n), ((F(1), b), (b, F(1))))


# ---------------------------------------------------------------------------
# Construction and basic invariants
# ---------------------------------------------------------------------------


def test_validation_rejects_bad_data():
    with pytest.raises(ValueError):
        from_gram((2,), ((F(1, 3),),))  # denominator 3 on Z/2
    with pytest.raises(ValueError):
        from_gram((2, 2), ((F(0), F(1, 3)), (F(1, 3), F(0))))
    with pytest.raises(ValueError):
        from_gram((2, 2), ((F(0), F(0)), (F(1, 2), F(0))))  # asym
    with pytest.raises(ValueError):
        cyclic(3, F(1, 3))  # 9 * (1/3) = 3 is odd
    with pytest.raises(ValueError):
        cyclic(0, F(0))
    # q(1) = 1/8 but q(5) = 25/8 = 9/8 mod 2 although 5 = 1 mod 4
    with pytest.raises(ValueError):
        from_gram((4,), ((F(1, 8),),))
    with pytest.raises(ValueError):
        cyclic(4, F(1, 8))


def test_trivial_and_order_one_blocks():
    assert cyclic_block(1, 0) == trivial_form()
    assert u_block(1) == trivial_form()
    assert trivial_form().group_order == 1
    assert milgram_signature(trivial_form()) == 0


def test_q_and_b_are_consistent():
    q = sum_forms([u_block(2), cyclic(9, F(2, 9))])
    for x in elements(q):
        # polarization: q(x + y) - q(x) - q(y) = 2 b(x, y) in Q/2Z
        for y in [(1, 0, 0), (0, 1, 3), (1, 1, 1)]:
            s = q.reduce(tuple(a + b for a, b in zip(x, y)))
            lhs = (q_value(q, s) - q_value(q, x) - q_value(q, y)) % 2
            assert lhs == (2 * b_value(q, x, y)) % 2


def test_group_invariants_and_length():
    assert group_invariants((2, 2, 4, 3)) == (2, 2, 12)
    assert group_invariants((6, 4)) == (2, 12)
    assert group_invariants(()) == ()
    assert length(sum_forms([u_block(2), u_block(2)])) == 4
    assert length(sum_forms([cyclic(4, F(1, 4)), cyclic(3, F(2, 3))])) == 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from((1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 18, 25, 27, 36)),
                max_size=8))
def test_group_invariants_match_smith_form(orders):
    # 1s, the empty tuple and repeated prime powers all occur
    assert group_invariants(orders) == group_invariants_snf(orders)


def test_element_order():
    q = sum_forms([u_block(4), cyclic(6, F(1, 6))])
    assert q.element_order((0, 0, 0)) == 1
    assert q.element_order((2, 0, 3)) == 2
    assert q.element_order((1, 2, 2)) == 12


# ---------------------------------------------------------------------------
# Degeneracy
# ---------------------------------------------------------------------------


DEGENERACY_CASES = [
    u_block(2),
    u_block(3),
    cyclic(2, F(1, 2)),
    cyclic(3, F(4, 3)),
    cyclic(8, F(3, 8)),
    from_gram((2,), ((F(0),),)),  # zero form: degenerate
    cyclic(4, F(1)),  # q integral: degenerate pairing
    sum_forms([u_block(2), from_gram((2,), ((F(0),),))]),
]


@pytest.mark.parametrize("q", DEGENERACY_CASES)
def test_is_degenerate_matches_brute_force(q):
    assert is_degenerate(q) == brute_is_degenerate(q)
    # the Jordan splitting finds a unit pairing exactly on the others
    if brute_is_degenerate(q):
        with pytest.raises(ArithmeticError):
            _normal_form(q)
    else:
        assert _normal_form(q).key


# ---------------------------------------------------------------------------
# Signature invariant mod 8
# ---------------------------------------------------------------------------


SIGNATURE_CASES = [
    (u_block(2), 0),
    (u_block(3), 0),
    (u_block(4), 0),
    (cyclic(2, F(1, 2)), 1),
    (cyclic(2, F(3, 2)), 7),
    (cyclic(3, F(2, 3)), 2),
    (cyclic(3, F(4, 3)), 6),
    (cyclic(4, F(1, 4)), 1),
    (cyclic(4, F(7, 4)), 7),
    (cyclic(6, F(1, 6)), 1),
    (cyclic(6, F(11, 6)), 7),
    (cyclic(8, F(1, 8)), 1),
    (cyclic(9, F(2, 9)), 0),
    (cyclic(5, F(2, 5)), 0),
    (cyclic(5, F(4, 5)), 4),
    (cyclic(7, F(2, 7)), 2),
    (v_block(2), 4),
    (sum_forms([u_block(2)] * 4), 0),
    (sum_forms([cyclic(2, F(1, 2))] * 8), 0),
    (sum_forms([u_block(2), cyclic(9, F(2, 9))]), 0),
    (sum_forms([cyclic(4, F(1, 4)), cyclic(3, F(2, 3))]), 3),
]


@pytest.mark.parametrize("q,expected", SIGNATURE_CASES)
def test_milgram_signature_frozen_values(q, expected):
    assert milgram_signature(q) == expected


@pytest.mark.parametrize("q,_", SIGNATURE_CASES)
def test_milgram_signature_matches_gauss_oracle(q, _):
    assert milgram_signature(q) == gauss_sum_signature_oracle(q)


def test_milgram_rejects_degenerate():
    q = from_gram((2,), ((F(0),),))
    # the signature is cached per form; a raise must not be
    for _ in range(2):
        with pytest.raises(ArithmeticError):
            milgram_signature(q)


def test_milgram_additive_and_odd():
    parts = [
        cyclic(8, F(3, 8)),
        cyclic(9, F(4, 9)),
        u_block(5),
        cyclic(25, F(2, 25)),
    ]
    total = milgram_signature(sum_forms(parts))
    assert total == sum(milgram_signature(p) for p in parts) % 8
    assert milgram_signature(negate(sum_forms(parts))) == (-total) % 8


# blocks with denominators 2^a, p^a and mixed; all non-degenerate
def _block_strategy():
    def cyc_even(m, a):
        return cyclic(2 * m, F(a, 2 * m))

    def cyc_odd(n, a):
        return cyclic(n, F(2 * a, n))

    evens = st.tuples(
        st.sampled_from([1, 2, 4]), st.integers(1, 16)
    ).filter(lambda t: math.gcd(t[1], 2 * t[0]) == 1).map(lambda t: cyc_even(*t))
    odds = st.tuples(
        st.sampled_from([3, 5, 9, 7]), st.integers(1, 8)
    ).filter(lambda t: math.gcd(t[1], t[0]) == 1).map(lambda t: cyc_odd(*t))
    hyper = st.sampled_from([u_block(2), u_block(3), u_block(4), v_block(2)])
    return st.one_of(evens, odds, hyper)


@settings(max_examples=40, deadline=None)
@given(st.lists(_block_strategy(), min_size=1, max_size=3))
def test_milgram_signature_random_forms(blocks):
    q = sum_forms(blocks)
    if q.group_order > 4000:
        return
    assert milgram_signature(q) == gauss_sum_signature_oracle(q)


# ---------------------------------------------------------------------------
# Integer value path against the Fraction Gram table
# ---------------------------------------------------------------------------


def oracle_q(q, x):
    """q(x) in [0, 2) straight from the Fraction Gram table."""
    g = q_gram(q)
    k = q.rank
    total = sum(g[i][i] * x[i] * x[i] for i in range(k))
    total += sum(
        2 * g[i][j] * x[i] * x[j] for i in range(k) for j in range(i + 1, k)
    )
    return total % 2


def oracle_b(q, x, y):
    """b(x, y) in [0, 1) straight from the Fraction Gram table."""
    g = q_gram(q)
    k = q.rank
    return sum(g[i][j] * x[i] * y[j] for i in range(k) for j in range(k)) % 1


def oracle_order(q, x):
    n = 1
    while any(q.reduce(tuple(n * c for c in x))):
        n += 1
    return n


def check_value_path(q, pairs):
    assert q.level == math.lcm(*q.orders)
    for x, y in pairs:
        assert q_value(q, x) == oracle_q(q, x)
        assert b_value(q, x, y) == oracle_b(q, x, y)
    if q.group_order > 3000:
        return
    for x, o, v in value_listing(q):
        assert o == oracle_order(q, x)
        assert isinstance(v, int) and 0 <= v < 2 * q.level
        assert F(v, q.level) == oracle_q(q, x)


@st.composite
def regrammed_forms(draw):
    """A sum of random blocks, presented on random new generators.

    The new generators need not form a basis: the form pulled back to the
    product of their cyclic groups may be degenerate, and its Gram
    denominators may stay below its level.
    """
    q = sum_forms(draw(st.lists(_block_strategy(), min_size=1, max_size=3)))
    k = q.rank
    rows = draw(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=k, max_size=k),
            min_size=1,
            max_size=k,
        )
    )
    gens = [q.reduce(r) for r in rows if any(q.reduce(r))]
    gram = tuple(
        tuple(oracle_q(q, g) if i == j else oracle_b(q, g, h) for j, h in enumerate(gens))
        for i, g in enumerate(gens)
    )
    return from_gram(tuple(oracle_order(q, g) for g in gens), gram)


LEVEL_CASES = [
    sum_forms([u_block(2), cyclic(9, F(2, 9))]),  # level 18, two primes
    # the level exceeds the lcm of the Gram denominators:
    from_gram((2,), ((F(0),),)),  # level 2, denominators 1
    cyclic(4, F(1)),  # level 4, denominators 1
    sum_forms([cyclic(3, F(0)), u_block(2)]),  # level 6, denominators 2
    regram(cyclic(9, F(2, 9)), [(3,)]),  # order 3, q = 2 = 0 mod 2
]


@pytest.mark.parametrize("q", LEVEL_CASES)
def test_value_path_on_fixed_forms(q):
    xs = list(elements(q))
    check_value_path(q, [(x, y) for x in xs[:12] for y in xs[-12:]])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_value_path_matches_fraction_oracle(data):
    q = data.draw(regrammed_forms())
    vec = st.lists(st.integers(-20, 20), min_size=q.rank, max_size=q.rank).map(tuple)
    pairs = data.draw(st.lists(st.tuples(vec, vec), min_size=1, max_size=8))
    check_value_path(q, pairs)


# ---------------------------------------------------------------------------
# One integer representation, one Fraction boundary
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.lists(_block_strategy(), min_size=1, max_size=3).map(sum_forms),
                 regrammed_forms()))
def test_from_gram_round_trip(q):
    back = from_gram(q.orders, q_gram(q))
    assert back == q
    assert hash(back) == hash(q)
    assert all(type(t) is int for row in back.table for t in row)


def test_the_form_stores_integers_only():
    q = sum_forms([u_block(2), cyclic(9, F(2, 9))])
    assert FiniteQuadraticForm.__slots__ == ("orders", "table", "level")
    assert type(q.level) is int
    assert all(type(t) is int for row in q.table for t in row)
    assert q_gram(q)[2][2] == F(2, 9) and q_gram(q)[0][1] == F(1, 2)
    # a Fraction never lands in the table: not through the constructor, and
    # not through cyclic_block, which takes the integer entry order * q
    with pytest.raises(TypeError):
        FiniteQuadraticForm((2,), ((F(1, 2),),))
    with pytest.raises(TypeError):
        cyclic_block(2, F(1, 2))
    assert cyclic_block(2, 1) == cyclic(2, F(1, 2))
    assert FiniteQuadraticForm((2,), [[1]]) == cyclic(2, F(1, 2))
    # a level change must divide exactly: 1/4 is no value of a form of level 2
    assert FiniteQuadraticForm.from_table((2,), ((4,),), 8) == cyclic(2, F(1, 2))
    with pytest.raises(ValueError):
        FiniteQuadraticForm.from_table((2,), ((1,),), 4)


def test_equal_forms_from_three_paths_share_one_cache_entry():
    # u(2) + <1/4> as an orthogonal sum (levels 2 and 4), as the
    # discriminant form of U(2) + <4> (level 4 from N^2 = 16), and as
    # H-perp/H in u(2) + <1/36> for H of order 3 (level 36 down to 4)
    by_sum = sum_forms([u_block(2), cyclic(4, F(1, 4))])
    by_disc = discriminant_form(direct_sum(named("U(2)"), from_rows([[4]])))
    big = sum_forms([u_block(2), cyclic(36, F(1, 36))])
    (h,) = isotropic_subgroups(big, 3)
    by_quotient = quotient_form(big, h.gens)
    assert by_sum == by_disc == by_quotient
    assert hash(by_sum) == hash(by_disc) == hash(by_quotient)
    before = milgram_signature.cache_info()
    assert len({milgram_signature(q) for q in (by_sum, by_disc, by_quotient)}) == 1
    after = milgram_signature.cache_info()
    assert after.currsize - before.currsize <= 1
    assert after.hits - before.hits >= 2


# ---------------------------------------------------------------------------
# The odometer walk against a plain listing of the elements
# ---------------------------------------------------------------------------


def check_walk(q):
    plain = value_listing(q)
    tally = Counter((o, v) for _, o, v in plain)
    # element for element, in product order, for every class (zero's
    # among them), in either order, with a class that is empty
    classes = tuple(sorted(tally)) + ((0, 0),)
    for wanted in (classes, classes[::-1]):
        assert _value_classes(q, wanted) == tuple(
            tuple(x for x, o, v in plain if (o, v) == c) for c in wanted
        )
    del tally[1, 0]  # zero
    assert _value_multiset(q) == tuple(sorted((o, v, n) for (o, v), n in tally.items()))
    if q.rank == 0:
        return
    histogram = Counter(q._q_int(x) for x in elements(q))
    for f in (1, 2):  # exponents of zeta_m, m = 2N and 4N
        counts = _gauss_counts(q.table, q.orders, q.level, 2 * f * q.level)
        assert counts == {v * f: n for v, n in histogram.items()}


WALK_CASES = [
    trivial_form(),
    cyclic(8, F(3, 8)),  # rank 1: the prefix is empty
    sum_forms([u_block(2), cyclic(9, F(2, 9))]),  # level 18
    u_block(6),
    # a run of length 2 under a longer prefix
    sum_forms([cyclic(8, F(1, 8)), u_block(4), cyclic(2, F(1, 2))]),
]


@pytest.mark.parametrize("q", WALK_CASES)
def test_walk_on_fixed_forms(q):
    check_walk(q)


@settings(max_examples=100, deadline=None)
@given(regrammed_forms())
def test_walk_matches_plain_listing(q):
    if q.group_order <= 3000:
        check_walk(q)


# ---------------------------------------------------------------------------
# Isomorphism search
# ---------------------------------------------------------------------------


def test_isomorphic_after_change_of_generators():
    q = sum_forms([u_block(2), u_block(2)])
    # new generating family over (Z/2)^4, still a basis
    new = regram(q, [(1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 0, 1)])
    images = forms_isomorphic(q, new)
    assert images is not None
    # images define a genuine isomorphism: orders, q and b all transported
    for i in range(q.rank):
        ei = tuple(int(i == j) for j in range(q.rank))
        assert q_value(new, images[i]) == q_value(q, ei)
        assert new.element_order(images[i]) == q.orders[i]
        for j in range(i):
            ej = tuple(int(j == t) for t in range(q.rank))
            assert b_value(new, images[i], images[j]) == b_value(q, ei, ej)


def test_two_v_blocks_equal_two_u_blocks():
    uu = sum_forms([u_block(2), u_block(2)])
    vv = sum_forms([v_block(2), v_block(2)])
    assert forms_isomorphic(uu, vv) is not None
    assert forms_isomorphic(u_block(2), v_block(2)) is None


def test_non_isomorphic_cyclic_forms():
    assert forms_isomorphic(cyclic(5, F(2, 5)), cyclic(5, F(4, 5))) is None
    assert forms_isomorphic(cyclic(4, F(1, 4)), cyclic(4, F(3, 4))) is None
    # same group, same signature, different forms would be caught by values;
    # same form written with scaled generator is found isomorphic
    a = cyclic(9, F(2, 9))
    b = regram(a, [(2,)])
    assert forms_isomorphic(a, b) is not None


def test_isomorphism_respects_block_permutation():
    p1 = sum_forms([cyclic(4, F(1, 4)), cyclic(3, F(2, 3)), u_block(2)])
    p2 = sum_forms([u_block(2), cyclic(3, F(2, 3)), cyclic(4, F(1, 4))])
    assert forms_isomorphic(p1, p2) is not None


def test_isomorphism_budget_is_enforced():
    # the backtracking oracle keeps its budget; the package runs no search,
    # so it has no budget to take and decides the pair all the same
    uu = sum_forms([u_block(2), u_block(2)])
    vv = sum_forms([v_block(2), v_block(2)])
    with pytest.raises(SearchBudgetExceeded):
        backtrack_isomorphism(uu, vv, budget=2)
    assert forms_isomorphic(uu, vv) is not None
    with pytest.raises(TypeError):
        forms_isomorphic(uu, vv, budget=2)


def test_isomorphism_search_leaves_no_cyclic_garbage():
    # The backtracking closure refers to itself; it must be freed when the
    # search ends, also when it ends by running out of budget.  The normal
    # form path builds no closure at all.
    uu = sum_forms([u_block(2), u_block(2)])
    vv = sum_forms([v_block(2), v_block(2)])
    gc.collect()
    gc.disable()
    try:
        assert backtrack_isomorphism(uu, vv) is not None
        assert gc.collect() == 0
        with pytest.raises(SearchBudgetExceeded):
            backtrack_isomorphism(uu, vv, budget=2)
        assert gc.collect() == 0
        assert forms_isomorphic(sum_forms([uu, cyclic(9, F(2, 9))]),
                                sum_forms([vv, cyclic(9, F(2, 9))])) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_trivial_forms_isomorphic():
    assert forms_isomorphic(trivial_form(), trivial_form()) == ()
    assert forms_isomorphic(trivial_form(), cyclic(2, F(1, 2))) is None


# ---------------------------------------------------------------------------
# Isotropic subgroups
# ---------------------------------------------------------------------------


ISOTROPIC_CASES = [
    (u_block(2), 2),
    (sum_forms([u_block(2), u_block(2)]), 2),
    (sum_forms([u_block(2), u_block(2)]), 4),
    (sum_forms([v_block(2), v_block(2)]), 4),
    (u_block(4), 4),
    (u_block(4), 2),
    (sum_forms([u_block(2), cyclic(9, F(2, 9))]), 3),
    (sum_forms([u_block(3), cyclic(2, F(1, 2))]), 3),
    (cyclic(8, F(1, 8)), 2),
    (u_block(6), 6),
]


@pytest.mark.parametrize("q,order", ISOTROPIC_CASES)
def test_isotropic_subgroups_match_brute_force(q, order):
    got = {frozenset(s.elements) for s in isotropic_subgroups(q, order)}
    assert got == brute_isotropic_subgroups(q, order)
    # canonical, duplicate-free output
    subs = isotropic_subgroups(q, order)
    keys = [s.elements for s in subs]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for s in subs:
        assert s.order == order


def test_isotropic_subgroups_trivial_order():
    q = u_block(2)
    subs = isotropic_subgroups(q, 1)
    assert len(subs) == 1 and subs[0].elements == ((0, 0),)
    assert isotropic_subgroups(q, 3) == []


@pytest.mark.parametrize("order", [0, -2])
def test_isotropic_subgroups_reject_order_below_one(order):
    with pytest.raises(ValueError, match=f"got {order}"):
        isotropic_subgroups(u_block(2), order)


def assert_matches_closure_search(q, order):
    """Same element tuples in the same order as the closure search, and
    each `gens` generates its `elements`."""
    subs = isotropic_subgroups(q, order)
    assert [s.elements for s in subs] == [
        s.elements for s in closure_isotropic_subgroups(q, order)
    ]
    for s in subs:
        assert close_subgroup(q, s.gens, q.group_order) == frozenset(s.elements)


@st.composite
def small_forms(draw):
    """Sums of cyclic, u- and v-blocks of order at most 4, up to 64 elements."""
    parts = []
    size = 1
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["cyclic", "u", "v"]))
        if kind == "cyclic":
            n = draw(st.integers(2, 4))
            a = draw(st.integers(0, 2 * n - 1).filter(lambda a: a * n % 2 == 0))
            block = cyclic(n, F(a, n))
        elif kind == "u":
            block = u_block(draw(st.integers(2, 4)))
        else:
            block = v_block(draw(st.sampled_from([2, 4])))
        if size * block.group_order > 64:
            break
        size *= block.group_order
        parts.append(block)
    return sum_forms(parts)


@settings(max_examples=100, deadline=None)
@given(small_forms(), st.data())
def test_isotropic_subgroups_match_closure_search(q, data):
    divisors = [m for m in range(1, q.group_order + 1) if q.group_order % m == 0]
    assert_matches_closure_search(q, data.draw(st.sampled_from(divisors)))
    assert_matches_closure_search(q, 1)


# ---------------------------------------------------------------------------
# Quotients and complements
# ---------------------------------------------------------------------------


QUOTIENT_CASES = [
    (u_block(2), 2),
    (sum_forms([u_block(2), u_block(2)]), 2),
    (sum_forms([u_block(2), u_block(2)]), 4),
    (u_block(4), 2),
    (u_block(4), 4),
    (sum_forms([u_block(2), cyclic(9, F(2, 9))]), 3),
    (u_block(6), 6),
    (sum_forms([cyclic(8, F(1, 8)), cyclic(8, F(7, 8))]), 2),
]


@pytest.mark.parametrize("q,order", QUOTIENT_CASES)
def test_quotient_form_matches_coset_oracle(q, order):
    for h in isotropic_subgroups(q, order):
        out = quotient_form(q, h.gens)
        assert out.group_order * order * order == q.group_order
        assert form_profile(out) == coset_profile(q, h.elements)
        if not is_degenerate(q):
            assert milgram_signature(out) == milgram_signature(q)


def test_quotient_by_full_isotropic_is_trivial():
    q = sum_forms([u_block(2), u_block(2)])
    for h in isotropic_subgroups(q, 4):
        assert quotient_form(q, h.gens).rank == 0


def test_quotient_form_refuses_a_subgroup_that_is_not_isotropic():
    # in u(2) = <x, y>: x + y has q = 1, although <x + y> is orthogonal to
    # itself and so passes a count of H-perp/H; x and y are isotropic but
    # pair to 1/2
    q = u_block(2)
    with pytest.raises(ArithmeticError, match="not isotropic"):
        quotient_form(q, ((1, 1),))
    with pytest.raises(ArithmeticError, match="not isotropic"):
        quotient_form(q, ((1, 0), (0, 1)))


def test_quotient_structure_reads_coordinates_from_one_inverse():
    # sup = Z(1, 1) + Z(0, 2) and sub = 2Z + 4Z: the quotient is Z/4,
    # generated by (1, 1); a row outside sup is refused
    sup = ((1, 1), (0, 2))
    assert _quotient_structure(sup, ((2, 0), (0, 4))) == ((1, 4), ((-2, 0), (1, 1)))
    with pytest.raises(ValueError, match="not contained"):
        _quotient_structure(sup, ((1, 0),))


def test_find_u_block_u_pair():
    q = sum_forms([u_block(2), cyclic(3, F(2, 3))])
    x, y = find_u_block(q, 2)
    assert q_value(q, x) == q_value(q, y) == 0
    assert b_value(q, x, y) == F(1, 2)


def test_find_u_block_absent():
    with pytest.raises(ValueError):
        find_u_block(cyclic(2, F(1, 2)), 2)


def test_find_u_block_needs_m_at_least_two():
    q = sum_forms([u_block(2), cyclic(3, F(2, 3))])
    for m in (0, 1, -2):
        with pytest.raises(ValueError, match="needs m >= 2"):
            find_u_block(q, m)


def check_u_pair(q, m):
    """find_u_block finds a pair exactly when the walk does, and the pair
    is hyperbolic of order m."""
    try:
        walk_u_block(q, m)
    except ValueError:
        with pytest.raises(ValueError, match=f"no u\\({m}\\) block"):
            find_u_block(q, m)
        return False
    x, y = find_u_block(q, m)
    assert q_value(q, x) == q_value(q, y) == 0
    assert b_value(q, x, y) == F(-1, m) % 1
    assert oracle_order(q, x) == oracle_order(q, y) == m
    return True


@pytest.mark.parametrize("blocks, m, found", [
    # v(2) + <1/4> = u(2) + <5/4>: the v/w move
    ([v_block(2), cyclic(4, F(1, 4))], 2, True),
    ([v_block(2), cyclic(2, F(1, 2))], 2, False),
    # <2a/3> + <2b/3> is u(3) when -ab is a square mod 3: -(1*2) = 1 is, -(1*1) = 2 is not
    ([cyclic(3, F(2, 3)), cyclic(3, F(4, 3))], 3, True),
    ([cyclic(3, F(2, 3)), cyclic(3, F(2, 3))], 3, False),
])
def test_find_u_block_named_cases(blocks, m, found):
    assert check_u_pair(sum_forms(blocks), m) is found


def _odd_atoms(p, scales):
    """Cyclic blocks <2a/p^k> for every unit a mod p at the given k."""
    return [cyclic(p**k, F(2 * a, p**k)) for k in scales for a in range(1, p)]


def test_find_u_block_matches_walk_on_small_forms():
    # every sum of w, u and v blocks at 2, 4, 8 with |A| <= 128 for m = 2,
    # 4, 8; sums of cyclic blocks at 3, 9, 5 and 7 for m = 3, 9, 5 and 7;
    # sums of both at 2, 4, 3, 9 with |A| <= 324 for m = 6, 12, 18
    sweeps = [(_block_sums(_atoms((2, 4, 8)), 128), (2, 4, 8)),
              (_block_sums(_odd_atoms(3, (1, 2)), 243), (3, 9)),
              (_block_sums(_odd_atoms(5, (1,)), 125), (5,)),
              (_block_sums(_odd_atoms(7, (1,)), 343), (7,)),
              (_block_sums(_atoms((2, 4)) + _odd_atoms(3, (1, 2)), 324), (6, 12, 18))]
    found = Counter()
    for sums, ms in sweeps:
        for blocks in sums:
            q = sum_forms(blocks)
            for m in ms:
                found[m, check_u_pair(q, m)] += 1
    # both answers occur for every m
    assert all(found[m, True] and found[m, False] for m in (2, 3, 4, 5, 6, 7, 8, 9, 12, 18))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(QUOTIENT_CASES))
def test_quotient_preserves_signature(case):
    q, order = case
    for h in isotropic_subgroups(q, order):
        assert milgram_signature(quotient_form(q, h.gens)) == milgram_signature(q)


# ---------------------------------------------------------------------------
# Normal form against the backtracking search and the Gauss-sum walk
# ---------------------------------------------------------------------------


def assert_decides_like_the_search(q1, q2):
    """Equal normal forms exactly when the oracle search finds an
    isomorphism, and then forms_isomorphic returns one."""
    same = _normal_form(q1).key == _normal_form(q2).key
    assert same == (backtrack_isomorphism(q1, q2) is not None)
    images = forms_isomorphic(q1, q2)
    assert (images is not None) == same
    if same:
        for i, x in enumerate(images):
            ei = tuple(int(i == j) for j in range(q1.rank))
            assert q_value(q2, x) == q_value(q1, ei)
            assert q1.orders[i] % q2.element_order(x) == 0
            for j in range(i):
                ej = tuple(int(j == t) for t in range(q1.rank))
                assert b_value(q2, x, images[j]) == b_value(q1, ei, ej)


def _atoms(scales):
    """w, u and v blocks at the given powers of two (w values below 8)."""
    out = []
    for n in scales:
        out += [cyclic(n, F(a, n)) for a in range(1, min(2 * n, 8), 2)]
        out += [u_block(n), v_block(n)]
    return out


def _block_sums(atoms, limit, start=0, size=1, chosen=()):
    if chosen:
        yield chosen
    for i in range(start, len(atoms)):
        if size * atoms[i].group_order <= limit:
            yield from _block_sums(atoms, limit, i, size * atoms[i].group_order,
                                   chosen + (atoms[i],))


def test_normal_form_classes_match_search_on_all_small_2_forms():
    # every sum of w, u and v blocks at scales 2, 4, 8 with |A| <= 64:
    # forms with one normal form are isomorphic, and representatives of
    # different normal forms with one group, value multiset and Gauss-sum
    # signature are not
    classes = {}
    for blocks in _block_sums(_atoms((2, 4, 8)), 64):
        q = sum_forms(blocks)
        classes.setdefault(_normal_form(q).key, []).append(q)
    assert len(classes) > 100
    reps = {}
    for key, qs in classes.items():
        assert milgram_signature(qs[0]) == gauss_milgram_signature(qs[0])
        for q in qs[1:]:
            assert backtrack_isomorphism(qs[0], q) is not None, key
        bucket = (group_invariants(qs[0].orders), _value_multiset(qs[0]),
                  gauss_milgram_signature(qs[0]))
        for other in reps.get(bucket, []):
            assert backtrack_isomorphism(other, qs[0]) is None, key
        reps.setdefault(bucket, []).append(qs[0])


def _two_elementary(u, v, a, b):
    return sum_forms([u_block(2)] * u + [v_block(2)] * v
                     + [cyclic(2, F(1, 2))] * a + [cyclic(2, F(3, 2))] * b)


def test_normal_form_matches_nikulin_on_two_elementary_forms():
    # Nikulin: a 2-elementary form is determined by its rank, its parity
    # delta (0 when every q-value is an integer) and its signature mod 8
    forms = [_two_elementary(u, v, a, b)
             for u in range(4) for v in range(3) for a in range(5) for b in range(5)
             if 0 < 2 * (u + v) + a + b <= 8]
    invariants = {}
    for q in forms:
        delta = int(any(q_value(q, x).denominator == 2 for x in elements(q)))
        nikulin = (q.rank, delta, gauss_milgram_signature(q))
        invariants.setdefault(_normal_form(q).key, set()).add(nikulin)
    assert all(len(v) == 1 for v in invariants.values())
    seen = [v.pop() for v in invariants.values()]
    assert len(seen) == len(set(seen))


def assert_normal_basis_has_the_block_orders(q):
    """Each row of the normal-form basis has, by brute force, the order
    p^k of its block: `_normal_form` checks only the rows' table and that
    the block orders multiply to |A|, which imply it."""
    nf = _normal_form(q)
    orders = [p**k for p, k, kind, _ in nf.key for _ in range(2 if kind in ("u", "v") else 1)]
    assert [oracle_order(q, x) for x in nf.basis] == orders


def test_normal_basis_has_the_block_orders_on_small_sums():
    # every sum of w, u and v blocks at 2, 4, 8 with |A| <= 64, of cyclic
    # blocks at 3 and 9 with |A| <= 243, and of both at 2, 4, 3 with
    # |A| <= 144
    for sums in (_block_sums(_atoms((2, 4, 8)), 64),
                 _block_sums(_odd_atoms(3, (1, 2)), 243),
                 _block_sums(_atoms((2, 4)) + _odd_atoms(3, (1,)), 144)):
        for blocks in sums:
            assert_normal_basis_has_the_block_orders(sum_forms(blocks))


@settings(max_examples=100, deadline=None)
@given(regrammed_forms())
def test_normal_basis_has_the_block_orders_on_a_new_basis(q):
    if q.group_order <= 4096 and not is_degenerate(q):
        assert_normal_basis_has_the_block_orders(q)


# blocks of one group order that a block may trade places with
_SWAPS = {2: [cyclic(2, F(1, 2)), cyclic(2, F(3, 2))],
          4: [u_block(2), v_block(2)] + [cyclic(4, F(a, 4)) for a in (1, 3, 5, 7)],
          8: [cyclic(8, F(a, 8)) for a in (1, 3, 5, 7)],
          16: [u_block(4)] + [cyclic(16, F(a, 16)) for a in (1, 3, 5, 7)],
          3: [cyclic(3, F(2, 3)), cyclic(3, F(4, 3))],
          9: [u_block(3), cyclic(9, F(2, 9)), cyclic(9, F(4, 9))]}


@st.composite
def block_sum_pairs(draw, min_size=1):
    """Two block sums on one group: the second trades each block for one
    of the same group order, in a shuffled order."""
    blocks = draw(st.lists(_block_strategy(), min_size=min_size, max_size=3))
    other = [draw(st.sampled_from(_SWAPS[b.group_order])) if b.group_order in _SWAPS else b
             for b in blocks]
    return sum_forms(blocks), sum_forms(draw(st.permutations(other)))


@st.composite
def same_group_pairs(draw):
    """Two block sums on one group, the second presented on a new basis:
    each generator plus multiples of generators whose order divides its
    own, which keeps the orders and generates the whole group."""
    q1, q2 = draw(block_sum_pairs())
    k = q2.rank
    gens = [[int(i == j) for j in range(k)] for i in range(k)]
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1),
                                           st.integers(-3, 3)), max_size=3 * k)):
        if i != j and q2.orders[i] % q2.orders[j] == 0:
            gens[i] = [a + c * b for a, b in zip(gens[i], gens[j])]
    return q1, regram(q2, [q2.reduce(g) for g in gens])


def assert_decides_by_the_key(q1, q2):
    """forms_isomorphic decides by the normal-form keys at every group
    order; the search oracle runs, both ways, on the smaller groups."""
    same = _normal_form(q1).key == _normal_form(q2).key
    assert (forms_isomorphic(q1, q2) is not None) == same
    if q1.group_order <= 256:
        assert_decides_like_the_search(q1, q2)
        assert_decides_like_the_search(q2, q1)


@settings(max_examples=200, deadline=None)
@given(same_group_pairs())
def test_normal_form_decides_like_the_search(pair):
    assert_decides_by_the_key(*pair)


@settings(max_examples=200, deadline=None)
@given(block_sum_pairs(min_size=2))
def test_component_isomorphisms_agree_with_the_whole_normal_form(pair):
    # sums of at least two blocks on the laid-out basis
    assert_decides_by_the_key(*pair)


@settings(max_examples=150, deadline=None)
@given(st.one_of(regrammed_forms(), small_forms()))
def test_closed_form_milgram_matches_gauss_walk(q):
    if q.group_order > 256:
        return
    if is_degenerate(q):
        for f in (milgram_signature, gauss_milgram_signature):
            with pytest.raises(ArithmeticError):
                f(q)
    else:
        assert milgram_signature(q) == gauss_milgram_signature(q)


# ---------------------------------------------------------------------------
# Orthogonal sums
# ---------------------------------------------------------------------------


def test_a_sum_with_interleaved_summands_decides_like_the_search():
    # u(2) + <1/4> with the cyclic generator moved between the u(2) pair:
    # the whole normal form decides it like the laid-out sum
    q = sum_forms([u_block(2), cyclic(4, F(1, 4))])
    perm = (0, 2, 1)
    moved = FiniteQuadraticForm(tuple(q.orders[i] for i in perm),
                                tuple(tuple(q.table[i][j] for j in perm) for i in perm))
    assert milgram_signature(moved) == milgram_signature(q)
    assert_decides_like_the_search(moved, q)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(_block_strategy(), regrammed_forms()), min_size=1, max_size=4))
def test_milgram_signature_of_a_sum_is_its_whole_form_value(parts):
    # Gauss sums multiply over the summands; the whole form's normal form
    # gives the same phase as the parts
    q = sum_forms(parts)
    try:
        whole = sum(_block_signature(*b) for b in _normal_form(q).key) % 8
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            milgram_signature(q)
        return
    assert milgram_signature(q) == whole == sum(map(milgram_signature, parts)) % 8


@pytest.mark.parametrize("order, a, b", [(4, F(5, 4), F(1, 4)), (3, F(4, 3), F(2, 3))])
def test_sums_of_non_isomorphic_components_fall_back_to_the_whole_form(order, a, b):
    # <a> + <a> = <b> + <b> although <a> and <b> are not isomorphic: the
    # summands do not pair up, and the whole normal forms decide
    assert forms_isomorphic(cyclic(order, a), cyclic(order, b)) is None
    q1, q2 = (sum_forms([cyclic(order, v)] * 2) for v in (a, b))
    assert_decides_like_the_search(q1, q2)
    assert forms_isomorphic(q1, q2) is not None


def test_a_sum_against_one_block_decides_like_the_search():
    # the same sum on a basis whose table is one block, and a sum on the
    # same group whose summands have other orders
    q = sum_forms([u_block(2), cyclic(4, F(1, 4))])
    one = regram(q, [(1, 0, 0), (0, 1, 0), (1, 0, 1)])
    assert_decides_like_the_search(q, one)
    three = sum_forms([cyclic(2, F(1, 2)), cyclic(2, F(1, 2)),
                       cyclic(4, F(1, 4))])
    assert_decides_like_the_search(q, three)


def test_find_u_block_is_cached_and_absence_raises_every_time():
    q = sum_forms([u_block(4), cyclic(3, F(2, 3))])
    assert find_u_block(q, 4) is find_u_block(q, 4)
    for _ in range(2):
        with pytest.raises(ValueError):
            find_u_block(cyclic(2, F(1, 2)), 2)


def test_witness_check_names_the_first_bad_entry(monkeypatch):
    # images that keep every q-value but not a pairing must be refused,
    # with the pair named
    import k3lat.forms as forms_module

    q = sum_forms([u_block(2), u_block(2)])
    nf = _normal_form(q)
    # the normal basis is the identity; trading the coordinates of
    # generators 1 and 2 across the blocks keeps q = 0 and breaks b(e0, e1)
    bad = NormalForm(nf.key, nf.basis, (nf.coords[0], nf.coords[2], nf.coords[1], nf.coords[3]))
    monkeypatch.setattr(forms_module, "_normal_form", lambda f: bad if f == q else nf)
    with pytest.raises(ArithmeticError, match="generators 0 and 1 do not keep their pairing"):
        forms_isomorphic(q, q)


def test_witness_check_names_a_lost_q_value(monkeypatch):
    # images whose first generator lands on x + y of the first u(2), where
    # q = 1, not 0, must be refused, with the generator named
    import k3lat.forms as forms_module

    q = sum_forms([u_block(2), u_block(2)])
    nf = _normal_form(q)
    bad = NormalForm(nf.key, nf.basis, ((1, 1, 0, 0),) + nf.coords[1:])
    monkeypatch.setattr(forms_module, "_normal_form", lambda f: bad if f == q else nf)
    with pytest.raises(ArithmeticError, match="image of generator 0 does not keep its q-value"):
        forms_isomorphic(q, q)


@pytest.mark.parametrize("q", [
    sum_forms([cyclic(2, F(3, 2)), cyclic(8, F(3, 8))]),
    sum_forms([cyclic(2, F(1, 2)), u_block(4)]),
])
def test_images_that_keep_the_table_keep_the_orders(q):
    # forms_isomorphic checks no image order: on a non-degenerate form,
    # every tuple of images that keeps the table (q on the diagonal, b off
    # it) has each image's order dividing its generator's.  On these forms
    # the q-values alone let some images of the wrong order through, so
    # the pairings do the work
    n = q.level
    kept = q_only = 0
    for out in itertools.product(list(elements(q)), repeat=q.rank):
        right = all(o % q.element_order(x) == 0 for o, x in zip(q.orders, out))
        if _first_bad(mat_mul(mat_mul(out, q.table), transpose(out)), q.table, n) is None:
            kept += 1
            assert right
        elif not right and all(q._q_int(x) % (2 * n) == q.table[i][i] for i, x in enumerate(out)):
            q_only += 1
    assert kept > 1 and q_only > 0
