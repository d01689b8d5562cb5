"""Exact linear algebra against sympy, an independent implementation.

sympy is a test-only oracle, never a dependency of k3lat: the module is
skipped when sympy is not installed.
"""

import pytest
from hypothesis import given, settings

from k3lat.intmat import det_int, hnf_basis, ldl_int, mat_mul, snf, transpose
from rational_oracles import conjugated_grams

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form  # noqa: E402


def sympy_hnf_basis(a):
    """hnf_basis's convention from sympy's column-style Hermite form:
    reverse the coordinates, take the form of the transpose, and undo."""
    n = len(a[0])
    rev = sympy.Matrix([[row[n - 1 - j] for j in range(n)] for row in a])
    w = hermite_normal_form(rev.T).T.tolist()
    return [row[::-1] for row in w][::-1]


@settings(max_examples=100, deadline=None)
@given(conjugated_grams())
def test_det_snf_hnf_match_sympy(case):
    for a in case:
        n = len(a)
        m = sympy.Matrix(a)
        assert det_int(a) == m.det()
        d, _ = snf(a)
        s = smith_normal_form(m, domain=sympy.ZZ)
        assert [d[i][i] for i in range(n)] == [s[i, i] for i in range(n)]
        assert [list(row) for row in hnf_basis(a)] == sympy_hnf_basis(a)
    # conjugation keeps the determinant and the invariant factors
    g, h = case
    assert det_int(g) == det_int(h)
    assert snf(g)[0] == snf(h)[0]


@settings(max_examples=100, deadline=None)
@given(conjugated_grams())
def test_ldl_int_matches_sympy_ldl(case):
    # a a^T + I is positive definite, where the LDL^T is unique
    for a in case:
        n = len(a)
        g = [[x + (i == j) for j, x in enumerate(row)]
             for i, row in enumerate(mat_mul(a, transpose(a)))]
        p, rows = ldl_int(g)
        assert len(p) == n
        lo, d = sympy.Matrix(g).LDLdecomposition()
        prev = (1,) + p[:-1]
        for i in range(n):
            assert d[i, i] == sympy.Rational(p[i], prev[i])
            for j in range(i + 1, n):
                assert lo[j, i] == sympy.Rational(rows[i][j - i], p[i])
