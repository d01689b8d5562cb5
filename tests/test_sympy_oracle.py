"""Exact linear algebra against sympy, an independent implementation.

sympy is a test-only oracle, never a dependency of k3lat: the module is
skipped when sympy is not installed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3lat.intmat import det_int, hnf_basis, identity, mat_mul, snf, transpose

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form  # noqa: E402


@st.composite
def conjugated_grams(draw):
    """A symmetric integer Gram G, possibly singular, and U G U^T for a
    random U in GL_n(Z) built from elementary row operations."""
    n = draw(st.integers(1, 5))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(st.integers(-6, 6))
    u = [list(row) for row in identity(n)]
    for _ in range(draw(st.integers(0, 10))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i == j:
            u[i] = [-x for x in u[i]]
        else:
            c = draw(st.integers(-3, 3))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return g, mat_mul(mat_mul(u, g), transpose(u))


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
        d, _, _ = snf(a)
        s = smith_normal_form(m, domain=sympy.ZZ)
        assert [d[i][i] for i in range(n)] == [s[i, i] for i in range(n)]
        assert [list(row) for row in hnf_basis(a)] == sympy_hnf_basis(a)
    # conjugation keeps the determinant and the invariant factors
    g, h = case
    assert det_int(g) == det_int(h)
    assert snf(g)[0] == snf(h)[0]
