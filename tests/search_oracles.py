"""The two budgeted searches that k3lat ran before every `verify` check
decided by normal forms, block witnesses or a single cyclic glue word,
kept outside the package as oracles: the enumeration of the isotropic
subgroups of a finite quadratic form by Hermite normal form bases, and the
backtracking search for an isometry of definite lattices.  The package
keeps `forms.isotropic_subgroups` and `lattice.is_isometric_definite` only
as names that raise, pointing here.

A subgroup H of A is L/diag(d)Z^k for exactly one lattice
diag(d)Z^k <= L <= Z^k, of index |A|/|H|, and L has exactly one
upper-triangular Hermite normal form basis: row i is (0, ..., 0, h_i,
t_{i+1}, ..., t_{k-1}) with h_i | d_i and 0 <= t_j < h_j, and
(d_i/h_i)*row_i lies in d_i*e_i + span(rows below).  `isotropic_subgroups`
builds these bases bottom row first, pruning on the index left over and on
isotropy row by row, so it meets each isotropic subgroup once, and lists
its elements sum c_i*row_i mod d, 0 <= c_i < d_i/h_i, by one odometer.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterator

from k3lat.forms import FiniteQuadraticForm, SearchBudgetExceeded
from k3lat.intmat import Mat, Vec, freeze, require, transpose, vec_neg
from k3lat.lattice import IntegralLattice, _definite_sign, gram_in_basis, short_vectors
from rational_oracles import b_int


# ---------------------------------------------------------------------------
# Isotropic subgroups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of a finite quadratic form's group as `isotropic_subgroups`
    lists it, element-wise: `elements` sorted, and `gens` any tuple that
    generates exactly them (callers use only their span)."""

    form: FiniteQuadraticForm
    elements: tuple[Vec, ...]
    gens: tuple[Vec, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def _isotropic_hnf(
    q: FiniteQuadraticForm, index: int, below: tuple[Vec, ...] = ()
) -> Iterator[tuple[Vec, ...]]:
    """HNF bases, rows top-down, of the isotropic lattices that end in the
    rows `below` and whose rows above those have pivots multiplying to
    `index` (see the module docstring)."""
    i = q.rank - len(below) - 1
    if i < 0:
        yield below
        return
    d = q.orders[i]
    room = prod(q.orders[:i])
    for h in range(1, d + 1):
        if d % h or index % h or room % (index // h):
            continue
        # (d/h)*row must lie in d*e_i + span(below): column by column, the
        # entry left in column j must be a multiple of the pivot h_j, which
        # fixes t_j mod h_j/gcd(d/h, h_j) and the coefficient c of row j
        rows = [((0,) * i + (h,), (0,) * q.rank)]
        for j, rj in enumerate(below, start=i + 1):
            rows = [(row + (t,), tuple(a - c * b for a, b in zip(rest, rj)))
                    for row, rest in rows for t in range(rj[j])
                    for c, r in [divmod(d // h * t + rest[j], rj[j])] if not r]
        for row, _ in rows:
            # a row with h = d is d*e_i plus a vector of span(below); others
            # must be isotropic and pair to zero with the rows below, as
            # q(x + y) = q(x) + q(y) + 2b(x, y)
            if h == d or (
                q._q_int(row) == 0 and not any(b_int(q, row, r) for r in below)
            ):
                yield from _isotropic_hnf(q, index // h, (row,) + below)


def isotropic_subgroups(q: FiniteQuadraticForm, order: int) -> list[Subgroup]:
    """All subgroups H with |H| = order, q = 0 on H (hence b = 0 on HxH),
    once each, sorted by element tuples.  `gens` are the reduced HNF rows
    with pivot h_i < d_i."""
    if order < 1:
        raise ValueError(f"subgroup order must be positive, got {order}")
    if q.group_order % order:
        return []
    out = []
    for basis in _isotropic_hnf(q, q.group_order // order):
        members = [(0,) * q.rank]
        gens = []
        for i, row in enumerate(basis):
            m = q.orders[i] // row[i]
            if m > 1:
                g = q.reduce(row)
                gens.append(g)
                members = [q.reduce(tuple(a + c * b for a, b in zip(x, g)))
                           for c in range(m) for x in members]
        elements = tuple(sorted(members))
        # q = 0 elementwise forces b = 0 on H x H; check q again
        for x in elements:
            require(q._q_int(x) == 0, f"subgroup element {x} is not isotropic")
        out.append(Subgroup(q, elements, tuple(gens)))
    out.sort(key=lambda s: s.elements)
    return out


# ---------------------------------------------------------------------------
# Isometry testing (definite lattices)
# ---------------------------------------------------------------------------


def is_isometric_definite(
    l1: IntegralLattice,
    l2: IntegralLattice,
    budget: int = 10**7,
) -> Mat | None:
    """Search for an isometry between definite lattices.

    Returns a matrix M with M^T * G2 * M == G1, or None if no isometry
    exists.  M is a map x -> M x, so it keeps the column convention of
    operators: column j is the image of the j-th basis vector of l1 in l2
    coordinates (transpose it for the image rows).  Exceeding the node
    budget raises SearchBudgetExceeded instead of answering.
    """
    n = l1.rank
    if n != l2.rank or l1.det != l2.det or l1.signature != l2.signature:
        return None
    if n == 0:
        return ()
    if _definite_sign(l1) != _definite_sign(l2):
        return None

    # both signs of each sign representative, shell by shell up to the
    # largest basis norm; shells of different sizes are a cheap obstruction
    cands: dict[int, list[Vec]] = {}
    for m in range(1, max(abs(l1.gram[i][i]) for i in range(n)) + 1):
        shell = short_vectors(l2, m)
        if len(short_vectors(l1, m)) != len(shell):
            return None
        cands[m] = [w for vec in shell for w in (vec, vec_neg(vec))]

    # most-constrained basis vector first
    order = sorted(range(n), key=lambda i: (len(cands[abs(l1.gram[i][i])]), i))
    chosen: list[Vec] = []
    nodes = 0

    def extend(level: int) -> bool:
        nonlocal nodes
        if level == n:
            return True
        i = order[level]
        for cand in cands[abs(l1.gram[i][i])]:
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(
                    f"is_isometric_definite exceeded {budget} nodes"
                )
            if l2.norm(cand) != l1.gram[i][i]:
                continue
            ok = True
            for lv in range(level):
                if l2.pairing(chosen[lv], cand) != l1.gram[order[lv]][i]:
                    ok = False
                    break
            if not ok:
                continue
            chosen.append(cand)
            if extend(level + 1):
                return True
            chosen.pop()
        return False

    # A recursive closure is a reference cycle; break it on every exit,
    # SearchBudgetExceeded included.
    try:
        if not extend(0):
            return None
    finally:
        del extend
    rows: list[Vec] = [()] * n
    for idx, vec in zip(order, chosen):
        rows[idx] = vec
    m = transpose(freeze(rows))
    require(gram_in_basis(l2, transpose(m)) == l1.gram,
            "the isometry does not carry the second Gram matrix to the first")
    return m
