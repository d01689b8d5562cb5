"""The glue searches that k3lat used before isotropic subgroups came from
Hermite normal forms (`search_oracles`, itself an oracle now), glue orbits
from Witt's theorem and M_n from its glue code, kept outside the package
as oracles: a breadth-first closure search over generator tuples for the
isotropic subgroups, a breadth-first orbit search under orthogonal
transvections for the index-2 glue, and for M_n a breadth-first orbit
search under the root-sum symmetries, over the cyclic isotropic subgroups
of order n, with a filter that glues every candidate and tests the
lattice.  The first two read the plain listing of a form's elements with
their orders and values, itself the oracle for the package's walks.
"""

from __future__ import annotations

from typing import Sequence

from k3lat.forms import FiniteQuadraticForm, length
from k3lat.intmat import Vec, require
from k3lat.lattice import DiscriminantData, IntegralLattice, discriminant_form, root_count
from k3lat.overlattice import _glue_overlattice, _lift_of
from search_oracles import Subgroup, isotropic_subgroups


def value_listing(q: FiniteQuadraticForm) -> tuple[tuple[Vec, int, int], ...]:
    """Every element x of q, zero included, as (x, order, N*q(x) mod 2N),
    in itertools.product order, each computed on its own."""
    return tuple((x, q.element_order(x), q._q_int(x)) for x in q.elements())


def _close_subgroup(q: FiniteQuadraticForm, gens: Sequence[Vec], cap: int) -> frozenset[Vec] | None:
    """Subgroup generated by gens, or None once it exceeds cap elements."""
    zero = (0,) * q.rank
    seen = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = q.reduce(tuple(a + b for a, b in zip(x, g)))
            if y not in seen:
                if len(seen) >= cap:
                    return None
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def closure_isotropic_subgroups(q: FiniteQuadraticForm, order: int) -> list[Subgroup]:
    """All subgroups H with |H| = order, q = 0 on H (hence b = 0 on HxH).

    Enumerated in canonical order (sorted element tuples) and deduplicated.
    """
    if order == 1:
        return [Subgroup(q, ((0,) * q.rank,), ())]
    if q.group_order % order:
        return []
    iso = [x for x, o, v in value_listing(q) if o > 1 and order % o == 0 and v == 0]
    iso_set = set(iso)
    zero = (0,) * q.rank
    found: dict[tuple[Vec, ...], tuple[Vec, ...]] = {}

    def grow(gens: list[Vec], members: frozenset[Vec], start: int) -> None:
        if len(members) == order:
            found.setdefault(tuple(sorted(members)), tuple(gens))
            return
        for idx in range(start, len(iso)):
            g = iso[idx]
            if g in members:
                continue
            grown = _close_subgroup(q, gens + [g], order)
            if grown is None or order % len(grown) or len(grown) <= len(members):
                continue
            # every element of an isotropic subgroup must itself be isotropic
            if not (grown - {zero}) <= iso_set:
                continue
            grow(gens + [g], grown, idx + 1)

    grow([], frozenset({zero}), 0)
    out = []
    for key in sorted(found):
        # q = 0 elementwise forces b = 0 on H x H; check q again
        for x in key:
            require(q._q_int(x) == 0, f"subgroup element {x} is not isotropic")
        out.append(Subgroup(q, key, found[key]))
    return out


def transvection_orbits(
    qw: FiniteQuadraticForm, candidates: Sequence[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """Orbit representatives of `candidates` under orthogonal transvections.

    For a 2-elementary form with integer values, x -> x + 2b(x,v) v is an
    isometry of the form whenever q(v) is odd; candidates related by such
    maps give glue groups carried into each other by an isometry of the
    glue form, hence overlattices in one genus.  Returns the first member
    of each orbit, in candidate order.  Empty generator sets (no odd
    vector, or fractional values) degrade to one orbit per candidate."""
    cand = [tuple(x) for x in candidates]
    if any(o > 2 for o in qw.orders):
        return cand
    # the level N is 2 (or 1 on the trivial group): values are N*q mod 2N
    values = {x: v for x, _, v in value_listing(qw)}
    if any(val % qw.level for val in values.values()):
        return cand
    gens = [v for v, val in values.items() if val == qw.level]  # q(v) odd
    # everything lives mod 2 now, so the BFS can run on plain integers:
    # 2b(e_i, e_j) = N*b(e_i, e_j) is the table entry mod 2 and y -> x + v
    # is coordinatewise mod 2
    two_b = [[t % 2 for t in row] for row in qw.table]
    support = {v: tuple(i for i, c in enumerate(v) if c) for v in values}
    pending = set(cand)
    reps = []
    for start in cand:
        if start not in pending:
            continue
        reps.append(start)
        orbit = {start}
        queue = [start]
        while queue:
            x = queue.pop()
            sx = support[x]
            for v in gens:
                c = 0
                for i in sx:
                    row = two_b[i]
                    for j in support[v]:
                        c ^= row[j]
                if not c:
                    continue
                y = tuple((a + b) % 2 for a, b in zip(x, v))
                require(values[y] == values[x], "a transvection changed a q-value")
                if y not in orbit:
                    orbit.add(y)
                    queue.append(y)
        pending -= orbit
    return reps


def _subgroup_orbit(elements: tuple, config: Sequence[int], orders: Sequence[int]):
    """Orbit of an isotropic subgroup under the obvious root-sum symmetries:
    swaps of equal-size blocks and the per-block diagram flip (negation of
    the discriminant generator)."""
    k = len(config)
    swaps = [
        (i, j)
        for i in range(k)
        for j in range(i + 1, k)
        if config[i] == config[j]
    ]
    start = tuple(sorted(elements))
    seen = {start}
    queue = [start]
    while queue:
        cur = queue.pop()
        images = []
        for i, j in swaps:
            images.append(
                tuple(
                    sorted(
                        tuple(
                            x[j] if c == i else (x[i] if c == j else x[c])
                            for c in range(k)
                        )
                        for x in cur
                    )
                )
            )
        for i in range(k):
            images.append(
                tuple(
                    sorted(
                        x[:i] + ((-x[i]) % orders[i],) + x[i + 1 :] for x in cur
                    )
                )
            )
        for img in images:
            if img not in seen:
                seen.add(img)
                queue.append(img)
    return seen


def cyclic_isotropic_subgroups(q: FiniteQuadraticForm, n: int) -> list[Subgroup]:
    """The cyclic isotropic subgroups of order n, in `isotropic_subgroups`
    order: the pool that M_n's glue codes were once picked from."""
    return [s for s in isotropic_subgroups(q, n)
            if any(q.element_order(x) == n for x in s.elements)]


def orbit_classes(pool: Sequence[Subgroup], config: Sequence[int]) -> list[list[Subgroup]]:
    """`pool` split into root-sum symmetry orbits by the BFS, each class in
    pool order and the classes in the order of their first members."""
    classes: list[list[Subgroup]] = []
    where: dict[tuple[Vec, ...], int] = {}
    for s in pool:
        if s.elements not in where:
            for key in _subgroup_orbit(s.elements, config, s.form.orders):
                where[key] = len(classes)
            classes.append([])
        classes[where[s.elements]].append(s)
    return classes


def glue_candidate(root_sum: IntegralLattice, disc: DiscriminantData, h: Subgroup) -> IntegralLattice:
    """The overlattice of the root sum glued along h."""
    z, _ = _glue_overlattice(root_sum, [_lift_of(disc, g) for g in h.gens], disc.form.level)
    return z


def lattice_filter(
    root_sum: IntegralLattice,
    disc: DiscriminantData,
    reps: Sequence[Subgroup],
    rank: int,
    length_: int,
    roots: int,
) -> list[Subgroup]:
    """The candidates whose glued lattice is even, of the given rank and
    length, and has the given root count, each tested on the lattice."""
    accepted = []
    for s in reps:
        z = glue_candidate(root_sum, disc, s)
        if not z.is_even:
            continue
        if z.rank != rank:
            continue
        if length(discriminant_form(z)) != length_:
            continue
        if root_count(z) != roots:
            continue
        accepted.append(s)
    return accepted
