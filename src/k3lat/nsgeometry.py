"""Two explicit Neron-Severi models and the divisor arithmetic on them.

Model one ("X2") is the rank-9 degree-4 surface lattice <4> + N presented
in a genus-1 pencil basis {E1, e1..e8}: two isotropic pencil classes E1,
E2 switched by a symplectic involution sigma, which factors as the product
of two anti-symplectic projection involutions iota_Q (onto a quadric) and
iota_dP (onto a degree-1 del Pezzo double plane).  Eight disjoint sections
N1..N8 of the E1-pencil form an even set (their sum is 2-divisible), and
the search of `k3lat.evensets` recovers every such even set of bounded
height from scratch.

Model two ("UN") is the rank-10 elliptic lattice U + N written in a basis
adapted to a fibration with eight I2 fibers and a 2-torsion section:
translation by the torsion section is an involution whose fixed part is
U(2) and whose anti-invariant part is E8(-2).  Orthogonal complements of
invariant polarizations, and index-2 glue between the scaled and unscaled
models, tie the rank-9 families from the catalog to these rank-10 models.

All computations are exact, on integers only.  x2_checks, un_checks and
ue8_checks are the verification suites of the two models, as lists of
named checks in the vocabulary of k3lat.report.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Sequence

from .catalog import FamilyDescriptor, family_genus, named
from .evensets import find_even_sets
from .forms import length
from .intmat import (
    Mat,
    Record,
    Vec,
    det_int,
    freeze,
    hnf_basis,
    identity,
    inv_unimodular,
    mat_mul,
    require,
    transpose,
    vec_add,
    vec_mat,
    vec_neg,
    vec_scale,
    vec_sub,
)
from .lattice import (
    Embedding,
    IntegralLattice,
    IsometryAction,
    direct_sum,
    embedding_of,
    from_rows,
    gram_in_basis,
    invariant_split,
    is_primitive,
    orthogonal_complement,
    saturation,
)
from .overlattice import (
    GenusDescriptor,
    _glue_one,
    genus_equal,
    genus_of,
    unique_in_genus_by_length,
)
from .report import Check, check, entry, ratio


# ---------------------------------------------------------------------------
# Labeled lattices
# ---------------------------------------------------------------------------


class LabeledLattice(Record):
    """A lattice together with named coordinate vectors and checked relations.

    `relations` lists (name_a, name_b, value) pairings that are verified at
    construction time; a violated relation is a defect of the model data,
    not of the caller, hence ValueError."""

    __slots__ = _repr = ("lattice", "labels", "relations")
    # compared by identity: `labels` is a dict
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, lattice: IntegralLattice, labels: dict[str, Vec],
                 relations: tuple[tuple[str, str, int], ...] = ()) -> None:
        self._fill(lattice=lattice, labels=labels, relations=relations)
        n = self.lattice.rank
        for name, v in self.labels.items():
            if len(v) != n:
                raise ValueError(f"label {name!r} has {len(v)} coordinates, expected {n}")
        for a, b, want in self.relations:
            got = self.pairing(a, b)
            if got != want:
                raise ValueError(f"relation {a}.{b} = {want} violated (got {got})")

    def vec(self, name: str) -> Vec:
        return self.labels[name]

    def pairing(self, a: str, b: str) -> int:
        return self.lattice.pairing(self.labels[a], self.labels[b])

    def norm(self, a: str) -> int:
        return self.pairing(a, a)


# ---------------------------------------------------------------------------
# The rank-9 degree-4 model X2
# ---------------------------------------------------------------------------


def _unit(n: int, i: int) -> Vec:
    return tuple(int(i == j) for j in range(n))


def _x2_gram() -> Mat:
    """<4> + N rewritten in the pencil basis {E1, e1..e8}.

    The e-block is E8(-2) (e_i.e_{i+1} = 2 for i = 1..6 and e3.e8 = 2,
    squares -4); E1 is isotropic with E1.e1 = -2, E1.e2 = 1 and E1
    orthogonal to e3..e8."""
    top = (0, -2, 1, 0, 0, 0, 0, 0, 0)
    return (top,) + tuple((t,) + row for t, row in zip(top[1:], named("E8(-2)").gram))


def _n_half_sum_last() -> IntegralLattice:
    """N in the basis {C_1..C_7, S}: its first basis vector, the half-sum S
    of the eight components, moved last (S.S = -4, S.C_j = -1)."""
    return from_rows(gram_in_basis(named("N"), identity(8)[1:] + identity(8)[:1]))


_X2_SECTIONS = {
    "N1": (1, 0, 1, 0, 0, 0, 0, 0, 0),
    "N2": (1, 0, 1, 1, 0, 0, 0, 0, 0),
    "N3": (1, 0, 1, 1, 1, 0, 0, 0, 0),
    "N4": (1, 0, 1, 1, 1, 1, 0, 0, 0),
    "N5": (1, 0, 1, 1, 1, 1, 1, 0, 0),
    "N6": (1, 0, 1, 1, 1, 1, 1, 1, 0),
    "N7": (1, -2, -3, -5, -4, -3, -2, -1, -3),
    "N8": (3, 0, 1, 0, 0, 0, 0, 0, -1),
}

_X2_ORBIT = {
    "N8'": (3, -3, -1, 0, 0, 0, 0, 0, 1),
    "N8''": (3, -2, 1, 0, 0, 0, 0, 0, -1),
    "N8'''": (3, -1, -1, 0, 0, 0, 0, 0, 1),
}


@lru_cache(maxsize=None)
def build_X2() -> LabeledLattice:
    """The degree-4 model with its pencil classes, sections and polarization.

    The result is cached; treat the labels as read-only."""
    lat = from_rows(_x2_gram(), "X2")
    labels: dict[str, Vec] = {"E1": _unit(9, 0)}
    for i in range(1, 9):
        labels[f"e{i}"] = _unit(9, i)
    labels["E2"] = (1, -1, 0, 0, 0, 0, 0, 0, 0)
    labels["L"] = (2, -1, 0, 0, 0, 0, 0, 0, 0)
    labels["H"] = (6, -1, 2, 0, 0, 0, 0, 0, -2)
    labels.update(_X2_SECTIONS)
    labels.update(_X2_ORBIT)
    relations = (
        ("E1", "E1", 0),
        ("E2", "E2", 0),
        ("E1", "E2", 2),
        ("L", "L", 4),
        ("H", "H", 4),
    )
    return LabeledLattice(lat, labels, relations)


@lru_cache(maxsize=None)
def involutions_X2() -> tuple[IsometryAction, IsometryAction, IsometryAction]:
    """(sigma, iota_Q, iota_dP): the symplectic pencil switch and the two
    projection involutions whose product it is.

    The three matrices together with the identity form a Klein four-group;
    construction fails loudly if any of the defining identities break."""
    x2 = build_X2()
    lat = x2.lattice
    n = 9

    def action(cols: Sequence[Vec], label: str) -> IsometryAction:
        return IsometryAction(lat, transpose(cols), label)

    e2 = x2.vec("E2")
    sigma = action([e2] + [vec_neg(_unit(n, i)) for i in range(1, 9)], "sigma")
    iota_q = action(
        [_unit(n, 0), _unit(n, 1), (0, -1, -1, 0, 0, 0, 0, 0, 0)]
        + [vec_neg(_unit(n, i)) for i in range(3, 9)],
        "iotaQ",
    )
    iota_dp = action(
        [e2, vec_neg(_unit(n, 1)), (0, 1, 1, 0, 0, 0, 0, 0, 0)]
        + [_unit(n, i) for i in range(3, 9)],
        "iotaDP",
    )
    for g in (sigma, iota_q, iota_dp):
        if not g.is_involution:
            raise ArithmeticError(f"{g.label} is not an involution")
    if iota_q.compose(iota_dp).matrix != sigma.matrix:
        raise ArithmeticError("iotaQ . iotaDP does not equal sigma")
    if iota_dp.compose(iota_q).matrix != sigma.matrix:
        raise ArithmeticError("iotaDP . iotaQ does not equal sigma")
    group = {identity(n), sigma.matrix, iota_q.matrix, iota_dp.matrix}
    if len(group) != 4 or any(
        mat_mul(a, b) not in group for a in group for b in group
    ):
        raise ArithmeticError("the three involutions do not close into a four-group")
    return sigma, iota_q, iota_dp


def verify_sections() -> list[dict]:
    """Check every stated property of the section configuration N1..N8."""
    x2 = build_X2()
    names = [f"N{i}" for i in range(1, 9)]
    out = []

    bad = [n for n in names if x2.norm(n) != -2]
    out.append(check(
        "x2-section-norms", not bad,
        "N1..N8 all have square -2",
        f"sections with wrong square: {bad}", bad or None))

    bad_pairs = [
        (a, b) for i, a in enumerate(names) for b in names[i + 1:]
        if x2.pairing(a, b) != 0
    ]
    out.append(check(
        "x2-section-disjoint", not bad_pairs,
        "the eight sections are pairwise orthogonal",
        f"intersecting pairs: {bad_pairs}", bad_pairs or None))

    bad_deg = [n for n in names if x2.pairing(n, "E1") != 1]
    out.append(check(
        "x2-section-degree", not bad_deg,
        "each section meets the pencil class E1 once",
        f"sections with N.E1 != 1: {bad_deg}", bad_deg or None))

    total = x2.vec("N1")
    for n in names[1:]:
        total = vec_add(total, x2.vec(n))
    out.append(check(
        "x2-even-set-halfsum", all(c % 2 == 0 for c in total),
        "(N1 + ... + N8)/2 is an integral class",
        "the section sum is not 2-divisible",
        [ratio(c, 2) for c in total]))

    bad_h = [n for n in names if x2.pairing("H", n) != 0]
    out.append(check(
        "x2-polarization", x2.norm("H") == 4 and not bad_h,
        "H has square 4 and is orthogonal to all eight sections",
        f"H.H = {x2.norm('H')}, sections meeting H: {bad_h}",
        bad_h or None))

    s = tuple(c // 2 for c in total)
    ok1 = vec_sub(x2.vec("H"), s) == x2.vec("E1")
    ok2 = vec_sub(
        vec_sub(vec_scale(x2.vec("H"), 2), s),
        vec_scale(x2.vec("N8"), 2),
    ) == x2.vec("E2")
    out.append(check(
        "x2-pencil-from-sections", ok1 and ok2,
        "E1 = H - S and E2 = 2H - S - 2 N8 with S the half-sum",
        f"pencil identities broken: E1 {'ok' if ok1 else 'bad'}, "
        f"E2 {'ok' if ok2 else 'bad'}", list(s)))

    deg1, deg2 = x2.pairing("N8''", "E1"), x2.pairing("N8''", "E2")
    out.append(check(
        "x2-orbit-section-degrees", (deg1, deg2) == (5, 1),
        "N8'' meets E1 five times and E2 once",
        f"N8''.E1 = {deg1}, N8''.E2 = {deg2}", [deg1, deg2]))

    alt = x2.vec("N8''")
    for n in names[:-1]:
        alt = vec_add(alt, x2.vec(n))
    out.append(check(
        "x2-even-set-alternate", all(c % 2 == 0 for c in alt),
        "(N1 + ... + N7 + N8'')/2 is an integral class",
        "the alternate section sum is not 2-divisible",
        [c // 2 for c in alt]))
    return out


def no_reducible_fibers(model: LabeledLattice, e_label: str) -> bool:
    """Whether the genus-1 pencil of the isotropic class has irreducible
    fibers only: every vector of the complement lattice has square
    divisible by 4, so no (-2)-class lives over the base.

    The complement is kept degenerate (it contains the pencil class); the
    divisibility test reads off the full Gram, which is basis-independent.
    """
    v = model.vec(e_label)
    if model.lattice.norm(v) != 0:
        raise ValueError(f"non-isotropic label {e_label!r}")
    comp = orthogonal_complement(embedding_of(model.lattice, (v,)))
    g = comp.sub.gram
    return all(x % 2 == 0 for row in g for x in row) and all(
        g[i][i] % 4 == 0 for i in range(len(g))
    )


def orbit_and_even_sets() -> list[dict]:
    """Orbit of N8 under the involution group, section fixing, and the
    image of the even set under iota_dP."""
    x2 = build_X2()
    sigma, iota_q, iota_dp = involutions_X2()
    actions = [sigma, iota_q, iota_dp]
    out = []

    n8 = x2.vec("N8")
    orbit = {n8} | {g.apply(n8) for g in actions}
    expected = {n8, x2.vec("N8'"), x2.vec("N8''"), x2.vec("N8'''")}
    out.append(check(
        "x2-orbit-of-N8", orbit == expected,
        "the orbit of N8 is {N8, N8', N8'', N8'''}",
        f"unexpected orbit: {sorted(orbit)}",
        sorted(orbit)))

    total = (0,) * 9
    for v in sorted(orbit):
        total = vec_add(total, v)
    six_l = vec_scale(x2.vec("L"), 6)
    out.append(check(
        "x2-orbit-sum", total == six_l,
        "the four orbit classes sum to 6L",
        f"orbit sum {total} differs from 6L = {six_l}", list(total)))

    names = [f"N{i}" for i in range(1, 8)]
    bad_orbit = []
    for name in names:
        v = x2.vec(name)
        imgs = {v} | {g.apply(v) for g in actions}
        if imgs != {v, sigma.apply(v)} or len(imgs) != 2:
            bad_orbit.append(name)
    out.append(check(
        "x2-section-orbits", not bad_orbit,
        "N1..N7 each have orbit {N_i, sigma(N_i)} of size two",
        f"sections with unexpected orbits: {bad_orbit}", bad_orbit or None))

    dp_fixes = all(iota_dp.apply(x2.vec(n)) == x2.vec(n) for n in names)
    q_fixes = all(iota_q.apply(x2.vec(n)) == x2.vec(n) for n in names)
    if dp_fixes and not q_fixes:
        out.append(entry(
            "x2-fixing-involution-attribution", "discrepancy",
            "direct arithmetic: iota_dP fixes each of N1..N7 while iota_Q "
            "moves them (iota_Q agrees with sigma on the sections); the "
            "customary attribution naming iota_Q as the fixing involution "
            "is the swapped one and is rejected",
            {"iota_dP_fixes": True, "iota_Q_fixes": False,
             "iota_Q_N1": list(iota_q.apply(x2.vec("N1")))}))
    else:
        out.append(entry(
            "x2-fixing-involution-attribution", "fail",
            f"unexpected fixing pattern: iota_dP {dp_fixes}, iota_Q {q_fixes}",
            {"iota_dP_fixes": dp_fixes, "iota_Q_fixes": q_fixes}))

    even = [x2.vec(f"N{i}") for i in range(1, 9)]
    image = sorted(iota_dp.apply(v) for v in even)
    target = sorted([x2.vec(f"N{i}") for i in range(1, 8)] + [x2.vec("N8''")])
    out.append(check(
        "x2-even-set-image", image == target,
        "iota_dP carries {N1..N8} to the even set {N1..N7, N8''}",
        "the image of the even set is not {N1..N7, N8''}",
        [list(v) for v in image]))
    return out


def base_change() -> Mat:
    """Coordinate rows [H, N1..N7, S] (S the half-sum of the sections),
    a unimodular change of basis for the degree-4 model."""
    x2 = build_X2()
    total = x2.vec("N1")
    for i in range(2, 9):
        total = vec_add(total, x2.vec(f"N{i}"))
    if any(c % 2 for c in total):
        raise ArithmeticError("section sum is not 2-divisible")
    s = tuple(c // 2 for c in total)
    rows = [x2.vec("H")] + [x2.vec(f"N{i}") for i in range(1, 8)] + [s]
    b = freeze(rows)
    if det_int(b) not in (1, -1):
        raise ArithmeticError("change of basis is not unimodular")
    return b


def base_change_report() -> list[dict]:
    """Run the change of basis and conjugate sigma into the new frame."""
    x2 = build_X2()
    sigma, _, _ = involutions_X2()
    out = []
    b = base_change()
    out.append(entry(
        "x2-base-change-unimodular", "pass",
        f"det of the [H, N1..N7, S] basis matrix is {det_int(b)}",
        [list(r) for r in b]))

    g_new = gram_in_basis(x2.lattice, b)
    out.append(check(
        "x2-base-change-gram",
        g_new == direct_sum(from_rows([[4]]), _n_half_sum_last()).gram,
        "the new Gram is <4> + N (with the norm -4 vector listed last)",
        "the new Gram does not match <4> + N",
        [list(r) for r in g_new]))

    # sigma acts on columns, and b is unimodular: in the new frame it is
    # (b^-1)^T sigma b^T, and a row v has new coordinates v b^-1
    b_inv = inv_unimodular(b)
    conj = mat_mul(transpose(b_inv), mat_mul(sigma.matrix, transpose(b)))
    try:
        action = IsometryAction(from_rows(g_new), conj, "sigma'")
        ok = action.is_involution
    except (ValueError, ArithmeticError):
        ok = False
    out.append(check(
        "x2-base-change-conjugation", ok,
        "sigma conjugates to an integral involution of the <4> + N Gram",
        "the conjugated action is not an isometric involution",
        [list(r) for r in conj]))

    # pencil classes in inverse coordinates: E1 = H - S and, after
    # eliminating N8 = 2S - (N1 + .. + N7), E2 = 2H + 2(N1 + .. + N7) - 5S
    y1 = vec_mat(x2.vec("E1"), b_inv)
    y2 = vec_mat(x2.vec("E2"), b_inv)
    want1 = (1,) + (0,) * 7 + (-1,)
    want2 = (2,) + (2,) * 7 + (-5,)
    out.append(check(
        "x2-base-change-inverse", y1 == want1 and y2 == want2,
        "the inverse basis matrix expresses E1 as H - S and E2 as "
        "2H - S - 2 N8 in the new frame",
        f"inverse coordinates wrong: E1 -> {y1}, E2 -> {y2}",
        {"E1": list(y1), "E2": list(y2)}))
    return out


# ---------------------------------------------------------------------------
# The rank-10 model U + N with the torsion translation
# ---------------------------------------------------------------------------


def _is_e8_minus_2(lat: IntegralLattice) -> bool:
    """Whether lat is isometric to E8(-2): its Gram is twice an even
    unimodular negative-definite Gram of rank 8, and E8(-1) is the only
    such lattice (Serre, A Course in Arithmetic, ch. V, sec. 2)."""
    if lat.rank != 8 or any(x % 2 for row in lat.gram for x in row):
        return False
    half = IntegralLattice(tuple(tuple(x // 2 for x in row) for row in lat.gram))
    return half.is_even and half.det == 1 and half.signature == (0, 8)


@lru_cache(maxsize=None)
def build_UN_vgs() -> tuple[LabeledLattice, IsometryAction]:
    """The eight-I2 elliptic model and translation by its 2-torsion section.

    The lattice is U + N in the basis {F, F+O, C1_1..C1_7, S}: F the fiber,
    O the zero section, C1_j one component of the j-th I2 fiber, S the
    half-sum of all eight chosen components (an integral class;
    C1_8 = 2S - sum C1_j).

    Returns the labeled lattice and the involution; construction verifies
    that the fixed part is U(2) (spanned by F and F + O + t with t the
    torsion section), that the anti-invariant part is isometric to E8(-2)
    by its invariants (`_is_e8_minus_2`), and that the model lies in the
    genus of U + N.
    The result is cached; treat the labels as read-only.
    """
    lat = direct_sum(named("U"), _n_half_sum_last()).relabel("UN-I2")
    n = 10
    labels: dict[str, Vec] = {
        "F": _unit(n, 0),
        "F+O": _unit(n, 1),
        "O": (-1, 1, 0, 0, 0, 0, 0, 0, 0, 0),
        "t": (1, 1, 0, 0, 0, 0, 0, 0, 0, -1),
        "S": _unit(n, 9),
    }
    for j in range(1, 8):
        labels[f"C1_{j}"] = _unit(n, j + 1)
    labels["C1_8"] = (0, 0, -1, -1, -1, -1, -1, -1, -1, 2)
    for j in range(1, 9):
        labels[f"C0_{j}"] = vec_sub(labels["F"], labels[f"C1_{j}"])
    relations = tuple(
        [("F", "F", 0), ("F", "O", 1), ("O", "O", -2), ("t", "t", -2),
         ("O", "t", 0), ("F", "t", 1), ("S", "S", -4)]
        + [(f"C1_{j}", f"C1_{j}", -2) for j in range(1, 9)]
        + [(f"C1_{j}", "t", 1) for j in range(1, 9)]
        + [(f"C1_{j}", "O", 0) for j in range(1, 9)]
        + [(f"C1_{i}", f"C1_{j}", 0) for i in range(1, 9) for j in range(i + 1, 9)]
    )
    model = LabeledLattice(lat, labels, relations)

    cols = [labels["F"], vec_add(labels["F"], labels["t"])]
    for j in range(1, 8):
        cols.append(vec_sub(labels["F"], labels[f"C1_{j}"]))
    cols.append((4, 0, 0, 0, 0, 0, 0, 0, 0, -1))  # S -> 4F - S
    sigma = IsometryAction(lat, transpose(cols), "torsion-translation")
    if not sigma.is_involution:
        raise ArithmeticError("torsion translation is not an involution")
    if sigma.apply(labels["O"]) != labels["t"] or sigma.apply(labels["t"]) != labels["O"]:
        raise ArithmeticError("translation does not swap the two sections")
    for j in range(1, 9):
        if sigma.apply(labels[f"C1_{j}"]) != labels[f"C0_{j}"]:
            raise ArithmeticError("translation does not swap the I2 components")

    fixed, anti = invariant_split(sigma)
    u = vec_add(vec_add(labels["F"], labels["O"]), labels["t"])
    if hnf_basis(fixed.vectors) != hnf_basis((labels["F"], u)):
        raise ArithmeticError("fixed part is not spanned by F and F + O + t")
    if gram_in_basis(lat, (labels["F"], u)) != ((0, 2), (2, 0)):
        raise ArithmeticError("fixed part is not U(2)")
    require(_is_e8_minus_2(anti.sub), "anti-invariant part is not E8(-2)")
    if not genus_equal(genus_of(lat), genus_of(direct_sum(named("U"), named("N")))):
        raise ArithmeticError("model does not lie in the genus of U + N")
    return model, sigma


def vgs_polarized_complement(e: int) -> GenusDescriptor:
    """Genus of the complement of the invariant polarization F - e(F + O + t).

    The class has square -4e, is primitive and sigma-invariant; its
    orthogonal complement is a rank-9 even hyperbolic lattice whose genus
    is returned for comparison with the index-2 cover family Lp(2e, 2).
    """
    if e < 1:
        raise ValueError("polarization parameter must be positive")
    model, sigma = build_UN_vgs()
    lat = model.lattice
    u = vec_add(vec_add(model.vec("F"), model.vec("O")), model.vec("t"))
    v = vec_sub(model.vec("F"), vec_scale(u, e))
    if lat.norm(v) != -4 * e:
        raise ArithmeticError("polarization square is not -4e")
    if sigma.apply(v) != v:
        raise ArithmeticError("polarization is not invariant")
    emb = embedding_of(lat, (v,))
    if not is_primitive(emb):
        raise ArithmeticError("polarization is not primitive")
    return genus_of(orthogonal_complement(emb).sub)


# ---------------------------------------------------------------------------
# Index-2 glue between scaled and unscaled rank-10 models
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _primed_model(w: IntegralLattice) -> tuple[IntegralLattice, Embedding]:
    """The index-2 even overlattice of U(2) + W glued along
    (u1 + u2)/2 + x + y, with the embedding of U(2) + W.  (x, y) is the
    u(2) pair of q_W that `find_u_block` gives, so this is the lemma's glue
    rule with c = 1 (`overlattice._glue_one`): q((u1 + u2)/2) = 1 cancels
    q(x + y) = -1.  Cached: the overlattice check and the saturation checks
    of one W share it."""
    return _glue_one(named("U(2)"), (1, 1), w, 2, 1)


def _primed_overlattice(key: str, w: IntegralLattice, tlen: int) -> list[dict]:
    """(U(2) + W)' = U + W via genus plus the length criterion."""
    target = direct_sum(named("U"), w)
    z, _ = _primed_model(w)
    gz, gt = genus_of(z), genus_of(target)
    ok = genus_equal(gz, gt) and unique_in_genus_by_length(gt) and length(gz.disc) == tlen
    return [check(
        f"{key}-overlattice", ok,
        f"the glued overlattice is even of index 2, length {tlen}, and "
        f"the length criterion pins it to {target.label}",
        "the glued overlattice does not match the unscaled model",
        {"det": z.det, "length": length(gz.disc)})]


def _unscaled_embedding(kind: str, w: IntegralLattice, d: int) -> list[dict]:
    """The M (W = N) or L (W = E8(-2)) family embeds primitively into U + W."""
    host = direct_sum(named("U"), w)
    rows = [(1, d) + (0,) * 8] + [_unit(10, i) for i in range(2, 10)]
    emb = embedding_of(host, rows)
    fam = FamilyDescriptor(kind, d, 2)
    expected = direct_sum(from_rows([[2 * d]]), w)
    ok = emb.sub.gram == expected.gram and is_primitive(emb)
    return [check(
        f"{kind.lower()}-embedding-d{d}", ok,
        f"(1, d) + W embeds {fam.label} primitively into {host.label}",
        f"embedding of {fam.label} failed",
        {"sub_det": emb.sub.det})]


def _saturation(kind: str, w: IntegralLattice, d: int) -> list[dict]:
    """Saturating <4d> + W inside (U(2) + W)' yields Mp(2d,2) or Lp(2d,2)."""
    z, emb = _primed_model(w)
    x_row = vec_add(emb.vectors[0], vec_scale(emb.vectors[1], d))
    rows = (x_row,) + tuple(emb.vectors[2:])
    sub_emb = embedding_of(z, rows)
    sat = saturation(sub_emb)
    fam = FamilyDescriptor(kind, 2 * d, 2)
    g_sat = genus_of(sat.sub)
    ok = (sub_emb.sub.det == 4 * sat.sub.det and genus_equal(g_sat, family_genus(fam))
          and unique_in_genus_by_length(family_genus(fam)))
    return [check(
        f"{kind.lower()}-saturation-d{d}", ok,
        f"saturating <4d> + W inside the glued model yields "
        f"{fam.label} (index 2, genus and length criterion agree)",
        f"saturation does not produce {fam.label}",
        {"index_sq": sub_emb.sub.det // sat.sub.det
         if sat.sub.det else None})]


def _rank10_genera() -> list[dict]:
    """The rank-10 genus coincidence and distinction (sharing U + E8(-2))."""
    u2n = direct_sum(named("U(2)"), named("N"))
    ue8 = direct_sum(named("U"), named("E8(-2)"))
    g1, g2 = genus_of(u2n), genus_of(ue8)
    ok = genus_equal(g1, g2) and unique_in_genus_by_length(g2)
    udd = direct_sum(named("U"), named("D4"), named("D4"))
    gd = genus_of(udd)
    return [check(
        "rank10-genus-pair", ok,
        "U(2) + N and U + E8(-2) share their genus, and the length "
        "criterion makes them isometric",
        "the two scaled rank-10 models do not share a genus",
        {"dets": [u2n.det, ue8.det]}), check(
        "rank10-genus-distinct", not genus_equal(gd, g2),
        "U + D4 + D4 is not in the genus of U + E8(-2) (discriminant "
        "groups of different order)",
        "U + D4 + D4 unexpectedly matches the genus of U + E8(-2)",
        {"dets": [udd.det, ue8.det]})]


def _glue_checks(w_name: str) -> list[Check]:
    """The index-2 glue checks of W = N or E8(-2): the glued model (U(2) + W)',
    the unscaled family embedded primitively into U + W, and the saturations
    giving the primed family (odd d; for even d the image is saturated)."""
    key, tlen, kind = {"N": ("u2n", 6, "M"), "E8(-2)": ("u2e8", 8, "L")}[w_name]
    w = named(w_name)
    return [(f"{key}-overlattice", partial(_primed_overlattice, key, w, tlen)),
            *((f"{kind.lower()}-embedding-d{d}", partial(_unscaled_embedding, kind, w, d))
              for d in (1, 2, 3)),
            *((f"{kind.lower()}p-saturation-d{d}", partial(_saturation, kind + "p", w, d))
              for d in (1, 3))]


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def _x2_genus() -> list[dict]:
    x2 = build_X2()
    return [check(
        "x2-genus",
        genus_equal(genus_of(x2.lattice), family_genus(FamilyDescriptor("M", 2, 2))),
        "the pencil-basis Gram lies in the genus of M(2,2) = <4> + N",
        "the model is not in the genus of <4> + N",
        {"det": x2.lattice.det})]


def _irreducible_fibers(e_label: str) -> list[dict]:
    return [check(
        f"x2-irreducible-fibers-{e_label}",
        no_reducible_fibers(build_X2(), e_label),
        f"the {e_label}-pencil has irreducible fibers only",
        f"the {e_label}-pencil has a reducible fiber")]


def _even_set_searches(bound: int) -> list[dict]:
    """Both pencil searches, and the pencil attribution they settle."""
    x2 = build_X2()
    known1, known2 = known_even_sets()
    sets1 = find_even_sets(x2.lattice, x2.vec("E1"), bound)
    sets2 = find_even_sets(x2.lattice, x2.vec("E2"), bound)
    return [check(
        "x2-even-set-search-E1", known1 in sets1,
        f"the E1-pencil search at bound {bound} recovers {{N1..N8}} "
        f"({len(sets1)} even sets in total, every one a translate)",
        f"the E1-pencil search at bound {bound} misses {{N1..N8}}; "
        "the bound is too small",
        {"count": len(sets1), "recovered": known1 in sets1}), check(
        "x2-even-set-search-E2", known2 in sets2,
        f"the E2-pencil search at bound {bound} recovers {{N1..N7, N8''}} "
        f"({len(sets2)} even sets in total)",
        f"the E2-pencil search at bound {bound} misses {{N1..N7, N8''}}; "
        "the bound is too small",
        {"count": len(sets2), "recovered": known2 in sets2}), entry(
        "x2-even-set-pencil-attribution", "discrepancy",
        "the second even set {N1..N7, N8''} meets E1 in degree 5 through "
        "N8'' and so belongs to the E2-pencil search (every member meets "
        "E2 once); the customary claim that both even sets arise from the "
        "E1 search contradicts N8''.E1 = 5 and is rejected",
        {"N8''.E1": x2.pairing("N8''", "E1"),
         "N8''.E2": x2.pairing("N8''", "E2"),
         "set2_in_E1_results": known2 in sets1,
         "set2_in_E2_results": known2 in sets2})]


def x2_checks(bound: int) -> list[Check]:
    """Full verification of the degree-4 model: genus, sections, fibers,
    orbits, base change and the bounded even-set search."""
    if bound < 0:
        raise ValueError("coefficient bound must be non-negative")
    return [("x2-genus", _x2_genus), ("x2-sections", verify_sections),
            *((f"x2-irreducible-fibers-{e}", partial(_irreducible_fibers, e))
              for e in ("E1", "E2")),
            ("x2-orbits", orbit_and_even_sets), ("x2-base-change", base_change_report),
            ("x2-even-set-searches", partial(_even_set_searches, bound))]


def known_even_sets() -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """The two even sets of eight disjoint rational curves: the E1-pencil
    sections {N1..N8} and their iota_dP image {N1..N7, N8''} (sections of
    the E2 pencil)."""
    known1 = tuple(sorted(_X2_SECTIONS.values()))
    known2 = tuple(sorted(
        [_X2_SECTIONS[f"N{i}"] for i in range(1, 8)] + [_X2_ORBIT["N8''"]]
    ))
    return known1, known2


def _un_model() -> list[dict]:
    """The verified eight-I2 basis and the polarization reading it fixes."""
    model, _ = build_UN_vgs()
    lat = model.lattice
    f, o, t = (model.vec(k) for k in "FOt")
    return [
        entry(
            "un-model", "pass",
            "eight-I2 basis verified: torsion translation is an involution "
            "with fixed part U(2) on {F, F+O+t} and anti-invariant part "
            "E8(-2); the lattice lies in the genus of U + N",
            {"det": lat.det}),
        entry(
            "un-polarization-reading", "discrepancy",
            "the invariant polarization must be F - e(F + O + t) "
            "(square -4e); reading the fixed-part generator as O + t "
            "gives F - e(O + t) of square -4e(1+e), which fails for "
            "every e >= 1",
            {"e": 1,
             "literal_square": lat.norm(vec_sub(f, vec_add(o, t))),
             "corrected_square": lat.norm(vec_sub(f, vec_add(vec_add(f, o), t)))}),
    ]


def _polarized_complement(e: int) -> list[dict]:
    g = vgs_polarized_complement(e)
    fam = FamilyDescriptor("Lp", 2 * e, 2)
    ok = genus_equal(g, family_genus(fam)) and unique_in_genus_by_length(g)
    return [check(
        f"un-polarized-complement-e{e}", ok,
        f"the complement of the square -4e polarization is {fam.label} "
        "(genus plus length criterion)",
        f"the complement does not match {fam.label}",
        {"sig": [g.sig_plus, g.sig_minus]})]


def un_checks(e_values: Sequence[int]) -> list[Check]:
    """Verification of the eight-I2 model: involution split, polarized
    complements, and the N-side glue constructions."""
    if min(e_values) < 1:
        raise ValueError("polarization parameter must be positive")
    return [("un-model", _un_model),
            *((f"un-polarized-complement-e{e}", partial(_polarized_complement, e))
              for e in e_values),
            *_glue_checks("N")]


def _even_set_absence(bound: int) -> list[dict]:
    lat = direct_sum(from_rows([[2]]), named("E8(-2)")).relabel("<2>+E8(-2)")
    sets = find_even_sets(lat, _unit(9, 0), bound)
    return [check(
        "ue8-even-set-absence", not sets,
        f"the degree-2 surrogate has no even set within bound "
        f"{bound} (no class meets E exactly once)",
        "unexpected even set on the degree-2 surrogate",
        {"count": len(sets)})]


def ue8_checks(absence_bound: int) -> list[Check]:
    """Verification of the E8(-2)-side glue, the rank-10 genera and the
    even-set absence example on the degree-2 surrogate <2> + E8(-2)."""
    if absence_bound < 0:
        raise ValueError("coefficient bound must be non-negative")
    return [*_glue_checks("E8(-2)"), ("rank10-genus", _rank10_genera),
            ("ue8-even-set-absence", partial(_even_set_absence, absence_bound))]
