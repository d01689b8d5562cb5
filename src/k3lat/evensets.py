"""The bounded even-set search on a pencil of a hyperbolic even lattice.

A section of the pencil class E is a vector v with v.v = -2 and v.E = 1.
A section O splits the lattice as <E, O> + W with W negative definite
(E7(-2) on the degree-4 model of `k3lat.nsgeometry`); the sections are
O + kE + w with k = -w.w/2, and an even set is a translate w + S of a
shape S whose differences have norm -4 and whose sum lies in 2W.
`find_even_sets` lists every even set within a coefficient box, exactly.
"""

from __future__ import annotations

import struct
from functools import reduce
from itertools import chain, combinations, product
from operator import and_
from typing import Callable, Iterator, Sequence

from .intmat import (
    Mat,
    Record,
    Vec,
    adjugate,
    det_int,
    dot,
    fp_enumerate,
    freeze,
    hnf_basis,
    hnf_row,
    inv_unimodular,
    ldl_int,
    mat_vec,
    require,
    transpose,
    vec_mat,
    vec_neg,
    vec_scale,
)
from .lattice import (
    IntegralLattice,
    _check_lengths,
    _complement_rows,
    direct_sum,
    from_rows,
    gram_in_basis,
    short_vectors,
)


def _negdef_tail_start(g: Mat) -> int:
    """Smallest m such that the trailing (n-m)-block of the Gram matrix is
    negative definite (m = n when even the empty tail is all that works).

    By Sylvester's criterion the trailing blocks of sizes 1..k are all
    negative definite exactly when the leading minors of orders 1..k of
    -G in reversed order are positive, so one elimination of that matrix
    finds the largest such k.
    """
    n = len(g)
    rev = [[-g[i][j] for j in reversed(range(n))] for i in reversed(range(n))]
    return n - len(ldl_int(rev)[0])


def _bounded_sections(lat: IntegralLattice, e: Vec, bound: int) -> list[Vec]:
    """All v with v.v = -2, v.E = 1 and every coordinate in [-bound, bound],
    for a pencil class E of `lat`.

    The coordinates split into a small indefinite prefix and a negative
    definite tail.  One Hermite form U f_tail = (g, 0, ..., 0) of the
    tail's pairings f_tail with E gives the slice: g = gcd(f_tail), and
    the rows of U after the first span the kernel K.  For each prefix,
    v.E = 1 reads w.f_tail = r, solved by wr = (r / g) U[0] when g divides
    r, so the tail is w = wr + z K.  With v0 the prefix followed by wr,
    v.v = -2 is the positive definite shell z A z - 2 b.z = v0.v0 + 2,
    with A = K Dpos K^T and b = K (G v0)_tail, enumerated exactly.  A
    column of K that only row i moves turns |w_j| <= bound into bounds on
    z_i, which `fp_enumerate` applies level by level as its box; the
    coordinates that several rows move are bounded only in the final
    filter.  Each candidate is re-checked against v.v = -2 and v.E = 1,
    and the result is the sorted list of candidates, checked to be
    distinct; a failed check raises ArithmeticError, also under
    `python -O`.  A negative bound, or an E whose length is not the rank,
    raises ValueError before any search.
    """
    if bound < 0:
        raise ValueError("coefficient bound must be non-negative")
    _check_lengths(lat, (e,))
    g = lat.gram
    n = lat.rank
    f = mat_vec(g, e)
    m = _negdef_tail_start(g)
    t = n - m
    dpos = freeze(tuple(-x for x in row[m:]) for row in g[m:])
    f_pre, f_tail = f[:m], f[m:]
    hcol, urows = hnf_row(transpose((f_tail,)))
    # with f_tail = 0 there is no pivot and the kernel is all of Z^t
    gcd_tail = hcol[0][0] if t else 0
    # The recursion fixes the last coordinate first.  Reversed, that is the
    # HNF's first row, whose entries are the largest (on X2, (1, 2, 0, ...)
    # puts 2 z in the box), so the tightest bound cuts the search nearest
    # its root.
    krows = hnf_basis(urows[1:] if gcd_tail else urows)[::-1]
    a_rows = gram_in_basis(IntegralLattice(dpos), krows)
    # the shell form is fixed for the pencil: its centre beta = A^-1 b is
    # adj(A) b / det(A) for each prefix; an empty shell has det 1.  A is
    # positive definite, as Dpos is and K has full row rank, so det(A) > 0
    # (and `fp_enumerate` refuses a form that is not definite).
    det_a, adj_a = adjugate(a_rows)
    # the nonzero K_ij as (j, i, K_ij), column by column, and those of the
    # columns j that row i alone moves
    kterms = [(j, i, row[j]) for j in range(t) for i, row in enumerate(krows) if row[j]]
    cols = [j for j, _, _ in kterms]
    owned = [term for term in kterms if cols.count(term[0]) == 1]
    # v.v as a sum over the nonzero Gram entries on and above the diagonal
    gterms = [(i, j, g[i][j] * (1 if i == j else 2))
              for i in range(n) for j in range(i, n) if g[i][j]]

    out: list[Vec] = []
    for pre in product(range(-bound, bound + 1), repeat=m):
        r = 1 - dot(f_pre, pre)
        if (r % gcd_tail) if gcd_tail else r:
            continue
        wr = vec_scale(urows[0], r // gcd_tail) if gcd_tail else (0,) * t
        v0 = pre + wr
        g_v0 = mat_vec(g, v0)
        b_vec = mat_vec(krows, g_v0[m:])
        # (z - beta) A (z - beta) = v0.v0 + 2 + beta.b, times det(A)^2 in integers
        adj_b = mat_vec(adj_a, b_vec)
        level = det_a * (det_a * (dot(v0, g_v0) + 2) + dot(adj_b, b_vec))
        if level < 0:
            continue
        lows, highs = [[] for _ in krows], [[] for _ in krows]
        for j, i, k in owned:
            # |wr_j + k z_i| <= bound: |k| z_i lies within bound of -u
            u = wr[j] if k > 0 else -wr[j]
            lows[i].append(-((bound + u) // abs(k)))
            highs[i].append((bound - u) // abs(k))
        box = [(max(lo, default=None), min(hi, default=None))
               for lo, hi in zip(lows, highs)]
        for z in fp_enumerate(a_rows, level, center=vec_neg(adj_b), den=det_a, box=box):
            tail = list(wr)
            for j, i, k in kterms:
                tail[j] += k * z[i]
            v = pre + tuple(tail)
            if max(v) > bound or min(v) < -bound:
                continue
            norm = 0
            for i, j, gij in gterms:
                norm += gij * v[i] * v[j]
            # the message is built only when the check fails
            if norm != -2 or dot(f, v) != 1:
                raise ArithmeticError(f"candidate {v} does not satisfy v.v = -2, v.E = 1")
            out.append(v)
    out.sort()
    # (prefix, z) -> v is one-to-one, so only a faulty enumeration repeats
    # a candidate, and a repeat would count some even sets twice
    for u, v in zip(out, out[1:]):
        if u == v:
            raise ArithmeticError(f"candidate {v} was enumerated twice")
    return out


def _section_frame(lat: IntegralLattice, e: Vec, o: Vec) -> tuple[IntegralLattice, Mat, Mat]:
    """The frame L = W + <E, O> of a pencil class E and a section O, which
    <E, O> (Gram [[0, 1], [1, -2]], unimodular) splits off: W, on the basis
    `_complement_rows` gives it, the basis (W rows, E, O) itself, and its
    inverse, which takes a vector to its W-coordinates and its E and O
    coefficients."""
    basis = freeze(_complement_rows(lat, (e, o)) + (e, o))
    require(len(basis) == lat.rank and det_int(basis) in (1, -1),
            "the frame W + <E, O> is not a basis of the lattice")
    g = gram_in_basis(lat, basis)
    w = IntegralLattice(row[:-2] for row in g[:-2])
    require(g == direct_sum(w, from_rows(((0, 1), (1, -2)))).gram,
            "the frame Gram is not W + [[0, 1], [1, -2]]")
    return w, basis, inv_unimodular(basis)


def _packing(vectors: Sequence[Vec]) -> Callable[[Vec], int]:
    """Packs a vector into one integer, additively: its coordinates are the
    digits in a balanced base above 4 max|coordinate| of the given vectors,
    so packing is one-to-one on their pairwise sums and differences, and
    keeps the sign of their first nonzero coordinate."""
    base = 4 * max((abs(c) for v in vectors for c in v), default=0) + 1

    def pack(v: Vec) -> int:
        s = 0
        for c in v:
            s = s * base + c
        return s

    return pack


def _translate_shapes(packed: Sequence[int]) -> list[tuple[int, ...]]:
    """Every 7-subset of the (packed) roots whose differences are roots too,
    as sorted indices: for the positive roots, the shapes {0} + S are the
    sets with least element 0 whose differences are all roots."""
    rset = set(packed) | {-x for x in packed}
    adj = [sum(1 << j for j, y in enumerate(packed) if x - y in rset) for x in packed]
    shapes: list[tuple[int, ...]] = []

    def extend(chosen: tuple[int, ...], allowed: int, need: int) -> None:
        while allowed.bit_count() >= need:
            low = allowed & -allowed
            allowed ^= low
            i = low.bit_length() - 1
            if need == 1:
                shapes.append(chosen + (i,))
            else:
                extend(chosen + (i,), allowed & adj[i], need - 1)

    extend((), (1 << len(packed)) - 1, 7)
    # A recursive closure is a reference cycle; breaking it frees it at once.
    del extend
    return shapes


# The width of one candidate's field in the packed columns of `_box_fits`,
# and the struct format of an unsigned integer of each width it may take.
_FIELD_BITS = 16
_UNSIGNED = {8: "B", 16: "H", 32: "I", 64: "Q"}
# the top byte of a field after the range tests, 0x80 or 0 -> the ASCII
# digit that int(..., 2) reads
_GUARD_DIGITS = bytes.maketrans(b"\x00\x80", b"01")


def _box_fits(gram: Mat, e: Vec, bound: int, cands: Sequence[Vec],
              roots: Sequence[Vec]) -> list[int]:
    """For each root r of the frame, as a lattice vector, the candidates v
    with T_r(v) = v + r + (2 - v.r)E inside [-bound, bound]^n, as a bit
    mask: bit i stands for cands[i].

    T_r(v) is the section whose W-part is that of v plus r (see
    `find_even_sets`), so when `cands` holds every section in the box, bit
    i is set exactly when cands[i] + r is a candidate.  The candidates are
    packed by column, one `_FIELD_BITS` field each, so v.r for all of them
    is one integer combination sum_u (G r)_u col_u, and coordinate t of
    T_r(v) is col_t + r_t + 2 E_t - E_t (v.r), field by field.  With h =
    2^(_FIELD_BITS - 1), the guard (top) bit of a field of T_t + bound + h
    is set iff T_t >= -bound, and that of bound - T_t + h iff T_t <= bound;
    one AND over both tests and every coordinate leaves the guards set
    exactly where T_r(v) lies in the box, and one stride slice of the bytes
    reads them off.  Where E_t = 0, T_t = v_t + r_t, so that coordinate's
    test is made once per value of r_t and shared by the roots.

    No field carries into the next while |T_t| + bound < h.  With s the
    largest |coordinate| of a candidate (at most bound, for the sections
    within it), |T_t| is at most s + |r_t + 2 E_t| + |E_t| s sum_u |(G r)_u|;
    an input where that plus bound reaches h raises ArithmeticError, also
    under `python -O`, instead of reading wrong bits.
    """
    k = len(cands)
    h = 1 << (_FIELD_BITS - 1)
    columns = list(zip(*cands))
    s = max((max(max(col), -min(col)) for col in columns), default=0)
    paired = [mat_vec(gram, r) for r in roots]
    reach = s + max((abs(r[t] + 2 * e[t]) + abs(e[t]) * s * sum(map(abs, p))
                     for r, p in zip(roots, paired) for t in range(len(e))), default=0)
    require(reach + bound < h,
            f"|T_r(v)| + bound may reach {reach + bound}, past the "
            f"{_FIELD_BITS}-bit fields of the box test")
    ones = ((1 << (_FIELD_BITS * k)) - 1) // ((1 << _FIELD_BITS) - 1)
    # field i of cols[t] is cands[i][t] + s, so a packed combination of the
    # columns carries s times its coefficient sum in every field
    fmt = f"<{k}{_UNSIGNED[_FIELD_BITS]}"
    cols = [int.from_bytes(struct.pack(fmt, *[c + s for c in col]), "little")
            for col in columns]
    # with fields T_t + bound + h in lo, those of top - lo are bound - T_t + h
    top = (2 * bound + 2 * h) * ones
    lift = h + bound - s

    def test(lo: int) -> int:
        return lo & (top - lo)

    flat = [t for t, et in enumerate(e) if not et]
    moved = [t for t, et in enumerate(e) if et]
    plain = {(t, c): test(cols[t] + (c + lift) * ones)
             for t in flat for c in {r[t] for r in roots}}
    stride = _FIELD_BITS // 8
    fits = []
    for r, p in zip(roots, paired):
        vr = sum(pu * col for pu, col in zip(p, cols) if pu)
        shift = 2 + s * sum(p)
        ok = reduce(and_, (plain[t, r[t]] for t in flat), ones << (_FIELD_BITS - 1))
        for t in moved:
            ok &= test(cols[t] + (r[t] + e[t] * shift + lift) * ones - e[t] * vr)
        flags = ok.to_bytes(stride * k, "big")[::stride]
        fits.append(int(b"0" + flags.translate(_GUARD_DIGITS), 2))
    return fits


class EvenSets(Record):
    """The even sets of one bounded search, held as one anchor bit mask
    per even shape.

    Every set is a translate w + S of an even shape S (see
    `find_even_sets`).  Its anchor is its member of least packed W-key;
    `_packing` keeps the sign, so the other seven members sit at the
    positive roots of S.  Bit i of `masks[s]` is set iff cands[i] +
    shapes[s] are all sections: the AND of one mask per root r of the
    shape, which `_box_fits` reads off one box test on the section
    T_r(v) = v + r + (2 - v.r)E for all candidates v at once.  So `len()`
    is a sum of popcounts and `in` reads one bit: neither builds a set.  A
    hit rebuilds its set from the candidates by packed W-keys and
    re-checks it from the definition, both with `require`, so a wrong bit
    raises ArithmeticError, also under `python -O`, instead of passing.
    Iteration lists every set as a sorted tuple, in sorted order, from a
    list built anew on each call.

    `cands` are the sections within `bound`, `functional` reads a vector's
    packed W-key as one dot product, `roots` are the positive roots of W as
    vectors of the lattice (W-part the root, no E or O part) and `shapes`
    the even shapes as sorted indices into `roots`.
    """

    _repr = ("lattice", "e", "bound")
    __slots__ = (*_repr, "cands", "functional", "roots", "shapes",
                 "masks", "_keys", "_at", "_root_keys", "_root_at", "_shape_of")
    # compared by identity, as one search's result
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, lattice: IntegralLattice, e: Vec, bound: int, cands: tuple[Vec, ...],
                 functional: Vec, roots: tuple[Vec, ...],
                 shapes: tuple[tuple[int, ...], ...]) -> None:
        self._fill(lattice=lattice, e=e, bound=bound, cands=cands, functional=functional,
                   roots=roots, shapes=shapes)
        keys = tuple(dot(v, self.functional) for v in self.cands)
        root_keys = tuple(dot(r, self.functional) for r in self.roots)
        # bit i of fits[j]: cands[i] + roots[j] is a section, for the roots
        # j that some shape uses
        used = sorted(set(chain.from_iterable(self.shapes)))
        fits = dict(zip(used, _box_fits(self.lattice.gram, self.e, self.bound, self.cands,
                                        [self.roots[j] for j in used])))
        masks = tuple(reduce(and_, (fits[j] for j in shape)) for shape in self.shapes)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_at", {k: i for i, k in enumerate(keys)})
        object.__setattr__(self, "_root_keys", root_keys)
        object.__setattr__(self, "_root_at", {r: j for j, r in enumerate(root_keys)})
        object.__setattr__(self, "_shape_of", {sh: s for s, sh in enumerate(self.shapes)})

    def __len__(self) -> int:
        return sum(mask.bit_count() for mask in self.masks)

    def _members(self, i: int, s: int) -> tuple[Vec, ...]:
        """The set of shape s anchored at cands[i], as a sorted tuple."""
        key = self._keys[i]
        at = [self._at.get(key + self._root_keys[j]) for j in self.shapes[s]]
        require(None not in at,
                f"the mask of shape {s} marks cands[{i}], where the shape "
                "leaves the sections")
        return tuple(sorted(self.cands[m] for m in [i, *at]))

    def __iter__(self) -> Iterator[tuple[Vec, ...]]:
        found = []
        for s, mask in enumerate(self.masks):
            while mask:
                low = mask & -mask
                mask ^= low
                found.append(self._members(low.bit_length() - 1, s))
        found.sort()
        return iter(found)

    def _locate(self, item: object) -> tuple[int, int] | None:
        """(anchor index, shape index) of `item` read off its packed keys, or
        None when no set found here can have them."""
        n = self.lattice.rank
        if not (isinstance(item, tuple) and len(item) == 8
                and all(isinstance(v, tuple) and len(v) == n for v in item)):
            return None
        keys = [dot(v, self.functional) for v in item]
        anchor = min(keys)
        i = self._at.get(anchor)
        s = self._shape_of.get(tuple(sorted(
            self._root_at.get(k - anchor, -1) for k in keys if k != anchor)))
        return None if i is None or s is None else (i, s)

    def __contains__(self, item: object) -> bool:
        """Whether `item` is one of the sets, as iteration gives them."""
        located = self._locate(item)
        if located is None:
            return False
        i, s = located
        # A set that only shares its packed keys with the one found here,
        # such as one with a member v + E for v, is not found.
        if not self.masks[s] >> i & 1 or self._members(i, s) != item:
            return False
        self._recheck(item)
        return True

    def _recheck(self, item: tuple[Vec, ...]) -> None:
        """The definition of an even set of sections, checked directly."""
        paired = [mat_vec(self.lattice.gram, v) for v in item]
        bad = [v for v, p in zip(item, paired) if dot(v, p) != -2 or dot(p, self.e) != 1]
        require(not bad, f"not sections (v.v = -2, v.E = 1): {bad}")
        bad = [v for v in item if max(map(abs, v)) > self.bound]
        require(not bad, f"outside the coefficient bound {self.bound}: {bad}")
        bad = [(a, b) for (a, p), (b, _) in combinations(zip(item, paired), 2) if dot(p, b)]
        require(not bad, f"sections that meet: {bad}")
        require(all(sum(col) % 2 == 0 for col in zip(*item)),
                "the sum of the set is not in 2L")


def find_even_sets(lat: IntegralLattice, e: Vec, bound: int) -> EvenSets:
    """Every even set of eight disjoint sections of the pencil class E, a
    vector of `lat`, with every coordinate in [-bound, bound].

    A result is a sorted 8-tuple of vectors v with v.v = -2, v.E = 1,
    pairwise orthogonal, whose sum is 2-divisible; the sections are those
    of `_bounded_sections`, and the sets come as an
    `EvenSets`, whose `len()` and `in` cost one popcount per shape and one
    bit, and whose iteration lists the sets in sorted order, so repeated
    runs are byte-identical.  A bound too small to see a configuration
    (fewer than eight sections) yields an empty result, not an error.

    The sections form a torsor of the frame lattice W (Shioda 1990): with
    O the first section, L = W + <E, O> and every section is
    v = O + kE + w with w in W and k = -w.w/2, so v -> w is a bijection,
    and v.v' = -2 - (w - w').(w - w')/2 vanishes exactly when w - w' is a
    norm -4 vector of W.  Every 8-clique is thus a translate w + S of a
    shape S: a set with least element 0 whose differences all have norm
    -4.  The sum of w + S lies in 2L exactly when the sum of S lies in 2W
    (the sum of the k is w.sum(S) mod 2), so parity is a property of the
    shape alone: the search lists the even shapes once, and for each root
    r the sections w with w + r a section, as a bit mask; the AND of the
    seven masks of a shape marks where it fits.

    The mask of a root needs no lookup.  With r also read as the lattice
    vector of W-part r, T_r(v) = v + r + (2 - v.r)E is a section for every
    section v: its square is -2 - 4 + 2 v.r + 2(2 - v.r) = -2, T_r(v).E =
    v.E = 1 as r.E = E.E = 0, and its W-part is w + r.  As the candidates
    are every section in the box, w + r is a candidate exactly when every
    coordinate of T_r(v) lies in [-bound, bound], which `_box_fits` tests
    for all candidates at once on their packed columns.  E must be
    isotropic and the lattice hyperbolic (so that W is negative definite);
    otherwise, given eight sections, ValueError.
    """
    cands = _bounded_sections(lat, e, bound)
    if len(cands) < 8:
        return EvenSets(lat, e, bound, (), (), (), ())
    if lat.norm(e) != 0:
        raise ValueError(f"pencil class {e} is not isotropic")
    if lat.signature != (1, lat.rank - 1):
        raise ValueError(f"a lattice of signature {lat.signature} is not hyperbolic")
    w_lat, basis, to_frame = _section_frame(lat, e, cands[0])
    # W is negative definite: its norm -4 vectors, one of each sign pair
    roots = short_vectors(w_lat, 4)
    # |w_t| <= bound * sum_s |to_frame[s][t]| for the W-part w of a candidate
    box = [bound * sum(map(abs, col)) for col in zip(*to_frame)][:-2]
    pack = _packing(roots + [box])
    shapes = tuple(
        shape for shape in _translate_shapes([pack(r) for r in roots])
        if all(sum(col) % 2 == 0 for col in zip(*(roots[j] for j in shape)))
    )
    # pack is linear, so pack(w) = v . (pack of each row's W-part)
    functional = tuple(pack(row[:-2]) for row in to_frame)
    # the lattice vector of W-part r, whose packed W-key is pack(r)
    lifted = tuple(vec_mat(r, basis[:-2]) for r in roots)
    return EvenSets(lat, e, bound, tuple(cands), functional, lifted, shapes)
