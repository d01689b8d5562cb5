"""The 8-clique search that k3lat's even-set search used before it became
a translate search in the frame lattice, kept outside the package as an
oracle: packed-column orthogonality rows and a bit-set clique recursion
over every candidate section, with the parity of the sum carried down.
Beside it, the dict lookups that built the translate search's masks
before its box test.
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import Sequence

from k3lat.intmat import Vec, dot, mat_vec
from k3lat.lattice import IntegralLattice


def packed_adjacency(lat: IntegralLattice, cands: Sequence[Vec]) -> list[int]:
    """Orthogonality rows: bit j of row i is set iff cands[i] . cands[j] = 0
    and j != i.

    The candidates are packed by column: for each coordinate t one integer
    holds cands[j][t] for every j, in fields of w bits, so row i is the
    single sum over t of p_i[t] * col_t (p_i = G cands[i]), whose field j
    is the pairing of cands[i] with cands[j].  Every pairing is bounded by
    M = max_i sum_t |p_i[t]| max_j |cands[j][t]|; with b the bit length of
    M, a field holds b bits, a sign bit and a guard bit.  A bias of 2^b
    per field makes each field non-negative, XOR with the bias zeroes
    exactly the orthogonal fields, and subtracting from the guard bits
    flags those (a SWAR zero-field test).  One flag sits every w bits, so
    a stride slice of the binary string reads the row off.
    """
    k = len(cands)
    if not k:
        return []
    paired = [mat_vec(lat.gram, v) for v in cands]
    colmax = [max(abs(c) for c in col) for col in zip(*cands)]
    b = max(sum(abs(x) * m for x, m in zip(p, colmax)) for p in paired).bit_length()
    w = b + 2
    total = w * k
    ones = ((1 << total) - 1) // ((1 << w) - 1)  # the low bit of every field
    bias, guard = ones << b, ones << (b + 1)
    cols = []
    for col in zip(*cands):
        packed = 0
        for c in reversed(col):
            packed = (packed << w) + c
        cols.append(packed)
    fmt = f"0{total}b"
    rows = []
    for i, p in enumerate(paired):
        x = bias
        for pt, col in zip(p, cols):
            if pt:
                x += pt * col
        if x >> total or x & guard:
            raise ArithmeticError("a pairing overflowed its packed field")
        flags = (guard - (x ^ bias)) & guard
        rows.append(int(format(flags, fmt)[::w], 2) & ~(1 << i))
    return rows


def even_eight_cliques(
    lat: IntegralLattice, cands: Sequence[Vec]
) -> list[tuple[Vec, ...]]:
    """All 8-element subsets of the candidates that are pairwise orthogonal
    and whose sum is 2-divisible, each as a sorted tuple, in sorted order.

    Bit-set adjacency with ascending-degree vertex ordering.  Each
    candidate's residue mod 2 is a bitmask XORed down the recursion, so
    the eighth vertex is read straight off the common neighbours that lie
    in the one residue class completing an even sum.
    """
    k = len(cands)
    if k < 8:
        return []
    degree = [row.bit_count() for row in packed_adjacency(lat, cands)]
    order = sorted(range(k), key=lambda i: (degree[i], cands[i]))
    rcands = [cands[i] for i in order]
    radj = packed_adjacency(lat, rcands)
    parity = [sum((c & 1) << t for t, c in enumerate(v)) for v in rcands]
    same_parity: dict[int, int] = {}
    for i, r in enumerate(parity):
        same_parity[r] = same_parity.get(r, 0) | (1 << i)

    found: list[tuple[Vec, ...]] = []
    chosen: list[Vec] = []

    def extend(allowed: int, left: int, residue: int) -> None:
        # `allowed` holds the `left` common neighbours above every chosen
        # vertex; `residue` is the parity of the chosen vertices' sum.
        need = 7 - len(chosen)
        while left > need:
            low = allowed & -allowed
            allowed ^= low
            left -= 1
            i = low.bit_length() - 1
            common = allowed & radj[i]
            if need == 1:
                leaves = common & same_parity.get(residue ^ parity[i], 0)
                while leaves:
                    last = leaves & -leaves
                    leaves ^= last
                    found.append(tuple(sorted(
                        (*chosen, rcands[i], rcands[last.bit_length() - 1]))))
                continue
            size = common.bit_count()
            if size >= need:
                chosen.append(rcands[i])
                extend(common, size, residue ^ parity[i])
                chosen.pop()

    extend((1 << k) - 1, k, 0)
    # A recursive closure is a reference cycle; breaking it returns the
    # search's bit sets at once rather than at the next garbage collection.
    del extend
    found.sort()
    return found


def lookup_masks(sets) -> tuple[int, ...]:
    """The anchor masks of an `EvenSets`, built as the package built them
    before its box test: bit i of the fits of root j is set iff the packed
    W-key of cands[i] plus that of roots[j] is the key of a candidate, one
    dict lookup per candidate and root, and a shape's mask is the AND of
    the fits of its roots."""
    keys = [dot(v, sets.functional) for v in sets.cands]
    at = {key: i for i, key in enumerate(keys)}
    root_keys = [dot(r, sets.functional) for r in sets.roots]
    fits = {j: sum(1 << i for i, key in enumerate(keys) if key + root_keys[j] in at)
            for j in set().union(*sets.shapes)}
    return tuple(reduce(and_, (fits[j] for j in shape)) for shape in sets.shapes)
