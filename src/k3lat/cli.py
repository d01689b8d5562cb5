"""Command-line surface: named lattices, discriminant/genus records, the
verification suites, towers, relatedness, and the even-set search.

Output is canonical JSON (sorted keys, compact separators, rationals as
"p/q" strings) so identical invocations are byte-identical; wall times
appear only in the human-readable listing.  The suites are lists of named
checks, run by k3lat.report: a check that raises becomes one fail entry
and the next check runs.  Exit codes: 0 no failed check (discrepancies
included), 1 a failed check, 2 unusable parameters (among them a Gram
file that cannot be read and a verify option the suite does not read).
No check runs a budgeted search, so none is inconclusive.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from functools import partial
from pathlib import Path
from typing import Callable

from .catalog import (
    MN_LENGTH,
    MN_RANK,
    FamilyDescriptor,
    build_Mn,
    family_genus,
    family_lattice,
    named,
    parse_family,
    resolve_name,
)
from .forms import (
    FiniteQuadraticForm,
    cyclic_block,
    forms_isomorphic,
    group_invariants,
    length,
    milgram_signature,
    normal_blocks,
    sum_forms,
    u_block,
)
from .evensets import find_even_sets
from .lattice import (
    IntegralLattice,
    discriminant_form,
    from_rows,
    is_primitive,
)
from .nsgeometry import (
    build_X2,
    known_even_sets,
    ue8_checks,
    un_checks,
    x2_checks,
)
from .overlattice import (
    GenusDescriptor,
    genus_equal,
    genus_lemma_quotient,
    genus_of,
    lemma_overlattice,
    unique_in_genus_by_length,
)
from .report import Check, check, entry, ratio, run
from .towers import cover_step, mukai_twisted_check, quotient_step, tower, tower_related

SUITES = ("lemma", "theorem", "table", "x2", "un", "ue8", "towers", "mukai")


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Loading lattices by name or from a JSON file
# ---------------------------------------------------------------------------


def _load(target: str) -> IntegralLattice:
    """Lattice for a display name or JSON file (either {"gram": rows} or bare
    rows).  ValueError unless the rows are lists of integers (a JSON true or
    false is not one), and for a genus-level family name."""
    path = Path(target)
    if path.exists():
        data = json.loads(path.read_text())
        rows = data.get("gram") if isinstance(data, dict) else data
        if not (isinstance(rows, list) and all(
                isinstance(row, list) and all(type(x) is int for x in row)
                for row in rows)):
            raise ValueError(f"{path.name}: the Gram must be a list of lists of integers")
        return from_rows(rows, path.name)
    return resolve_name(target)


def _family(target: str) -> FamilyDescriptor | None:
    """The family class a target names; None for a file or another name."""
    return None if Path(target).exists() else parse_family(target)


def _lattice_record(lat: IntegralLattice) -> dict:
    return {
        "label": lat.label,
        "rank": lat.rank,
        "signature": list(lat.signature),
        "det": lat.det,
        "gram": [list(r) for r in lat.gram],
    }


def _form_record(q: FiniteQuadraticForm) -> dict:
    return {
        "orders": list(q.orders),
        "invariants": list(group_invariants(q.orders)),
        "milgram": milgram_signature(q),
        "q": [[ratio(t, q.level) for t in row] for row in q.table],
    }


def _genus_record(g: GenusDescriptor) -> dict:
    """Canonical genus data: the signature, and the normal-form blocks
    [p, k, kind, p^k*q over p^k] of the form, which `genus_equal` compares,
    so two inputs print the same bytes exactly when they are in one genus."""
    q = g.disc
    return {
        "sig": [g.sig_plus, g.sig_minus],
        "form": {
            "blocks": [[p, k, kind, ratio(v, p**k)] for p, k, kind, v in normal_blocks(q)],
            "group": list(group_invariants(q.orders)),
            "milgram": milgram_signature(q),
        },
    }


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


# A suite function checks its parameters and returns its named checks; its
# keyword-only parameters, each with a default, are the verify options it
# reads, and cmd_verify finds them in `__kwdefaults__`.  cmd_verify calls every
# suite function before any check runs, so unusable parameters exit 2 with
# nothing printed.  Each docstring gives the suite's row of the README table:
# the claim and, after "all:", what `verify all` runs, all of it or a sample.


def _suite_lemma(*, n: int = 2, d: int | None = None) -> list[Check]:
    """Congruence overlattice of <2d> + W: the U(n) demonstration for the
    requested n, and the rank-9 case W = E8(-2) when n = 2.  Claim: quotient
    families with a symplectic automorphism; all: (n, d) = (2, 4), a sample."""
    d = 2 * n if d is None else d
    if n < 2:
        raise ValueError("the block parameter n must be at least 2")
    if d < 1:
        raise ValueError(f"the lemma parameter d must be positive, got d={d}")
    if d % (2 * n):
        raise ValueError(f"need d = 0 mod 2n, got d={d}, n={n}")
    checks = [(f"lemma-un-d{d}", partial(_lemma_un, n, d))]
    if n == 2:
        checks.append((f"lemma-e8-d{d}", partial(_lemma_e8, d)))
    return checks


def _lemma_un(n: int, d: int) -> list[dict]:
    demo_w = named(f"U({n})")
    z, emb = lemma_overlattice(d, n, demo_w)
    g = genus_of(z)
    v_det = -2 * d * n * n  # det(<2d>) * det(U(n))
    first = check(
        f"lemma-construction-un-d{d}", z.det * n * n == v_det and is_primitive(emb),
        f"index-{n} even overlattice of <2d> + U({n}) built; U({n}) stays primitive",
        "overlattice construction violated index or primitivity",
        {"det": z.det})
    second = check(
        f"lemma-disc-form-un-d{d}",
        forms_isomorphic(g.disc, cyclic_block(2 * d, 1)) is not None,
        f"the glue quotient has cyclic discriminant form of order {2 * d} "
        f"and value 1/{2 * d}",
        "the glue quotient has the wrong discriminant form")
    # Form-level quotient agrees with the lattice-level construction.
    return [first, second, check(
        f"lemma-genus-crosscheck-un-d{d}",
        genus_equal(g, genus_lemma_quotient(d, n, genus_of(demo_w))),
        "lattice-level and form-level constructions land in the same genus",
        "the two construction routes disagree")]


def _lemma_e8(d: int) -> list[dict]:
    w = named("E8(-2)")
    z2, emb2 = lemma_overlattice(d, 2, w)
    g = genus_of(z2)
    first = check(
        f"lemma-construction-e8-d{d}",
        4 * z2.det == 2 * d * w.det and is_primitive(emb2),
        f"index-2 even overlattice of <2d> + E8(-2) built for d={d}",
        "rank-9 overlattice construction violated index or primitivity",
        {"det": z2.det})
    expected = sum_forms(
        [cyclic_block(2 * d, 1)] + [u_block(2)] * 3)
    return [first, check(
        f"lemma-disc-form-e8-d{d}",
        forms_isomorphic(g.disc, expected) is not None,
        f"discriminant form is cyclic(1/{2 * d}) plus three hyperbolic "
        "2-blocks",
        "rank-9 overlattice has the wrong discriminant form"), check(
        f"lemma-family-agreement-d{d}",
        genus_equal(g, family_genus(FamilyDescriptor("Lp", d, 2))),
        f"the congruence construction lands in the Lp({d},2) genus",
        "the congruence construction misses the family genus")]


def _suite_theorem(*, n: int = 2, d: int | None = None) -> list[Check]:
    """Certify Lp(d,n) = M(d,n): same genus plus the length criterion, two
    checks that share the M(d,n) genus.  Claim: quotient families with a
    symplectic automorphism; all: (n, d) = (2, 4), a sample."""
    d = 2 * n if d is None else d
    lp, m = FamilyDescriptor("Lp", d, n), FamilyDescriptor("M", d, n)

    def same_genus() -> list[dict]:
        gm = family_genus(m)
        return [check(
            f"theorem-genus-n{n}-d{d}",
            genus_equal(family_genus(lp), gm),
            f"{lp.label} and {m.label} lie in the same genus",
            f"{lp.label} and {m.label} genera differ",
            {"rank": gm.sig_plus + gm.sig_minus, "length": length(gm.disc)})]

    def unique() -> list[dict]:
        return [check(
            f"theorem-unique-n{n}-d{d}",
            unique_in_genus_by_length(family_genus(m)),
            f"the {m.label} genus contains a single class (length criterion)",
            f"the length criterion is inconclusive for {m.label}")]

    return [(f"theorem-genus-n{n}-d{d}", same_genus),
            (f"theorem-unique-n{n}-d{d}", unique)]


def _table_mn(n: int) -> list[dict]:
    lat = build_Mn(n)
    got = (lat.rank, length(genus_of(lat).disc))
    want = (MN_RANK[n], MN_LENGTH[n])
    # build_Mn refuses all but exactly one accepted cyclic code
    return [check(
        f"table-mn-{n}", got == want,
        f"M_{n}: rank {got[0]}, length {got[1]}",
        f"M_{n}: got (rank, length) = {got}, expected {want}",
        {"glue": "cyclic", "accepted": 1})]


def _catalog_builders() -> list[tuple[str, Callable[[], IntegralLattice]]]:
    """(label, builder) of every catalog lattice."""
    out = [(s, partial(named, s)) for s in (
        "U", "U(2)", "U(3)", "U(4)", "A(1)", "A(2)", "A(3)", "A(4)",
        "D4", "E8(-1)", "E8(-2)", "N")]
    out.extend((f"M({n})", partial(build_Mn, n)) for n in range(2, 9))
    out.extend((f.label, partial(family_lattice, f)) for f in (
        FamilyDescriptor("M", 1, 2), FamilyDescriptor("M", 2, 2),
        FamilyDescriptor("Mp", 2, 2), FamilyDescriptor("L", 1, 2),
        FamilyDescriptor("Lp", 2, 2)))
    out.extend((s, partial(named, s)) for s in ("UN", "UE8"))
    return out


def _table_milgram(build: Callable[[], IntegralLattice]) -> list[dict]:
    lat = build()
    sp, sm = lat.signature
    sig = milgram_signature(genus_of(lat).disc)
    return [check(
        f"table-milgram-{lat.label}", (sig - (sp - sm)) % 8 == 0,
        f"Gauss-sum signature {sig} = {sp}-{sm} mod 8",
        f"Gauss-sum signature {sig} does not match ({sp},{sm})",
        {"signature": [sp, sm]})]


def _suite_table() -> list[Check]:
    """The quotient-lattice table (rank and length for n = 2..8) and the
    Gauss-sum signature congruence over the whole catalog.  Claim: quotient
    families with a symplectic automorphism; all: every parameter."""
    return ([(f"table-mn-{n}", partial(_table_mn, n)) for n in range(2, 9)]
            + [(f"table-milgram-{label}", partial(_table_milgram, build))
               for label, build in _catalog_builders()])


def _suite_x2(*, bound: int = 5) -> list[Check]:
    """The degree-4 model X2.  Claim: the explicit example; all: the
    even-set search at bound 5, a sample."""
    return x2_checks(bound)


def _suite_un(*, e: int | None = None) -> list[Check]:
    """The eight-I2 model U + N.  Claim: quotient families with a symplectic
    automorphism; all: polarizations e = 1..4, a sample."""
    return un_checks((1, 2, 3, 4) if e is None else (e,))


def _suite_ue8(*, bound: int = 3) -> list[Check]:
    """The E8(-2) side.  Claim: quotient families with a symplectic
    automorphism; all: the absence example at bound 3, a sample."""
    return ue8_checks(bound)


def _suite_towers(*, d: int = 8, depth: int = 5) -> list[Check]:
    """The cover towers.  Claim: the transcendental lattices of 2^n:1
    isogenous K3 surfaces; all: d = 1..8 at depth 5, a sample."""
    if d < 1:
        raise ValueError(f"the largest tower parameter d must be positive, got d={d}")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    return [*((f"towers-invariants-d{e}", partial(_tower_invariants, e, depth))
              for e in range(1, d + 1)),
            ("towers-step-laws", _step_laws), ("towers-related-probes", _related_probes)]


def _tower_invariants(d: int, depth: int) -> list[dict]:
    nodes = tower(d, depth)
    return [entry(
        f"towers-invariants-d{d}", "pass",
        f"all {depth + 1} storeys over d={d} verified "
        "(rank 13, signature (2,11), negated discriminant form)",
        {"storeys": [n.ns.label for n in nodes]})]


def _step_laws() -> list[dict]:
    laws_ok = all(
        cover_step(quotient_step(f)) == f
        for e in range(1, 7)
        for f in (FamilyDescriptor("L", e, 2), FamilyDescriptor("Lp", 2 * e, 2))
    ) and all(
        quotient_step(cover_step(f)) == f
        for e in range(1, 7)
        for f in (FamilyDescriptor("M", e, 2), FamilyDescriptor("Mp", 2 * e, 2))
    )
    return [check(
        "towers-step-laws", laws_ok,
        "cover_step and quotient_step invert each other on both kinds",
        "a step composition failed to return to its start")]


def _related_probes() -> list[dict]:
    probes = (((3, 24), 3), ((5, 7), None), ((4, 4), 0), ((64, 2), 5))
    return [check(
        "towers-related-probes",
        all(tower_related(*pair) == want for pair, want in probes),
        "power-of-two relatedness matches on the probe pairs",
        "a relatedness probe returned the wrong exponent",
        {"probes": [[list(p), w] for p, w in probes]})]


def _suite_mukai() -> list[Check]:
    """The twisted partners.  Claim: the transcendental lattices of 2^n:1
    isogenous K3 surfaces; all: m in {0, 1}, d in {1, 2}, a sample."""
    return [(f"twisted-m{m}-d{d}", partial(mukai_twisted_check, m, d))
            for m in (0, 1) for d in (1, 2)]


_SUITE_FN = {name: globals()[f"_suite_{name}"] for name in SUITES}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_catalog(args) -> int:
    print(_dumps(_lattice_record(_load(args.name))))
    return 0


def cmd_disc(args) -> int:
    f = _family(args.target)
    q = discriminant_form(_load(args.target)) if f is None or f.has_gram else family_genus(f).disc
    print(_dumps(_form_record(q)))
    return 0


def cmd_genus(args) -> int:
    f = _family(args.target)
    g = genus_of(_load(args.target)) if f is None else family_genus(f)
    print(_dumps(_genus_record(g)))
    return 0


def cmd_verify(args) -> int:
    given = {opt: v for fn in _SUITE_FN.values() for opt in fn.__kwdefaults__ or {}
             if (v := getattr(args, opt)) is not None}
    if args.suite == "all" and "d" in given:
        raise ValueError("verify all does not read --d: lemma and theorem read it as "
                         "their d, towers as its largest d; run those suites one at a time")
    names = SUITES if args.suite == "all" else (args.suite,)
    checks = []
    for name in names:
        # `all` hands each suite the options it reads; one named suite reads all
        reads = _SUITE_FN[name].__kwdefaults__ or {}
        unread = [f"--{opt}" for opt in given if opt not in reads]
        if unread and args.suite != "all":
            raise ValueError(f"verify {name} does not read {', '.join(unread)}")
        checks += _SUITE_FN[name](**{opt: v for opt, v in given.items() if opt in reads})
    reports = run(checks)

    if args.json:
        print(_dumps([e for e, _ in reports]))
    else:
        for e, seconds in reports:
            print(f"{e['status'].upper():>12} {e['check']}: {e['detail']} "
                  f"({seconds:.2f}s)")
        counts = Counter(e["status"] for e, _ in reports)
        print("summary: " + ", ".join(
            f"{counts[s]} {s}" for s in
            ("pass", "discrepancy", "fail") if counts[s]))
    return 1 if any(e["status"] == "fail" for e, _ in reports) else 0


def cmd_tower(args) -> int:
    nodes = tower(args.d, args.depth)
    print(_dumps([
        {
            "m": node.depth,
            "ns": {"kind": node.ns.kind, "d": node.ns.d, "n": node.ns.n,
                   "label": node.ns.label},
            "T": _lattice_record(node.transcendental),
        }
        for node in nodes
    ]))
    return 0


def cmd_related(args) -> int:
    m = tower_related(args.d, args.e)
    if m is None:
        out = {"m": None, "degree": None, "note": "unrelated"}
    elif m == 0:
        out = {"m": 0, "degree": 1, "note": "identical family"}
    else:
        out = {"m": m, "degree": 2 ** m}
    print(_dumps(out))
    return 0


def cmd_evenset(args) -> int:
    x2 = build_X2()
    known = dict(zip(("E1", "E2"), known_even_sets()))
    out = {"bound": args.bound, "pencils": {}, "sets": [], "missing": []}
    for label, want in known.items():
        results = find_even_sets(x2.lattice, x2.vec(label), args.bound)
        found = want in results
        out["pencils"][label] = {"count": len(results),
                                 "displayed_set_found": found}
        if found:
            out["sets"].append([list(v) for v in want])
        else:
            out["missing"].append(label)
    print(_dumps(out))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k3lat",
        description="Even-lattice toolkit: catalog lattices, discriminant "
        "and genus records, verification suites, cover towers and the "
        "even-set search.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="Gram record of a named lattice")
    p.add_argument("name", help='e.g. "U(2)", "N", "E8(-2)", "M(3)", "M(4,2)"')
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("disc", help="discriminant form of a lattice")
    p.add_argument("target", help="name or JSON file with a Gram matrix")
    p.set_defaults(fn=cmd_disc)

    p = sub.add_parser("genus", help="canonical genus record of a lattice")
    p.add_argument("target", help="name or JSON file with a Gram matrix")
    p.set_defaults(fn=cmd_genus)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITES + ("all",))
    p.add_argument("--json", action="store_true",
                   help="canonical JSON instead of the human listing")
    p.add_argument("--bound", type=int,
                   help="coordinate bound for the even-set suites "
                   "(x2 default 5, ue8 default 3)")
    p.add_argument("--n", type=int, help="block parameter for lemma/theorem")
    p.add_argument("--d", type=int,
                   help="lemma/theorem parameter, or maximum d for towers; "
                   "not for all, as these suites read it differently")
    p.add_argument("--e", type=int, help="single polarization for the un suite")
    p.add_argument("--depth", type=int, help="tower depth (towers suite)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("tower", help="cover tower as JSON")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(fn=cmd_tower)

    p = sub.add_parser("related", help="power-of-two relatedness of d and e")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.set_defaults(fn=cmd_related)

    p = sub.add_parser("evenset", help="bounded even-set search on both pencils")
    p.add_argument("--bound", type=int, default=5)
    p.set_defaults(fn=cmd_evenset)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
