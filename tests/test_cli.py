"""Tests for the command-line surface: JSON records, suite runs, exit
codes, and output determinism."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import k3lat
from k3lat import cli
from k3lat.catalog import FamilyDescriptor, family_lattice, omega_genus
from k3lat.cli import main
from k3lat.forms import FiniteQuadraticForm, forms_isomorphic
from k3lat.intmat import det_int, mat_mul, transpose
from test_acceptance import VERIFY_ALL_SHA256
from test_overlattice import oracle_lemma_quotient


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_catalog_named_lattice(capsys):
    code, data, _ = run_json(capsys, "catalog", "U(2)")
    assert code == 0
    assert data["gram"] == [[0, 2], [2, 0]]
    assert data["signature"] == [1, 1]
    assert data["det"] == -4


def test_catalog_unknown_name(capsys):
    code, out, err = run(capsys, "catalog", "Leech")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_catalog_rejects_genus_level_family(capsys):
    code, out, err = run(capsys, "catalog", "L(6,3)")
    assert code == 2
    assert out == ""
    assert "no canonical Gram" in err


def test_disc_of_the_eight_component_lattice(capsys):
    code, data, _ = run_json(capsys, "disc", "N")
    assert code == 0
    assert data["orders"] == [2, 2, 2, 2, 2, 2]
    assert data["invariants"] == [2, 2, 2, 2, 2, 2]
    assert data["milgram"] == 0


def test_disc_from_gram_file(capsys, tmp_path):
    f = tmp_path / "u2.json"
    f.write_text('{"gram": [[0, 2], [2, 0]]}')
    code, data, _ = run_json(capsys, "disc", str(f))
    assert code == 0
    assert data["orders"] == [2, 2]
    bare = tmp_path / "bare.json"
    bare.write_text("[[0, 2], [2, 0]]")
    code, data2, _ = run_json(capsys, "disc", str(bare))
    assert code == 0
    assert data2 == data


def test_disc_malformed_file(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    code, out, err = run(capsys, "disc", str(f))
    assert code == 2
    assert "error:" in err
    g = tmp_path / "nogram.json"
    g.write_text('{"rows": [[2]]}')
    code, _, err = run(capsys, "disc", str(g))
    assert code == 2


def test_disc_refuses_an_odd_gram_file(capsys, tmp_path):
    f = tmp_path / "odd.json"
    f.write_text("[[2, 1], [1, 3]]")
    code, out, err = run(capsys, "disc", str(f))
    assert code == 2
    assert out == ""
    assert "even lattice" in err


@pytest.mark.parametrize("text", [
    '[["2", 1], [1, 2]]',
    "[[2, 1], [1, 2.0]]",
    "[[true, 0], [0, 2]]",
    "5",
    '{"rows": [[2]]}',
])
@pytest.mark.parametrize("command", ["catalog", "disc", "genus"])
def test_gram_files_that_do_not_hold_integers_exit_2(capsys, tmp_path, command, text):
    # a string, a float or a bool entry, or no rows at all (a bare number,
    # an object with no "gram" key), is refused before anything is printed
    f = tmp_path / "gram.json"
    f.write_text(text)
    code, out, err = run(capsys, command, str(f))
    assert (code, out) == (2, "")
    assert "list of lists of integers" in err


@pytest.mark.parametrize("command", ["catalog", "disc", "genus"])
def test_a_directory_target_exits_2(capsys, tmp_path, command):
    # a target that exists but cannot be read as a file is an unusable
    # parameter, not a failed check
    code, out, err = run(capsys, command, str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_genus_records_of_equal_genera_are_byte_identical(capsys):
    code1, out1, _ = run(capsys, "genus", "Lp(4,2)")
    code2, out2, _ = run(capsys, "genus", "M(4,2)")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["sig"] == [1, 8]
    assert data["form"]["group"] == [2, 2, 2, 2, 2, 2, 8]


# stdout of the only commands that print form values; the genus record
# was recorded before the form values moved from Fraction to integers over
# the level, and the disc record when `disc` moved to the p-primary
# generators of the p-local Smith forms
DISC_M42 = (
    '{"invariants":[2,2,2,2,2,2,8],"milgram":1,"orders":[2,2,2,2,2,2,8],'
    '"q":[["1","1/2","0","0","0","0","0"],["1/2","1","0","0","0","0","0"],'
    '["0","0","0","1/2","0","0","0"],["0","0","1/2","0","0","0","0"],'
    '["0","0","0","0","1","1/2","0"],["0","0","0","0","1/2","1","0"],'
    '["0","0","0","0","0","0","1/8"]]}\n'
)
GENUS_LP42 = (
    '{"form":{"group":[2,2,2,2,2,2,8],"milgram":1,"values":[["0",71],'
    '["1/8",128],["1/2",72],["1",56],["9/8",128],["3/2",56]]},"sig":[1,8]}\n'
)


def test_disc_and_genus_stdout_bytes_are_pinned(capsys):
    assert run(capsys, "disc", "M(4,2)") == (0, DISC_M42, "")
    assert run(capsys, "genus", "Lp(4,2)") == (0, GENUS_LP42, "")


# a storey of the M tower above the old tabulation cap of 10^6 elements
GENUS_M8192_SHA256 = "47ce22effa40727d5810ad5067d14c6cbf9508a0975bc116e5098a3594e9fd0f"


def test_genus_of_a_high_tower_storey_is_pinned(capsys, tmp_path):
    code, out, err = run(capsys, "genus", "M(8192,2)")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GENUS_M8192_SHA256
    data = json.loads(out)
    assert data["form"]["group"] == [2, 2, 2, 2, 2, 2, 16384]
    assert sum(n for _, n in data["form"]["values"]) == 2**20 - 1
    # the same lattice in another basis: u is unimodular (transvections)
    gram = family_lattice(FamilyDescriptor("M", 8192, 2)).gram
    u = [[int(i == j) for j in range(9)] for i in range(9)]
    for i in range(9):
        for j in range(9):
            if i != j and (i * 7 + j * 3) % 5 == 0:
                u[i] = [a + (j - i) * b for a, b in zip(u[i], u[j])]
    assert det_int(u) == 1
    moved = tmp_path / "m8192.json"
    moved.write_text(json.dumps([list(r) for r in mat_mul(mat_mul(u, gram), transpose(u))]))
    assert run(capsys, "genus", str(moved)) == (0, out, "")


def test_genus_of_degenerate_input_rejected(capsys, tmp_path):
    f = tmp_path / "deg.json"
    f.write_text("[[0]]")
    code, _, err = run(capsys, "genus", str(f))
    assert code == 2
    assert "error:" in err


def test_verify_human_listing(capsys):
    code, out, _ = run(capsys, "verify", "mukai")
    assert code == 0
    assert "PASS" in out
    assert "summary: 12 pass" in out
    assert "(0." in out  # wall time only in the human listing


def test_verify_json_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "mukai", "--json")
    code2, out2, _ = run(capsys, "verify", "mukai", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    entries = json.loads(out1)
    assert all(e["status"] == "pass" for e in entries)
    assert all(set(e) == {"check", "status", "detail", "witness"}
               for e in entries)


def test_verify_exit_one_on_fail(capsys):
    # Bound 4 misses both displayed even sets, so the x2 suite fails.
    code, out, _ = run(capsys, "verify", "x2", "--bound", "4", "--json")
    assert code == 1
    entries = json.loads(out)
    failed = [e["check"] for e in entries if e["status"] == "fail"]
    assert "x2-even-set-search-E1" in failed
    assert "x2-even-set-search-E2" in failed


_VERIFY_WITH_THE_SHIMS = """
import importlib
import pkgutil
import sys
import k3lat
from k3lat import cli

# the retired search names are bound only by the shims that raise, so no
# other module can call one
for home, name in (("lattice", "is_isometric_definite"), ("forms", "isotropic_subgroups")):
    bound = [m for _, m, _ in pkgutil.iter_modules(k3lat.__path__) if m != home
             and hasattr(importlib.import_module("k3lat." + m), name)]
    if bound:
        sys.exit(f"{name} is imported by {bound}")
sys.exit(cli.main(["verify", "all", "--json"]))
"""


def test_lemma_and_theorem_have_no_inconclusive_path():
    # No check of `verify all` runs a budgeted search: the package keeps the
    # definite isometry search and the subgroup enumeration only as names
    # that raise, and a fresh interpreter (so that no cached result stands
    # in for a call) with the shims as shipped still gives the pinned bytes.
    # There is no --budget to set.
    src = os.path.dirname(os.path.dirname(k3lat.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _VERIFY_WITH_THE_SHIMS],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == VERIFY_ALL_SHA256
    for suite in ("lemma", "theorem", "all"):
        with pytest.raises(SystemExit):
            main(["verify", suite, "--budget", "1"])


def test_verify_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, "verify", "lemma", "--n", "2", "--d", "3")
    assert code == 2
    assert "mod 2n" in err
    # checked before any suite runs, so nothing reaches stdout
    code, out, err = run(capsys, "verify", "all", "--n", "9")
    assert (code, out) == (2, "")
    assert "between 2 and 8" in err
    with pytest.raises(SystemExit):
        main(["verify", "nonsense"])


@pytest.mark.parametrize("argv, message", [
    (("x2", "--bound", "-1"), "coefficient bound must be non-negative"),
    (("ue8", "--bound", "-1"), "coefficient bound must be non-negative"),
    (("un", "--e", "0"), "polarization parameter must be positive"),
    (("towers", "--depth", "-1"), "depth must be nonnegative"),
    (("all", "--bound", "-1"), "coefficient bound must be non-negative"),
    (("lemma", "--d", "0"), "the lemma parameter d must be positive"),
    (("lemma", "--d", "-4"), "the lemma parameter d must be positive"),
    (("towers", "--d", "0"), "the largest tower parameter d must be positive"),
])
def test_unusable_suite_parameters_exit_2_before_any_check(capsys, argv, message):
    # no suite runs, so no fail entry reaches stdout
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert message in err


# the verify options each suite reads; `all` reads every one
_SUITE_READS = {
    "lemma": ("n", "d"), "theorem": ("n", "d"), "table": (), "x2": ("bound",),
    "un": ("e",), "ue8": ("bound",), "towers": ("d", "depth"), "mukai": (),
}


@pytest.mark.parametrize("suite, option", [
    (suite, option) for suite, reads in _SUITE_READS.items()
    for option in ("bound", "n", "d", "e", "depth") if option not in reads
])
def test_a_suite_refuses_an_option_it_does_not_read(capsys, suite, option):
    # 3 is a usable value for every option, so only the suite can refuse it
    code, out, err = run(capsys, "verify", suite, f"--{option}", "3")
    assert (code, out) == (2, "")
    assert err == f"error: verify {suite} does not read --{option}\n"


def test_a_suite_names_every_option_it_does_not_read(capsys):
    code, out, err = run(capsys, "verify", "x2", "--e", "3", "--n", "5")
    assert (code, out) == (2, "")
    assert err == "error: verify x2 does not read --n, --e\n"


@pytest.mark.parametrize("d", ["3", "8"])
def test_verify_all_refuses_d(capsys, d):
    # lemma/theorem and towers read --d differently, so `all` cannot hand
    # one value to both; d = 3 is one towers reads and the lemma refuses
    code, out, err = run(capsys, "verify", "all", "--d", d, "--json")
    assert (code, out) == (2, "")
    assert err == ("error: verify all does not read --d: lemma and theorem read "
                   "it as their d, towers as its largest d; run those suites "
                   "one at a time\n")


def test_failing_check_does_not_hide_the_rest(capsys, monkeypatch):
    # the genus check raises; the uniqueness check of the same suite and
    # the later suite still run
    def broken(*args):
        raise ArithmeticError("planted")

    monkeypatch.setattr(cli, "SUITES", ("theorem", "mukai"))
    monkeypatch.setattr(cli, "genus_equal", broken)
    code, out, err = run(capsys, "verify", "all", "--json")
    assert code == 1
    entries = json.loads(out)
    assert [e["check"] for e in entries[:2]] == [
        "theorem-genus-n2-d4", "theorem-unique-n2-d4"]
    assert entries[0]["status"] == "fail"
    assert entries[0]["detail"] == "ArithmeticError: planted"
    assert entries[1]["status"] == "pass"
    assert "Traceback" in err
    rest = entries[2:]
    assert len(rest) == 12
    assert all(e["check"].startswith("twisted-") and e["status"] == "pass"
               for e in rest)


def test_tower_command(capsys):
    code, nodes, _ = run_json(capsys, "tower", "--d", "1", "--depth", "4")
    assert code == 0
    assert len(nodes) == 5
    for m, node in enumerate(nodes):
        assert node["m"] == m
        assert node["ns"]["label"] == f"M({2 ** m},2)"
        assert node["T"]["gram"][12][12] == -(2 ** (m + 1))
        assert node["T"]["signature"] == [2, 11]


def test_related_command(capsys):
    code, data, _ = run_json(capsys, "related", "--d", "3", "--e", "24")
    assert code == 0
    assert data == {"m": 3, "degree": 8}
    _, data, _ = run_json(capsys, "related", "--d", "4", "--e", "4")
    assert data == {"m": 0, "degree": 1, "note": "identical family"}
    _, data, _ = run_json(capsys, "related", "--d", "5", "--e", "7")
    assert data == {"m": None, "degree": None, "note": "unrelated"}
    with pytest.raises(SystemExit):
        main(["related", "--d", "3"])


def test_evenset_command_finds_both_sets_at_bound_five(capsys):
    code, data, _ = run_json(capsys, "evenset", "--bound", "5")
    assert code == 0
    assert len(data["sets"]) == 2
    assert data["missing"] == []
    assert data["pencils"]["E1"]["count"] == 10608
    assert data["pencils"]["E2"]["count"] == 8396
    assert data["pencils"]["E1"]["displayed_set_found"] is True
    assert data["pencils"]["E2"]["displayed_set_found"] is True


# stdout of `catalog` and `disc` on the index-2 families: the glue element
# that `find_u_block` gives for q_W, on the p-primary generators of
# `discriminant_group`, decides the printed Gram
FAMILY_SHA256 = {
    "catalog Mp(4,2)": "a92b22b66179bedef791b094381403ae1e7df869c6833fe23e11d0d8e766b563",
    "catalog Lp(4,2)": "a08ee7bcc1afe98769ef36738377af3640ac90f6cac880f9e616c420750d9f9d",
    "catalog Mp(6,2)": "ae2e1f8d5cbe623f9927474a2e47ffe07bd77b17f055de0664abf57d791822e8",
    "catalog Lp(6,2)": "62d1e8598854c4912a358a0a17732370f312169e97e39d6227f5ae1b68c02c16",
    "disc Mp(4,2)": "8846ffc0901287ab096daa96d5d4f194db29d581119220762d718782c764ef42",
    "disc Lp(4,2)": "53a46117be18f7ac169e0e85015e0cd5f1a782db378a0a728a810f7b6cd598b8",
    "disc Mp(6,2)": "ae57114effab5bcc015270225d5253b32a3655e4bb5cc47414a616294464fd6d",
    "disc Lp(6,2)": "5d7241d5ecea9bddfc89c6725a74ed06eb5b2de83676072f4860f93ed38701d9",
}


@pytest.mark.parametrize("command", FAMILY_SHA256)
def test_index2_family_stdout_bytes_are_pinned(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == FAMILY_SHA256[command]


# stdout of `disc` and `genus` on the genus-level families (L/Lp, n >= 3),
# which have no Gram: `family_genus` builds their genus from `omega_genus`.
# The L form prints u(n) + q_{M_n} on the generators `discriminant_group`
# gives M_n.  The Lp form prints as <1/2d> followed by the normal-form blocks of the
# complement of u(n) (`genus_lemma_quotient`)
GENUS_LEVEL_SHA256 = {
    "disc L(6,3)": "ffbe54c3cc5497151fc6ffb0bc67e90ba969e2b6af59e50887a8fe2bd8bc798b",
    "genus L(6,3)": "3cc3114c540455ea1f738278cc4155a8c85ecd393252c88040e09830fa2a2dfc",
    "disc Lp(6,3)": "d0675f184be3fb64546e1b2fa911a1f0218bb3a46f53f71dbd09607f8e6c1f4d",
    "genus Lp(6,3)": "840b7c8435f6eae78c77778d4f469049cd4c7415bd85f63a6367fc1777c79cbe",
}


@pytest.mark.parametrize("command", GENUS_LEVEL_SHA256)
def test_genus_level_family_stdout_bytes_are_pinned(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GENUS_LEVEL_SHA256[command]


@pytest.mark.parametrize("n", range(3, 9))
def test_printed_lp_form_is_the_subquotient_oracles(capsys, n):
    # the printed form of Lp(2n,n) read back from its q-table is
    # isomorphic to H-perp/H taken by the oracle
    code, data, _ = run_json(capsys, "disc", f"Lp({2 * n},{n})")
    assert code == 0
    printed = FiniteQuadraticForm.from_gram(
        data["orders"], [[Fraction(x) for x in row] for row in data["q"]])
    assert (data["orders"][0], data["q"][0][0]) == (4 * n, f"1/{4 * n}")
    want = oracle_lemma_quotient(2 * n, n, omega_genus(n))
    assert forms_isomorphic(printed, want) is not None


# stdout of `catalog` on M(n): the one glue word that
# `catalog._cyclic_glue_codes` lists and the root count accepts decides the
# printed Gram
MN_SHA256 = {
    "catalog M(2)": "c9ea47aad79dc5c0f28bf6315df788da486e0d88d974557913b09acbfa5f1d24",
    "catalog M(3)": "e05208a4f6ebafc0ac0cf4eb731d5c889d243c5b3cac569e9f4aa3d0f08896ff",
    "catalog M(4)": "b70ab5b033d97aced22063adee18a2b654ddf78e277b9eb41728aab1be8547b2",
    "catalog M(5)": "74ee2184c060167a390f67e75e9e8f3059da6fad232bc6b0d759c3df6d6c9ed5",
    "catalog M(6)": "af163dc61d1a5bb8e703a18fef777d9027f413c0a35a47712273e74deac4a030",
    "catalog M(7)": "d0ac6040fee9d6851973df1b90ba4da66f0388740d45ee6cb6ad862f82297b2c",
    "catalog M(8)": "3b1dfcae7c236e5d00a7c3b5986d24314f1ac13e0aaf70bbbea881ac5a345017",
}


@pytest.mark.parametrize("command", MN_SHA256)
def test_mn_catalog_stdout_bytes_are_pinned(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == MN_SHA256[command]


def test_evenset_command_at_bound_seven_is_pinned(capsys):
    # Past the benchmark's bound 6, and more of its shell vectors leave the
    # coordinate box; the stdout bytes are pinned.
    code, out, _ = run(capsys, "evenset", "--bound", "7")
    assert code == 0
    data = json.loads(out)
    assert data["missing"] == []
    assert data["pencils"] == {
        "E1": {"count": 55606, "displayed_set_found": True},
        "E2": {"count": 42761, "displayed_set_found": True},
    }
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7ec9b667ae625ad6f8d4cc82c6c2426b3e0254733c902fdcd9c5338bc745260f")


def test_evenset_command_at_bound_six_prints_the_benchmark_golden(capsys):
    golden = Path(__file__).resolve().parent.parent / "k3bench" / "golden.json"
    want = json.loads(golden.read_text())["evenset_b6"]["sha256"]
    code, out, err = run(capsys, "evenset", "--bound", "6")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == want


def test_evenset_command_refuses_a_negative_bound(capsys):
    code, out, err = run(capsys, "evenset", "--bound", "-1")
    assert (code, out) == (2, "")
    assert "coefficient bound must be non-negative" in err


def test_evenset_command_reports_missing_sets(capsys):
    code, data, _ = run_json(capsys, "evenset", "--bound", "3")
    assert code == 0
    assert data["sets"] == []
    assert data["missing"] == ["E1", "E2"]
    assert data["pencils"]["E1"]["count"] == 280


# The theorem-genus certificate with a corrupted basis change: in T1, the
# coordinates of the Lp(2n,n) form's generators in its normal basis (the
# first form that check compares), two generators of one order but of
# different q-values trade rows.  The normal forms still agree, so only the
# final re-check of forms_isomorphic can catch the map, and it must still
# run when `python -O` strips asserts.
_CORRUPT_THEOREM = """
import dataclasses
import sys
if __debug__:
    sys.exit("asserts are enabled")
from k3lat import cli, forms
from k3lat.catalog import FamilyDescriptor, family_genus

n = int(sys.argv[1])
target = family_genus(FamilyDescriptor("Lp", 2 * n, n)).disc
normal_form = forms._normal_form
i, j = next((i, j) for j in range(target.rank) for i in range(j)
            if target.orders[i] == target.orders[j]
            and target.table[i][i] != target.table[j][j])


def corrupt(q):
    nf = normal_form(q)
    if q != target:
        return nf
    coords = list(nf.coords)
    coords[i], coords[j] = coords[j], coords[i]
    return dataclasses.replace(nf, coords=tuple(coords))


forms._normal_form = corrupt
sys.exit(cli.main(["verify", "theorem", "--n", str(n), "--json"]))
"""


def assert_corrupt_theorem_fails(n):
    src = os.path.dirname(os.path.dirname(k3lat.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_THEOREM, str(n)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode != 0, done.stderr[-2000:]
    entries = json.loads(done.stdout)
    assert not any(e["check"].startswith("theorem-genus") and e["status"] == "pass"
                   for e in entries)
    assert entries[0]["check"] == f"theorem-genus-n{n}-d{2 * n}"
    assert entries[0]["status"] == "fail"
    assert entries[0]["detail"].startswith("ArithmeticError")
    # the genus certificate no longer hides the uniqueness check
    assert f"theorem-unique-n{n}-d{2 * n}" in [e["check"] for e in entries]


def test_corrupt_theorem_certificate_fails_under_python_O():
    assert_corrupt_theorem_fails(2)


def test_corrupt_whole_form_theorem_certificate_fails_under_python_O():
    assert_corrupt_theorem_fails(3)
