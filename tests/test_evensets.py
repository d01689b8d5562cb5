"""Tests of the even-set kernel as a module of its own.

The search itself is cross-checked on the two models in
`tests/test_nsgeometry.py`.  Here: the kernel depends on `intmat` and
`lattice` alone, and a pencil vector of the wrong length is refused before
any search."""

import ast
from pathlib import Path

import pytest

from k3lat import evensets
from k3lat.evensets import _bounded_sections, find_even_sets
from k3lat.nsgeometry import build_X2

SOURCE = Path(evensets.__file__)


def package_imports(source: str) -> set[str]:
    """The package modules that `source` imports, at any depth of the
    module: `.name` for a relative import, `k3lat...` for an absolute one."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            out.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "k3lat":
            out.add(node.module)
        elif isinstance(node, ast.Import):
            out |= {a.name for a in node.names if a.name.split(".")[0] == "k3lat"}
    return out


def test_the_scan_finds_package_imports():
    src = ("import os\nfrom . import forms\nfrom .intmat import dot\n"
           "def f():\n    from k3lat.cli import main\n    import k3lat.towers\n")
    assert package_imports(src) == {".", ".intmat", "k3lat.cli", "k3lat.towers"}


def test_the_kernel_imports_only_intmat_and_lattice():
    assert package_imports(SOURCE.read_text()) == {".intmat", ".lattice"}


@pytest.mark.parametrize("e", [(0, 1), (1,) + (0,) * 9], ids=["short", "long"])
def test_a_pencil_vector_of_the_wrong_length_is_refused_before_any_search(e, monkeypatch):
    # mat_vec and dot stop at the shorter argument, so without the check a
    # short or long E would search on a truncated pairing
    def no_search(*args, **kwargs):
        raise AssertionError("the shell search ran")

    monkeypatch.setattr(evensets, "fp_enumerate", no_search)
    lat = build_X2().lattice
    for search in (_bounded_sections, find_even_sets):
        with pytest.raises(ValueError, match="must have length 9, the rank"):
            search(lat, e, 1)

