"""The names by which the benchmark in k3bench/ reaches into k3lat.

k3bench/spans.py wraps functions by (module, name), and its Tracer raises
on a name that is gone; k3bench/worker.py imports a few names from the
package.  A rename in k3lat would otherwise show only in a traced
benchmark run."""

import importlib
import sys
from pathlib import Path

import pytest

import k3lat
from k3lat import cli

BENCH = Path(__file__).resolve().parent.parent / "k3bench"


def _traced():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("spans").TRACED
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("module, name", sorted(_traced()))
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"k3lat.{module}"), name))


@pytest.mark.parametrize("name", [
    "SearchBudgetExceeded", "from_rows", "genus_equal", "genus_of",
    "FamilyDescriptor", "family_lattice",
])
def test_worker_import_exists(name):
    assert hasattr(k3lat, name)


@pytest.mark.parametrize("module, name", [
    ("lattice", "is_isometric_definite"), ("forms", "isotropic_subgroups"),
])
def test_retired_search_names_raise_and_name_their_oracle(module, name):
    # the searches moved to tests/search_oracles.py; the traced names stay,
    # and a call from anywhere fails loudly
    with pytest.raises(RuntimeError, match=f"{name} has moved to tests/search_oracles.py"):
        getattr(importlib.import_module(f"k3lat.{module}"), name)()


def test_every_binding_of_find_even_sets_is_the_kernel():
    # spans.py traces ("nsgeometry", "find_even_sets") and patches every
    # k3lat namespace that binds that object, so the span sees the calls
    # from cli.cmd_evenset and both suites only while all of them bind the
    # one function of k3lat.evensets
    from k3lat import evensets

    bound = {name: vars(module)["find_even_sets"] for name, module in sys.modules.items()
             if name.split(".")[0] == "k3lat" and "find_even_sets" in vars(module)}
    assert {"k3lat", "k3lat.cli", "k3lat.evensets", "k3lat.nsgeometry"} <= bound.keys()
    assert all(f is evensets.find_even_sets for f in bound.values()), bound


def test_worker_cli_names_exist():
    assert callable(cli.main)
    assert cli.SUITES and all(isinstance(s, str) for s in cli.SUITES)
