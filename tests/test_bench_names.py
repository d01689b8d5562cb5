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


def test_worker_cli_names_exist():
    assert callable(cli.main)
    assert cli.SUITES and all(isinstance(s, str) for s in cli.SUITES)
