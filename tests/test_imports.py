"""Every module-level import of the package modules and the tests is read,
and the package loads no rational type, `dataclasses` or `inspect`.

The package's `__init__.py` imports names only to export them, so it is
left out.  A name counts as read when the module loads it anywhere, as a
bare name or as the base of an attribute."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for p in (*(ROOT / "src" / "k3lat").glob("*.py"), *(ROOT / "tests").glob("*.py"))
    if p.name != "__init__.py"
)


def unread_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of `source` and never
    loaded; `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    bound = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    }
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(bound - read)


def test_the_scan_finds_an_unread_import():
    src = ("from __future__ import annotations\n"
           "import os\nimport os.path as p\nfrom a import b, c\nc()\n")
    assert unread_imports(src) == ["b", "os", "p"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_module_level_import_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_the_cli_leaves_fractions_unloaded():
    # a rational value is an integer over a stated denominator throughout
    # the package, its records are plain classes on `__slots__`, and
    # `verify` reads each suite's options off `__kwdefaults__`; so a fresh
    # interpreter that imports the package or its command line never loads
    # `fractions`, `dataclasses` or `inspect`
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for module in ("k3lat", "k3lat.cli"):
        done = subprocess.run(
            [sys.executable, "-c", f"import sys, {module}; "
             "print(sorted({'dataclasses', 'fractions', 'inspect'} & set(sys.modules)))"],
            capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout) == (0, "[]\n"), (module, done.stdout,
                                                              done.stderr[-2000:])
