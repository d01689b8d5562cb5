"""Mutation check of the certificate re-checks of one k3lat module.

For each `require(cond, message)` call in src/k3lat/<module>.py, a mutant
replaces `cond` with `True` in a temporary copy of src/, and the given
pytest selection runs against that copy with -x.  A mutant is killed when
some test fails, and it survives when every selected test passes: no test
can then tell the re-check from one that never fires.

    python tests/mutate_requires.py forms tests/test_forms.py tests/test_cli.py
    python tests/mutate_requires.py catalog tests

The selection must pass on the unmutated copy first; otherwise the script
stops, as every mutant would read as killed.  Each line printed is
`<line>: killed|survived|error <message>`; error means pytest ended
otherwise than by passing or failing tests (its exit code is given).  The
mutants run one after another.  The script is not a test module, so
tier-1 does not collect it.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def require_calls(source: str) -> list[ast.Call]:
    """The `require(...)` calls of a module, in source order."""
    calls = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "require" and node.args]
    return sorted(calls, key=lambda c: (c.lineno, c.col_offset))


def offset(lines: list[str], lineno: int, col: int) -> int:
    """The string index of (1-based line, UTF-8 byte column) in the source."""
    line = lines[lineno - 1]
    return sum(map(len, lines[:lineno - 1])) + len(line.encode()[:col].decode())


def mutant(source: str, call: ast.Call) -> str:
    """The source with the condition of `call` replaced by True."""
    cond = call.args[0]
    lines = source.splitlines(keepends=True)
    start = offset(lines, cond.lineno, cond.col_offset)
    end = offset(lines, cond.end_lineno, cond.end_col_offset)
    return source[:start] + "(True)" + source[end:]


def message(source: str, call: ast.Call) -> str:
    if len(call.args) < 2:
        return ""
    return " ".join((ast.get_source_segment(source, call.args[1]) or "").split())


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: mutate_requires.py MODULE PYTEST_ARGS...", file=sys.stderr)
        return 2
    module, selection = argv[0], argv[1:]
    path = ROOT / "src" / "k3lat" / f"{module}.py"
    source = path.read_text()
    calls = require_calls(source)
    survived = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "k3lat" / f"{module}.py"
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")

        def pytest() -> int:
            return subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 *selection],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            ).returncode

        if pytest() != 0:
            print("the selection fails on the unmutated source", file=sys.stderr)
            return 1
        for call in calls:
            target.write_text(mutant(source, call))
            returncode = pytest()
            verdict = {0: "survived", 1: "killed"}.get(returncode, f"error (exit {returncode})")
            survived += returncode == 0
            print(f"{call.lineno}: {verdict} {message(source, call)}", flush=True)
    print(f"{module}: {len(calls)} requires, {survived} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
