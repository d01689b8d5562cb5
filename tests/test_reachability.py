"""Every definition in the package is reached by a command or the benchmark.

Each module of `src/k3lat` is read with `symtable`, except `__init__.py`,
which only re-exports.  So a function's local variable is never taken for a
module-level name: `report.run` binds a local called `entries`, say.  A
top-level function or class reaches the module-level names that its body
reads, and a name bound by `from .module import name` stands for that
module's definition.  The roots are:
- `cli.main`, and the `cli._suite_<s>` functions for `s` in `cli.SUITES`,
  which `cli` looks up through `globals()`;
- every module's module-level code;
- what `k3bench/` runs: the functions that `k3bench/spans.py` traces, and
  the names that `k3bench/worker.py` imports from `k3lat`.
A definition that no root reaches has only tests as callers: it goes, or it
moves to `tests/`.

Methods and properties are matched by name alone: one that is defined in a
class of `src/k3lat` is reached when some attribute read in `src/k3lat` or
`k3bench/*.py` has its name, whatever the object.  Dunders are called by
Python itself, and are left out."""

import ast
import symtable
from pathlib import Path

from k3lat.cli import SUITES

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "k3lat"

# Paper claims that `verify` does not certify yet.  Making one a `verify`
# entry changes the verify-all bytes that `k3bench/golden.json` gates, so
# each waits for a benchmark change (ROADMAP item 9).
UNCERTIFIED = {
    "catalog.membership_classification":
        "which rank-9 families cover, or are covered by, a K3 surface",
    "catalog.MembershipFlags": "the flags that membership_classification returns",
    "towers.galois_cover_invariants":
        "the Hodge numbers of the Galois closure of the 2^2:1 isogenies",
    "towers.GaloisInvariants": "the record that galois_cover_invariants returns",
}


def _global_reads(table: symtable.SymbolTable) -> set[str]:
    """Module-level names read in a scope and the scopes nested in it."""
    out = {s.get_name() for s in table.get_symbols() if s.is_referenced() and s.is_global()}
    for child in table.get_children():
        out |= _global_reads(child)
    return out


def _relative_imports(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """Each name bound by a module-level `from .module import name`, with
    the (module, name) it stands for."""
    return {alias.asname or alias.name: (node.module, alias.name)
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def unreached(sources: dict[str, str], roots: set[tuple[str, str]]) -> dict[str, int]:
    """Top-level functions and classes of the modules in `sources` that
    neither `roots` nor module-level code reach, as "module.name" with
    their number of lines."""
    defs: dict[tuple[str, str], set[str]] = {}
    lines: dict[tuple[str, str], int] = {}
    imports = {}
    todo = set(roots)
    for module, source in sources.items():
        tree = ast.parse(source)
        imports[module] = _relative_imports(tree)
        nodes = {n.name: n for n in tree.body
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        for name, node in nodes.items():
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            lines[module, name] = node.end_lineno - start + 1
        table = symtable.symtable(source, module, "exec")
        top = {s.get_name() for s in table.get_symbols() if s.is_referenced()}
        for child in table.get_children():
            if child.get_name() in nodes:
                defs[module, child.get_name()] = _global_reads(child)
            else:  # a lambda or comprehension in module-level code
                top |= _global_reads(child)
        todo |= {(module, name) for name in top}

    def resolve(module: str, name: str) -> tuple[str, str] | None:
        while (module, name) not in defs and name in imports.get(module, {}):
            module, name = imports[module][name]
        return (module, name) if (module, name) in defs else None

    seen = set()
    while todo:
        key = resolve(*todo.pop())
        if key is not None and key not in seen:
            seen.add(key)
            todo |= {(key[0], name) for name in defs[key]}
    return {f"{m}.{n}": lines[m, n] for m, n in sorted(defs.keys() - seen)}


def unread_methods(sources: dict[str, str], readers: list[str]) -> list[str]:
    """Methods and properties, as "module.Class.name", of the classes in
    `sources` whose name no attribute read in `readers` has; dunders aside."""
    reads = {node.attr for text in readers for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(
        f"{module}.{cls.name}.{node.name}"
        for module, source in sources.items()
        for cls in ast.walk(ast.parse(source)) if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name not in reads
        and not (node.name.startswith("__") and node.name.endswith("__")))


def benchmark_roots() -> set[tuple[str, str]]:
    """The (module, name) pairs that `k3bench/` traces or imports."""
    exports = _relative_imports(ast.parse((PACKAGE / "__init__.py").read_text()))
    spans = ast.parse((ROOT / "k3bench" / "spans.py").read_text())
    (traced,) = (node.value for node in spans.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["TRACED"])
    out = {ast.literal_eval(key) for key in traced.keys}
    for node in ast.walk(ast.parse((ROOT / "k3bench" / "worker.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "k3lat":
            out |= {exports[alias.name] for alias in node.names}
    return out


def test_the_scan_follows_scopes_and_imports():
    sources = {
        "a": ("from .b import helper\n"
              "def entries():\n    return 1\n"
              "def run():\n    entries = helper()\n    return [entries for _ in ()]\n"
              "def dead():\n    return run()\n"
              "class K:\n    def m(self):\n        return entries()\n"),
        "b": ("def helper():\n    return 0\n"
              "def recursive():\n    return recursive()\n"
              "def loaded():\n    return 2\n"
              "X = loaded()\n"),
    }
    # a local that shadows a function is not a call of it, and a
    # definition that only calls itself is not reached
    assert unreached(sources, {("a", "run")}) == {
        "a.K": 3, "a.dead": 2, "a.entries": 2, "b.recursive": 2}


def test_every_definition_has_a_product_caller():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    roots = {("cli", "main"), *(("cli", f"_suite_{s}") for s in SUITES), *benchmark_roots()}
    found = unreached(sources, roots)
    tests_only = sorted(found.keys() - UNCERTIFIED.keys())
    assert not tests_only, f"only tests reach {', '.join(tests_only)}"
    assert sorted(found) == sorted(UNCERTIFIED)  # no stale allowance


def test_the_method_scan_reads_attribute_loads():
    source = ("class K:\n"
              "    def __init__(self):\n        self.stored = 0\n"
              "    def used(self):\n        return self.helper()\n"
              "    def helper(self):\n        return 1\n"
              "    @property\n    def size(self):\n        return 2\n"
              "    def stored(self):\n        return 3\n")
    # a store is not a read, and a read in another file counts
    assert unread_methods({"a": source}, [source]) == ["a.K.size", "a.K.stored", "a.K.used"]
    assert unread_methods({"a": source}, [source, "k.size\nk.used()\n"]) == ["a.K.stored"]


def test_every_method_has_a_product_reader():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    readers = [*sources.values(), *(p.read_text() for p in sorted((ROOT / "k3bench").glob("*.py")))]
    unread = unread_methods(sources, readers)
    assert not unread, f"only tests read {', '.join(unread)}"
