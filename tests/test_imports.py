"""Every name a module of the package imports is used in that module,
every private module-level name is used somewhere, and every name of the
package that the benchmark (``perfbench/``) reads still exists.

No linter ships with the project, so this walks the syntax tree of each
module of ``src/aritygap`` (``__init__.py`` re-exports, so it is left out)
and fails on an imported name that no expression of the module reads; and
on a module-level ``_private`` function, class or constant of the package
that no file of ``src/`` or ``tests/`` reads, by name, attribute or in a
string (as ``monkeypatch.setattr`` takes it).
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "aritygap"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # "import a.b" binds a
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_found():
    source = "import functools\nimport itertools\nfrom math import comb as c\nitertools.chain\n"
    assert unused_imports(source) == ["c (line 3)", "functools (line 1)"]


def private_definitions(source: str) -> list[str]:
    """The module-level ``_private`` (not dunder) names a module defines."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def references(source: str) -> set[str]:
    """The names a module reads: loaded names, attributes, imported names
    and the identifiers in its strings."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return found


def orphans(package: dict[str, str], readers: list[str]) -> list[str]:
    """The private names defined by the modules of ``package`` (name ->
    source) that no source of ``readers`` reads."""
    read = set().union(*map(references, readers))
    return [f"{module}: {name}" for module, source in sorted(package.items())
            for name in private_definitions(source) if name not in read]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    readers = list(sources.values()) + [
        p.read_text(encoding="utf-8") for p in sorted((ROOT / "tests").glob("*.py"))]
    assert orphans(sources, readers) == []


def test_orphan_found():
    module = ("import numpy as np\n_LIMIT = 3\n_seen: int = 0\n__all__ = []\n"
              "def _kept():\n    return _LIMIT\ndef _left():\n    pass\nclass _Old:\n    pass\n"
              "def public():\n    return _kept()\n")
    reader = "from m import _seen\nmonkeypatch.setattr('m._Old', None)\n"
    assert orphans({"m.py": module}, [module]) == ["m.py: _seen", "m.py: _left", "m.py: _Old"]
    assert orphans({"m.py": module}, [module, reader]) == ["m.py: _left"]


def benchmark_names() -> list[tuple[str, str | None]]:
    """(module, name) for every ``from aritygap.m import name`` of the
    benchmark's sources, (module, None) for every ``import aritygap.m`` and
    for every module its tracer wraps (``tracer._MODULES``)."""
    found = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("aritygap"):
                found += [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(alias.name, None) for alias in node.names
                          if alias.name.startswith("aritygap")]
            elif (isinstance(node, ast.Assign) and path.name == "tracer.py"
                  and any(isinstance(t, ast.Name) and t.id == "_MODULES" for t in node.targets)):
                found += [(f"aritygap.{m}", None) for m in ast.literal_eval(node.value)]
    return found


def test_every_name_the_benchmark_reads_exists():
    # the benchmark's kernel rates, cache counters and trace mode read these;
    # Tier-1 never runs them, and a missing one would only show there
    names = benchmark_names()
    assert ("aritygap.minors", "identify") in names and ("aritygap.cli", None) in names
    for module, name in names:
        mod = importlib.import_module(module)
        # a submodule, as in "from aritygap import minors", is imported
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")
    minors = importlib.import_module("aritygap.minors")
    subfunctions = importlib.import_module("aritygap.subfunctions")
    assert callable(minors._essential_positions.cache_clear)
    assert callable(subfunctions._closure_cached.cache_info)


def readme_helpers() -> list[tuple[str, str]]:
    """(module, name) for every backquoted ``module._name`` of README.md
    whose module is one of the package's."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    modules = {p.stem for p in MODULES}
    return [(m, name) for m, name in re.findall(r"`(\w+)\.(_\w+)`", text) if m in modules]


def test_every_helper_the_readme_names_exists():
    # a deleted helper must not stay named in the README
    names = readme_helpers()
    assert ("minors", "_gap_and_index") in names and len(names) >= 20
    missing = [f"{m}.{name}" for m, name in names
               if not hasattr(importlib.import_module(f"aritygap.{m}"), name)]
    assert missing == []
