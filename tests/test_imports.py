"""Static checks on the package source: every name a module imports is
read somewhere in that module, and no value is keyed by object identity."""

import ast
import re
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).parent.parent / "src" / "f1kit").glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_unused_imports_are_found():
    assert unused_imports("from math import gcd, lcm\nimport os.path\nlcm(1, 2)\n") == ["gcd", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_no_module_keys_by_object_identity():
    # a memo keyed by id() can hit a dead object's reused address; key by value or position
    calls = [f"{p.name}:{n}" for p in sorted((Path(__file__).parent.parent / "src" / "f1kit").glob("*.py"))
             for n, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1)
             if re.search(r"\bid\(", line)]
    assert calls == []
