"""Every name a library module imports is read in that module.

No linter is installed, so this AST scan stands in for an unused-import
check.  ``__init__.py`` is skipped: its imports are the package's exports.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "contact_pair_lab")
MODULES = sorted(name for name in os.listdir(SRC)
                 if name.endswith(".py") and name != "__init__.py")


def _imported(tree):
    """{bound name: line} for every import outside ``from __future__``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _read(tree):
    """Names loaded anywhere, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(inner)
                      if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    read = _read(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported(tree).items()
                    if name not in read)
    assert not unused, f"{module} imports without reading: {unused}"


def test_an_unread_import_is_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\n"
                     "from typing import List as L, Dict\n"
                     "def f(x: 'Dict') -> None:\n"
                     "    return os.sep\n")
    read = _read(tree)
    assert {n for n in _imported(tree) if n not in read} == {"L"}


def test_the_names_the_benchmark_wraps_exist(monkeypatch):
    """``bench/child.py`` imports library names and wraps callables in
    traced runs; a rename or deletion of any of them fails here."""
    monkeypatch.syspath_prepend(os.path.join(SRC, "..", "..", "bench"))
    import child
    import tracing

    tracer = tracing.Tracer()
    try:
        child.install_wraps(tracer)
        wrapped = list(tracer._saved)
        assert wrapped and all(getattr(target, name) is not original
                               for target, name, original in wrapped)
    finally:
        tracer.restore()
    assert all(getattr(target, name) is original
               for target, name, original in wrapped)
