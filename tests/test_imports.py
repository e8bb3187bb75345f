"""Every name a library module imports is read in that module, every
name it defines at module level is exported or read somewhere, and every
method of its classes is read somewhere.

No linter is installed, so these AST scans stand in for unused-import and
dead-code checks.  ``__init__.py`` is skipped: its imports are the
package's exports.
"""

import ast
import os

import pytest

import contact_pair_lab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "contact_pair_lab")
BENCH = os.path.join(ROOT, "bench")
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


def _defined(tree):
    """{name: line} for every module-level function, class and assignment."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                defined.update((n.id, node.lineno) for n in ast.walk(target)
                               if isinstance(n, ast.Name))
    return defined


def _mentioned(tree):
    """Loaded names, attribute names and string constants: a name read
    directly, through a module or an object, or by ``getattr``."""
    mentioned = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            mentioned.add(node.id)
        elif isinstance(node, ast.Attribute):
            mentioned.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            mentioned.add(node.value)
    return mentioned


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _mentioned_in_src_and_bench():
    mentioned = set()
    for folder in (SRC, BENCH):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                mentioned |= _mentioned(_parse(os.path.join(folder, name)))
    return mentioned


def test_every_module_level_name_is_exported_or_read():
    """A module-level name of the library is in ``__all__`` or read in
    ``src/`` or ``bench/``; a read in the tests alone does not count."""
    mentioned = _mentioned_in_src_and_bench()
    unread = sorted(
        f"{module}: {name} (line {line})" for module in MODULES
        for name, line in _defined(_parse(os.path.join(SRC, module))).items()
        if name not in contact_pair_lab.__all__ and name not in mentioned)
    assert not unread, f"defined but never read: {unread}"


def test_an_unread_module_level_name_is_found():
    tree = ast.parse("import os\n"
                     "LIMIT: int = 3\n"
                     "SPARE, (_low, _high) = 1, (2, 3)\n"
                     "def helper():\n"
                     "    return LIMIT + _low\n"
                     "class Box:\n"
                     "    size = helper()\n"
                     "def by_attribute():\n"
                     "    pass\n"
                     "def by_string():\n"
                     "    pass\n"
                     "def unused(box=Box):\n"
                     "    return os.path.by_attribute, getattr(os, "
                     "'by_string')\n")
    mentioned = _mentioned(tree)
    assert set(_defined(tree)) == {"LIMIT", "SPARE", "_low", "_high",
                                   "helper", "Box", "by_attribute",
                                   "by_string", "unused"}
    assert {n for n in _defined(tree) if n not in mentioned} == {
        "SPARE", "_high", "unused"}


def _methods(tree):
    """{"Class.method": line} for every non-dunder method of every class."""
    methods = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    methods[f"{node.name}.{item.name}"] = item.lineno
    return methods


def test_every_method_is_read():
    """A method of a library class is read as an attribute, or named in a
    string, in ``src/`` or ``bench/``.  A helper that only the tests read
    lives in ``tests/conftest.py``.  A scan by name cannot tell two methods
    of one name apart, so a method is unread only when no attribute or
    string in ``src/`` or ``bench/`` has its name."""
    mentioned = _mentioned_in_src_and_bench()
    unread = sorted(
        name for module in MODULES
        for name in _methods(_parse(os.path.join(SRC, module)))
        if name.split(".")[1] not in mentioned)
    assert unread == []


def test_an_unread_method_is_found():
    tree = ast.parse("class Box:\n"
                     "    def __init__(self):\n"
                     "        self.size = self.measure()\n"
                     "    def measure(self):\n"
                     "        return getattr(self, 'by_string')()\n"
                     "    def by_string(self):\n"
                     "        return 1\n"
                     "    @property\n"
                     "    def spare(self):\n"
                     "        return 2\n"
                     "    class Inner:\n"
                     "        def unused(self):\n"
                     "            pass\n"
                     "def measure():\n"
                     "    pass\n")
    mentioned = _mentioned(tree)
    assert set(_methods(tree)) == {"Box.measure", "Box.by_string",
                                   "Box.spare", "Inner.unused"}
    assert {m for m in _methods(tree)
            if m.split(".")[1] not in mentioned} == {"Box.spare",
                                                      "Inner.unused"}


def _warning_calls(tree):
    """Sorted lines that reach ``warnings.warn`` or
    ``warnings.catch_warnings``, through the module or a ``from`` import."""
    names = {"warn", "catch_warnings"}
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name)
                and node.value.id == "warnings"):
            lines.add(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "warnings"
              and any(alias.name in names for alias in node.names)):
            lines.add(node.lineno)
    return sorted(lines)


def test_no_module_reports_through_the_warnings_state():
    """A probe result reaches its row as data on the row's finding: the
    warnings state is process-global, and a run would read another
    thread's warning."""
    found = {name: _warning_calls(_parse(os.path.join(SRC, name)))
             for name in sorted(os.listdir(SRC)) if name.endswith(".py")}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert _warning_calls(ast.parse(
        "import warnings\nfrom warnings import catch_warnings\n"
        "warnings.warn('x')\nwarnings.simplefilter('ignore')\n")) == [2, 3]


def test_the_names_the_benchmark_wraps_exist(monkeypatch):
    """``bench/child.py`` imports library names and wraps callables in
    traced runs; a rename or deletion of any of them fails here.  Some,
    ``linalg.solve_unique``, ``determinant`` and ``matmul``, have no
    caller in ``src/``."""
    monkeypatch.syspath_prepend(os.path.join(SRC, "..", "..", "bench"))
    import child
    import tracing

    tracer = tracing.Tracer()
    try:
        child.install_wraps(tracer)
        wrapped = list(tracer._saved)
        assert wrapped and all(getattr(target, name) is not original
                               for target, name, original in wrapped)
        assert {"solve_unique", "determinant", "matmul"} <= {
            name for target, name, _ in wrapped
            if target is contact_pair_lab.linalg}
    finally:
        tracer.restore()
    assert all(getattr(target, name) is original
               for target, name, original in wrapped)


def test_the_benchmark_replay_runs_every_stage(monkeypatch):
    """``child.replay`` calls the public stage functions in the benchmark's
    own call forms; each stage's span must fire on a scenario with
    submanifolds and on one whose span is not J-invariant."""
    monkeypatch.syspath_prepend(BENCH)
    import child
    import tracing
    import workloads

    base = workloads.load_base()
    tracer = tracing.Tracer()
    for name in ("heis6", "darboux-J-noninvariant"):
        child.replay(tracer, name, base[name], 1)
    stages = ("contact.pair_ms", "contact.structure_ms", "contact.metric_ms",
              "contact.normality_ms", "contact.connection_ms",
              "contact.curvature_ms", "contact.hermitian_ms",
              "submanifolds.subframe_ms", "submanifolds.classify_ms",
              "submanifolds.shape_ms", "submanifolds.restrict_ms",
              "submanifolds.theorems_ms")
    assert [s for s in stages if s not in tracer.spans] == []
