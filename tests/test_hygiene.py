"""Source hygiene, checked on the syntax tree of each module under ``src/cragrank``,
``tests`` and ``scripts``.

No linter ships with the project.  Every module-level name a module imports
is used in it (except in the package ``__init__``, whose imports are the
public re-exports).  No two modules define a top-level function with the
same name and body, so a helper that tests share lives in ``helpers.py``.
Only ``model.py`` evaluates the logistic or names its clamp, so that the
model has one copy of its likelihood.  And only ``ingest.py`` parses CSV
text, with the ``csv`` module, numpy's text readers or ``.split(",")``, so
that the dataset file format lives in one module.  Only ``__main__.py`` runs
the package as a script, so ``python -m cragrank`` and the console script
enter it through ``cli.main`` alone.  Every function, class and method that the
package defines is named by the package, ``scripts`` or ``benchmark``, so
that code only the tests call lives in the tests.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "cragrank").glob("*.py"))
SOURCES = ([p for p in PACKAGE if p.name != "__init__.py"]
           + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_finds_an_unused_import():
    assert unused_imports("import os\nfrom sys import argv, path\nprint(argv)\n") == [
        "os", "path"
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def duplicate_functions(sources: dict[str, str]) -> list[str]:
    """Each top-level function that more than one of ``sources`` (module name
    to text) defines with the same name and body, as ``"name: modules"``."""
    defined = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault((node.name, ast.dump(node)), []).append(module)
    return sorted(f"{name}: {', '.join(modules)}"
                  for (name, _), modules in defined.items() if len(modules) > 1)


def test_finds_a_duplicate_function():
    sources = {
        "a.py": "def f(x):\n    return x + 1\n\ndef g():\n    return 1\n",
        "b.py": "def f(x):\n    # the same body\n    return x + 1\n\ndef g():\n    return 2\n",
        "c.py": "def f(y):\n    return y + 1\n\nclass C:\n    def g():\n        return 1\n",
        "d.py": "async def f(x):\n    return x + 1\n\nasync def h():\n    pass\n",
        "e.py": "async def h():\n    pass\n",
    }
    assert duplicate_functions(sources) == ["f: a.py, b.py", "h: d.py, e.py"]


def test_no_duplicate_functions():
    # keyed by path, so the package modules that both lists hold count once
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in PACKAGE + SOURCES}
    assert duplicate_functions(sources) == []


def logistic_outside_model(source: str) -> list[str]:
    """Each use of ``np.exp``, ``np.logaddexp`` or ``RATING_DIFF_CLAMP`` in a source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("exp", "logaddexp"):
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                found.append(node.attr)
        elif isinstance(node, ast.Attribute) and node.attr == "RATING_DIFF_CLAMP":
            found.append(node.attr)
        elif isinstance(node, ast.Name) and node.id == "RATING_DIFF_CLAMP":
            found.append(node.id)
        elif isinstance(node, ast.alias) and node.name == "RATING_DIFF_CLAMP":
            found.append(node.name)
    return found


def test_finds_a_logistic():
    source = ("import numpy as np\nfrom .model import RATING_DIFF_CLAMP\n"
              "x = np.logaddexp(0.0, model.RATING_DIFF_CLAMP)\ny = np.exp(-x) + math.exp(1)\n")
    assert sorted(logistic_outside_model(source)) == [
        "RATING_DIFF_CLAMP", "RATING_DIFF_CLAMP", "exp", "logaddexp"
    ]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "model.py"],
                         ids=lambda p: p.name)
def test_only_model_evaluates_the_logistic(path):
    assert logistic_outside_model(path.read_text(encoding="utf-8")) == []


TEXT_READERS = ("loadtxt", "genfromtxt", "fromstring")


def text_parsing(source: str) -> list[str]:
    """Each import of ``csv``, each use of numpy's text readers and each
    ``.split(",")``, a CSV line split by hand, in a source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "split" and node.args
                and isinstance(node.args[0], ast.Constant) and node.args[0].value == ","):
            found.append("split")
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "csv"]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] == "csv":
                found.append(node.module)
            elif node.module.split(".")[0] == "numpy":
                found += [a.name for a in node.names if a.name in TEXT_READERS]
        elif isinstance(node, ast.Attribute) and node.attr in TEXT_READERS:
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                found.append(node.attr)
    return found


def test_finds_text_parsing():
    source = ("import csv\nimport numpy as np\nfrom numpy import genfromtxt\n"
              "from csv import reader\nx = np.loadtxt(f)\ny = numpy.fromstring(s)\n"
              "z = np.load(f)\nw = line.split(\",\")\nv = line.split(\";\")\n")
    assert sorted(text_parsing(source)) == ["csv", "csv", "fromstring", "genfromtxt", "loadtxt",
                                            "split"]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "ingest.py"],
                         ids=lambda p: p.name)
def test_only_ingest_parses_csv(path):
    assert text_parsing(path.read_text(encoding="utf-8")) == []


def main_blocks(source: str) -> list[int]:
    """The line of each top-level ``if __name__ == "__main__":`` in a source."""
    return [node.lineno for node in ast.parse(source).body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]


def test_finds_a_main_block():
    source = ('import sys\n\nif __name__ == "__main__":\n    main()\n'
              "if __name__ == '__main__':\n    pass\nif __name__ == 'cli':\n    pass\n"
              "def f():\n    if __name__ == '__main__':\n        pass\n")
    assert main_blocks(source) == [3, 5]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "__main__.py"],
                         ids=lambda p: p.name)
def test_only_main_module_runs_as_a_script(path):
    assert main_blocks(path.read_text(encoding="utf-8")) == []


def definitions(tree: ast.Module):
    """Each top-level function and class of a module, and each method of its
    classes, as ``(qualified name, node)``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{method.name}", method


def named(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name, attribute and imported name in ``node``, outside ``skip``."""
    found = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unused_definitions(library: dict[str, str], users: dict[str, str]) -> list[str]:
    """Each definition of the ``library`` modules (module name to text) that
    no library module names outside the definition itself, and no module of
    ``users`` names, as ``"module: name"``.  Special methods are called by
    Python, so they count as named."""
    trees = {module: ast.parse(source) for module, source in library.items()}
    used_by_users = set().union(*(named(ast.parse(source)) for source in users.values()))
    found = []
    for module, tree in trees.items():
        for qualified, node in definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in used_by_users:
                continue
            if not any(name in named(other, skip=node) for other in trees.values()):
                found.append(f"{module}: {qualified}")
    return sorted(found)


def test_finds_an_unused_definition():
    library = {
        "a.py": ("def used(x):\n    return helper(x)\n\ndef helper(x):\n    return x\n\n"
                 "def recursive(n):\n    return recursive(n - 1)\n\n"
                 "class C:\n    def __init__(self):\n        self.m()\n"
                 "    def m(self):\n        pass\n    def lonely(self):\n        pass\n"),
        "b.py": "from .a import used\n\ndef by_script():\n    return used(1)\n\nx = C()\n",
    }
    users = {"run.py": "import b\nb.by_script()\n"}
    assert unused_definitions(library, users) == ["a.py: C.lonely", "a.py: recursive"]


def overrides_a_base(definition: str) -> bool:
    """Whether the package method ``"module: Class.method"`` overrides one of a
    base class, whose own code calls it (as argparse calls ``_Parser.error``)."""
    module, _, qualified = definition.partition(": ")
    owner, _, method = qualified.rpartition(".")
    if not owner:
        return False
    cls = getattr(importlib.import_module("cragrank." + module.removesuffix(".py")), owner)
    return any(method in vars(base) for base in cls.__mro__[1:])


def test_finds_an_override():
    assert overrides_a_base("cli.py: _Parser.error")
    assert not overrides_a_base("ingest.py: CsvTable.floats")
    assert not overrides_a_base("cli.py: main")


# A test oracle: the tests check that the cleaning stages' output keeps the
# guarantees CleanDataset states.
TEST_ORACLE = "ingest.py: CleanDataset.check_invariants"


def test_no_definition_only_the_tests_use():
    library = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE if p.name != "__init__.py"}
    users = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
             for folder in ("scripts", "benchmark") for p in sorted((ROOT / folder).glob("*.py"))}
    found = unused_definitions(library, users)
    assert [d for d in found if d != TEST_ORACLE and not overrides_a_base(d)] == []
