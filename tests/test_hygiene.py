"""Source hygiene, checked on the syntax tree of each module under ``src/cragrank``,
``tests`` and ``scripts``.

No linter ships with the project.  Every module-level name a module imports
is used in it, so the package ``__init__`` re-exports nothing.  No two modules
define a top-level function with the same name and body, so a helper that
tests share lives in ``helpers.py``.
Only ``model.py`` evaluates the logistic or names its clamp, so that the
model has one copy of its likelihood.  And only ``ingest.py`` parses CSV
text, with the ``csv`` module, numpy's text readers or ``.split(",")``, so
that the dataset file format lives in one module.  No other package module,
and no script, opens a file to read it, so that every input file is decoded,
and fails to decode, by ``ingest.open_input`` alone.  Only ``__main__.py`` runs
the package as a script, so ``python -m cragrank`` and the console script
enter it through ``cli.main`` alone.  Every function, class and method that the
package defines is named by the package, ``scripts`` or ``benchmark``, so
that code only the tests call, test oracles among it, lives in the tests; the
one exception is a method that overrides a base class's, which that class's
own code calls.  And every exception class that the package defines is
raised in the package, so that no handler waits for an error that never
comes.  Only ``cli.py`` subclasses or constructs argparse's ``ArgumentParser``,
once, and only its ``add_hyper_flags`` adds a hyperparameter flag, so that the
commands and ``scripts`` share one definition of each option and of the usage
error's exit code.
"""

import ast
import importlib
from dataclasses import fields
from pathlib import Path

import pytest

from cragrank.model import Hyperparameters

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "cragrank").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


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
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in SOURCES}
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


WRITE_MODES = set("wax+")


def input_opens(source: str) -> list[str]:
    """Each builtin ``open`` with no write mode and each ``.read_text()`` or
    ``.read_bytes()`` in a source, as ``"line: call"``.  A mode that is not a
    literal counts as no write mode."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if not any(isinstance(m, ast.Constant) and WRITE_MODES & set(str(m.value))
                       for m in modes):
                found.append(f"{node.lineno}: open")
        elif isinstance(node.func, ast.Attribute) and node.func.attr in ("read_text",
                                                                        "read_bytes"):
            found.append(f"{node.lineno}: {node.func.attr}")
    return found


def test_finds_an_input_open():
    source = ("open(p)\nopen(p, 'rb')\nopen(p, mode='r', encoding='utf-8')\nopen(p, m)\n"
              "open(p, 'w')\nopen(p, mode='ab')\nopen(p, 'r+')\nopen(p, 'x')\n"
              "p.read_text()\np.read_bytes()\np.write_text(s)\nopen_input(p)\nio.open(p)\n")
    assert input_opens(source) == ["1: open", "2: open", "3: open", "4: open",
                                   "9: read_text", "10: read_bytes"]


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "ingest.py"]
                         + sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name)
def test_only_ingest_opens_input_files(path):
    assert input_opens(path.read_text(encoding="utf-8")) == []


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
    base class, whose own code calls it (as argparse calls ``Parser.error``)."""
    module, _, qualified = definition.partition(": ")
    owner, _, method = qualified.rpartition(".")
    if not owner:
        return False
    cls = getattr(importlib.import_module("cragrank." + module.removesuffix(".py")), owner)
    return any(method in vars(base) for base in cls.__mro__[1:])


def test_finds_an_override():
    assert overrides_a_base("cli.py: Parser.error")
    assert not overrides_a_base("ingest.py: CsvTable.floats")
    assert not overrides_a_base("cli.py: main")


def test_no_definition_only_the_tests_use():
    library = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE}
    users = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
             for folder in ("scripts", "benchmark") for p in sorted((ROOT / folder).glob("*.py"))}
    found = unused_definitions(library, users)
    assert [d for d in found if not overrides_a_base(d)] == []


HYPER_FLAGS = {"--hyper-config"} | {"--" + f.name.replace("_", "-")
                                     for f in fields(Hyperparameters)}


def parser_definitions(source: str) -> list[str]:
    """Each call to or subclass of ``ArgumentParser`` in a source, and each
    hyperparameter flag (with ``_`` or ``-`` between words) that an
    ``add_argument`` outside a function ``add_hyper_flags`` adds, as
    ``"line: what"`` in line order."""
    tree = ast.parse(source)
    helper = {id(node) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == "add_hyper_flags"
              for node in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            calls = node.bases
        elif isinstance(node, ast.Call):
            calls = [node.func]
        else:
            continue
        for call in calls:
            name = ast.unparse(call).rpartition(".")[2]
            if name == "ArgumentParser":
                found.append((call.lineno, name))
            elif name == "add_argument" and id(node) not in helper:
                found += [(node.lineno, a.value) for a in node.args
                          if isinstance(a, ast.Constant)
                          and str(a.value).replace("_", "-") in HYPER_FLAGS]
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_finds_a_parser_definition():
    source = ("import argparse\nfrom argparse import ArgumentParser\n"
              "p = argparse.ArgumentParser(description='x')\nq = ArgumentParser()\n"
              "class P(argparse.ArgumentParser):\n    pass\n"
              "p.add_argument('--w-sq', type=float)\np.add_argument('--hyper-config')\n"
              "p.add_argument('--folds', type=int)\ngroup.add_argument('-b', '--b')\n"
              "p.add_argument('--sigma_r_sq')\nP()\n"
              "def add_hyper_flags(parser):\n    parser.add_argument('--g0')\n"
              "def other(parser):\n    parser.add_argument('--sigma-c-sq')\n")
    assert parser_definitions(source) == [
        "3: ArgumentParser", "4: ArgumentParser", "5: ArgumentParser", "7: --w-sq",
        "8: --hyper-config", "10: --b", "11: --sigma_r_sq", "16: --sigma-c-sq"]


@pytest.mark.parametrize("path", PACKAGE + sorted((ROOT / "scripts").glob("*.py")),
                         ids=lambda p: p.name)
def test_only_cli_defines_a_parser_and_hyperparameter_flags(path):
    found = [f.partition(": ")[2] for f in parser_definitions(path.read_text(encoding="utf-8"))]
    assert found == (["ArgumentParser"] if path.name == "cli.py" else [])


def unraised_exceptions(sources: dict[str, str]) -> list[str]:
    """Each exception class that one of ``sources`` (module name to text)
    defines and no ``raise`` in them names, as ``"module: name"``.  A class is
    an exception class if a base's name ends in ``Error`` or ``Exception``, or
    is an exception class of the sources."""
    classes, raised = {}, set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (module, [ast.unparse(b).rpartition(".")[2]
                                               for b in node.bases])
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(ast.unparse(exc).rpartition(".")[2])
    exceptions = set()
    while True:
        found = {name for name, (_, bases) in classes.items()
                 if any(b.endswith(("Error", "Exception")) or b in exceptions for b in bases)}
        if found == exceptions:
            break
        exceptions = found
    return sorted(f"{classes[name][0]}: {name}" for name in exceptions - raised)


def test_finds_an_unraised_exception():
    sources = {
        "a.py": ("class Base(Exception):\n    pass\n\nclass Leaf(Base):\n    pass\n\n"
                 "class Bad(ValueError):\n    pass\n\nclass Plain:\n    pass\n"),
        "b.py": ("from . import a\n\ndef f():\n    raise a.Leaf('x') from None\n\n"
                 "def g():\n    raise Plain\n"),
    }
    assert unraised_exceptions(sources) == ["a.py: Bad", "a.py: Base"]


def test_every_exception_class_is_raised():
    assert unraised_exceptions({p.name: p.read_text(encoding="utf-8") for p in PACKAGE}) == []
