"""Module layering: the package needs no imports inside function bodies."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import transdist

PACKAGE = Path(transdist.__file__).parent


def _allowed(filename: str, module: str) -> bool:
    # oracles.py loads numpy/scipy lazily so that `import transdist` needs
    # neither
    return filename == "oracles.py" and module.split(".")[0] in ("numpy", "scipy")


def _local_imports(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = ["." * node.level + (node.module or "")]
            else:
                continue
            for module in modules:
                yield node.lineno, module


def test_no_function_local_imports():
    offenders = sorted({
        f"{path.name}:{line} imports {module}"
        for path in PACKAGE.glob("*.py")
        for line, module in _local_imports(path)
        if not _allowed(path.name, module)})
    assert offenders == []


def test_the_lazy_numeric_imports_are_still_found():
    found = [module for _, module in _local_imports(PACKAGE / "oracles.py")]
    assert found and all(_allowed("oracles.py", module) for module in found)


def _imported_modules(source: str):
    """Every module an import statement may load, with `.` read as transdist.

    `from .x import y` yields transdist.x and transdist.x.y, since y may be a
    submodule.
    """
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["transdist" if node.level else "",
                                          node.module]))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_no_library_module_imports_the_oracles():
    # the brute-force references serve the tests; only __init__ re-exports
    # oracle_distance, which the benchmark's tests read from the package
    importers = sorted(path.name for path in PACKAGE.glob("*.py")
                       if path.name != "__init__.py"
                       and "transdist.oracles" in _imported_modules(
                           path.read_text()))
    assert importers == []


def test_the_oracle_import_guard_sees_every_form():
    for source in ("from .oracles import oracle_distance",
                   "from . import oracles",
                   "from transdist.oracles import OverBudget",
                   "import transdist.oracles"):
        assert "transdist.oracles" in _imported_modules(source), source
    assert "transdist.oracles" not in _imported_modules("from .words import INF")


def test_importing_the_package_loads_no_numeric_library():
    # the reason oracles.py may import numpy and scipy inside functions
    code = ("import sys, transdist; "
            "print(sorted({'numpy', 'scipy'} & sys.modules.keys()))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert run.stdout.strip() == "[]"


def _unused_imports(source: str):
    """(line, name) of each module-level import that the module never reads.

    A name is read where it appears as an `ast.Name`; the base of an
    attribute chain (`np` in `np.array`) is one, so attribute use counts.
    """
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_no_unused_module_level_imports():
    # __init__ imports to export
    offenders = [f"{path.name}:{line} imports {name} and never reads it"
                 for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "__init__.py"
                 for line, name in _unused_imports(path.read_text())]
    assert offenders == []


def test_the_unused_import_guard_sees_reads_and_misses():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from .errors import InputError, ParseError\n"
              "def f():\n"
              "    raise InputError(np.array(0))\n")
    assert _unused_imports(source) == [(2, "os"), (4, "ParseError")]


def _unguided_determinizations(source: str):
    """Lines of the calls to `determinize` that pass no `within=`."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(
            func, "attr", None)
        if name == "determinize" and not any(
                keyword.arg == "within" for keyword in node.keywords):
            yield node.lineno


def test_every_library_determinization_is_guided():
    # the library determinizes only what the included automaton reads:
    # every call names that automaton, so the full construction has no route
    offenders = [f"{path.name}:{line} calls determinize without within="
                 for path in sorted(PACKAGE.glob("*.py"))
                 for line in _unguided_determinizations(path.read_text())]
    assert offenders == []


def test_the_guided_determinization_check_sees_both_forms():
    source = ("det = determinize(b)\n"
              "det = automata.determinize(b, 10)\n"
              "det = determinize(b, within=a)\n"
              "det = automata.determinize(b, 10, within=a)\n")
    assert list(_unguided_determinizations(source)) == [1, 2]


def _callers(source: str, callee: str):
    """(enclosing definition, line) of every call of `callee`, the
    definition dotted as Class.method, or <module> at the top level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(
                    func, "attr", None)
                if name == callee:
                    found.append((".".join(scope) or "<module>",
                                  child.lineno))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_every_pair_automaton_is_built_by_splitting_its_labels():
    # PairAutomaton.__init__ checks nothing: its one call sits behind the
    # split of every label into letters, which PairAutomaton.from_edges
    # reaches after its checks, and joint_product, compose, union and
    # relations._indexed unchecked: their labels come from machines or pair
    # automata already checked, and they number the states themselves
    def callers(callee):
        return sorted((path.name, scope)
                      for path in sorted(PACKAGE.glob("*.py"))
                      for scope, _ in _callers(path.read_text(), callee))

    assert callers("PairAutomaton") == [("pairauto.py", "_split_edges")]
    assert callers("_split_edges") == [
        ("pairauto.py", "PairAutomaton.from_edges"),
        ("relations.py", "_indexed"), ("relations.py", "compose"),
        ("relations.py", "union"), ("transducers.py", "joint_product")]


def test_the_caller_guard_sees_every_scope():
    source = ("x = f()\n"
              "class A:\n"
              "    def m(self):\n"
              "        def inner():\n"
              "            return mod.f(1)\n"
              "        return [f(y) for y in inner()]\n")
    assert _callers(source, "f") == [("<module>", 1), ("A.m.inner", 5),
                                     ("A.m", 6)]


def _synchronizers(sources: dict[str, str]) -> list[str]:
    """`module.scope` of every call of `synchronize` in the given sources."""
    return sorted(f"{module}.{scope}" for module, source in sources.items()
                  for scope, _ in _callers(source, "synchronize"))


def test_only_three_routes_synchronize():
    # identities and common witnesses are decided by one walk over the
    # pair automaton's own states (pairauto.delay_conflict); synchronizing
    # is left to the loops of the substitution verdicts, the longest path
    # of their distances and the padded encoding of relations
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert _synchronizers(sources) == [
        "pairauto.synchronized_loop", "relations._padded_nfa",
        "substitution.path_distance"]


def test_the_synchronize_guard_names_module_and_scope():
    sources = {"pairauto": ("def identity_witness(p):\n"
                            "    return synchronize(p, 1)\n"),
               "kapprox": ("def f(p):\n"
                           "    return pairauto.synchronize(p, 0)[0]\n"),
               "words": "def synchronize_all(): pass\n"}
    assert _synchronizers(sources) == ["kapprox.f",
                                       "pairauto.identity_witness"]


#: the modules that decide, compute distances and hold their data types
DECISION_MODULES = ("automata", "pairauto", "transducers", "kapprox",
                    "substitution", "conjugacy", "relations", "words",
                    "verdicts")


def _machine_imports(source: str):
    """(line, name) of each import of `Transducer` or `evaluate`."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in ("Transducer", "evaluate"):
                    yield node.lineno, alias.name


def _machine_takers(source: str):
    """Names of the functions with a parameter named t1 or t2, or one
    annotated with `Transducer`."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *filter(None, (args.vararg, args.kwarg))]
        if any(a.arg in ("t1", "t2") or (
                a.annotation is not None
                and "Transducer" in ast.unparse(a.annotation))
               for a in params):
            yield node.name


def test_past_the_joint_product_no_decision_module_reads_a_machine():
    # transducers builds the pair automaton; every other decision module
    # reads it alone, and only kapprox's three public entries take machines,
    # to build it
    sources = {module: (PACKAGE / f"{module}.py").read_text()
               for module in DECISION_MODULES if module != "transducers"}
    imports = [f"{module}:{line} imports {name}"
               for module, source in sources.items()
               for line, name in _machine_imports(source)]
    takers = sorted(f"{module}.{name}" for module, source in sources.items()
                    for name in _machine_takers(source))
    assert imports == []
    assert takers == ["kapprox.close_verdict", "kapprox.distance",
                      "kapprox.kclose"]


def test_the_machine_guard_sees_imports_parameters_and_annotations():
    source = ("from .transducers import Transducer, joint_product\n"
              "from .transducers import evaluate as run\n"
              "def f(metric, t1, t2): pass\n"
              "def g(p, *, machine: 'Transducer'): pass\n"
              "def h(p, k: int, *rest): pass\n")
    assert list(_machine_imports(source)) == [(1, "Transducer"),
                                              (2, "evaluate")]
    assert list(_machine_takers(source)) == ["f", "g"]


def _unread_definitions(sources: dict[str, str], guarded) -> list[str]:
    """`module.name` of each top-level function or class of a guarded module
    that no library code reads outside its own definition.

    `sources` maps module names to their text.  A definition is read where
    its own module names it outside the definition, or where another module
    except `oracles` imports it from there: `__init__` to export it, any
    other module (the CLI among them) to name it.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    names = {module: {node.id for node in ast.walk(tree)
                      if isinstance(node, ast.Name)}
             for module, tree in trees.items()}
    imported = set()
    for module, tree in trees.items():
        if module == "oracles":
            continue
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported.update(
                    (node.module, alias.name) for alias in node.names
                    if module == "__init__"
                    or (alias.asname or alias.name) in names[module])
    unread = []
    for module in guarded:
        tree = trees[module]
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)) \
                    or (module, definition.name) in imported:
                continue
            inside = {id(node) for node in ast.walk(definition)}
            if not any(isinstance(node, ast.Name)
                       and node.id == definition.name
                       and id(node) not in inside
                       for node in ast.walk(tree)):
                unread.append(f"{module}.{definition.name}")
    return unread


def test_every_decision_module_definition_has_a_library_reader():
    # a route that only the tests take belongs with the references in
    # oracles, which no library module imports
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert _unread_definitions(sources, DECISION_MODULES) == []


def test_the_reader_guard_flags_what_only_the_oracles_read():
    sources = {
        "__init__": "from .words import exported\n",
        "cli": "from .words import shown\nshown()\n",
        "kapprox": "from .words import unread_import\n",
        "oracles": "from .words import reference\nreference()\n",
        "words": ("def exported(): pass\n"
                  "def shown(): return helper()\n"
                  "class helper: pass\n"
                  "def unread_import(): pass\n"
                  "def reference(): pass\n"
                  "def recursive(n): return recursive(n - 1)\n"),
    }
    assert _unread_definitions(sources, ["words"]) == [
        "words.unread_import", "words.reference", "words.recursive"]
