"""Module layering: the package needs no imports inside function bodies."""

import ast
from pathlib import Path

import transdist

PACKAGE = Path(transdist.__file__).parent


def _allowed(filename: str, module: str) -> bool:
    # words.py loads numpy/scipy lazily so that `import transdist` stays light
    return filename == "words.py" and module.split(".")[0] in ("numpy", "scipy")


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
    found = [module for _, module in _local_imports(PACKAGE / "words.py")]
    assert found and all(_allowed("words.py", module) for module in found)
