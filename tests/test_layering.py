"""The package's layers, read from its source: ``storage`` alone opens
files, no function rebinds a module global, ``errors`` only declares
exception types, and ``normalize`` only cleans text."""

import ast
from pathlib import Path

import dealias.errors

SRC = Path(dealias.errors.__file__).parent


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text(encoding="utf-8"))


def test_only_storage_opens_files():
    openers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(_tree(path.name)):
            if isinstance(node, ast.Call) and "open" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                openers.add(path.name)
    assert openers == {"storage.py"}


def test_no_function_holds_a_global_statement():
    holders = {f"{path.name}:{node.lineno}" for path in SRC.glob("*.py")
               for node in ast.walk(_tree(path.name))
               if isinstance(node, ast.Global)}
    assert not holders


def test_errors_defines_only_exception_classes():
    docstring, *rest = _tree("errors.py").body
    assert isinstance(docstring, ast.Expr)
    assert isinstance(docstring.value, ast.Constant)
    assert rest and all(
        isinstance(node, ast.ClassDef)
        and issubclass(getattr(dealias.errors, node.name), Exception)
        for node in rest)


def test_normalize_imports_neither_errors_nor_storage():
    parts = set()  # every dotted-name part that normalize imports
    for node in ast.walk(_tree("normalize.py")):
        if isinstance(node, ast.ImportFrom):
            parts.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            parts.update(part for alias in node.names
                         for part in alias.name.split("."))
    assert not parts & {"errors", "storage"}
