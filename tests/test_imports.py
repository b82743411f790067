"""Every module-level import of the package is read in its module.

No linter ships with the project, so this checks one of its rules with the
standard library's `ast`: a name bound by a module-level `import` or
`from ... import` in `src/equichi/*.py` must be read somewhere in that
module.  A quoted annotation counts as a read of the names in it.
`__init__.py` is left out, since its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "equichi"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """The names that module-level imports bind, each with its line."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def read_names(tree):
    """Every name loaded in the module, and every name in a quoted
    annotation."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= read_names(ast.parse(node.value, mode="eval"))
    return names


def test_the_package_has_modules():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_module_level_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = read_names(tree)
    unread = [(name, line) for name, line in imported_names(tree) if name not in read]
    assert unread == [], f"{path.name}: imported but never read: {unread}"
