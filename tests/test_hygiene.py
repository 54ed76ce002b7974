"""Nothing left behind in the package: every imported name is used, and every
module-level private name is read somewhere in the package besides where it
is defined."""

import ast
from pathlib import Path

import pytest

import wreathgroth

PACKAGE = Path(wreathgroth.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def read_names(tree: ast.AST) -> set[str]:
    """The names a module reads: bare names and attribute names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def imported_names(tree: ast.Module) -> dict[str, int]:
    """{bound name: line} for the import statements of a module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """{name: line} for the module-level definitions whose names start with
    one underscore."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node.lineno
    return out


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.stem
)
def test_every_imported_name_is_used(path):
    tree = parse(path)
    used = read_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_every_private_module_name_is_read_in_the_package():
    trees = {path.name: parse(path) for path in MODULES}
    read = set()
    for tree in trees.values():
        read |= read_names(tree)
        for node in ast.walk(tree):  # `from .m import _name` reads it too
            if isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    unread = [
        f"{module}:{name} (line {line})"
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in read
    ]
    assert not unread, f"private names nothing reads: {', '.join(unread)}"
