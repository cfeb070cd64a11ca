"""Every import in the library, the tests and the demos is used.

A name an import binds counts as used if the module reads it anywhere,
lists it in ``__all__``, or the import's lines carry a ``noqa`` comment.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src/ofpca", "tests", "demos")


def imported_names(tree: ast.Module):
    """(name, import node) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node


def exported_names(tree: ast.Module) -> set[str]:
    """The strings of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(path: pathlib.Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    return [f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
            for name, node in imported_names(tree)
            if name not in used
            and not any("noqa" in line for line in lines[node.lineno - 1:node.end_lineno])]


def test_no_unused_imports():
    files = sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    assert [hit for p in files for hit in unused_imports(p)] == []
