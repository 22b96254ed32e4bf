"""Nothing stays in the package that only tests call: every public name
is used somewhere in the program itself."""

import ast
from pathlib import Path

import invharm


def loaded_names() -> set:
    """Every name the modules of the package read, as a bare name or as
    an attribute."""
    names = set()
    for path in Path(invharm.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_public_name_is_used_in_the_package():
    loaded = loaded_names()
    unused = [n for n in invharm.__all__ if n != "__version__" and n not in loaded]
    assert unused == []
