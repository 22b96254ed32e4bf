"""Nothing stays in the package that only tests call: every public name,
and every field of the result and parameter types, is used somewhere in
the program itself.  The library fails with built-in exceptions; the
CLI's own validation type is the one exception class it defines."""

import ast
import dataclasses
import importlib
from pathlib import Path

import invharm

MODULES = sorted(
    path for path in Path(invharm.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


def loaded_names(attributes_only=False) -> set:
    """Every name the modules of the package read, as a bare name or as
    an attribute (only as an attribute if ``attributes_only``)."""
    names = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if not attributes_only:
                    names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def defined_types():
    """Every class the modules of the package define."""
    for path in MODULES:
        mod = importlib.import_module(f"invharm.{path.stem}")
        for obj in vars(mod).values():
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                yield obj


def record_types():
    """Every dataclass and NamedTuple the package defines."""
    for obj in defined_types():
        if dataclasses.is_dataclass(obj) or hasattr(obj, "_fields"):
            yield obj


def members(cls) -> list:
    """The fields and properties of a dataclass or NamedTuple."""
    if dataclasses.is_dataclass(cls):
        names = [f.name for f in dataclasses.fields(cls)]
    else:
        names = list(cls._fields)
    return names + [n for n, v in vars(cls).items() if isinstance(v, property)]


def test_every_public_name_is_used_in_the_package():
    loaded = loaded_names()
    unused = [n for n in invharm.__all__ if n != "__version__" and n not in loaded]
    assert unused == []


def test_every_field_is_read_in_the_package():
    read = loaded_names(attributes_only=True)
    types = list(record_types())
    assert {"Trajectory", "Diagnostics"} <= {c.__name__ for c in types}
    unread = [
        f"{cls.__name__}.{name}"
        for cls in types
        for name in members(cls)
        if name not in read
    ]
    assert unread == []


def test_the_only_exception_class_is_config_error():
    errors = [
        f"{cls.__module__}.{cls.__name__}"
        for cls in defined_types()
        if issubclass(cls, BaseException)
    ]
    assert errors == ["invharm.cli.ConfigError"]
