"""``bellrsp.__all__`` names exactly what ``bellrsp/__init__.py`` imports."""

import ast
from pathlib import Path

import bellrsp


def imported_public_names():
    """Public names the package's ``__init__`` binds from its own modules."""
    tree = ast.parse(Path(bellrsp.__file__).read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "bellrsp")
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_every_exported_name_resolves():
    missing = [name for name in bellrsp.__all__ if not hasattr(bellrsp, name)]
    assert missing == []


def test_no_name_is_exported_twice():
    assert len(bellrsp.__all__) == len(set(bellrsp.__all__))


def test_exports_are_the_imported_public_names():
    assert set(bellrsp.__all__) == imported_public_names()
