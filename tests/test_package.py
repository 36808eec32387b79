"""The top-level package: what ``__init__`` imports is what ``__all__`` exports."""

import ast
from pathlib import Path

import nbcontrast


def imported_names():
    """Public names bound by the ``from .module import ...`` lines of ``__init__``."""
    tree = ast.parse(Path(nbcontrast.__file__).read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names if not alias.name.startswith("_")
    }


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from nbcontrast import *", namespace)
    assert len(nbcontrast.__all__) == len(set(nbcontrast.__all__))
    missing = [name for name in nbcontrast.__all__ if name not in namespace]
    assert not missing


def test_every_imported_public_name_is_exported():
    names = imported_names()
    assert names
    assert names == set(nbcontrast.__all__)
