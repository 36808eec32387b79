"""The top-level package: what ``__init__`` imports is what ``__all__`` exports."""

import ast
import importlib
from pathlib import Path

import nbcontrast
from nbcontrast import mining


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


def test_benchmark_probes_resolve(monkeypatch):
    """Every module attribute the benchmark's tracer patches still exists."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    original = mining.mine_triples
    try:
        spans.install(tracer)
        assert mining.mine_triples is not original
    finally:
        tracer.remove()
    assert mining.mine_triples is original
