"""Every module-level import in ``src/propfuse`` is used by its module.

There is no linter in the suite, so this reads each module with ``ast``: a
name a module imports at the top must appear in its code or its
``__all__``. The only imports kept unused are the ones ``bench/tracer.py``
patches by name (its ``EXPECTED_BINDINGS``); once the tracer stops listing
one of them, the test reports it like any other.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "propfuse"

# module -> the names it imports only so the benchmark's tracer can patch them
TRACER_ONLY = {
    "propagation": {"transfer_box"},
    "evaluation": {"transfer_box"},
    "fusion": {"rescore"},
}


def _expected_bindings() -> set[str]:
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "EXPECTED_BINDINGS" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    raise AssertionError("bench/tracer.py defines no EXPECTED_BINDINGS")


def unused_imports(source: str) -> list[str]:
    """The names a module imports at its top level and never uses."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used)


MODULES = sorted(p.stem for p in SRC.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_level_import(module):
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert set(unused_imports(source)) == TRACER_ONLY.get(module, set())


def test_tracer_only_imports_are_still_expected_by_the_tracer():
    expected = _expected_bindings()
    listed = {f"propfuse.{m}.{name}" for m, names in TRACER_ONLY.items() for name in names}
    assert sorted(listed - expected) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport os, sys\nfrom json import dumps as d\n"
    source += "__all__ = ['d']\nprint(sys.argv)\n"
    assert unused_imports(source) == ["os"]
