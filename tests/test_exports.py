"""Every exported name resolves, and so does every name the benchmark and tools import.

A function that is deleted but still listed in an ``__all__`` only fails
at ``from propfuse import *`` or at the first caller, and one that
``bench/`` or ``tools/`` imports only fails when the benchmark or the tool
runs; this finds both with the suite.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import propfuse

ROOT = Path(__file__).resolve().parent.parent

MODULES = sorted(m.name for m in pkgutil.iter_modules(propfuse.__path__))


def test_every_module_is_seen():
    assert {"motion", "propagation", "evaluation", "synth"} <= set(MODULES)


@pytest.mark.parametrize("name", ["propfuse"] + [f"propfuse.{m}" for m in MODULES])
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    listed = getattr(module, "__all__", [])
    assert len(listed) == len(set(listed))
    assert [n for n in listed if not hasattr(module, n)] == []


def propfuse_imports(source: str) -> list[tuple[str, str | None]]:
    """(module, name) of each ``from propfuse... import name`` and (module, None) of each
    ``import propfuse...``, at any depth."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "propfuse":
            out += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "propfuse"]
    return out


SCRIPTS = sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_propfuse_import_of_the_benchmark_and_tools_resolves(script):
    missing = []
    for module_name, name in propfuse_imports(script.read_text(encoding="utf-8")):
        module = importlib.import_module(module_name)
        if name is not None and not hasattr(module, name):
            missing.append(f"{module_name}.{name}")
    assert missing == []


def test_the_import_scan_sees_the_names_the_benchmark_checks_use():
    found = propfuse_imports((ROOT / "bench" / "checks.py").read_text(encoding="utf-8"))
    assert ("propfuse", "build_candidates") in found
    assert ("propfuse", "rescore") in found
    assert ("propfuse.pipeline", "build_provider") in found
    assert propfuse_imports("import propfuse.cli\nfrom propfuse import gone\nfrom os import sep\n") == [
        ("propfuse.cli", None),
        ("propfuse", "gone"),
    ]
