"""Every exported name resolves.

A function that is deleted but still listed in an ``__all__`` only fails
at ``from propfuse import *`` or at the first caller; this finds it with the
suite.
"""

import importlib
import pkgutil

import pytest

import propfuse

MODULES = sorted(m.name for m in pkgutil.iter_modules(propfuse.__path__))


def test_every_module_is_seen():
    assert {"motion", "propagation", "evaluation", "synth"} <= set(MODULES)


@pytest.mark.parametrize("name", ["propfuse"] + [f"propfuse.{m}" for m in MODULES])
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    listed = getattr(module, "__all__", [])
    assert len(listed) == len(set(listed))
    assert [n for n in listed if not hasattr(module, n)] == []
