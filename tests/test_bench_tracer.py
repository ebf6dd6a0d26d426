"""The benchmark's tracer still finds every binding it must wrap.

``bench/tracer.py`` replaces each traced function in every propfuse module
that imports it by name. A function that moves or is no longer imported
where the tracer expects it would silently fold one layer's time into its
caller's, so the bindings are checked here, with the suite, rather than
only when a traced benchmark runs.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tracer_module():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(str(BENCH))


def test_install_wraps_every_expected_binding_and_uninstall_restores_them():
    import propfuse.similarity

    tracer = _tracer_module()
    original = propfuse.similarity.PatchDescriptor.__dict__["embed"]
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = set(t.bindings)
        assert propfuse.similarity.PatchDescriptor.__dict__["embed"] is not original
    finally:
        t.uninstall()
    assert sorted(set(tracer.EXPECTED_BINDINGS) - wrapped) == []
    assert propfuse.similarity.PatchDescriptor.__dict__["embed"] is original
    assert not hasattr(propfuse.similarity.rescore, "__wrapped__")
    assert not hasattr(propfuse.fusion.rescore, "__wrapped__")
