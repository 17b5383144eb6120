"""The benchmark's tracer finds every flipspectra name it wraps and puts each one back.

``benchmark/tracing.py`` looks its names up with getattr, so renaming or
removing one of them breaks ``benchmark/run.py --trace 1``; this test
makes that a test failure instead.  The file is only read, never edited.
"""

import importlib.util
import sys
from pathlib import Path

import flipspectra.cli  # noqa: F401  imports every module the tracer patches
from flipspectra.flipgraph import Graph

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache file beside it
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write
    return module


def _namespaces() -> dict:
    """Every attribute of every flipspectra module, and of Graph."""
    owners = [m for name, m in sys.modules.items() if name.split(".")[0] == "flipspectra"]
    return {(id(o), attr): value for o in owners + [Graph] for attr, value in vars(o).items()}


def test_tracer_install_resolves_every_name_and_uninstall_restores_them():
    before = _namespaces()
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert patches
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in patches)
    finally:
        tracer.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
