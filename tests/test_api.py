"""Guards on the shape of flipspectra's public functions."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import flipspectra
from flipspectra import bounds

SRC = Path(flipspectra.__file__).parent


def public_functions():
    """(qualified name, callable) of every public function and public method of flipspectra."""
    for info in pkgutil.iter_modules(flipspectra.__path__):
        if info.name == "__main__":  # running it is the CLI
            continue
        module = importlib.import_module(f"flipspectra.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member
            elif callable(obj):
                yield f"{module.__name__}.{name}", obj


def test_no_public_function_takes_a_private_parameter():
    # a parameter named _x is an internal hand-off; the callee should own the shared value
    params = {name: inspect.signature(fn).parameters for name, fn in public_functions()}
    assert len(params) > 70
    assert "flipspectra.census.pentagon_census" in params
    assert "flipspectra.flipgraph.Graph.arc_keys" in params
    private = {name: [p for p in ps if p.startswith("_")] for name, ps in params.items()}
    assert {name: ps for name, ps in private.items() if ps} == {}


def test_no_public_function_takes_a_size_cap():
    # FLIPSPECTRA_MAX_N, read by triangulations._check_range alone, is the one polygon-size cap
    takes = [name for name, fn in public_functions()
             if any(re.fullmatch("max_?n", p) for p in inspect.signature(fn).parameters)]
    assert takes == []


def calls():
    """(caller, callee) of every call in flipspectra's source, the callee as written."""
    found = []

    class Calls(ast.NodeVisitor):
        def __init__(self, module):
            self.where = [module]

        def visit_FunctionDef(self, node):
            self.where.append(node.name)
            self.generic_visit(node)
            self.where.pop()

        visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

        def visit_Call(self, node):
            found.append((".".join(self.where), ast.unparse(node.func)))
            self.generic_visit(node)

    for path in sorted(SRC.glob("*.py")):
        Calls(path.stem).visit(ast.parse(path.read_text()))
    return found


def test_only_bounds_stats_constructs_collection_stats():
    # one constructor: every census, oracle and copy collection is counted through bounds._stats
    callers = [caller for caller, callee in calls() if callee.split(".")[-1] == "CollectionStats"]
    assert callers == ["bounds._stats"]


def test_only_bounds_count_tallies_copies():
    # one checked tally: the copy search, a listed collection and the hexagon supports all
    # reach their counts through bounds._count, which adds per vertex and per edge
    assert [caller for caller, callee in calls() if callee == "np.add.at"] == ["bounds._count"] * 2
    assert not hasattr(bounds, "_tally")
    tree = ast.parse((SRC / "census.py").read_text())
    names = {getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
             for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}
    assert "_count" in names
    assert names.isdisjoint({"_tally", "_SPLIT_PAIRS", "arc_keys"})
