"""Guards on the shape of flipspectra's public functions."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import flipspectra
from flipspectra import bounds, spectra

SRC = Path(flipspectra.__file__).parent
ROOT = SRC.parent.parent


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


def public_names():
    """Qualified name of every public function, public method and public class of flipspectra."""
    yield from (name for name, _ in public_functions())
    for info in pkgutil.iter_modules(flipspectra.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"flipspectra.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__ and name[0] != "_":
                yield f"{module.__name__}.{name}"


def test_public_parameter_totals_only_fall():
    # ratchet: every parameter of a public function is interface to keep, so the totals
    # (self not counted) may fall and must not grow; lower the bounds when they fall
    params = [p for _, fn in public_functions()
              for p in inspect.signature(fn).parameters.values() if p.name != "self"]
    assert len(params) <= 121
    assert sum(p.default is not p.empty for p in params) <= 20


def test_solver_tolerance_is_a_constant_and_the_bound_slack():
    # one residual rule: no caller sets the tolerance or the iteration cap
    for solver in (spectra.lambda_min, spectra.lambda_2):
        assert list(inspect.signature(solver).parameters) == ["g", "method", "seed"]
    assert bounds.SLACK == spectra.TOLERANCE == 1e-9
    assert spectra.MAX_APPLICATIONS == 5000


def mentions(tree) -> set[str]:
    """Every name, attribute, imported name and identifier string in a syntax tree."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)  # benchmark/tracing.py names src functions in strings
    return found


def definitions() -> dict[str, set[str]]:
    """What each top-level function, class, method and assignment of src mentions, by name.

    A class counts its decorators, bases, fields and dunder methods, which run
    whenever the class does; its other methods are names of their own.
    """
    defs: dict[str, set[str]] = {}
    for path in SRC.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ClassDef):
                own = set().union(*map(mentions, stmt.decorator_list + stmt.bases))
                for item in stmt.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        defs.setdefault(item.name, set()).update(mentions(item))
                    else:
                        own |= mentions(item)
                defs.setdefault(stmt.name, set()).update(own)
            elif isinstance(stmt, ast.FunctionDef):
                defs.setdefault(stmt.name, set()).update(mentions(stmt))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for name in set().union(*map(mentions, targets)):
                    defs.setdefault(name, set()).update(mentions(stmt.value))
    return defs


# public names kept for library users alone: nothing in the program reaches them
LIBRARY_API: frozenset[str] = frozenset()


def test_every_public_name_is_reached_by_the_program():
    # src holds what the program runs: each public name is reached, by name and
    # through src's own definitions, from the CLI and the claim suite, scripts/ or
    # benchmark/, unless it is listed as library API
    roots = [SRC / "cli.py", SRC / "certify.py",
             *sorted((ROOT / "scripts").glob("*.py")), *sorted((ROOT / "benchmark").glob("*.py"))]
    todo = set().union(*(mentions(ast.parse(path.read_text())) for path in roots))
    defs, reached = definitions(), set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo |= defs.get(name, set())
    names = list(public_names())
    assert len(names) > 80
    unreached = {name for name in names if name.rpartition(".")[2] not in reached}
    assert unreached == LIBRARY_API


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


def test_only_the_full_spectrum_takes_dense_spectrum():
    # one eigenvalue path for every judgement: bounds and claims take lambda_min from
    # spectra.lambda_min, checked against its residual; the unchecked full decomposition
    # serves spectrum --which full alone
    callers = [caller for caller, callee in calls() if callee.split(".")[-1] == "dense_spectrum"]
    assert callers == ["cli.cmd_spectrum"]
    assert "dense_spectrum" not in mentions(ast.parse((SRC / "bounds.py").read_text()))
