"""The benchmark harness reaches into hawkfol by name; those names must exist."""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import hawkfol
from hawkfol.grid import SphereGrid

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_bindings_resolve(monkeypatch):
    # Tracer.install wraps every (module, attr) of TARGETS; a missing one
    # stops every traced benchmark run.  spans.py is stdlib only; its
    # dataclasses need the module registered while it executes
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    missing = [f"{mod}.{attr}" for mod, attrs in spans.TARGETS.items()
               for attr in attrs if not hasattr(getattr(hawkfol, mod, None), attr)]
    assert not missing


def test_setup_grid_tables_exist():
    # run.py's set-up reads these SphereGrid attributes by name
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    build = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "_build_tables")
    names = [node.value for node in ast.walk(build)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert names
    assert [name for name in names if not hasattr(SphereGrid, name)] == []


def test_step_count_call_contract():
    # spans._call_facts calls int() on RayFan's bound n_steps, its default
    # included, and the workloads pass n_steps to graph_surface and rescaled_phi
    assert type(inspect.signature(hawkfol.RayFan).parameters["n_steps"].default) is int
    for fn in (hawkfol.graph_surface, hawkfol.rescaled_phi):
        assert "n_steps" in inspect.signature(fn).parameters
