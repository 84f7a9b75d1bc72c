"""The package has one input-error type: InvalidParams (a ValueError)."""

import ast
from pathlib import Path

import hawkfol

PACKAGE = Path(hawkfol.__file__).resolve().parent


def _raised_name(node: ast.Raise):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_no_builtin_input_errors_or_second_error_type():
    # a bad argument raises InvalidParams, which the CLI maps to exit 2; a
    # bare ValueError or TypeError would reach the exit-3 handler
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and _raised_name(node) in ("ValueError", "TypeError"):
                found.append(f"{path.name}:{node.lineno} raise {_raised_name(node)}")
            if isinstance(node, ast.ClassDef) and node.name == "ConfigError":
                found.append(f"{path.name}:{node.lineno} class ConfigError")
    assert found == []
