"""The package has one input-error type: InvalidParams (a ValueError), and one
point check."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import hawkfol
from hawkfol import (HarmonicField, concentration_scalar, coordinate_sphere, exp_map, foliate,
                     graph_surface, initial_guess, kernel_obstruction, nonexistence_check,
                     rescaled_phi, solve_critical, transported_center_frame)
from hawkfol.errors import InvalidParams

ORIGIN = np.zeros(3)

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


_NAN = np.array([np.nan, 0.0, 0.0])
_SHORT = np.zeros(2)

# every place a point p, a center or a center offset tau enters, with one
# malformed value: (call(ds, grid), the name in the message)
_POINT_CALLS = {
    "solve_critical-p-short": (lambda ds, grid: solve_critical(ds, _SHORT, 0.05, grid=grid), "p"),
    "solve_critical-p-nan": (lambda ds, grid: solve_critical(ds, _NAN, 0.05, grid=grid), "p"),
    "solve_critical-guess-short": (lambda ds, grid: solve_critical(
        ds, ORIGIN, 0.05, guess=(_SHORT, 0.0, HarmonicField.zero(8)), grid=grid), "tau"),
    "solve_critical-guess-nan": (lambda ds, grid: solve_critical(
        ds, ORIGIN, 0.05, guess=(_NAN, 0.0, HarmonicField.zero(8)), grid=grid), "tau"),
    "foliate-p-short": (lambda ds, grid: foliate(ds, _SHORT, (0.02, 0.04), 2, grid=grid), "p"),
    "kernel_obstruction-p-nan": (lambda ds, grid: kernel_obstruction(ds, _NAN, 0.05,
                                                                     grid=grid), "p"),
    "nonexistence_check-p-short": (lambda ds, grid: nonexistence_check(ds, _SHORT), "x"),
    "concentration_scalar-x-nan": (lambda ds, grid: concentration_scalar(ds, _NAN), "x"),
    "initial_guess-p-short": (lambda ds, grid: initial_guess(ds, _SHORT, grid=grid), "p"),
    "transported_center_frame-p-short": (
        lambda ds, grid: transported_center_frame(ds, _SHORT, ORIGIN), "p"),
    "transported_center_frame-tau-nan": (
        lambda ds, grid: transported_center_frame(ds, ORIGIN, _NAN), "tau"),
    "exp_map-base-short": (lambda ds, grid: exp_map(ds, _SHORT, np.ones(3)), "base"),
    "graph_surface-tau-short": (lambda ds, grid: graph_surface(ds, ORIGIN, _SHORT, 0.05, None,
                                                               grid), "tau"),
    "rescaled_phi-tau-short": (lambda ds, grid: rescaled_phi(ds, ORIGIN, _SHORT, 0.05, None,
                                                             0.0, grid), "tau"),
    "coordinate_sphere-center-nan": (lambda ds, grid: coordinate_sphere(ds, _NAN, 0.05, grid),
                                     "center"),
}


@pytest.mark.parametrize("call", sorted(_POINT_CALLS))
def test_malformed_points_raise_before_any_numerical_work(conformal, small_grid, call):
    # the data set's jets fail: the point is checked before the data is read
    def unread(*args):
        pytest.fail("the data set was evaluated")

    ds = dataclasses.replace(conformal, metric_jet=unread, k_jet=unread)
    run, name = _POINT_CALLS[call]
    with pytest.raises(InvalidParams, match=f"^{name} must be a finite point of shape"):
        run(ds, small_grid)


# a jet order outside the data set's: metric_jet has the orders 0 to 2 and
# k_jet 0 and 1, on closed-form and finite-difference data alike (before,
# metric_jet(p, -1) returned d^3 g or leaked numpy's ValueError, and
# metric_jet(p, 4) returned zeros or raised IndexError)
@pytest.mark.parametrize("jet, n", [("metric_jet", -1), ("metric_jet", 3), ("metric_jet", 4),
                                    ("metric_jet", 1.0), ("k_jet", -1), ("k_jet", 2)])
@pytest.mark.parametrize("kind", ["closed_form", "finite_difference"])
def test_jet_orders_outside_the_data_set_raise(conformal, kind, jet, n):
    ds = conformal if kind == "closed_form" else conformal.with_finite_differences()
    with pytest.raises(InvalidParams, match=f"^{jet} has the orders 0 to"):
        getattr(ds, jet)(np.array([[0.1, 0.0, 0.0]]), n)
