"""Hawking and Willmore energies on surfaces."""

import numpy as np
import pytest

from hawkfol import (analyze, concentration_scalar, coordinate_sphere, default_grid,
                     geodesic_sphere, graph_surface, hawking_energy, preset,
                     willmore)

ORIGIN = np.zeros(3)


@pytest.mark.parametrize("r", [0.1, 1.0, 10.0])
def test_flat_round_sphere_baseline(flat, grid, r):
    s = geodesic_sphere(flat, ORIGIN, ORIGIN, r, grid)
    report = hawking_energy(s)
    assert abs(report.willmore_value - 4 * np.pi) < 1e-10
    assert abs(report.hawking_energy) < 1e-11 * max(r, 1.0)


def test_hawking_equals_willmore_without_k(conformal, grid):
    s = geodesic_sphere(conformal, ORIGIN, ORIGIN, 0.08, grid)
    report = hawking_energy(s)
    assert report.hawking_functional_value == report.willmore_value
    assert report.int_p2 == 0.0


def test_report_recomputes_from_parts(conformal_k, grid):
    s = geodesic_sphere(conformal_k, ORIGIN, ORIGIN, 0.06, grid)
    rep = hawking_energy(s)
    assert abs(rep.hawking_functional_value
               - 0.25 * (rep.int_h2 - rep.int_p2)) < 1e-12
    recomputed = np.sqrt(rep.area / (16 * np.pi)) * (
        1 - (rep.int_h2 - rep.int_p2) / (16 * np.pi))
    assert abs(rep.hawking_energy - recomputed) < 1e-12


def test_p_squared_integral_closed_form(grid):
    # int P^2 dmu = (8 pi / 5) r^2 (tr k)^2 + (8 pi / 15) r^2 |k|^2
    k = np.array([[0.5, 0.1, 0.0], [0.1, -0.2, 0.3], [0.0, 0.3, 1.0]])
    ds = preset("constant_k", k=k)
    for r in (0.5, 1.0):
        s = geodesic_sphere(ds, ORIGIN, ORIGIN, r, grid)
        rep = hawking_energy(s)
        trk = np.trace(k)
        ksq = np.sum(k * k)
        expected = (8 * np.pi / 5) * r * r * trk ** 2 + (8 * np.pi / 15) * r * r * ksq
        assert abs(rep.int_p2 - expected) < 1e-10


def test_willmore_inequality_strict_for_ellipsoid(flat, grid):
    x = grid.nodes
    radial = 1.0 / np.sqrt(x[:, 0] ** 2 + x[:, 1] ** 2 + (x[:, 2] / 1.1) ** 2)
    phi = analyze(grid, radial - 1.0)
    s = graph_surface(flat, ORIGIN, ORIGIN, 1.0, phi, grid, n_steps=16)
    assert willmore(s) > 4 * np.pi + 1e-3


def test_willmore_small_radius_fit(conformal, grid):
    radii = np.array([0.04, 0.06, 0.08])
    vals = np.array([
        willmore(geodesic_sphere(conformal, ORIGIN, ORIGIN, r, grid))
        for r in radii])
    coefs = np.linalg.lstsq(np.vstack([np.ones(3), radii ** 2]).T, vals,
                            rcond=None)[0]
    assert abs(coefs[0] - 4 * np.pi) < 1e-6
    assert np.isfinite(coefs[1]) and abs(coefs[1]) < 10.0


def test_energy_invariant_under_grid_refinement(conformal_k):
    coarse = default_grid()
    fine = default_grid(64, 128)
    e = []
    for g in (coarse, fine):
        s = geodesic_sphere(conformal_k, ORIGIN, ORIGIN, 0.05, g)
        e.append(hawking_energy(s).hawking_energy)
    assert abs(e[0] - e[1]) < 1e-8


def test_small_sphere_energy_coefficient(conformal_k, grid):
    # E(S_r)/r^3 -> (Sc + 3/5 (tr k)^2 + 1/5 |k|^2)/12
    value, _, _ = concentration_scalar(conformal_k, ORIGIN)
    radii = np.array([0.03, 0.05, 0.07, 0.09])
    ratios = np.array([
        hawking_energy(geodesic_sphere(conformal_k, ORIGIN, ORIGIN, r, grid)).hawking_energy
        / r ** 3 for r in radii])
    fit = np.linalg.lstsq(np.vstack([np.ones(4), radii ** 2]).T, ratios,
                          rcond=None)[0][0]
    assert abs(fit - value / 12) < 0.02 * abs(value / 12)


@pytest.mark.parametrize("grid_name", ["small_grid", "grid"])
@pytest.mark.parametrize("mass", [0.5, 1.0])
@pytest.mark.parametrize("rho", [0.2, 0.5, 1.0, 3.0, 10.0])
def test_schwarzschild_coordinate_spheres_carry_the_mass(request, grid_name, mass, rho):
    # centered coordinate spheres of the time-symmetric Schwarzschild slice
    # have Hawking energy m at every radius, inside and outside the horizon
    # at rho = m / 2
    grid = request.getfixturevalue(grid_name)
    ds = preset("schwarzschild_slice", mass=mass)
    energy = hawking_energy(coordinate_sphere(ds, ORIGIN, rho, grid)).hawking_energy
    assert abs(energy - mass) < 1e-12


@pytest.mark.parametrize("shape", [(16, 32), (32, 64), (64, 128)])
@pytest.mark.parametrize("eps", [0.01, 0.03, -0.25])
def test_conformal_coordinate_spheres_closed_form_energy(shape, eps):
    # |x| = rho in g = w delta, w = 1 + eps |x|^2: sqrt(A / 16 pi) = rho sqrt(w) / 2
    # and H = 2 (1 + eps rho^2 / w) / (rho sqrt(w)), so
    # E = (rho sqrt(w) / 2)(1 - (1 + eps rho^2 / w)^2).  The bracket is a
    # difference of nearly equal numbers at small rho, so the bound is
    # absolute in units of sqrt(A / 16 pi), not relative to E
    grid = default_grid(*shape)
    ds = preset("conformal_quadratic", eps=eps)
    for rho in (0.001, 0.005, 0.02, 0.1, 0.5, 1.0):
        w = 1.0 + eps * rho * rho
        size = rho * np.sqrt(w) / 2.0
        exact = size * (1.0 - (1.0 + eps * rho * rho / w) ** 2)
        energy = hawking_energy(coordinate_sphere(ds, ORIGIN, rho, grid)).hawking_energy
        assert abs(energy - exact) <= 2e-15 * size
