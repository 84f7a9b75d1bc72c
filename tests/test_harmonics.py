"""Sphere grid quadrature, harmonic transforms, projections and moments."""

import warnings
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hawkfol import (HarmonicField, analyze, analyze_compensated, biharmonic_apply,
                     biharmonic_solve, moment_integral, moment_value, project_K0, project_K1,
                     project_Kperp, synthesize, synthesize_derivatives)
from hawkfol.errors import BandLimitExceeded, InvalidParams, NotOrthogonal, UnsupportedDegree
from hawkfol.grid import SphereGrid, _normalized_legendre, _theta_derivative, coeff_index
from hawkfol.harmonics import point_basis


def test_weights_sum_to_sphere_area(grid):
    assert abs(grid.weights.sum() - 4 * np.pi) < 1e-12


def test_basis_orthonormal_under_quadrature(grid):
    gram = (grid.basis * grid.weights[:, None]).T @ grid.basis
    assert np.abs(gram - np.eye(grid.n_coeffs)).max() < 1e-12


def test_roundtrip_identity_on_band_limited_fields(grid):
    rng = np.random.default_rng(0)
    field = HarmonicField(rng.normal(size=grid.n_coeffs), grid.band_limit)
    back = analyze(grid, synthesize(field, grid))
    assert np.abs(back.coeffs - field.coeffs).max() < 1e-12


def test_parseval(grid):
    rng = np.random.default_rng(1)
    field = HarmonicField(rng.normal(size=grid.n_coeffs), grid.band_limit)
    vals = synthesize(field, grid)
    assert abs(np.sum(grid.weights * vals * vals) - field.coeffs @ field.coeffs) < 1e-10


def test_constant_analyzes_to_monopole(grid):
    field = analyze(grid, np.ones(grid.n_nodes))
    assert abs(field.coeffs[0] - np.sqrt(4 * np.pi)) < 1e-13
    assert np.abs(field.coeffs[1:]).max() < 1e-13


def test_coordinate_function_is_pure_degree_one(grid):
    field = analyze(grid, grid.nodes[:, 0])
    degrees = field.degrees()
    assert np.abs(field.coeffs[degrees != 1]).max() < 1e-13
    assert np.abs(field.coeffs[degrees == 1]).max() > 1.0


def test_quartic_monomial_band_content(grid):
    # (x1)^2 (x2)^2 decomposes into degrees {0, 2, 4} only
    vals = grid.nodes[:, 0] ** 2 * grid.nodes[:, 1] ** 2
    field = analyze(grid, vals)
    degrees = field.degrees()
    odd_or_high = (degrees % 2 == 1) | (degrees > 4)
    assert np.abs(field.coeffs[odd_or_high]).max() < 1e-12
    assert np.abs(field.coeffs[degrees == 6]).max() < 1e-12


def test_band_limit_warning_on_aliased_field(grid):
    theta = grid.theta
    rough = np.cos(3 * grid.band_limit * theta)
    with pytest.warns(BandLimitExceeded):
        analyze(grid, rough)


def test_batched_band_limit_check_is_per_component(grid):
    clean = np.column_stack([grid.nodes[:, 0], 2.0 + grid.nodes[:, 1], grid.nodes[:, 2] ** 2])
    with warnings.catch_warnings():
        warnings.simplefilter("error", BandLimitExceeded)
        analyze(grid, clean)
    # the aliased component holds ~1e-7 of the whole field's energy, so only
    # a per-component check sees its loss
    aliased = clean.copy()
    aliased[:, 2] = 1e-3 * np.cos(3 * grid.band_limit * grid.theta)
    energy = grid.weights @ aliased ** 2
    assert energy[2] < 1e-6 * energy.sum()
    with pytest.warns(BandLimitExceeded):
        analyze(grid, aliased)


def test_batched_transforms_match_columns(grid):
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=(grid.n_coeffs, 3))
    field = HarmonicField(coeffs, grid.band_limit)
    values = synthesize(field, grid) + 5.0 * grid.nodes

    def assert_close(batched, column):
        assert np.abs(batched - column).max() <= 1e-14 * np.abs(column).max()

    for transform in (analyze, analyze_compensated):
        batched = transform(grid, values).coeffs
        assert batched.flags.c_contiguous
        for j in range(3):
            assert_close(batched[:, j], transform(grid, values[:, j]).coeffs)
    f, d1, d2 = synthesize_derivatives(field, grid)
    assert d1.shape == (grid.n_nodes, 2, 3) and d2.shape == (grid.n_nodes, 2, 2, 3)
    for arr in (f, d1, d2):
        assert arr.flags.c_contiguous
    for j in range(3):
        column = synthesize_derivatives(HarmonicField(coeffs[:, j], grid.band_limit), grid)
        for batched, single in zip((f, d1, d2), column):
            assert_close(batched[..., j], single)
    # the dense tables are assembled afresh on every access, never cached
    for name in _DENSE_TABLES:
        assert not np.shares_memory(getattr(grid, name), getattr(grid, name))


_DENSE_TABLES = ("basis", "basis_dtheta", "basis_dphi", "basis_dtheta2",
                 "basis_dtheta_dphi", "basis_dphi2")
# (theta order, phi order) of each dense table and of each synthesized derivative
_ORDERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def _per_column_table(g, band_limit, orders):
    """Dense (n_nodes, n_coeffs) table of one angle derivative of the basis up
    to `band_limit`, each column filled from its colatitude and azimuth factors."""
    q = _normalized_legendre(g.band_limit, g.gauss_z)
    theta_parts = (q, _theta_derivative(q), _theta_derivative(_theta_derivative(q)))
    i, j = orders
    ref = np.zeros((g.n_nodes, (band_limit + 1) ** 2))
    for l in range(band_limit + 1):
        for m in range(-l, l + 1):
            theta = theta_parts[i][:, abs(m), l] * (np.sqrt(2.0) if m else 1.0)
            c, s = np.cos(abs(m) * g.phi_1d), np.sin(abs(m) * g.phi_1d)
            az = [np.ones(g.n_phi), np.zeros(g.n_phi), np.zeros(g.n_phi)]
            if m > 0:
                az = [c, -m * s, -m * m * c]
            elif m < 0:
                az = [s, -m * c, -m * m * s]
            ref[:, coeff_index(l, m)] = np.outer(theta, az[j]).ravel()
    return ref


def test_derivative_tables_match_per_column_construction(small_grid):
    g = small_grid
    for name, orders in zip(_DENSE_TABLES, _ORDERS):
        assert np.array_equal(getattr(g, name), _per_column_table(g, g.band_limit, orders))
    reference = (_per_column_table(g, g.band_limit, (0, 0)) * g.weights[:, None]).T
    assert np.abs(g.analysis_matrix - reference).max() < 1e-15


@pytest.mark.parametrize("shape, band_limit", [((16, 32), None), ((32, 64), None),
                                               ((64, 128), None), ((12, 16), 10)],
                         ids=["16x32", "32x64", "64x128", "12x16-band10"])
def test_separable_transforms_match_dense_products(shape, band_limit):
    # 12x16 at band limit 10 samples orders |m| >= n_phi / 2: the azimuth
    # factors alias there, and the transforms must alias exactly as the
    # sampled cos/sin of the dense tables do
    g = SphereGrid(*shape, band_limit=band_limit)
    rng = np.random.default_rng(11)

    def assert_close(separable, dense):
        assert np.abs(separable - dense).max() <= 1e-13 * np.abs(dense).max()

    for band in (g.band_limit, g.band_limit // 2):
        coeffs = rng.normal(size=((band + 1) ** 2, 3))
        field = HarmonicField(coeffs, band)
        f, d1, d2 = synthesize_derivatives(field, g)
        derivatives = (f, d1[:, 0], d1[:, 1], d2[:, 0, 0], d2[:, 0, 1], d2[:, 1, 1])
        for orders, separable in zip(_ORDERS, derivatives):
            assert_close(separable, _per_column_table(g, band, orders) @ coeffs)
        assert np.array_equal(d2[:, 0, 1], d2[:, 1, 0])
        assert_close(synthesize(field, g), f)

    basis = _per_column_table(g, g.band_limit, (0, 0))
    values = rng.normal(size=(g.n_nodes, 3))
    assert_close(analyze(g, values, check=False).coeffs, (basis * g.weights[:, None]).T @ values)
    smooth = synthesize(HarmonicField(rng.normal(size=(g.n_coeffs, 3)), g.band_limit), g)
    smooth += 5.0 * g.nodes
    assert_close(analyze_compensated(g, smooth).coeffs,
                 (basis * g.weights[:, None]).T @ smooth)


def test_grid_caches_no_dense_table():
    g = SphereGrid(64, 128)
    field = analyze(g, g.nodes)
    synthesize_derivatives(field, g)
    cached = [v for v in vars(g).values() if isinstance(v, np.ndarray)]
    assert cached
    assert all(v.size != g.n_nodes * g.n_coeffs for v in cached)
    assert sum(v.nbytes for v in cached) < 10e6


def test_point_basis_matches_grid_basis_and_addition_theorem(small_grid):
    b = small_grid.band_limit
    assert_allclose(point_basis(b, small_grid.nodes), small_grid.basis, rtol=0, atol=1e-14)
    rng = np.random.default_rng(8)
    points = rng.normal(size=(256, 3))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    basis = point_basis(b, points)
    # degree 1 is sqrt(3 / 4 pi) (y, z, x); every degree sums to (2l + 1) / 4 pi
    assert_allclose(basis[:, 1:4], np.sqrt(3 / (4 * np.pi)) * points[:, [1, 2, 0]],
                    rtol=0, atol=1e-15)
    for l in range(b + 1):
        assert_allclose(np.sum(basis[:, l * l:(l + 1) ** 2] ** 2, axis=1),
                        (2 * l + 1) / (4 * np.pi), rtol=1e-13)


def test_projections_of_constant(grid):
    vals = 2.5 * np.ones(grid.n_nodes)
    assert abs(project_K0(grid, vals) - 4 * np.pi * 2.5) < 1e-12
    assert np.abs(project_K1(grid, vals)).max() < 1e-12


def test_projection_of_coordinate_function(grid):
    for axis in range(3):
        p1 = project_K1(grid, grid.nodes[:, axis])
        expected = np.zeros(3)
        expected[axis] = 4 * np.pi / 3
        assert_allclose(p1, expected, atol=1e-13)
        assert abs(project_K0(grid, grid.nodes[:, axis])) < 1e-13


def test_degree_three_harmonic_projects_to_zero(grid):
    field = HarmonicField.from_coeff_dict(grid.band_limit, {(3, 1): 1.0})
    vals = synthesize(field, grid)
    assert abs(project_K0(grid, vals)) < 1e-12
    assert np.abs(project_K1(grid, vals)).max() < 1e-12
    perp = project_Kperp(field)
    assert np.abs(perp.coeffs - field.coeffs).max() == 0.0


def test_kperp_idempotent_and_orthogonal(grid):
    rng = np.random.default_rng(2)
    field = HarmonicField(rng.normal(size=grid.n_coeffs), grid.band_limit)
    perp = project_Kperp(field)
    assert np.array_equal(project_Kperp(perp).coeffs, perp.coeffs)
    vals = synthesize(perp, grid)
    assert abs(project_K0(grid, vals)) < 1e-11
    assert np.abs(project_K1(grid, vals)).max() < 1e-11


class TestBiharmonic:
    def test_kernel(self):
        for m in (-1, 0, 1):
            field = HarmonicField.from_coeff_dict(8, {(1, m): 1.0})
            assert biharmonic_apply(field).l2_norm() == 0.0
        assert biharmonic_apply(HarmonicField.from_coeff_dict(8, {(0, 0): 3.0})).l2_norm() == 0.0

    def test_degree_two_eigenvalue(self):
        field = HarmonicField.from_coeff_dict(8, {(2, 1): 1.0})
        out = biharmonic_apply(field)
        assert abs(out.coeff(2, 1) - 24.0) < 1e-14

    def test_solve_inverts_apply(self):
        rhs = HarmonicField.from_coeff_dict(8, {(2, 0): 24.0})
        sol = biharmonic_solve(rhs)
        assert abs(sol.coeff(2, 0) - 1.0) < 1e-14

    def test_positive_above_kernel(self):
        for l in range(2, 9):
            field = HarmonicField.from_coeff_dict(8, {(l, 0): 1.0})
            assert biharmonic_apply(field).coeff(l, 0) > 0

    def test_solve_rejects_kernel_content(self):
        rhs = HarmonicField.from_coeff_dict(8, {(1, 0): 1e-6, (2, 0): 1.0})
        with pytest.raises(NotOrthogonal):
            biharmonic_solve(rhs)


class TestMoments:
    def test_odd_vanishes(self):
        assert moment_integral((0, 1)) == 0
        assert moment_integral((2,)) == 0
        assert moment_integral((0, 0, 1)) == 0

    def test_closed_forms(self):
        assert moment_integral(()) == Fraction(4)
        assert moment_integral((0, 0)) == Fraction(4, 3)
        assert moment_integral((0, 0, 0, 0)) == Fraction(4, 5)
        assert moment_integral((0, 0, 1, 1)) == Fraction(4, 15)
        assert moment_integral((0, 0, 1, 1, 2, 2)) == Fraction(4, 105)
        assert moment_integral((2,) * 6) == Fraction(4, 7)

    def test_degree_cap(self):
        with pytest.raises(UnsupportedDegree):
            moment_integral((0,) * 8)

    def test_quadrature_matches_all_monomials(self, grid):
        for degree in range(7):
            for combo in combinations_with_replacement(range(3), degree):
                mono = (np.prod(grid.nodes[:, combo], axis=1) if degree
                        else np.ones(grid.n_nodes))
                assert abs(np.sum(grid.weights * mono) - moment_value(combo)) < 1e-12


def test_derivative_tables_laplacian_eigenvalues(grid):
    z, st = grid.cos_theta, grid.sin_theta
    for (l, m) in [(1, 0), (2, 2), (5, -3), (12, 7), (20, -20)]:
        field = HarmonicField.from_coeff_dict(grid.band_limit, {(l, m): 1.0})
        v, d1, d2 = synthesize_derivatives(field, grid)
        lap = d2[:, 0, 0] + (z / st) * d1[:, 0] + d2[:, 1, 1] / st ** 2
        assert np.abs(lap + l * (l + 1) * v).max() < 5e-12


def test_band_limit_zero_colatitude_tables():
    # the smallest grid carries Y_00 alone, whose theta derivatives vanish
    g = SphereGrid(2, 4)
    q, dq, d2q = g.colatitude_tables
    assert g.band_limit == 0
    assert np.allclose(q, np.sqrt(1.0 / (4.0 * np.pi)))
    assert not dq.any() and not d2q.any()


def test_small_grid_band_limit_rule():
    assert SphereGrid(32, 64).band_limit == 20
    assert SphereGrid(16, 32).band_limit == 10


@pytest.mark.parametrize("sizes", [(1, 32), (16, 2), (16, 32, -1), (16.7, 32), (16, 32, 4.5)],
                         ids=["n_theta-1", "n_phi-2", "band_limit-negative", "n_theta-float",
                              "band_limit-float"])
def test_grid_rejects_bad_sizes(sizes):
    with pytest.raises(InvalidParams):
        SphereGrid(*sizes)


def test_coeff_index_layout():
    assert coeff_index(0, 0) == 0
    assert coeff_index(1, -1) == 1
    assert coeff_index(1, 0) == 2
    assert coeff_index(1, 1) == 3
    assert coeff_index(2, -2) == 4
