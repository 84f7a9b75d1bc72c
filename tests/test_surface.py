"""Geodesic shooting, embedded surfaces and their fundamental forms."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from hawkfol import (HarmonicField, RayFan, VariationBundle,
                     coordinate_sphere, exp_map, geodesic_sphere, graph_surface,
                     moment_value, preset, surface_from_positions, surface_to_csv,
                     synthesize, transported_center_frame)
from hawkfol.errors import BandLimitExceeded, DegenerateInducedMetric, NonEmbedded
from hawkfol.background import christoffel_from

ORIGIN = np.zeros(3)


def _gamma_at(ds, pts):
    """Christoffel symbols for the oracles, independent of the geodesic kernel."""
    return christoffel_from(np.linalg.inv(ds.metric_jet(pts, 0)), ds.metric_jet(pts, 1))


class TestExpMap:
    def test_flat_is_identity(self, flat):
        v = np.array([0.3, -0.2, 0.1])
        assert_allclose(exp_map(flat, ORIGIN, v), v, atol=1e-14)

    def test_zero_vector(self, flat):
        assert_allclose(exp_map(flat, [0.1, 0, 0], np.zeros(3)), [0.1, 0, 0])

    def test_against_high_accuracy_integration(self, conformal):
        # independent oracle: DOP853 at rtol 1e-12 on the same geodesic system
        v = np.array([0.08, 0.02, -0.05])

        def rhs(t, y):
            gam = _gamma_at(conformal, y[None, :3])[0]
            return np.concatenate([y[3:], -np.einsum("ajk,j,k->a", gam, y[3:], y[3:])])

        sol = solve_ivp(rhs, [0, 1], np.concatenate([ORIGIN, v]),
                        rtol=1e-12, atol=1e-14, dense_output=True)
        assert np.abs(exp_map(conformal, ORIGIN, v) - sol.y[:3, -1]).max() < 1e-8

        # g-arclength of the geodesic equals |v|_g
        ts = np.linspace(0, 1, 4001)
        ys = sol.sol(ts)
        speeds = np.empty(ts.size)
        for i in range(ts.size):
            g = conformal.metric_jet(ys[:3, i][None], 0)[0]
            speeds[i] = np.sqrt(ys[3:, i] @ g @ ys[3:, i])
        arclength = np.trapezoid(speeds, ts)
        g0 = conformal.metric_jet(ORIGIN[None], 0)[0]
        assert abs(arclength - np.sqrt(v @ g0 @ v)) < 1e-8


def test_parallel_transport_preserves_frame(conformal):
    p = np.array([0.05, 0.02, 0.0])
    tau = np.array([0.03, -0.01, 0.02])
    center, frame = transported_center_frame(conformal, p, tau)
    g = conformal.metric_jet(center[None], 0)[0]
    assert np.abs(frame.T @ g @ frame - np.eye(3)).max() < 1e-12


def test_ray_fan_matches_exp_map(conformal, small_grid):
    center, frame = transported_center_frame(conformal, [0.02, 0.0, 0.01], ORIGIN)
    fan = RayFan(conformal, center, frame, small_grid.nodes, s_max=0.12, n_steps=64)
    s = np.full(small_grid.n_nodes, 0.0735)
    direct = exp_map(conformal, center, 0.0735 * (small_grid.nodes @ frame.T), n_steps=128)
    assert np.abs(fan.positions_at(s) - direct).max() < 1e-12


def _non_conformal_polynomial():
    rng = np.random.default_rng(4)
    c4 = rng.normal(size=(3, 3, 3, 3))
    c4 = c4 + c4.transpose(1, 0, 2, 3)
    return preset("polynomial", g_quadratic=0.05 * (c4 + c4.transpose(0, 1, 3, 2)))


@pytest.mark.parametrize("which, x", [("conformal_k", (0.08, -0.03, 0.05)),
                                      ("polynomial", (0.08, -0.03, 0.05)),
                                      ("schwarzschild", (0.6, 0.2, 0.5))],
                         ids=["conformal_k", "polynomial", "schwarzschild"])
def test_christoffel_derivative_algebra_against_stencils(which, x, conformal_k):
    # dGamma closed-form assembly versus a direct stencil on the pointwise
    # Christoffel map
    from hawkfol.background import (_fd_grad, _inverse_metric, christoffel_from,
                                    dchristoffel_from)
    ds = {"conformal_k": conformal_k, "polynomial": _non_conformal_polynomial(),
          "schwarzschild": preset("schwarzschild_slice", mass=1.0)}[which]
    pts = np.array([x])
    g_inv = _inverse_metric(ds.metric_jet(pts, 0))
    dg = ds.metric_jet(pts, 1)

    def gamma_map(q):
        return christoffel_from(_inverse_metric(ds.metric_jet(q, 0)), ds.metric_jet(q, 1))

    dgam = dchristoffel_from(g_inv, dg, ds.metric_jet(pts, 2), christoffel_from(g_inv, dg))[0]
    assert np.abs(dgam - _fd_grad(gamma_map, pts, 1e-4)[0]).max() < 1e-9


def test_variation_bundle_chart_identities(conformal_k, small_grid):
    # normal coordinates: radial lines are geodesics and the Gauss lemma holds
    center, frame = transported_center_frame(conformal_k, ORIGIN, [0.01, -0.004, 0.002])
    radii = np.full(small_grid.n_nodes, 0.06)
    bundle = VariationBundle(conformal_k, center, frame, small_grid.nodes, radii,
                             n_steps=32)
    from hawkfol.background import ambient_fields
    amb = ambient_fields(conformal_k, bundle.points)
    ghat = np.einsum("nab,nai,nbj->nij", amb.metric, bundle.df, bundle.df)
    gamhat = np.einsum("nkc,ncij->nkij", np.linalg.inv(bundle.df),
                       bundle.d2f + np.einsum("ncab,nai,nbj->ncij",
                                              amb.christoffel, bundle.df, bundle.df))
    x = small_grid.nodes
    assert np.abs(np.einsum("nij,nj->ni", ghat, x) - x).max() < 1e-12
    assert np.abs(np.einsum("nkij,ni,nj->nk", gamhat, x, x)).max() < 1e-12


class TestRoundSpheres:
    @pytest.mark.parametrize("r", [0.1, 1.0, 10.0])
    def test_flat_round_sphere(self, flat, grid, r):
        s = geodesic_sphere(flat, ORIGIN, ORIGIN, r, grid, n_steps=16)
        assert abs(s.area - 4 * np.pi * r * r) < 1e-10 * r * r
        assert np.abs(s.mean_curvature - 2.0 / r).max() < 1e-10 / r
        assert np.abs(s.traceless_second_norm_sq).max() < 1e-11 / r ** 2
        assert_allclose(s.second_form, s.metric / r, atol=1e-11 * r)

    def test_frames_orthonormal(self, conformal, grid):
        s = geodesic_sphere(conformal, ORIGIN, ORIGIN, 0.07, grid)
        g = s.ambient.metric
        nu_norm = np.einsum("nij,ni,nj->n", g, s.normal, s.normal)
        assert np.abs(nu_norm - 1.0).max() < 1e-10
        tang = np.einsum("nij,ni,naj->na", g, s.normal, s.d1)
        assert np.abs(tang).max() < 1e-10 * 0.07

    def test_normal_points_outward(self, flat, grid):
        s = geodesic_sphere(flat, ORIGIN, ORIGIN, 1.0, grid, n_steps=16)
        assert np.all(np.einsum("ni,ni->n", s.normal, s.positions) > 0)


class TestGraphSurfaces:
    def test_zero_phi_bitwise_equals_geodesic_sphere(self, conformal, grid):
        a = geodesic_sphere(conformal, ORIGIN, ORIGIN, 0.05, grid)
        b = graph_surface(conformal, ORIGIN, ORIGIN, 0.05,
                          HarmonicField.zero(8), grid)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.mean_curvature, b.mean_curvature)
        assert np.array_equal(a.second_form, b.second_form)

    def test_constant_phi_rescales_the_sphere(self, flat, grid):
        c = HarmonicField.from_coeff_dict(8, {(0, 0): 0.25 * np.sqrt(4 * np.pi)})
        s = graph_surface(flat, ORIGIN, ORIGIN, 1.0, c, grid, n_steps=16)
        assert np.abs(s.mean_curvature - 2.0 / 1.25).max() < 1e-10

    def test_non_embedded_rejected(self, flat, grid):
        c = HarmonicField.from_coeff_dict(8, {(0, 0): -1.2 * np.sqrt(4 * np.pi)})
        with pytest.raises(NonEmbedded):
            graph_surface(flat, ORIGIN, ORIGIN, 1.0, c, grid)

    def test_shape_derivative_of_mean_curvature(self, flat, grid):
        # Euclidean linearization: H(S_{1+phi}) = 2 - (Lap + 2) phi + O(phi^2);
        # quadratic convergence of the error under amplitude halving
        errs = []
        for amp in (0.01, 0.005):
            phi = HarmonicField.from_coeff_dict(8, {(2, 0): amp})
            s = graph_surface(flat, ORIGIN, ORIGIN, 1.0, phi, grid, n_steps=16)
            vals = synthesize(phi, grid)
            predicted = 2.0 + 4.0 * vals  # -(Lap + 2) Y2 = -(-6 + 2) Y2
            errs.append(np.abs(s.mean_curvature - predicted).max())
        assert errs[0] < 50 * 0.01 ** 2
        assert 2.5 < errs[0] / errs[1] < 6.0

    def test_spectral_tangents_match_shooting_stencil(self, conformal, grid):
        # cross-check of the spectral embedding derivatives against 4th-order
        # finite differences of exp_map in the shooting direction
        r = 0.06
        s = geodesic_sphere(conformal, ORIGIN, ORIGIN, r, grid)
        d1x, _ = grid.embedding_derivatives
        for node in (137, 900, 1500):
            for a in range(2):
                w = r * d1x[node, a]
                eta = 1e-5 * r

                def shoot(t):
                    return exp_map(conformal, ORIGIN,
                                   r * grid.nodes[node] + t * w, n_steps=64)

                fd = (shoot(-2 * eta) - 8 * shoot(-eta) + 8 * shoot(eta)
                      - shoot(2 * eta)) / (12 * eta)
                assert np.abs(s.d1[node, a] - fd).max() < 1e-9 * r


class TestCurvedExpansions:
    def test_mean_curvature_expansion(self, conformal, grid):
        # H = 2/r - (r/3) Ric_ij x^i x^j - (r^2/4) Ric_ij;k x^i x^j x^k + O(r^3)
        from hawkfol import curvature_at
        c = curvature_at(conformal, ORIGIN)
        errs = []
        for r in (0.025, 0.05):
            s = geodesic_sphere(conformal, ORIGIN, ORIGIN, r, grid)
            x = grid.nodes
            pred = (2.0 / r - (r / 3.0) * np.einsum("ij,ni,nj->n", c.ricci, x, x)
                    - (r * r / 4.0) * np.einsum("kij,ni,nj,nk->n", c.grad_ricci, x, x, x))
            errs.append(np.abs(s.mean_curvature - pred).max())
        assert errs[1] / errs[0] > 5.0  # O(r^3) truncation
        assert errs[1] < 1e-4 * 0.05

    def test_fitted_ricci_coefficient_at_every_node(self, conformal, grid):
        from hawkfol import curvature_at
        c = curvature_at(conformal, ORIGIN)
        radii = np.array([0.02, 0.05, 0.08])
        h = np.array([geodesic_sphere(conformal, ORIGIN, ORIGIN, r, grid).mean_curvature
                      for r in radii])
        basis = np.vstack([radii, radii ** 3]).T
        coef = np.linalg.lstsq(basis, h - 2.0 / radii[:, None], rcond=None)[0][0]
        target = -(1.0 / 3.0) * np.einsum("ij,ni,nj->n", c.ricci,
                                          grid.nodes, grid.nodes)
        assert np.abs(coef - target).max() < 0.01 * np.abs(target).min()

    def test_area_expansion(self, conformal, grid):
        from hawkfol import curvature_at
        sc = curvature_at(conformal, ORIGIN).scalar
        radii = np.array([0.04, 0.06, 0.08, 0.1])
        defect = np.array([
            geodesic_sphere(conformal, ORIGIN, ORIGIN, r, grid).area - 4 * np.pi * r * r
            for r in radii])
        coef = np.linalg.lstsq(np.vstack([radii ** 4, radii ** 6]).T, defect,
                               rcond=None)[0][0]
        assert abs(coef - (-(2 * np.pi / 9) * sc)) < 1e-6 * abs(sc)


def test_p_trace_closed_form(grid):
    k = np.array([[0.5, 0.1, 0.0], [0.1, -0.2, 0.3], [0.0, 0.3, 1.0]])
    ds = preset("constant_k", k=k)
    s = geodesic_sphere(ds, ORIGIN, ORIGIN, 0.7, grid, n_steps=16)
    expected = np.trace(k) - np.einsum("ij,ni,nj->n", k, grid.nodes, grid.nodes)
    assert np.abs(s.p_trace - expected).max() < 1e-11


def test_schwarzschild_centered_sphere_mean_curvature(grid):
    # coordinate sphere around the puncture; closed-form value plus an
    # independent radial oracle H = psi^-2 d/drho log(psi^4 rho^2)
    ds = preset("schwarzschild_slice", mass=1.0)
    rho = 0.8
    s = coordinate_sphere(ds, ORIGIN, rho, grid)
    psi = 1 + 0.5 / rho
    closed = 2 * (rho - 0.5) / (rho ** 2 * psi ** 3)

    h = 1e-6
    def log_area_density(q):
        return np.log((1 + 0.5 / q) ** 4 * q * q)
    oracle = (log_area_density(rho + h) - log_area_density(rho - h)) / (2 * h) / psi ** 2

    assert abs(closed - oracle) < 1e-8
    assert np.abs(s.mean_curvature - closed).max() < 1e-6
    # horizon sphere is minimal
    s_h = coordinate_sphere(ds, ORIGIN, 0.5, grid)
    assert np.abs(s_h.mean_curvature).max() < 1e-10


class TestSurfaceIntegral:
    def test_constant(self, flat, grid):
        s = geodesic_sphere(flat, ORIGIN, ORIGIN, 2.0, grid, n_steps=16)
        assert abs(s.integral(np.ones(grid.n_nodes)) - 16 * np.pi) < 1e-10

    def test_moment_fields(self, flat, grid):
        s = geodesic_sphere(flat, ORIGIN, ORIGIN, 1.0, grid, n_steps=16)
        x = grid.nodes
        assert abs(s.integral(x[:, 0] * x[:, 1])) < 1e-12
        assert abs(s.integral(x[:, 0] ** 2) - moment_value((0, 0))) < 1e-12

    def test_shape_mismatch(self, flat, grid):
        s = geodesic_sphere(flat, ORIGIN, ORIGIN, 1.0, grid, n_steps=16)
        with pytest.raises(ValueError):
            s.integral(np.ones(7))


def test_degenerate_induced_metric(flat, grid):
    positions = np.zeros((grid.n_nodes, 3))
    with pytest.raises(DegenerateInducedMetric):
        surface_from_positions(flat, grid, positions, check_band=False)


def test_band_limit_warning_on_noisy_positions(flat, grid):
    rng = np.random.default_rng(3)
    positions = grid.nodes + 1e-3 * rng.normal(size=(grid.n_nodes, 3))
    with pytest.warns(BandLimitExceeded):
        surface_from_positions(flat, grid, positions)
    with warnings.catch_warnings():
        warnings.simplefilter("error", BandLimitExceeded)
        surface_from_positions(flat, grid, positions, check_band=False)


def test_csv_export(tmp_path, flat, grid):
    s = geodesic_sphere(flat, ORIGIN, ORIGIN, 1.0, grid, n_steps=16)
    path = tmp_path / "surface.csv"
    surface_to_csv(s, path)
    lines = path.read_text().splitlines()
    assert lines[0].split(",")[:4] == ["node", "x", "y", "z"]
    assert len(lines) == grid.n_nodes + 1
