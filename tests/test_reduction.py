"""Lyapunov-Schmidt reduction: critical solves, foliations, obstructions."""

import numpy as np
import pytest

from hawkfol import (HarmonicField, concentration_scalar, el_residual, foliate,
                     initial_guess, kernel_obstruction, nonexistence_check,
                     preset, solve_critical)
from hawkfol.errors import ContinuationBroken, DegenerateHessian, NonConvergence

ORIGIN = np.zeros(3)


class TestInitialGuess:
    def test_flat(self, flat, grid):
        lam0, phi0 = initial_guess(flat, ORIGIN, grid=grid)
        assert lam0 == 0.0
        assert phi0.l2_norm() < 1e-14

    def test_constant_k_closed_form(self, constant_k, grid):
        lam0, _ = initial_guess(constant_k, ORIGIN, grid=grid)
        assert lam0 == pytest.approx(-4.0 / 15.0, abs=1e-12)

    def test_conformal_closed_form(self, conformal, grid):
        lam0, phi0 = initial_guess(conformal, ORIGIN, grid=grid)
        assert lam0 == pytest.approx(0.04, abs=1e-12)
        # isotropic Ricci at the center: the Kperp content vanishes
        assert phi0.l2_norm() < 1e-12

    def test_phi0_band_content(self, conformal_k, grid):
        _, phi0 = initial_guess(conformal_k, ORIGIN, grid=grid)
        degrees = phi0.degrees()
        assert np.abs(phi0.coeffs[degrees < 2]).max() == 0.0
        assert np.abs(phi0.coeffs[degrees > 4]).max() < 1e-13
        assert phi0.l2_norm() > 1e-3


class TestSolveCritical:
    def test_conformal_converges(self, conformal, grid):
        sol = solve_critical(conformal, ORIGIN, 0.05, grid=grid)
        assert sol.converged
        assert sol.newton_iterations <= 6
        assert abs(sol.lam - 0.04) < 5e-5
        assert np.linalg.norm(sol.tau) < 1e-7
        # kernel coefficients of phi vanish identically by construction
        assert np.abs(sol.phi.coeffs[:4]).max() == 0.0

    def test_flat_degenerate(self, flat, grid):
        with pytest.raises(DegenerateHessian):
            solve_critical(flat, ORIGIN, 0.05, grid=grid)

    def test_solved_phi_matches_phi0(self, conformal_k, grid):
        lam0, phi0 = initial_guess(conformal_k, ORIGIN, grid=grid)
        sol = solve_critical(conformal_k, ORIGIN, 0.02, grid=grid)
        rel = np.linalg.norm(sol.phi.coeffs - phi0.coeffs) / phi0.l2_norm()
        assert rel < 0.05
        assert abs(sol.lam - lam0) < 0.05 * abs(lam0)

    def test_residual_projections_vanish_at_solution(self, conformal_k, grid):
        sol = solve_critical(conformal_k, ORIGIN, 0.04, grid=grid)
        full_phi = HarmonicField(sol.r ** 2 * sol.phi.coeffs, sol.phi.band_limit)
        from hawkfol import graph_surface
        surf = graph_surface(conformal_k, ORIGIN, sol.tau, sol.r, full_phi, grid)
        res = el_residual(conformal_k, surf, sol.lam)
        assert abs(res.proj_k0) < 1e-6
        assert np.abs(res.proj_k1).max() < 1e-6
        # the physical residual obeys |Phi~| = |Phi| / r^3
        assert sol.residual_norm < 1e-7

    def test_nonconvergence_raises(self, conformal_k, grid):
        with pytest.raises(NonConvergence):
            solve_critical(conformal_k, ORIGIN, 0.05, grid=grid, max_iter=1,
                           guess=(np.zeros(3), 5.0, HarmonicField.zero(8)))


@pytest.fixture(scope="module")
def trace(conformal, grid):
    return foliate(conformal, ORIGIN, (0.02, 0.1), 5, grid=grid)


class TestFoliate:
    def test_lambda_extrapolates_to_lambda0(self, trace):
        assert abs(trace.lambda0_extrapolated - 0.04) < 0.01 * 0.04

    def test_even_geometry_gives_still_center_and_unit_lapse(self, trace):
        assert np.abs(trace.dtau_dr).max() < 1e-4
        assert np.all(trace.lapse_min > 0.99)
        assert trace.foliation_valid

    def test_area_constraint_consistency(self, trace, conformal):
        # |S_r| = 4 pi r^2 + a r^4 with a = -(2 pi / 9) Sc within 5 percent
        from hawkfol import curvature_at
        sc = curvature_at(conformal, ORIGIN).scalar
        defect = trace.area - 4 * np.pi * trace.r ** 2
        coef = np.linalg.lstsq(
            np.vstack([trace.r ** 4, trace.r ** 6]).T, defect, rcond=None)[0][0]
        assert abs(coef - (-(2 * np.pi / 9) * sc)) < 0.05 * abs((2 * np.pi / 9) * sc)

    def test_rescaled_residual_identity_at_solution(self, trace, conformal, grid):
        sol = trace.solutions[2]
        assert sol.residual_norm_full < 1e-6  # Phi = r^3 Phi~ stays below tol/r^3

    def test_continuation_breaks_cleanly_outside_chart(self, grid):
        ds = preset("conformal_quadratic", eps=-0.25)  # chart radius 1.8
        with pytest.raises(ContinuationBroken) as info:
            foliate(ds, ORIGIN, (0.5, 5.0), 4, grid=grid)
        # the leaves solved before the break come back, all inside the chart
        partial = info.value.trace
        assert partial is not None and len(partial.solutions) >= 1
        assert np.all(partial.r < ds.chart_radius)

    def test_foliation_with_nonzero_k(self, conformal_k, grid):
        # curvature plus constant k: the smallness regime of the foliation
        # criterion, so the trace must stay valid with lapse near one
        trace = foliate(conformal_k, ORIGIN, (0.03, 0.08), 3, grid=grid)
        assert trace.foliation_valid
        assert np.all(trace.lapse_min > 0.9)
        lam0, _ = initial_guess(conformal_k, ORIGIN, grid=grid)
        assert abs(trace.lambda0_extrapolated - lam0) < 0.01 * abs(lam0)


class TestNonexistence:
    def test_conformal_center_is_candidate(self, conformal):
        rep = nonexistence_check(conformal, ORIGIN)
        assert not rep.excluded
        assert np.allclose(rep.hessian_eigenvalues, 0.006, atol=1e-8)
        assert "candidate" in rep.verdict

    def test_off_center_excluded(self, conformal):
        rep = nonexistence_check(conformal, [0.1, 0.0, 0.0])
        assert rep.excluded
        assert rep.grad_norm > 1e-5
        assert rep.hessian_eigenvalues is None

    def test_flat_degenerate(self, flat):
        rep = nonexistence_check(flat, [0.3, 0.2, 0.1])
        assert not rep.excluded
        assert "degenerate" in rep.verdict


def test_kernel_obstruction_measures_gradient(grid):
    # continuation with frozen tau at a gradient point: pi1(Phi)/r^3
    # extrapolates to (4 pi / 3) |grad f|
    ds = preset("conformal_quadratic", eps=0.05)
    p = [0.15, 0.0, 0.0]
    _, grad_f, _ = concentration_scalar(ds, p)
    radii = np.array([0.02, 0.03, 0.045])
    obs = np.array([np.linalg.norm(kernel_obstruction(ds, p, r, grid=grid))
                    for r in radii])
    fit = np.linalg.lstsq(np.vstack([np.ones(3), radii ** 2]).T, obs,
                          rcond=None)[0][0]
    target = (4 * np.pi / 3) * np.linalg.norm(grad_f)
    assert abs(fit - target) < 0.02 * target
