"""Lyapunov-Schmidt reduction: critical solves, foliations, obstructions."""

import numpy as np
import pytest

from hawkfol import (EnergyReport, HarmonicField, SphereGrid, concentration_scalar,
                     el_residual, foliate, initial_guess, kernel_obstruction,
                     nonexistence_check, orthonormal_frame, preset, reduction,
                     solve_critical)
from hawkfol.errors import (ContinuationBroken, DegenerateHessian, InvalidParams,
                            NonConvergence)
from hawkfol.reduction import CriticalSurfaceSolution, _newton, _ReducedSystem

ORIGIN = np.zeros(3)
K_GENERIC = np.array([[0.3, 0.1, 0.0], [0.1, -0.2, 0.05], [0.0, 0.05, 0.4]])


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

    def test_band_limit_must_be_an_integer(self, conformal_k, grid):
        with pytest.raises(InvalidParams):
            initial_guess(conformal_k, ORIGIN, band_limit=2.5, grid=grid)


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

    def test_band_limit_the_grid_cannot_resolve(self, conformal):
        # the embedding has degree band_limit + 1: a grid of band limit 8
        # truncates the surfaces of solver band limit 8
        grid = SphereGrid(16, 32, 8)
        with pytest.raises(ValueError, match="band limit 8 must be below the grid band limit 8"):
            solve_critical(conformal, ORIGIN, 0.05, grid=grid, band_limit=8)
        with pytest.raises(ValueError, match="must be below the grid band limit 8"):
            kernel_obstruction(conformal, ORIGIN, 0.05, grid=grid, band_limit=9)

    @pytest.mark.parametrize("r, kwargs", [
        (0.0, {}), (-0.05, {}), (0.05, {"tol": 0.0}), (0.05, {"tol": np.nan}),
        (0.05, {"band_limit": -1}), (0.05, {"band_limit": 20}),
        (0.05, {"band_limit": 2.5}), (0.05, {"max_iter": 2.5}),
    ], ids=["r-zero", "r-negative", "tol-zero", "tol-nan", "band_limit-negative",
            "band_limit-grid", "band_limit-float", "max_iter-float"])
    def test_rejects_bad_arguments_before_the_hessian(self, flat, grid, r, kwargs):
        # the flat Hessian is degenerate: the argument checks come first
        with pytest.raises(InvalidParams):
            solve_critical(flat, ORIGIN, r, grid=grid, **kwargs)

    def test_nonconvergence_raises(self, conformal_k, grid):
        with pytest.raises(NonConvergence):
            solve_critical(conformal_k, ORIGIN, 0.05, grid=grid, max_iter=1,
                           guess=(np.zeros(3), 5.0, HarmonicField.zero(8)))


class _LinearSystem:
    """Residual r(u) = u - 1 with a Jacobian of the given sign."""

    def __init__(self, sign):
        self.sign = sign
        self.norms = []

    def evaluate(self, u):
        r_vec = u - 1.0
        self.norms.append(np.linalg.norm(r_vec))
        return r_vec, self.norms[-1], None

    def jacobian(self, surf, free, jac=None):
        return self.sign * np.eye(free.size) if jac is None else jac


class TestNewton:
    def test_descent_converges(self):
        system = _LinearSystem(+1.0)
        u, r_vec, _, _, iterations = _newton(system, np.zeros(4), np.arange(4), 1e-12, 5)
        assert np.array_equal(u, np.ones(4)) and iterations == 2

    def test_ascent_is_never_accepted(self):
        # with the wrong sign every trial step, at every scale, raises the residual
        system = _LinearSystem(-1.0)
        with pytest.raises(NonConvergence) as info:
            _newton(system, np.zeros(4), np.arange(4), 1e-12, 25)
        start = system.norms[0]
        assert info.value.iterations == 1
        assert info.value.residual == start
        assert len(system.norms) == 6 and min(system.norms[1:]) > start

    def test_solve_evaluates_each_point_once(self, conformal, small_grid, monkeypatch):
        seen = []
        evaluate = _ReducedSystem.evaluate

        def recording(self, u):
            seen.append(u.tobytes())
            return evaluate(self, u)

        monkeypatch.setattr(_ReducedSystem, "evaluate", recording)
        sol = solve_critical(conformal, ORIGIN, 0.05, grid=small_grid)
        assert sol.converged and len(seen) <= 8
        assert len(set(seen)) == len(seen)

    def test_solved_leaf_is_built_at_the_center_of_its_tau(self, conformal, grid,
                                                           monkeypatch):
        # the solved tau is about 1e-10 here: the last surface the solver built
        # is centered at exp_p(tau), not at p
        centers = []
        transport = reduction.transported_center_frame

        def recording(ds, p, tau):
            center, frame = transport(ds, p, tau)
            centers.append(center)
            return center, frame

        monkeypatch.setattr(reduction, "transported_center_frame", recording)
        sol = solve_critical(conformal, ORIGIN, 0.05, grid=grid)
        assert np.linalg.norm(sol.tau) > 1e-12
        expected = ORIGIN + orthonormal_frame(conformal, ORIGIN) @ sol.tau
        assert np.abs(centers[-1] - expected).max() <= 1e-15

    def test_kernel_obstruction_builds_one_fan(self, small_grid, monkeypatch):
        fans = []
        ray_fan = reduction.RayFan

        def counting(*args, **kwargs):
            fans.append(args)
            return ray_fan(*args, **kwargs)

        monkeypatch.setattr(reduction, "RayFan", counting)
        kernel_obstruction(preset("conformal_quadratic", eps=0.05), [0.15, 0.0, 0.0],
                           0.03, grid=small_grid)
        assert len(fans) == 1

    @pytest.mark.parametrize("r, tol", [(0.05, -1.0), (0.0, 1e-7)],
                             ids=["tol-negative", "r-zero"])
    def test_kernel_obstruction_checks_arguments_before_any_fan(self, conformal, small_grid,
                                                                monkeypatch, r, tol):
        monkeypatch.setattr(reduction, "RayFan",
                            lambda *args, **kwargs: pytest.fail("fan built"))
        with pytest.raises(InvalidParams):
            kernel_obstruction(conformal, ORIGIN, r, grid=small_grid, tol=tol)


def _differenced_jacobian(system, u, columns, step_tau):
    """Forward-difference columns of the reduced Jacobian at u (test oracle)."""
    r_vec = system.evaluate(u)[0]
    jac = np.empty((u.size, len(columns)))
    for j, i in enumerate(columns):
        du = u.copy()
        du[i] += step_tau if i < 3 else 1e-6
        jac[:, j] = (system.evaluate(du)[0] - r_vec) / (du[i] - u[i])
    return jac


def _system_at_guess(ds, p, r, grid):
    system = _ReducedSystem(ds, p, r, grid, 8, concentration_scalar(ds, p)[2])
    lam0, phi0 = initial_guess(ds, p, grid=grid)
    u = system.pack(np.zeros(3), lam0, phi0)
    return system, u, system.evaluate(u)[2]


class TestLeadingOrderJacobian:
    """J0 against a differenced Jacobian built from `_ReducedSystem.evaluate`."""

    @pytest.mark.parametrize("k", [None, K_GENERIC], ids=["conformal", "conformal+k"])
    def test_contracts_against_differenced_jacobian(self, small_grid, k):
        r = 0.05
        ds = preset("conformal_quadratic", eps=0.01, k=k)
        system, u, surf = _system_at_guess(ds, ORIGIN, r, small_grid)
        free = np.arange(u.size)
        jac0 = system.jacobian(surf, free)
        jac_fd = _differenced_jacobian(system, u, free, 1e-6 * r)
        rho = np.abs(np.linalg.eigvals(np.eye(u.size) - np.linalg.solve(jac0, jac_fd))).max()
        assert rho < 0.1

    def test_tau_block_carries_the_frame(self, small_grid):
        # g(p) = 1.25 I: without the orthonormal frame the tau block is 25 % off
        ds = preset("conformal_quadratic", eps=1.0, k=K_GENERIC)
        p = np.array([0.4, 0.3, 0.0])
        r = 0.05
        system, u, surf = _system_at_guess(ds, p, r, small_grid)
        jac0 = system.jacobian(surf, np.arange(u.size))[:3, :3]
        jac_fd = _differenced_jacobian(system, u, [0, 1, 2], 1e-3 * r)[:3]
        assert np.linalg.norm(jac0 - jac_fd) < 0.05 * np.linalg.norm(jac_fd)

    def test_large_radius_converges(self, grid):
        # J0 alone, or secant updates without the exact lam column, fail here
        ds = preset("conformal_quadratic", eps=-0.25, k=K_GENERIC)
        sol = solve_critical(ds, ORIGIN, 1.0, grid=grid)
        assert sol.converged and sol.residual_norm < 1e-7


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


def _leaf(r):
    return CriticalSurfaceSolution(
        r=r, tau=np.zeros(3), lam=0.04, phi=HarmonicField.zero(8), residual_norm=0.0,
        residual_norm_full=0.0, newton_iterations=1, converged=True,
        energy=EnergyReport(*[0.0] * 6))


class TestFoliateRadii:
    """`foliate` records leaves at the requested radii only (no real solves)."""

    RADII = np.geomspace(0.02, 0.1, 5)

    def test_failed_radius_is_solved_after_a_substep(self, flat, grid, monkeypatch):
        calls = []

        def fake_solve(ds, p, r, guess=None, **kwargs):
            calls.append((r, guess.r if guess else None))
            if r == self.RADII[2] and len(calls) == 3:
                raise NonConvergence("fake failure", iterations=1, residual=1.0)
            return _leaf(r)

        monkeypatch.setattr(reduction, "solve_critical", fake_solve)
        trace = foliate(flat, ORIGIN, (0.02, 0.1), 5, grid=grid)
        assert np.array_equal(trace.r, self.RADII)
        mid = 0.5 * (self.RADII[1] + self.RADII[2])
        # the midpoint solve is the guess for the retry at the requested radius
        assert calls[2:5] == [(self.RADII[2], self.RADII[1]), (mid, self.RADII[1]),
                              (self.RADII[2], mid)]

    def test_two_failed_halvings_break(self, flat, grid, monkeypatch):
        failed = []

        def fake_solve(ds, p, r, guess=None, **kwargs):
            if r > self.RADII[1]:
                failed.append(r)
                raise NonConvergence("fake failure", iterations=1, residual=1.0)
            return _leaf(r)

        monkeypatch.setattr(reduction, "solve_critical", fake_solve)
        with pytest.raises(ContinuationBroken) as info:
            foliate(flat, ORIGIN, (0.02, 0.1), 5, grid=grid)
        assert np.array_equal(info.value.trace.r, self.RADII[:2])
        assert len(failed) == 3  # the requested radius and two halvings

    @pytest.mark.parametrize("center", [ORIGIN, np.array([0.0, 0.48, 0.64])],
                             ids=["origin", "off-center"])
    def test_no_solve_at_or_beyond_the_chart_radius(self, grid, monkeypatch, center):
        ds = preset("conformal_quadratic", eps=-0.25)  # chart radius 1.8
        radii = np.geomspace(0.5, 5.0, 4)
        solved = []

        def fake_solve(ds, p, r, guess=None, **kwargs):
            solved.append(r)
            return _leaf(r)

        monkeypatch.setattr(reduction, "solve_critical", fake_solve)
        with pytest.raises(ContinuationBroken) as info:
            foliate(ds, center, (0.5, 5.0), 4, grid=grid)
        inside = radii[np.linalg.norm(center) + radii < ds.chart_radius]
        assert solved == list(inside)
        assert np.array_equal(info.value.trace.r, inside)

    def test_first_radius_beyond_the_chart_radius(self, grid, monkeypatch):
        ds = preset("conformal_quadratic", eps=-0.25)
        monkeypatch.setattr(reduction, "solve_critical",
                            lambda *args, **kwargs: pytest.fail("solve attempted"))
        with pytest.raises(ContinuationBroken) as info:
            foliate(ds, ORIGIN, (2.0, 5.0), 3, grid=grid)
        assert info.value.trace is None

    @pytest.mark.parametrize("r_range, n_steps, band_limit", [
        ((0.1, 0.02), 5, 8), ((0.0, 0.1), 5, 8), ((0.02, 0.1), 0, 8), ((0.02, 0.1), 5, 20),
        ((0.02, 0.1), 2.5, 8),
    ], ids=["r_min-above-r_max", "r_min-zero", "n_steps-zero", "band_limit-grid",
            "n_steps-float"])
    def test_bad_arguments_raise_before_any_solve(self, flat, grid, monkeypatch, r_range,
                                                  n_steps, band_limit):
        monkeypatch.setattr(reduction, "solve_critical",
                            lambda *args, **kwargs: pytest.fail("solve attempted"))
        with pytest.raises(InvalidParams):
            foliate(flat, ORIGIN, r_range, n_steps, grid=grid, band_limit=band_limit)

    def test_invalid_params_is_not_a_failed_solve(self, flat, grid):
        # with a leaf solved, a failed solve would be retried at halved steps
        # and end in ContinuationBroken; a bad tol is reported as it is
        with pytest.raises(InvalidParams, match="tol"):
            foliate(flat, ORIGIN, (0.02, 0.1), 5, grid=grid, tol=-1.0,
                    warm_start=[_leaf(self.RADII[0])])

    def test_solver_count_error_is_not_a_failed_solve(self, flat, grid):
        # max_iter is checked by each solve, not up front: the retry loop re-raises
        with pytest.raises(InvalidParams, match="max_iter"):
            foliate(flat, ORIGIN, (0.02, 0.1), 5, grid=grid, max_iter=2.5,
                    warm_start=[_leaf(self.RADII[0])])

    @pytest.mark.parametrize("shift", [0.0, 1e-13, -1e-13])
    def test_resume_is_keyed_by_radius(self, flat, grid, monkeypatch, shift):
        monkeypatch.setattr(reduction, "solve_critical",
                            lambda ds, p, r, **kwargs: _leaf(r))
        resumed = _leaf(self.RADII[1] * (1 + shift))
        trace = foliate(flat, ORIGIN, (0.02, 0.1), 5, grid=grid, warm_start=[resumed])
        assert np.all(np.diff(trace.r) > 0)
        assert trace.r[0] == resumed.r
        assert np.array_equal(trace.r[1:], self.RADII[2:])


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
