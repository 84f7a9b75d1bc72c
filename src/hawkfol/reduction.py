"""Numerical Lyapunov-Schmidt reduction for critical spheres.

Solves, at fixed radius r, the projected system

    pi1( Phi~ ) = 0   (3 equations, matched by the center offset tau)
    pi0( Phi~ ) = 0   (1 equation, matched by the Lagrange parameter lam)
    Pperp coefficients of Phi~ up to the solver band limit = 0
                      (matched by the graph coefficients phi in Kperp)

where Phi~ is the physical Euler-Lagrange residual of the surface
exp_{c(tau)}(r x (1 + r^2 phi)).  Pointwise Phi = r^3 Phi~, so zeros of this
system are zeros of the rescaled operator; the solver works with the
physical normalization because it is the better-conditioned one numerically.

The kernel constraint is enforced by construction: phi simply has no
degree-0/1 coefficients, so it never enters the Newton system.

Newton evaluates each point once: `_ReducedSystem.evaluate` returns the
projected residual, the full-field norm and the surface, and the Jacobian and
the energy reuse that surface.  No Jacobian column is differenced: Newton
starts from the leading-order Jacobian J0 of the reduction and takes a
good-Broyden update after each accepted step, with the lam column kept exact
(the residual is linear in lam with slope H).  Backtracking accepts only
descent steps: a step that does not lower the projected residual at any
scale down to 1/16 raises NonConvergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .background import InitialDataSet, ambient_fields, concentration_scalar
from .el_operator import ResidualField, el_residual
from .errors import (ContinuationBroken, DegenerateHessian, HawkfolError, InvalidParams,
                     NonConvergence, as_count, as_point)
from .functionals import EnergyReport, hawking_energy
from .geodesic import RayFan, orthonormal_frame, transported_center_frame
from .grid import SphereGrid, default_grid
from .harmonics import (HarmonicField, analyze, biharmonic_eigenvalues,
                        biharmonic_solve, project_Kperp)
from .surface import graph_surface


@dataclass
class CriticalSurfaceSolution:
    """A solved critical sphere (r, tau, lambda, phi) with diagnostics.

    `phi` is the r^2-normalized graph coefficient field (the full radial
    factor of the surface is 1 + r^2 phi); its degree-0/1 coefficients vanish
    identically.
    """

    r: float
    tau: np.ndarray
    lam: float
    phi: HarmonicField
    residual_norm: float          # projected L2 norm of Phi~ (solved block)
    residual_norm_full: float     # full-field L2 norm of Phi~
    newton_iterations: int
    converged: bool
    energy: EnergyReport

    def to_dict(self) -> dict:
        return {
            "r": self.r, "tau": list(self.tau), "lambda": self.lam,
            "phi_coeffs": list(self.phi.coeffs), "phi_band_limit": self.phi.band_limit,
            "residual_norm": self.residual_norm,
            "residual_norm_full": self.residual_norm_full,
            "newton_iterations": self.newton_iterations, "converged": self.converged,
            "energy": self.energy.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CriticalSurfaceSolution":
        return cls(r=d["r"], tau=np.asarray(d["tau"]), lam=d["lambda"],
                   phi=HarmonicField(np.asarray(d["phi_coeffs"]), d["phi_band_limit"]),
                   residual_norm=d["residual_norm"],
                   residual_norm_full=d["residual_norm_full"],
                   newton_iterations=d["newton_iterations"], converged=d["converged"],
                   energy=EnergyReport.from_dict(d["energy"]))


@dataclass
class FoliationTrace:
    """Ordered leaves of a solved foliation with lapse diagnostics."""

    solutions: list
    r: np.ndarray
    tau: np.ndarray                  # (n, 3)
    lam: np.ndarray
    dtau_dr: np.ndarray              # (n, 3) centered differences
    lapse_min: np.ndarray
    foliation_valid: bool
    lambda0_extrapolated: float
    dtau_dr_at_zero: np.ndarray
    hawking_functional: np.ndarray
    hawking_energy: np.ndarray
    area: np.ndarray

    def to_dict(self) -> dict:
        return {
            "r": list(self.r), "tau": [list(t) for t in self.tau],
            "lambda": list(self.lam), "dtau_dr": [list(t) for t in self.dtau_dr],
            "lapse_min": list(self.lapse_min), "foliation_valid": self.foliation_valid,
            "lambda0_extrapolated": self.lambda0_extrapolated,
            "dtau_dr_at_zero": list(self.dtau_dr_at_zero),
            "hawking_functional": list(self.hawking_functional),
            "hawking_energy": list(self.hawking_energy),
            "area": list(self.area),
            "solutions": [s.to_dict() for s in self.solutions],
        }


@dataclass
class NonexistenceReport:
    grad_f: np.ndarray
    grad_norm: float
    excluded: bool
    hessian_eigenvalues: Optional[np.ndarray]
    verdict: str


# ----------------------------------------------------------------------
# initial guess from the closed-form r -> 0 limit
# ----------------------------------------------------------------------

def initial_guess(ds: InitialDataSet, p, band_limit: int = 8,
                  grid: Optional[SphereGrid] = None):
    """(lambda0, phi0) of the r -> 0 limit of the reduction.

    lambda0 = -Sc/3 - |k|^2/15 - (tr k)^2/5 at p, and phi0 solves

        L phi0 = Pperp( (4 Ric_ij + 6 tr k k_ij + 4 k_si k_sj) x^i x^j
                        - 9 (k_ij x^i x^j)^2 )

    with L = l(l+1)(l(l+1) - 2) spectrally, all curvature at p.  The
    right-hand side is the Kperp content of the r^2 coefficient of the
    residual on geodesic spheres, so the fixed point of the reduction is
    phi(r) -> phi0 as r -> 0 (verified against solved surfaces; note the
    sign relative to the operator convention, which is pinned by the
    kernel-projection constants 8 pi (lambda + Sc/3 + ...)).
    """
    grid = grid or default_grid()
    band_limit = as_count(band_limit, "band_limit", 0)
    amb = ambient_fields(ds, as_point(p, "p"))
    lam0 = float(-amb.scalar / 3.0 - amb.k_norm_sq / 15.0 - amb.k_trace ** 2 / 5.0)

    x = grid.nodes
    kmat = amb.k
    kxx = np.einsum("ij,ni,nj->n", kmat, x, x)
    quad = 4.0 * amb.ricci + 6.0 * amb.k_trace * kmat + 4.0 * (kmat @ kmat)
    rhs_vals = np.einsum("ij,ni,nj->n", quad, x, x) - 9.0 * kxx * kxx
    rhs = project_Kperp(analyze(grid, rhs_vals).restricted(band_limit))
    phi0 = biharmonic_solve(rhs)
    return lam0, phi0


def _hessian_spectrum(hess):
    """(eigenvalues, condition number, degenerate) of the symmetrized
    concentration-scalar Hessian; degenerate means singular or condition
    number above 1e8."""
    eigs = np.linalg.eigvalsh(hess)
    mags = np.abs(eigs)
    cond = float(mags.max() / mags.min()) if mags.min() > 0 else np.inf
    return eigs, cond, cond > 1e8


# ----------------------------------------------------------------------
# the projected Newton system
# ----------------------------------------------------------------------

def _check_solve(r: float, tol: float, band_limit: int, grid: SphereGrid) -> None:
    """A finite r > 0, tol > 0 and a band limit the grid resolves: the surfaces
    r x (1 + r^2 phi) have degree band_limit + 1."""
    if not (np.isfinite(r) and r > 0 and tol > 0):
        raise InvalidParams(f"need a finite r > 0 and tol > 0, got r = {r}, tol = {tol}")
    if as_count(band_limit, "solver band limit", 0) >= grid.band_limit:
        raise InvalidParams(f"solver band limit {band_limit} must be below the grid band "
                            f"limit {grid.band_limit}")


class _ReducedSystem:
    """Projected residual and Jacobian of the reduced equations."""

    def __init__(self, ds, p, r, grid, band_limit, hess=None):
        self.ds = ds
        self.p = as_point(p, "p")
        self.r = float(r)
        self.grid = grid
        self.band_limit = band_limit
        self.n_coeffs = (band_limit + 1) ** 2
        self.hess = hess
        # (tau, RayFan) of the last evaluation, keyed on tau exactly: with no
        # differenced columns, a center repeats only on consecutive evaluations
        self._fan = (None, None)

    def pack(self, tau, lam, phi: HarmonicField) -> np.ndarray:
        """The Newton unknown u = (tau, lam, phi coefficients of degree >= 2)."""
        return np.concatenate([as_point(tau, "tau"), [float(lam)],
                               phi.restricted(self.band_limit).coeffs[4:]])

    def unpack(self, u):
        return u[:3], u[3], HarmonicField(np.concatenate([np.zeros(4), u[4:]]),
                                          self.band_limit)

    def evaluate(self, u):
        """(projected residual, full-field L2 norm, surface) at u: the one
        place the solver builds a surface and its residual."""
        tau, lam, phi = self.unpack(u)
        key = tuple(tau)
        if self._fan[0] != key:
            center, frame = transported_center_frame(self.ds, self.p, tau)
            self._fan = (key, RayFan(self.ds, center, frame, self.grid.nodes, s_max=1.3 * self.r))
        full_phi = HarmonicField(self.r ** 2 * phi.coeffs, self.band_limit)
        surf = graph_surface(self.ds, self.p, tau, self.r, full_phi, self.grid,
                             fan=self._fan[1], check_band=False)
        return (*self.project(el_residual(self.ds, surf, lam)), surf)

    def project(self, res):
        f = analyze(self.grid, res.values, check=False)
        return (np.concatenate([res.proj_k1, [res.proj_k0], f.coeffs[4:self.n_coeffs]]),
                float(np.linalg.norm(f.coeffs)))

    def jacobian(self, surf, free, jac=None):
        """Free x free block of J0, or of `jac` when given, with the lam column
        made exact at surf.  J0: tau-tau (4 pi / 3) Hess f (`hess`, needed when
        tau is free) in the orthonormal frame at p, phi-phi -l(l+1)(l(l+1) - 2) / r,
        no coupling."""
        if jac is None:
            # the biharmonic eigenvalues vanish on degrees 0 and 1
            full = np.diag(-biharmonic_eigenvalues(self.band_limit) / self.r)
            if np.any(free < 3):
                frame = orthonormal_frame(self.ds, self.p)
                full[:3, :3] = (4.0 * np.pi / 3.0) * frame.T @ self.hess @ frame
            jac = full[np.ix_(free, free)]
        h = ResidualField.from_values(self.grid, surf.mean_curvature, 0.0)
        jac[:, free == 3] = self.project(h)[0][free, None]
        return jac


def _newton(system: _ReducedSystem, u, free, tol: float, max_iter: int):
    """Newton on the `free` entries of u, descent steps only; returns (u, r_vec,
    full_norm, surface, iterations) of the accepted point, or raises NonConvergence.
    The Jacobian starts at J0 and takes the good-Broyden update J + (y - J s) s^T
    / s^T s after each accepted step s (Broyden, Math. Comp. 19, 1965)."""
    r_vec, full_norm, surf = system.evaluate(u)
    norm = np.linalg.norm(r_vec[free])
    jac = system.jacobian(surf, free)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if norm < tol:
            break
        try:
            step = np.linalg.solve(jac, -r_vec[free])
        except np.linalg.LinAlgError:
            raise NonConvergence("singular reduced Jacobian", iterations=iterations,
                                 residual=float(norm))
        for scale in 0.5 ** np.arange(5):
            u_try = u.copy()
            u_try[free] += scale * step
            try:
                r_try, full_try, surf_try = system.evaluate(u_try)
            except HawkfolError:
                continue
            norm_try = np.linalg.norm(r_try[free])
            if norm_try < norm:
                s, y = scale * step, r_try[free] - r_vec[free]
                jac = system.jacobian(surf_try, free,
                                      jac + np.outer(y - jac @ s, s / (s @ s)))
                u, r_vec, full_norm, surf, norm = u_try, r_try, full_try, surf_try, norm_try
                break
        else:
            raise NonConvergence(
                f"no descent step from projected residual {norm:.3e} at "
                f"iteration {iterations}", iterations=iterations, residual=float(norm))

    if not norm < tol:
        raise NonConvergence(
            f"projected residual {norm:.3e} after {iterations} iterations "
            f"(tol {tol:.1e})", iterations=iterations, residual=float(norm))
    return u, r_vec, full_norm, surf, iterations


def solve_critical(ds: InitialDataSet, p, r: float, guess=None,
                   grid: Optional[SphereGrid] = None, band_limit: int = 8,
                   tol: float = 1e-7, max_iter: int = 25) -> CriticalSurfaceSolution:
    """Newton solve of the reduced system at one radius.

    Parameters
    ----------
    guess : None, (tau, lam, phi) triple, or CriticalSurfaceSolution
        Starting point; defaults to the closed-form r -> 0 guess at p.
    tol : float
        Convergence threshold on the projected L2 norm of Phi~ (the rescaled
        residual Phi then satisfies |Phi| < tol * r^3).

    Raises InvalidParams when r or tol is not positive, `band_limit` is not an
    integer in [0, grid.band_limit) or `max_iter` not an integer >= 0,
    DegenerateHessian when the concentration-scalar Hessian at p is singular
    or ill-conditioned, and NonConvergence when Newton fails.
    """
    grid = grid or default_grid()
    _check_solve(r, tol, band_limit, grid)
    max_iter = as_count(max_iter, "max_iter", 0)
    system = _ReducedSystem(ds, p, r, grid, band_limit)
    if isinstance(guess, CriticalSurfaceSolution):
        guess = (guess.tau, guess.lam, guess.phi)
    u = None if guess is None else system.pack(*guess)   # checks tau before any numerical work
    _, _, system.hess = concentration_scalar(ds, system.p)
    _, cond, degenerate = _hessian_spectrum(system.hess)
    if degenerate:
        raise DegenerateHessian(
            f"concentration-scalar Hessian condition {cond:.2e} "
            "exceeds 1e8; no isolated critical point to center on")
    if u is None:
        u = system.pack(np.zeros(3), *initial_guess(ds, p, band_limit=band_limit, grid=grid))
    u, r_vec, full_norm, surf, iterations = _newton(system, u, np.arange(u.size), tol,
                                                    max_iter)
    tau, lam, phi = system.unpack(u)
    return CriticalSurfaceSolution(
        r=r, tau=tau.copy(), lam=lam, phi=phi,
        residual_norm=float(np.linalg.norm(r_vec)),
        residual_norm_full=full_norm, newton_iterations=iterations,
        converged=True, energy=hawking_energy(surf))


def kernel_obstruction(ds: InitialDataSet, p, r: float, grid=None,
                       band_limit: int = 8, tol: float = 1e-7):
    """pi1(Phi~) after solving the solvable (lam, phi) block with tau = 0.

    Equals pi1(Phi)/r^3; its r -> 0 limit is (4 pi / 3) grad f(p), the
    quantitative obstruction to concentrations of critical spheres.
    """
    grid = grid or default_grid()
    _check_solve(r, tol, band_limit, grid)
    system = _ReducedSystem(ds, p, r, grid, band_limit)
    lam0, phi0 = initial_guess(ds, p, band_limit=band_limit, grid=grid)
    u = system.pack(np.zeros(3), lam0, phi0)
    r_vec = _newton(system, u, np.arange(3, u.size), tol, max_iter=25)[1]
    return r_vec[:3]


def nonexistence_check(ds: InitialDataSet, p, tol: float = 1e-8) -> NonexistenceReport:
    """Concentration verdict at p from the concentration scalar's gradient."""
    _, grad, hess = concentration_scalar(ds, p)
    norm = float(np.linalg.norm(grad))
    if norm > tol:
        return NonexistenceReport(grad_f=grad, grad_norm=norm, excluded=True,
                                  hessian_eigenvalues=None,
                                  verdict="gradient nonzero: no concentration of "
                                          "critical spheres at this point")
    eigs, _, degenerate = _hessian_spectrum(hess)
    verdict = ("critical point with degenerate Hessian: reduction inconclusive"
               if degenerate else
               "critical point with nondegenerate Hessian: foliation candidate")
    return NonexistenceReport(grad_f=grad, grad_norm=norm, excluded=False,
                              hessian_eigenvalues=eigs, verdict=verdict)


# ----------------------------------------------------------------------
# continuation in r
# ----------------------------------------------------------------------

def foliate(ds: InitialDataSet, p, r_range, n_steps: int,
            grid: Optional[SphereGrid] = None, band_limit: int = 8,
            tol: float = 1e-7, max_iter: int = 25,
            warm_start: Optional[list] = None) -> FoliationTrace:
    """Trace the foliation over a geometric radius grid by continuation.

    Marches from r_min upward with the previous solution as warm start, and
    records a leaf only at a requested radius.  When a solve fails, the step
    is halved: a solve at the midpoint between the last solution and the
    target becomes the guess for a new try at the requested radius.  After
    two halvings it aborts with ContinuationBroken (carrying the partial
    trace).  `warm_start` resumes a previous run: its solutions seed the
    trace, and every requested radius below, or within 1e-12 relative of,
    its last leaf counts as solved.  A requested radius whose sphere reaches
    the chart (|p| + r >= chart radius) is never solved: it raises
    ContinuationBroken with the leaves solved below it.  An r_range, n_steps,
    band_limit or tol out of range raises InvalidParams before the first solve.
    """
    grid = grid or default_grid()
    r_min, r_max = float(r_range[0]), float(r_range[1])
    if not 0 < r_min < r_max:
        raise InvalidParams(f"need 0 < r_min < r_max, got r_range = ({r_min}, {r_max})")
    _check_solve(r_min, tol, band_limit, grid)
    radii = list(np.geomspace(r_min, r_max, as_count(n_steps, "n_steps")))
    reach = float(np.linalg.norm(p))

    solutions = []
    guess = None
    if warm_start:
        solutions = list(warm_start)
        guess = solutions[-1]
        radii = [r for r in radii if r > solutions[-1].r * (1 + 1e-12)]
    for r in radii:
        if reach + r >= ds.chart_radius:
            raise ContinuationBroken(
                f"radius {r:.4g} at |p| = {reach:.4g} reaches the chart radius "
                f"{ds.chart_radius:.4g}",
                trace=_trace_from(solutions, grid) if solutions else None)
        attempt_r, halvings = r, 0
        while True:
            try:
                sol = solve_critical(ds, p, attempt_r, guess=guess, grid=grid,
                                     band_limit=band_limit, tol=tol, max_iter=max_iter)
            except InvalidParams:   # a bad argument, not a failed solve
                raise
            except HawkfolError:
                if not solutions:
                    raise
                if halvings == 2:
                    raise ContinuationBroken(f"continuation stalled near r = {r:.4g}",
                                             trace=_trace_from(solutions, grid))
                halvings += 1
                attempt_r = 0.5 * (attempt_r + guess.r)
                continue
            guess = sol
            if attempt_r == r:
                break
            attempt_r = r
        solutions.append(sol)
    return _trace_from(solutions, grid)


def _trace_from(solutions, grid) -> FoliationTrace:
    if not solutions:
        raise ContinuationBroken("no solved leaves", trace=None)
    r = np.array([s.r for s in solutions])
    tau = np.array([s.tau for s in solutions])
    lam = np.array([s.lam for s in solutions])
    dtau = np.gradient(tau, r, axis=0) if len(solutions) > 1 else np.zeros_like(tau)
    lapse_min = np.array([(1.0 + grid.nodes @ d).min() for d in dtau])

    # Richardson extrapolation of lambda(r) = lam0 + b r^2 (+ c r^4)
    if r.size >= 3:
        A = np.vstack([np.ones_like(r), r ** 2, r ** 4]).T
        lam0 = float(np.linalg.lstsq(A, lam, rcond=None)[0][0])
    elif r.size == 2:
        lam0 = float(lam[0] - r[0] ** 2 * (lam[1] - lam[0]) / (r[1] ** 2 - r[0] ** 2))
    else:
        lam0 = float(lam[0])
    dtau0 = dtau[0] - r[0] * (dtau[1] - dtau[0]) / (r[1] - r[0]) if r.size > 1 else dtau[0]

    hf = np.array([s.energy.hawking_functional_value for s in solutions])
    he = np.array([s.energy.hawking_energy for s in solutions])
    area = np.array([s.energy.area for s in solutions])

    return FoliationTrace(
        solutions=solutions, r=r, tau=tau, lam=lam, dtau_dr=dtau,
        lapse_min=lapse_min, foliation_valid=bool(np.all(lapse_min > 0)),
        lambda0_extrapolated=lam0, dtau_dr_at_zero=dtau0,
        hawking_functional=hf, hawking_energy=he, area=area)
