"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report including measured errors and runtimes.
"""

import time
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from hawkfol import (HarmonicField, SpacetimeCurvatureAtPoint, analyze,
                     comparison_report, concentration_scalar, curvature_at,
                     el_residual, foliate, geodesic_sphere, graph_surface,
                     hawking_energy, initial_guess, kernel_obstruction,
                     lightcut_area_quartic_identity, moment_integral,
                     moment_value, preset, rescaled_phi, solve_critical,
                     willmore)
from hawkfol.grid import coeff_index

ORIGIN = np.zeros(3)
K_GENERIC = np.array([[0.3, 0.1, 0.0], [0.1, -0.2, 0.05], [0.0, 0.05, 0.4]])


def report(number, title, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:2d} [{status}] {title}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def _double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def test_criterion_01_moment_suite(grid):
    t0 = time.time()
    exact_ok = True
    quad_ok = True
    worst = 0.0
    for degree in range(7):
        for combo in combinations_with_replacement(range(3), degree):
            got = moment_integral(combo)
            exps = [combo.count(a) for a in range(3)]
            if any(e % 2 for e in exps):
                expected = Fraction(0)
            else:
                num = (_double_factorial(exps[0] - 1) * _double_factorial(exps[1] - 1)
                       * _double_factorial(exps[2] - 1))
                expected = Fraction(4 * num, _double_factorial(degree + 1))
            exact_ok &= (got == expected)
            mono = (np.prod(grid.nodes[:, combo], axis=1) if degree
                    else np.ones(grid.n_nodes))
            err = abs(float(np.sum(grid.weights * mono)) - moment_value(combo))
            worst = max(worst, err)
            quad_ok &= err < 1e-12
    report(1, "moment integrals (exact rational + quadrature 1e-12)",
           exact_ok and quad_ok,
           f"exact={exact_ok}, worst quadrature err {worst:.2e}, "
           f"{time.time() - t0:.2f}s")


def test_criterion_02_willmore_baseline(flat, grid):
    t0 = time.time()
    worst = 0.0
    for r in (0.1, 1.0, 10.0):
        surf = geodesic_sphere(flat, ORIGIN, ORIGIN, r, grid)
        worst = max(worst, abs(willmore(surf) - 4 * np.pi))
    report(2, "flat Willmore baseline 4 pi to 1e-10", worst < 1e-10,
           f"worst |W - 4 pi| = {worst:.2e}, {time.time() - t0:.2f}s")


def test_criterion_03_geodesic_mean_curvature_fit(conformal, grid):
    t0 = time.time()
    ric = curvature_at(conformal, ORIGIN).ricci
    radii = np.array([0.02, 0.04, 0.06, 0.08, 0.1])
    rng = np.random.default_rng(11)
    dirs = rng.normal(size=(20, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    nodes = [int(np.argmax(grid.nodes @ d)) for d in dirs]
    h = np.array([geodesic_sphere(conformal, ORIGIN, ORIGIN, r, grid).mean_curvature[nodes]
                  for r in radii])
    basis = np.vstack([radii, radii ** 3]).T
    worst = 0.0
    for j, n in enumerate(nodes):
        coef = np.linalg.lstsq(basis, h[:, j] - 2.0 / radii, rcond=None)[0][0]
        x = grid.nodes[n]
        target = -(1.0 / 3.0) * x @ ric @ x
        worst = max(worst, abs(coef - target) / abs(target))
    report(3, "H linear-in-r coefficient = -(1/3) Ric(x,x) within 1%",
           worst < 0.01, f"worst direction rel err {worst:.2e}, "
           f"{time.time() - t0:.1f}s")


def test_criterion_04_kernel_projection_closed_forms(grid):
    t0 = time.time()
    radii = np.array([0.02, 0.03, 0.045])
    basis = np.vstack([np.ones(3), radii ** 2]).T

    presets = [
        ("constant_k", preset("constant_k", k=K_GENERIC), 0.1),
        ("conformal", preset("conformal_quadratic", eps=0.01), 0.07),
        ("conformal+k", preset("conformal_quadratic", eps=0.01, k=K_GENERIC), -0.05),
    ]
    worst0 = 0.0
    for name, ds, lam in presets:
        c = curvature_at(ds, ORIGIN)
        target = 8 * np.pi * (lam + c.scalar / 3 + c.tr_k ** 2 / 5 + c.norm_k_sq / 15)
        vals = [rescaled_phi(ds, ORIGIN, ORIGIN, r, None, lam, grid,
                             n_steps=16).proj_k0 / r ** 2 for r in radii]
        fit = np.linalg.lstsq(basis, np.array(vals), rcond=None)[0][0]
        worst0 = max(worst0, abs(fit - target) / abs(target))
    ok0 = worst0 < 0.005

    k1 = np.zeros((3, 3, 3))
    k1[0] = np.array([[0.5, 0.2, 0.0], [0.2, -0.3, 0.1], [0.0, 0.1, 0.2]])
    k1[1] = 0.3 * np.eye(3)
    ds_grad = preset("polynomial", k_constant=np.diag([0.2, 0.1, -0.1]), k_linear=k1)
    _, grad_f, _ = concentration_scalar(ds_grad, ORIGIN)
    target1 = (4 * np.pi / 3) * grad_f
    vals = np.array([rescaled_phi(ds_grad, ORIGIN, ORIGIN, r, None, 0.0, grid,
                                  n_steps=16).proj_k1 / r ** 3 for r in radii])
    fit1 = np.linalg.lstsq(basis, vals, rcond=None)[0][0]
    err1 = np.linalg.norm(fit1 - target1) / np.linalg.norm(target1)
    ok1 = err1 < 0.02
    report(4, "kernel projections: pi0 within 0.5% (3 presets), pi1 within 2%",
           ok0 and ok1,
           f"pi0 worst rel {worst0:.2e}, pi1 rel {err1:.2e}, {time.time() - t0:.1f}s")


def test_criterion_05_rescaling_identity(grid):
    t0 = time.time()
    ds = preset("conformal_quadratic", eps=0.01, k=K_GENERIC)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        r = rng.uniform(0.02, 0.1)
        lam = rng.uniform(-1.0, 1.0)
        tau = rng.normal(size=3) * 0.01
        coeffs = np.zeros(81)
        for l in range(2, 9):
            coeffs[l * l:(l + 1) * (l + 1)] = (rng.normal(size=2 * l + 1)
                                               * 0.02 / (1 + l) ** 3)
        phi = HarmonicField(coeffs, 8)
        resc = rescaled_phi(ds, ORIGIN, tau, r, phi, lam, grid, n_steps=12)
        surf = graph_surface(ds, ORIGIN, tau, r, phi, grid, n_steps=64)
        phys = el_residual(ds, surf, lam)
        diff = np.sqrt(np.sum(grid.weights * (resc.values - r ** 3 * phys.values) ** 2))
        worst = max(worst, diff / resc.l2_norm)
    report(5, "rescaling identity |Phi - r^3 Phi~| / |Phi| < 1e-9 on 10 surfaces",
           worst < 1e-9, f"worst rel {worst:.2e}, {time.time() - t0:.1f}s")


def test_criterion_06_linearization_spectrum(conformal, grid):
    t0 = time.time()
    t = 1e-4
    worst = 0.0
    for l in range(2, 7):
        for m in range(-l, l + 1):
            mu = l * (l + 1) * (l * (l + 1) - 2)
            up = rescaled_phi(conformal, ORIGIN, ORIGIN, 0.0,
                              HarmonicField.from_coeff_dict(8, {(l, m): t}),
                              0.0, grid)
            down = rescaled_phi(conformal, ORIGIN, ORIGIN, 0.0,
                                HarmonicField.from_coeff_dict(8, {(l, m): -t}),
                                0.0, grid)
            quot = analyze(grid, (up.values - down.values) / (2 * t), check=False)
            got = quot.coeffs[coeff_index(l, m)]
            # operator sign is pinned by the criterion-4 closed forms: the
            # Euclidean linearization acts as -l(l+1)(l(l+1)-2) on degree l
            worst = max(worst, abs(got - (-mu)) / mu)
    report(6, "Euclidean linearization recovers l(l+1)(l(l+1)-2) spectrally "
              "(sign per kernel-constant convention, see ledger)",
           worst < 1e-3, f"worst rel err {worst:.2e} over l<=6, "
           f"{time.time() - t0:.1f}s")


def test_criterion_07_solver_fixed_point(conformal, grid):
    t0 = time.time()
    trace = foliate(conformal, ORIGIN, (0.02, 0.1), 5, grid=grid)
    lam_ok = abs(trace.lambda0_extrapolated - 0.04) < 0.01 * 0.04
    lapse_ok = bool(np.all(trace.lapse_min > 0.9))
    converged = all(s.converged for s in trace.solutions)

    ds_k = preset("conformal_quadratic", eps=0.01, k=K_GENERIC)
    lam0, phi0 = initial_guess(ds_k, ORIGIN, grid=grid)
    sol = solve_critical(ds_k, ORIGIN, 0.02, grid=grid)
    scale = np.abs(phi0.coeffs).max()
    big = np.abs(phi0.coeffs) > 0.05 * scale
    coeff_err = np.abs(sol.phi.coeffs[big] - phi0.coeffs[big]) / np.abs(phi0.coeffs[big])
    phi_ok = coeff_err.max() < 0.05
    report(7, "solver: convergence on [0.02, 0.1], lambda -> 4 eps (1%), "
              "phi -> phi0 (5% coefficientwise), lapse > 0.9",
           converged and lam_ok and lapse_ok and phi_ok,
           f"lambda0 rel err {abs(trace.lambda0_extrapolated - 0.04) / 0.04:.2e}, "
           f"min lapse {trace.lapse_min.min():.4f}, "
           f"phi coeff worst rel {coeff_err.max():.2e}, {time.time() - t0:.0f}s")


def test_criterion_08_nonexistence_gate(grid):
    t0 = time.time()
    ds = preset("conformal_quadratic", eps=0.05)
    p = [0.15, 0.0, 0.0]
    _, grad_f, _ = concentration_scalar(ds, p)
    target = (4 * np.pi / 3) * np.linalg.norm(grad_f)
    radii = np.array([0.02, 0.03, 0.045])
    obs = np.array([np.linalg.norm(kernel_obstruction(ds, p, r, grid=grid))
                    for r in radii])
    fit = np.linalg.lstsq(np.vstack([np.ones(3), radii ** 2]).T, obs,
                          rcond=None)[0][0]
    rel = abs(fit - target) / target
    report(8, "nonexistence gate: |pi1 Phi| / r^3 -> (4 pi / 3) |grad f| within 2%",
           rel < 0.02 and target > 1e-3,
           f"fitted {fit:.6e} vs {target:.6e}, rel {rel:.2e}, {time.time() - t0:.0f}s")


def test_criterion_09_small_sphere_energy(grid):
    t0 = time.time()
    presets = [
        ("conformal", preset("conformal_quadratic", eps=0.01)),
        ("constant_k", preset("constant_k", k=np.diag([1.0, 0.0, 0.0]))),
        ("conformal+k", preset("conformal_quadratic", eps=0.01, k=K_GENERIC)),
    ]
    radii = np.array([0.03, 0.05, 0.07, 0.09])
    basis = np.vstack([np.ones(4), radii ** 2]).T
    worst = 0.0
    details = []
    for name, ds in presets:
        value, _, _ = concentration_scalar(ds, ORIGIN)
        target = value / 12.0
        ratios = np.array([
            hawking_energy(geodesic_sphere(ds, ORIGIN, ORIGIN, r, grid)).hawking_energy
            / r ** 3 for r in radii])
        fit = np.linalg.lstsq(basis, ratios, rcond=None)[0][0]
        rel = abs(fit - target) / abs(target)
        worst = max(worst, rel)
        details.append(f"{name} {rel:.1e}")
    # with k = 0 the coefficient is the classic Sc/12
    sc = curvature_at(presets[0][1], ORIGIN).scalar
    k0_consistent = abs(concentration_scalar(presets[0][1], ORIGIN)[0] - sc) < 1e-13
    report(9, "E(S_r)/r^3 -> (Sc + 3/5 (tr k)^2 + 1/5 |k|^2)/12 within 2%",
           worst < 0.02 and k0_consistent,
           f"rel errs: {', '.join(details)}, {time.time() - t0:.0f}s")


def test_criterion_10_lightcut_consistency():
    t0 = time.time()
    identity = lightcut_area_quartic_identity()
    exact_ok = identity["identical"]

    stc = SpacetimeCurvatureAtPoint.from_components(k=np.diag([1.0, 0.0, 0.0]))
    rep = comparison_report(stc, [0.02, 0.04, 0.06, 0.08])
    k0sq = stc.traceless_k_norm_sq
    fit = rep.excess_coefficient_fit
    derived_rel = abs(fit - rep.excess_candidate_derived) / k0sq
    paper_rel = abs(fit - rep.excess_candidate_quoted) / k0sq
    # the discrepancy between the quoted (6/5)|k0|^2 and the derived
    # (1/10)|k0|^2 is documented; the fit is reported against both
    report(10, "light-cut area coefficient exact; excess fitted against both "
               "candidate coefficients",
           exact_ok and derived_rel < 1e-6,
           f"exact identity {exact_ok}; fit {fit:.8f}, "
           f"(1/10)|k0|^2 -> rel {derived_rel:.1e}, "
           f"(6/5)|k0|^2 -> rel {paper_rel:.2f} (documented discrepancy), "
           f"{time.time() - t0:.1f}s")
