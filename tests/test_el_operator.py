"""The area-constrained Euler-Lagrange residual in both normalizations."""

import numpy as np
import pytest

from hawkfol import (HarmonicField, analyze, curvature_at, default_grid, el_residual,
                     geodesic_sphere, graph_surface, laplace_beltrami, preset,
                     rescaled_phi, synthesize, w_split)
from hawkfol.el_operator import _laplacian, _residual_terms
from hawkfol.grid import coeff_index
from hawkfol.surface import geometry_from_embedding, spectral_embedding_derivatives

ORIGIN = np.zeros(3)
K_GENERIC = np.array([[0.3, 0.1, 0.0], [0.1, -0.2, 0.05], [0.0, 0.05, 0.4]])


def smooth_phi(rng, band_limit=8, amp=0.02):
    coeffs = np.zeros((band_limit + 1) ** 2)
    for l in range(2, band_limit + 1):
        coeffs[l * l:(l + 1) * (l + 1)] = rng.normal(size=2 * l + 1) * amp / (1 + l) ** 3
    return HarmonicField(coeffs, band_limit)


_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k, _s in ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                       (0, 2, 1, -1), (2, 1, 0, -1), (1, 0, 2, -1)):
    _EPS3[_i, _j, _k] = _s


def reference_geometry(d1, d2, amb):
    """Normal, second form, surface connection and P contraction by
    contraction, with the normal from the epsilon tensor."""
    g = amb.metric
    gsig = np.einsum("nij,nai,nbj->nab", g, d1, d1)
    ginv = np.linalg.inv(gsig)
    n_cov = np.einsum("ijk,nj,nk->ni", _EPS3, d1[:, 0], d1[:, 1])
    n_up = np.einsum("nij,nj->ni", amb.metric_inv, n_cov)
    nu = n_up / np.sqrt(np.einsum("ni,ni->n", n_cov, n_up))[:, None]
    nu_cov = np.einsum("nij,nj->ni", g, nu)
    w = d2 + np.einsum("nijk,naj,nbk->nabi", amb.christoffel, d1, d1)
    b = -np.einsum("ni,nabi->nab", nu_cov, w)
    h = np.einsum("nab,nab->n", ginv, b)
    b_up = np.einsum("nac,nbd,ncd->nab", ginv, ginv, b)
    return {
        "metric_inv": ginv, "normal": nu, "second_form": b, "mean_curvature": h,
        "traceless_second_norm_sq": np.einsum("nab,nab->n", b_up, b) - 0.5 * h * h,
        "surface_christoffel": np.einsum("ncd,nabi,nij,ndj->ncab", ginv, w, g, d1),
        "p_trace": amb.k_trace - np.einsum("nij,ni,nj->n", amb.k, nu, nu), "d1": d1,
    }


def reference_residual_terms(grid, geo, amb, lam):
    """The eight residual terms, each ambient derivative contracted on its own."""
    h, nu, d1 = geo["mean_curvature"], geo["normal"], geo["d1"]
    ginv_s, b = geo["metric_inv"], geo["second_form"]
    k, grad_k, g_inv = amb.k, amb.grad_k, amb.metric_inv
    k_nn = np.einsum("nij,ni,nj->n", k, nu, nu)
    p = amb.k_trace - k_nn
    grad_trk = np.einsum("nij,nsij->ns", g_inv, grad_k)
    grad_k_nn = np.einsum("nsij,ni,nj->ns", grad_k, nu, nu)
    nu_trk = np.einsum("ns,ns->n", grad_trk, nu)
    nu_k_nn = np.einsum("ns,ns->n", grad_k_nn, nu)
    div_k_nu_full = np.einsum("nsl,nslj,nj->n", g_inv, grad_k, nu)
    k_surf = np.einsum("nij,nai,nbj->nab", k, d1, d1)
    k_dot_b = np.einsum("nac,nbd,nab,ncd->n", ginv_s, ginv_s, k_surf, b)
    div_sigma = div_k_nu_full - nu_k_nn - h * k_nn + k_dot_b
    b_mixed = np.einsum("nbc,nac->nab", ginv_s, b)
    k_d1_nu = np.einsum("nij,nbi,nj->nb", k, d1, nu)
    dp = (np.einsum("nal,nl->na", d1, grad_trk - grad_k_nn)
          - 2.0 * np.einsum("nab,nb->na", b_mixed, k_d1_nu))
    grad_p_vec = np.einsum("nab,nb,nai->ni", ginv_s, dp, d1)
    return {
        "lam_h": lam * h,
        "laplacian_h": _laplacian(grid, ginv_s, geo["surface_christoffel"], h),
        "h_b_traceless": h * geo["traceless_second_norm_sq"],
        "h_ricci": h * np.einsum("nij,ni,nj->n", amb.ricci, nu, nu),
        "p_normal_derivatives": p * (nu_trk - nu_k_nn),
        "p_divergence": -2.0 * p * div_sigma,
        "h_p_squared": 0.5 * h * p * p,
        "k_grad_p": -2.0 * np.einsum("nij,ni,nj->n", k, grad_p_vec, nu),
    }


def frame_rule_cases():
    """(data set, center) pairs with k, grad k, Ric and Gamma all nonzero
    somewhere, and Schwarzschild off the puncture."""
    rng = np.random.default_rng(4)
    m = rng.normal(size=(3, 3, 3))
    return [
        (preset("conformal_quadratic", eps=0.01, k=K_GENERIC), ORIGIN),
        (preset("polynomial", g_quadratic=0.05 * np.ones((3, 3, 3, 3)),
                k_constant=K_GENERIC, k_linear=0.3 * (m + m.transpose(0, 2, 1))), ORIGIN),
        (preset("schwarzschild_slice", mass=1.0), np.array([2.0, 0.3, -0.4])),
    ]


@pytest.mark.parametrize("case", [0, 1, 2], ids=["conformal_k", "polynomial", "schwarzschild"])
@pytest.mark.parametrize("r", [0.05, 0.2])
def test_frame_rule_matches_contractions(case, r):
    """Geometry and residual terms read on the frame (X_theta, X_phi, nu)
    agree with the slot-by-slot contractions on seeded graphs."""
    grid = default_grid(32, 64, 8)
    ds, center = frame_rule_cases()[case]
    rng = np.random.default_rng(11)
    s = graph_surface(ds, center, rng.normal(size=3) * 0.01, r, smooth_phi(rng), grid)
    d1, d2 = spectral_embedding_derivatives(grid, s.positions - center)
    geo = geometry_from_embedding(grid, d1, d2, s.ambient)
    ref = reference_geometry(d1, d2, s.ambient)
    for name in ("mean_curvature", "second_form", "normal", "surface_christoffel", "p_trace"):
        assert np.abs(geo[name] - ref[name]).max() <= 1e-13 * np.abs(ref[name]).max(), name
    # |B0|^2 = |B|^2 - H^2 / 2 cancels down from the size of H^2
    assert (np.abs(geo["traceless_second_norm_sq"] - ref["traceless_second_norm_sq"]).max()
            <= 1e-13 * np.max(ref["mean_curvature"] ** 2))
    terms = _residual_terms(grid, geo, s.ambient, 0.7)
    ref_terms = reference_residual_terms(grid, ref, s.ambient, 0.7)
    bound = 1e-12 * np.abs(sum(ref_terms.values())).max()
    for name, values in ref_terms.items():
        assert np.abs(terms[name] - values).max() <= bound, name


class TestLaplaceBeltrami:
    def test_spherical_harmonic_eigenvalue(self, flat, grid):
        s = geodesic_sphere(flat, ORIGIN, ORIGIN, 2.0, grid)
        vals = synthesize(HarmonicField.from_coeff_dict(grid.band_limit, {(2, 0): 1.0}), grid)
        lap = laplace_beltrami(s, vals)
        assert np.abs(lap + (6.0 / 4.0) * vals).max() < 1e-11

    def test_constant_field(self, conformal, grid):
        s = geodesic_sphere(conformal, ORIGIN, ORIGIN, 0.05, grid)
        lap = laplace_beltrami(s, np.full(grid.n_nodes, 3.7))
        assert np.abs(lap).max() < 1e-8

    def test_divergence_theorem_on_ellipsoid(self, flat, grid):
        x = grid.nodes
        radial = 1.0 / np.sqrt(x[:, 0] ** 2 + x[:, 1] ** 2 + (x[:, 2] / 1.1) ** 2)
        s = graph_surface(flat, ORIGIN, ORIGIN, 1.0, analyze(grid, radial - 1.0),
                          grid, n_steps=16)
        lap = laplace_beltrami(s, s.positions[:, 0])
        assert abs(s.integral(lap)) < 1e-10


class TestPhysicalResidual:
    def test_flat_sphere_vanishes(self, flat, grid):
        s = geodesic_sphere(flat, ORIGIN, ORIGIN, 1.0, grid)
        res = el_residual(flat, s, 0.0)
        assert res.l2_norm < 1e-9
        assert res.c0_norm < 1e-9

    def test_lagrange_term_only(self, flat, grid):
        s = geodesic_sphere(flat, ORIGIN, ORIGIN, 0.5, grid)
        res = el_residual(flat, s, 1.0)
        assert np.abs(res.values - s.mean_curvature).max() < 1e-9

    def test_rejects_a_foreign_data_set(self, flat, conformal, small_grid):
        s = geodesic_sphere(flat, ORIGIN, ORIGIN, 1.0, small_grid)
        with pytest.raises(ValueError, match="not the data set"):
            el_residual(conformal, s, 0.0)
        # an equal preset built anew is still another data set
        with pytest.raises(ValueError):
            el_residual(preset("flat"), s, 0.0)

    def test_k_zero_reduces_to_willmore_terms(self, conformal, grid):
        s = geodesic_sphere(conformal, ORIGIN, ORIGIN, 0.05, grid)
        terms = _residual_terms(s.grid, vars(s), s.ambient, 0.3)
        for name in ("p_normal_derivatives", "p_divergence", "h_p_squared",
                     "k_grad_p"):
            assert np.abs(terms[name]).max() == 0.0

    def test_lambda0_kills_kernel_projection_exactly_for_constant_k(self, grid):
        # flat + constant k: pi0 of the residual vanishes for all radii at
        # lambda0 = -(tr k)^2/5 - |k|^2/15 since the flat sphere is exact
        k = np.diag([1.0, 0.0, 0.0])
        ds = preset("constant_k", k=k)
        lam0 = -1.0 / 5.0 - 1.0 / 15.0
        for r in (0.05, 0.2):
            s = geodesic_sphere(ds, ORIGIN, ORIGIN, r, grid)
            res = el_residual(ds, s, lam0)
            assert abs(res.proj_k0) < 1e-7 / r ** 2
            res_off = el_residual(ds, s, lam0 + 0.1)
            assert abs(res_off.proj_k0) > 0.1

    def test_norms_recompute(self, conformal_k, grid):
        s = geodesic_sphere(conformal_k, ORIGIN, ORIGIN, 0.05, grid)
        res = el_residual(conformal_k, s, 0.2)
        assert abs(res.l2_norm
                   - np.sqrt(np.sum(grid.weights * res.values ** 2))) < 1e-12
        assert res.c0_norm == np.abs(res.values).max()

    def test_csv_export(self, tmp_path, flat, grid):
        s = geodesic_sphere(flat, ORIGIN, ORIGIN, 1.0, grid)
        res = el_residual(flat, s, 0.5)
        res.to_csv(grid, tmp_path / "res.csv")
        assert (tmp_path / "res.csv").read_text().startswith("node,")


class TestRescalingIdentity:
    # Schwarzschild's metric is not quadratic, so the bundle's D2F reads a
    # connection whose second derivatives do not vanish, as they do on
    # conformal_quadratic data
    @pytest.mark.parametrize("which, center, n_surfaces",
                             [("conformal_k", ORIGIN, 3),
                              ("schwarzschild", np.array([2.0, 0.3, -0.4]), 1)],
                             ids=["conformal_k", "schwarzschild"])
    def test_identity_on_random_surfaces(self, which, center, n_surfaces, conformal_k, grid):
        ds = conformal_k if which == "conformal_k" else preset("schwarzschild_slice", mass=1.0)
        rng = np.random.default_rng(7)
        for _ in range(n_surfaces):
            r = rng.uniform(0.03, 0.1)
            lam = rng.uniform(-1, 1)
            tau = rng.normal(size=3) * 0.01
            phi = smooth_phi(rng)
            resc = rescaled_phi(ds, center, tau, r, phi, lam, grid, n_steps=16)
            surf = graph_surface(ds, center, tau, r, phi, grid)
            phys = el_residual(ds, surf, lam)
            diff = np.sqrt(np.sum(grid.weights
                                  * (resc.values - r ** 3 * phys.values) ** 2))
            assert diff < 1e-9 * resc.l2_norm

    @pytest.mark.parametrize("shape, bound", [((32, 64), 5e-12), ((64, 128), 5e-11)],
                             ids=["32x64", "64x128"])
    def test_identity_at_the_rounding_floor(self, conformal_k, shape, bound):
        # the inputs of acceptance criterion 5; with the chord differentiated
        # in closed form on both sides the worst error reads 1.6e-12 and
        # 4.6e-12 (differentiating positions: 2.5e-11 and 5.3e-10)
        grid = default_grid(*shape)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(10):
            r, lam = rng.uniform(0.02, 0.1), rng.uniform(-1.0, 1.0)
            tau = rng.normal(size=3) * 0.01
            coeffs = np.zeros(81)
            for l in range(2, 9):
                coeffs[l * l:(l + 1) ** 2] = rng.normal(size=2 * l + 1) * 0.02 / (1 + l) ** 3
            phi = HarmonicField(coeffs, 8)
            resc = rescaled_phi(conformal_k, ORIGIN, tau, r, phi, lam, grid, n_steps=12)
            phys = el_residual(conformal_k, graph_surface(conformal_k, ORIGIN, tau, r, phi, grid),
                               lam)
            diff = np.sqrt(np.sum(grid.weights * (resc.values - r ** 3 * phys.values) ** 2))
            worst = max(worst, diff / resc.l2_norm)
        assert worst <= bound

    @pytest.mark.parametrize("r", [0.05, 0.1])
    def test_identity_does_not_depend_on_a_step_count(self, r):
        # the polynomial data of tests/test_surface.py (seed 5) with perfbench's
        # n_steps=12, which sets no step: within 1e-9 at both radii (measured
        # 7.8e-12 and 2.0e-11; the 12-step RK4 bundle read 1.6e-9 and 2.5e-8 on
        # 32 x 64).  On 48 x 96, since at r = 0.1 the graph surface needs more
        # than the 32 x 64 grid's band limit 20: there the identity reads
        # 1.0e-9 with any bundle, and 2.0e-11 once the grid resolves both sides.
        c4 = np.random.default_rng(5).normal(size=(3, 3, 3, 3))
        c4 = c4 + c4.transpose(1, 0, 2, 3)
        ds = preset("polynomial", g_quadratic=0.05 * (c4 + c4.transpose(0, 1, 3, 2)))
        grid = default_grid(48, 96)
        rng = np.random.default_rng(7)
        lam, tau = rng.uniform(-1, 1), rng.normal(size=3) * 0.01
        phi = smooth_phi(rng)
        resc = rescaled_phi(ds, ORIGIN, tau, r, phi, lam, grid, n_steps=12)
        phys = el_residual(ds, graph_surface(ds, ORIGIN, tau, r, phi, grid, n_steps=128), lam)
        diff = np.sqrt(np.sum(grid.weights * (resc.values - r ** 3 * phys.values) ** 2))
        assert diff < 1e-9 * resc.l2_norm

    def test_flat_leading_order(self, flat, grid):
        # flat, k = 0, phi = 0: Phi = 2 lambda r^2 exactly
        res = rescaled_phi(flat, ORIGIN, ORIGIN, 0.07, None, 0.4, grid, n_steps=16)
        assert np.abs(res.values - 2 * 0.4 * 0.07 ** 2).max() < 1e-12


class TestWSplit:
    def test_k_zero_means_no_w2(self, conformal, grid):
        w1, w2 = w_split(conformal, ORIGIN, ORIGIN, 0.05, None, 0.1, grid)
        assert np.abs(w2.values).max() == 0.0

    def test_sum_identity(self, conformal_k, grid):
        rng = np.random.default_rng(3)
        phi = smooth_phi(rng)
        w1, w2 = w_split(conformal_k, ORIGIN, ORIGIN, 0.06, phi, -0.3, grid)
        res = rescaled_phi(conformal_k, ORIGIN, ORIGIN, 0.06, phi, -0.3, grid,
                           n_steps=16)
        assert np.abs(w1.values + w2.values - res.values).max() < 1e-12

    def test_constant_k_quadratic_coefficient_exact(self, grid):
        # flat + constant k on round spheres: W2 equals the quadratic
        # expansion coefficient exactly (all derivative terms vanish)
        k = K_GENERIC
        ds = preset("constant_k", k=k)
        r, lam = 0.04, 0.125
        w1, w2 = w_split(ds, ORIGIN, ORIGIN, r, None, lam, grid)
        x = grid.nodes
        trk = np.trace(k)
        q = np.einsum("ij,ni,nj->n", k, x, x)
        s2 = np.einsum("si,sj,ni,nj->n", k, k, x, x)
        expansion = r * r * (-trk ** 2 + 6 * trk * q + 4 * s2 - 9 * q * q)
        assert np.abs(w2.values - expansion).max() < 1e-14
        assert np.abs(w1.values - 2 * lam * r * r).max() < 1e-12

    def test_affine_k_quadratic_plus_cubic_terms_exact(self, grid):
        # flat metric + affine k: round spheres are exact, the gradient of k
        # is the constant k1, and the quadratic + cubic expansion of W2 (k
        # evaluated at the node image r x) terminates -- so it must match the
        # operator to roundoff, pinning every cubic coefficient
        rng = np.random.default_rng(9)
        m = rng.normal(size=(3, 3, 3))
        k1 = 0.3 * (m + m.transpose(0, 2, 1))
        k0 = np.array([[0.4, 0.1, 0.0], [0.1, -0.2, 0.05], [0.0, 0.05, 0.3]])
        ds = preset("polynomial", k_constant=k0, k_linear=k1)
        x = grid.nodes
        dtrk = np.einsum("lii->l", k1)

        def truncation(r):
            kx = k0 + np.einsum("lij,nl->nij", k1, r * x)
            trk = np.einsum("nii->n", kx)
            q = np.einsum("nij,ni,nj->n", kx, x, x)
            s2 = np.einsum("nsi,nsj,ni,nj->n", kx, kx, x, x)
            quad = r * r * (-trk ** 2 + 6 * trk * q + 4 * s2 - 9 * q * q)
            p1 = np.einsum("n,i,ni->n", trk, dtrk, x)
            p2 = (np.einsum("s,nsi,ni->n", dtrk, kx, x)
                  + np.einsum("n,ssi,ni->n", trk, k1, x))
            p3 = (np.einsum("s,nij,ni,nj,ns->n", dtrk, kx, x, x, x)
                  + np.einsum("n,sij,ni,nj,ns->n", trk, k1, x, x, x))
            p4 = 2 * (np.einsum("tij,nts,ni,nj,ns->n", k1, kx, x, x, x)
                      + np.einsum("nij,tts,ni,nj,ns->n", kx, k1, x, x, x))
            p5 = -3 * np.einsum("nij,spq,ni,nj,np,nq,ns->n", kx, k1,
                                x, x, x, x, x, optimize=True)
            return quad + r ** 3 * (p1 - 2 * p2 + p3 + p4 + p5)

        for r in (0.02, 0.04):
            _, w2 = w_split(ds, ORIGIN, ORIGIN, r, None, 0.0, grid)
            assert np.abs(w2.values - truncation(r)).max() < 1e-14


class TestKernelProjections:
    def test_willmore_kernel_constants(self, conformal, grid):
        # pi0(Phi)/r^2 -> 8 pi (lam + Sc/3), pi1(Phi)/r^3 -> (4 pi/3) grad Sc
        c = curvature_at(conformal, ORIGIN)
        lam = 0.07
        radii = np.array([0.02, 0.03, 0.045])
        p0 = []
        for r in radii:
            res = rescaled_phi(conformal, ORIGIN, ORIGIN, r, None, lam, grid,
                               n_steps=16)
            p0.append(res.proj_k0 / r ** 2)
        fit = np.linalg.lstsq(np.vstack([np.ones(3), radii ** 2]).T,
                              np.array(p0), rcond=None)[0][0]
        target = 8 * np.pi * (lam + c.scalar / 3.0)
        assert abs(fit - target) < 5e-3 * abs(target)

    def test_w2_kernel_constant(self, grid):
        # pi0(W2/r^2) at r -> 0 equals 8 pi ((tr k)^2/5 + |k|^2/15)
        ds = preset("constant_k", k=K_GENERIC)
        trk = np.trace(K_GENERIC)
        ksq = np.sum(K_GENERIC * K_GENERIC)
        _, w2 = w_split(ds, ORIGIN, ORIGIN, 0.03, None, 0.0, grid)
        target = 8 * np.pi * (trk ** 2 / 5.0 + ksq / 15.0)
        assert abs(w2.proj_k0 / 0.03 ** 2 - target) < 1e-10

    def test_combined_gradient_projection(self, grid):
        # pi1(Phi)/r^3 -> (4 pi / 3) grad(Sc + 3/5 (tr k)^2 + 1/5 |k|^2)
        from hawkfol import concentration_scalar
        k1 = np.zeros((3, 3, 3))
        k1[0] = np.array([[0.5, 0.2, 0.0], [0.2, -0.3, 0.1], [0.0, 0.1, 0.2]])
        k1[1] = 0.3 * np.eye(3)
        ds = preset("polynomial", k_constant=np.diag([0.2, 0.1, -0.1]),
                    k_linear=k1)
        _, grad_f, _ = concentration_scalar(ds, ORIGIN)
        radii = np.array([0.02, 0.03, 0.045])
        p1 = np.array([
            rescaled_phi(ds, ORIGIN, ORIGIN, r, None, 0.0, grid,
                         n_steps=16).proj_k1 / r ** 3 for r in radii])
        fit = np.linalg.lstsq(np.vstack([np.ones(3), radii ** 2]).T, p1,
                              rcond=None)[0][0]
        target = (4 * np.pi / 3) * grad_f
        assert np.linalg.norm(fit - target) < 0.02 * np.linalg.norm(target)


def test_vanishing_first_radial_derivative(conformal_k, grid):
    # |Phi(r, tau, 0, lam) - Phi(0, tau, 0, lam)| = O(r^2): the fitted linear
    # slope at r = 0 is below 1e-3 of the quadratic coefficient
    lam = 0.123
    radii = np.array([0.02, 0.04, 0.06, 0.08])
    base = rescaled_phi(conformal_k, ORIGIN, ORIGIN, 0.0, None, lam, grid).values
    rows = np.array([
        rescaled_phi(conformal_k, ORIGIN, ORIGIN, r, None, lam, grid,
                     n_steps=16).values - base for r in radii])
    coefs = np.linalg.lstsq(np.vstack([radii, radii ** 2, radii ** 3]).T, rows,
                            rcond=None)[0]
    slope = np.abs(coefs[0]).max()
    quad = np.abs(coefs[1]).max()
    assert slope < 1e-3 * quad


def test_euclidean_linearization_spectrum(conformal, grid):
    """Difference quotient of the rescaled operator at r = 0 against the
    spectral biharmonic eigenvalues.

    With the conventions pinned by the kernel-projection constants
    (H = +2/r outward, pi0(Phi)/r^2 -> +8 pi (lam + ...)), the Euclidean
    linearization at the unit sphere is -Lap(Lap + 2): it annihilates degrees
    0 and 1 and acts as -l(l+1)(l(l+1) - 2) on degree l.  The magnitude and
    kernel structure match Lap-spectral biharmonic inversion used by the
    solver; the overall sign is verified here once and for all.
    """
    t = 1e-4
    for (l, m) in [(2, 0), (3, -2), (4, 1)]:
        mu = l * (l + 1) * (l * (l + 1) - 2)
        plus = rescaled_phi(conformal, ORIGIN, ORIGIN, 0.0,
                            HarmonicField.from_coeff_dict(8, {(l, m): t}), 0.0, grid)
        minus = rescaled_phi(conformal, ORIGIN, ORIGIN, 0.0,
                             HarmonicField.from_coeff_dict(8, {(l, m): -t}), 0.0, grid)
        quotient = analyze(grid, (plus.values - minus.values) / (2 * t), check=False)
        got = quotient.coeffs[coeff_index(l, m)]
        assert abs(got - (-mu)) < 1e-3 * mu
