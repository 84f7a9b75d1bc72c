"""Curvature pipeline, presets and the concentration scalar."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hawkfol import (InitialDataSet, RayFan, VariationBundle, ambient_fields,
                     concentration_scalar, curvature_at, default_grid, geodesic_acceleration,
                     initial_guess, orthonormal_frame, preset)
from hawkfol.background import (_DERIVED_STEP, _SECOND_STEP, _STENCIL, _SYM6, _fd_grad,
                                _fd_hess, _in_frame, _inverse_metric, _node_last, christoffel_from)
from hawkfol.errors import (ChartExceeded, DegenerateMetric, InvalidParams,
                            UnknownPreset)

from curvature_oracles import dchristoffel_from, ricci_from, riemann_from
from jet_oracles import ORACLES

ORIGIN = np.zeros(3)
K_GENERIC = np.array([[0.3, 0.1, 0.0], [0.1, -0.2, 0.05], [0.0, 0.05, 0.4]])


def test_flat_curvature_vanishes(flat):
    c = curvature_at(flat, ORIGIN)
    assert c.scalar == pytest.approx(0.0, abs=1e-13)
    assert np.abs(c.ricci).max() < 1e-13
    assert np.abs(c.grad_scalar).max() < 1e-12
    assert np.abs(c.riemann).max() < 1e-13


def test_conformal_scalar_curvature_at_center(conformal):
    # g = (1 + eps |x|^2) delta has Sc(0) = -12 eps and hess Sc(0) = 60 eps^2 I
    c = curvature_at(conformal, ORIGIN)
    assert c.scalar == pytest.approx(-0.12, abs=1e-12)
    assert np.abs(c.grad_scalar).max() < 1e-11
    assert_allclose(c.hess_scalar, 0.006 * np.eye(3), atol=1e-9)
    assert_allclose(c.ricci, -0.04 * np.eye(3), atol=1e-13)


def test_conformal_hessian_against_fd_oracle(conformal):
    # independent oracle: direct stencils on the pointwise Sc map with
    # different steps than the implementation uses
    def sc_map(pts):
        return ambient_fields(conformal, pts).scalar

    pt = ORIGIN[None, :]
    grad = _fd_grad(sc_map, pt, 3.1e-3)[0]
    hess = _fd_hess(sc_map, pt, 4.3e-3)[0]
    c = curvature_at(conformal, ORIGIN)
    assert np.abs(c.grad_scalar - grad).max() < 1e-9
    assert np.abs(c.hess_scalar - hess).max() < 1e-7


def test_riemann_symmetries_and_contraction():
    ds = preset("schwarzschild_slice", mass=1.0)
    p = np.array([0.6, 0.1, -0.2])
    c = curvature_at(ds, p)
    rm = c.riemann
    assert np.abs(rm + rm.transpose(1, 0, 2, 3)).max() < 1e-12
    assert np.abs(rm + rm.transpose(0, 1, 3, 2)).max() < 1e-12
    assert np.abs(rm - rm.transpose(2, 3, 0, 1)).max() < 1e-12
    bianchi = rm + rm.transpose(0, 2, 3, 1) + rm.transpose(0, 3, 1, 2)
    assert np.abs(bianchi).max() < 1e-12
    g_inv = np.linalg.inv(ds.metric_jet(p[None], 0)[0])
    assert np.abs(np.einsum("ab,aibj->ij", g_inv, rm) - c.ricci).max() < 1e-12


def test_bianchi_and_contraction_in_fd_mode():
    ds = preset("conformal_quadratic", eps=0.05).with_finite_differences()
    c = curvature_at(ds, [0.2, -0.1, 0.15])
    rm = c.riemann
    bianchi = rm + rm.transpose(0, 2, 3, 1) + rm.transpose(0, 3, 1, 2)
    assert np.abs(bianchi).max() < 1e-8
    g_inv = np.linalg.inv(ds.metric_jet(np.array([[0.2, -0.1, 0.15]]), 0)[0])
    assert np.abs(np.einsum("ab,aibj->ij", g_inv, rm) - c.ricci).max() < 1e-8


@pytest.mark.parametrize("name,params", [
    ("conformal_quadratic", {"eps": 0.03}),
    ("schwarzschild_slice", {"mass": 1.0}),
    ("polynomial", {"g_quadratic": None}),
])
def test_finite_difference_agrees_with_closed_form(name, params):
    if name == "polynomial":
        rng = np.random.default_rng(3)
        c4 = rng.normal(size=(3, 3, 3, 3))
        c4 = c4 + c4.transpose(1, 0, 2, 3)
        c4 = 0.05 * (c4 + c4.transpose(0, 1, 3, 2))
        params = {"g_quadratic": c4}
    ds = preset(name, **params)
    ds_fd = ds.with_finite_differences()
    rng = np.random.default_rng(7)
    if name == "schwarzschild_slice":
        pts = rng.uniform(-1, 1, size=(100, 3))
        pts = 0.45 + 0.3 * np.abs(pts)  # keep away from the puncture
    else:
        pts = rng.uniform(-0.2, 0.2, size=(100, 3))
    for p in pts[:100]:
        c_cf = curvature_at(ds, p)
        c_fd = curvature_at(ds_fd, p)
        scale = max(np.abs(c_cf.ricci).max(), np.abs(c_cf.scalar), 1e-3)
        assert np.abs(c_fd.ricci - c_cf.ricci).max() < 1e-6 * scale
        assert abs(c_fd.scalar - c_cf.scalar) < 1e-6 * scale


def _fd_hessian_cases():
    rng = np.random.default_rng(3)
    c4 = rng.normal(size=(3, 3, 3, 3))
    c4 = c4 + c4.transpose(1, 0, 2, 3)
    c4 = 0.05 * (c4 + c4.transpose(0, 1, 3, 2))
    k1 = rng.normal(size=(3, 3, 3))
    k1 = 0.5 * (k1 + k1.transpose(0, 2, 1))
    return [(preset("conformal_quadratic", eps=0.01), (0.08, -0.03, 0.05)),
            (preset("conformal_quadratic", eps=-0.25, k=K_GENERIC), (0.3, -0.1, 0.2)),
            (preset("polynomial", g_quadratic=c4, k_constant=K_GENERIC, k_linear=k1),
             (0.1, -0.05, 0.08)),
            (preset("schwarzschild_slice", mass=1.0), (0.6, 0.2, 0.5))]


@pytest.mark.parametrize("ds,x", _fd_hessian_cases(),
                         ids=["conformal", "conformal_k", "polynomial", "schwarzschild"])
def test_finite_difference_hessian_agrees_with_closed_form(ds, x):
    # Sc in finite-difference mode comes from 2e-3 stencils; a 2e-3 outer
    # Hessian stencil amplified their rounding to 1e-4 here, and a 1e-3 outer
    # gradient stencil to 5e-7
    _, grad, hess = concentration_scalar(ds, x)
    _, grad_fd, hess_fd = concentration_scalar(ds.with_finite_differences(), x)
    assert np.abs(grad_fd - grad).max() < 1e-7
    assert np.abs(hess_fd - hess).max() < 2e-5


class TestConcentrationScalar:
    def test_flat(self, flat):
        value, grad, hess = concentration_scalar(flat, ORIGIN)
        assert value == 0.0
        assert np.abs(grad).max() < 1e-13
        assert np.abs(hess).max() < 1e-10

    def test_constant_k(self, constant_k):
        # k = diag(1,0,0): f = 3/5 (tr k)^2 + 1/5 |k|^2 = 4/5 everywhere
        value, grad, _ = concentration_scalar(constant_k, [0.2, 0.1, 0.0])
        assert value == pytest.approx(0.8, abs=1e-13)
        assert np.abs(grad).max() < 1e-12

    def test_conformal(self, conformal):
        value, grad, hess = concentration_scalar(conformal, ORIGIN)
        assert value == pytest.approx(-0.12, abs=1e-12)
        assert np.abs(grad).max() < 1e-11
        assert_allclose(hess, 0.006 * np.eye(3), atol=1e-9)

    def test_gradient_matches_value_stencil(self, conformal_k):
        p = np.array([0.08, -0.03, 0.05])

        def f_map(pts):
            flat_pts = pts.reshape(-1, 3)
            out = np.empty(flat_pts.shape[0])
            for i, q in enumerate(flat_pts):
                out[i] = concentration_scalar(conformal_k, q)[0]
            return out.reshape(pts.shape[:-1])

        _, grad, _ = concentration_scalar(conformal_k, p)
        oracle = _fd_grad(f_map, p[None, :], 2e-3)[0]
        assert np.abs(grad - oracle).max() < 1e-5 * max(np.abs(grad).max(), 1.0)


def test_point_quantities_evaluate_the_metric_once_per_stencil_order(conformal_k, small_grid):
    # initial_guess reads one ambient_fields at p; concentration_scalar three:
    # the value, the 12 points of all gradient rows and the 63 of all Hessian
    # rows
    calls = []

    def metric_jet(pts, n):
        if n == 0:
            calls.append(np.shape(pts))
        return conformal_k.metric_jet(pts, n)

    ds = replace(conformal_k, metric_jet=metric_jet)
    initial_guess(ds, ORIGIN, grid=small_grid)
    assert len(calls) == 1
    calls.clear()
    concentration_scalar(ds, [0.08, -0.03, 0.05])
    assert calls == [(1, 3), (12, 3), (63, 3)]


def test_pointwise_contractions_match_curvature_report(conformal_k):
    p = np.array([0.08, -0.03, 0.05])
    amb = ambient_fields(conformal_k, p)
    g_inv = np.linalg.inv(conformal_k.metric_jet(p, 0))
    k = conformal_k.k_jet(p, 0)
    assert amb.scalar == pytest.approx(np.sum(g_inv * amb.ricci), rel=1e-13)
    assert amb.k_norm_sq == pytest.approx(np.sum((g_inv @ k @ g_inv) * k), rel=1e-13)
    c = curvature_at(conformal_k, p)
    assert (c.scalar, c.tr_k, c.norm_k_sq) == (amb.scalar, amb.k_trace, amb.k_norm_sq)
    # the weighting rule carries over to the contractions
    half = amb.rescaled(0.5)
    assert half.scalar == pytest.approx(0.25 * amb.scalar, rel=1e-14)
    assert half.k_norm_sq == pytest.approx(0.25 * amb.k_norm_sq, rel=1e-14)


# 4th-order central stencils are exact on polynomials of degree <= 4 in each
# variable, so against the analytic derivatives only rounding remains
_POWERS = np.array([(a, b, c) for a in range(5) for b in range(5) for c in range(5)
                    if a + b + c <= 4], dtype=float)


def _poly_map(coeffs):
    """Two polynomials of degree <= 4, stacked on a trailing component axis."""
    def fun(pts):
        x, y, z = pts[..., 0, None], pts[..., 1, None], pts[..., 2, None]
        return sum(c * x ** a * y ** b * z ** e for c, (a, b, e) in zip(coeffs, _POWERS))
    return fun


def _poly_derivative(coeffs, pts, axes):
    """The analytic partial derivative of _poly_map along `axes`."""
    c, powers = coeffs.copy(), _POWERS.copy()
    for axis in axes:
        c = c * powers[:, axis, None]
        powers[:, axis] = np.maximum(powers[:, axis] - 1.0, 0.0)
    x, y, z = pts[..., 0, None], pts[..., 1, None], pts[..., 2, None]
    return sum(ci * x ** a * y ** b * z ** e for ci, (a, b, e) in zip(c, powers))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       shape=st.sampled_from([(), (5,), (2, 3)]))
def test_stencils_exact_on_quartic_polynomials(seed, shape):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, size=(len(_POWERS), 2))
    pts = rng.uniform(-1.0, 1.0, size=shape + (3,))
    fun = _poly_map(coeffs)
    grad = _fd_grad(fun, pts, _DERIVED_STEP)
    hess = _fd_hess(fun, pts, _SECOND_STEP)
    assert grad.shape == shape + (3, 2) and hess.shape == shape + (3, 3, 2)
    exact_grad = np.stack([_poly_derivative(coeffs, pts, (l,)) for l in range(3)],
                          axis=len(shape))
    exact_hess = np.stack([np.stack([_poly_derivative(coeffs, pts, (l, m)) for m in range(3)],
                                    axis=len(shape)) for l in range(3)], axis=len(shape))
    # |f| <= sum |coeffs| on the unit cube; over 400 seeds the rounding
    # reached 7.4e-14 of it in the gradient and 6.2e-11 in the Hessian
    scale = np.abs(coeffs).sum()
    assert np.abs(grad - exact_grad).max() < 1e-12 * scale
    assert np.abs(hess - exact_hess).max() < 1e-9 * scale
    # a batch gives exactly the per-point numbers
    for idx in np.ndindex(shape):
        np.testing.assert_array_equal(grad[idx], _fd_grad(fun, pts[idx], _DERIVED_STEP))
        np.testing.assert_array_equal(hess[idx], _fd_hess(fun, pts[idx], _SECOND_STEP))


def _row_by_row(fun, pts, h, rows, order):
    """The stencil rows of `_stencil`, one call of fun per row."""
    axis = pts.ndim - 1
    out = []
    for offsets, weights, denom in rows:
        vals = np.moveaxis(fun(pts[..., None, :] + h * offsets), axis, 0)
        out.append(sum(w * v for w, v in zip(weights, vals)) / (denom * h ** order))
    return np.stack(out, axis=axis)


@pytest.mark.parametrize("fd", [False, True], ids=["closed_form", "finite_difference"])
def test_batched_stencil_rows_match_one_call_per_row(fd):
    # one call on the points of all rows gives exactly the numbers of one
    # call per row, on the map that concentration_scalar differentiates
    ds = _fd_hessian_cases()[2][0]   # the polynomial with k_linear
    ds = ds.with_finite_differences() if fd else ds

    def fun(pts):
        amb = ambient_fields(ds, pts)
        return amb.scalar + 0.6 * amb.k_trace ** 2 + 0.2 * amb.k_norm_sq

    for pts in (np.array([0.1, -0.05, 0.08]),
                np.random.default_rng(3).uniform(-0.1, 0.1, size=(4, 3))):
        assert np.array_equal(_fd_grad(fun, pts, _DERIVED_STEP),
                              _row_by_row(fun, pts, _DERIVED_STEP, _STENCIL[:3], 1))
        assert np.array_equal(_fd_hess(fun, pts, _SECOND_STEP),
                              np.take(_row_by_row(fun, pts, _SECOND_STEP, _STENCIL[3:], 2),
                                      _SYM6, axis=pts.ndim - 1))


class TestPresets:
    def test_unknown(self):
        with pytest.raises(UnknownPreset):
            preset("nope")

    def test_unknown_unhashable_name(self):
        # a JSON list as the name once raised a bare TypeError
        with pytest.raises(UnknownPreset):
            preset(["flat"])

    def test_invalid_mass(self):
        with pytest.raises(InvalidParams):
            preset("schwarzschild_slice", mass=-1.0)

    def test_invalid_k(self):
        with pytest.raises(InvalidParams):
            preset("constant_k", k=[[0, 1, 0], [0, 0, 0], [0, 0, 0]])

    @pytest.mark.parametrize("name, params", [
        ("conformal_quadratic", {"eps": np.nan}),
        ("schwarzschild_slice", {"mass": np.inf}),
        ("conformal_quadratic", {"eps": 0.01, "k": [[0.1, 0.0, 0.0], [0.0, np.nan, 0.0],
                                                     [0.0, 0.0, 0.1]]}),
    ], ids=["eps-nan", "mass-inf", "k-nan-entry"])
    def test_nonfinite_params(self, name, params):
        # a NaN eps once gave a data set of NaN chart radius, which no chart
        # check rejects, and failed only at its first evaluation
        with pytest.raises(InvalidParams, match="finite"):
            preset(name, **params)

    def test_none_params_allowed(self):
        ds = preset("conformal_quadratic", eps=0.01, k=None, chart_radius=None)
        assert ds.chart_radius == np.inf

    def test_schwarzschild_is_scalar_flat(self):
        ds = preset("schwarzschild_slice", mass=1.0)
        pts = np.array([[0.6, 0.0, 0.0], [0.4, 0.3, -0.2], [1.5, 0.2, 0.1]])
        assert np.abs(ambient_fields(ds, pts).scalar).max() < 1e-10

    def test_schwarzschild_rejects_puncture(self):
        ds = preset("schwarzschild_slice", mass=1.0)
        with pytest.raises(DegenerateMetric):
            ds.metric_jet(np.zeros((1, 3)), 0)

    def test_constant_k_invariants(self):
        a = 0.7
        ds = preset("constant_k", k=a * np.eye(3))
        c = curvature_at(ds, ORIGIN)
        assert c.tr_k == pytest.approx(3 * a, abs=1e-13)
        assert c.traceless_k_norm_sq == pytest.approx(0.0, abs=1e-13)
        assert c.traceless_k_norm_sq >= -1e-12

    def test_polynomial_ricci_from_quadratic_term(self):
        rng = np.random.default_rng(5)
        c4 = rng.normal(size=(3, 3, 3, 3))
        c4 = c4 + c4.transpose(1, 0, 2, 3)
        c4 = 0.1 * (c4 + c4.transpose(0, 1, 3, 2))
        ds = preset("polynomial", g_quadratic=c4)
        c_cf = curvature_at(ds, ORIGIN)
        c_fd = curvature_at(ds.with_finite_differences(), ORIGIN)
        assert np.abs(c_cf.ricci - c_fd.ricci).max() < 1e-7
        assert np.abs(c_cf.ricci).max() > 0.01  # the quadratic term does curve

    def test_polynomial_linear_k_gradient(self):
        k1 = np.zeros((3, 3, 3))
        k1[0] = np.diag([1.0, 0.5, -0.2])
        ds = preset("polynomial", k_linear=k1)
        c = curvature_at(ds, ORIGIN)
        assert np.abs(c.grad_k[0] - k1[0]).max() < 1e-12
        assert np.abs(c.grad_k[1:]).max() < 1e-12


def test_chart_exceeded():
    ds = preset("conformal_quadratic", eps=-0.25)  # chart radius 1.8
    with pytest.raises(ChartExceeded):
        curvature_at(ds, [2.0, 0.0, 0.0])


# every point a finite-difference jet evaluates is checked against the chart,
# not only the points ambient_fields is asked for

def test_finite_difference_acceleration_stays_in_chart():
    ds = preset("conformal_quadratic", eps=-0.25)  # chart radius 1.8
    fd = ds.with_finite_differences()
    x, v = np.array([[1.8 - 5e-5, 0.0, 0.0]]), np.array([[0.0, 1.0, 0.0]])
    with pytest.raises(ChartExceeded):
        ambient_fields(fd, x)
    # the 1e-4 gradient stencil of the metric reaches 2e-4 past x
    geodesic_acceleration(ds, x, v)
    with pytest.raises(ChartExceeded):
        geodesic_acceleration(fd, x, v)


@pytest.mark.slow
def test_finite_difference_bundle_stays_in_chart():
    # a bundle whose ray along +x ends at radius 1.7999, where the gradient
    # stencil of the metric (1e-4) reaches 2e-4 further out: the bundle reads
    # g and its first derivatives only.  The 5 x 10 grid has the node +x, and
    # the arclength to 1.7999 along the x axis is int sqrt(1 - x^2 / 4) dx
    ds = preset("conformal_quadratic", eps=-0.25)  # chart radius 1.8
    grid = default_grid(5, 10)
    center = np.array([1.7, 0.0, 0.0])
    frame = orthonormal_frame(ds, center)
    radii = np.full(grid.n_nodes, 0.04827624745544191)
    bundle = VariationBundle(ds, center, frame, grid, radii)
    assert np.linalg.norm(bundle.points, axis=1).max() == pytest.approx(1.7999, abs=1e-12)
    with pytest.raises(ChartExceeded):
        VariationBundle(ds.with_finite_differences(), center, frame, grid, radii)


def test_degenerate_metric_detected():
    def bad_metric(pts):
        pts = np.asarray(pts)
        out = np.broadcast_to(np.diag([1.0, 1.0, -1.0]), pts.shape[:-1] + (3, 3))
        return out.copy()

    def zero_k(pts):
        pts = np.asarray(pts)
        return np.zeros(pts.shape[:-1] + (3, 3))

    ds = InitialDataSet.from_values(bad_metric, zero_k)
    with pytest.raises(DegenerateMetric):
        curvature_at(ds, ORIGIN)


def test_derivative_mode_flag(conformal):
    assert conformal.derivative_mode == "closed_form"
    assert conformal.with_finite_differences().derivative_mode == "finite_difference"
    values = InitialDataSet.from_values(lambda pts: conformal.metric_jet(pts, 0),
                                        lambda pts: conformal.k_jet(pts, 0))
    assert values.derivative_mode == "finite_difference"


def test_normal_coordinate_presets_centered(flat, conformal, constant_k):
    rng = np.random.default_rng(1)
    c4 = rng.normal(size=(3, 3, 3, 3))
    c4 = c4 + c4.transpose(1, 0, 2, 3)
    c4 = 0.1 * (c4 + c4.transpose(0, 1, 3, 2))
    poly = preset("polynomial", g_quadratic=c4)
    for ds in (flat, conformal, constant_k, poly):
        assert np.abs(ds.metric_jet(ORIGIN[None], 0)[0] - np.eye(3)).max() < 1e-15
        assert np.abs(ds.metric_jet(ORIGIN[None], 1)[0]).max() < 1e-15


# ----------------------------------------------------------------------
# the pointwise kernel: closed-form inverse and Gamma-free contractions
# ----------------------------------------------------------------------

def _spd_batch(seed, log_cond, n=256):
    """SPD matrices of condition number exactly 10**log_cond, random eigenbases."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    ev = 10.0 ** (log_cond * rng.uniform(size=(n, 3)))
    ev[:, 0], ev[:, 1] = 1.0, 10.0 ** log_cond
    ev = rng.permuted(ev, axis=1) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    g = q @ (ev[..., None] * np.swapaxes(q, 1, 2))
    return 0.5 * (g + np.swapaxes(g, 1, 2))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), log_cond=st.floats(0.0, 8.0))
def test_closed_form_inverse_matches_lapack(seed, log_cond):
    g = _spd_batch(seed, log_cond)
    ref = np.linalg.inv(g)
    g_inv = np.moveaxis(_inverse_metric(_node_last(g, 2)), (0, 1), (1, 2))
    rel = np.abs(g_inv - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
    # both inverses carry a forward error of order cond * eps: the bound is
    # 1e-13 up to cond 100 and grows with cond beyond
    assert np.all(rel <= 1e-15 * np.linalg.cond(g))


def _random_polynomial(seed):
    rng = np.random.default_rng(seed)
    c4 = rng.normal(size=(3, 3, 3, 3))
    c4 = c4 + c4.transpose(1, 0, 2, 3)
    c4 = 0.05 * (c4 + c4.transpose(0, 1, 3, 2))
    return preset("polynomial", g_quadratic=c4)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), which=st.sampled_from(["conformal_k", "polynomial"]))
def test_gamma_free_contractions_match_christoffel(seed, which, conformal_k):
    ds = conformal_k if which == "conformal_k" else _random_polynomial(seed)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-0.2, 0.2, size=(64, 3))
    vel = rng.normal(size=(64, 3))
    gamma = christoffel_from(_node_last(np.linalg.inv(ds.metric_jet(pts, 0)), 2),
                             _node_last(ds.metric_jet(pts, 1), 3))
    scale = np.abs(gamma).max() * np.abs(vel).max() ** 2
    expected = -np.einsum("ijkn,nj,nk->ni", gamma, vel, vel)
    assert np.abs(geodesic_acceleration(ds, pts, vel) - expected).max() < 1e-13 * scale



def _layout_data(which):
    """A seeded polynomial with linear k, or Schwarzschild away from its
    puncture, with the center of the points drawn around."""
    if which == "schwarzschild":
        return preset("schwarzschild_slice", mass=1.0), np.array([0.6, 0.2, -0.3])
    rng = np.random.default_rng(11)
    c4 = rng.normal(size=(3, 3, 3, 3))
    c4 = c4 + c4.transpose(1, 0, 2, 3)
    c4 = 0.05 * (c4 + c4.transpose(0, 1, 3, 2))
    k1 = rng.normal(size=(3, 3, 3))
    return (preset("polynomial", g_quadratic=c4, k_constant=K_GENERIC,
                   k_linear=k1 + k1.transpose(0, 2, 1)), np.zeros(3))


def _textbook_fields(ds, pts):
    """g^-1, Gamma, Ric, tr k and nabla k by LAPACK and one einsum per term,
    node-first: Gamma = g^-1 S / 2, d Gamma = d(g^-1) S / 2 + g^-1 dS / 2 with
    d(g^-1) = -g^-1 dg g^-1, and Ric_jl = d_a Gamma^a_lj - d_l Gamma^a_aj
    + Gamma^a_am Gamma^m_lj - Gamma^a_lm Gamma^m_aj."""
    g_inv = np.linalg.inv(ds.metric_jet(pts, 0))
    dg, d2g = ds.metric_jet(pts, 1), ds.metric_jet(pts, 2)
    s = (np.einsum("...jlk->...ljk", dg) + np.einsum("...klj->...ljk", dg) - dg)
    ds_ = (np.einsum("...mjlk->...mljk", d2g) + np.einsum("...mklj->...mljk", d2g) - d2g)
    gamma = 0.5 * np.einsum("...il,...ljk->...ijk", g_inv, s)
    dg_inv = -np.einsum("...ia,...mab,...bl->...mil", g_inv, dg, g_inv)
    dgamma = 0.5 * (np.einsum("...mil,...ljk->...mijk", dg_inv, s)
                    + np.einsum("...il,...mljk->...mijk", g_inv, ds_))
    ricci = (np.einsum("...aalj->...jl", dgamma) - np.einsum("...laaj->...jl", dgamma)
             + np.einsum("...aam,...mlj->...jl", gamma, gamma)
             - np.einsum("...alm,...maj->...jl", gamma, gamma))
    k, dk = ds.k_jet(pts, 0), ds.k_jet(pts, 1)
    grad_k = (dk - np.einsum("...lsi,...lj->...sij", gamma, k)
              - np.einsum("...lsj,...il->...sij", gamma, k))
    return {"metric_inv": g_inv, "christoffel": gamma, "ricci": ricci,
            "k_trace": np.einsum("...ij,...ij->...", g_inv, k), "grad_k": grad_k}


@settings(max_examples=30, deadline=None)
@given(shape=st.lists(st.integers(1, 6), max_size=2), seed=st.integers(0, 2 ** 32 - 1),
       which=st.sampled_from(["polynomial", "schwarzschild"]))
def test_ambient_fields_match_textbook_chain(shape, seed, which):
    """The node-last chain against node-first LAPACK and einsums, for a single
    point and for batches with one or two point axes."""
    ds, center = _layout_data(which)
    pts = center + np.random.default_rng(seed).uniform(-0.15, 0.15, size=(*shape, 3))
    amb = ambient_fields(ds, pts)
    for name, ref in _textbook_fields(ds, pts).items():
        got = getattr(amb, name)
        assert got.shape == ref.shape == tuple(shape) + ref.shape[len(shape):]
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max(), name


@pytest.mark.parametrize("which", ["polynomial", "schwarzschild"])
def test_riemann_contracts_to_the_fast_ricci(which):
    # the full Rm of curvature_at, traced by g^-1, is the Ricci of ambient_fields
    ds, center = _layout_data(which)
    x = center + np.array([0.07, -0.04, 0.1])
    amb = ambient_fields(ds, x)
    traced = np.einsum("ab,bjal->jl", amb.metric_inv, curvature_at(ds, x).riemann)
    assert np.abs(traced - amb.ricci).max() <= 1e-14 * np.abs(amb.ricci).max()


def _connection_oracle(ds, pts):
    """(g, Gamma, d Gamma) node-last at points (n, 3), g^-1 by LAPACK and
    d Gamma by the oracle's differentiation of g Gamma = S / 2."""
    g, dg, d2g = (_node_last(ds.metric_jet(pts, n), n + 2) for n in range(3))
    g_inv = _node_last(np.linalg.inv(ds.metric_jet(pts, 0)), 2)
    gamma = christoffel_from(g_inv, dg)
    return g, gamma, dchristoffel_from(g_inv, dg, d2g, gamma)


def _assert_ricci_matches_the_connection_oracle(ds, pts):
    ref = np.moveaxis(ricci_from(*_connection_oracle(ds, pts)[1:]), (0, 1), (1, 2))
    got = ambient_fields(ds, pts).ricci
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("which", ["conformal_k", "polynomial", "schwarzschild",
                                   "finite_difference"])
def test_ricci_matches_the_connection_oracle(which, conformal_k):
    """The jet Ricci rule of `ambient_fields` against the trace of the
    oracle's d Gamma, on 64 points around each data set's center."""
    if which == "conformal_k":
        ds, center = conformal_k, np.zeros(3)
    else:
        ds, center = _layout_data("schwarzschild" if which == "schwarzschild" else "polynomial")
        if which == "finite_difference":
            ds = ds.with_finite_differences()
    pts = center + np.random.default_rng(3).uniform(-0.15, 0.15, size=(64, 3))
    _assert_ricci_matches_the_connection_oracle(ds, pts)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), size=st.floats(1e-3, 0.05))
def test_ricci_rule_on_random_quadratic_metrics(seed, size):
    """The same check on g = delta + c x x with a random symmetric c,
    max |c| = size, at random points of radius below 0.5."""
    rng = np.random.default_rng(seed)
    c4 = rng.normal(size=(3, 3, 3, 3))
    c4 = c4 + c4.transpose(1, 0, 2, 3)
    c4 = c4 + c4.transpose(0, 1, 3, 2)
    ds = preset("polynomial", g_quadratic=size * c4 / np.abs(c4).max())
    pts = rng.normal(size=(16, 3))
    pts *= 0.5 * rng.uniform(size=(16, 1)) / np.linalg.norm(pts, axis=1, keepdims=True)
    _assert_ricci_matches_the_connection_oracle(ds, pts)


def test_riemann_is_the_3d_ricci_identity():
    # Rm of curvature_at, formed from Ric, against the oracle's Rm from d Gamma
    ds, center = _layout_data("polynomial")
    x = center + np.array([0.07, -0.04, 0.1])
    ref = riemann_from(*_connection_oracle(ds, x[None]))[..., 0]
    got = curvature_at(ds, x).riemann
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


# the orders that a preset forms by an einsum over a coordinate index
_CONTRACTED = {("metric_jet", 0), ("metric_jet", 1), ("k_jet", 0)}


def _jet_cases():
    rng = np.random.default_rng(11)
    c4 = rng.normal(size=(3, 3, 3, 3))
    c4 = c4 + c4.transpose(1, 0, 2, 3)
    c4 = 0.05 * (c4 + c4.transpose(0, 1, 3, 2))
    k1 = rng.normal(size=(3, 3, 3))
    return [("flat", {}, ORIGIN, set()), ("constant_k", {"k": K_GENERIC}, ORIGIN, set()),
            ("conformal_quadratic", {"eps": 0.01}, ORIGIN, set()),
            ("conformal_quadratic", {"eps": -0.25, "k": K_GENERIC}, ORIGIN, set()),
            ("schwarzschild_slice", {"mass": 1.0}, np.array([0.6, 0.2, -0.3]), set()),
            ("polynomial", {"g_quadratic": c4, "k_constant": K_GENERIC,
                            "k_linear": k1 + k1.transpose(0, 2, 1)}, ORIGIN, _CONTRACTED),
            ("polynomial", {}, ORIGIN, set())]


@pytest.mark.parametrize("name,params,center,contracted", _jet_cases(),
                         ids=["flat", "constant_k", "conformal", "conformal_k", "schwarzschild",
                              "polynomial", "polynomial_zero"])
def test_preset_jets_match_node_first_formulas(name, params, center, contracted):
    """Every order of every preset jet equals the node-first formula of
    `jet_oracles`, at one point, on a batch and on two point axes: exactly
    where both apply the same elementwise arithmetic, and within 4 ulps of
    the largest entry where they contract over a coordinate index, whose
    summation order einsum picks from the memory layout.  The node-last view
    is C-contiguous, or a read-only broadcast along the points where the
    order is the same at every point."""
    ds = preset(name, **params)
    oracle = dict(zip(("metric_jet", "k_jet"), ORACLES[name](**params)))
    rng = np.random.default_rng(4)
    for lead in ((), (50,), (4, 7)):
        pts = center + rng.uniform(-0.2, 0.2, size=lead + (3,))
        for jet, top in (("metric_jet", 2), ("k_jet", 1)):
            for n in range(top + 1):
                got, ref = getattr(ds, jet)(pts, n), oracle[jet](pts, n)
                assert got.shape == ref.shape == lead + (3,) * (n + 2), (jet, n)
                if (jet, n) in contracted:
                    bound = 4 * np.finfo(float).eps * np.abs(ref).max()
                    assert np.abs(got - ref).max() <= bound, (jet, n)
                else:
                    assert np.array_equal(got, ref), (jet, n)
                node_last = _node_last(got, n + 2)
                broadcast = (not node_last.flags.writeable
                             and not any(node_last.strides[n + 2:]))
                assert node_last.flags.c_contiguous or broadcast, (jet, n)


_BAD_NODE = {
    "indefinite": np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    "singular": np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    "nan": np.diag([1.0, np.nan, 1.0]),
}


def _bad_metric_data(kind, is_bad):
    """Flat data whose metric is _BAD_NODE[kind] wherever `is_bad(pts)` holds."""
    def metric(pts):
        g = np.broadcast_to(np.eye(3), pts.shape[:-1] + (3, 3)).copy()
        g[is_bad(pts)] = _BAD_NODE[kind]
        return g

    def metric_jet(pts, n):
        return metric(pts) if n == 0 else np.zeros(pts.shape[:-1] + (3,) * (n + 2))

    def k_jet(pts, n):
        return np.zeros(pts.shape[:-1] + (3,) * (n + 2))

    return InitialDataSet(metric_jet, k_jet)


def _one_bad_node(kind, node=1234, n=2048):
    """Flat data whose metric fails at one entry of every n-point batch."""
    def is_bad(pts):
        bad = np.zeros(pts.shape[:-1], dtype=bool)
        if pts.shape[:-1] == (n,):
            bad[node] = True
        return bad

    return _bad_metric_data(kind, is_bad)


@pytest.mark.parametrize("kind", sorted(_BAD_NODE))
def test_single_bad_node_raises_degenerate_metric(kind):
    # a fan integrates its rays on a grid of its own, not one ray per direction,
    # and at points of its integrator's choosing, so its bad metric fills
    # |x| > 0.05, which every ray of length 0.1 meets whatever the points
    outside = _bad_metric_data(kind, lambda pts: np.linalg.norm(pts, axis=-1) > 0.05)
    rng = np.random.default_rng(5)
    directions = rng.normal(size=(2048, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    with pytest.raises(DegenerateMetric):
        RayFan(outside, ORIGIN, np.eye(3), directions, 0.1, n_steps=4)
    ds = _one_bad_node(kind)
    with pytest.raises(DegenerateMetric):
        ambient_fields(ds, 0.1 * directions)
    # a batch of another size never sees the bad node and passes
    ambient_fields(ds, 0.1 * directions[:2047])


@pytest.mark.parametrize("m", [2, 3])
def test_in_frame_matches_slot_contractions(m):
    """The node-last frame rule against one einsum per slot, on tensors with
    no symmetry, with and without a leading axis carried along."""
    rng = np.random.default_rng(m)
    frame = rng.normal(size=(m, 3, 64))
    t2, t3 = rng.normal(size=(3, 3, 64)), rng.normal(size=(3, 3, 3, 64))
    ref2 = np.einsum("ijn,ain,bjn->abn", t2, frame, frame)
    ref3 = np.einsum("sijn,csn,ain,bjn->cabn", t3, frame, frame, frame)
    ref_lead = np.einsum("sijn,ain,bjn->sabn", t3, frame, frame)
    assert _in_frame(frame, t2).shape == (m, m, 64)
    assert _in_frame(frame, t3).shape == (m, m, m, 64)
    assert _in_frame(frame, t3, 1).shape == (3, m, m, 64)
    assert np.abs(_in_frame(frame, t2) - ref2).max() <= 1e-14 * np.abs(ref2).max()
    assert np.abs(_in_frame(frame, t3) - ref3).max() <= 1e-14 * np.abs(ref3).max()
    assert np.abs(_in_frame(frame, t3, 1) - ref_lead).max() <= 1e-14 * np.abs(ref_lead).max()
