"""Geodesic shooting, embedded surfaces and their fundamental forms."""

import dataclasses
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from hawkfol import (HarmonicField, InitialDataSet, RayFan, VariationBundle, geodesic,
                     coordinate_sphere, default_grid, exp_map, geodesic_sphere, graph_surface,
                     moment_value, orthonormal_frame, preset, rescaled_phi, solve_critical,
                     surface_from_positions, synthesize, transported_center_frame)
from hawkfol.errors import (BandLimitExceeded, ChartExceeded, DegenerateInducedMetric,
                            DegenerateMetric, InvalidParams, NonEmbedded, StepSizeUnderflow)
from hawkfol.background import _SYM6, _fd_grad, _node_last, ambient_fields, christoffel_from
from hawkfol.el_operator import _rescaled_node_data
from hawkfol.surface import geometry_from_embedding

from curvature_oracles import dchristoffel_from

ORIGIN = np.zeros(3)
TAU = np.array([0.01, 0.0, 0.0])
K_GENERIC = np.array([[0.3, 0.1, 0.0], [0.1, -0.2, 0.05], [0.0, 0.05, 0.4]])


def _node_first(a, rank):
    """View of a node-last kernel result with its `rank` tensor axes moved last."""
    return np.moveaxis(a, range(rank), range(-rank, 0))


def _gamma_at(ds, pts):
    """Christoffel symbols for the oracles, independent of the geodesic kernel."""
    return _node_first(christoffel_from(_node_last(np.linalg.inv(ds.metric_jet(pts, 0)), 2),
                                        _node_last(ds.metric_jet(pts, 1), 3)), 3)


def _rk4(rhs, state, h, n_steps):
    """The state after `n_steps` classical RK4 steps of d state / dt =
    rhs(t, *state) from t = 0, with the step h: a number, or one step per
    leading row of the state arrays."""
    h = np.asarray(h, dtype=float)

    def rows(a):  # h broadcast against a state array
        return h.reshape(h.shape + (1,) * (a.ndim - h.ndim))

    t = 0.0 * h
    for j in range(n_steps):
        k1 = rhs(t, *state)
        k2 = rhs(t + 0.5 * h, *(a + 0.5 * rows(a) * k for a, k in zip(state, k1)))
        k3 = rhs(t + 0.5 * h, *(a + 0.5 * rows(a) * k for a, k in zip(state, k2)))
        k4 = rhs(t + h, *(a + rows(a) * k for a, k in zip(state, k3)))
        state = tuple(a + (rows(a) / 6.0) * (p + 2 * q + 2 * r + w)
                      for a, p, q, r, w in zip(state, k1, k2, k3, k4))
        t = (j + 1) * h
    return state


def _reference_transport(ds, base, v, n_steps, *vectors):
    """(x, u, *vectors) at the end of t -> exp_base(t v), t in [0, 1], with the
    columns of `vectors` parallel transported: the fixed-step RK4 oracle of
    the Chebyshev-Picard integrator, on `geodesic_acceleration`."""
    def rhs(t, x, u, *w):
        transported = ()
        if w:
            gam_u = np.einsum("...ijk,...j->...ik", _gamma_at(ds, x), u)
            transported = tuple(-gam_u @ a for a in w)
        return (u, geodesic.geodesic_acceleration(ds, x, u), *transported)

    v = np.asarray(v, dtype=float)
    state = (np.broadcast_to(base, v.shape), v, *vectors)
    return _rk4(rhs, state, 1.0 / n_steps, n_steps)


def _reference_exp(ds, base, v, n_steps=512):
    """exp_base(v) by `n_steps` RK4 steps."""
    return _reference_transport(ds, base, v, n_steps)[0]


# the pairs (i, j) of the second variations C_ij, in the order of background._SYM6
_PAIR_I = np.array([0, 1, 2, 0, 0, 1])
_PAIR_J = np.array([0, 1, 2, 1, 2, 2])


def _reference_bundle(ds, center, frame, directions, radii, n_steps):
    """(points, DF, D2F) of the chart exp_center(frame y) at y = radii x for the
    unit `directions` x: the fixed-step oracle of VariationBundle.

    Each ray carries the Jacobi fields A_i = s DF e_i and the second
    variations C_ij = s^2 D2F(e_i, e_j), with their s-derivatives B and D,
    through `n_steps` RK4 steps to its own radius.  d^2 Gamma(v, v)
    differentiates g Gamma = S / 2 twice, contracted with v first; d^3 g is
    the 1e-3 stencil gradient of the metric Hessian, since the data sets'
    jets stop at order 2.
    """
    def rhs(t, x, v, A, B, C, D):
        g_inv = np.linalg.inv(ds.metric_jet(x, 0))
        dg, d2g = ds.metric_jet(x, 1), ds.metric_jet(x, 2)
        d3g = _fd_grad(lambda q: ds.metric_jet(q, 2), x, 1e-3)
        g_inv_t, dg_t = _node_last(g_inv, 2), _node_last(dg, 3)
        gam_t = christoffel_from(g_inv_t, dg_t)
        gam = _node_first(gam_t, 3)
        gam_v = np.einsum("nijk,nk->nij", gam, v)
        gam_vv = np.einsum("nij,nj->ni", gam_v, v)
        dgam = dchristoffel_from(g_inv_t, dg_t, _node_last(d2g, 4), gam_t)
        dgam_v = np.einsum("mijkn,nk->nmij", dgam, v)
        dgam_vv = np.einsum("nmij,nj->nmi", dgam_v, v)
        dg_dgam = np.einsum("nmil,nql->nmqi", dg, dgam_vv)
        lowered = ((d2g @ gam_vv[:, None, None, :, None])[..., 0] + dg_dgam
                   + np.swapaxes(dg_dgam, 1, 2)
                   - np.einsum("nmqjlk,nj,nk->nmql", d3g, v, v)
                   + 0.5 * np.einsum("nmqljk,nj,nk->nmql", d3g, v, v))
        d2gam_vv = -(lowered @ g_inv[:, None])

        def pairs(X, Y):  # [n, p, (m, q)] = X[n, p, m] Y[n, p, q]
            return (X[:, :, :, None] * Y[:, :, None, :]).reshape(len(x), 6, 9)

        A1, A2, B1, B2 = A[:, _PAIR_I], A[:, _PAIR_J], B[:, _PAIR_I], B[:, _PAIR_J]
        dB = -(A @ dgam_vv + 2.0 * (B @ np.swapaxes(gam_v, 1, 2)))
        dD = -(pairs(A1, A2) @ d2gam_vv.reshape(len(x), 9, 3)
               + C @ dgam_vv
               + 2.0 * ((pairs(A2, B1) + pairs(A1, B2))
                        @ dgam_v.transpose(0, 1, 3, 2).reshape(len(x), 9, 3))
               + 2.0 * (D @ np.swapaxes(gam_v, 1, 2))
               + 2.0 * (pairs(B1, B2) @ gam.transpose(0, 2, 3, 1).reshape(len(x), 9, 3)))
        return v, -gam_vv, B, dB, D, dD

    n = len(directions)
    state = (np.broadcast_to(center, (n, 3)), directions @ frame.T, np.zeros((n, 3, 3)),
             np.broadcast_to(frame.T, (n, 3, 3)), np.zeros((n, 6, 3)), np.zeros((n, 6, 3)))
    x, _, A, _, C, _ = _rk4(rhs, state, radii / n_steps, n_steps)
    return (x, np.swapaxes(A, 1, 2) / radii[:, None, None],
            np.take(C, _SYM6, axis=1).transpose(0, 3, 1, 2) / (radii ** 2)[:, None, None, None])


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


_STEP_COUNT_CALLS = {
    "RayFan": lambda ds, grid, n: RayFan(ds, ORIGIN, np.eye(3), grid.nodes, 0.05, n_steps=n),
    "graph_surface": lambda ds, grid, n: graph_surface(ds, ORIGIN, ORIGIN, 0.05, None, grid,
                                                       n_steps=n),
    "graph_surface-tau": lambda ds, grid, n: graph_surface(ds, ORIGIN, TAU, 0.05, None, grid,
                                                           n_steps=n),
    "rescaled_phi": lambda ds, grid, n: rescaled_phi(ds, ORIGIN, ORIGIN, 0.05, None, 0.0,
                                                     grid, n_steps=n),
    "rescaled_phi-tau": lambda ds, grid, n: rescaled_phi(ds, ORIGIN, TAU, 0.05, None, 0.0,
                                                         grid, n_steps=n),
}


@pytest.mark.parametrize("n_steps", [0, -3, 2.5])
@pytest.mark.parametrize("call", sorted(_STEP_COUNT_CALLS))
def test_step_count_must_be_a_positive_integer(conformal, small_grid, monkeypatch, call,
                                               n_steps):
    # every integration's right-hand side fails: the count is checked before a step
    for name in ("geodesic_acceleration", "christoffel_from"):
        monkeypatch.setattr(geodesic, name, lambda *args: pytest.fail("integration step"))
    with pytest.raises(InvalidParams, match="n_steps"):
        _STEP_COUNT_CALLS[call](conformal, small_grid, n_steps)


_SIZE_CALLS = {
    "RayFan-nan": lambda ds, grid: RayFan(ds, ORIGIN, np.eye(3), grid.nodes, np.nan),
    "RayFan-inf": lambda ds, grid: RayFan(ds, ORIGIN, np.eye(3), grid.nodes, np.inf),
    "graph_surface-nan": lambda ds, grid: graph_surface(ds, ORIGIN, ORIGIN, np.nan, None, grid),
    "geodesic_sphere-inf": lambda ds, grid: geodesic_sphere(ds, ORIGIN, ORIGIN, np.inf, grid),
    "solve_critical-inf": lambda ds, grid: solve_critical(ds, ORIGIN, np.inf, grid=grid),
    "VariationBundle-nan": lambda ds, grid: VariationBundle(
        ds, ORIGIN, np.eye(3), grid, np.full(grid.n_nodes, np.nan)),
    "VariationBundle-short": lambda ds, grid: VariationBundle(
        ds, ORIGIN, np.eye(3), grid, np.full(grid.n_nodes - 1, 0.05)),
    "VariationBundle-scalar": lambda ds, grid: VariationBundle(
        ds, ORIGIN, np.eye(3), grid, np.float64(0.05)),
}


@pytest.mark.parametrize("call", sorted(_SIZE_CALLS))
def test_sizes_must_be_finite_and_positive(conformal, small_grid, monkeypatch, call):
    for name in ("geodesic_acceleration", "christoffel_from"):
        monkeypatch.setattr(geodesic, name, lambda *args: pytest.fail("integration step"))
    with pytest.raises(InvalidParams, match="finite"):
        _SIZE_CALLS[call](conformal, small_grid)


# a center or frame of the wrong shape or not finite, as (center, frame, message)
_BAD_RAY_ORIGINS = {
    "center-2": (np.zeros(2), np.eye(3), "center"),
    "center-nan": (np.array([0.0, np.nan, 0.0]), np.eye(3), "center"),
    "frame-2x2": (ORIGIN, np.eye(2), "frame"),
    "frame-nan": (ORIGIN, np.where(np.eye(3) > 0, np.nan, 0.0), "frame"),
}


@pytest.mark.parametrize("bad", ["one-direction", "non-unit", "none", *_BAD_RAY_ORIGINS])
def test_bundle_rejects_malformed_directions(conformal, small_grid, monkeypatch, bad):
    # the bundle's directions are the nodes of a grid: an array of directions
    # in its place is rejected, however it is shaped
    for name in ("geodesic_acceleration", "christoffel_from"):
        monkeypatch.setattr(geodesic, name, lambda *args: pytest.fail("integration step"))
    center, frame, match = _BAD_RAY_ORIGINS.get(bad, (ORIGIN, np.eye(3), "SphereGrid"))
    grid = {"one-direction": np.array([0.0, 0.0, 1.0]),
            "non-unit": np.array([[2.0, 0.0, 0.0]]),
            "none": np.zeros((0, 3))}.get(bad, small_grid)
    with pytest.raises(InvalidParams, match=match):
        VariationBundle(conformal, center, frame, grid, np.full(small_grid.n_nodes, 0.05))


def test_transport_carries_leading_batch_axes(conformal):
    frame = transported_center_frame(conformal, ORIGIN, ORIGIN)[1]
    v = np.array([[0.03, -0.01, 0.02], [-0.02, 0.04, 0.01]])
    batched = geodesic._transport(conformal, ORIGIN, v, np.stack([frame, 2 * frame]))
    for b, scale in enumerate((1, 2)):
        single = geodesic._transport(conformal, ORIGIN, v[b], scale * frame)
        for got, want in zip(batched, single):
            assert_allclose(got[b], want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("p", [ORIGIN, np.array([0.1, 0.05, 0.0])], ids=["origin", "off-origin"])
def test_every_tau_moves_the_center(conformal, p):
    # no tau is too small to transport: the center is p + frame_p tau up to
    # O(Gamma |tau|^2), about 1e-19 here, and tau = 0 returns (p, frame_p) exactly
    frame_p = orthonormal_frame(conformal, p)
    tau = np.array([5e-9, -2.5e-9, 0.0])
    center, _ = transported_center_frame(conformal, p, tau)
    assert np.abs(center - p - frame_p @ tau).max() <= 1e-15
    center, frame = transported_center_frame(conformal, p, ORIGIN)
    assert np.array_equal(center, p) and np.array_equal(frame, frame_p)


@pytest.mark.parametrize("which, p, size", [
    ("conformal_k", ORIGIN, 0.01),
    ("conformal_eps1", (0.4, 0.3, 0.0), 0.01),
    ("polynomial", (0.05, -0.02, 0.03), 0.01),
    ("schwarzschild", (2.0, 0.0, 0.0), 0.05),
], ids=["conformal_k", "conformal_eps1", "polynomial", "schwarzschild"])
def test_center_frame_steps_are_at_rounding(conformal_k, which, p, size):
    # the center transport against 512 RK4 steps: within the 64-step error
    # plus 1e-15 per unit of |p| (the rounding of absolute coordinates), for
    # every |tau| <= 0.05 that a test or benchmark transports
    ds = {"conformal_k": conformal_k,
          "conformal_eps1": preset("conformal_quadratic", eps=1.0),
          "polynomial": _non_conformal_polynomial(seed=5),
          "schwarzschild": preset("schwarzschild_slice", mass=1.0)}[which]
    p = np.asarray(p, dtype=float)
    tau = size * np.array([0.6, -0.48, 0.64])
    center, frame = transported_center_frame(ds, p, tau)
    frame_p = orthonormal_frame(ds, p)
    v = frame_p @ tau
    reference = _reference_transport(ds, p, v, 512, frame_p)
    at_64 = _reference_transport(ds, p, v, 64, frame_p)
    bound = 1e-15 * max(1.0, np.linalg.norm(p))
    for got, ref, coarse in ((center, reference[0], at_64[0]), (frame, reference[2], at_64[2])):
        assert np.abs(got - ref).max() <= np.abs(coarse - ref).max() + bound


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
    direct = _reference_exp(conformal, center, 0.0735 * (small_grid.nodes @ frame.T))
    assert np.abs(fan.center + fan.offsets_at(s) - direct).max() < 1e-12


def _unit_directions(n, seed):
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(n, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


_FAN_CASES = pytest.mark.parametrize("which, center, r, band", [
    ("conformal_k", (0.05, -0.02, 0.03), 0.05, 8),
    ("conformal_k", (0.05, -0.02, 0.03), 0.5, 8),
    pytest.param("polynomial", (0.05, -0.02, 0.03), 0.2, 20,   # the tail at band 8 is 2e-7
                 marks=pytest.mark.slow),
    ("schwarzschild", (2.0, 0.0, 0.0), 0.5, 16),     # off the puncture
    ("polynomial", (0.05, -0.02, 0.03), 0.2, None),  # 150 directions, fewer than 200 rays
], ids=["conformal_k-0.05", "conformal_k-0.5", "polynomial-0.2", "schwarzschild-0.5",
        "polynomial-0.2-per-direction"])


def _fan_case(conformal_k, grid, which, center, r, band):
    """(data set, center, frame, directions, fan to s_max = r): the fan's rays
    run on its coarse grid, over the 32 x 64 nodes and 256 random directions;
    below the first grid's 200 rays the fan integrates its directions
    themselves."""
    ds = {"conformal_k": conformal_k, "polynomial": _non_conformal_polynomial(seed=5),
          "schwarzschild": preset("schwarzschild_slice", mass=1.0)}[which]
    c, frame = transported_center_frame(ds, center, ORIGIN)
    directions = (_unit_directions(150, 6) if band is None
                  else np.concatenate([grid.nodes, _unit_directions(256, 6)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", BandLimitExceeded)
        fan = RayFan(ds, c, frame, directions, s_max=r, n_steps=64)
    assert fan.band_limit == band
    return ds, c, frame, directions, fan


@_FAN_CASES
def test_band_limited_fan_matches_exp_map(conformal_k, grid, which, center, r, band):
    # the offsets at s = s_max, the end of the last Chebyshev segment,
    # against one 512-step RK4 ray per direction
    ds, c, frame, directions, fan = _fan_case(conformal_k, grid, which, center, r, band)
    direct = _reference_exp(ds, c, r * (directions @ frame.T)) - c
    assert np.abs(fan.offsets_at(np.full(len(directions), r)) - direct).max() < 1e-13 * r


@_FAN_CASES
def test_fan_matches_exp_map_between_its_nodes(conformal_k, grid, which, center, r, band):
    # each direction at its own radius in [0.75 r, 0.92 r], between the
    # Chebyshev nodes, against one 1024-step RK4 ray per direction (cubic
    # Hermite interpolation between 65 stored radii reads 1.3e-12 r off on
    # the polynomial and 1.3e-13 r on Schwarzschild)
    ds, c, frame, directions, fan = _fan_case(conformal_k, grid, which, center, r, band)
    x, y, z = directions.T
    s = r * (1 + 0.2 * x * y + 0.1 * z * z) / 1.2
    direct = _reference_exp(ds, c, s[:, None] * (directions @ frame.T), 1024) - c
    assert np.abs(fan.offsets_at(s) - direct).max() < 1e-13 * r


@pytest.mark.parametrize("which, center, r, n_steps", [
    ("conformal_quadratic(-0.25, k)", ORIGIN, 0.8, 1024),
    # the top two coefficients of xi read 4.6e-5 r at 9 nodes, 1.1e-8 r at 17
    # and 2.3e-15 r at 33, against a bound of 7.2e-16 r: the node count grows
    # to 65.  The 1024-step reference is off by 2.4e-13 r here, 16 times less
    # at 2048 steps
    ("conformal_quadratic(-0.25, k)", ORIGIN, 1.0, 2048),
    ("polynomial", (0.05, -0.02, 0.03), 0.2, 1024),
    ("schwarzschild", (2.0, 0.0, 0.0), 0.5, 1024),
], ids=["conformal_quadratic-0.8", "conformal_quadratic-1.0", "polynomial-0.2",
        "schwarzschild-0.5"])
def test_fan_rays_are_resolved_in_s(which, center, r, n_steps):
    # the rays to s_max = 1.3 r, the solver's, against one RK4 ray per
    # direction at 256 random directions: a coarse grid of band limit 8 on
    # conformal_quadratic, the directions themselves on the other two
    ds = {"conformal_quadratic(-0.25, k)": preset("conformal_quadratic", eps=-0.25,
                                                  k=K_GENERIC),
          "polynomial": _non_conformal_polynomial(seed=5),
          "schwarzschild": preset("schwarzschild_slice", mass=1.0)}[which]
    c, frame = transported_center_frame(ds, center, ORIGIN)
    directions = _unit_directions(256, 7)
    fan = RayFan(ds, c, frame, directions, s_max=1.3 * r)
    direct = _reference_exp(ds, c, 1.3 * r * (directions @ frame.T), n_steps) - c
    assert np.abs(fan.offsets_at(np.full(len(directions), 1.3 * r)) - direct).max() < 1e-13 * r


def test_fan_integrates_a_coarse_grid_not_one_ray_per_direction(conformal_k, monkeypatch):
    # a batch holds every Chebyshev node of every ray, (nodes, rays, 3)
    rays = []
    acceleration = geodesic.geodesic_acceleration

    def recording(ds, pts, vel):
        rays.append(pts.shape[-2])
        return acceleration(ds, pts, vel)

    monkeypatch.setattr(geodesic, "geodesic_acceleration", recording)
    nodes = default_grid(64, 128).nodes
    RayFan(conformal_k, ORIGIN, np.eye(3), nodes, s_max=0.065, n_steps=8)
    assert rays and max(rays) <= 300


def test_fan_makes_one_kernel_call_per_iteration(conformal_k, grid, monkeypatch):
    # the solver's fan: a handful of Chebyshev-Picard iterations, where 64 RK4
    # steps made 256 calls
    calls = []
    acceleration = geodesic.geodesic_acceleration

    def recording(ds, pts, vel):
        calls.append(pts.shape)
        return acceleration(ds, pts, vel)

    monkeypatch.setattr(geodesic, "geodesic_acceleration", recording)
    center, frame = transported_center_frame(conformal_k, ORIGIN, [0.006, -0.008, 0.0])
    fan = RayFan(conformal_k, center, frame, grid.nodes, s_max=1.3 * 0.05, n_steps=64)
    assert fan.band_limit == 8 and len(calls) <= 8
    # a short ray on smooth data stops at the first node count: every call
    # holds 9 Chebyshev nodes of the 200 rays of band limit 8
    assert set(calls) == {(9, 200, 3)}


def test_picard_node_counts_nest():
    # each count's Lobatto nodes hold the last one's exactly, so the warm
    # start of a larger count copies the smaller count's solution there
    counts = geodesic._PICARD_NODES
    for small, large in zip(counts, counts[1:]):
        assert np.array_equal(geodesic._chebyshev(large)[0][::2], geodesic._chebyshev(small)[0])


def test_rough_rays_climb_past_the_first_node_count():
    # the seed-5 polynomial at r = 0.2 needs more than degree 8 in s: the
    # ladder climbs where the data ask for it
    ds = _non_conformal_polynomial(seed=5)
    c, frame = transported_center_frame(ds, (0.05, -0.02, 0.03), ORIGIN)
    fan = RayFan(ds, c, frame, _unit_directions(256, 7), s_max=1.3 * 0.2)
    assert fan.band_limit is None and min(m for _, _, m, _ in fan._segments) >= 17


def test_fans_over_the_same_nodes_share_one_basis(conformal_k, monkeypatch):
    built = []
    basis = geodesic.point_basis

    def recording(band, points):
        built.append(band)
        return basis(band, points)

    monkeypatch.setattr(geodesic, "point_basis", recording)
    directions = _unit_directions(300, 11)  # asked for by no other test
    fans = [RayFan(conformal_k, ORIGIN, np.eye(3), directions.copy(), s_max=0.05)
            for _ in range(2)]
    assert built == [8]
    s = np.full(len(directions), 0.04)
    assert np.array_equal(fans[0].offsets_at(s), fans[1].offsets_at(s))


def test_unresolvable_ray_raises(flat, monkeypatch):
    # a metric gradient of random noise at every evaluation: no segment's
    # iteration contracts until the segments are below rounding
    rng = np.random.default_rng(0)

    def noisy(pts, n):
        return rng.normal(size=pts.shape[:-1] + (3,) * (n + 2)) if n else flat.metric_jet(pts, 0)

    ds = dataclasses.replace(flat, metric_jet=noisy)
    with pytest.raises(StepSizeUnderflow, match="does not resolve"):
        RayFan(ds, ORIGIN, np.eye(3), _unit_directions(16, 3), s_max=0.1)
    with pytest.raises(StepSizeUnderflow, match="does not resolve"):
        exp_map(ds, ORIGIN, np.array([0.1, 0.0, 0.0]))


@pytest.mark.parametrize("bad", ["one-direction", "non-unit", "none", *_BAD_RAY_ORIGINS])
def test_fan_rejects_malformed_directions(conformal, small_grid, monkeypatch, bad):
    monkeypatch.setattr(geodesic, "geodesic_acceleration",
                        lambda *args: pytest.fail("integration step"))
    center, frame, match = _BAD_RAY_ORIGINS.get(bad, (ORIGIN, np.eye(3), "unit vectors"))
    directions = {"one-direction": np.array([0.0, 0.0, 1.0]),
                  "non-unit": 1.01 * small_grid.nodes,
                  "none": np.zeros((0, 3))}.get(bad, small_grid.nodes)
    with pytest.raises(InvalidParams, match=match):
        RayFan(conformal, center, frame, directions, 0.05, n_steps=8)


@pytest.mark.parametrize("bad", ["nan", "short", "negative"])
def test_fan_query_needs_one_finite_radius_per_direction(conformal, small_grid, bad):
    fan = RayFan(conformal, ORIGIN, np.eye(3), small_grid.nodes, 0.05, n_steps=8)
    s = {"nan": np.full(small_grid.n_nodes, np.nan),
         "short": np.full(small_grid.n_nodes - 1, 0.04),
         "negative": np.where(small_grid.nodes[:, 2] > 0, 0.04, -0.01)}[bad]
    with pytest.raises(InvalidParams, match="one finite radius per direction"):
        fan.offsets_at(s)


def _non_conformal_polynomial(seed=4, **k_params):
    rng = np.random.default_rng(seed)
    c4 = rng.normal(size=(3, 3, 3, 3))
    c4 = c4 + c4.transpose(1, 0, 2, 3)
    return preset("polynomial", g_quadratic=0.05 * (c4 + c4.transpose(0, 1, 3, 2)), **k_params)


@pytest.mark.parametrize("which, x", [("conformal_k", (0.08, -0.03, 0.05)),
                                      ("polynomial", (0.08, -0.03, 0.05)),
                                      ("schwarzschild", (0.6, 0.2, 0.5))],
                         ids=["conformal_k", "polynomial", "schwarzschild"])
def test_christoffel_derivative_algebra_against_stencils(which, x, conformal_k):
    # dGamma closed-form assembly versus a direct stencil on the pointwise
    # Christoffel map
    from hawkfol.background import _inverse_metric
    ds = {"conformal_k": conformal_k, "polynomial": _non_conformal_polynomial(),
          "schwarzschild": preset("schwarzschild_slice", mass=1.0)}[which]
    pts = np.array([x])
    g_inv = _inverse_metric(_node_last(ds.metric_jet(pts, 0), 2))
    dg = _node_last(ds.metric_jet(pts, 1), 3)

    def gamma_map(q):
        return _node_first(christoffel_from(_inverse_metric(_node_last(ds.metric_jet(q, 0), 2)),
                                            _node_last(ds.metric_jet(q, 1), 3)), 3)

    dgam = dchristoffel_from(g_inv, dg, _node_last(ds.metric_jet(pts, 2), 4),
                             christoffel_from(g_inv, dg))[..., 0]
    assert np.abs(dgam - _fd_grad(gamma_map, pts, 1e-4)[0]).max() < 1e-9


def test_variation_bundle_chart_identities(conformal_k, small_grid):
    # normal coordinates: radial lines are geodesics and the Gauss lemma holds
    center, frame = transported_center_frame(conformal_k, ORIGIN, [0.01, -0.004, 0.002])
    radii = np.full(small_grid.n_nodes, 0.06)
    bundle = VariationBundle(conformal_k, center, frame, small_grid, radii)
    from hawkfol.background import ambient_fields
    amb = ambient_fields(conformal_k, bundle.points)
    ghat = np.einsum("nab,nai,nbj->nij", amb.metric, bundle.df, bundle.df)
    gamhat = np.einsum("nkc,ncij->nkij", np.linalg.inv(bundle.df),
                       bundle.d2f + np.einsum("ncab,nai,nbj->ncij",
                                              amb.christoffel, bundle.df, bundle.df))
    x = small_grid.nodes
    assert np.abs(np.einsum("nij,nj->ni", ghat, x) - x).max() < 1e-12
    assert np.abs(np.einsum("nkij,ni,nj->nk", gamhat, x, x)).max() < 1e-12


def test_flat_bundle_is_the_frame_exactly(flat, grid):
    # the flat parts of DF and D2F cancel in closed form
    frame = np.linalg.qr(np.random.default_rng(2).normal(size=(3, 3)))[0]
    x = grid.nodes.T
    bundle = VariationBundle(flat, [0.3, -0.1, 0.2], frame, grid,
                             0.5 * (1 + 0.2 * x[0] * x[1] + 0.1 * x[2] ** 2))
    assert np.array_equal(bundle.df, np.broadcast_to(frame, bundle.df.shape))
    assert not bundle.d2f.any()


@pytest.mark.parametrize("which, center, r, n_steps", [
    ("conformal_k", (0.05, -0.02, 0.03), 0.06, 128),
    ("polynomial", (0.05, -0.02, 0.03), 0.2, 512),
    ("schwarzschild", (2.0, 0.0, 0.0), 0.5, 256),     # off the puncture
], ids=["conformal_k", "polynomial", "schwarzschild"])
@pytest.mark.parametrize("radii", ["equal", "varying"])
def test_band_limited_bundle_matches_one_ray_per_direction(conformal_k, grid, which, center,
                                                           r, n_steps, radii):
    # the bundle on the 32 x 64 nodes, read from the series of its coarse
    # rays, against the RK4 Jacobi-field oracle at every 31st node, each ray
    # integrated to its own radius.  Measured: points 1.1e-14 r, DF 1.2e-14,
    # D2F 1.5e-13 (schwarzschild; 1.2e-13 on the polynomial, whose 256-step
    # oracle is itself 2.6e-13 off and whose 128-step one 4e-12).  The
    # 12-step RK4 bundle this replaced read D2F errors of 2.7e-9 (conformal_k)
    # and 8.8e-7 (polynomial) of max |D2F| at the varying radii.
    ds = {"conformal_k": conformal_k, "polynomial": _non_conformal_polynomial(seed=5),
          "schwarzschild": preset("schwarzschild_slice", mass=1.0)}[which]
    c, frame = transported_center_frame(ds, center, [0.01, -0.004, 0.002])
    x = grid.nodes.T
    s = np.full(grid.n_nodes, r) if radii == "equal" else r * (1 + 0.2 * x[0] * x[1]
                                                               + 0.1 * x[2] ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", BandLimitExceeded)
        bundle = VariationBundle(ds, c, frame, grid, s)
    assert bundle.band_limit is not None
    some = slice(None, None, 31)
    points, df, d2f = _reference_bundle(ds, c, frame, grid.nodes[some], s[some], n_steps)
    assert np.abs(bundle.points[some] - points).max() < 1e-13 * r
    assert np.abs(bundle.df[some] - df).max() < 1e-13
    assert np.abs(bundle.d2f[some] - d2f).max() < 1e-13 / r


def test_bundle_integrates_its_directions_where_the_cap_leaves_a_tail(small_grid):
    # 512 directions cap the fan's coarse grid at band limit 12 (392 rays)
    # and the polynomial data need 20 at r = 0.2: the fan integrates its
    # directions themselves, and the bundle, which needs the angle
    # derivatives of the coarse series, grows its grid past the 512 nodes.
    # Measured against the oracle: points 1.7e-15 r, DF 2.4e-15, D2F 1.5e-14 / r.
    ds = _non_conformal_polynomial(seed=5)
    c, frame = transported_center_frame(ds, (0.05, -0.02, 0.03), [0.01, -0.004, 0.002])
    directions = small_grid.nodes
    s = 0.2 * (1 + 0.1 * directions[:, 0] * directions[:, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error", BandLimitExceeded)
        fan = RayFan(ds, c, frame, directions, s_max=0.2, n_steps=16)
        bundle = VariationBundle(ds, c, frame, small_grid, s)
    assert fan.band_limit is None
    direct = _reference_exp(ds, c, 0.2 * (directions @ frame.T)) - c
    assert np.abs(fan.offsets_at(np.full(len(directions), 0.2)) - direct).max() < 1e-13 * 0.2
    assert bundle.band_limit > 12
    some = slice(None, None, 14)
    points, df, d2f = _reference_bundle(ds, c, frame, directions[some], s[some], 512)
    assert np.abs(bundle.points[some] - points).max() < 1e-13 * 0.2
    assert np.abs(bundle.df[some] - df).max() < 1e-13
    assert np.abs(bundle.d2f[some] - d2f).max() < 1e-13 / 0.2


@pytest.mark.parametrize("which, center, r, n_steps", [
    ("conformal_k", (0.05, -0.02, 0.03), 0.06, 128),
    ("polynomial", (0.05, -0.02, 0.03), 0.2, 512),
    ("schwarzschild", (2.0, 0.0, 0.0), 0.5, 256),
], ids=["conformal_k", "polynomial", "schwarzschild"])
def test_bundle_on_fewer_nodes_than_coarse_rays_matches_the_oracle(conformal_k, which, center,
                                                                   r, n_steps):
    # the 128 nodes of an 8 x 16 grid, fewer than the 200 rays of the first
    # coarse grid, read from the coarse series like any other grid (band
    # limits 8, 20 and 16).  Measured: points 1.6e-15 r, 1.9e-15 r and
    # 7.1e-15 r, DF 8.9e-16, 2.4e-15 and 6.3e-15, D2F 3.0e-18, 1.2e-14 and
    # 4.9e-14 (/ r).
    ds = {"conformal_k": conformal_k, "polynomial": _non_conformal_polynomial(seed=5),
          "schwarzschild": preset("schwarzschild_slice", mass=1.0)}[which]
    grid = default_grid(8, 16)
    c, frame = transported_center_frame(ds, center, [0.01, -0.004, 0.002])
    x = grid.nodes.T
    s = r * (1 + 0.2 * x[0] * x[1] + 0.1 * x[2] ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", BandLimitExceeded)
        bundle = VariationBundle(ds, c, frame, grid, s)
    some = slice(None, None, 5)
    points, df, d2f = _reference_bundle(ds, c, frame, grid.nodes[some], s[some], n_steps)
    assert np.abs(bundle.points[some] - points).max() < 1e-13 * r
    assert np.abs(bundle.df[some] - df).max() < 1e-13
    assert np.abs(bundle.d2f[some] - d2f).max() < 1e-13 / r


def test_bundle_warns_where_its_largest_grid_leaves_a_tail(monkeypatch):
    # the polynomial data need band limit 20 at r = 0.2: a largest grid of 16 leaves a tail
    monkeypatch.setattr(geodesic, "_MAX_BUNDLE_BAND", 16)
    ds = _non_conformal_polynomial(seed=5)
    grid = default_grid(8, 16)
    with pytest.warns(BandLimitExceeded, match="band limit 16"):
        bundle = VariationBundle(ds, (0.05, -0.02, 0.03), np.eye(3), grid,
                                 np.full(grid.n_nodes, 0.2))
    assert bundle.band_limit == 16


@pytest.mark.parametrize("n_theta", [16, 8], ids=["coarse", "directions"])
def test_bundle_rays_reach_the_largest_radius(conformal_k, n_theta):
    # every ray runs out to the largest radius, 0.15 towards -x: the bundle's
    # points stay within 0.26 of the origin, but the rays towards +x reach
    # about 0.35, past a chart of radius 0.3.  The grids have more, and
    # fewer, nodes than the 200 rays of the first coarse grid.
    grid = default_grid(n_theta, 2 * n_theta)
    c, frame = transported_center_frame(conformal_k, (0.2, 0.0, 0.0), ORIGIN)
    radii = 0.1 - 0.05 * grid.nodes[:, 0]
    wide = dataclasses.replace(conformal_k, chart_radius=0.4)
    bundle = VariationBundle(wide, c, frame, grid, radii)
    assert bundle.band_limit is not None
    assert np.linalg.norm(bundle.points, axis=1).max() < 0.26
    narrow = dataclasses.replace(conformal_k, chart_radius=0.3)
    with pytest.raises(ChartExceeded):
        VariationBundle(narrow, c, frame, grid, radii)


def test_bundle_of_non_finite_data_raises(conformal_k):
    def jet(pts, n):
        value = conformal_k.metric_jet(pts, n)
        return np.full_like(value, np.nan) if n == 1 else value

    ds = dataclasses.replace(conformal_k, metric_jet=jet)
    for grid in (default_grid(16, 32), default_grid(8, 16)):  # more, and fewer, nodes than rays
        with pytest.raises(DegenerateMetric, match="not finite"):
            VariationBundle(ds, ORIGIN, np.eye(3), grid, np.full(grid.n_nodes, 0.05))


def test_bundle_integrates_a_coarse_grid_not_one_ray_per_direction(conformal_k):
    # the rays' kernel calls carry (Chebyshev nodes, rays) points; the one
    # call at the 8192 nodes is the acceleration of the queried state
    batches = []

    def recording(pts, n):
        batches.append(np.shape(pts)[:-1])
        return conformal_k.metric_jet(pts, n)

    ds = dataclasses.replace(conformal_k, metric_jet=recording)
    grid = default_grid(64, 128)
    VariationBundle(ds, ORIGIN, np.eye(3), grid, np.full(grid.n_nodes, 0.065))
    rays = [shape[1] for shape in batches if len(shape) == 2]
    assert rays and max(rays) <= 300
    assert {shape for shape in batches if len(shape) != 2} == {(grid.n_nodes,)}


class TestRoundSpheres:
    @pytest.mark.parametrize("r", [0.1, 1.0, 10.0])
    def test_flat_round_sphere(self, flat, grid, r):
        s = geodesic_sphere(flat, ORIGIN, ORIGIN, r, grid)
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
        s = geodesic_sphere(flat, ORIGIN, ORIGIN, 1.0, grid)
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
        # finite differences of RK4 rays in the shooting direction
        r = 0.06
        s = geodesic_sphere(conformal, ORIGIN, ORIGIN, r, grid)
        d1x, _ = grid.embedding_derivatives
        nodes = np.array([137, 900, 1500])
        eta = 1e-5 * r
        w = r * d1x[nodes]                                     # (node, a, 3)
        shots = _reference_exp(conformal, ORIGIN, r * grid.nodes[nodes, None, None]
                               + eta * np.array([-2, -1, 1, 2])[:, None] * w[:, :, None])
        fd = (shots[:, :, 0] - 8 * shots[:, :, 1] + 8 * shots[:, :, 2]
              - shots[:, :, 3]) / (12 * eta)
        assert np.abs(s.d1[nodes] - fd).max() < 1e-9 * r


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
    s = geodesic_sphere(ds, ORIGIN, ORIGIN, 0.7, grid)
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
        s = geodesic_sphere(flat, ORIGIN, ORIGIN, 2.0, grid)
        assert abs(s.integral(np.ones(grid.n_nodes)) - 16 * np.pi) < 1e-10

    def test_moment_fields(self, flat, grid):
        s = geodesic_sphere(flat, ORIGIN, ORIGIN, 1.0, grid)
        x = grid.nodes
        assert abs(s.integral(x[:, 0] * x[:, 1])) < 1e-12
        assert abs(s.integral(x[:, 0] ** 2) - moment_value((0, 0))) < 1e-12

    def test_shape_mismatch(self, flat, grid):
        s = geodesic_sphere(flat, ORIGIN, ORIGIN, 1.0, grid)
        with pytest.raises(ValueError):
            s.integral(np.ones(7))


def test_degenerate_induced_metric(flat, grid):
    positions = np.zeros((grid.n_nodes, 3))
    with pytest.raises(DegenerateInducedMetric):
        surface_from_positions(flat, grid, positions, check_band=False)


@pytest.mark.parametrize("scale", [1e200, np.inf, np.nan])
def test_non_finite_induced_metric_raises_without_warnings(conformal, grid, scale):
    # embedding derivatives whose induced metric overflows, as a diverging
    # Newton step produces: a typed error, and no overflow warning first
    s = geodesic_sphere(conformal, ORIGIN, ORIGIN, 0.05, grid)
    d1 = s.d1.copy()
    d1[100] *= scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateInducedMetric, match="not finite"):
            geometry_from_embedding(grid, d1, np.zeros(d1.shape[:1] + (2, 2, 3)), s.ambient)


# per-node tensor fields and their ranks; positions and points are inputs
_AMBIENT_RANKS = {"metric": 2, "metric_inv": 2, "christoffel": 3, "ricci": 2, "k": 2,
                  "k_trace": 0, "grad_k": 3}
_SURFACE_RANKS = {"d1": 2, "normal": 1, "metric": 2, "metric_inv": 2, "area_element": 0,
                  "second_form": 2, "mean_curvature": 0, "traceless_second_norm_sq": 0,
                  "p_trace": 0, "surface_christoffel": 3}


def _node_last_contiguous(obj, ranks):
    """Names of the fields whose node-last view is not C-contiguous."""
    return [name for name, rank in ranks.items()
            if not _node_last(getattr(obj, name), rank).flags.c_contiguous]


@pytest.mark.parametrize("which", ["conformal_k", "polynomial", "schwarzschild",
                                   "finite_difference", "node_first_values"])
def test_fields_are_views_of_node_last_arrays(which, conformal_k, grid):
    """Every tensor field of the ambient data, of graph and coordinate
    spheres and of the rescaled ball is a node-first view of a contiguous
    node-last array, so the node-last kernels read it without a copy: on
    preset jets, whose constant orders are broadcasts, and on the node-first
    jets of finite-difference data, here also with C-ordered node-first
    values.  Finite-difference data skip the ball: their bundle climbs past
    band limit 48 on the stencils' noise floor (ROADMAP item 16)."""
    rng = np.random.default_rng(2)
    phi = HarmonicField(np.concatenate([np.zeros(4), 0.01 * rng.normal(size=5)]), 2)
    center = np.array([2.0, 0.0, 0.0]) if which == "schwarzschild" else ORIGIN
    if which == "polynomial":
        k1 = rng.normal(size=(3, 3, 3))
        ds = _non_conformal_polynomial(seed=5, k_constant=conformal_k.k_jet(ORIGIN, 0),
                                       k_linear=0.1 * (k1 + k1.transpose(0, 2, 1)))
    else:
        ds = {"conformal_k": conformal_k, "schwarzschild": preset("schwarzschild_slice", mass=1.0),
              "finite_difference": conformal_k.with_finite_differences(),
              "node_first_values": InitialDataSet.from_values(
                  lambda pts: np.ascontiguousarray(conformal_k.metric_jet(pts, 0)),
                  lambda pts: np.ascontiguousarray(conformal_k.k_jet(pts, 0)))}[which]
    assert not _node_last_contiguous(ambient_fields(ds, center + 0.05 * grid.nodes),
                                     _AMBIENT_RANKS)
    for s in (graph_surface(ds, center, TAU, 0.05, phi, grid),
              coordinate_sphere(ds, center, 0.05, grid)):
        assert not _node_last_contiguous(s, _SURFACE_RANKS)
        assert not _node_last_contiguous(s.ambient, _AMBIENT_RANKS)
    if ds.derivative_mode == "finite_difference":
        return
    factor = 1.0 + synthesize(phi, grid)
    ball = _rescaled_node_data(ds, center, TAU, 0.05, grid, factor)
    assert not _node_last_contiguous(ball, _AMBIENT_RANKS)


def test_band_limit_warning_on_noisy_positions(flat, grid):
    rng = np.random.default_rng(3)
    positions = grid.nodes + 1e-3 * rng.normal(size=(grid.n_nodes, 3))
    with pytest.warns(BandLimitExceeded):
        surface_from_positions(flat, grid, positions)
    with warnings.catch_warnings():
        warnings.simplefilter("error", BandLimitExceeded)
        surface_from_positions(flat, grid, positions, check_band=False)
