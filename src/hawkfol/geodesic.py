"""Geodesic shooting and radial ray bundles.

Surfaces are built from radial geodesics ("rays") leaving a common center.
A RayFan integrates its rays once, as their deviation from the straight chord
(for conditioning), and answers position queries at arbitrary radii through
cubic Hermite interpolation, so changing the radial graph function never
forces a re-integration.  A VariationBundle additionally carries the Jacobi
fields and second variations of the exponential map, which give the exact
differential and Hessian of the normal-coordinate chart needed by the
rescaled operator; it integrates them as deviations from their flat-space
values too, over [0, max radius], and interpolates each direction at its
own radius.

Both run their rays through one helper, `_CoarseRays`, by one rule.  The
deviations are smooth in the direction, so the rays run only on a coarse
Gauss grid, (L + 2) x (2L + 4) nodes at band limit L, whose harmonic
coefficients are kept at every step and synthesised at the requested
directions.  L starts at 8 (200 rays, whatever the surface grid) and grows by
4 while the top two degrees of a stored quantity at the end of the rays carry
more than its rounding, 1e-16 s_max plus 1e-14 of its largest coefficient.
Whenever the next grid would hold more rays than there are requested
directions, the directions themselves are integrated instead (fewer than 200
directions are so from the start) and `band_limit` is None, so no output
carries an interpolation error above rounding.  Every integrated state must
be finite, or DegenerateMetric is raised.  The rays are chart-checked at every
step, and the returned positions when they are queried.

Kernel
------
Geodesics are driven by `geodesic_acceleration`, the one hand-contracted
connection: it contracts the velocity into the metric gradient before raising
the index, so -Gamma(v, v) costs a few 3-vector contractions per node and one
closed-form 3x3 inverse at every step of every ray.  The center-frame
transport and VariationBundle take Gamma and d Gamma from `christoffel_from`
and `dchristoffel_from`; the bundle builds d^2 Gamma(v, v) by the same rule
(differentiate g Gamma = S / 2), so no derivative of g^-1 is formed.  Every
integration here (exp_map, the center-frame transport, RayFan,
VariationBundle) runs in one loop, `_rk4`, which alone checks the step count,
forms the step size and checks the chart after every step; exp_map is the
center-frame transport with no vectors to carry.
"""

from __future__ import annotations

import numpy as np

from .background import (_SYM6, InitialDataSet, _inverse_metric, christoffel_from,
                         dchristoffel_from)
from .errors import (ChartExceeded, DegenerateMetric, InvalidParams, StepSizeUnderflow, as_count,
                     as_point)
from .grid import default_grid
from .harmonics import analyze, point_basis

_CENTER_FRAME_STEPS = 16
# The coarse ray grid: its starting band limit and increment.  The top two
# degrees of a value group at s_max are at rounding when their coefficients
# are below _TAIL s_max plus the analysis rounding, _ROUNDING times the
# group's largest coefficient: on data whose xi is exactly degree 1, the other
# degrees read 5e-16 of it at band limit 8 and up to 2e-14 at band limit 28.
_START_BAND = 8
_BAND_STEP = 4
_TAIL = 1e-16
_ROUNDING = 1e-14


def geodesic_acceleration(ds: InitialDataSet, pts: np.ndarray, vel: np.ndarray) -> np.ndarray:
    """-Gamma(v, v) = -1/2 g^-1 (2 d_j g_lk v^j v^k - d_l g_jk v^j v^k).

    v is contracted into the metric gradient first; Gamma is never formed.
    """
    g_inv = _inverse_metric(ds.metric_jet(pts, 0))
    dg_v = np.einsum("...lij,...j->...li", ds.metric_jet(pts, 1), vel)
    lowered = (2.0 * np.einsum("...jl,...j->...l", dg_v, vel)
               - np.einsum("...lj,...j->...l", dg_v, vel))
    return -0.5 * np.einsum("...il,...l->...i", g_inv, lowered)


def _rk4(ds: InitialDataSet, rhs, state, span: float, n_steps,
         position=lambda t, state: state[0]):
    """Iterator over (t, state) after each of `n_steps` classical RK4 steps on [0, span].

    `rhs(t, *state)` returns the tuple of derivatives of the tuple of arrays
    `state`.  InvalidParams unless `n_steps` is an integer >= 1, raised on
    the call.  After every step `position(t, state)` is checked against the
    chart.
    """
    n_steps = as_count(n_steps, "n_steps")
    h = span / n_steps

    def steps(state):
        t = 0.0
        for j in range(n_steps):
            k1 = rhs(t, *state)
            k2 = rhs(t + 0.5 * h, *(a + 0.5 * h * k for a, k in zip(state, k1)))
            k3 = rhs(t + 0.5 * h, *(a + 0.5 * h * k for a, k in zip(state, k2)))
            k4 = rhs(t + h, *(a + h * k for a, k in zip(state, k3)))
            state = tuple(a + (h / 6.0) * (p + 2 * q + 2 * r + w)
                          for a, p, q, r, w in zip(state, k1, k2, k3, k4))
            t = (j + 1) * h
            ds.check_chart(position(t, state))
            yield t, state

    return steps(state)


def orthonormal_frame(ds: InitialDataSet, point) -> np.ndarray:
    """Columns form a g-orthonormal basis at the point (Cholesky gauge)."""
    g = ds.metric_jet(as_point(point, "point"), 0)
    _inverse_metric(g)  # raises DegenerateMetric unless g is positive definite
    chol = np.linalg.cholesky(g)
    return np.linalg.inv(chol).T


def exp_map(ds: InitialDataSet, base, v, n_steps: int = 64) -> np.ndarray:
    """Endpoint exp_base(v) of the geodesic with initial velocity v.

    `v` may carry leading batch axes.  Fixed-step RK4 on the first-order
    system; the trajectory is chart-checked at every step.
    """
    return _transport(ds, base, v, n_steps)[0]


def _transport(ds: InitialDataSet, base, v, n_steps: int, *vectors):
    """Final state (x, u, *vectors) of t -> exp_base(t v) on [0, 1]: `v` is (..., 3),
    and the columns of each of `vectors` (..., 3, m) are parallel transported."""
    base = as_point(base, "base")
    v = np.asarray(v, dtype=float)

    def rhs(t, x, u, *w):
        gam = christoffel_from(_inverse_metric(ds.metric_jet(x, 0)), ds.metric_jet(x, 1))
        gam_u = np.einsum("...ijk,...j->...ik", gam, u)      # Gamma(u, .)
        return (u, -(gam_u @ u[..., None])[..., 0], *(-gam_u @ a for a in w))

    state = (np.broadcast_to(base, v.shape), v, *(np.asarray(a, dtype=float) for a in vectors))
    for _, state in _rk4(ds, rhs, state, 1.0, n_steps):
        pass
    return state


def transported_center_frame(ds: InitialDataSet, p, tau):
    """Center c(tau) = exp_p(tau^i e_i) and the parallel frame e_i^tau there.

    `tau` is given in the orthonormal frame at p.  Every tau is transported:
    one integration of `_CENTER_FRAME_STEPS` RK4 steps carries both the center
    and the frame, and at tau = 0 it returns (p, e_i) exactly, since a zero
    velocity moves nothing.  16 steps are at rounding against a 512-step
    transport for |tau| <= 0.05 on every preset the tests and benchmarks reach.
    """
    p, tau = as_point(p, "p"), as_point(tau, "tau")
    frame_p = orthonormal_frame(ds, p)
    center, _, frame = _transport(ds, p, frame_p @ tau, _CENTER_FRAME_STEPS, frame_p)
    return center, frame


def _ray_inputs(center, frame, directions):
    """`center` (3,), `frame` (3, 3) and unit `directions` (n, 3), n >= 1, as
    float arrays; InvalidParams unless they have those shapes and are finite."""
    center = as_point(center, "the ray center")
    frame, directions = np.asarray(frame, dtype=float), np.asarray(directions, dtype=float)
    if frame.shape != (3, 3) or not np.all(np.isfinite(frame)):
        raise InvalidParams("the ray frame must be a finite matrix of shape (3, 3)")
    if (directions.ndim != 2 or directions.shape[1] != 3 or len(directions) == 0
            or not np.all(np.abs(np.linalg.norm(directions, axis=1) - 1.0) <= 1e-12)):
        raise InvalidParams("directions must be unit vectors of shape (n, 3) with n >= 1")
    return center, frame, directions


def _n_rays(band: int) -> int:
    """Rays of the coarse Gauss grid of band limit `band`, (band + 2) x (2 band + 4)."""
    return (band + 2) * (2 * band + 4)


class _CoarseRays:
    """Rays from a common center, integrated on a coarse Gauss grid or along
    the requested directions, by the rule of the module docstring.

    The ray along the unit direction d leaves `center` with chart velocity
    u = frame @ d.  Its state is (value, d value / ds): value groups of the
    trailing shapes `shapes`, the first of them the deviation xi of the ray
    from its chord (the ray is at center + s u + xi), then their
    s-derivatives in the same order.  The state starts at zero and
    `rhs(s, u, *state)` returns its s-derivative; every group should vanish
    in flat space, so that its rounding is relative to itself and not to a
    chord part, and each group has its own tail bound.  `n_steps` RK4 steps
    cover [0, s_max].  The states are stored at every step: as harmonic
    coefficients on a coarse grid of band limit `band_limit`, or as they are
    when `band_limit` is None.
    """

    def __init__(self, ds: InitialDataSet, center, frame, directions, s_max: float,
                 n_steps: int, shapes, rhs):
        self.ds = ds
        self.center = center
        self.s_max = s_max
        self.n_steps = as_count(n_steps, "n_steps")
        self._h = s_max / self.n_steps
        if self._h < 1e-14:
            raise StepSizeUnderflow("ray step underflows double precision")
        self._u = directions @ frame.T  # chart components of unit initial velocities
        self._shapes = shapes
        self._widths = [int(np.prod(shape)) for shape in shapes]
        self._rhs = rhs

        band = _START_BAND
        while _n_rays(band) <= len(directions):
            grid = default_grid(band + 2, 2 * band + 4, band_limit=band)
            self._stored = analyze(grid, self._integrate(grid.nodes @ frame.T), check=False).coeffs
            if self._resolved(band):
                self.band_limit, self._basis = band, point_basis(band, directions)
                return
            band += _BAND_STEP
        self.band_limit = None
        self._stored = self._integrate(self._u)

    def _integrate(self, u: np.ndarray) -> np.ndarray:
        """States (n_rays, n_steps + 1, 2 k) of the rays with chart velocities u,
        each flattened to its k value components, then their derivatives;
        DegenerateMetric unless every state is finite."""
        center, n = self.center, len(u)
        zeros = tuple(np.zeros((n,) + shape) for shape in 2 * self._shapes)
        steps = _rk4(self.ds, lambda s, *state: self._rhs(s, u, *state), zeros, self.s_max,
                     self.n_steps, position=lambda s, state: center + s * u + state[0])
        history = np.zeros((n, self.n_steps + 1, 2 * sum(self._widths)))
        for j, (_, state) in enumerate(steps):
            history[:, j + 1] = np.concatenate([a.reshape(n, -1) for a in state], axis=1)
        # an RK4 step keeps a non-finite component non-finite: the last step shows all
        if not np.all(np.isfinite(history[:, -1])):
            raise DegenerateMetric("ray state is not finite at the end of the rays")
        return history

    def _resolved(self, band: int) -> bool:
        """Whether every value group's coefficients of degrees band - 1 and
        band at s_max are within its rounding bound."""
        ends = np.split(np.abs(self._stored[:, -1, :sum(self._widths)]),
                        np.cumsum(self._widths)[:-1], axis=1)
        return all(end[(band - 1) ** 2:].max() <= _TAIL * self.s_max + _ROUNDING * end.max()
                   for end in ends)

    def at(self, s: np.ndarray) -> list:
        """The value groups at one finite radius s >= 0 per direction, (n, *shape)
        each, by cubic Hermite interpolation between the bracketing steps; the
        first is the offset s u + xi from the center, and the positions
        center + s u + xi are chart-checked."""
        s = np.asarray(s, dtype=float)
        n = len(self._u)
        if s.shape != (n,) or not np.all(np.isfinite(s) & (s >= 0)):
            raise InvalidParams(f"need one finite radius per direction, none negative, "
                                f"shape ({n},)")
        if np.any(s > self.s_max * (1 + 1e-12)):
            raise ChartExceeded(
                f"requested radius outside the integrated ray range [0, {self.s_max:.4g}]")
        h = self._h
        j = np.clip((s / h).astype(int), 0, self.n_steps - 1)
        lo, hi = j.min(), j.max() + 2
        values = self._stored[:, lo:hi]
        if self.band_limit is not None:
            # synthesise only the steps from the lowest to the highest bracket, in one product
            values = (self._basis @ values.reshape(len(values), -1)).reshape(n, hi - lo, -1)
        idx = np.arange(n)
        x0, v0 = np.split(values[idx, j - lo], 2, axis=1)
        x1, v1 = np.split(values[idx, j - lo + 1], 2, axis=1)
        t = ((s - j * h) / h)[:, None]
        h00 = (1 + 2 * t) * (1 - t) ** 2
        h10 = t * (1 - t) ** 2
        h01 = t * t * (3 - 2 * t)
        h11 = t * t * (t - 1)
        value = h00 * x0 + h * h10 * v0 + h01 * x1 + h * h11 * v1
        groups = np.split(value, np.cumsum(self._widths)[:-1], axis=1)
        groups[0] = s[:, None] * self._u + groups[0]
        self.ds.check_chart(self.center + groups[0])
        return [g.reshape((n,) + shape) for g, shape in zip(groups, self._shapes)]


class RayFan:
    """Radial geodesics from a common center, stored for Hermite queries.

    Rays are parameterized by arclength (unit g-speed); `directions` are unit
    vectors x on the parameter sphere and the ray along x leaves the center
    with velocity frame @ x.  Only the deviation xi(s, x) = gamma(s) - (center
    + s u) from the straight chord is integrated: xi vanishes identically in
    flat space and is O(s^3 Gamma) in general, so integration roundoff never
    pollutes the leading part of the positions (which downstream spectral
    differentiation would amplify).

    xi and its s-derivative are stored at every step, on a coarse grid or
    per direction by the module docstring's rule; `band_limit` is the coarse
    grid's band limit, or None where the directions are integrated
    themselves.  `offsets_at(s)` returns s u + xi(s) by cubic Hermite
    interpolation in s between the steps that bracket s.
    """

    def __init__(self, ds: InitialDataSet, center, frame, directions, s_max: float,
                 n_steps: int = 128):
        center, frame, directions = _ray_inputs(center, frame, directions)
        if not (np.isfinite(s_max) and s_max > 0):
            raise InvalidParams(f"s_max must be finite and positive, got {s_max}")
        self.ds = ds
        self.center = center
        self.frame = frame
        self.s_max = float(s_max)

        def rhs(s, u, xi, dxi):
            return dxi, geodesic_acceleration(ds, center + s * u + xi, u + dxi)

        self._rays = _CoarseRays(ds, center, frame, directions, self.s_max, n_steps,
                                 [(3,)], rhs)
        self.n_steps = self._rays.n_steps
        self.band_limit = self._rays.band_limit

    def offsets_at(self, s: np.ndarray) -> np.ndarray:
        """Chord-plus-deviation offsets s u + xi(s) from the center, one finite
        radius s >= 0 per direction; the positions are chart-checked.

        Keeping the center out preserves full relative accuracy of the
        offsets even when the center coordinates are much larger than s.
        """
        return self._rays.at(s)[0]

    def positions_at(self, s: np.ndarray) -> np.ndarray:
        """Points at arclength s (one value per ray)."""
        return self.center + self.offsets_at(s)


# The pairs (i, j) of the second variations C, D: the order (00, 11, 22, 01, 02, 12) of
# the second-derivative stencil rows, so background._SYM6 maps (i, j) to the pair.
_PAIR_I = np.array([0, 1, 2, 0, 0, 1])
_PAIR_J = np.array([0, 1, 2, 1, 2, 2])


class VariationBundle:
    """Exponential-map differentials along the rays of a graph sphere.

    For each node direction d and target radius s the bundle integrates the
    geodesic together with three Jacobi fields A_i and their six second
    variations C_ij, yielding the pullback data of the normal-coordinate
    chart: point F(s d), differential DF (manifold x chart), and Hessian D2F.

    The rays run as in RayFan, on a coarse grid or per direction by the
    module docstring's rule, with the state held as deviations that vanish
    in flat space, (xi, A - s B0, C | dxi/ds, B - B0, D) with B = dA/ds,
    D = dC/ds and B0 = B(0).  `n_steps` RK4 steps cover [0, max(radii)], and
    each direction is Hermite-interpolated at its own radius.  Every ray,
    coarse or not, is integrated and chart-checked out to max(radii), so the
    chart must hold the rays out to the largest radius, not only each
    direction's own; on a coarse grid that is the rays of every direction.
    `band_limit` is the coarse grid's band limit, or None where the
    directions are integrated themselves.
    """

    def __init__(self, ds: InitialDataSet, center, frame, directions, radii,
                 n_steps: int = 64):
        center, frame, directions = _ray_inputs(center, frame, directions)
        radii = np.asarray(radii, dtype=float)
        n = len(directions)
        if radii.shape != (n,) or not np.all(np.isfinite(radii) & (radii > 0)):
            raise InvalidParams(f"bundle radii must be finite and positive, one per direction, "
                                f"shape ({n},) (use the flat shortcut at r = 0)")
        b0 = frame.T   # B0[i, :] = the initial velocity of the Jacobi field A_i

        def rhs(s, u, xi, a_dev, c, dxi, b_dev, d):
            # Gamma and d Gamma(v, .) from the curvature chain.  d^2 Gamma(v, v)
            # differentiates g Gamma = S / 2 twice, contracted with v first:
            # g^-1 (d_m d_q S(v, v) / 2 - d_m d_q g Gamma(v, v)
            #       - d_m g d_q Gamma(v, v) - d_q g d_m Gamma(v, v)).
            x, v = center + s * u + xi, u + dxi
            A, B = a_dev + s * b0, b_dev + b0
            g_inv = _inverse_metric(ds.metric_jet(x, 0))
            dg, d2g, d3g = (ds.metric_jet(x, n) for n in (1, 2, 3))
            gam = christoffel_from(g_inv, dg)
            gam_v = np.einsum("nijk,nk->nij", gam, v)
            gam_vv = np.einsum("nij,nj->ni", gam_v, v)
            dgam_v = np.einsum("nmijk,nk->nmij", dchristoffel_from(g_inv, dg, d2g, gam), v)
            dgam_vv = np.einsum("nmij,nj->nmi", dgam_v, v)

            dg_dgam = np.einsum("nmil,nql->nmqi", dg, dgam_vv)
            lowered = ((d2g @ gam_vv[:, None, None, :, None])[..., 0]
                       + dg_dgam + np.swapaxes(dg_dgam, 1, 2))
            if d3g.any():
                t1 = np.einsum("nmqjlk,nj,nk->nmql", d3g, v, v, optimize=True)
                t3 = np.einsum("nmqljk,nj,nk->nmql", d3g, v, v, optimize=True)
                lowered -= 0.5 * (2.0 * t1 - t3)
            d2gam_vv = -(lowered @ g_inv[:, None])

            def pairs(X, Y):  # [n, p, (m, q)] = X[n, p, m] Y[n, p, q]
                return (X[:, :, :, None] * Y[:, :, None, :]).reshape(len(x), 6, 9)

            dv = -gam_vv
            dB = -(A @ dgam_vv + 2.0 * (B @ np.swapaxes(gam_v, 1, 2)))
            A1, A2 = A[:, _PAIR_I], A[:, _PAIR_J]
            B1, B2 = B[:, _PAIR_I], B[:, _PAIR_J]
            dD = -(pairs(A1, A2) @ d2gam_vv.reshape(len(x), 9, 3)
                   + c @ dgam_vv
                   + 2.0 * ((pairs(A2, B1) + pairs(A1, B2))
                            @ dgam_v.transpose(0, 1, 3, 2).reshape(len(x), 9, 3))
                   + 2.0 * (d @ np.swapaxes(gam_v, 1, 2))
                   + 2.0 * (pairs(B1, B2) @ gam.transpose(0, 2, 3, 1).reshape(len(x), 9, 3)))
            return dxi, b_dev, d, dv, dB, dD

        rays = _CoarseRays(ds, center, frame, directions, float(radii.max()), n_steps,
                           [(3,), (3, 3), (6, 3)], rhs)
        self.band_limit = rays.band_limit
        offsets, a_dev, c = rays.at(radii)
        self.points = center + offsets
        # DF[:, a, i] = (A_i(s))^a / s = frame[a, i] + (A_i(s) - s B0_i)^a / s ;
        # D2F[:, a, i, j] = (C_ij(s))^a / s^2
        self.df = frame + np.swapaxes(a_dev, 1, 2) / radii[:, None, None]
        self.d2f = (np.take(c, _SYM6, axis=1).transpose(0, 3, 1, 2)
                    / (radii ** 2)[:, None, None, None])
