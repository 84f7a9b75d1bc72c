"""Geodesic shooting and radial ray bundles.

Surfaces are built from radial geodesics ("rays") leaving a common center.
A RayFan integrates one geodesic per grid direction once (as its deviation
from the straight chord, for conditioning) and answers position queries at
arbitrary radii through cubic Hermite interpolation, so changing the radial
graph function never forces a re-integration.  A VariationBundle additionally
carries the Jacobi fields and second variations of the exponential map, which
give the exact differential and Hessian of the normal-coordinate chart needed
by the rescaled operator.

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
VariationBundle) runs on one classical RK4 stepper, `_rk4`, over tuples of
arrays with a scalar or per-node step; each caller checks the chart after
every step.
"""

from __future__ import annotations

import numpy as np

from .background import (_SYM6, InitialDataSet, _inverse_metric, christoffel_from,
                         dchristoffel_from)
from .errors import ChartExceeded, StepSizeUnderflow

_CENTER_FRAME_STEPS = 64


def geodesic_acceleration(ds: InitialDataSet, pts: np.ndarray, vel: np.ndarray) -> np.ndarray:
    """-Gamma(v, v) = -1/2 g^-1 (2 d_j g_lk v^j v^k - d_l g_jk v^j v^k).

    v is contracted into the metric gradient first; Gamma is never formed.
    """
    g_inv = _inverse_metric(ds.metric_jet(pts, 0))
    dg_v = np.einsum("...lij,...j->...li", ds.metric_jet(pts, 1), vel)
    lowered = (2.0 * np.einsum("...jl,...j->...l", dg_v, vel)
               - np.einsum("...lj,...j->...l", dg_v, vel))
    return -0.5 * np.einsum("...il,...l->...i", g_inv, lowered)


def _rk4(rhs, state, h, n_steps):
    """Classical RK4 on a tuple of arrays; yields (t, state) after every step.

    `rhs(t, *state)` returns the tuple of derivatives.  `h` is a scalar or an
    array holding one step per entry of the leading axis of every array.
    """
    hs = [h if np.ndim(h) == 0 else np.reshape(h, np.shape(h) + (1,) * (a.ndim - 1))
          for a in state]
    t = 0.0
    for j in range(n_steps):
        k1 = rhs(t, *state)
        k2 = rhs(t + 0.5 * h, *(a + 0.5 * hj * k for a, hj, k in zip(state, hs, k1)))
        k3 = rhs(t + 0.5 * h, *(a + 0.5 * hj * k for a, hj, k in zip(state, hs, k2)))
        k4 = rhs(t + h, *(a + hj * k for a, hj, k in zip(state, hs, k3)))
        state = tuple(a + (hj / 6.0) * (p + 2 * q + 2 * r + w)
                      for a, hj, p, q, r, w in zip(state, hs, k1, k2, k3, k4))
        t = (j + 1) * h
        yield t, state


def orthonormal_frame(ds: InitialDataSet, point) -> np.ndarray:
    """Columns form a g-orthonormal basis at the point (Cholesky gauge)."""
    point = np.asarray(point, dtype=float).reshape(3)
    g = ds.metric_jet(point, 0)
    _inverse_metric(g)  # raises DegenerateMetric unless g is positive definite
    chol = np.linalg.cholesky(g)
    return np.linalg.inv(chol).T


def exp_map(ds: InitialDataSet, base, v, n_steps: int = 64) -> np.ndarray:
    """Endpoint exp_base(v) of the geodesic with initial velocity v.

    `v` may carry leading batch axes.  Fixed-step RK4 on the first-order
    system; the trajectory is chart-checked at every step.
    """
    base = np.asarray(base, dtype=float).reshape(3)
    v = np.asarray(v, dtype=float)
    if n_steps < 1:
        raise StepSizeUnderflow("n_steps must be positive")
    v2 = np.atleast_2d(v)

    def rhs(t, x, u):
        return u, geodesic_acceleration(ds, x, u)

    state = (np.broadcast_to(base, v2.shape), v2)
    for _, (x, _) in _rk4(rhs, state, 1.0 / n_steps, n_steps):
        ds.check_chart(x)
    return x[0] if v.ndim == 1 else x


def _transport(ds: InitialDataSet, base, v, vectors, n_steps: int):
    """Endpoint of t -> exp_base(t v) and `vectors` (columns) transported there."""
    base = np.asarray(base, dtype=float).reshape(3)
    v = np.asarray(v, dtype=float).reshape(3)

    def rhs(t, x, u, w):
        gam = christoffel_from(_inverse_metric(ds.metric_jet(x, 0)), ds.metric_jet(x, 1))[0]
        gam_u = np.einsum("ijk,j->ik", gam, u[0])      # Gamma(u, .)
        return u, -(gam_u @ u[0])[None], -gam_u @ w

    state = (base[None, :], v[None, :], np.asarray(vectors, dtype=float))
    for _, (x, _, w) in _rk4(rhs, state, 1.0 / n_steps, n_steps):
        ds.check_chart(x)
    return x[0], w


def transported_center_frame(ds: InitialDataSet, p, tau):
    """Center c(tau) = exp_p(tau^i e_i) and the parallel frame e_i^tau there.

    `tau` is given in the orthonormal frame at p.  One integration of
    `_CENTER_FRAME_STEPS` RK4 steps carries both the center and the frame.
    """
    p = np.asarray(p, dtype=float).reshape(3)
    tau = np.asarray(tau, dtype=float).reshape(3)
    frame_p = orthonormal_frame(ds, p)
    if np.allclose(tau, 0.0):
        return p.copy(), frame_p
    return _transport(ds, p, frame_p @ tau, frame_p, _CENTER_FRAME_STEPS)


class RayFan:
    """Radial geodesics from a common center, stored for Hermite queries.

    Rays are parameterized by arclength (unit g-speed), one per grid node
    direction.  Only the deviation xi(s) = gamma(s) - (center + s u) from the
    straight chord is integrated and stored: xi vanishes identically in flat
    space and is O(s^3 Gamma) in general, so integration roundoff never
    pollutes the leading part of the positions (which downstream spectral
    differentiation would amplify).  `positions_at(s)` reconstructs
    center + s u + xi(s) with cubic Hermite interpolation of xi.
    """

    def __init__(self, ds: InitialDataSet, center, frame, directions, s_max: float,
                 n_steps: int = 128):
        center = np.asarray(center, dtype=float).reshape(3)
        directions = np.asarray(directions, dtype=float)
        if s_max <= 0:
            raise ValueError("s_max must be positive")
        if s_max / n_steps < 1e-14:
            raise StepSizeUnderflow("ray step underflows double precision")
        self.ds = ds
        self.center = center
        self.frame = np.asarray(frame, dtype=float)
        self.s_max = float(s_max)
        self.n_steps = int(n_steps)

        n = directions.shape[0]
        h = self.s_max / n_steps
        u = directions @ self.frame.T  # chart components of unit initial velocities
        self._u = u
        xis = np.zeros((n, n_steps + 1, 3))
        dxis = np.zeros((n, n_steps + 1, 3))

        def rhs(s, xi, dxi):
            return dxi, geodesic_acceleration(ds, center + s * u + xi, u + dxi)

        for j, (s, (xi, dxi)) in enumerate(_rk4(rhs, (xis[:, 0], dxis[:, 0]), h, n_steps)):
            xis[:, j + 1] = xi
            dxis[:, j + 1] = dxi
            ds.check_chart(center + s * u + xi)
        self._xis = xis
        self._dxis = dxis
        self._h = h

    def offsets_at(self, s: np.ndarray) -> np.ndarray:
        """Chord-plus-deviation offsets s u + xi(s) from the center.

        Keeping the center out preserves full relative accuracy of the
        offsets even when the center coordinates are much larger than s.
        """
        s = np.asarray(s, dtype=float)
        if np.any(s < 0) or np.any(s > self.s_max * (1 + 1e-12)):
            raise ChartExceeded(
                f"requested radius outside the integrated ray range [0, {self.s_max:.4g}]")
        h = self._h
        j = np.clip((s / h).astype(int), 0, self.n_steps - 1)
        t = ((s - j * h) / h)[:, None]
        idx = np.arange(s.size)
        x0 = self._xis[idx, j]
        x1 = self._xis[idx, j + 1]
        v0 = self._dxis[idx, j]
        v1 = self._dxis[idx, j + 1]
        h00 = (1 + 2 * t) * (1 - t) ** 2
        h10 = t * (1 - t) ** 2
        h01 = t * t * (3 - 2 * t)
        h11 = t * t * (t - 1)
        xi = h00 * x0 + h * h10 * v0 + h01 * x1 + h * h11 * v1
        return s[:, None] * self._u + xi

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
    geodesic together with three Jacobi fields and their six second
    variations, yielding the pullback data of the normal-coordinate chart:
    point F(s d), differential DF (manifold x chart), and Hessian D2F.
    """

    def __init__(self, ds: InitialDataSet, center, frame, directions, radii,
                 n_steps: int = 64):
        center = np.asarray(center, dtype=float).reshape(3)
        directions = np.asarray(directions, dtype=float)
        radii = np.asarray(radii, dtype=float)
        n = directions.shape[0]
        if np.any(radii <= 0):
            raise ValueError("bundle radii must be positive (use the flat shortcut at r = 0)")
        frame = np.asarray(frame, dtype=float)

        h = radii / n_steps  # per-node step
        x = np.broadcast_to(center, (n, 3)).copy()
        v = directions @ frame.T
        A = np.zeros((n, 3, 3))   # A[:, i, :] = Jacobi field for chart direction e_i
        B = np.broadcast_to(frame.T, (n, 3, 3)).copy()  # B[:, i, :] = dA_i/ds
        C = np.zeros((n, 6, 3))
        D = np.zeros((n, 6, 3))

        def rhs(t, x, v, A, B, C, D):
            # Gamma and d Gamma(v, .) from the curvature chain.  d^2 Gamma(v, v)
            # differentiates g Gamma = S / 2 twice, contracted with v first:
            # g^-1 (d_m d_q S(v, v) / 2 - d_m d_q g Gamma(v, v)
            #       - d_m g d_q Gamma(v, v) - d_q g d_m Gamma(v, v)).
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
                return (X[:, :, :, None] * Y[:, :, None, :]).reshape(n, 6, 9)

            dv = -gam_vv
            dB = -(A @ dgam_vv + 2.0 * (B @ np.swapaxes(gam_v, 1, 2)))
            A1, A2 = A[:, _PAIR_I], A[:, _PAIR_J]
            B1, B2 = B[:, _PAIR_I], B[:, _PAIR_J]
            dD = -(pairs(A1, A2) @ d2gam_vv.reshape(n, 9, 3)
                   + C @ dgam_vv
                   + 2.0 * ((pairs(A2, B1) + pairs(A1, B2))
                            @ dgam_v.transpose(0, 1, 3, 2).reshape(n, 9, 3))
                   + 2.0 * (D @ np.swapaxes(gam_v, 1, 2))
                   + 2.0 * (pairs(B1, B2) @ gam.transpose(0, 2, 3, 1).reshape(n, 9, 3)))
            return v, dv, B, dB, D, dD

        state = (x, v, A, B, C, D)
        for _, state in _rk4(rhs, state, h, n_steps):
            ds.check_chart(state[0])
        x, _, A, _, C, _ = state

        self.points = x
        # DF[:, a, i] = (A_i(s))^a / s ; D2F[:, a, i, j] = (C_ij(s))^a / s^2
        self.df = np.einsum("nia->nai", A) / radii[:, None, None]
        self.d2f = (np.take(C, _SYM6, axis=1).transpose(0, 3, 1, 2)
                    / (radii ** 2)[:, None, None, None])
