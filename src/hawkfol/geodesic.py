"""Geodesic shooting and radial ray bundles.

Surfaces are built from radial geodesics ("rays") leaving a common center.
A RayFan integrates its rays once, as their deviation from the straight chord
(for conditioning), and answers position queries at arbitrary radii through
cubic Hermite interpolation, so changing the radial graph function never
forces a re-integration.  The deviation is smooth in the direction, so the
fan integrates rays only on a coarse Gauss grid, (L + 2) x (2L + 4) nodes at
band limit L, keeps their harmonic coefficients at every step and
synthesises the requested directions from them.  L starts at 8 (200 rays,
whatever the surface grid) and grows by 4 while the top two degrees of the
deviation at the end of the rays carry more than rounding, as long as the
coarse grid holds no more rays than there are requested directions; a tail
still above rounding there emits BandLimitExceeded.  The coarse rays
are chart-checked at every step, and the returned positions when they are
queried.  A VariationBundle additionally
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
VariationBundle) runs in one loop, `_rk4`, which alone checks the step count,
forms the step size and checks the chart after every step; exp_map is the
center-frame transport with no vectors to carry.
"""

from __future__ import annotations

import warnings

import numpy as np

from .background import (_SYM6, InitialDataSet, _inverse_metric, christoffel_from,
                         dchristoffel_from)
from .errors import (BandLimitExceeded, ChartExceeded, InvalidParams, StepSizeUnderflow,
                     as_count)
from .grid import default_grid
from .harmonics import analyze, point_basis

_CENTER_FRAME_STEPS = 64
# The fan's coarse ray grid: its starting band limit and increment.  The top
# two degrees of xi(s_max) are at rounding when their coefficients are below
# _FAN_TAIL s_max plus the analysis rounding, _FAN_ROUNDING times the largest
# coefficient of xi(s_max): on data whose xi is exactly degree 1, the other
# degrees read 5e-16 of it at band limit 8 and up to 2e-14 at band limit 28.
_FAN_START_BAND = 8
_FAN_BAND_STEP = 4
_FAN_TAIL = 1e-16
_FAN_ROUNDING = 1e-14


def geodesic_acceleration(ds: InitialDataSet, pts: np.ndarray, vel: np.ndarray) -> np.ndarray:
    """-Gamma(v, v) = -1/2 g^-1 (2 d_j g_lk v^j v^k - d_l g_jk v^j v^k).

    v is contracted into the metric gradient first; Gamma is never formed.
    """
    g_inv = _inverse_metric(ds.metric_jet(pts, 0))
    dg_v = np.einsum("...lij,...j->...li", ds.metric_jet(pts, 1), vel)
    lowered = (2.0 * np.einsum("...jl,...j->...l", dg_v, vel)
               - np.einsum("...lj,...j->...l", dg_v, vel))
    return -0.5 * np.einsum("...il,...l->...i", g_inv, lowered)


def _rk4(ds: InitialDataSet, rhs, state, span, n_steps, position=lambda t, state: state[0]):
    """Iterator over (t, state) after each of `n_steps` classical RK4 steps on [0, span].

    `rhs(t, *state)` returns the tuple of derivatives of the tuple of arrays
    `state`; `span` is a scalar or one span per entry of their leading axis.
    InvalidParams unless `n_steps` is an integer >= 1, raised on the call.
    After every step `position(t, state)` is checked against the chart.
    """
    n_steps = as_count(n_steps, "n_steps")
    h = span / n_steps
    hs = [h if np.ndim(h) == 0 else np.reshape(h, np.shape(h) + (1,) * (a.ndim - 1))
          for a in state]

    def steps(state):
        t = 0.0
        for j in range(n_steps):
            k1 = rhs(t, *state)
            k2 = rhs(t + 0.5 * h, *(a + 0.5 * hj * k for a, hj, k in zip(state, hs, k1)))
            k3 = rhs(t + 0.5 * h, *(a + 0.5 * hj * k for a, hj, k in zip(state, hs, k2)))
            k4 = rhs(t + h, *(a + hj * k for a, hj, k in zip(state, hs, k3)))
            state = tuple(a + (hj / 6.0) * (p + 2 * q + 2 * r + w)
                          for a, hj, p, q, r, w in zip(state, hs, k1, k2, k3, k4))
            t = (j + 1) * h
            ds.check_chart(position(t, state))
            yield t, state

    return steps(state)


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
    return _transport(ds, base, v, n_steps)[0]


def _transport(ds: InitialDataSet, base, v, n_steps: int, *vectors):
    """Final state (x, u, *vectors) of t -> exp_base(t v) on [0, 1]: `v` is (..., 3),
    and the columns of each of `vectors` (..., 3, m) are parallel transported."""
    base = np.asarray(base, dtype=float).reshape(3)
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

    `tau` is given in the orthonormal frame at p.  One integration of
    `_CENTER_FRAME_STEPS` RK4 steps carries both the center and the frame.
    """
    p = np.asarray(p, dtype=float).reshape(3)
    tau = np.asarray(tau, dtype=float).reshape(3)
    frame_p = orthonormal_frame(ds, p)
    if np.allclose(tau, 0.0):
        return p.copy(), frame_p
    center, _, frame = _transport(ds, p, frame_p @ tau, _CENTER_FRAME_STEPS, frame_p)
    return center, frame


class RayFan:
    """Radial geodesics from a common center, stored for Hermite queries.

    Rays are parameterized by arclength (unit g-speed); `directions` are unit
    vectors x on the parameter sphere and the ray along x leaves the center
    with velocity frame @ x.  Only the deviation xi(s, x) = gamma(s) - (center
    + s u) from the straight chord is integrated: xi vanishes identically in
    flat space and is O(s^3 Gamma) in general, so integration roundoff never
    pollutes the leading part of the positions (which downstream spectral
    differentiation would amplify).

    xi is smooth in x, so the rays are integrated only on a coarse Gauss grid
    of band limit L, (L + 2) x (2L + 4) nodes, and xi and its s-derivative
    are stored as harmonic coefficients at every step.  L starts at 8 and
    grows by 4 while a coefficient of the top two degrees of xi(s_max)
    exceeds 1e-16 s_max plus 1e-14 times its largest coefficient (the
    rounding of the analysis), as long as the coarse grid holds no more rays
    than the directions requested; a tail still above that bound at the cap
    emits BandLimitExceeded and keeps the band limit of the cap.  The band
    limit chosen is `band_limit`.  `offsets_at(s)` synthesises xi and its
    derivative at the requested directions for the steps that bracket s and
    returns s u + xi(s) by cubic Hermite interpolation in s.
    """

    def __init__(self, ds: InitialDataSet, center, frame, directions, s_max: float,
                 n_steps: int = 128):
        center = np.asarray(center, dtype=float).reshape(3)
        directions = np.asarray(directions, dtype=float)
        if (directions.ndim != 2 or directions.shape[1] != 3 or directions.size == 0
                or not np.all(np.abs(np.linalg.norm(directions, axis=1) - 1.0) <= 1e-12)):
            raise InvalidParams("directions must be unit vectors of shape (n, 3), n >= 1")
        if not (np.isfinite(s_max) and s_max > 0):
            raise InvalidParams(f"s_max must be finite and positive, got {s_max}")
        self.ds = ds
        self.center = center
        self.frame = np.asarray(frame, dtype=float)
        self.s_max = float(s_max)
        self.n_steps = as_count(n_steps, "n_steps")
        self._h = self.s_max / self.n_steps
        if self._h < 1e-14:
            raise StepSizeUnderflow("ray step underflows double precision")
        self._u = directions @ self.frame.T  # chart components of unit initial velocities

        band = _FAN_START_BAND
        while True:
            self._coeffs = self._analysed_rays(band)
            xi_end = np.abs(self._coeffs[:, -1, :3])
            tail = xi_end[(band - 1) ** 2:].max()
            if tail <= _FAN_TAIL * self.s_max + _FAN_ROUNDING * xi_end.max():
                break
            wider = band + _FAN_BAND_STEP
            if (wider + 2) * (2 * wider + 4) > len(directions):
                warnings.warn(f"ray deviation tail {tail / self.s_max:.3e} of s_max above "
                              f"the fan band limit {band}", BandLimitExceeded, stacklevel=2)
                break
            band = wider
        self.band_limit = band
        self._basis = point_basis(band, directions)

    def _analysed_rays(self, band: int) -> np.ndarray:
        """Harmonic coefficients (n_coeffs, n_steps + 1, 6) of (xi, dxi/ds) at
        every step, from rays on the Gauss grid of band limit `band`."""
        grid = default_grid(band + 2, 2 * band + 4, band_limit=band)
        center, u = self.center, grid.nodes @ self.frame.T

        def rhs(s, xi, dxi):
            return dxi, geodesic_acceleration(self.ds, center + s * u + xi, u + dxi)

        start = np.zeros((grid.n_nodes, 3))
        steps = _rk4(self.ds, rhs, (start, start), self.s_max, self.n_steps,
                     position=lambda s, state: center + s * u + state[0])
        history = np.zeros((grid.n_nodes, self.n_steps + 1, 6))
        for j, (_, state) in enumerate(steps):
            history[:, j + 1] = np.concatenate(state, axis=1)
        return analyze(grid, history, check=False).coeffs

    def offsets_at(self, s: np.ndarray) -> np.ndarray:
        """Chord-plus-deviation offsets s u + xi(s) from the center, one finite
        radius s per direction; the positions are chart-checked.

        Keeping the center out preserves full relative accuracy of the
        offsets even when the center coordinates are much larger than s.
        """
        s = np.asarray(s, dtype=float)
        n = len(self._u)
        if s.shape != (n,) or not np.all(np.isfinite(s)):
            raise InvalidParams(f"need one finite radius per direction, shape ({n},)")
        if np.any(s < 0) or np.any(s > self.s_max * (1 + 1e-12)):
            raise ChartExceeded(
                f"requested radius outside the integrated ray range [0, {self.s_max:.4g}]")
        h = self._h
        j = np.clip((s / h).astype(int), 0, self.n_steps - 1)
        # synthesise only the steps from the lowest to the highest bracket, in one product
        lo, hi = j.min(), j.max() + 2
        values = (self._basis @ self._coeffs[:, lo:hi].reshape(len(self._coeffs), -1))
        values = values.reshape(n, hi - lo, 6)
        idx = np.arange(n)
        x0, v0 = np.split(values[idx, j - lo], 2, axis=1)
        x1, v1 = np.split(values[idx, j - lo + 1], 2, axis=1)
        t = ((s - j * h) / h)[:, None]
        h00 = (1 + 2 * t) * (1 - t) ** 2
        h10 = t * (1 - t) ** 2
        h01 = t * t * (3 - 2 * t)
        h11 = t * t * (t - 1)
        offsets = s[:, None] * self._u + (h00 * x0 + h * h10 * v0 + h01 * x1 + h * h11 * v1)
        self.ds.check_chart(self.center + offsets)
        return offsets

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
        if not np.all(np.isfinite(radii) & (radii > 0)):
            raise InvalidParams("bundle radii must be finite and positive "
                                "(use the flat shortcut at r = 0)")
        frame = np.asarray(frame, dtype=float)

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

        for _, (x, _, A, _, C, _) in _rk4(ds, rhs, (x, v, A, B, C, D), radii, n_steps):
            pass

        self.points = x
        # DF[:, a, i] = (A_i(s))^a / s ; D2F[:, a, i, j] = (C_ij(s))^a / s^2
        self.df = np.einsum("nia->nai", A) / radii[:, None, None]
        self.d2f = (np.take(C, _SYM6, axis=1).transpose(0, 3, 1, 2)
                    / (radii ** 2)[:, None, None, None])
