"""Quadrature grids on the parameter sphere.

The grid is a tensor product of Gauss-Legendre nodes in cos(theta) with a
uniform azimuth, so the poles are never sampled and quadrature of polynomial
integrands of combined degree <= 2L is exact.  Each real orthonormal
spherical harmonic is a colatitude factor times an azimuth factor, and the
grid caches only those factors: Q and its first and second theta
derivatives per order m (`colatitude_tables`, O(n_theta L^2) entries) and
the sampled cos/sin(|m| phi) with their phi derivatives (`azimuth_tables`).
`harmonics` contracts against them one factor at a time.  The dense
node-by-coefficient tables (`basis`, `basis_dtheta`, ..., `analysis_matrix`)
are assembled from the factors on each access and are not cached.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import as_count


def coeff_index(l: int, m: int) -> int:
    """Position of the (l, m) coefficient in the flattened real basis."""
    return l * l + (m + l)


def coeff_degrees(band_limit: int) -> np.ndarray:
    """Degree l of every coefficient slot up to `band_limit`, in basis order."""
    return np.repeat(np.arange(band_limit + 1), 2 * np.arange(band_limit + 1) + 1)


def per_order_index(band_limit: int):
    """(m + band_limit, l) of every coefficient slot in basis order: where each
    coefficient sits in a per-order layout with one row per signed order m."""
    l = coeff_degrees(band_limit)
    return np.arange(l.size) - l * l - l + band_limit, l


def _normalized_legendre(band_limit, z):
    """Orthonormalized associated Legendre values Q[node, m, l].

    Q_l^m = sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!) P_l^m(z) with the
    Condon-Shortley phase removed, by the standard stable forward
    recurrences (diagonal in m, then upward in l).
    """
    lmax = band_limit
    z = np.asarray(z, dtype=float)
    s = np.sqrt(1.0 - z * z)
    q = np.zeros((z.size, lmax + 1, lmax + 1))
    q[:, 0, 0] = np.sqrt(1.0 / (4.0 * np.pi))
    for m in range(1, lmax + 1):
        q[:, m, m] = np.sqrt((2 * m + 1) / (2.0 * m)) * s * q[:, m - 1, m - 1]
    for m in range(lmax):
        q[:, m, m + 1] = np.sqrt(2 * m + 3.0) * z * q[:, m, m]
    for m in range(lmax + 1):
        for l in range(m + 2, lmax + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            q[:, m, l] = a * (z * q[:, m, l - 1] - b * q[:, m, l - 2])
    return q


def _theta_derivative(q):
    """Theta derivative of a table Q[node, m, l] of normalized Legendre values.

    The order-ladder identity (bounded coefficients, no 1/sin divisions, so
    pole-adjacent entries keep machine accuracy):

        dQ_l^m/dtheta = 1/2 [c-(l,m) Q_l^{m-1} - c+(l,m) Q_l^{m+1}]

    with c-(l,m) = sqrt((l+m)(l-m+1)), c+(l,m) = sqrt((l-m)(l+m+1)) and the
    convention Q_l^{-1} = -Q_l^1.  The identity is linear with constant
    coefficients, so applied to dQ it gives the second derivative.
    """
    m = np.arange(q.shape[1])[:, None]
    l = np.arange(q.shape[2])[None, :]
    cminus = np.sqrt(np.maximum((l + m) * (l - m + 1), 0))
    cplus = np.sqrt(np.maximum((l - m) * (l + m + 1), 0))
    pad = np.concatenate([q, np.zeros_like(q[:, :1])], axis=1)     # Q^{L+1} = 0
    lower = np.concatenate([-pad[:, 1:2], pad[:, :-2]], axis=1)     # Q^{m-1}
    return 0.5 * (cminus * lower - cplus * pad[:, 1:])


class SphereGrid:
    """Gauss-Legendre x uniform-azimuth quadrature grid on the unit sphere.

    Parameters
    ----------
    n_theta, n_phi : int
        Number of colatitude and azimuth samples.  The default 32 x 64 grid
        resolves spherical harmonics up to degree 20 with aliasing headroom
        for products of band-limited fields.
    band_limit : int, optional
        Largest harmonic degree carried by the spectral tables.  Defaults to
        (2 * min(n_theta, n_phi // 2) - 2) // 3, which keeps analysis of
        quadratic products of band-limited fields exact.
    """

    def __init__(self, n_theta: int = 32, n_phi: int = 64, band_limit: int | None = None):
        self.n_theta = as_count(n_theta, "n_theta", 2)
        self.n_phi = as_count(n_phi, "n_phi", 4)
        if band_limit is None:
            band_limit = (2 * min(self.n_theta, self.n_phi // 2) - 2) // 3
        self.band_limit = as_count(band_limit, "grid band_limit", 0)

        z, wz = np.polynomial.legendre.leggauss(self.n_theta)
        phi = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi

        self.gauss_z = z
        self.gauss_weights = wz
        self.theta_1d = np.arccos(z)
        self.phi_1d = phi

        zz = np.repeat(z, self.n_phi)
        st = np.sqrt(1.0 - zz * zz)
        pp = np.tile(phi, self.n_theta)

        self.cos_theta = zz
        self.sin_theta = st
        self.theta = np.repeat(self.theta_1d, self.n_phi)
        self.phi = pp
        self.nodes = np.stack([st * np.cos(pp), st * np.sin(pp), zz], axis=-1)
        self.weights = np.repeat(wz, self.n_phi) * (2.0 * np.pi / self.n_phi)

    @property
    def n_nodes(self) -> int:
        return self.n_theta * self.n_phi

    @property
    def n_coeffs(self) -> int:
        return (self.band_limit + 1) ** 2

    # ------------------------------------------------------------------
    # spectral tables
    # ------------------------------------------------------------------

    @cached_property
    def colatitude_tables(self) -> np.ndarray:
        """Q, dQ/dtheta and d2Q/dtheta2 per signed order, shape (3, 2L+1, n_theta, L+1).

        Entry [k, m + L, i, l] is the k-th theta derivative of the colatitude
        factor of Y_lm at Gauss node i, with the sqrt(2) of the real basis on
        m != 0; it is zero for l < |m|.
        """
        lmax = self.band_limit
        q = _normalized_legendre(lmax, self.gauss_z)
        dq = _theta_derivative(q)
        d2q = _theta_derivative(dq)
        m = np.arange(-lmax, lmax + 1)
        scale = np.where(m == 0, 1.0, np.sqrt(2.0))[:, None, None]
        return np.ascontiguousarray(
            np.stack([q, dq, d2q]).transpose(0, 2, 1, 3)[:, np.abs(m)] * scale)

    @cached_property
    def azimuth_tables(self) -> np.ndarray:
        """Azimuth factors and their first and second phi derivatives per signed
        order, shape (3, n_phi, 2L+1): cos(m phi) for m >= 0, sin(|m| phi) for
        m < 0, column m + L."""
        m = np.arange(-self.band_limit, self.band_limit + 1)
        ang = np.outer(self.phi_1d, np.abs(m))
        cos, sin = np.cos(ang), np.sin(ang)
        az = np.where(m >= 0, cos, sin)
        return np.stack([az, -m * np.where(m > 0, sin, cos), -(m * m) * az])

    def _dense(self, k_theta: int, k_phi: int, theta_weights=None) -> np.ndarray:
        """d_theta^k_theta d_phi^k_phi Y as one (n_coeffs, n_nodes) table: each
        row the product of its colatitude factor, times `theta_weights` per
        colatitude row when given, and its azimuth factor."""
        order, l = per_order_index(self.band_limit)
        theta = self.colatitude_tables[k_theta][order, :, l]
        if theta_weights is not None:
            theta = theta * theta_weights
        phi = np.ascontiguousarray(self.azimuth_tables[k_phi][:, order].T)
        out = np.empty((self.n_coeffs, self.n_theta, self.n_phi))
        np.multiply(theta[:, :, None], phi[:, None, :], out=out)
        return out.reshape(self.n_coeffs, self.n_nodes)

    # Dense node-by-coefficient tables, assembled on every access and not
    # cached: no transform reads them.  Each is a transposed view of its
    # coefficient-major product.

    @property
    def basis(self) -> np.ndarray:
        """Y_{lm} sampled at the nodes, shape (n_nodes, n_coeffs)."""
        return self._dense(0, 0).T

    @property
    def basis_dtheta(self) -> np.ndarray:
        return self._dense(1, 0).T

    @property
    def basis_dphi(self) -> np.ndarray:
        return self._dense(0, 1).T

    @property
    def basis_dtheta2(self) -> np.ndarray:
        return self._dense(2, 0).T

    @property
    def basis_dtheta_dphi(self) -> np.ndarray:
        return self._dense(1, 1).T

    @property
    def basis_dphi2(self) -> np.ndarray:
        return self._dense(0, 2).T

    @property
    def analysis_matrix(self) -> np.ndarray:
        """Matrix A with A @ values = harmonic coefficients (quadrature analysis)."""
        return self._dense(0, 0, self.weights[::self.n_phi])

    # ------------------------------------------------------------------
    # closed-form unit-sphere parameterization derivatives
    # ------------------------------------------------------------------

    @cached_property
    def embedding_derivatives(self):
        """First and second (theta, phi) derivatives of x(theta, phi) at the nodes.

        Returns (d1, d2) with d1[:, a, :] = d_a x and d2[:, a, b, :] = d_a d_b x.
        """
        st, ct = self.sin_theta, self.cos_theta
        cp, sp = np.cos(self.phi), np.sin(self.phi)
        x = self.nodes
        d1 = np.empty((self.n_nodes, 2, 3))
        d1[:, 0, 0] = ct * cp
        d1[:, 0, 1] = ct * sp
        d1[:, 0, 2] = -st
        d1[:, 1, 0] = -st * sp
        d1[:, 1, 1] = st * cp
        d1[:, 1, 2] = 0.0
        d2 = np.empty((self.n_nodes, 2, 2, 3))
        d2[:, 0, 0, :] = -x
        d2[:, 0, 1, 0] = -ct * sp
        d2[:, 0, 1, 1] = ct * cp
        d2[:, 0, 1, 2] = 0.0
        d2[:, 1, 0, :] = d2[:, 0, 1, :]
        d2[:, 1, 1, 0] = -st * cp
        d2[:, 1, 1, 1] = -st * sp
        d2[:, 1, 1, 2] = 0.0
        return d1, d2

    def __repr__(self):
        return f"SphereGrid(n_theta={self.n_theta}, n_phi={self.n_phi}, band_limit={self.band_limit})"


_default_grid_cache: dict[tuple, SphereGrid] = {}


def default_grid(n_theta: int = 32, n_phi: int = 64, band_limit: int | None = None) -> SphereGrid:
    """Shared grid instances so spectral tables are built once per shape."""
    key = (n_theta, n_phi, band_limit)
    if key not in _default_grid_cache:
        _default_grid_cache[key] = SphereGrid(n_theta, n_phi, band_limit)
    return _default_grid_cache[key]
