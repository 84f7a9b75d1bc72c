"""Quadrature grids on the parameter sphere.

The grid is a tensor product of Gauss-Legendre nodes in cos(theta) with a
uniform azimuth, so the poles are never sampled and quadrature of polynomial
integrands of combined degree <= 2L is exact.  Real orthonormal spherical
harmonics and their first/second angle derivatives are tabulated in one
stacked array of dense node-by-coefficient tables, each the outer product of
a colatitude part and an azimuth part.  `harmonics` is the only module that
multiplies against them; its transforms take all components of a field and
all derivative orders in one product.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np


def coeff_index(l: int, m: int) -> int:
    """Position of the (l, m) coefficient in the flattened real basis."""
    return l * l + (m + l)


def coeff_degrees(band_limit: int) -> np.ndarray:
    """Degree l of every coefficient slot up to `band_limit`, in basis order."""
    return np.repeat(np.arange(band_limit + 1), 2 * np.arange(band_limit + 1) + 1)


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


def _theta_derivative_tables(band_limit, q):
    """First and second theta derivatives of the normalized Legendre table.

    Built from the order-ladder identities (bounded coefficients, no 1/sin
    divisions), which keeps pole-adjacent entries at machine accuracy:

        dQ_l^m/dtheta = 1/2 [c-(l,m) Q_l^{m-1} - c+(l,m) Q_l^{m+1}]

    with c-(l,m) = sqrt((l+m)(l-m+1)), c+(l,m) = sqrt((l-m)(l+m+1)) and the
    convention Q_l^{-1} = -Q_l^1.
    """
    lmax = band_limit
    nz = q.shape[0]
    dq = np.zeros_like(q)
    d2q = np.zeros_like(q)

    def cminus(l, m):
        val = (l + m) * (l - m + 1)
        return np.sqrt(float(val)) if val > 0 else 0.0

    def cplus(l, m):
        val = (l - m) * (l + m + 1)
        return np.sqrt(float(val)) if val > 0 else 0.0

    def q_at(m, l):
        if m == -1:
            return -q[:, 1, l] if l >= 1 else np.zeros(nz)
        if m > l:
            return np.zeros(nz)
        return q[:, m, l]

    for l in range(lmax + 1):
        for m in range(0, l + 1):
            dq[:, m, l] = 0.5 * (cminus(l, m) * q_at(m - 1, l)
                                 - cplus(l, m) * q_at(m + 1, l))
    for l in range(1, lmax + 1):
        # m = 0: d2Q^0 = -sqrt(l(l+1)) dQ^1
        d2q[:, 0, l] = -np.sqrt(float(l * (l + 1))) * dq[:, 1, l] if l >= 1 else 0.0
        for m in range(1, l + 1):
            qm2 = -q_at(1, l) if m == 1 else q_at(m - 2, l)
            mid = cminus(l, m) * cplus(l, m - 1) + cplus(l, m) * cminus(l, m + 1)
            d2q[:, m, l] = 0.25 * (cminus(l, m) * cminus(l, m - 1) * qm2
                                   - mid * q_at(m, l)
                                   + cplus(l, m) * cplus(l, m + 1) * q_at(m + 2, l))
    return dq, d2q


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
        if n_theta < 2 or n_phi < 4:
            raise ValueError("grid too small: need n_theta >= 2 and n_phi >= 4")
        if band_limit is None:
            band_limit = (2 * min(n_theta, n_phi // 2) - 2) // 3
        self.n_theta = int(n_theta)
        self.n_phi = int(n_phi)
        self.band_limit = int(band_limit)

        z, wz = np.polynomial.legendre.leggauss(self.n_theta)
        phi = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi

        self.gauss_z = z
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
    def derivative_tables(self) -> np.ndarray:
        """Y, Y_theta, Y_phi, Y_theta_theta, Y_theta_phi, Y_phi_phi at the nodes.

        One array of shape (6, n_nodes, n_coeffs).  Each table is the outer
        product of a colatitude part (n_theta, n_coeffs) and an azimuth part
        (n_phi, n_coeffs), written in place.
        """
        lmax = self.band_limit
        q = _normalized_legendre(lmax, self.gauss_z)
        dq, d2q = _theta_derivative_tables(lmax, q)
        l = coeff_degrees(lmax)
        m = np.arange(self.n_coeffs) - l * l - l   # signed order of each column
        am = np.abs(m)
        # colatitude parts: Q, dQ, d2Q; sqrt(2) on the m != 0 columns
        colat = np.stack([q, dq, d2q])[:, :, am, l] * np.where(m == 0, 1.0, np.sqrt(2.0))
        # azimuth parts: cos(m phi) for m >= 0, sin(|m| phi) for m < 0, and
        # their first and second phi derivatives
        ang = np.outer(self.phi_1d, am)
        cos, sin = np.cos(ang), np.sin(ang)
        az = np.where(m >= 0, cos, sin)
        az_p = -m * np.where(m > 0, sin, cos)
        az_pp = -(m * m) * az

        tables = np.empty((6, self.n_theta, self.n_phi, self.n_coeffs))
        parts = ((colat[0], az), (colat[1], az), (colat[0], az_p),
                 (colat[2], az), (colat[1], az_p), (colat[0], az_pp))
        for out, (theta_part, phi_part) in zip(tables, parts):
            np.multiply(theta_part[:, None, :], phi_part[None, :, :], out=out)
        return tables.reshape(6, self.n_nodes, self.n_coeffs)

    @property
    def basis(self) -> np.ndarray:
        """Y_{lm} sampled at the nodes, shape (n_nodes, n_coeffs)."""
        return self.derivative_tables[0]

    @property
    def basis_dtheta(self) -> np.ndarray:
        return self.derivative_tables[1]

    @property
    def basis_dphi(self) -> np.ndarray:
        return self.derivative_tables[2]

    @property
    def basis_dtheta2(self) -> np.ndarray:
        return self.derivative_tables[3]

    @property
    def basis_dtheta_dphi(self) -> np.ndarray:
        return self.derivative_tables[4]

    @property
    def basis_dphi2(self) -> np.ndarray:
        return self.derivative_tables[5]

    @cached_property
    def analysis_matrix(self) -> np.ndarray:
        """Matrix A with A @ values = harmonic coefficients (quadrature analysis)."""
        return (self.basis * self.weights[:, None]).T

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
