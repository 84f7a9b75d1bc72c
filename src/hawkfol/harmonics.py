"""Real spherical-harmonic analysis on the parameter sphere.

Scalar fields live either as node values on a SphereGrid or as real
orthonormal-harmonic coefficients up to a band limit.  The transforms are
separable: synthesis scatters the coefficients per order m, sums over the
degree l in one batched product with a colatitude factor of the grid, and
over m in one product with an azimuth factor; analysis runs the same two
contractions in reverse.  No transform forms a node-by-coefficient table.

The kernel of the Euclidean linearized operator is K = span{1, x^1, x^2, x^3}
(degrees 0 and 1); projections onto K are reported as plain L2 pairings
<f, 1> and <f, x^i> so the closed-form kernel constants of the
critical-sphere problem come out without conversion factors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BandLimitExceeded, InvalidParams, NotOrthogonal, UnsupportedDegree
from .grid import SphereGrid, _normalized_legendre, coeff_degrees, coeff_index, per_order_index


@dataclass(frozen=True)
class HarmonicField:
    """Real spherical-harmonic coefficients a_{l,m} for 0 <= l <= band_limit.

    Coefficients are flattened in degree-major order, slot l*l + (m + l).
    `coeffs` may carry trailing component axes, shape (n_coeffs, ...), for
    the batched transforms; the other methods expect one component.
    Instances are immutable; arithmetic returns new fields.
    """

    coeffs: np.ndarray
    band_limit: int

    def __post_init__(self):
        expected = (self.band_limit + 1) ** 2
        if self.coeffs.shape[:1] != (expected,):
            raise InvalidParams(f"expected {expected} coefficients, got {self.coeffs.shape}")

    @classmethod
    def zero(cls, band_limit: int) -> "HarmonicField":
        return cls(np.zeros((band_limit + 1) ** 2), band_limit)

    @classmethod
    def from_coeff_dict(cls, band_limit: int, entries: dict) -> "HarmonicField":
        f = np.zeros((band_limit + 1) ** 2)
        for (l, m), value in entries.items():
            if l > band_limit:
                raise InvalidParams(f"degree {l} above band limit {band_limit}")
            f[coeff_index(l, m)] = value
        return cls(f, band_limit)

    def coeff(self, l: int, m: int) -> float:
        return float(self.coeffs[coeff_index(l, m)])

    def degrees(self) -> np.ndarray:
        return coeff_degrees(self.band_limit)

    def restricted(self, band_limit: int) -> "HarmonicField":
        """Truncate or zero-pad to another band limit."""
        out = np.zeros((band_limit + 1) ** 2)
        n = min(out.size, self.coeffs.size)
        out[:n] = self.coeffs[:n]
        return HarmonicField(out, band_limit)

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def __add__(self, other: "HarmonicField") -> "HarmonicField":
        if other.band_limit != self.band_limit:
            raise InvalidParams("band limits differ")
        return HarmonicField(self.coeffs + other.coeffs, self.band_limit)

    def __sub__(self, other: "HarmonicField") -> "HarmonicField":
        if other.band_limit != self.band_limit:
            raise InvalidParams("band limits differ")
        return HarmonicField(self.coeffs - other.coeffs, self.band_limit)

    def __mul__(self, scalar: float) -> "HarmonicField":
        return HarmonicField(self.coeffs * scalar, self.band_limit)

    __rmul__ = __mul__


def _analysis(grid: SphereGrid, values: np.ndarray) -> np.ndarray:
    """Quadrature coefficients (n_coeffs, ...) of node values (n_nodes, ...).

    The values are contracted with (2 pi / n_phi) times the azimuth factors
    in one product, then with the Gauss weights times Q in one batched
    product over the orders.
    """
    by_phi = values.reshape(grid.n_theta, grid.n_phi, -1).transpose(1, 0, 2)
    az = grid.azimuth_tables[0] * (2.0 * np.pi / grid.n_phi)
    per_order = (az.T @ by_phi.reshape(grid.n_phi, -1)).reshape(az.shape[1], grid.n_theta, -1)
    weighted_q = grid.colatitude_tables[0].transpose(0, 2, 1) * grid.gauss_weights
    rows, cols = per_order_index(grid.band_limit)
    return np.matmul(weighted_q, per_order)[rows, cols].reshape(grid.n_coeffs, *values.shape[1:])


def _synthesis(field: HarmonicField, grid: SphereGrid, order: int) -> dict:
    """Angle derivatives of a field at the nodes: {(j, k): d_theta^j d_phi^k f}
    for j + k <= order, each a (n_theta, n_phi, K) view over the flattened
    components K.

    The coefficients are scattered per order m; one batched product per
    colatitude factor sums over l, and one product per azimuth factor sums
    over m.  Every phi derivative reuses the colatitude sums.
    """
    b = field.band_limit
    if b > grid.band_limit:
        raise InvalidParams("field band limit exceeds grid band limit")
    flat = field.coeffs.reshape(field.coeffs.shape[0], -1)
    per_order = np.zeros((2 * b + 1, b + 1, flat.shape[1]))
    per_order[per_order_index(b)] = flat
    orders = slice(grid.band_limit - b, grid.band_limit + b + 1)
    colat = grid.colatitude_tables[:order + 1, orders, :, :b + 1]
    theta_sums = np.matmul(colat, per_order).reshape(order + 1, 2 * b + 1, -1)
    out = {}
    for k in range(order + 1):
        az = grid.azimuth_tables[k, :, orders]
        for j, sums in enumerate(np.matmul(az, theta_sums[:order + 1 - k])):
            out[j, k] = sums.reshape(grid.n_phi, grid.n_theta, -1).transpose(1, 0, 2)
    return out


def analyze(grid: SphereGrid, values: np.ndarray, check: bool = True) -> HarmonicField:
    """Quadrature analysis of node values into harmonic coefficients.

    `values` has shape (n_nodes, ...); each trailing component is analyzed
    separately.  Exact for fields band-limited at the grid's band limit.  When
    `check` is set, `check_band_limit` runs on the result.
    """
    values = np.asarray(values, dtype=float)
    field = HarmonicField(_analysis(grid, values), grid.band_limit)
    if check:
        check_band_limit(grid, values, field)
    return field


def check_band_limit(grid: SphereGrid, values: np.ndarray, field: HarmonicField) -> None:
    """Emit a BandLimitExceeded warning if any component of `values` loses
    more than 1e-6 of its own energy in its analysis `field`."""
    flat = values.reshape(values.shape[0], -1)
    total = grid.weights @ (flat * flat)
    captured = np.sum(field.coeffs.reshape(field.coeffs.shape[0], -1) ** 2, axis=0)
    held = total > 0
    lost = (total[held] - captured[held]) / total[held]
    if lost.size and lost.max() > 1e-6:
        warnings.warn(f"field energy above band limit: {lost.max():.3e} of total",
                      BandLimitExceeded, stacklevel=3)


def synthesize(field: HarmonicField, grid: SphereGrid) -> np.ndarray:
    """Evaluate a harmonic field at the grid nodes, shape (n_nodes, ...)."""
    values = np.ascontiguousarray(_synthesis(field, grid, 0)[0, 0])
    return values.reshape(grid.n_nodes, *field.coeffs.shape[1:])


def point_basis(band_limit: int, points: np.ndarray) -> np.ndarray:
    """Y_lm at unit vectors `points` (n, 3), shape (n, n_coeffs) in basis order,
    so `point_basis(b, points) @ coeffs` synthesises a band-limit-b field there.

    Each column is the colatitude factor of its order (with the sqrt(2) of the
    real basis on m != 0) times its azimuth factor, as in the grid tables.
    """
    points = np.asarray(points, dtype=float)
    order, l = per_order_index(band_limit)
    m = np.abs(order - band_limit)
    colat = (_normalized_legendre(band_limit, np.clip(points[:, 2], -1.0, 1.0))[:, m, l]
             * np.where(m == 0, 1.0, np.sqrt(2.0)))
    ang = np.arctan2(points[:, 1], points[:, 0])[:, None] * m
    return colat * np.where(order >= band_limit, np.cos(ang), np.sin(ang))


def analyze_compensated(grid: SphereGrid, values: np.ndarray) -> HarmonicField:
    """Two-pass analysis that removes the dominant low-degree part first.

    Quadrature roundoff enters each coefficient at ~eps * |field|; when the
    coefficients are later multiplied by l^2-sized derivative eigenvalues this
    floor is amplified.  Subtracting the degree <= 1 part and re-analyzing the
    small remainder keeps the high-degree coefficients accurate relative to
    the remainder instead of the full field.
    """
    values = np.asarray(values, dtype=float)
    first = _analysis(grid, values)
    ncut = 4
    baseline = np.zeros_like(first)
    baseline[:ncut] = first[:ncut]
    low = synthesize(HarmonicField(first[:ncut], 1), grid)
    coeffs = baseline + _analysis(grid, values - low)
    return HarmonicField(coeffs, grid.band_limit)


def synthesize_derivatives(field: HarmonicField, grid: SphereGrid):
    """Node values and (theta, phi) angle derivatives of a field: (f, d1, d2).

    f has shape (n_nodes, ...), d1 (n_nodes, 2, ...) with d1[:, a] = d_a f,
    and d2 (n_nodes, 2, 2, ...) with d2[:, a, b] = d_a d_b f; the trailing
    axes are the field's components.  The six outputs share the three
    colatitude products of one separable synthesis.
    """
    out = _synthesis(field, grid, 2)
    nodes = (grid.n_theta, grid.n_phi)
    k = out[0, 0].shape[-1]
    f = np.ascontiguousarray(out[0, 0])
    d1, d2 = np.empty(nodes + (2, k)), np.empty(nodes + (2, 2, k))
    d1[:, :, 0], d1[:, :, 1] = out[1, 0], out[0, 1]
    d2[:, :, 0, 0], d2[:, :, 1, 1] = out[2, 0], out[0, 2]
    d2[:, :, 0, 1] = d2[:, :, 1, 0] = out[1, 1]
    tail = field.coeffs.shape[1:]
    return (f.reshape(grid.n_nodes, *tail), d1.reshape(grid.n_nodes, 2, *tail),
            d2.reshape(grid.n_nodes, 2, 2, *tail))


# ----------------------------------------------------------------------
# kernel projections
# ----------------------------------------------------------------------

def project_K0(grid: SphereGrid, values: np.ndarray) -> float:
    """L2 pairing with the constant 1: integral of the field over S^2."""
    return float(np.sum(grid.weights * values))

def project_K1(grid: SphereGrid, values: np.ndarray) -> np.ndarray:
    """L2 pairings with the coordinate functions x^i, as a 3-vector."""
    return (grid.weights * values) @ grid.nodes


def project_Kperp(field: HarmonicField) -> HarmonicField:
    """Zero the degree-0 and degree-1 coefficients."""
    out = field.coeffs.copy()
    out[:4] = 0.0
    return HarmonicField(out, field.band_limit)


# ----------------------------------------------------------------------
# the spectral operator -Lap (-Lap - 2)
# ----------------------------------------------------------------------

def biharmonic_eigenvalues(band_limit: int) -> np.ndarray:
    """Per-coefficient eigenvalue l(l+1)(l(l+1) - 2) of -Lap(-Lap - 2) on S^2."""
    l = coeff_degrees(band_limit)
    lam = l * (l + 1)
    return lam * (lam - 2.0)


def biharmonic_apply(field: HarmonicField) -> HarmonicField:
    """Apply -Lap(-Lap - 2); annihilates exactly the degree-0/1 kernel."""
    return HarmonicField(field.coeffs * biharmonic_eigenvalues(field.band_limit),
                         field.band_limit)


def biharmonic_solve(rhs: HarmonicField) -> HarmonicField:
    """Unique solution of -Lap(-Lap - 2) u = rhs with u in the kernel complement.

    Raises NotOrthogonal if the right-hand side carries degree-0/1 content
    above 1e-10 times max(1, |rhs|).
    """
    kernel_part = float(np.linalg.norm(rhs.coeffs[:4]))
    scale = max(1.0, float(np.linalg.norm(rhs.coeffs)))
    if kernel_part > 1e-10 * scale:
        raise NotOrthogonal(
            f"rhs has kernel content {kernel_part:.3e} (tolerance {1e-10 * scale:.3e})")
    mu = biharmonic_eigenvalues(rhs.band_limit)
    out = np.zeros_like(rhs.coeffs)
    mask = mu > 0
    out[mask] = rhs.coeffs[mask] / mu[mask]
    return HarmonicField(out, rhs.band_limit)


# ----------------------------------------------------------------------
# closed-form moments of coordinate monomials over S^2
# ----------------------------------------------------------------------

def moment_integral(multi_index) -> Fraction:
    """Exact value of integral over S^2 of prod_a x^{i_a}, as a multiple of pi.

    `multi_index` lists coordinate axes (0-based), one entry per factor; e.g.
    (0, 0) is the integral of (x^1)^2 and returns Fraction(4, 3).  Odd moments
    vanish; total degree above six raises UnsupportedDegree.
    """
    idx = tuple(int(i) for i in multi_index)
    if len(idx) > 6:
        raise UnsupportedDegree(f"degree {len(idx)} > 6")
    if any(i not in (0, 1, 2) for i in idx):
        raise InvalidParams("axes must be 0, 1 or 2")
    exps = [idx.count(ax) for ax in (0, 1, 2)]
    if any(e % 2 for e in exps):
        return Fraction(0)

    def dfact(n):
        out = 1
        while n > 1:
            out *= n
            n -= 2
        return out

    total = sum(exps)
    num = dfact(exps[0] - 1) * dfact(exps[1] - 1) * dfact(exps[2] - 1)
    return Fraction(4 * num, dfact(total + 1))


def moment_value(multi_index) -> float:
    """Floating-point value of `moment_integral` (includes the factor pi)."""
    return float(moment_integral(multi_index)) * np.pi
