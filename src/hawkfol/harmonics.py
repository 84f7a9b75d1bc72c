"""Real spherical-harmonic analysis on the parameter sphere.

Scalar fields live either as node values on a SphereGrid or as real
orthonormal-harmonic coefficients up to a band limit.  The kernel of the
Euclidean linearized operator is K = span{1, x^1, x^2, x^3} (degrees 0 and 1);
projections onto K are reported as plain L2 pairings <f, 1> and <f, x^i> so
the closed-form kernel constants of the critical-sphere problem come out
without conversion factors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BandLimitExceeded, NotOrthogonal, UnsupportedDegree
from .grid import SphereGrid, coeff_degrees, coeff_index


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
            raise ValueError(f"expected {expected} coefficients, got {self.coeffs.shape}")

    @classmethod
    def zero(cls, band_limit: int) -> "HarmonicField":
        return cls(np.zeros((band_limit + 1) ** 2), band_limit)

    @classmethod
    def from_coeff_dict(cls, band_limit: int, entries: dict) -> "HarmonicField":
        f = np.zeros((band_limit + 1) ** 2)
        for (l, m), value in entries.items():
            if l > band_limit:
                raise ValueError(f"degree {l} above band limit {band_limit}")
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
            raise ValueError("band limits differ")
        return HarmonicField(self.coeffs + other.coeffs, self.band_limit)

    def __sub__(self, other: "HarmonicField") -> "HarmonicField":
        if other.band_limit != self.band_limit:
            raise ValueError("band limits differ")
        return HarmonicField(self.coeffs - other.coeffs, self.band_limit)

    def __mul__(self, scalar: float) -> "HarmonicField":
        return HarmonicField(self.coeffs * scalar, self.band_limit)

    __rmul__ = __mul__


def _product(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """table @ x for x of shape (n, ...), as a C-contiguous (rows, ...) array.

    One product for all trailing components, with the thin operand on the
    left: BLAS streams the large table once and runs faster than table @ x.
    """
    flat = x.reshape(x.shape[0], -1)
    out = np.ascontiguousarray((flat.T @ table.T).T)
    return out.reshape(table.shape[0], *x.shape[1:])


def analyze(grid: SphereGrid, values: np.ndarray, check: bool = True) -> HarmonicField:
    """Quadrature analysis of node values into harmonic coefficients.

    `values` has shape (n_nodes, ...); each trailing component is analyzed
    separately.  Exact for fields band-limited at the grid's band limit.  When
    `check` is set, `check_band_limit` runs on the result.
    """
    values = np.asarray(values, dtype=float)
    field = HarmonicField(_product(grid.analysis_matrix, values), grid.band_limit)
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
    if field.band_limit > grid.band_limit:
        raise ValueError("field band limit exceeds grid band limit")
    return _product(grid.basis[:, :field.coeffs.shape[0]], field.coeffs)


def analyze_compensated(grid: SphereGrid, values: np.ndarray) -> HarmonicField:
    """Two-pass analysis that removes the dominant low-degree part first.

    Quadrature roundoff enters each coefficient at ~eps * |field|; when the
    coefficients are later multiplied by l^2-sized derivative eigenvalues this
    floor is amplified.  Subtracting the degree <= 1 part and re-analyzing the
    small remainder keeps the high-degree coefficients accurate relative to
    the remainder instead of the full field.
    """
    values = np.asarray(values, dtype=float)
    first = _product(grid.analysis_matrix, values)
    ncut = 4
    baseline = np.zeros_like(first)
    baseline[:ncut] = first[:ncut]
    remainder = values - _product(grid.basis[:, :ncut], first[:ncut])
    coeffs = baseline + _product(grid.analysis_matrix, remainder)
    return HarmonicField(coeffs, grid.band_limit)


def synthesize_derivatives(field: HarmonicField, grid: SphereGrid):
    """Node values and (theta, phi) angle derivatives of a field: (f, d1, d2).

    f has shape (n_nodes, ...), d1 (n_nodes, 2, ...) with d1[:, a] = d_a f,
    and d2 (n_nodes, 2, 2, ...) with d2[:, a, b] = d_a d_b f; the trailing
    axes are the field's components.  One product against the stacked
    derivative tables.
    """
    n = field.coeffs.shape[0]
    out = _product(grid.derivative_tables[:, :, :n].reshape(-1, n), field.coeffs)
    f, ft, fp, ftt, ftp, fpp = out.reshape(6, grid.n_nodes, *field.coeffs.shape[1:])
    d1 = np.stack([ft, fp], axis=1)
    d2 = np.stack([np.stack([ftt, ftp], axis=1), np.stack([ftp, fpp], axis=1)], axis=1)
    return f, d1, d2


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


def biharmonic_solve(rhs: HarmonicField, tol: float = 1e-10) -> HarmonicField:
    """Unique solution of -Lap(-Lap - 2) u = rhs with u in the kernel complement.

    Raises NotOrthogonal if the right-hand side carries degree-0/1 content
    above `tol` (absolute, relative to max(1, |rhs|)).
    """
    kernel_part = float(np.linalg.norm(rhs.coeffs[:4]))
    scale = max(1.0, float(np.linalg.norm(rhs.coeffs)))
    if kernel_part > tol * scale:
        raise NotOrthogonal(
            f"rhs has kernel content {kernel_part:.3e} (tolerance {tol * scale:.3e})")
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
        raise ValueError("axes must be 0, 1 or 2")
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
