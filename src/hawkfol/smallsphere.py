"""Closed-form small-sphere expansions: geodesic spheres versus light cuts.

Spacetime curvature components live in an orthonormal frame (e0, e1, e2, e3)
with e0 the future timelike normal of the slice and eta = diag(-1, 1, 1, 1).
The Riemann convention is fixed so that Ric_ac = eta^{bd} Rm_{bacd} (first and
third slots) and sectional curvature is Rm(X, Y, X, Y) on orthonormal pairs;
the slice (3-dimensional, Riemannian) convention of the rest of the package
is the restriction of this one.

With that convention the light-cut expansions read, for E = e0 + nu and
Ebar = (e0 - nu)/2 with nu = x^i e_i:

    theta+ = 2/l - 1/3 Ric4(E, E) l
    theta- = -1/l - (2/3 Ric4(E, Ebar) - Rm4(E, Ebar, E, Ebar)
                     + 1/6 Ric4(E, E)) l
    H_lc   = theta+/2 - theta-
    Sc_lc  = 2/l^2 + Sc4 + 8/3 (Ric4(e0,e0) - Ric4(nu,nu))
             - 4 Rm4(e0, nu, e0, nu)

and the geodesic-sphere side substitutes the Gauss equation of the slice:

    Ric(nu, nu) = Ric4(nu, nu) + Rm4(e0, nu, e0, nu)
                  - tr k k(nu, nu) + <k(nu, .), k(., nu)>
    H_G  = 2/r - r/3 Ric(nu, nu) + O(r^2)
    Sc_G = 2/r^2 - 2/3 Ric(nu, nu) + O(r)

The energy comparison evaluates the two cubic coefficients

    E(S_r)     -> (Sc + 3/5 (tr k)^2 + 1/5 |k|^2) / 12
    E(Sigma_l) -> (Sc + (tr k)^2 - |k|^2) / 12

at equal areas |S_r| = |Sigma_l|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import NoRoot
from .harmonics import moment_integral

_ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def _check_riemann_symmetries(rm4, tol=1e-10):
    scale = max(np.abs(rm4).max(), 1.0)
    if (np.abs(rm4 + rm4.transpose(1, 0, 2, 3)).max() > tol * scale
            or np.abs(rm4 + rm4.transpose(0, 1, 3, 2)).max() > tol * scale
            or np.abs(rm4 - rm4.transpose(2, 3, 0, 1)).max() > tol * scale):
        raise ValueError("rm4 must be antisymmetric in each index pair and "
                         "symmetric under pair exchange")
    bianchi = rm4 + rm4.transpose(0, 2, 3, 1) + rm4.transpose(0, 3, 1, 2)
    if np.abs(bianchi).max() > tol * scale:
        raise ValueError("rm4 must be a tensor satisfying the first Bianchi identity")


@dataclass(frozen=True)
class SpacetimeCurvatureAtPoint:
    """4-dimensional curvature data at a point, linked to slice data by Gauss.

    Build through `from_components`; the slice scalar curvature is derived
    from (or checked against) Sc = Sc4 + 2 Ric4(e0,e0) - (tr k)^2 + |k|^2.
    Components the slice does not determine are free data and are validated
    only for algebraic symmetry.
    """

    rm4: np.ndarray      # (4, 4, 4, 4)
    ric4: np.ndarray     # (4, 4)
    sc4: float
    k: np.ndarray        # (3, 3) slice second fundamental form
    slice_scalar: float

    @classmethod
    def from_components(cls, rm4=None, ric4=None, sc4=None, k=None,
                        slice_scalar=None) -> "SpacetimeCurvatureAtPoint":
        rm4 = np.zeros((4, 4, 4, 4)) if rm4 is None else np.asarray(rm4, dtype=float)
        if rm4.shape != (4, 4, 4, 4):
            raise ValueError("rm4 must have shape (4, 4, 4, 4)")
        _check_riemann_symmetries(rm4)
        if ric4 is None:
            ric4 = np.einsum("ab,aibj->ij", _ETA, rm4)
        else:
            ric4 = np.asarray(ric4, dtype=float)
            if ric4.shape != (4, 4) or not np.allclose(ric4, ric4.T, atol=1e-12):
                raise ValueError("ric4 must be a symmetric 4x4 matrix")
        if sc4 is None:
            sc4 = float(np.einsum("ac,ac->", _ETA, ric4))
        k = np.zeros((3, 3)) if k is None else np.asarray(k, dtype=float)
        if k.shape != (3, 3) or not np.allclose(k, k.T, atol=1e-12):
            raise ValueError("k must be a symmetric 3x3 matrix")
        trk = float(np.trace(k))
        ksq = float(np.sum(k * k))
        gauss = sc4 + 2.0 * ric4[0, 0] - trk * trk + ksq
        if slice_scalar is not None and abs(slice_scalar - gauss) > 1e-10 * max(1.0, abs(gauss)):
            raise ValueError(
                f"slice scalar {slice_scalar} inconsistent with the Gauss equation value {gauss}")
        return cls(rm4=rm4, ric4=ric4, sc4=float(sc4), k=k, slice_scalar=float(gauss))

    @property
    def tr_k(self) -> float:
        return float(np.trace(self.k))

    @property
    def k_norm_sq(self) -> float:
        return float(np.sum(self.k * self.k))

    @property
    def traceless_k_norm_sq(self) -> float:
        return self.k_norm_sq - self.tr_k ** 2 / 3.0


def _four_vec(x):
    e = np.zeros(x.shape[:-1] + (4,))
    e[..., 1:] = x
    return e


def _directions(x):
    """Unit directions x as a batch, with e0 and nu = x^i e_i as 4-vectors."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    nu = _four_vec(x)
    e0 = np.zeros_like(nu)
    e0[:, 0] = 1.0
    return x, e0, nu


def _ric_pair(stc, a, b):
    return np.einsum("ij,ni,nj->n", stc.ric4, a, b)


def _rm_pair(stc, a, b):
    """Rm4(a, b, a, b) for batches of 4-vectors."""
    return np.einsum("ijkl,ni,nj,nk,nl->n", stc.rm4, a, b, a, b, optimize=True)


def lightcut_expansions(stc: SpacetimeCurvatureAtPoint, l: float, x):
    """Truncated light-cut fields at affine parameter l and directions x.

    Returns a dict with theta_plus, theta_minus, h (mean curvature),
    scalar_curvature, and metric_correction: the matrix h_ab such that the
    induced metric on orthonormal tangents t_a at x is
    l^2 (delta_ab + l^2 h_ab) + O(l^5).
    """
    x, e0, nu = _directions(x)
    big_e = e0 + nu
    ebar = 0.5 * (e0 - nu)

    ric_ee = _ric_pair(stc, big_e, big_e)
    ric_ebar = _ric_pair(stc, big_e, ebar)
    rm_eb = _rm_pair(stc, big_e, ebar)

    theta_plus = 2.0 / l - (ric_ee / 3.0) * l
    theta_minus = (-1.0 / l
                   - (2.0 / 3.0 * ric_ebar - rm_eb + ric_ee / 6.0) * l)
    h_lc = 0.5 * theta_plus - theta_minus

    ric00 = stc.ric4[0, 0]
    ric_nn = _ric_pair(stc, nu, nu)
    rm_0n = _rm_pair(stc, e0, nu)
    sc_lc = (2.0 / (l * l) + stc.sc4 + (8.0 / 3.0) * (ric00 - ric_nn) - 4.0 * rm_0n)

    # Rm4(E, t_a, t_b, E) / 3 over the orthonormal tangent pair t_a at each direction
    t = _four_vec(np.stack(_tangent_frames(x), axis=1))
    h_corr = np.einsum("ijkl,ni,naj,nbk,nl->nab", stc.rm4, big_e, t, t, big_e,
                       optimize=True) / 3.0
    return {"theta_plus": theta_plus, "theta_minus": theta_minus, "h": h_lc,
            "scalar_curvature": sc_lc, "metric_correction": h_corr}


def _tangent_frames(x):
    ref = np.where(np.abs(x[:, 2:3]) < 0.9, np.array([0.0, 0.0, 1.0]),
                   np.array([1.0, 0.0, 0.0]))
    t1 = np.cross(ref, x)
    t1 = t1 / np.linalg.norm(t1, axis=1, keepdims=True)
    t2 = np.cross(x, t1)
    return t1, t2


def slice_ricci_radial(stc: SpacetimeCurvatureAtPoint, x):
    """Slice Ric(nu, nu) from the spacetime data through the Gauss equation."""
    x, e0, nu = _directions(x)
    ric_nn = _ric_pair(stc, nu, nu)
    rm_0n = _rm_pair(stc, e0, nu)
    k_nn = np.einsum("ij,ni,nj->n", stc.k, x, x)
    kk_nn = np.einsum("ij,jk,ni,nk->n", stc.k, stc.k, x, x)
    return ric_nn + rm_0n - stc.tr_k * k_nn + kk_nn


def geodesic_side_expansions(stc: SpacetimeCurvatureAtPoint, r: float, x):
    """Truncated geodesic-sphere fields (H_G, Sc_G) at radius r, direction x."""
    a = slice_ricci_radial(stc, x)
    h_g = 2.0 / r - (r / 3.0) * a
    sc_g = 2.0 / (r * r) - (2.0 / 3.0) * a
    return {"h": h_g, "scalar_curvature": sc_g}


# ----------------------------------------------------------------------
# area matching
# ----------------------------------------------------------------------

def lightcut_area(stc: SpacetimeCurvatureAtPoint, l: float) -> float:
    """|Sigma_l| = 4 pi l^2 - (2 pi / 9) l^4 (4 Ric4(e0,e0) + Sc4)."""
    return 4.0 * np.pi * l * l - (2.0 * np.pi / 9.0) * l ** 4 * (
        4.0 * stc.ric4[0, 0] + stc.sc4)


def geodesic_area(stc: SpacetimeCurvatureAtPoint, r: float) -> float:
    """|S_r| = 4 pi r^2 - (2 pi / 9) r^4 Sc with the slice scalar curvature."""
    return 4.0 * np.pi * r * r - (2.0 * np.pi / 9.0) * r ** 4 * stc.slice_scalar


def radius_matching(stc: SpacetimeCurvatureAtPoint, l: float):
    """Geodesic radius with |S_r| = |Sigma_l|, by Newton on the quartics.

    Returns (r, closed_form_r) where the second entry evaluates the
    first-order closed-form relation r - l = (1/18) [ r^4/(r+l) (|k|^2 - (tr k)^2)
    + 2 (r^4 - 2 l^4)/(r+l) Ric4(e0,e0) ] with r ~ l inserted on the right.
    """
    target = lightcut_area(stc, l)
    sc = stc.slice_scalar

    def f(r):
        return 4.0 * np.pi * r * r - (2.0 * np.pi / 9.0) * r ** 4 * sc - target

    def fp(r):
        return 8.0 * np.pi * r - (8.0 * np.pi / 9.0) * r ** 3 * sc

    r = float(l)
    for _ in range(60):
        d = fp(r)
        if d <= 0:
            raise NoRoot(f"geodesic area expansion non-monotone at r = {r:.4g}; "
                         "parameter too large for the quartic truncation")
        step = f(r) / d
        r -= step
        if abs(step) < 1e-15 * max(1.0, r):
            break
    else:
        raise NoRoot("Newton iteration on the area quartics did not converge")
    if r <= 0:
        raise NoRoot("area matching produced a nonpositive radius")

    closed = l + (1.0 / 18.0) * (
        l ** 4 / (2.0 * l) * (stc.k_norm_sq - stc.tr_k ** 2)
        + 2.0 * (l ** 4 - 2.0 * l ** 4) / (2.0 * l) * stc.ric4[0, 0])
    return r, closed


# ----------------------------------------------------------------------
# energy comparison
# ----------------------------------------------------------------------

def geodesic_energy_coefficient(stc: SpacetimeCurvatureAtPoint) -> float:
    """r^3 coefficient of the Hawking energy along geodesic spheres."""
    return (stc.slice_scalar + 0.6 * stc.tr_k ** 2 + 0.2 * stc.k_norm_sq) / 12.0


def lightcut_energy_coefficient(stc: SpacetimeCurvatureAtPoint) -> float:
    """l^3 coefficient of the Hawking energy along light cuts."""
    return (stc.slice_scalar + stc.tr_k ** 2 - stc.k_norm_sq) / 12.0


@dataclass
class ComparisonReport:
    """Side-by-side small-sphere data: one row dict per affine parameter."""

    rows: list
    excess_coefficient_fit: float
    excess_candidate_quoted: float     # (6/5) |k0|^2 as quoted in the literature
    excess_candidate_derived: float   # (1/10) |k0|^2 from the two cubics
    sample_direction: np.ndarray

    def to_dict(self) -> dict:
        return {
            "rows": self.rows,
            "excess_coefficient_fit": self.excess_coefficient_fit,
            "excess_candidate_quoted": self.excess_candidate_quoted,
            "excess_candidate_derived": self.excess_candidate_derived,
            "sample_direction": list(self.sample_direction),
        }


_ROW_KEYS = ("l", "r", "r_closed_form", "no_root", "energy_geodesic", "energy_lightcut",
             "excess", "h_geodesic", "h_lightcut", "sc_geodesic", "sc_lightcut",
             "h_difference", "sc_difference")


def _comparison_row(stc: SpacetimeCurvatureAtPoint, l, x) -> dict:
    """One report row; NaN in every computed entry when the areas do not match."""
    try:
        r, closed = radius_matching(stc, l)
    except NoRoot:
        return {**dict.fromkeys(_ROW_KEYS, np.nan), "l": l, "no_root": True}
    e_geo = geodesic_energy_coefficient(stc) * r ** 3
    e_lc = lightcut_energy_coefficient(stc) * l ** 3
    lc = lightcut_expansions(stc, l, x)
    gd = geodesic_side_expansions(stc, r, x)
    h_g, h_lc = gd["h"][0], lc["h"][0]
    sc_g, sc_lc = gd["scalar_curvature"][0], lc["scalar_curvature"][0]
    return {"l": l, "r": r, "r_closed_form": closed, "no_root": False,
            "energy_geodesic": e_geo, "energy_lightcut": e_lc, "excess": e_geo - e_lc,
            "h_geodesic": h_g, "h_lightcut": h_lc, "sc_geodesic": sc_g, "sc_lightcut": sc_lc,
            "h_difference": h_g - h_lc, "sc_difference": sc_g - sc_lc}


def comparison_report(stc: SpacetimeCurvatureAtPoint, l_values,
                      sample_direction=(1.0, 0.0, 0.0)) -> ComparisonReport:
    """Energies, matched radii and pointwise curvature gaps per parameter.

    The excess coefficient is fitted by an l^3 regression over the rows where
    the area matching succeeded, and is reported against both candidate
    closed forms (the quoted (6/5)|k0|^2 and the substitution-derived
    (1/10)|k0|^2; the two differ by the 1/12 energy normalization).
    """
    l_values = np.asarray(l_values, dtype=float)
    x = np.asarray(sample_direction, dtype=float)
    norm = np.linalg.norm(x)
    if not norm > 0:
        raise ValueError(f"sample_direction must be a nonzero vector, got {x}")
    x = x / norm
    rows = [_comparison_row(stc, l, x) for l in l_values]

    excess = np.array([row["excess"] for row in rows])
    good = ~np.isnan(excess)
    if np.count_nonzero(good) >= 2:
        li = l_values[good]
        fit = float(np.linalg.lstsq(
            np.vstack([li ** 3, li ** 5]).T, excess[good], rcond=None)[0][0])
    elif np.count_nonzero(good) == 1:
        fit = float(excess[good][0] / l_values[good][0] ** 3)
    else:
        fit = np.nan

    k0sq = stc.traceless_k_norm_sq
    return ComparisonReport(rows=rows, excess_coefficient_fit=fit,
                            excess_candidate_quoted=1.2 * k0sq,
                            excess_candidate_derived=0.1 * k0sq, sample_direction=x)


# ----------------------------------------------------------------------
# exact coefficient algebra for the light-cut area
# ----------------------------------------------------------------------

def _canonical_rm_key(i, j, k, l):
    """Canonical index + sign under the Riemann symmetries (no Bianchi)."""
    sign = 1
    if (i, j) > (j, i):
        i, j, sign = j, i, -sign
    if i == j:
        return None, 0
    if (k, l) > (l, k):
        k, l, sign = l, k, -sign
    if k == l:
        return None, 0
    if (i, j, k, l) > (k, l, i, j):
        i, j, k, l = k, l, i, j
    return (i, j, k, l), sign


class _RmPoly:
    """Linear combination of canonical Rm4 components with Fraction weights."""

    def __init__(self):
        self.terms = {}

    def add(self, idx, coeff):
        key, sign = _canonical_rm_key(*idx)
        if key is None or coeff == 0:
            return
        self.terms[key] = self.terms.get(key, Fraction(0)) + sign * coeff
        if self.terms[key] == 0:
            del self.terms[key]

    def __eq__(self, other):
        return self.terms == other.terms


def lightcut_area_quartic_identity() -> dict:
    """Exact check that integrating the light-cut metric correction gives
    the quartic area coefficient -(2 pi / 9)(4 Ric4(e0,e0) + Sc4).

    Both sides are expanded into canonical Rm4 components with exact Fraction
    weights (all moment integrals rational multiples of pi); returns the two
    expansions and whether they agree identically.
    """
    # Left side: (1/6) int_{S^2} sum_a Rm4(E, t_a, t_a, E) dmu, multiples of pi.
    # sum_a t_a (x) t_a = I - x (x) x on the spatial slots; E = e0 + x^k e_k, so
    # Rm(E, e_i, e_j, E) expands into x-monomials indexed by the E slots.
    left = _RmPoly()
    terms = []  # (x-factor tuple of spatial indices 1..3, rm index, weight)
    for i, j in product(range(1, 4), repeat=2):
        for a in range(4):
            for b in range(4):
                xfac = tuple(s for s in (a, b) if s != 0)
                rm_idx = (a, i, j, b)
                # delta_ij weight
                if i == j:
                    terms.append((xfac, rm_idx, Fraction(1)))
                # minus x_i x_j weight
                terms.append((xfac + (i, j), rm_idx, Fraction(-1)))
    for xfac, rm_idx, w in terms:
        mom = moment_integral(tuple(s - 1 for s in xfac))  # 0-based axes
        if mom != 0:
            left.add(rm_idx, w * mom * Fraction(1, 6))

    # Right side: -(2 pi / 9)(4 Ric00 + Sc4) in Rm components.
    right = _RmPoly()
    for i in range(1, 4):
        right.add((i, 0, i, 0), Fraction(-2, 9) * 4)  # Ric00 = sum_i Rm_{i0i0}
    # Sc4 = sum_{ij spatial} Rm_{ijij} - 2 sum_i Rm_{0i0i}
    for i, j in product(range(1, 4), repeat=2):
        right.add((i, j, i, j), Fraction(-2, 9))
    for i in range(1, 4):
        right.add((0, i, 0, i), Fraction(-2, 9) * (-2))

    return {"metric_expansion": left.terms, "closed_form": right.terms,
            "identical": left == right}
