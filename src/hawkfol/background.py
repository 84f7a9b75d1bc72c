"""Initial data sets (M, g, k) on a coordinate chart.

An InitialDataSet carries vectorized callables for the metric and the
symmetric 2-tensor k on a single chart of R^3, optionally with closed-form
partial derivatives.  All ambient curvature quantities used elsewhere
(Christoffel symbols, Riemann/Ricci/scalar curvature and their derivatives,
covariant derivatives of k) are assembled here.

Index conventions
-----------------
dg[..., l, i, j]        partial_l g_ij
d2g[..., l, m, i, j]    partial_l partial_m g_ij
christoffel[..., i, j, k]   Gamma^i_{jk}
riemann[..., i, j, k, l]    Rm_ijkl = g_ia R^a_jkl, with
    R^a_{jkl} = partial_k Gamma^a_{lj} - partial_l Gamma^a_{kj} + Gamma Gamma
ricci[..., i, j] = R^a_{iaj}, so the round sphere has positive scalar
curvature and geodesic spheres obey H = 2/r - (r/3) Ric(x, x) + O(r^2).
grad_k[..., s, i, j]    covariant derivative nabla_s k_ij
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import ChartExceeded, DegenerateMetric, InvalidParams, UnknownPreset

Tensor = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FiniteDifferenceSpec:
    """Step sizes for the 4th-order central stencils.

    `step` drives first derivatives of the supplied callables; `second_step`
    drives direct second-derivative stencils (larger, to sit at the roundoff
    versus truncation optimum of double precision); `derived_step` drives
    derivatives of assembled pointwise maps such as Sc(x) or Ric(x).
    """

    step: float = 1e-4
    second_step: float = 2e-3
    derived_step: float = 1e-3

    @property
    def reach(self) -> float:
        return 2.0 * max(self.step, self.second_step, self.derived_step)


@dataclass(frozen=True)
class InitialDataSet:
    """Analytic background (g, k) on a chart of R^3.

    Parameters
    ----------
    metric : callable
        Maps points of shape (..., 3) to symmetric matrices (..., 3, 3).
    k_tensor : callable
        Same shape contract; the symmetric 2-tensor of the data set.
    dmetric, d2metric, d3metric, dk_tensor : callable, optional
        Closed-form partial derivatives (see module docstring for the index
        layout).  Missing ones are filled by central finite differences.
    chart_radius : float
        Coordinate validity radius; operations whose stencils would leave
        |x| < chart_radius raise ChartExceeded.
    """

    metric: Tensor
    k_tensor: Tensor
    dmetric: Optional[Tensor] = None
    d2metric: Optional[Tensor] = None
    d3metric: Optional[Tensor] = None
    dk_tensor: Optional[Tensor] = None
    chart_radius: float = np.inf
    name: str = ""
    fd: FiniteDifferenceSpec = field(default_factory=FiniteDifferenceSpec)

    @property
    def derivative_mode(self) -> str:
        closed = all(f is not None for f in (self.dmetric, self.d2metric, self.dk_tensor))
        return "closed_form" if closed else "finite_difference"

    def with_finite_differences(self) -> "InitialDataSet":
        """Copy of the data set that ignores closed-form derivatives."""
        return replace(self, dmetric=None, d2metric=None, d3metric=None,
                       dk_tensor=None, name=self.name + "[fd]")

    # -- guarded evaluations ------------------------------------------------

    def check_chart(self, pts: np.ndarray, reach: float = 0.0) -> None:
        r = np.linalg.norm(np.atleast_2d(pts), axis=-1)
        if np.any(r + reach >= self.chart_radius):
            raise ChartExceeded(
                f"point radius {r.max():.4g} + stencil reach {reach:.2g} exceeds "
                f"chart radius {self.chart_radius:.4g}")

    def metric_at(self, pts: np.ndarray, check: bool = False) -> np.ndarray:
        g = self.metric(np.asarray(pts, dtype=float))
        if check:
            _inverse_metric(g)
        return g


# ----------------------------------------------------------------------
# finite-difference stencils (vectorized over leading point axes)
# ----------------------------------------------------------------------

def _central(fun, pts, e, h):
    """4th-order central first difference of fun along the step vector e (|e| = h)."""
    return (-fun(pts + 2 * e) + 8.0 * fun(pts + e)
            - 8.0 * fun(pts - e) + fun(pts - 2 * e)) / (12.0 * h)


def _fd_grad(fun, pts, h):
    """4th-order gradient of fun along coordinate axes; output axis 1 is the direction."""
    return np.stack([_central(fun, pts, e, h) for e in h * np.eye(3)], axis=pts.ndim - 1)


def _fd_hess(fun, pts, h):
    """4th-order second derivatives; output axes (dir, dir) follow the point axes."""
    base = fun(pts)
    n_batch = pts.ndim - 1
    steps = h * np.eye(3)
    blocks = [[None] * 3 for _ in range(3)]
    for l, e in enumerate(steps):
        blocks[l][l] = (-fun(pts + 2 * e) + 16.0 * fun(pts + e) - 30.0 * base
                        + 16.0 * fun(pts - e) - fun(pts - 2 * e)) / (12.0 * h * h)
        for m in range(l):
            blocks[l][m] = blocks[m][l] = _central(
                lambda q: _central(fun, q, steps[m], h), pts, e, h)
    return np.stack([np.stack(row, axis=n_batch) for row in blocks], axis=n_batch)


def _dg_of(ds: InitialDataSet, pts):
    if ds.dmetric is not None:
        return ds.dmetric(pts)
    return _fd_grad(ds.metric, pts, ds.fd.step)


def _d2g_of(ds: InitialDataSet, pts):
    if ds.d2metric is not None:
        return ds.d2metric(pts)
    return _fd_hess(ds.metric, pts, ds.fd.second_step)


def _d3g_of(ds: InitialDataSet, pts):
    if ds.d3metric is not None:
        return ds.d3metric(pts)
    if ds.d2metric is not None:
        return _fd_grad(ds.d2metric, pts, ds.fd.derived_step)
    return _fd_grad(lambda q: _fd_hess(ds.metric, q, ds.fd.second_step),
                    pts, ds.fd.derived_step)


def _dk_of(ds: InitialDataSet, pts):
    if ds.dk_tensor is not None:
        return ds.dk_tensor(pts)
    return _fd_grad(ds.k_tensor, pts, ds.fd.step)


# ----------------------------------------------------------------------
# pointwise curvature algebra
# ----------------------------------------------------------------------

def _inverse_metric(g):
    """Closed-form inverse of a batch of metrics through g = L D L^T.

    The pivots D are the ratios of consecutive leading minors (g_00, the 2x2
    minor, det), so requiring them positive is Sylvester's test; any failing
    node raises DegenerateMetric, and a NaN fails.  Unlike cofactors over the
    determinant, the factorization keeps a relative error of order
    cond(g) * eps when two eigenvalues are small.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        d0 = g[..., 0, 0]
        l1, l2 = g[..., 1, 0] / d0, g[..., 2, 0] / d0
        d1 = g[..., 1, 1] - l1 * g[..., 1, 0]
        s21 = g[..., 2, 1] - l2 * g[..., 1, 0]
        l21 = s21 / d1
        d2 = g[..., 2, 2] - l2 * g[..., 2, 0] - l21 * s21
    if not (np.all(d0 > 0) and np.all(d1 > 0) and np.all(d2 > 0)):
        raise DegenerateMetric("metric is not positive definite")
    i1, i2 = 1.0 / d1, 1.0 / d2
    a = l1 * l21 - l2                    # L^-1 = [[1, 0, 0], [-l1, 1, 0], [a, -l21, 1]]
    x01, x02, x12 = -l1 * i1 - a * l21 * i2, a * i2, -l21 * i2
    return np.stack([1.0 / d0 + l1 * l1 * i1 + a * a * i2, x01, x02,
                     x01, i1 + l21 * l21 * i2, x12,
                     x02, x12, i2], axis=-1).reshape(g.shape)


def _bracket(dg):
    """d_j g_lk + d_k g_lj - d_l g_jk in layout [..., l, j, k] (any leading axes)."""
    return np.einsum("...jlk->...ljk", dg) + np.einsum("...klj->...ljk", dg) - dg


def christoffel_from(g_inv, dg):
    """Gamma^i_{jk} from the inverse metric and metric gradient."""
    s = _bracket(dg)
    return 0.5 * (g_inv @ s.reshape(s.shape[:-3] + (3, 9))).reshape(s.shape)


def dchristoffel_from(g_inv, dg, d2g):
    """partial_m Gamma^i_{jk}, index layout [..., m, i, j, k]."""
    s = _bracket(dg)
    ds = _bracket(d2g)
    dginv = -np.einsum("...ia,...mab,...bl->...mil", g_inv, dg, g_inv, optimize=True)
    return (0.5 * np.einsum("...mil,...ljk->...mijk", dginv, s, optimize=True)
            + 0.5 * np.einsum("...il,...mljk->...mijk", g_inv, ds, optimize=True))


def d2christoffel_from(g_inv, dg, d2g, d3g):
    """partial_m partial_n Gamma^i_{jk}, layout [..., m, n, i, j, k]."""
    s = _bracket(dg)
    ds = _bracket(d2g)
    d2s = _bracket(d3g)
    dginv = -np.einsum("...ia,...mab,...bl->...mil", g_inv, dg, g_inv, optimize=True)
    d2ginv = -(np.einsum("...mia,...nab,...bl->...mnil", dginv, dg, g_inv, optimize=True)
               + np.einsum("...ia,...mnab,...bl->...mnil", g_inv, d2g, g_inv, optimize=True)
               + np.einsum("...ia,...nab,...mbl->...mnil", g_inv, dg, dginv, optimize=True))
    return (0.5 * np.einsum("...mnil,...ljk->...mnijk", d2ginv, s, optimize=True)
            + 0.5 * np.einsum("...mil,...nljk->...mnijk", dginv, ds, optimize=True)
            + 0.5 * np.einsum("...nil,...mljk->...mnijk", dginv, ds, optimize=True)
            + 0.5 * np.einsum("...il,...mnljk->...mnijk", g_inv, d2s, optimize=True))


def riemann_from(g, gamma, dgamma):
    """Fully covariant Rm_ijkl from Gamma and its gradient.

    R^a_{jkl} = d_k Gamma^a_{lj} - d_l Gamma^a_{kj}
                + Gamma^a_{km} Gamma^m_{lj} - Gamma^a_{lm} Gamma^m_{kj}
    """
    term = (np.einsum("...kalj->...ajkl", dgamma)
            - np.einsum("...lakj->...ajkl", dgamma)
            + np.einsum("...akm,...mlj->...ajkl", gamma, gamma)
            - np.einsum("...alm,...mkj->...ajkl", gamma, gamma))
    return np.einsum("...ia,...ajkl->...ijkl", g, term)


def ricci_from(gamma, dgamma):
    """Ric_jl = R^a_{jal}."""
    return (np.einsum("...aalj->...jl", dgamma)
            - np.einsum("...laaj->...jl", dgamma)
            + np.einsum("...aam,...mlj->...jl", gamma, gamma)
            - np.einsum("...alm,...maj->...jl", gamma, gamma))


def _curvature_chain(ds: InitialDataSet, pts):
    """The staged chain g -> g^-1 -> Gamma -> d Gamma -> Ric at a batch of points."""
    g = ds.metric(pts)
    g_inv = _inverse_metric(g)
    dg = _dg_of(ds, pts)
    gamma = christoffel_from(g_inv, dg)
    dgamma = dchristoffel_from(g_inv, dg, _d2g_of(ds, pts))
    return g, g_inv, gamma, dgamma, ricci_from(gamma, dgamma)


def _covariant_dk(ds: InitialDataSet, pts, gamma, k):
    """nabla_s k_ij = partial_s k_ij - Gamma^l_{si} k_lj - Gamma^l_{sj} k_il."""
    return (_dk_of(ds, pts) - np.einsum("...lsi,...lj->...sij", gamma, k)
            - np.einsum("...lsj,...il->...sij", gamma, k))


@dataclass
class AmbientFields:
    """Batched ambient quantities at a set of points (leading axis = node)."""

    points: np.ndarray
    metric: np.ndarray
    metric_inv: np.ndarray
    christoffel: np.ndarray
    ricci: np.ndarray
    k: np.ndarray
    k_trace: np.ndarray
    grad_k: np.ndarray  # covariant nabla_s k_ij

    def rescaled(self, s: float) -> "AmbientFields":
        """The same data in coordinates stretched by 1/s (y = x / s).

        The one chart-rescaling rule: metric components are unchanged, every
        derivative brings a factor s and k scales with the connection, so
        Gamma, k and tr k carry one power of s and Ric and grad k two.
        `points` is kept as it is.
        """
        return replace(self, christoffel=s * self.christoffel, ricci=s * s * self.ricci,
                       k=s * self.k, k_trace=s * self.k_trace, grad_k=s * s * self.grad_k)


def ambient_fields(ds: InitialDataSet, pts: np.ndarray, check_chart: bool = True) -> AmbientFields:
    """Metric, connection, Ricci and k data at a batch of points."""
    pts = np.asarray(pts, dtype=float)
    if check_chart:
        ds.check_chart(pts, reach=0.0 if ds.derivative_mode == "closed_form" else ds.fd.reach)
    g, g_inv, gamma, _, ric = _curvature_chain(ds, pts)
    k = ds.k_tensor(pts)
    trk = np.einsum("...ij,...ij->...", g_inv, k)
    return AmbientFields(points=pts, metric=g, metric_inv=g_inv, christoffel=gamma,
                         ricci=ric, k=k, k_trace=trk,
                         grad_k=_covariant_dk(ds, pts, gamma, k))


def scalar_curvature(ds: InitialDataSet, pts: np.ndarray) -> np.ndarray:
    """Scalar curvature at a batch of points."""
    _, g_inv, _, _, ric = _curvature_chain(ds, np.asarray(pts, dtype=float))
    return np.einsum("...jl,...jl->...", g_inv, ric)


# ----------------------------------------------------------------------
# single-point curvature report
# ----------------------------------------------------------------------

@dataclass
class CurvatureAtPoint:
    christoffel: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    grad_scalar: np.ndarray
    hess_scalar: np.ndarray
    grad_ricci: np.ndarray
    tr_k: float
    norm_k_sq: float
    grad_k: np.ndarray
    traceless_k_norm_sq: float


def _covariant_hessian(gamma, grad, hess):
    """Symmetrized nabla^2 f = partial^2 f - Gamma^l_{ij} partial_l f at one point."""
    hess = hess - np.einsum("lij,l->ij", gamma, grad)
    return 0.5 * (hess + hess.T)


def curvature_at(ds: InitialDataSet, x) -> CurvatureAtPoint:
    """Every ambient curvature quantity used by the critical-sphere formulas.

    Parameters
    ----------
    ds : InitialDataSet
    x : array_like, shape (3,)
        Chart point; the surrounding finite-difference stencils must stay
        inside the chart.

    Notes
    -----
    grad_scalar / hess_scalar / grad_ricci differentiate the assembled
    pointwise maps with 4th-order stencils and covariantize with the local
    Christoffel symbols.  Pure function; safe to call concurrently.
    """
    x = np.asarray(x, dtype=float).reshape(3)
    reach = ds.fd.reach + (0.0 if ds.derivative_mode == "closed_form" else ds.fd.reach)
    ds.check_chart(x[None, :], reach=reach)

    pt = x[None, :]
    g, g_inv, gamma, dgamma, ric = _curvature_chain(ds, pt)
    rm = riemann_from(g, gamma, dgamma)
    sc = np.einsum("...jl,...jl->...", g_inv, ric)

    def sc_map(pts):
        return scalar_curvature(ds, pts)

    h1 = ds.fd.derived_step
    gm = gamma[0]
    dsc = _fd_grad(sc_map, pt, h1)[0]
    hess_sc = _covariant_hessian(gm, dsc, _fd_hess(sc_map, pt, ds.fd.second_step)[0])

    # nabla_s Ric_ij = partial_s Ric_ij - Gamma^l_{si} Ric_lj - Gamma^l_{sj} Ric_il
    dric = _fd_grad(lambda q: _curvature_chain(ds, q)[4], pt, h1)[0]
    grad_ric = (dric
                - np.einsum("lsi,lj->sij", gm, ric[0])
                - np.einsum("lsj,il->sij", gm, ric[0]))

    k = ds.k_tensor(pt)
    grad_k = _covariant_dk(ds, pt, gamma, k)
    trk = float(np.einsum("ij,ij->", g_inv[0], k[0]))
    k_up = np.einsum("ip,jq,pq->ij", g_inv[0], g_inv[0], k[0])
    norm_k_sq = float(np.einsum("ij,ij->", k_up, k[0]))
    traceless = norm_k_sq - trk * trk / 3.0

    return CurvatureAtPoint(
        christoffel=gamma[0], riemann=rm[0], ricci=ric[0], scalar=float(sc[0]),
        grad_scalar=dsc, hess_scalar=hess_sc, grad_ricci=grad_ric,
        tr_k=trk, norm_k_sq=norm_k_sq, grad_k=grad_k[0],
        traceless_k_norm_sq=traceless)


def concentration_scalar(ds: InitialDataSet, x):
    """Value, gradient and Hessian of f = Sc + 3/5 (tr k)^2 + 1/5 |k|^2 at x.

    Critical points of f with nondegenerate Hessian are exactly the points
    that can host a foliation of area-constrained critical spheres.
    """
    x = np.asarray(x, dtype=float).reshape(3)

    def f_map(pts):
        _, g_inv, _, _, ric = _curvature_chain(ds, pts)
        sc = np.einsum("...jl,...jl->...", g_inv, ric)
        k = ds.k_tensor(pts)
        trk = np.einsum("...ij,...ij->...", g_inv, k)
        k_up = np.einsum("...ip,...jq,...pq->...ij", g_inv, g_inv, k)
        ksq = np.einsum("...ij,...ij->...", k_up, k)
        return sc + 0.6 * trk * trk + 0.2 * ksq

    pt = x[None, :]
    reach = ds.fd.reach + (0.0 if ds.derivative_mode == "closed_form" else ds.fd.reach)
    ds.check_chart(pt, reach=reach)
    value = float(f_map(pt)[0])
    grad = _fd_grad(f_map, pt, ds.fd.derived_step)[0]
    gamma = christoffel_from(_inverse_metric(ds.metric(pt)), _dg_of(ds, pt))[0]
    return value, grad, _covariant_hessian(gamma, grad, _fd_hess(f_map, pt, ds.fd.second_step)[0])


# ----------------------------------------------------------------------
# presets
# ----------------------------------------------------------------------

def _as_sym3(a, what):
    a = np.asarray(a, dtype=float)
    if a.shape != (3, 3):
        raise InvalidParams(f"{what} must be a 3x3 matrix")
    if not np.allclose(a, a.T, atol=1e-12):
        raise InvalidParams(f"{what} must be symmetric")
    return 0.5 * (a + a.T)


def _const_tensor(mat):
    mat = np.asarray(mat, dtype=float)

    def fun(pts):
        pts = np.asarray(pts, dtype=float)
        return np.broadcast_to(mat, pts.shape[:-1] + (3, 3)).copy()
    return fun


def _zero_field(rank):
    def fun(pts):
        pts = np.asarray(pts, dtype=float)
        return np.zeros(pts.shape[:-1] + (3,) * rank)
    return fun


def _flat(k_matrix=None):
    k = np.zeros((3, 3)) if k_matrix is None else _as_sym3(k_matrix, "k")
    return InitialDataSet(
        metric=_const_tensor(np.eye(3)), k_tensor=_const_tensor(k),
        dmetric=_zero_field(3), d2metric=_zero_field(4), d3metric=_zero_field(5),
        dk_tensor=_zero_field(3), chart_radius=np.inf,
        name="flat" if k_matrix is None else "constant_k")


def _conformal_quadratic(eps, k=None, chart_radius=None):
    eps = float(eps)
    if chart_radius is None:
        chart_radius = np.inf if eps >= 0 else 0.9 / np.sqrt(-eps)
    kmat = np.zeros((3, 3)) if k is None else _as_sym3(k, "k")
    eye = np.eye(3)

    def metric(pts):
        pts = np.asarray(pts, dtype=float)
        r2 = np.sum(pts * pts, axis=-1)
        return (1.0 + eps * r2)[..., None, None] * eye

    def dmetric(pts):
        pts = np.asarray(pts, dtype=float)
        return 2.0 * eps * pts[..., :, None, None] * eye

    def d2metric(pts):
        pts = np.asarray(pts, dtype=float)
        return np.broadcast_to(2.0 * eps * np.einsum("lm,ij->lmij", eye, eye),
                               pts.shape[:-1] + (3, 3, 3, 3)).copy()

    return InitialDataSet(
        metric=metric, k_tensor=_const_tensor(kmat),
        dmetric=dmetric, d2metric=d2metric, d3metric=_zero_field(5),
        dk_tensor=_zero_field(3), chart_radius=chart_radius,
        name=f"conformal_quadratic(eps={eps})")


def _schwarzschild_slice(mass, chart_radius=np.inf):
    m = float(mass)
    if m <= 0:
        raise InvalidParams("Schwarzschild mass must be positive")
    eye = np.eye(3)

    def rho_of(pts):
        rho = np.linalg.norm(pts, axis=-1)
        if np.any(rho < 1e-10):
            raise DegenerateMetric("Schwarzschild slice is singular at the puncture rho = 0")
        return rho

    def psi_parts(pts):
        pts = np.asarray(pts, dtype=float)
        rho = rho_of(pts)
        psi = 1.0 + 0.5 * m / rho
        dpsi = -0.5 * m * pts / (rho ** 3)[..., None]
        return rho, psi, dpsi

    def metric(pts):
        _, psi, _ = psi_parts(np.asarray(pts, dtype=float))
        return (psi ** 4)[..., None, None] * eye

    def dmetric(pts):
        _, psi, dpsi = psi_parts(np.asarray(pts, dtype=float))
        return 4.0 * (psi ** 3)[..., None, None, None] * dpsi[..., :, None, None] * eye

    def d2metric(pts):
        pts = np.asarray(pts, dtype=float)
        rho, psi, dpsi = psi_parts(pts)
        d2psi = -0.5 * m * (np.einsum("kl,...->...kl", eye, rho ** -3)
                            - 3.0 * np.einsum("...k,...l,...->...kl", pts, pts, rho ** -5))
        coef = (12.0 * (psi ** 2)[..., None, None] * np.einsum("...k,...l->...kl", dpsi, dpsi)
                + 4.0 * (psi ** 3)[..., None, None] * d2psi)
        return coef[..., :, :, None, None] * eye

    def d3metric(pts):
        pts = np.asarray(pts, dtype=float)
        rho, psi, dpsi = psi_parts(pts)
        d2psi = -0.5 * m * (np.einsum("kl,...->...kl", eye, rho ** -3)
                            - 3.0 * np.einsum("...k,...l,...->...kl", pts, pts, rho ** -5))
        d3psi = -0.5 * m * (-3.0 * (np.einsum("kl,...n->...kln", eye, pts)
                                    + np.einsum("kn,...l->...kln", eye, pts)
                                    + np.einsum("ln,...k->...kln", eye, pts)) * (rho ** -5)[..., None, None, None]
                            + 15.0 * np.einsum("...k,...l,...n->...kln", pts, pts, pts)
                            * (rho ** -7)[..., None, None, None])
        coef = (24.0 * psi[..., None, None, None] * np.einsum("...k,...l,...n->...kln", dpsi, dpsi, dpsi)
                + 12.0 * (psi ** 2)[..., None, None, None]
                * (np.einsum("...kl,...n->...kln", d2psi, dpsi)
                   + np.einsum("...kn,...l->...kln", d2psi, dpsi)
                   + np.einsum("...ln,...k->...kln", d2psi, dpsi))
                + 4.0 * (psi ** 3)[..., None, None, None] * d3psi)
        return coef[..., :, :, :, None, None] * eye

    return InitialDataSet(
        metric=metric, k_tensor=_zero_field(2), dmetric=dmetric, d2metric=d2metric,
        d3metric=d3metric, dk_tensor=_zero_field(3), chart_radius=chart_radius,
        name=f"schwarzschild_slice(m={m})")


def _polynomial(g_quadratic=None, k_constant=None, k_linear=None, chart_radius=None):
    c = np.zeros((3, 3, 3, 3)) if g_quadratic is None else np.asarray(g_quadratic, dtype=float)
    if c.shape != (3, 3, 3, 3):
        raise InvalidParams("g_quadratic must have shape (3, 3, 3, 3)")
    if not (np.allclose(c, c.transpose(1, 0, 2, 3), atol=1e-12)
            and np.allclose(c, c.transpose(0, 1, 3, 2), atol=1e-12)):
        raise InvalidParams("g_quadratic must be symmetric in (i, j) and in (k, l)")
    k0 = np.zeros((3, 3)) if k_constant is None else _as_sym3(k_constant, "k_constant")
    k1 = np.zeros((3, 3, 3)) if k_linear is None else np.asarray(k_linear, dtype=float)
    if k1.shape != (3, 3, 3) or not np.allclose(k1, k1.transpose(0, 2, 1), atol=1e-12):
        raise InvalidParams("k_linear must have shape (3, 3, 3), symmetric in the last two axes")
    if chart_radius is None:
        cmax = np.abs(c).max()
        chart_radius = np.inf if cmax == 0 else min(2.0, 0.3 / np.sqrt(cmax))
    eye = np.eye(3)

    def metric(pts):
        pts = np.asarray(pts, dtype=float)
        quad = np.einsum("ijkl,...k,...l->...ij", c, pts, pts)
        return eye + quad

    def dmetric(pts):
        pts = np.asarray(pts, dtype=float)
        return 2.0 * np.einsum("ijml,...l->...mij", c, pts)

    def d2metric(pts):
        pts = np.asarray(pts, dtype=float)
        return np.broadcast_to(2.0 * c.transpose(2, 3, 0, 1),
                               pts.shape[:-1] + (3, 3, 3, 3)).copy()

    def k_tensor(pts):
        pts = np.asarray(pts, dtype=float)
        return k0 + np.einsum("lij,...l->...ij", k1, pts)

    def dk_tensor(pts):
        pts = np.asarray(pts, dtype=float)
        return np.broadcast_to(k1, pts.shape[:-1] + (3, 3, 3)).copy()

    return InitialDataSet(
        metric=metric, k_tensor=k_tensor, dmetric=dmetric, d2metric=d2metric,
        d3metric=_zero_field(5), dk_tensor=dk_tensor, chart_radius=chart_radius,
        name="polynomial")


_PRESETS = {
    "flat": lambda: _flat(),
    "constant_k": lambda k: _flat(k_matrix=k),
    "conformal_quadratic": _conformal_quadratic,
    "schwarzschild_slice": _schwarzschild_slice,
    "polynomial": _polynomial,
}


def preset(name: str, **params) -> InitialDataSet:
    """Construct a closed-form preset data set.

    Known names: flat, constant_k(k), conformal_quadratic(eps, k=None),
    schwarzschild_slice(mass), polynomial(g_quadratic, k_constant, k_linear).
    """
    if name not in _PRESETS:
        raise UnknownPreset(f"unknown preset {name!r}; known: {sorted(_PRESETS)}")
    try:
        return _PRESETS[name](**params)
    except TypeError as exc:
        raise InvalidParams(str(exc)) from exc
