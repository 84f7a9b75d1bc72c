"""Area-constrained Euler-Lagrange residual of the Hawking functional.

`el_residual` evaluates, on a physical surface,

    lam H + Lap_Sigma H + H |B0|^2 + H Ric(nu, nu)
    + P (grad_nu tr k - grad_nu k(nu, nu)) - 2 P div_Sigma(k(., nu))
    + 1/2 H P^2 - 2 k(grad_Sigma P, nu)

with every ambient derivative of k taken from the background's covariant
grad_k at the node (never by differencing node data), and the tangential
divergence expanded through the identity

    div_Sigma(k(., nu)) = (div k)(nu) - grad_nu k(nu, nu) - H k(nu, nu)
                          + g_Sigma(k, B).

`rescaled_phi` evaluates the same operator on the rescaled data
(g_{tau,r}, k_{tau,r}) over the unit ball, with the Lagrange term r^2 lam H;
its node values equal r^3 times the physical residual at matching parameter
points, which is verified rather than assumed.  `w_split` separates the
k-independent part W1 from the k-dependent part W2 of the rescaled operator.

Both evaluations run one term assembly, `_residual_terms`, on an
`AmbientFields` in the chart of the surface: the physical residual in the
chart of the data set, with the surface's own fields, and the rescaled
operator in the ball coordinates stretched by 1/r, where
`AmbientFields.rescaled` carries the ambient data.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .background import AmbientFields, InitialDataSet, _inverse_metric, ambient_fields
from .errors import NonEmbedded
from .geodesic import VariationBundle, transported_center_frame
from .grid import SphereGrid
from .harmonics import (HarmonicField, analyze_compensated, project_K0,
                        project_K1, synthesize_derivatives)
from .surface import EmbeddedSurface, geometry_from_embedding


@dataclass
class ResidualField:
    """Node values of the residual with norms and kernel projections.

    Norms are taken in the round measure of the parameter sphere, which is
    what the reduction solver projects against.
    """

    values: np.ndarray
    lam: float
    l2_norm: float
    c0_norm: float
    proj_k0: float
    proj_k1: np.ndarray

    @classmethod
    def from_values(cls, grid: SphereGrid, values: np.ndarray, lam: float) -> "ResidualField":
        l2 = float(np.sqrt(np.sum(grid.weights * values * values)))
        return cls(values=values, lam=float(lam), l2_norm=l2,
                   c0_norm=float(np.abs(values).max()),
                   proj_k0=project_K0(grid, values),
                   proj_k1=project_K1(grid, values))

    def to_csv(self, grid: SphereGrid, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["node", "x", "y", "z", "residual"])
            for n in range(grid.n_nodes):
                writer.writerow([n, *grid.nodes[n], self.values[n]])


def _laplacian(grid: SphereGrid, metric_inv, gamma_sigma, values):
    _, d1f, d2f = synthesize_derivatives(analyze_compensated(grid, values), grid)
    correction = np.einsum("ncab,nc->nab", gamma_sigma, d1f)
    return np.einsum("nab,nab->n", metric_inv, d2f - correction)


def laplace_beltrami(surface: EmbeddedSurface, values: np.ndarray) -> np.ndarray:
    """Laplace-Beltrami operator of the induced metric on a node field.

    Angle derivatives of the field are spectral; the connection correction
    uses the surface Christoffel symbols assembled pointwise from the ambient
    data, so no node-to-node differencing enters.
    """
    return _laplacian(surface.grid, surface.metric_inv, surface.surface_christoffel, values)


def _residual_terms(grid, geo, amb: AmbientFields, lam):
    """All eight terms of the residual from geometry + ambient node data.

    `geo` is the output of `geometry_from_embedding` with the same `amb`, or
    the fields of a surface built from it, in the chart whose ambient
    components `amb` holds.  Returns a dict of per-node arrays; the residual
    is their sum.
    """
    h = geo["mean_curvature"]
    nu = geo["normal"]
    d1 = geo["d1"]
    ginv_s = geo["metric_inv"]
    b = geo["second_form"]

    ric_nn = np.einsum("nij,ni,nj->n", amb.ricci, nu, nu)
    k = amb.k
    grad_k = amb.grad_k
    trk = amb.k_trace
    g_inv = amb.metric_inv

    k_nn = np.einsum("nij,ni,nj->n", k, nu, nu)
    p = trk - k_nn

    # grad_nu tr k and grad_nu k(nu, nu) from the covariant gradient of k
    grad_trk = np.einsum("nij,nsij->ns", g_inv, grad_k)
    grad_k_nn = np.einsum("nsij,ni,nj->ns", grad_k, nu, nu)
    nu_trk = np.einsum("ns,ns->n", grad_trk, nu)
    nu_k_nn = np.einsum("ns,ns->n", grad_k_nn, nu)

    # div_Sigma(k(., nu)) via the expanded first-variation identity
    div_k_nu_full = np.einsum("nsl,nslj,nj->n", g_inv, grad_k, nu)
    k_surf = np.einsum("nij,nai,nbj->nab", k, d1, d1)
    k_dot_b = np.einsum("nac,nbd,nab,ncd->n", ginv_s, ginv_s, k_surf, b)
    div_sigma = div_k_nu_full - nu_k_nn - h * k_nn + k_dot_b

    # tangential gradient of P: dP_a = d1_a^l (grad_l trk - grad_l k(nu,nu))
    #                                  - 2 B_a^b k(d1_b, nu)
    b_mixed = np.einsum("nbc,nac->nab", ginv_s, b)  # B_a^b
    k_d1_nu = np.einsum("nij,nbi,nj->nb", k, d1, nu)
    dp = (np.einsum("nal,nl->na", d1, grad_trk - grad_k_nn)
          - 2.0 * np.einsum("nab,nb->na", b_mixed, k_d1_nu))
    grad_p_vec = np.einsum("nab,nb,nai->ni", ginv_s, dp, d1)
    k_gradp_nu = np.einsum("nij,ni,nj->n", k, grad_p_vec, nu)

    return {
        "lam_h": lam * h,
        "laplacian_h": _laplacian(grid, ginv_s, geo["surface_christoffel"], h),
        "h_b_traceless": h * geo["traceless_second_norm_sq"],
        "h_ricci": h * ric_nn,
        "p_normal_derivatives": p * (nu_trk - nu_k_nn),
        "p_divergence": -2.0 * p * div_sigma,
        "h_p_squared": 0.5 * h * p * p,
        "k_grad_p": -2.0 * k_gradp_nu,
    }


def el_residual(ds: InitialDataSet, surface: EmbeddedSurface, lam: float,
                return_terms: bool = False):
    """Physical-surface residual of the area-constrained equation.

    Returns a ResidualField over the parameter sphere; with `return_terms`
    also the dict of individual terms.  The terms are assembled from the
    surface's own fields and ambient data, in the chart of the data set.
    `ds` must be the data set the surface was built on.
    """
    if ds is not surface.dataset:
        raise ValueError("el_residual: ds is not the data set of the surface")
    terms = _residual_terms(surface.grid, vars(surface), surface.ambient, lam)
    values = sum(terms.values())
    res = ResidualField.from_values(surface.grid, values, lam)
    if return_terms:
        return res, terms
    return res


# ----------------------------------------------------------------------
# the rescaled operator on the unit ball
# ----------------------------------------------------------------------

def _rescaled_node_data(ds: InitialDataSet, center, tau, radius: float,
                        grid: SphereGrid, radial_factor: np.ndarray,
                        n_steps: int = 64) -> AmbientFields:
    """Ambient data of (g_{tau,r}, k_{tau,r}) at the graph nodes of the ball.

    Pulls every tensor back through the normal-coordinate chart F_tau using
    the exact chart differentials (Jacobi fields) and Hessians (second
    variations), then stretches the chart by 1/r with
    `AmbientFields.rescaled(radius)`.  At r = 0 the ball data is flat.
    """
    n = grid.n_nodes
    if radius == 0.0:
        eye = np.broadcast_to(np.eye(3), (n, 3, 3))
        return AmbientFields(points=np.zeros((n, 3)), metric=eye.copy(), metric_inv=eye.copy(),
                             christoffel=np.zeros((n, 3, 3, 3)), ricci=np.zeros((n, 3, 3)),
                             k=np.zeros((n, 3, 3)), k_trace=np.zeros(n),
                             grad_k=np.zeros((n, 3, 3, 3)))

    center_pt, frame = transported_center_frame(ds, center, tau)
    radii = radius * radial_factor
    bundle = VariationBundle(ds, center_pt, frame, grid.nodes, radii, n_steps=n_steps)
    amb = ambient_fields(ds, bundle.points)

    df = bundle.df        # (n, a, i): manifold a, chart i
    d2f = bundle.d2f      # (n, a, i, j)
    g_hat = np.einsum("nab,nai,nbj->nij", amb.metric, df, df)
    g_inv = _inverse_metric(g_hat)
    df_inv = g_inv @ np.swapaxes(df, 1, 2) @ amb.metric   # DF^-1 = ghat^-1 DF^T g
    gamma_hat = np.einsum("nkc,ncij->nkij", df_inv,
                          d2f + np.einsum("ncab,nai,nbj->ncij", amb.christoffel, df, df))
    k_hat = np.einsum("nab,nai,nbj->nij", amb.k, df, df)
    pulled = AmbientFields(
        points=radii[:, None] * grid.nodes, metric=g_hat, metric_inv=g_inv,
        christoffel=gamma_hat, ricci=np.einsum("nab,nai,nbj->nij", amb.ricci, df, df),
        k=k_hat, k_trace=np.einsum("nij,nij->n", g_inv, k_hat),
        grad_k=np.einsum("ncab,ncs,nai,nbj->nsij", amb.grad_k, df, df, df))
    return pulled.rescaled(radius)


def _rescaled_geometry(ds: InitialDataSet, center, tau, radius: float,
                       phi: Optional[HarmonicField], lam: float, grid: SphereGrid,
                       n_steps: int = 64):
    """Residual term dict of S_phi in the rescaled ball."""
    phi_vals, dphi1, dphi2 = synthesize_derivatives(
        HarmonicField.zero(0) if phi is None else phi, grid)
    factor = 1.0 + phi_vals
    if np.any(factor <= 0):
        raise NonEmbedded(f"1 + phi reaches {factor.min():.3g} <= 0")

    x1, x2 = grid.embedding_derivatives
    x = grid.nodes
    d1 = factor[:, None, None] * x1 + dphi1[:, :, None] * x[:, None, :]
    d2 = (factor[:, None, None, None] * x2
          + dphi2[:, :, :, None] * x[:, None, None, :]
          + dphi1[:, :, None, None] * x1[:, None, :, :]
          + dphi1[:, None, :, None] * x1[:, :, None, :])

    amb = _rescaled_node_data(ds, center, tau, radius, grid, factor, n_steps=n_steps)
    return _residual_terms(grid, geometry_from_embedding(grid, d1, d2, amb), amb,
                           radius * radius * lam)


def rescaled_phi(ds: InitialDataSet, center, tau, radius: float,
                 phi: Optional[HarmonicField], lam: float, grid: SphereGrid,
                 n_steps: int = 64) -> ResidualField:
    """The rescaled operator at (r, tau, phi, lam); equals r^3 times the
    physical residual at matching parameter points."""
    terms = _rescaled_geometry(ds, center, tau, radius, phi, lam, grid, n_steps=n_steps)
    values = sum(terms.values())
    return ResidualField.from_values(grid, values, lam)


def w_split(ds: InitialDataSet, center, tau, radius: float,
            phi: Optional[HarmonicField], lam: float, grid: SphereGrid,
            n_steps: int = 64):
    """(W1, W2): the k-independent and k-dependent parts of the rescaled operator."""
    terms = _rescaled_geometry(ds, center, tau, radius, phi, lam, grid, n_steps=n_steps)
    w1 = terms["lam_h"] + terms["laplacian_h"] + terms["h_b_traceless"] + terms["h_ricci"]
    w2 = (terms["p_normal_derivatives"] + terms["p_divergence"]
          + terms["h_p_squared"] + terms["k_grad_p"])
    return (ResidualField.from_values(grid, w1, lam),
            ResidualField.from_values(grid, w2, lam))
