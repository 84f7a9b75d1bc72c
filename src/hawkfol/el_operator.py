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
`AmbientFields.rescaled` carries the ambient data.  The terms read k and
grad k on the frame (X_theta, X_phi, nu), and the rescaled operator pulls g,
k, Ric and grad k back on the rows of DF^T, both through `_in_frame`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .background import (AmbientFields, InitialDataSet, _in_frame, _inverse_metric,
                         ambient_fields, preset)
from .errors import InvalidParams, as_count
from .geodesic import VariationBundle, transported_center_frame
from .grid import SphereGrid
from .harmonics import (HarmonicField, analyze_compensated, project_K0,
                        project_K1, synthesize_derivatives)
from .surface import EmbeddedSurface, chord_derivatives, geometry_from_embedding


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
    ginv_s = geo["metric_inv"]
    b = geo["second_form"]
    p = geo["p_trace"]

    # k and grad k on the frame (X_theta, X_phi, nu); its inverse metric is
    # diag(g_Sigma^-1, 1), so a trace less its (nu, nu) entry is a tangent trace
    frame = np.concatenate([geo["d1"], nu[:, None]], axis=1)
    k_f = _in_frame(frame, amb.k)          # k(e_a, e_b)
    dk_f = _in_frame(frame, amb.grad_k)    # grad_{e_c} k(e_a, e_b)

    def tangent_trace(t):                  # g_Sigma^ab t_ab over the last two axes
        return np.einsum("nab,n...ab->n...", ginv_s, t[..., :2, :2])

    # grad_c tr k - grad_c k(nu, nu) for c = X_theta, X_phi, nu
    grad_tan = tangent_trace(dk_f)
    b_mixed = b @ ginv_s                   # B_a^b
    # div_Sigma(k(., nu)) via the expanded first-variation identity
    div_sigma = (tangent_trace(dk_f[..., 2]) - h * k_f[:, 2, 2]
                 + tangent_trace(b_mixed @ k_f[:, :2, :2]))
    # tangential gradient of P: dP_a = grad_a tr k - grad_a k(nu, nu) - 2 B_a^b k(X_b, nu)
    dp = grad_tan[:, :2] - 2.0 * (b_mixed @ k_f[:, :2, 2:])[..., 0]
    k_gradp_nu = np.einsum("na,na->n", (ginv_s @ dp[..., None])[..., 0], k_f[:, :2, 2])

    return {
        "lam_h": lam * h,
        "laplacian_h": _laplacian(grid, ginv_s, geo["surface_christoffel"], h),
        "h_b_traceless": h * geo["traceless_second_norm_sq"],
        "h_ricci": h * _in_frame(nu[:, None], amb.ricci)[:, 0, 0],
        "p_normal_derivatives": p * grad_tan[:, 2],
        "p_divergence": -2.0 * p * div_sigma,
        "h_p_squared": 0.5 * h * p * p,
        "k_grad_p": -2.0 * k_gradp_nu,
    }


def el_residual(ds: InitialDataSet, surface: EmbeddedSurface, lam: float) -> ResidualField:
    """Physical-surface residual of the area-constrained equation.

    Returns a ResidualField over the parameter sphere.  The terms are
    assembled from the surface's own fields and ambient data, in the chart
    of the data set.  `ds` must be the data set the surface was built on.
    """
    if ds is not surface.dataset:
        raise InvalidParams("el_residual: ds is not the data set of the surface")
    terms = _residual_terms(surface.grid, vars(surface), surface.ambient, lam)
    return ResidualField.from_values(surface.grid, sum(terms.values()), lam)


# ----------------------------------------------------------------------
# the rescaled operator on the unit ball
# ----------------------------------------------------------------------

def _rescaled_node_data(ds: InitialDataSet, center, tau, radius: float,
                        grid: SphereGrid, radial_factor: np.ndarray) -> AmbientFields:
    """Ambient data of (g_{tau,r}, k_{tau,r}) at the graph nodes of the ball.

    Pulls every tensor back through the normal-coordinate chart F_tau using
    its differential and Hessian from the `VariationBundle`, then stretches
    the chart by 1/r with `AmbientFields.rescaled(radius)`.  At r = 0 the
    ball data is flat.
    """
    if radius == 0.0:
        return ambient_fields(preset("flat"), np.zeros((grid.n_nodes, 3)))

    center_pt, frame = transported_center_frame(ds, center, tau)
    radii = radius * radial_factor
    bundle = VariationBundle(ds, center_pt, frame, grid, radii)
    amb = ambient_fields(ds, bundle.points)

    df = bundle.df        # (n, a, i): manifold a, chart i
    dft = np.swapaxes(df, 1, 2)   # rows DF e_i: the pullback is the frame rule on them
    g_hat = _in_frame(dft, amb.metric)
    g_inv = _inverse_metric(g_hat)
    df_inv = g_inv @ dft @ amb.metric   # DF^-1 = ghat^-1 DF^T g
    gamma_hat = np.einsum("nkc,ncij->nkij", df_inv,
                          bundle.d2f + np.einsum("ncab,nai,nbj->ncij", amb.christoffel, df, df))
    # tr k is a scalar, so the pullback keeps it
    pulled = AmbientFields(
        points=radii[:, None] * grid.nodes, metric=g_hat, metric_inv=g_inv,
        christoffel=gamma_hat, ricci=_in_frame(dft, amb.ricci), k=_in_frame(dft, amb.k),
        k_trace=amb.k_trace, grad_k=_in_frame(dft, amb.grad_k))
    return pulled.rescaled(radius)


def _rescaled_geometry(ds: InitialDataSet, center, tau, radius: float,
                       phi: Optional[HarmonicField], lam: float, grid: SphereGrid):
    """Residual term dict of S_phi in the rescaled ball."""
    factor, d1, d2 = chord_derivatives(grid, phi)
    amb = _rescaled_node_data(ds, center, tau, radius, grid, factor)
    return _residual_terms(grid, geometry_from_embedding(grid, d1, d2, amb), amb,
                           radius * radius * lam)


def rescaled_phi(ds: InitialDataSet, center, tau, radius: float,
                 phi: Optional[HarmonicField], lam: float, grid: SphereGrid,
                 n_steps: int = 64) -> ResidualField:
    """The rescaled operator at (r, tau, phi, lam); equals r^3 times the
    physical residual at matching parameter points.  `n_steps` is checked
    and sets nothing; perfbench binds it."""
    as_count(n_steps, "n_steps")
    terms = _rescaled_geometry(ds, center, tau, radius, phi, lam, grid)
    values = sum(terms.values())
    return ResidualField.from_values(grid, values, lam)


def w_split(ds: InitialDataSet, center, tau, radius: float,
            phi: Optional[HarmonicField], lam: float, grid: SphereGrid):
    """(W1, W2): the k-independent and k-dependent parts of the rescaled operator."""
    terms = _rescaled_geometry(ds, center, tau, radius, phi, lam, grid)
    w1 = terms["lam_h"] + terms["laplacian_h"] + terms["h_b_traceless"] + terms["h_ricci"]
    w2 = (terms["p_normal_derivatives"] + terms["p_divergence"]
          + terms["h_p_squared"] + terms["k_grad_p"])
    return (ResidualField.from_values(grid, w1, lam),
            ResidualField.from_values(grid, w2, lam))
