"""Discretized embedded surfaces: geodesic spheres and radial graphs.

A surface is stored as node positions over a SphereGrid together with its
fundamental forms, which read the ambient data on the frame (X_theta, X_phi,
nu) at each node through `background._in_frame`.  Parameter derivatives of
the embedding are taken spectrally: each Cartesian component of the node
positions is an analytic function on the parameter sphere, so its harmonic
coefficients decay below roundoff well inside the grid band limit and
differentiation through the basis tables is exact for every surface this
package builds.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .background import AmbientFields, InitialDataSet, _in_frame, ambient_fields
from .errors import DegenerateInducedMetric, InvalidParams, NonEmbedded, as_count, as_point
from .geodesic import RayFan, transported_center_frame
from .grid import SphereGrid
# `analyze` is not called here; it stays importable as `hawkfol.surface.analyze`
# because perfbench/spans.py wraps that binding.
from .harmonics import (HarmonicField, analyze, analyze_compensated,  # noqa: F401
                        check_band_limit, synthesize, synthesize_derivatives)

@dataclass
class EmbeddedSurface:
    """A closed discretized surface with all pointwise geometric fields.

    Immutable after construction; `area_element` is the density d(mu) per
    unit round-sphere measure, so quadrature against the grid weights
    integrates over the surface.

    Every field is in the chart of the data set: the geometric fields are
    the output of `geometry_from_embedding` with `ambient`, as they are.
    """

    dataset: InitialDataSet
    grid: SphereGrid
    positions: np.ndarray           # (N, 3)
    d1: np.ndarray                  # (N, 2, 3) embedding theta/phi derivatives
    normal: np.ndarray              # (N, 3) outward unit normal
    metric: np.ndarray              # (N, 2, 2) induced metric
    metric_inv: np.ndarray
    area_element: np.ndarray        # (N,)
    second_form: np.ndarray         # (N, 2, 2)
    mean_curvature: np.ndarray      # (N,)
    traceless_second_norm_sq: np.ndarray
    p_trace: np.ndarray             # (N,) P = tr k - k(nu, nu)
    surface_christoffel: np.ndarray  # (N, 2, 2, 2) Gamma^Sigma c_ab -> [c, a, b]
    ambient: AmbientFields

    @property
    def area(self) -> float:
        return float(np.sum(self.grid.weights * self.area_element))

    def integral(self, values) -> float:
        """Integral of a per-node field over the surface measure."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.grid.n_nodes,):
            raise InvalidParams("field shape does not match the grid")
        return float(np.sum(self.grid.weights * values * self.area_element))


def spectral_embedding_derivatives(grid: SphereGrid, positions: np.ndarray, check: bool = True):
    """First and second (theta, phi) derivatives of the embedding components.

    Uses compensated analysis (degree <= 1 baseline removed) so that the
    l^2 amplification in the second-derivative tables acts on coefficients
    that are accurate relative to the small nonlinear part of the embedding.
    `check` runs the band-limit check on those coefficients.
    """
    field = analyze_compensated(grid, positions)
    if check:
        check_band_limit(grid, positions, field)
    _, d1, d2 = synthesize_derivatives(field, grid)
    return d1, d2


def geometry_from_embedding(grid: SphereGrid, d1, d2, amb: AmbientFields):
    """Fundamental forms from embedding derivatives and ambient node data.

    Works for any chart, the physical one and the rescaled ball alike, as
    long as `amb` holds the ambient components in the chart of `d1` and `d2`
    (see `AmbientFields.rescaled`).  Returns a dict of per-node fields, `d1`
    included, keyed by the names of the `EmbeddedSurface` fields.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite det is rejected below
        gsig = _in_frame(d1, amb.metric)
        det = gsig[:, 0, 0] * gsig[:, 1, 1] - gsig[:, 0, 1] * gsig[:, 1, 0]
    if not np.all((det > 0) & (det < np.inf)):
        raise DegenerateInducedMetric("induced metric is singular or not finite at a node")
    ginv = np.empty_like(gsig)
    ginv[:, 0, 0] = gsig[:, 1, 1] / det
    ginv[:, 1, 1] = gsig[:, 0, 0] / det
    ginv[:, 0, 1] = -gsig[:, 0, 1] / det
    ginv[:, 1, 0] = -gsig[:, 1, 0] / det

    n_cov = np.cross(d1[:, 0], d1[:, 1])
    n_up = np.einsum("nij,nj->ni", amb.metric_inv, n_cov)
    nu = n_up / np.sqrt(np.einsum("ni,ni->n", n_cov, n_up))[:, None]
    frame = np.concatenate([d1, nu[:, None]], axis=1)

    # g(d2 + Gamma(d1, d1), e_c) on the frame (X_theta, X_phi, nu): -B for
    # c = nu, the lowered surface connection for c = X_theta, X_phi
    w = d2 + np.einsum("nijk,naj,nbk->nabi", amb.christoffel, d1, d1)
    w_frame = np.swapaxes(w.reshape(-1, 4, 3) @ amb.metric @ np.swapaxes(frame, 1, 2), 1, 2)
    b = -w_frame[:, 2].reshape(-1, 2, 2)
    gamma_sigma = (ginv @ w_frame[:, :2]).reshape(-1, 2, 2, 2)
    h = np.einsum("nab,nab->n", ginv, b)
    b_mixed = ginv @ b
    trless = np.einsum("nab,nba->n", b_mixed, b_mixed) - 0.5 * h * h

    p = amb.k_trace - _in_frame(nu[:, None], amb.k)[:, 0, 0]
    area_element = np.sqrt(det) / grid.sin_theta
    return {
        "metric": gsig, "metric_inv": ginv, "normal": nu, "second_form": b,
        "mean_curvature": h, "traceless_second_norm_sq": trless,
        "surface_christoffel": gamma_sigma, "area_element": area_element,
        "p_trace": p, "d1": d1,
    }


def surface_from_positions(ds: InitialDataSet, grid: SphereGrid, positions: np.ndarray,
                           check_band: bool = True,
                           offsets: Optional[np.ndarray] = None) -> EmbeddedSurface:
    """Assemble an EmbeddedSurface from node positions (fundamental-forms core).

    The embedding is differentiated in the chart of the data set and the
    geometry assembled there with `ambient_fields` at the nodes.  No
    rescaling is needed for small surfaces: rounding error is relative, so
    it does not depend on the units of the chart.  `offsets`, when given,
    are the node positions relative to some nearby reference point, carried
    at full relative accuracy (the builders supply them; positions alone
    lose accuracy when the surface sits far from the chart origin).
    """
    positions = np.asarray(positions, dtype=float)
    rel = positions if offsets is None else np.asarray(offsets, dtype=float)
    d1, d2 = spectral_embedding_derivatives(grid, rel, check=check_band)
    amb = ambient_fields(ds, positions)
    return EmbeddedSurface(dataset=ds, grid=grid, positions=positions, ambient=amb,
                           **geometry_from_embedding(grid, d1, d2, amb))


def graph_surface(ds: InitialDataSet, center, tau, radius: float,
                  phi: Optional[HarmonicField], grid: SphereGrid,
                  fan: Optional[RayFan] = None, n_steps: int = 128,
                  check_band: bool = True) -> EmbeddedSurface:
    """Radial graph over the geodesic sphere: exp_c(r x (1 + phi(x))).

    `phi` is the full radial factor (any r^2 normalization is the caller's).
    Passing a prebuilt RayFan for the same center/grid skips re-integration.
    `n_steps` is checked and sets nothing; perfbench binds it.
    """
    if not (np.isfinite(radius) and radius > 0):
        raise InvalidParams(f"radius must be finite and positive, got {radius}")
    as_count(n_steps, "n_steps")
    if phi is None:
        phi_vals = np.zeros(grid.n_nodes)
    else:
        phi_vals = synthesize(phi, grid)
    factor = 1.0 + phi_vals
    if np.any(factor <= 0):
        raise NonEmbedded(f"1 + phi reaches {factor.min():.3g} <= 0; surface not embedded")
    s = radius * factor
    if fan is None:
        center_pt, frame = transported_center_frame(ds, center, tau)
        fan = RayFan(ds, center_pt, frame, grid.nodes, s_max=float(np.max(s)))
    offsets = fan.offsets_at(s)
    return surface_from_positions(ds, grid, fan.center + offsets, check_band=check_band,
                                  offsets=offsets)


def geodesic_sphere(ds: InitialDataSet, center, tau, radius: float,
                    grid: SphereGrid) -> EmbeddedSurface:
    """Geodesic sphere of radius r around exp_center(tau); graph with phi = 0."""
    return graph_surface(ds, center, tau, radius, None, grid)


def coordinate_sphere(ds: InitialDataSet, center, radius: float,
                      grid: SphereGrid) -> EmbeddedSurface:
    """Euclidean coordinate sphere embedded directly (no geodesic shooting).

    Useful where radial geodesics are unavailable, e.g. spheres centered on
    the Schwarzschild puncture.
    """
    center = as_point(center, "center")
    offsets = radius * grid.nodes
    return surface_from_positions(ds, grid, center + offsets, offsets=offsets)


def surface_to_csv(surface: EmbeddedSurface, path) -> None:
    """Node table (index, position, H, P, area element) for plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "x", "y", "z", "H", "P", "dmu"])
        for n in range(surface.grid.n_nodes):
            writer.writerow([n, *surface.positions[n],
                             surface.mean_curvature[n], surface.p_trace[n],
                             surface.area_element[n] * surface.grid.weights[n]])
