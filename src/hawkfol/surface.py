"""Discretized embedded surfaces: geodesic spheres and radial graphs.

A surface is stored as node positions over a SphereGrid together with its
first/second fundamental forms.  Parameter derivatives of the embedding are
taken spectrally: each Cartesian component of the node positions is an
analytic function on the parameter sphere, so its harmonic coefficients decay
below roundoff well inside the grid band limit and differentiation through
the basis tables is exact for every surface this package builds.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .background import AmbientFields, InitialDataSet, ambient_fields
from .errors import DegenerateInducedMetric, NonEmbedded
from .geodesic import RayFan, transported_center_frame
from .grid import SphereGrid
# `analyze` is not called here; it stays importable as `hawkfol.surface.analyze`
# because perfbench/spans.py wraps that binding.
from .harmonics import (HarmonicField, analyze, analyze_compensated,  # noqa: F401
                        check_band_limit, synthesize, synthesize_derivatives)

_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k, _s in ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                       (0, 2, 1, -1), (2, 1, 0, -1), (1, 0, 2, -1)):
    _EPS3[_i, _j, _k] = _s


@dataclass
class EmbeddedSurface:
    """A closed discretized surface with all pointwise geometric fields.

    Immutable after construction; `area_element` is the density d(mu) per
    unit round-sphere measure, so quadrature against the grid weights
    integrates over the surface.

    All public fields are physical.  Internally the geometry is assembled in
    coordinates stretched by 1/scale around the surface so every spectral
    stage acts on O(1) fields; `scale` and the stretched geometry dict (the
    output of `geometry_from_embedding` with `ambient.rescaled(scale)`) are
    kept for the residual operator, which needs the same conditioning.
    """

    dataset: InitialDataSet
    grid: SphereGrid
    center: np.ndarray
    tau: np.ndarray
    radius: float
    phi: Optional[HarmonicField]
    positions: np.ndarray           # (N, 3)
    d1: np.ndarray                  # (N, 2, 3) embedding theta/phi derivatives
    d2: np.ndarray                  # (N, 2, 2, 3)
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
    scale: float
    stretched: dict

    @property
    def area(self) -> float:
        return float(np.sum(self.grid.weights * self.area_element))

    def integral(self, values: np.ndarray) -> float:
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

    Works for any chart: the physical one, the stretched surface chart and
    the rescaled ball alike, as long as `amb` holds the ambient components
    in the chart of `d1` and `d2` (see `AmbientFields.rescaled`).  Returns a
    dict of per-node fields, `d1` and `d2` included.
    """
    g = amb.metric
    gsig = np.einsum("nij,nai,nbj->nab", g, d1, d1)
    det = gsig[:, 0, 0] * gsig[:, 1, 1] - gsig[:, 0, 1] * gsig[:, 1, 0]
    if not np.all(det > 0):
        raise DegenerateInducedMetric("induced metric is singular at a node")
    ginv = np.empty_like(gsig)
    ginv[:, 0, 0] = gsig[:, 1, 1] / det
    ginv[:, 1, 1] = gsig[:, 0, 0] / det
    ginv[:, 0, 1] = -gsig[:, 0, 1] / det
    ginv[:, 1, 0] = -gsig[:, 1, 0] / det

    n_cov = np.einsum("ijk,nj,nk->ni", _EPS3, d1[:, 0], d1[:, 1])
    n_up = np.einsum("nij,nj->ni", amb.metric_inv, n_cov)
    norm = np.sqrt(np.einsum("ni,ni->n", n_cov, n_up))
    nu = n_up / norm[:, None]
    nu_cov = np.einsum("nij,nj->ni", g, nu)

    # ambient second derivative of the embedding: d2 + Gamma(d1, d1)
    w = d2 + np.einsum("nijk,naj,nbk->nabi", amb.christoffel, d1, d1)
    b = -np.einsum("ni,nabi->nab", nu_cov, w)
    h = np.einsum("nab,nab->n", ginv, b)
    b_up = np.einsum("nac,nbd,ncd->nab", ginv, ginv, b)
    b_norm_sq = np.einsum("nab,nab->n", b_up, b)
    trless = b_norm_sq - 0.5 * h * h

    gamma_sigma = np.einsum("ncd,nabi,nij,ndj->ncab", ginv, w, g, d1)

    p = amb.k_trace - np.einsum("nij,ni,nj->n", amb.k, nu, nu)
    area_element = np.sqrt(det) / grid.sin_theta
    return {
        "metric": gsig, "metric_inv": ginv, "normal": nu, "second_form": b,
        "mean_curvature": h, "traceless_second_norm_sq": trless,
        "surface_christoffel": gamma_sigma, "area_element": area_element,
        "p_trace": p, "d1": d1, "d2": d2,
    }


def surface_from_positions(ds: InitialDataSet, grid: SphereGrid, positions: np.ndarray,
                           center=(0.0, 0.0, 0.0), tau=(0.0, 0.0, 0.0), radius: float = 0.0,
                           phi: Optional[HarmonicField] = None,
                           check_band: bool = True,
                           offsets: Optional[np.ndarray] = None) -> EmbeddedSurface:
    """Assemble an EmbeddedSurface from node positions (fundamental-forms core).

    The assembly stretches coordinates by 1/scale around the quadrature mean
    of the nodes (scale = nominal radius when available), takes the ambient
    data there through `AmbientFields.rescaled(scale)`, and undoes the exact
    power-of-scale weights of the surface fields afterwards; this keeps the
    spectral differentiation floor independent of how small the surface is.
    `offsets`, when given, are the node positions relative to some nearby
    reference point, carried at full relative accuracy (the builders supply
    them; positions alone lose accuracy when the surface sits far from the
    chart origin).
    """
    positions = np.asarray(positions, dtype=float)
    rel = positions if offsets is None else np.asarray(offsets, dtype=float)
    anchor = (grid.weights @ rel) / (4.0 * np.pi)
    rel = rel - anchor
    scale = float(radius) if radius > 0 else float(
        np.sum(grid.weights * np.linalg.norm(rel, axis=1)) / (4.0 * np.pi))
    if not scale > 0:
        raise DegenerateInducedMetric("surface has zero extent")
    y = rel / scale
    d1y, d2y = spectral_embedding_derivatives(grid, y, check=check_band)
    amb = ambient_fields(ds, positions)
    geo = geometry_from_embedding(grid, d1y, d2y, amb.rescaled(scale))

    return EmbeddedSurface(
        dataset=ds, grid=grid, center=np.asarray(center, dtype=float),
        tau=np.asarray(tau, dtype=float), radius=float(radius), phi=phi,
        positions=positions, d1=scale * d1y, d2=scale * d2y,
        normal=geo["normal"],
        metric=scale * scale * geo["metric"],
        metric_inv=geo["metric_inv"] / (scale * scale),
        area_element=scale * scale * geo["area_element"],
        second_form=scale * geo["second_form"],
        mean_curvature=geo["mean_curvature"] / scale,
        traceless_second_norm_sq=geo["traceless_second_norm_sq"] / (scale * scale),
        p_trace=geo["p_trace"] / scale,
        surface_christoffel=geo["surface_christoffel"],
        ambient=amb, scale=scale, stretched=geo)


def fundamental_forms(surface: EmbeddedSurface) -> EmbeddedSurface:
    """Recompute every geometric field from the stored positions."""
    return surface_from_positions(
        surface.dataset, surface.grid, surface.positions, center=surface.center,
        tau=surface.tau, radius=surface.radius, phi=surface.phi)


def graph_surface(ds: InitialDataSet, center, tau, radius: float,
                  phi: Optional[HarmonicField], grid: SphereGrid,
                  fan: Optional[RayFan] = None, n_steps: int = 128,
                  check_band: bool = True) -> EmbeddedSurface:
    """Radial graph over the geodesic sphere: exp_c(r x (1 + phi(x))).

    `phi` is the full radial factor (any r^2 normalization is the caller's).
    Passing a prebuilt RayFan for the same center/grid skips re-integration.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
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
        fan = RayFan(ds, center_pt, frame, grid.nodes, s_max=float(np.max(s)),
                     n_steps=n_steps)
    offsets = fan.offsets_at(s)
    return surface_from_positions(ds, grid, fan.center + offsets, center=center,
                                  tau=tau, radius=radius, phi=phi,
                                  check_band=check_band, offsets=offsets)


def geodesic_sphere(ds: InitialDataSet, center, tau, radius: float, grid: SphereGrid,
                    fan: Optional[RayFan] = None, n_steps: int = 128) -> EmbeddedSurface:
    """Geodesic sphere of radius r around exp_center(tau); graph with phi = 0."""
    return graph_surface(ds, center, tau, radius, None, grid, fan=fan, n_steps=n_steps)


def coordinate_sphere(ds: InitialDataSet, center, radius: float,
                      grid: SphereGrid) -> EmbeddedSurface:
    """Euclidean coordinate sphere embedded directly (no geodesic shooting).

    Useful where radial geodesics are unavailable, e.g. spheres centered on
    the Schwarzschild puncture.
    """
    center = np.asarray(center, dtype=float).reshape(3)
    offsets = radius * grid.nodes
    return surface_from_positions(ds, grid, center + offsets, center=center,
                                  radius=radius, offsets=offsets)


def surface_integral(surface: EmbeddedSurface, values) -> float:
    """Integral of a per-node field over the surface measure."""
    values = np.asarray(values, dtype=float)
    if values.shape != (surface.grid.n_nodes,):
        raise ValueError("field shape does not match the grid")
    return surface.integral(values)


def surface_to_csv(surface: EmbeddedSurface, path) -> None:
    """Node table (index, position, H, P, area element) for plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "x", "y", "z", "H", "P", "dmu"])
        for n in range(surface.grid.n_nodes):
            writer.writerow([n, *surface.positions[n],
                             surface.mean_curvature[n], surface.p_trace[n],
                             surface.area_element[n] * surface.grid.weights[n]])
