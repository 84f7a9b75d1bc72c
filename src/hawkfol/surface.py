"""Discretized embedded surfaces: geodesic spheres and radial graphs.

A surface is stored as node positions over a SphereGrid together with its
fundamental forms, which read the ambient data on the frame (X_theta, X_phi,
nu) at each node through `background._in_frame`.  The geometry is computed
node-last (tensor axes first, the point axis last), like the curvature
chain, and every field is a node-first view of its contiguous node-last
array, so later node-last contractions read it without a copy.  The
builders make graphs c + r frame (1 + phi(x)) x + xi: the chord's
derivatives come in closed form from `chord_derivatives`, the one rule the
rescaled operator shares, and only the O(r^3) ray deviation xi is
differentiated spectrally, so the l^2 gain of the derivative tables acts on
xi's rounding, not the chord's.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .background import (AmbientFields, InitialDataSet, _in_frame, _node_first, _node_last,
                         ambient_fields)
from .errors import DegenerateInducedMetric, InvalidParams, NonEmbedded, as_count, as_point
from .geodesic import RayFan, transported_center_frame
from .grid import SphereGrid
# `analyze` and `synthesize` are not called here; they stay importable as
# `hawkfol.surface.analyze` and `hawkfol.surface.synthesize` because
# perfbench/spans.py wraps those bindings.
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
    included, keyed by the names of the `EmbeddedSurface` fields.  Every
    field is computed node-last and returned as a node-first view; `d1` and
    `normal` are views of the frame (X_theta, X_phi, nu), one contiguous
    (3, 3, n) array.
    """
    g, g_inv, gamma = (_node_last(a, rank) for a, rank in
                       ((amb.metric, 2), (amb.metric_inv, 2), (amb.christoffel, 3)))
    frame = np.empty((3, 3, len(d1)))
    frame[:2] = np.moveaxis(d1, 0, -1)
    tangents = frame[:2]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite det is rejected below
        gsig = _in_frame(tangents, g)
        det = gsig[0, 0] * gsig[1, 1] - gsig[0, 1] * gsig[1, 0]
    if not np.all((det > 0) & (det < np.inf)):
        raise DegenerateInducedMetric("induced metric is singular or not finite at a node")
    ginv = np.stack([gsig[1, 1], -gsig[0, 1], -gsig[1, 0], gsig[0, 0]]).reshape(gsig.shape) / det

    n_cov = np.cross(tangents[0], tangents[1], axis=0)
    n_up = np.einsum("ij...,j...->i...", g_inv, n_cov)
    frame[2] = n_up / np.sqrt(np.einsum("i...,i...->...", n_cov, n_up))

    # w_ab = d2_ab + Gamma(X_a, X_b) [i, a, b] and g(w_ab, e_c) on the frame:
    # -B for c = nu, the lowered surface connection for c = X_theta, X_phi
    w = _in_frame(tangents, gamma, 1)
    w += d2.transpose(3, 1, 2, 0)
    w_frame = np.einsum("ci...,iab...->cab...", np.einsum("ij...,cj...->ci...", g, frame), w)
    b = -w_frame[2]
    gamma_sigma = np.einsum("cd...,dab...->cab...", ginv, w_frame[:2])
    h = np.einsum("ab...,ab...->...", ginv, b)
    b_mixed = np.einsum("ac...,cb...->ab...", ginv, b)
    trless = np.einsum("ab...,ba...->...", b_mixed, b_mixed) - 0.5 * h * h

    p = amb.k_trace - _in_frame(frame[2:], _node_last(amb.k, 2))[0, 0]
    area_element = np.sqrt(det) / grid.sin_theta
    return {
        "metric": _node_first(gsig), "metric_inv": _node_first(ginv),
        "normal": _node_first(frame[2]), "second_form": _node_first(b),
        "mean_curvature": h, "traceless_second_norm_sq": trless,
        "surface_christoffel": _node_first(gamma_sigma), "area_element": area_element,
        "p_trace": p, "d1": _node_first(tangents),
    }


def chord_derivatives(grid: SphereGrid, phi: Optional[HarmonicField]):
    """(1 + phi, d1, d2): the first and second (theta, phi) derivatives of the
    chord (1 + phi(x)) x in closed form, from those of phi and of x (`phi`
    None is 0).  Raises NonEmbedded where 1 + phi <= 0."""
    phi_vals, dphi1, dphi2 = synthesize_derivatives(
        HarmonicField.zero(0) if phi is None else phi, grid)
    factor = 1.0 + phi_vals
    if np.any(factor <= 0):
        raise NonEmbedded(f"1 + phi reaches {factor.min():.3g} <= 0; surface not embedded")
    x1, x2 = grid.embedding_derivatives
    x = grid.nodes
    d1 = factor[:, None, None] * x1 + dphi1[:, :, None] * x[:, None, :]
    d2 = (factor[:, None, None, None] * x2
          + dphi2[:, :, :, None] * x[:, None, None, :]
          + dphi1[:, :, None, None] * x1[:, None, :, :]
          + dphi1[:, None, :, None] * x1[:, :, None, :])
    return factor, d1, d2


def _surface(ds: InitialDataSet, grid: SphereGrid, positions, d1, d2) -> EmbeddedSurface:
    amb = ambient_fields(ds, positions)
    return EmbeddedSurface(dataset=ds, grid=grid, positions=positions, ambient=amb,
                           **geometry_from_embedding(grid, d1, d2, amb))


def surface_from_positions(ds: InitialDataSet, grid: SphereGrid, positions: np.ndarray,
                           check_band: bool = True) -> EmbeddedSurface:
    """Assemble an EmbeddedSurface from node positions alone, differentiated
    spectrally, in the chart of the data set."""
    positions = np.asarray(positions, dtype=float)
    return _surface(ds, grid, positions,
                    *spectral_embedding_derivatives(grid, positions, check=check_band))


def graph_surface(ds: InitialDataSet, center, tau, radius: float,
                  phi: Optional[HarmonicField], grid: SphereGrid,
                  fan: Optional[RayFan] = None, n_steps: int = 128,
                  check_band: bool = True) -> EmbeddedSurface:
    """Radial graph over the geodesic sphere: exp_c(r x (1 + phi(x))).

    Only the rays' deviation xi (`RayFan.deviations_at`) is differentiated
    spectrally, with the band check if `check_band`; the chord adds
    `chord_derivatives` times r frame^T.
    `phi` is the full radial factor (any r^2 normalization is the caller's).
    Passing a prebuilt RayFan for the same center/grid skips re-integration.
    `n_steps` is checked and sets nothing; perfbench binds it.
    """
    if not (np.isfinite(radius) and radius > 0):
        raise InvalidParams(f"radius must be finite and positive, got {radius}")
    as_count(n_steps, "n_steps")
    factor, c1, c2 = chord_derivatives(grid, phi)
    s = radius * factor
    if fan is None:
        center_pt, frame = transported_center_frame(ds, center, tau)
        fan = RayFan(ds, center_pt, frame, grid.nodes, s_max=float(np.max(s)))
    xi = fan.deviations_at(s)
    d1, d2 = spectral_embedding_derivatives(grid, xi, check=check_band)
    chord_to_chart = radius * fan.frame.T
    d1 += (c1.reshape(-1, 3) @ chord_to_chart).reshape(d1.shape)
    d2 += (c2.reshape(-1, 3) @ chord_to_chart).reshape(d2.shape)
    positions = fan.center + (factor[:, None] * grid.nodes) @ chord_to_chart + xi
    return _surface(ds, grid, positions, d1, d2)


def geodesic_sphere(ds: InitialDataSet, center, tau, radius: float,
                    grid: SphereGrid) -> EmbeddedSurface:
    """Geodesic sphere of radius r around exp_center(tau); graph with phi = 0."""
    return graph_surface(ds, center, tau, radius, None, grid)


def coordinate_sphere(ds: InitialDataSet, center, radius: float,
                      grid: SphereGrid) -> EmbeddedSurface:
    """Euclidean coordinate sphere embedded directly (no geodesic shooting):
    the graph with xi = 0 and phi = 0.  Useful where radial geodesics are
    unavailable, e.g. spheres centered on the Schwarzschild puncture.
    """
    center = as_point(center, "center")
    _, d1, d2 = chord_derivatives(grid, None)
    return _surface(ds, grid, center + radius * grid.nodes, radius * d1, radius * d2)


def surface_to_csv(surface: EmbeddedSurface, path) -> None:
    """Node table (index, position, H, P, area element) for plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "x", "y", "z", "H", "P", "dmu"])
        for n in range(surface.grid.n_nodes):
            writer.writerow([n, *surface.positions[n],
                             surface.mean_curvature[n], surface.p_trace[n],
                             surface.area_element[n] * surface.grid.weights[n]])
