"""Geodesic shooting and radial ray bundles.

Surfaces are built from radial geodesics ("rays") leaving a common center,
integrated as their deviation xi from the straight chord (for conditioning).
A RayFan answers position queries at any radius per ray from the rays'
series in s, so changing the radial graph function never forces a
re-integration.  A VariationBundle evaluates the same ray field at each node
of a grid at its own radius, with its derivatives in s and in the direction,
which give the exact differential and Hessian of the normal-coordinate chart
needed by the rescaled operator.

Both run their rays by one rule.  The deviations are smooth in the
direction, so the rays run only on a coarse Gauss grid, (L + 2) x (2L + 4)
nodes at band limit L, whose harmonic coefficients are kept and synthesised
at the requested directions.  L starts at 8 (200 rays, whatever the surface
grid) and grows by 4 while the top two degrees of a stored quantity at the
end of the rays carry more than its rounding, 1e-16 s_max plus 1e-14 of its
largest coefficient.  A RayFan stops where the next grid would hold more
rays than it has directions and integrates the directions themselves instead
(fewer than 200 directions are so from the start), with `band_limit` None, so
no position carries an interpolation error above rounding.  A
VariationBundle reads angle derivatives from the coarse series, so its grid
grows past the node count, up to band limit 48, past which it warns
BandLimitExceeded.  Every integrated state must be finite, or
DegenerateMetric is raised.  The rays are chart-checked at every iterate,
and the returned positions when they are queried.

Integration in s
----------------
The rays are analytic in s, and one integrator serves every ray of the
library.  `_picard` solves v'' = a(s, v, v') by Picard iteration on
Chebyshev-Lobatto nodes (Clenshaw & Norton, Comput. J. 6, 1963; Bai &
Junkins, Celest. Mech. Dyn. Astron. 110, 2011): each iteration is one kernel
call on all nodes of all rays.  It grows its node count, and halves its
interval, by the same tail bound as the coarse grid.  RayFan evaluates the
converged series of xi, and VariationBundle those of xi and xi', at each
direction's own radius through one rule, `_radius_rows`; the center-frame
transport, which exp_map is with no vectors to carry, takes the end state.

Kernel
------
Geodesics are driven by `geodesic_acceleration`, the one hand-contracted
connection: it contracts the velocity into the metric gradient before raising
the index, so -Gamma(v, v) costs a few 3-vector contractions per node and one
closed-form 3x3 inverse per point.  It reads g and its first derivatives
only.  The center-frame transport takes Gamma from `christoffel_from`.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

from .background import InitialDataSet, _inverse_metric, _node_last, christoffel_from
from .errors import (BandLimitExceeded, ChartExceeded, DegenerateMetric, InvalidParams,
                     StepSizeUnderflow, as_count, as_point)
from .grid import SphereGrid, default_grid
from .harmonics import HarmonicField, analyze, point_basis, synthesize_derivatives

# The coarse ray grid: its starting band limit and increment.  The top two
# degrees of a value group at s_max are at rounding when their coefficients
# are below _TAIL s_max plus the analysis rounding, _ROUNDING times the
# group's largest coefficient: on data whose xi is exactly degree 1, the other
# degrees read 5e-16 of it at band limit 8 and up to 2e-14 at band limit 28.
_START_BAND = 8
_BAND_STEP = 4
# the largest coarse grid of a VariationBundle, 50 x 100 rays
_MAX_BUNDLE_BAND = 48
_TAIL = 1e-16
_ROUNDING = 1e-14
# Chebyshev-Picard: the node counts of a segment, the shortest segment and
# the most segments of one integration
_PICARD_NODES = (17, 33, 65)
_MIN_SEGMENT = 1e-14
_MAX_SEGMENTS = 1024


def geodesic_acceleration(ds: InitialDataSet, pts: np.ndarray, vel: np.ndarray) -> np.ndarray:
    """-Gamma(v, v) = -1/2 g^-1 (2 d_j g_lk v^j v^k - d_l g_jk v^j v^k).

    v is contracted into the metric gradient first; Gamma is never formed.
    """
    g_inv = _inverse_metric(_node_last(ds.metric_jet(pts, 0), 2))
    dg_v = np.einsum("...lij,...j->...li", ds.metric_jet(pts, 1), vel)
    lowered = (2.0 * np.einsum("...jl,...j->...l", dg_v, vel)
               - np.einsum("...lj,...j->...l", dg_v, vel))
    return -0.5 * np.einsum("il...,...l->...i", g_inv, lowered)


@functools.lru_cache(maxsize=None)
def _chebyshev(n: int):
    """Chebyshev-Lobatto nodes t (n,) on [-1, 1], ascending, the matrix from
    node values to Chebyshev coefficients, and the matrix from node values to
    the node values of the interpolant's integral from -1."""
    j = np.arange(n)
    t = np.sin(np.pi * (2 * j - (n - 1)) / (2 * (n - 1)))  # exactly antisymmetric
    k = np.arange(n + 1)[:, None]
    cos_k = np.cos(k * np.pi * (n - 1 - j) / (n - 1))  # T_k(t_j), k = 0 .. n
    halve = np.where((j == 0) | (j == n - 1), 0.5, 1.0)
    to_coeffs = (2.0 / (n - 1)) * halve[:, None] * cos_k[:n] * halve
    integrals = np.empty((n, n))  # integrals[j, k] = int_{-1}^{t_j} T_k
    integrals[:, 0] = t + 1.0
    integrals[:, 1] = 0.5 * (t * t - 1.0)
    k = np.arange(2, n)
    integrals[:, 2:] = (cos_k[3:].T / (2 * (k + 1)) - cos_k[1:n - 1].T / (2 * (k - 1))
                        - (-1.0) ** k / (k * k - 1))
    return t, to_coeffs, integrals @ to_coeffs


def _interpolation(n: int, t: np.ndarray) -> np.ndarray:
    """Rows evaluating the interpolant on n Lobatto nodes at points t in [-1, 1]
    (barycentric form; a point on a node takes that node's value exactly)."""
    nodes = _chebyshev(n)[0]
    weights = (-1.0) ** np.arange(n)
    weights[[0, -1]] *= 0.5
    diff = t[:, None] - nodes
    on_node = diff == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = weights / diff
        rows /= rows.sum(axis=1, keepdims=True)
    hit = on_node.any(axis=1)
    rows[hit] = on_node[hit]
    return rows


def _apply(matrix: np.ndarray, values: np.ndarray) -> np.ndarray:
    """matrix @ values along the leading (node) axis of values."""
    return (matrix @ values.reshape(len(values), -1)).reshape((len(matrix),) + values.shape[1:])


def _picard(ds: InitialDataSet, accel, v0, dv0, span: float, position):
    """Segments of the solution of v'' = accel(s, v, v') on [0, span] from v(0) = v0,
    v'(0) = dv0, by Chebyshev-Picard iteration.

    `v0` and `dv0` are tuples of arrays, the value groups and their
    s-derivatives.  `accel(s, v, dv)` takes the node values s (N,) and the
    groups with a leading node axis, (N, *shape) each, and returns their
    second derivatives: one call per iteration on all nodes at once.  An
    iteration sets v' = v'(a) + int accel, then v = v(a) + int v', and every
    iterate's `position(s, v)` is chart-checked.  The tail bound of a value
    group on a segment of length h is _TAIL h + _ROUNDING times its largest
    Chebyshev coefficient.  The iteration stops when each group's change is
    within its bound; the node count starts at 17 and doubles to 33 and 65
    while the top two coefficients of a group are above it.  A segment whose
    iteration stops contracting (a change, in units of the bound, more than
    half the one before), or whose tail stays above the bound at 65 nodes,
    is halved, and each half starts from the end state of the one
    before.  StepSizeUnderflow where a segment would fall below 1e-14 or the
    segments pass 1024, DegenerateMetric unless every iterate is finite.
    Returns [(a, h, n, v, dv)]: the node count and the node values of v and
    v' on each segment [a, a + h], in order.
    """
    segments, pending = [], [(0.0, span)]
    while pending:
        a, h = pending.pop()
        solved = _segment(ds, accel, v0, dv0, a, h, position)
        if solved is None:
            if h < 2 * _MIN_SEGMENT or len(segments) + len(pending) >= _MAX_SEGMENTS:
                raise StepSizeUnderflow(f"a ray segment of length {h:.3g} at s = {a:.6g} "
                                        f"does not resolve")
            pending += [(a + 0.5 * h, 0.5 * h), (a, 0.5 * h)]
            continue
        n, v, dv = solved
        segments.append((a, h, n, v, dv))
        v0, dv0 = tuple(x[-1] for x in v), tuple(x[-1] for x in dv)
    return segments


def _segment(ds, accel, v0, dv0, a, h, position):
    """(n, v, dv) node values on [a, a + h] by the rule of `_picard`, or None."""
    v = dv = None
    for n in _PICARD_NODES:
        t, to_coeffs, integral = _chebyshev(n)
        s = a + 0.5 * h * (t + 1.0)
        if v is None:  # the straight line through the start state
            dv = tuple(np.broadcast_to(x, (n,) + x.shape) for x in dv0)
            v = tuple(x + (s - a).reshape((n,) + (1,) * x.ndim) * y for x, y in zip(v0, dv0))
        else:  # the last count's solution on the new nodes
            rows = _interpolation(previous, t)
            v, dv = tuple(_apply(rows, x) for x in v), tuple(_apply(rows, x) for x in dv)
        last = np.inf
        while True:
            acc = accel(s, v, dv)
            dv = tuple(x + 0.5 * h * _apply(integral, y) for x, y in zip(dv0, acc))
            new = tuple(x + 0.5 * h * _apply(integral, y) for x, y in zip(v0, dv))
            coeffs = [np.abs(_apply(to_coeffs, x)) for x in new]
            bounds = [_TAIL * h + _ROUNDING * c.max() for c in coeffs]
            excess = max(np.abs(x - y).max() / b for x, y, b in zip(new, v, bounds))
            v = new
            if not np.isfinite(excess):
                raise DegenerateMetric("ray state is not finite")
            ds.check_chart(position(s, v))
            if excess <= 1.0:
                break
            if excess > 0.5 * last:
                return None
            last = excess
        if all(c[-2:].max() <= b for c, b in zip(coeffs, bounds)):
            return n, v, dv
        previous = n
    return None


def _radius_rows(segments, s: np.ndarray) -> list:
    """For each `_picard` segment (a, h, m, ...), the rows (len(s), m) that
    evaluate its interpolant at the radii of s it holds, zero elsewhere: a
    radius reads the last segment that starts at or below it."""
    which = np.searchsorted([a for a, *_ in segments], s, side="right") - 1
    return [(which == i)[:, None] * _interpolation(m, np.clip(2 * (s - a) / h - 1, -1, 1))
            for i, (a, h, m, *_) in enumerate(segments)]


def orthonormal_frame(ds: InitialDataSet, point) -> np.ndarray:
    """Columns form a g-orthonormal basis at the point (Cholesky gauge)."""
    g = ds.metric_jet(as_point(point, "point"), 0)
    _inverse_metric(g)  # raises DegenerateMetric unless g is positive definite
    chol = np.linalg.cholesky(g)
    return np.linalg.inv(chol).T


def exp_map(ds: InitialDataSet, base, v) -> np.ndarray:
    """Endpoint exp_base(v) of the geodesic with initial velocity v.

    `v` may carry leading batch axes.  Integrated by `_picard`, with every
    iterate chart-checked.
    """
    return _transport(ds, base, v)[0]


def _transport(ds: InitialDataSet, base, v, *vectors):
    """Final state (x, u, *vectors) of t -> exp_base(t v) on [0, 1]: `v` is (..., 3),
    and the columns of each of `vectors` (..., 3, m) are parallel transported.

    The value groups are x - base and the integral in t of each transported
    vector field, so that the vectors are first derivatives like u.
    """
    base = as_point(base, "base")
    v = np.asarray(v, dtype=float)

    def accel(t, x, dx):
        pts = base + x[0]
        gam = christoffel_from(_inverse_metric(_node_last(ds.metric_jet(pts, 0), 2)),
                               _node_last(ds.metric_jet(pts, 1), 3))
        gam_u = np.einsum("ijk...,...j->...ik", gam, dx[0])      # Gamma(u, .)
        return (-(gam_u @ dx[0][..., None])[..., 0], *(-gam_u @ a for a in dx[1:]))

    vectors = tuple(np.asarray(a, dtype=float) for a in vectors)
    zeros = (np.zeros(v.shape), *(np.zeros(a.shape) for a in vectors))
    segments = _picard(ds, accel, zeros, (v, *vectors), 1.0,
                       position=lambda t, x: base + x[0])
    x, dx = segments[-1][3:]
    return (base + x[0][-1], *(a[-1] for a in dx))


def transported_center_frame(ds: InitialDataSet, p, tau):
    """Center c(tau) = exp_p(tau^i e_i) and the parallel frame e_i^tau there.

    `tau` is given in the orthonormal frame at p.  Every tau is transported:
    one integration carries both the center and the frame, and at tau = 0 it
    returns (p, e_i) exactly, since a zero velocity moves nothing.
    """
    p, tau = as_point(p, "p"), as_point(tau, "tau")
    frame_p = orthonormal_frame(ds, p)
    center, _, frame = _transport(ds, p, frame_p @ tau, frame_p)
    return center, frame


def _ray_inputs(center, frame, directions):
    """`center` (3,), `frame` (3, 3) and unit `directions` (n, 3), n >= 1, as
    float arrays; InvalidParams unless they have those shapes and are finite."""
    center = as_point(center, "the ray center")
    frame, directions = np.asarray(frame, dtype=float), np.asarray(directions, dtype=float)
    if frame.shape != (3, 3) or not np.all(np.isfinite(frame)):
        raise InvalidParams("the ray frame must be a finite matrix of shape (3, 3)")
    if (directions.ndim != 2 or directions.shape[1] != 3 or len(directions) == 0
            or not np.all(np.abs(np.linalg.norm(directions, axis=1) - 1.0) <= 1e-12)):
        raise InvalidParams("directions must be unit vectors of shape (n, 3) with n >= 1")
    return center, frame, directions


@functools.lru_cache(maxsize=4)
def _point_basis(band: int, directions: bytes) -> np.ndarray:
    """`point_basis` at the unit vectors whose float64 bytes are `directions`,
    read-only, built once per band limit and exact direction set among the
    last four asked for: the solver's fans share their nodes."""
    basis = point_basis(band, np.frombuffer(directions).reshape(-1, 3))
    basis.flags.writeable = False
    return basis


def _n_rays(band: int) -> int:
    """Rays of the coarse Gauss grid of band limit `band`, (band + 2) x (2 band + 4)."""
    return (band + 2) * (2 * band + 4)


def _xi_segments(ds: InitialDataSet, center, u: np.ndarray, s_max: float):
    """`_picard`'s segments of the deviation xi of the rays from `center` with
    unit chart velocities u (n, 3) from their chords: the ray is at
    center + s u + xi, and xi and xi' start at zero."""
    zeros = (np.zeros(u.shape),)
    return _picard(ds, lambda s, v, dv: (geodesic_acceleration(
                       ds, center + s[:, None, None] * u + v[0], u + dv[0]),),
                   zeros, zeros, s_max, lambda s, v: center + s[:, None, None] * u + v[0])


def _coarse_rays(frame, s_max: float, table, max_rays: int):
    """(band_limit, stored, resolved): the rays on the coarse grids of the
    module docstring's rule, from band limit 8 up by 4 while the tail of the
    last grid is above rounding and the next one holds at most `max_rays` rays.

    `table(grid, u)` integrates the rays of the nodes of a coarse grid, with
    the unit chart velocities u, and returns (stored, ends): what the caller
    keeps, and the harmonic coefficients (n_coeffs, k) at s_max of each
    group whose tail is checked.  resolved is whether that tail is at
    rounding on the last grid; (None, None, False) where the first grid
    holds more than `max_rays` rays.
    """
    band = _START_BAND
    while _n_rays(band) <= max_rays:
        grid = default_grid(band + 2, 2 * band + 4, band_limit=band)
        stored, ends = table(grid, grid.nodes @ frame.T)
        resolved = all(end[(band - 1) ** 2:].max() <= _TAIL * s_max + _ROUNDING * end.max()
                       for end in map(np.abs, ends))
        if resolved or _n_rays(band + _BAND_STEP) > max_rays:
            return band, stored, resolved
        band += _BAND_STEP
    return None, None, False


class RayFan:
    """Radial geodesics from a common center, queried at any radius per ray.

    Rays are parameterized by arclength (unit g-speed); `directions` are unit
    vectors x on the parameter sphere and the ray along x leaves the center
    with velocity frame @ x.  Only the deviation xi(s, x) = gamma(s) - (center
    + s u) from the straight chord is integrated: xi vanishes identically in
    flat space and is O(s^3 Gamma) in general, so integration roundoff never
    pollutes the chord, and xi is what `graph_surface` differentiates
    spectrally (the chord it differentiates in closed form).

    xi is integrated by `_picard` over [0, s_max], on a coarse grid or per
    direction by the module docstring's rule, and its node values on each
    Chebyshev segment are kept at the directions: synthesised once from the
    coarse coefficients, or as integrated; `band_limit` is the coarse grid's
    band limit, or None where the directions are integrated themselves.
    `deviations_at(s)` returns xi(s), each direction's series evaluated at its
    own radius, and `offsets_at(s)` returns s u + xi(s).  `n_steps` is
    checked and sets nothing; perfbench binds it.
    """

    def __init__(self, ds: InitialDataSet, center, frame, directions, s_max: float,
                 n_steps: int = 64):
        center, frame, directions = _ray_inputs(center, frame, directions)
        if not (np.isfinite(s_max) and s_max > 0):
            raise InvalidParams(f"s_max must be finite and positive, got {s_max}")
        as_count(n_steps, "n_steps")
        self.ds = ds
        self.center = center
        self.frame = frame
        self.s_max = float(s_max)
        self._u = directions @ frame.T  # chart components of unit initial velocities

        def table(grid, u):
            # xi at each segment's Chebyshev nodes, (rays, m, 3), as
            # coefficients on a coarse grid
            segments = []
            for a, h, m, v, _ in _xi_segments(ds, center, u, self.s_max):
                xi = np.moveaxis(v[0], 0, 1)
                segments.append((a, h, m, xi if grid is None
                                 else analyze(grid, xi, check=False).coeffs))
            return segments, [segments[-1][3][:, -1]]

        self.band_limit, segments, resolved = _coarse_rays(frame, self.s_max, table,
                                                           len(directions))
        if resolved:
            basis = _point_basis(self.band_limit, directions.tobytes())
            self._segments = [(a, h, m, _apply(basis, coeffs)) for a, h, m, coeffs in segments]
        else:
            self.band_limit, self._segments = None, table(None, self._u)[0]

    def deviations_at(self, s: np.ndarray) -> np.ndarray:
        """The deviations xi(s) from the chords, (n, 3), one finite radius
        s >= 0 per direction, each read from its direction's series at that
        radius; the positions center + s u + xi are chart-checked."""
        s = np.asarray(s, dtype=float)
        n = len(self._u)
        if s.shape != (n,) or not np.all(np.isfinite(s) & (s >= 0)):
            raise InvalidParams(f"need one finite radius per direction, none negative, "
                                f"shape ({n},)")
        if np.any(s > self.s_max * (1 + 1e-12)):
            raise ChartExceeded(
                f"requested radius outside the integrated ray range [0, {self.s_max:.4g}]")
        xi = sum(np.einsum("nm,nmc->nc", rows, values) for rows, (*_, values)
                 in zip(_radius_rows(self._segments, s), self._segments))
        self.ds.check_chart(self.center + s[:, None] * self._u + xi)
        return xi

    def offsets_at(self, s: np.ndarray) -> np.ndarray:
        """Offsets s u + xi(s) from the center, xi and its checks as in
        `deviations_at`; keeping the center out keeps their relative accuracy."""
        xi = self.deviations_at(s)
        return np.asarray(s, dtype=float)[:, None] * self._u + xi


class VariationBundle:
    """The normal-coordinate chart F(y) = exp_center(frame y) at the nodes of a
    graph sphere: points F, differential DF (manifold x chart) and Hessian D2F
    at y = s x, with x the nodes of `grid` and s = `radii`.

    Along the ray of x, F(s x) = G(s, x) = center + s frame x + xi(s, x), with
    xi the ray's deviation from its chord as in RayFan.  xi and xi' = dxi/ds
    are integrated by `_picard` over [0, max(radii)] on the coarse grid of
    the module docstring's rule, whose tail bound covers both, and analysed
    at every Chebyshev node.  The grid grows past the node count where the
    tail needs it, since only the coarse series carries the angle
    derivatives at rounding.  Both series are evaluated at each node's own
    radius with their angle derivatives from `synthesize_derivatives`, one
    Chebyshev node at a time, and xi'' is the geodesic acceleration of the
    queried state.  With M = [x, s x_theta, s x_phi], the derivative of y in
    (s, theta, phi) from `grid.embedding_derivatives`,
    DF = [G_s, G_theta, G_phi] M^-1, and D2F follows from the second
    derivatives of G by the same chain rule; the flat parts of both cancel in
    closed form, so in flat space DF is the frame and D2F zero exactly.  The
    chart must hold the rays of every direction out to the largest radius.
    `band_limit` is the coarse grid's band limit.
    """

    def __init__(self, ds: InitialDataSet, center, frame, grid: SphereGrid, radii):
        if not isinstance(grid, SphereGrid):
            raise InvalidParams("the bundle's directions must be the nodes of a SphereGrid")
        center, frame, x = _ray_inputs(center, frame, grid.nodes)
        radii = np.asarray(radii, dtype=float)
        n = len(x)
        if radii.shape != (n,) or not np.all(np.isfinite(radii) & (radii > 0)):
            raise InvalidParams(f"bundle radii must be finite and positive, one per node, "
                                f"shape ({n},) (use the flat shortcut at r = 0)")

        s_max = float(radii.max())

        def table(coarse, u):
            # xi | xi' coefficients on the coarse grid at each segment's
            # Chebyshev nodes, (nodes, n_coeffs, 6)
            tables = []
            for a, h, m, v, dv in _xi_segments(ds, center, u, s_max):
                state = np.moveaxis(np.concatenate([v[0], dv[0]], axis=2), 0, 1)
                tables.append((a, h, m, np.moveaxis(
                    analyze(coarse, state, check=False).coeffs, 1, 0)))
            end = tables[-1][3][-1]
            return tables, [end[:, :3], end[:, 3:]]

        band, tables, resolved = _coarse_rays(frame, s_max, table, _n_rays(_MAX_BUNDLE_BAND))
        if not resolved:
            warnings.warn(f"the bundle's rays keep a tail above rounding at band limit {band}",
                          BandLimitExceeded, stacklevel=2)
        self.band_limit = band
        nodes = default_grid(grid.n_theta, grid.n_phi, band_limit=band)
        # f | d_a f | d_a d_b f of xi | xi' at each node's own radius
        f, d1, d2 = (np.zeros((n,) + shape + (6,)) for shape in ((), (2,), (2, 2)))
        for rows, (*_, state) in zip(_radius_rows(tables, radii), tables):
            for k in np.flatnonzero(rows.any(axis=0)):
                parts = synthesize_derivatives(HarmonicField(state[k], band), nodes)
                for total, part in zip((f, d1, d2), parts):
                    total += rows[:, k].reshape((-1,) + (1,) * (part.ndim - 1)) * part

        u = x @ frame.T
        self.points = center + (radii[:, None] * u + f[:, :3])
        ds.check_chart(self.points)
        x1, x2 = grid.embedding_derivatives
        columns = np.concatenate([x[:, None], x1], axis=1)   # of N = [x, x_theta, x_phi]
        n_inv = columns / np.sum(columns * columns, axis=2, keepdims=True)  # orthogonal: N^-1
        s = radii[:, None, None]
        # DF = frame + [xi', xi_theta / s, xi_phi / s] N^-1, with N = M diag(1, 1/s, 1/s)
        dev = np.swapaxes(np.concatenate([f[:, None, 3:], d1[..., :3] / s], axis=1), 1, 2) @ n_inv
        self.df = frame + dev
        # the (s, theta, phi) Hessian of G less DF times that of y, over (1, s, s)^2
        hess = np.empty((n, 3, 3, 3))
        hess[:, 0, 0] = geodesic_acceleration(ds, self.points, u + f[:, 3:])
        hess[:, 0, 1:] = hess[:, 1:, 0] = (d1[..., 3:] - np.einsum("nci,nbi->nbc", dev, x1)) / s
        hess[:, 1:, 1:] = ((d2[..., :3] / s[..., None] - np.einsum("nci,nabi->nabc", dev, x2))
                           / s[..., None])
        self.d2f = np.einsum("nai,nabc,nbj->ncij", n_inv, hess, n_inv, optimize=True)
