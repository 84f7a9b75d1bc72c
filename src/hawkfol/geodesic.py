"""Geodesic shooting and radial ray bundles.

Surfaces are built from radial geodesics ("rays") leaving a common center.
A RayFan integrates its rays once, as their deviation from the straight chord
(for conditioning), and answers position queries at arbitrary radii through
cubic Hermite interpolation, so changing the radial graph function never
forces a re-integration.  A VariationBundle additionally carries the Jacobi
fields and second variations of the exponential map, which give the exact
differential and Hessian of the normal-coordinate chart needed by the
rescaled operator; it integrates them as deviations from their flat-space
values too, over [0, max radius], and interpolates each direction at its
own radius.

Both run their rays through one helper, `_CoarseRays`, by one rule.  The
deviations are smooth in the direction, so the rays run only on a coarse
Gauss grid, (L + 2) x (2L + 4) nodes at band limit L, whose harmonic
coefficients are kept at every stored radius and synthesised at the requested
directions.  L starts at 8 (200 rays, whatever the surface grid) and grows by
4 while the top two degrees of a stored quantity at the end of the rays carry
more than its rounding, 1e-16 s_max plus 1e-14 of its largest coefficient.
Whenever the next grid would hold more rays than there are requested
directions, the directions themselves are integrated instead (fewer than 200
directions are so from the start) and `band_limit` is None, so no output
carries an interpolation error above rounding.  Every integrated state must
be finite, or DegenerateMetric is raised.  The rays are chart-checked at every
iterate or step, and the returned positions when they are queried.

Integration in s
----------------
The rays are analytic in s, and two integrators serve them.  `_picard`
solves v'' = a(s, v, v') by Picard iteration on Chebyshev-Lobatto nodes
(Clenshaw & Norton, Comput. J. 6, 1963; Bai & Junkins, Celest. Mech. Dyn.
Astron. 110, 2011): each iteration is one kernel call on all nodes of all
rays, where a fixed RK4 step makes four calls.  It grows its node count, and
halves its interval, by the same tail bound as the coarse grid.  It serves
RayFan, which samples the converged series at its `n_steps` + 1 query radii,
and the center-frame transport, which exp_map is with no vectors to carry.
Only the VariationBundle keeps the fixed-step loop `_rk4`: its per-point
kernel (Jacobi fields, second variations, d^3 g) is heavy enough that Picard
iterations on all nodes at once cost more time and memory than the dozen
RK4 steps the rescaled operator takes.

Kernel
------
Geodesics are driven by `geodesic_acceleration`, the one hand-contracted
connection: it contracts the velocity into the metric gradient before raising
the index, so -Gamma(v, v) costs a few 3-vector contractions per node and one
closed-form 3x3 inverse per point.  The center-frame transport and
VariationBundle take Gamma and d Gamma from `christoffel_from` and
`dchristoffel_from`; the bundle builds d^2 Gamma(v, v) by the same rule
(differentiate g Gamma = S / 2), so no derivative of g^-1 is formed.
"""

from __future__ import annotations

import functools

import numpy as np

from .background import (_SYM6, InitialDataSet, _inverse_metric, christoffel_from,
                         dchristoffel_from)
from .errors import (ChartExceeded, DegenerateMetric, InvalidParams, StepSizeUnderflow, as_count,
                     as_point)
from .grid import default_grid
from .harmonics import analyze, point_basis

# The coarse ray grid: its starting band limit and increment.  The top two
# degrees of a value group at s_max are at rounding when their coefficients
# are below _TAIL s_max plus the analysis rounding, _ROUNDING times the
# group's largest coefficient: on data whose xi is exactly degree 1, the other
# degrees read 5e-16 of it at band limit 8 and up to 2e-14 at band limit 28.
_START_BAND = 8
_BAND_STEP = 4
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
    g_inv = _inverse_metric(ds.metric_jet(pts, 0))
    dg_v = np.einsum("...lij,...j->...li", ds.metric_jet(pts, 1), vel)
    lowered = (2.0 * np.einsum("...jl,...j->...l", dg_v, vel)
               - np.einsum("...lj,...j->...l", dg_v, vel))
    return -0.5 * np.einsum("...il,...l->...i", g_inv, lowered)


def _rk4(ds: InitialDataSet, rhs, state, span: float, n_steps,
         position=lambda t, state: state[0]):
    """Iterator over (t, state) after each of `n_steps` classical RK4 steps on [0, span].

    `rhs(t, *state)` returns the tuple of derivatives of the tuple of arrays
    `state`.  InvalidParams unless `n_steps` is an integer >= 1, raised on
    the call.  After every step `position(t, state)` is checked against the
    chart.
    """
    n_steps = as_count(n_steps, "n_steps")
    h = span / n_steps

    def steps(state):
        t = 0.0
        for j in range(n_steps):
            k1 = rhs(t, *state)
            k2 = rhs(t + 0.5 * h, *(a + 0.5 * h * k for a, k in zip(state, k1)))
            k3 = rhs(t + 0.5 * h, *(a + 0.5 * h * k for a, k in zip(state, k2)))
            k4 = rhs(t + h, *(a + h * k for a, k in zip(state, k3)))
            state = tuple(a + (h / 6.0) * (p + 2 * q + 2 * r + w)
                          for a, p, q, r, w in zip(state, k1, k2, k3, k4))
            t = (j + 1) * h
            ds.check_chart(position(t, state))
            yield t, state

    return steps(state)


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


def _sample(segments, samples: np.ndarray):
    """Values and s-derivatives of `_picard`'s solution at sorted samples in
    [0, span]: two tuples of arrays, (len(samples), *shape) each."""
    pieces = []
    for i, (a, h, n, v, dv) in enumerate(segments):
        last = i == len(segments) - 1
        mine = samples[(samples >= a) & ((samples < a + h) | last)]
        rows = _interpolation(n, np.clip(2.0 * (mine - a) / h - 1.0, -1.0, 1.0))
        pieces.append([[_apply(rows, x) for x in state] for state in (v, dv)])
    return tuple(tuple(np.concatenate([piece[k][g] for piece in pieces])
                       for g in range(len(pieces[0][k])))
                 for k in (0, 1))


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
        gam = christoffel_from(_inverse_metric(ds.metric_jet(pts, 0)), ds.metric_jet(pts, 1))
        gam_u = np.einsum("...ijk,...j->...ik", gam, dx[0])      # Gamma(u, .)
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


class _CoarseRays:
    """Rays from a common center, integrated on a coarse Gauss grid or along
    the requested directions, by the rule of the module docstring.

    The ray along the unit direction d leaves `center` with chart velocity
    u = frame @ d.  Its state is (value, d value / ds): value groups of the
    trailing shapes `shapes`, the first of them the deviation xi of the ray
    from its chord (the ray is at center + s u + xi), then their
    s-derivatives in the same order.  The state starts at zero and
    `accel(s, u, *state)` returns the second s-derivatives of the value
    groups, with s a scalar or a column that broadcasts against u; every
    group should vanish in flat space, so that its rounding is relative to
    itself and not to a chord part, and each group has its own tail bound.
    The rays are integrated over [0, s_max] by `_picard` and their states
    stored at `n_steps` + 1 equally spaced radii, or, where `rk4` is set, at
    the steps of `n_steps` RK4 steps: as harmonic coefficients on a coarse
    grid of band limit `band_limit`, or as they are when `band_limit` is
    None.
    """

    def __init__(self, ds: InitialDataSet, center, frame, directions, s_max: float,
                 n_steps: int, shapes, accel, rk4: bool = False):
        self.ds = ds
        self.center = center
        self.s_max = s_max
        self.n_steps = as_count(n_steps, "n_steps")
        self._h = s_max / self.n_steps
        if self._h < 1e-14:
            raise StepSizeUnderflow("ray step underflows double precision")
        self._u = directions @ frame.T  # chart components of unit initial velocities
        self._shapes = shapes
        self._widths = [int(np.prod(shape)) for shape in shapes]
        self._accel = accel
        self._rk4 = rk4

        band = _START_BAND
        while _n_rays(band) <= len(directions):
            grid = default_grid(band + 2, 2 * band + 4, band_limit=band)
            self._stored = analyze(grid, self._integrate(grid.nodes @ frame.T), check=False).coeffs
            if self._resolved(band):
                self.band_limit = band
                self._basis = _point_basis(band, directions.tobytes())
                return
            band += _BAND_STEP
        self.band_limit = None
        self._stored = self._integrate(self._u)

    def _integrate(self, u: np.ndarray) -> np.ndarray:
        """States (n_rays, n_steps + 1, 2 k) of the rays with chart velocities u,
        each flattened to its k value components, then their derivatives;
        DegenerateMetric unless every state is finite."""
        center, n, k = self.center, len(u), len(self._shapes)
        zeros = tuple(np.zeros((n,) + shape) for shape in self._shapes)
        if not self._rk4:
            segments = _picard(self.ds, lambda s, v, dv: self._accel(s[:, None, None], u, *v, *dv),
                               zeros, zeros, self.s_max,
                               lambda s, v: center + s[:, None, None] * u + v[0])
            samples = np.linspace(0.0, self.s_max, self.n_steps + 1)
            state = [a for group in _sample(segments, samples) for a in group]
            return np.concatenate([np.moveaxis(a, 0, 1).reshape(n, len(samples), -1)
                                   for a in state], axis=2)
        steps = _rk4(self.ds, lambda s, *state: (*state[k:], *self._accel(s, u, *state)),
                     2 * zeros, self.s_max, self.n_steps,
                     position=lambda s, state: center + s * u + state[0])
        history = np.zeros((n, self.n_steps + 1, 2 * sum(self._widths)))
        for j, (_, state) in enumerate(steps):
            history[:, j + 1] = np.concatenate([a.reshape(n, -1) for a in state], axis=1)
        # an RK4 step keeps a non-finite component non-finite: the last step shows all
        if not np.all(np.isfinite(history[:, -1])):
            raise DegenerateMetric("ray state is not finite at the end of the rays")
        return history

    def _resolved(self, band: int) -> bool:
        """Whether every value group's coefficients of degrees band - 1 and
        band at s_max are within its rounding bound."""
        ends = np.split(np.abs(self._stored[:, -1, :sum(self._widths)]),
                        np.cumsum(self._widths)[:-1], axis=1)
        return all(end[(band - 1) ** 2:].max() <= _TAIL * self.s_max + _ROUNDING * end.max()
                   for end in ends)

    def at(self, s: np.ndarray) -> list:
        """The value groups at one finite radius s >= 0 per direction, (n, *shape)
        each, by cubic Hermite interpolation between the bracketing steps; the
        first is the offset s u + xi from the center, and the positions
        center + s u + xi are chart-checked."""
        s = np.asarray(s, dtype=float)
        n = len(self._u)
        if s.shape != (n,) or not np.all(np.isfinite(s) & (s >= 0)):
            raise InvalidParams(f"need one finite radius per direction, none negative, "
                                f"shape ({n},)")
        if np.any(s > self.s_max * (1 + 1e-12)):
            raise ChartExceeded(
                f"requested radius outside the integrated ray range [0, {self.s_max:.4g}]")
        h = self._h
        j = np.clip((s / h).astype(int), 0, self.n_steps - 1)
        lo, hi = j.min(), j.max() + 2
        values = self._stored[:, lo:hi]
        if self.band_limit is not None:
            # synthesise only the steps from the lowest to the highest bracket, in one product
            values = (self._basis @ values.reshape(len(values), -1)).reshape(n, hi - lo, -1)
        idx = np.arange(n)
        x0, v0 = np.split(values[idx, j - lo], 2, axis=1)
        x1, v1 = np.split(values[idx, j - lo + 1], 2, axis=1)
        t = ((s - j * h) / h)[:, None]
        h00 = (1 + 2 * t) * (1 - t) ** 2
        h10 = t * (1 - t) ** 2
        h01 = t * t * (3 - 2 * t)
        h11 = t * t * (t - 1)
        value = h00 * x0 + h * h10 * v0 + h01 * x1 + h * h11 * v1
        groups = np.split(value, np.cumsum(self._widths)[:-1], axis=1)
        groups[0] = s[:, None] * self._u + groups[0]
        self.ds.check_chart(self.center + groups[0])
        return [g.reshape((n,) + shape) for g, shape in zip(groups, self._shapes)]


class RayFan:
    """Radial geodesics from a common center, stored for Hermite queries.

    Rays are parameterized by arclength (unit g-speed); `directions` are unit
    vectors x on the parameter sphere and the ray along x leaves the center
    with velocity frame @ x.  Only the deviation xi(s, x) = gamma(s) - (center
    + s u) from the straight chord is integrated: xi vanishes identically in
    flat space and is O(s^3 Gamma) in general, so integration roundoff never
    pollutes the leading part of the positions (which downstream spectral
    differentiation would amplify).

    xi is integrated by `_picard`, and xi and its s-derivative are stored at
    `n_steps` + 1 equally spaced radii in [0, s_max], on a coarse grid or
    per direction by the module docstring's rule; `band_limit` is the coarse
    grid's band limit, or None where the directions are integrated
    themselves.  `offsets_at(s)` returns s u + xi(s) by cubic Hermite
    interpolation in s between the stored radii that bracket s.
    """

    def __init__(self, ds: InitialDataSet, center, frame, directions, s_max: float,
                 n_steps: int = 128):
        center, frame, directions = _ray_inputs(center, frame, directions)
        if not (np.isfinite(s_max) and s_max > 0):
            raise InvalidParams(f"s_max must be finite and positive, got {s_max}")
        self.ds = ds
        self.center = center
        self.frame = frame
        self.s_max = float(s_max)

        def accel(s, u, xi, dxi):
            return (geodesic_acceleration(ds, center + s * u + xi, u + dxi),)

        self._rays = _CoarseRays(ds, center, frame, directions, self.s_max, n_steps,
                                 [(3,)], accel)
        self.n_steps = self._rays.n_steps
        self.band_limit = self._rays.band_limit

    def offsets_at(self, s: np.ndarray) -> np.ndarray:
        """Chord-plus-deviation offsets s u + xi(s) from the center, one finite
        radius s >= 0 per direction; the positions are chart-checked.

        Keeping the center out preserves full relative accuracy of the
        offsets even when the center coordinates are much larger than s.
        """
        return self._rays.at(s)[0]

    def positions_at(self, s: np.ndarray) -> np.ndarray:
        """Points at arclength s (one value per ray)."""
        return self.center + self.offsets_at(s)


# The pairs (i, j) of the second variations C, D: the order (00, 11, 22, 01, 02, 12) of
# the second-derivative stencil rows, so background._SYM6 maps (i, j) to the pair.
_PAIR_I = np.array([0, 1, 2, 0, 0, 1])
_PAIR_J = np.array([0, 1, 2, 1, 2, 2])


class VariationBundle:
    """Exponential-map differentials along the rays of a graph sphere.

    For each node direction d and target radius s the bundle integrates the
    geodesic together with three Jacobi fields A_i and their six second
    variations C_ij, yielding the pullback data of the normal-coordinate
    chart: point F(s d), differential DF (manifold x chart), and Hessian D2F.

    The rays run as in RayFan, on a coarse grid or per direction by the
    module docstring's rule, with the state held as deviations that vanish
    in flat space, (xi, A - s B0, C | dxi/ds, B - B0, D) with B = dA/ds,
    D = dC/ds and B0 = B(0).  `n_steps` RK4 steps cover [0, max(radii)], and
    each direction is Hermite-interpolated at its own radius.  Every ray,
    coarse or not, is integrated and chart-checked out to max(radii), so the
    chart must hold the rays out to the largest radius, not only each
    direction's own; on a coarse grid that is the rays of every direction.
    `band_limit` is the coarse grid's band limit, or None where the
    directions are integrated themselves.
    """

    def __init__(self, ds: InitialDataSet, center, frame, directions, radii,
                 n_steps: int = 64):
        center, frame, directions = _ray_inputs(center, frame, directions)
        radii = np.asarray(radii, dtype=float)
        n = len(directions)
        if radii.shape != (n,) or not np.all(np.isfinite(radii) & (radii > 0)):
            raise InvalidParams(f"bundle radii must be finite and positive, one per direction, "
                                f"shape ({n},) (use the flat shortcut at r = 0)")
        b0 = frame.T   # B0[i, :] = the initial velocity of the Jacobi field A_i

        def accel(s, u, xi, a_dev, c, dxi, b_dev, d):
            # Gamma and d Gamma(v, .) from the curvature chain.  d^2 Gamma(v, v)
            # differentiates g Gamma = S / 2 twice, contracted with v first:
            # g^-1 (d_m d_q S(v, v) / 2 - d_m d_q g Gamma(v, v)
            #       - d_m g d_q Gamma(v, v) - d_q g d_m Gamma(v, v)).
            x, v = center + s * u + xi, u + dxi
            A, B = a_dev + s * b0, b_dev + b0
            g_inv = _inverse_metric(ds.metric_jet(x, 0))
            dg, d2g, d3g = (ds.metric_jet(x, n) for n in (1, 2, 3))
            gam = christoffel_from(g_inv, dg)
            gam_v = np.einsum("nijk,nk->nij", gam, v)
            gam_vv = np.einsum("nij,nj->ni", gam_v, v)
            dgam_v = np.einsum("nmijk,nk->nmij", dchristoffel_from(g_inv, dg, d2g, gam), v)
            dgam_vv = np.einsum("nmij,nj->nmi", dgam_v, v)

            dg_dgam = np.einsum("nmil,nql->nmqi", dg, dgam_vv)
            lowered = ((d2g @ gam_vv[:, None, None, :, None])[..., 0]
                       + dg_dgam + np.swapaxes(dg_dgam, 1, 2))
            if d3g.any():
                t1 = np.einsum("nmqjlk,nj,nk->nmql", d3g, v, v, optimize=True)
                t3 = np.einsum("nmqljk,nj,nk->nmql", d3g, v, v, optimize=True)
                lowered -= 0.5 * (2.0 * t1 - t3)
            d2gam_vv = -(lowered @ g_inv[:, None])

            def pairs(X, Y):  # [n, p, (m, q)] = X[n, p, m] Y[n, p, q]
                return (X[:, :, :, None] * Y[:, :, None, :]).reshape(len(x), 6, 9)

            dv = -gam_vv
            dB = -(A @ dgam_vv + 2.0 * (B @ np.swapaxes(gam_v, 1, 2)))
            A1, A2 = A[:, _PAIR_I], A[:, _PAIR_J]
            B1, B2 = B[:, _PAIR_I], B[:, _PAIR_J]
            dD = -(pairs(A1, A2) @ d2gam_vv.reshape(len(x), 9, 3)
                   + c @ dgam_vv
                   + 2.0 * ((pairs(A2, B1) + pairs(A1, B2))
                            @ dgam_v.transpose(0, 1, 3, 2).reshape(len(x), 9, 3))
                   + 2.0 * (d @ np.swapaxes(gam_v, 1, 2))
                   + 2.0 * (pairs(B1, B2) @ gam.transpose(0, 2, 3, 1).reshape(len(x), 9, 3)))
            return dv, dB, dD

        rays = _CoarseRays(ds, center, frame, directions, float(radii.max()), n_steps,
                           [(3,), (3, 3), (6, 3)], accel, rk4=True)
        self.band_limit = rays.band_limit
        offsets, a_dev, c = rays.at(radii)
        self.points = center + offsets
        # DF[:, a, i] = (A_i(s))^a / s = frame[a, i] + (A_i(s) - s B0_i)^a / s ;
        # D2F[:, a, i, j] = (C_ij(s))^a / s^2
        self.df = frame + np.swapaxes(a_dev, 1, 2) / radii[:, None, None]
        self.d2f = (np.take(c, _SYM6, axis=1).transpose(0, 3, 1, 2)
                    / (radii ** 2)[:, None, None, None])
