"""Initial data sets (M, g, k) on a coordinate chart.

An InitialDataSet is two jets on a single chart of R^3, closed-form or finite
differences of values: functions returning the n-th partial derivatives of
the metric and of the symmetric 2-tensor k.  All ambient curvature quantities
used elsewhere (Christoffel symbols, Riemann/Ricci/scalar curvature and their
derivatives, covariant derivatives of k) are assembled here.

Index conventions
-----------------
Public arrays are node-first (point axes, then tensor axes).  The curvature
kernels and the frame rule `_in_frame` are node-last, tensor axes first and
the point axes last, so each contraction loops along the points.  The fields
of `ambient_fields` are node-first views of C-contiguous node-last arrays,
which `_node_last` returns without a copy; other node-first callers pass
strided `_node_last` views to the same kernels.

dg[..., l, i, j]        partial_l g_ij
d2g[..., l, m, i, j]    partial_l partial_m g_ij
christoffel[..., i, j, k]   Gamma^i_{jk}
riemann[..., i, j, k, l]    Rm_ijkl = g_ia R^a_jkl, with
    R^a_{jkl} = partial_k Gamma^a_{lj} - partial_l Gamma^a_{kj} + Gamma Gamma
ricci[..., i, j] = R^a_{iaj}, so the round sphere has positive scalar
curvature and geodesic spheres obey H = 2/r - (r/3) Ric(x, x) + O(r^2).
grad_k[..., s, i, j]    covariant derivative nabla_s k_ij
In three dimensions and this convention, `curvature_at` forms Rm from Ric:
    Rm_ijkl = g_ik R_jl + g_jl R_ik - g_il R_jk - g_jk R_il
              - (Sc / 2) (g_ik g_jl - g_il g_jk).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, ClassVar

import numpy as np

from .errors import ChartExceeded, DegenerateMetric, InvalidParams, UnknownPreset, as_point

Jet = Callable[[np.ndarray, int], np.ndarray]


# Finite-difference steps: first derivatives of the values of a data set given
# by them; direct second-derivative stencils (larger, at the roundoff versus
# truncation optimum of double precision); derivatives of assembled pointwise
# maps such as Sc(x) or Ric(x); and the gradient and Hessian of such a map
# when the map itself comes from 2e-3 stencils, whose rounding the outer
# stencil amplifies by 1/h and 1/h^2 (eps / h^3 and eps / h^4 overall), so the
# outer steps move out to 5e-3 and 1e-2.
_STEP = 1e-4
_SECOND_STEP = 2e-3
_DERIVED_STEP = 1e-3
_DERIVED_FD_STEP = 5e-3
_DERIVED_FD_SECOND_STEP = 1e-2


def _order_checked(jet: Jet, name: str, top: int) -> Jet:
    """`jet` raising InvalidParams unless the order n is an integer in 0..top."""
    def checked(pts, n):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 0 <= n <= top:
            raise InvalidParams(f"{name} has the orders 0 to {top}, got {n!r}")
        return jet(pts, n)

    return checked


def _check_chart(pts, chart_radius):
    r = np.linalg.norm(np.atleast_2d(pts), axis=-1)
    if np.any(r >= chart_radius):
        raise ChartExceeded(
            f"point radius {r.max():.4g} exceeds chart radius {chart_radius:.4g}")


@dataclass(frozen=True)
class InitialDataSet:
    """Initial data (g, k) on a chart of R^3, given by two jets.

    Parameters
    ----------
    metric_jet : callable
        metric_jet(pts, n), n = 0..2: the n-th partial derivatives of g at
        points (..., 3), the n derivative axes between the point axes and the
        tensor axes (see the module docstring for the index layout).
    k_jet : callable
        The same for k, n = 0 and 1.  Either jet raises InvalidParams for
        any other order.  An output may be a read-only broadcast view (see
        `_from_jets`); no caller writes into one.
    chart_radius : float
        Coordinate validity radius; evaluating the data at |x| >=
        chart_radius raises ChartExceeded.
    """

    metric_jet: Jet
    k_jet: Jet
    chart_radius: float = np.inf
    name: str = ""

    derivative_mode: ClassVar[str] = "closed_form"   # fixed by the constructor

    def __post_init__(self):
        # the one check of the jet orders, for every data set and replacement
        for name, top in (("metric_jet", 2), ("k_jet", 1)):
            object.__setattr__(self, name, _order_checked(getattr(self, name), name, top))

    @staticmethod
    def from_values(metric, k_tensor, chart_radius: float = np.inf,
                    name: str = "") -> "InitialDataSet":
        """Data set from vectorized callables mapping points (..., 3) to the
        values (..., 3, 3) of g and k.  Its jets are central differences with
        steps 1e-4 and 2e-3, and every point they evaluate is checked against
        the chart."""
        return _FiniteDifferenceData(_stencil_jet(metric, chart_radius),
                                     _stencil_jet(k_tensor, chart_radius), chart_radius, name)

    def with_finite_differences(self) -> "InitialDataSet":
        """The same data with its derivatives from finite differences of the values."""
        return InitialDataSet.from_values(lambda pts: self.metric_jet(pts, 0),
                                          lambda pts: self.k_jet(pts, 0),
                                          self.chart_radius, self.name + "[fd]")

    def check_chart(self, pts: np.ndarray) -> None:
        _check_chart(pts, self.chart_radius)


class _FiniteDifferenceData(InitialDataSet):
    """A data set whose jets difference its values (see `from_values`)."""

    derivative_mode = "finite_difference"


# ----------------------------------------------------------------------
# finite-difference stencils (vectorized over leading point axes)
# ----------------------------------------------------------------------

def _stencil_table():
    """4th-order central stencils as rows (offsets in units of the step,
    integer weights, denominator).

    Rows 0-2 are the first derivatives along the coordinate axes; rows 3-8 are
    the second derivatives (0,0), (1,1), (2,2), (0,1), (0,2), (1,2), the mixed
    ones as the product of two first-derivative stencils.  Integer weights
    keep the sum of a row's weights exactly zero.
    """
    c1, w1 = np.array([2.0, 1.0, -1.0, -2.0]), np.array([-1.0, 8.0, -8.0, 1.0])
    c2, w2 = np.array([2.0, 1.0, 0.0, -1.0, -2.0]), np.array([-1.0, 16.0, -30.0, 16.0, -1.0])
    eye = np.eye(3)
    rows = [(np.outer(c1, e), w1, 12.0) for e in eye]
    rows += [(np.outer(c2, e), w2, 12.0) for e in eye]
    rows += [((c1[:, None, None] * eye[l] + c1[None, :, None] * eye[m]).reshape(16, 3),
              np.outer(w1, w1).ravel(), 144.0) for l, m in ((0, 1), (0, 2), (1, 2))]
    return rows


_STENCIL = _stencil_table()
_SYM6 = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])   # (l, m) -> second-derivative row


def _stencil(fun, pts, h, rows, order):
    """Stencil rows applied to fun at pts (leading point axes), over h**order.

    The points of all rows go to fun in one batched call, with the rows'
    offsets concatenated on a new axis after the point axes; the row axis of
    the result takes that place.  The weighted sums run over plain array
    operations, so a batch of points gives the same numbers as the points
    one at a time.
    """
    pts = np.asarray(pts, dtype=float)
    axis = pts.ndim - 1
    offsets = np.concatenate([row[0] for row in rows])
    vals = np.moveaxis(fun(pts[..., None, :] + h * offsets), axis, 0)
    ends = np.cumsum([len(weights) for _, weights, _ in rows])[:-1]
    out = [sum(w * v for w, v in zip(weights, part)) / (denom * h ** order)
           for (_, weights, denom), part in zip(rows, np.split(vals, ends))]
    return np.stack(out, axis=axis)


def _fd_grad(fun, pts, h):
    """Gradient of fun; the direction axis follows the point axes."""
    return _stencil(fun, pts, h, _STENCIL[:3], 1)


def _fd_hess(fun, pts, h):
    """Second derivatives of fun; the (dir, dir) axes follow the point axes."""
    return np.take(_stencil(fun, pts, h, _STENCIL[3:], 2), _SYM6, axis=np.ndim(pts) - 1)


def _stencil_jet(values, chart_radius) -> Jet:
    """Jet of a field from its values (see `InitialDataSet.from_values`)."""
    def guarded(pts):
        _check_chart(pts, chart_radius)
        return values(pts)

    orders = (guarded, lambda pts: _fd_grad(guarded, pts, _STEP),
              lambda pts: _fd_hess(guarded, pts, _SECOND_STEP))
    return lambda pts, n: orders[n](np.asarray(pts, dtype=float))


# ----------------------------------------------------------------------
# pointwise curvature algebra (node-last: tensor axes first, points last)
# ----------------------------------------------------------------------

def _node_last(a, rank):
    """View of a node-first array with its last `rank` (tensor) axes moved first."""
    return np.moveaxis(a, range(a.ndim - rank, a.ndim), range(rank))


def _node_first(a, lead=None):
    """Node-first view of a node-last array [..., n]: the point axis moved
    first and split into the point axes `lead` (default: one axis)."""
    a = np.moveaxis(a, -1, 0)
    return a if lead is None else a.reshape(lead + a.shape[1:])


def _inverse_metric(g):
    """Closed-form inverse of a batch of metrics g [i, j, ...] through g = L D L^T.

    The pivots D are the ratios of consecutive leading minors (g_00, the 2x2
    minor, det), so requiring them positive is Sylvester's test; any failing
    node raises DegenerateMetric, and a NaN fails.  Unlike cofactors over the
    determinant, the factorization keeps a relative error of order
    cond(g) * eps when two eigenvalues are small.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        d0 = g[0, 0]
        l1, l2 = g[1, 0] / d0, g[2, 0] / d0
        d1 = g[1, 1] - l1 * g[1, 0]
        s21 = g[2, 1] - l2 * g[1, 0]
        l21 = s21 / d1
        d2 = g[2, 2] - l2 * g[2, 0] - l21 * s21
    if not (np.all(d0 > 0) and np.all(d1 > 0) and np.all(d2 > 0)):
        raise DegenerateMetric("metric is not positive definite")
    i1, i2 = 1.0 / d1, 1.0 / d2
    a = l1 * l21 - l2                    # L^-1 = [[1, 0, 0], [-l1, 1, 0], [a, -l21, 1]]
    x01, x02, x12 = -l1 * i1 - a * l21 * i2, a * i2, -l21 * i2
    return np.stack([1.0 / d0 + l1 * l1 * i1 + a * a * i2, x01, x02,
                     x01, i1 + l21 * l21 * i2, x12,
                     x02, x12, i2]).reshape(g.shape)


def _bracket(dg):
    """d_j g_lk + d_k g_lj - d_l g_jk in layout [l, j, k, ...]."""
    return np.swapaxes(dg, 0, 1) + np.moveaxis(dg, 0, 2) - dg


def christoffel_from(g_inv, dg):
    """Gamma^i_{jk} [i, j, k, ...] from the inverse metric and metric gradient."""
    return 0.5 * np.einsum("il...,ljk...->ijk...", g_inv, _bracket(dg))


def ricci_from_jets(g_inv, dg, d2g, gamma):
    """Ric_jl = R^a_{jal} [j, l, ...] from the metric jets, never forming d Gamma:

        Ric_jl = (A_jl + A_lj - B_jl - C_jl) / 2 + (t_p - u_p) Gamma^p_lj
                 + (M_l^a_p - Gamma^a_lp) Gamma^p_aj

    with A_jl = g^ab d_a d_j g_bl, B_jl = g^ab d_a d_b g_jl,
    C_jl = g^ab d_j d_l g_ab, M_l^a_p = g^ab d_l g_bp, u_p = M_a^a_p and
    t_p = Gamma^a_ap.  One copy makes the einsums' output C-contiguous.
    """
    m = np.einsum("ab...,lbp...->lap...", g_inv, dg)
    a = np.einsum("ab...,ajbl...->jl...", g_inv, d2g)
    ric = a + np.swapaxes(a, 0, 1)
    ric -= np.einsum("ab...,abjl...->jl...", g_inv, d2g)
    ric -= np.einsum("ab...,jlab...->jl...", g_inv, d2g)
    ric *= 0.5
    ric += np.einsum("p...,plj...->jl...",
                     np.einsum("aap...->p...", gamma) - np.einsum("aap...->p...", m), gamma)
    ric += np.einsum("lap...,paj...->jl...", m - np.swapaxes(gamma, 0, 1), gamma)
    return np.ascontiguousarray(ric)


def _curvature_chain(ds: InitialDataSet, pts):
    """The staged chain g -> g^-1 -> Gamma -> Ric at points (n, 3), node-last."""
    g, dg, d2g = (np.ascontiguousarray(np.moveaxis(ds.metric_jet(pts, n), 0, -1))
                  for n in range(3))
    g_inv = _inverse_metric(g)
    gamma = christoffel_from(g_inv, dg)
    return g, g_inv, gamma, ricci_from_jets(g_inv, dg, d2g, gamma)


def _covariant_d(dt, gamma, t):
    """nabla_s T_ij = partial_s T_ij - Gamma^l_{si} T_lj - Gamma^l_{sj} T_il of a
    2-tensor T from its partial derivatives dt [s, i, j, ...]."""
    return (dt - np.einsum("lsi...,lj...->sij...", gamma, t)
            - np.einsum("lsj...,il...->sij...", gamma, t))


def _in_frame(frame, t, lead=0):
    """Components of a covariant tensor t on the rows e_a of a frame [a, i, n].

    Node-last: a 2-tensor [i, j, n] gives t(e_a, e_b) [a, b, n] and a
    3-tensor [s, i, j, n] such as grad k gives t(e_c, e_a, e_b) [c, a, b, n].
    The first `lead` axes are carried along, so Gamma [i, j, k, n] with
    lead 1 gives Gamma(e_a, e_b) [i, a, b, n].  Each slot is one einsum along
    the points, with the frame index in the slot's place.
    """
    axes = list(range(t.ndim))
    for slot in range(lead, t.ndim - 1):
        t = np.einsum(frame, [t.ndim, slot, t.ndim - 1], t, axes,
                      axes[:slot] + [t.ndim] + axes[slot + 1:])
    return t


@dataclass
class AmbientFields:
    """Batched ambient quantities at a set of points (leading axes = points)."""

    points: np.ndarray
    metric: np.ndarray
    metric_inv: np.ndarray
    christoffel: np.ndarray
    ricci: np.ndarray
    k: np.ndarray
    k_trace: np.ndarray
    grad_k: np.ndarray  # covariant nabla_s k_ij

    @property
    def scalar(self) -> np.ndarray:
        """Scalar curvature g^ij Ric_ij."""
        return np.einsum("...jl,...jl->...", self.metric_inv, self.ricci)

    @property
    def k_norm_sq(self) -> np.ndarray:
        """|k|^2 = g^ip g^jq k_ij k_pq."""
        k_up = np.einsum("...ip,...jq,...pq->...ij", self.metric_inv, self.metric_inv, self.k)
        return np.einsum("...ij,...ij->...", k_up, self.k)

    def rescaled(self, s: float) -> "AmbientFields":
        """The same data in coordinates stretched by 1/s (y = x / s).

        The one chart-rescaling rule, used for the blow-up chart of the
        rescaled operator on the unit ball (surfaces and the physical
        residual stay in the chart of the data set): metric components are
        unchanged, every derivative brings a factor s and k scales with the
        connection, so Gamma, k and tr k carry one power of s and Ric and
        grad k two.  `points` is kept as it is; `scalar` and `k_norm_sq`
        follow from the weighted fields.
        """
        return replace(self, christoffel=s * self.christoffel, ricci=s * s * self.ricci,
                       k=s * self.k, k_trace=s * self.k_trace, grad_k=s * s * self.grad_k)


def ambient_fields(ds: InitialDataSet, pts: np.ndarray) -> AmbientFields:
    """Metric, connection, Ricci and k data at a batch of points.

    The one source of pointwise curvature: Sc, tr k and |k|^2 are contracted
    here and nowhere else.
    """
    pts = np.asarray(pts, dtype=float)
    ds.check_chart(pts)
    flat, lead = pts.reshape(-1, 3), pts.shape[:-1]
    g, g_inv, gamma, ric = _curvature_chain(ds, flat)
    k, dk = (np.ascontiguousarray(np.moveaxis(ds.k_jet(flat, n), 0, -1)) for n in range(2))
    fields = [g, g_inv, gamma, ric, k, np.einsum("ij...,ij...->...", g_inv, k),
              _covariant_d(dk, gamma, k)]
    return AmbientFields(pts, *(_node_first(a, lead) for a in fields))


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


def _point_jet(ds: InitialDataSet, x, quantity):
    """Ambient fields at x, and the value, gradient and covariant Hessian
    there of the pointwise map quantity(ambient_fields(ds, .)).

    `quantity` returns an array with optional trailing component axes; the
    Hessian of each component is covariantized as that of a scalar,
    nabla^2 f = partial^2 f - Gamma^l_{ij} partial_l f.  ambient_fields runs
    three times, each call checking its points against the chart: at x, on
    the 12 points of the gradient stencil and on the 63 of the Hessian's.
    The gradient and Hessian steps are 1e-3 and 2e-3 on closed-form data and
    5e-3 and 1e-2 on finite-difference data.
    """
    x = as_point(x, "x")
    fd = ds.derivative_mode == "finite_difference"
    grad_step = _DERIVED_FD_STEP if fd else _DERIVED_STEP
    hess_step = _DERIVED_FD_SECOND_STEP if fd else _SECOND_STEP
    amb = ambient_fields(ds, x)

    def fun(pts):
        return quantity(ambient_fields(ds, pts))

    grad = _fd_grad(fun, x, grad_step)
    hess = _fd_hess(fun, x, hess_step) - np.einsum("lij,l...->ij...", amb.christoffel, grad)
    return amb, quantity(amb), grad, 0.5 * (hess + np.swapaxes(hess, 0, 1))


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
    grad_scalar / hess_scalar / grad_ricci differentiate the pointwise maps
    Sc and Ric of `ambient_fields` with 4th-order stencils and covariantize
    with the local Christoffel symbols.  Pure function; safe to call
    concurrently.
    """
    def sc_ric(amb):
        return np.concatenate([amb.scalar[..., None],
                               amb.ricci.reshape(amb.ricci.shape[:-2] + (9,))], axis=-1)

    amb, _, grad, hess = _point_jet(ds, x, sc_ric)
    gamma, ric = amb.christoffel, amb.ricci
    grad_ric = _covariant_d(grad[:, 1:].reshape(3, 3, 3), gamma, ric)
    # Rm = g (.) (Ric - Sc g / 4), the 3-d identity of the module docstring
    gp = np.einsum("ik,jl->ijkl", amb.metric, ric - 0.25 * amb.scalar * amb.metric)
    riemann = gp + gp.transpose(1, 0, 3, 2) - gp.transpose(0, 1, 3, 2) - gp.transpose(1, 0, 2, 3)
    trk, norm_k_sq = float(amb.k_trace), float(amb.k_norm_sq)
    return CurvatureAtPoint(
        christoffel=gamma, riemann=riemann, ricci=ric,
        scalar=float(amb.scalar), grad_scalar=grad[:, 0], hess_scalar=hess[:, :, 0],
        grad_ricci=grad_ric, tr_k=trk, norm_k_sq=norm_k_sq, grad_k=amb.grad_k,
        traceless_k_norm_sq=norm_k_sq - trk * trk / 3.0)


def concentration_scalar(ds: InitialDataSet, x):
    """Value, gradient and Hessian of f = Sc + 3/5 (tr k)^2 + 1/5 |k|^2 at x.

    Critical points of f with nondegenerate Hessian are exactly the points
    that can host a foliation of area-constrained critical spheres.
    """
    _, value, grad, hess = _point_jet(
        ds, x, lambda amb: amb.scalar + 0.6 * amb.k_trace ** 2 + 0.2 * amb.k_norm_sq)
    return float(value), grad, hess


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


def _from_jets(g, k, chart_radius, name):
    """The closed-form data set with the jets g and k; every preset is built
    here.  An order that is the same at every point may leave out the point
    axes; it is returned as a read-only broadcast view, which the node-last
    copy in `_curvature_chain` or `ambient_fields` reads once.  Each order is
    its own branch, so no jet builds a higher derivative.
    """
    def broadcast(jet):
        def full(pts, n):
            pts = np.asarray(pts, dtype=float)
            out, shape = jet(pts, n), pts.shape[:-1] + (3,) * (n + 2)
            return out if out.shape == shape else np.broadcast_to(out, shape)
        return full
    return InitialDataSet(broadcast(g), broadcast(k), chart_radius, name)


def _constant(value):
    """Jet of a field that takes the same value everywhere."""
    value = np.asarray(value, dtype=float)
    return lambda pts, n: value.copy() if n == 0 else np.zeros((3,) * n + value.shape)


def _conformally_flat(w, k, chart_radius, name):
    """Data set with metric w delta from the jet of w: d^n g = d^n w (x) delta."""
    eye = np.eye(3)
    return _from_jets(lambda pts, n: w(pts, n)[..., None, None] * eye, k, chart_radius, name)


def _flat(k_matrix=None):
    k = np.zeros((3, 3)) if k_matrix is None else _as_sym3(k_matrix, "k")
    return _conformally_flat(_constant(1.0), _constant(k), np.inf,
                             "flat" if k_matrix is None else "constant_k")


def _conformal_quadratic(eps, k=None, chart_radius=None):
    eps = float(eps)
    if chart_radius is None:
        chart_radius = np.inf if eps >= 0 else 0.9 / np.sqrt(-eps)
    kmat = np.zeros((3, 3)) if k is None else _as_sym3(k, "k")
    d2w = _constant(2.0 * eps * np.eye(3))

    def w(pts, n):   # 1 + eps |x|^2
        if n == 0:
            return 1.0 + eps * np.sum(pts * pts, axis=-1)
        if n == 1:
            return 2.0 * eps * pts
        return d2w(pts, n - 2)

    return _conformally_flat(w, _constant(kmat), chart_radius,
                             f"conformal_quadratic(eps={eps})")


def _schwarzschild_slice(mass, chart_radius=np.inf):
    m = float(mass)
    if m <= 0:
        raise InvalidParams("Schwarzschild mass must be positive")
    eye = np.eye(3)

    def w(pts, n):   # psi^4 with psi = 1 + m / (2 rho)
        rho = np.linalg.norm(pts, axis=-1)
        if np.any(rho < 1e-10):
            raise DegenerateMetric("Schwarzschild slice is singular at the puncture rho = 0")
        psi = 1.0 + 0.5 * m / rho
        if n == 0:
            return psi ** 4
        dpsi = -0.5 * m * pts / (rho ** 3)[..., None]
        if n == 1:
            return 4.0 * (psi ** 3)[..., None] * dpsi
        d2psi = -0.5 * m * (np.einsum("kl,...->...kl", eye, rho ** -3)
                            - 3.0 * np.einsum("...k,...l,...->...kl", pts, pts, rho ** -5))
        return (12.0 * (psi ** 2)[..., None, None] * np.einsum("...k,...l->...kl", dpsi, dpsi)
                + 4.0 * (psi ** 3)[..., None, None] * d2psi)

    return _conformally_flat(w, _constant(np.zeros((3, 3))), chart_radius,
                             f"schwarzschild_slice(m={m})")


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
    d2g, dk = _constant(2.0 * c.transpose(2, 3, 0, 1)), _constant(k1)

    def g(pts, n):   # delta_ij + c_ijkl x^k x^l
        if n == 0:
            return eye + np.einsum("ijkl,...k,...l->...ij", c, pts, pts)
        if n == 1:
            return 2.0 * np.einsum("ijml,...l->...mij", c, pts)
        return d2g(pts, n - 2)

    def k(pts, n):   # k0_ij + k1_lij x^l
        if n == 0:
            return k0 + np.einsum("lij,...l->...ij", k1, pts)
        return dk(pts, n - 1)

    return _from_jets(g, k, chart_radius, "polynomial")


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
    Raises UnknownPreset for any other name, and InvalidParams for a parameter
    that is malformed, out of range, or holds a NaN or an infinity.
    """
    if not isinstance(name, str) or name not in _PRESETS:
        raise UnknownPreset(f"unknown preset {name!r}; known: {sorted(_PRESETS)}")
    try:
        for key, value in params.items():
            if value is not None and not np.isfinite(np.asarray(value, dtype=float)).all():
                raise InvalidParams(f"preset parameter {key} must be finite, got {value!r}")
        return _PRESETS[name](**params)
    except InvalidParams:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidParams(str(exc)) from exc
