"""Test-side oracle of the preset jets: each preset's g and k jets written
node-first (point axes first, then the derivative and tensor axes), one
formula per order, with a constant order broadcast to the point axes.  The
library writes the same formulas node-last; its jets must equal these
exactly where the arithmetic is elementwise."""

import numpy as np


def _node_first(jet):
    def full(pts, n):
        pts = np.asarray(pts, dtype=float)
        out, shape = jet(pts, n), pts.shape[:-1] + (3,) * (n + 2)
        return out if out.shape == shape else np.broadcast_to(out, shape)
    return full


def _constant(value):
    value = np.asarray(value, dtype=float)
    return lambda pts, n: value.copy() if n == 0 else np.zeros((3,) * n + value.shape)


def _conformally_flat(w, k):
    eye = np.eye(3)
    return _node_first(lambda pts, n: w(pts, n)[..., None, None] * eye), _node_first(k)


def _flat(k=None):
    return _conformally_flat(_constant(1.0), _constant(np.zeros((3, 3)) if k is None else k))


def _conformal_quadratic(eps, k=None):
    d2w = _constant(2.0 * eps * np.eye(3))

    def w(pts, n):   # 1 + eps |x|^2
        if n == 0:
            return 1.0 + eps * np.sum(pts * pts, axis=-1)
        if n == 1:
            return 2.0 * eps * pts
        return d2w(pts, n - 2)

    return _conformally_flat(w, _constant(np.zeros((3, 3)) if k is None else k))


def _schwarzschild_slice(mass):
    m, eye = float(mass), np.eye(3)

    def w(pts, n):   # psi^4 with psi = 1 + m / (2 rho)
        rho = np.linalg.norm(pts, axis=-1)
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

    return _conformally_flat(w, _constant(np.zeros((3, 3))))


def _polynomial(g_quadratic=None, k_constant=None, k_linear=None):
    c = np.zeros((3, 3, 3, 3)) if g_quadratic is None else g_quadratic
    k0 = np.zeros((3, 3)) if k_constant is None else k_constant
    k1 = np.zeros((3, 3, 3)) if k_linear is None else k_linear
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

    return _node_first(g), _node_first(k)


ORACLES = {
    "flat": _flat,
    "constant_k": _flat,
    "conformal_quadratic": _conformal_quadratic,
    "schwarzschild_slice": _schwarzschild_slice,
    "polynomial": _polynomial,
}
