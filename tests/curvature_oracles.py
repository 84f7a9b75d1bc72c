"""Test-side curvature oracles: the connection derivative and the full
Riemann tensor by the textbook formulas, node-last like the library kernels
(tensor axes first, point axes last).  The library forms neither; its Ricci
rule and its Riemann tensor are checked against these."""

import numpy as np


def dchristoffel_from(g_inv, dg, d2g, gamma):
    """partial_m Gamma^i_{jk}, layout [m, i, j, k, ...], from differentiating
    g Gamma = S / 2 (S the bracket of dg): g^-1 (d_m S / 2 - d_m g Gamma)."""
    lowered = np.swapaxes(d2g, 1, 2) + np.moveaxis(d2g, 1, 3) - d2g
    lowered *= 0.5
    lowered -= np.einsum("mlp...,pjk...->mljk...", dg, gamma)
    return np.einsum("il...,mljk...->mijk...", g_inv, lowered)


def riemann_from(g, gamma, dgamma):
    """Fully covariant Rm_ijkl [i, j, k, l, ...] from Gamma and its gradient.

    R^a_{jkl} = d_k Gamma^a_{lj} - d_l Gamma^a_{kj}
                + Gamma^a_{km} Gamma^m_{lj} - Gamma^a_{lm} Gamma^m_{kj}
    """
    term = (np.einsum("kalj...->ajkl...", dgamma)
            - np.einsum("lakj...->ajkl...", dgamma)
            + np.einsum("akm...,mlj...->ajkl...", gamma, gamma)
            - np.einsum("alm...,mkj...->ajkl...", gamma, gamma))
    return np.einsum("ia...,ajkl...->ijkl...", g, term)


def ricci_from(gamma, dgamma):
    """Ric_jl = R^a_{jal} [j, l, ...] from Gamma and its gradient."""
    return (np.einsum("aalj...->jl...", dgamma) - np.einsum("laaj...->jl...", dgamma)
            + np.einsum("aam...,mlj...->jl...", gamma, gamma)
            - np.einsum("alm...,maj...->jl...", gamma, gamma))
