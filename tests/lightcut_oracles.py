"""Test-side exact oracle of the light-cut area: the quartic coefficient
-(2 pi / 9)(4 Ric4(e0,e0) + Sc4) of `lightcut_area`, derived again by
integrating the light-cut metric correction over the sphere in exact
rational arithmetic.  The library uses only the closed form; this checks it."""

from fractions import Fraction
from itertools import product

from hawkfol import moment_integral


def _canonical_rm_key(i, j, k, l):
    """Canonical index + sign under the Riemann symmetries (no Bianchi)."""
    sign = 1
    if (i, j) > (j, i):
        i, j, sign = j, i, -sign
    if i == j:
        return None, 0
    if (k, l) > (l, k):
        k, l, sign = l, k, -sign
    if k == l:
        return None, 0
    if (i, j, k, l) > (k, l, i, j):
        i, j, k, l = k, l, i, j
    return (i, j, k, l), sign


class _RmPoly:
    """Linear combination of canonical Rm4 components with Fraction weights."""

    def __init__(self):
        self.terms = {}

    def add(self, idx, coeff):
        key, sign = _canonical_rm_key(*idx)
        if key is None or coeff == 0:
            return
        self.terms[key] = self.terms.get(key, Fraction(0)) + sign * coeff
        if self.terms[key] == 0:
            del self.terms[key]

    def __eq__(self, other):
        return self.terms == other.terms


def lightcut_area_quartic_identity() -> dict:
    """Exact check that integrating the light-cut metric correction gives
    the quartic area coefficient -(2 pi / 9)(4 Ric4(e0,e0) + Sc4).

    Both sides are expanded into canonical Rm4 components with exact Fraction
    weights (all moment integrals rational multiples of pi); returns the two
    expansions and whether they agree identically.
    """
    # Left side: (1/6) int_{S^2} sum_a Rm4(E, t_a, t_a, E) dmu, multiples of pi.
    # sum_a t_a (x) t_a = I - x (x) x on the spatial slots; E = e0 + x^k e_k, so
    # Rm(E, e_i, e_j, E) expands into x-monomials indexed by the E slots.
    left = _RmPoly()
    terms = []  # (x-factor tuple of spatial indices 1..3, rm index, weight)
    for i, j in product(range(1, 4), repeat=2):
        for a in range(4):
            for b in range(4):
                xfac = tuple(s for s in (a, b) if s != 0)
                rm_idx = (a, i, j, b)
                # delta_ij weight
                if i == j:
                    terms.append((xfac, rm_idx, Fraction(1)))
                # minus x_i x_j weight
                terms.append((xfac + (i, j), rm_idx, Fraction(-1)))
    for xfac, rm_idx, w in terms:
        mom = moment_integral(tuple(s - 1 for s in xfac))  # 0-based axes
        if mom != 0:
            left.add(rm_idx, w * mom * Fraction(1, 6))

    # Right side: -(2 pi / 9)(4 Ric00 + Sc4) in Rm components.
    right = _RmPoly()
    for i in range(1, 4):
        right.add((i, 0, i, 0), Fraction(-2, 9) * 4)  # Ric00 = sum_i Rm_{i0i0}
    # Sc4 = sum_{ij spatial} Rm_{ijij} - 2 sum_i Rm_{0i0i}
    for i, j in product(range(1, 4), repeat=2):
        right.add((i, j, i, j), Fraction(-2, 9))
    for i in range(1, 4):
        right.add((0, i, 0, i), Fraction(-2, 9) * (-2))

    return {"metric_expansion": left.terms, "closed_form": right.terms,
            "identical": left == right}
