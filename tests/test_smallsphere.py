"""Small-sphere expansions: light cuts versus geodesic spheres."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hawkfol import (SpacetimeCurvatureAtPoint, comparison_report,
                     geodesic_area, geodesic_energy_coefficient,
                     geodesic_side_expansions, geodesic_sphere, lightcut_area,
                     lightcut_energy_coefficient, lightcut_expansions, preset,
                     radius_matching)
from hawkfol.errors import InvalidParams, NoRoot
from hawkfol.smallsphere import _tangent_frames

from lightcut_oracles import lightcut_area_quartic_identity

ORIGIN = np.zeros(3)


def stc_from(rm4=None, ric4=None, k=None):
    return SpacetimeCurvatureAtPoint.from_components(rm4=rm4, ric4=ric4, k=k)


def rm4_from_blocks(e_block=None, spatial=None):
    """Symmetric Rm4 with Rm_{i0j0} = e_block and spatial-spatial = spatial."""
    rm = np.zeros((4, 4, 4, 4))
    if e_block is not None:
        for i in range(3):
            for j in range(3):
                v = e_block[i, j]
                rm[i + 1, 0, j + 1, 0] = v
                rm[0, i + 1, 0, j + 1] = v
                rm[i + 1, 0, 0, j + 1] = -v
                rm[0, i + 1, j + 1, 0] = -v
    return rm


class TestConstruction:
    def test_gauss_equation_links_slice_scalar(self):
        k = np.diag([1.0, 0.0, 0.0])
        ric4 = np.zeros((4, 4))
        ric4[0, 0] = 0.5
        stc = SpacetimeCurvatureAtPoint.from_components(ric4=ric4, sc4=-1.0, k=k)
        # Sc = Sc4 + 2 Ric4(e0,e0) - (tr k)^2 + |k|^2
        assert stc.slice_scalar == pytest.approx(-1.0 + 1.0 - 1.0 + 1.0)

    def test_inconsistent_slice_scalar_rejected(self):
        with pytest.raises(ValueError):
            SpacetimeCurvatureAtPoint.from_components(k=np.eye(3), slice_scalar=5.0)

    def test_ricci_derived_from_riemann(self):
        rho = 0.9
        rm = rm4_from_blocks(e_block=(rho / 3) * np.eye(3))
        stc = stc_from(rm4=rm)
        assert stc.ric4[0, 0] == pytest.approx(rho)
        assert_allclose(stc.ric4[1:, 1:], -(rho / 3) * np.eye(3), atol=1e-14)
        assert stc.sc4 == pytest.approx(-2 * rho)

    def test_bad_symmetry_rejected(self):
        rm = np.zeros((4, 4, 4, 4))
        rm[0, 1, 2, 3] = 1.0
        with pytest.raises(ValueError):
            stc_from(rm4=rm)


class TestLightcut:
    def test_minkowski(self):
        stc = stc_from()
        out = lightcut_expansions(stc, 0.1, [1.0, 0.0, 0.0])
        assert out["theta_plus"][0] == pytest.approx(20.0)
        assert out["theta_minus"][0] == pytest.approx(-10.0)
        assert out["h"][0] == pytest.approx(20.0)
        assert out["scalar_curvature"][0] == pytest.approx(200.0)
        assert np.abs(out["metric_correction"]).max() == 0.0

    def test_pure_energy_density(self):
        # Ric4(e0,e0) = rho, everything else zero: H_lc = 2/l + (rho/3) l
        rho = 0.7
        ric4 = np.zeros((4, 4))
        ric4[0, 0] = rho
        stc = stc_from(ric4=ric4)
        l = 0.1
        out = lightcut_expansions(stc, l, [0.0, 0.0, 1.0])
        assert out["h"][0] == pytest.approx(2 / l + rho / 3 * l, abs=1e-14)

    def test_area_from_metric_expansion_quadrature(self, grid):
        # integrating the metric-correction trace over directions reproduces
        # the quartic area coefficient -(2 pi / 9)(4 Ric00 + Sc4)
        rng = np.random.default_rng(4)
        m = rng.normal(size=(3, 3))
        rm = rm4_from_blocks(e_block=0.2 * (m + m.T))
        stc = stc_from(rm4=rm)
        l = 1.0
        out = lightcut_expansions(stc, l, grid.nodes)
        trace = out["metric_correction"][:, 0, 0] + out["metric_correction"][:, 1, 1]
        quartic = 0.5 * np.sum(grid.weights * trace)
        expected = -(2 * np.pi / 9) * (4 * stc.ric4[0, 0] + stc.sc4)
        assert abs(quartic - expected) < 1e-12

    def test_metric_correction_matches_pairwise_contraction(self):
        # h_ab = Rm4(E, t_a, t_b, E) / 3 on a generic curvature tensor: the
        # Kulkarni-Nomizu product of symmetric forms has every Riemann symmetry
        rng = np.random.default_rng(6)
        a, b = (m + m.T for m in rng.normal(size=(2, 4, 4)))
        rm = (np.einsum("ac,bd->abcd", a, b) + np.einsum("ac,bd->abcd", b, a)
              - np.einsum("ad,bc->abcd", a, b) - np.einsum("ad,bc->abcd", b, a))
        stc = stc_from(rm4=rm)
        x = rng.normal(size=(20, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        h = lightcut_expansions(stc, 0.1, x)["metric_correction"]
        big_e = np.column_stack([np.ones(len(x)), x])
        tangents = [np.column_stack([np.zeros(len(x)), t]) for t in _tangent_frames(x)]
        for i, ta in enumerate(tangents):
            for j, tb in enumerate(tangents):
                ref = np.einsum("ijkl,ni,nj,nk,nl->n", rm, big_e, ta, tb, big_e) / 3.0
                assert_allclose(h[:, i, j], ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_area_identity_exact_rational(self):
        res = lightcut_area_quartic_identity()
        assert res["identical"]
        assert res["metric_expansion"] == res["closed_form"]


class TestGeodesicSide:
    def test_flat_trivial(self):
        stc = stc_from()
        out = geodesic_side_expansions(stc, 0.1, [1.0, 0.0, 0.0])
        assert out["h"][0] == pytest.approx(20.0)
        assert out["scalar_curvature"][0] == pytest.approx(200.0)

    def test_isotropic_k_against_numerical_geodesic_spheres(self, grid):
        # k = a I with Rm4 = 0 forces slice curvature K = -a^2; the matching
        # slice preset is the constant-curvature quadratic metric, and the
        # numerical H of its geodesic spheres must match H_G to O(r^3)
        a = 0.5
        K = -a * a
        eye = np.eye(3)
        c4 = np.zeros((3, 3, 3, 3))
        for i in range(3):
            for j in range(3):
                for p in range(3):
                    for q in range(3):
                        c4[i, j, p, q] = -(K / 3) * (eye[i, j] * eye[p, q]
                                                     - 0.5 * (eye[i, q] * eye[j, p]
                                                              + eye[i, p] * eye[j, q]))
        ds = preset("polynomial", g_quadratic=c4)
        stc = stc_from(k=a * np.eye(3))
        for r in (0.02, 0.04):
            surf = geodesic_sphere(ds, ORIGIN, ORIGIN, r, grid)
            h_g = geodesic_side_expansions(stc, r, grid.nodes)["h"]
            assert np.abs(surf.mean_curvature - h_g).max() < 30 * r ** 3

    def test_scalar_curvature_consistency_with_slice_form(self):
        # Sc_G via the Gauss substitution equals 2/r^2 - (2/3) Ric(nu,nu)
        # computed from the same slice data
        from hawkfol.smallsphere import slice_ricci_radial
        rng = np.random.default_rng(8)
        m = rng.normal(size=(3, 3))
        rm = rm4_from_blocks(e_block=0.1 * (m + m.T))
        k = 0.3 * (m + m.T)
        stc = stc_from(rm4=rm, k=k)
        x = np.array([[0.0, 0.6, 0.8]])
        r = 0.05
        out = geodesic_side_expansions(stc, r, x)
        ric_nn = slice_ricci_radial(stc, x)
        assert out["scalar_curvature"][0] == pytest.approx(
            2 / r ** 2 - (2.0 / 3.0) * ric_nn[0], rel=1e-14)


class TestRadiusMatching:
    def test_zero_curvature(self):
        r, closed = radius_matching(stc_from(), 0.05)
        assert r == pytest.approx(0.05, abs=1e-16)
        assert closed == pytest.approx(0.05, abs=1e-16)

    def test_newton_agrees_with_closed_form(self):
        rho = 0.8
        ric4 = np.zeros((4, 4))
        ric4[0, 0] = rho
        # realize Ric00 through Rm so sc4 is consistent free data
        rm = rm4_from_blocks(e_block=(rho / 3) * np.eye(3))
        stc = stc_from(rm4=rm)
        for l in (0.02, 0.05):
            r, closed = radius_matching(stc, l)
            # closed form r - l = -(l^3/18) Ric00 + O(l^5)
            assert abs((r - l) - (closed - l)) < 20 * l ** 5
            assert abs((r - l) + (l ** 3 / 18) * rho) < 10 * l ** 5

    def test_no_root_for_large_parameter(self):
        stc = SpacetimeCurvatureAtPoint.from_components(sc4=1.0e4)
        with pytest.raises(NoRoot):
            radius_matching(stc, 0.05)

    def test_root_where_newton_from_l_overshoots(self):
        # Sc l^2 = 7.5, near the limit 9: the matched radius lies far below l
        stc = SpacetimeCurvatureAtPoint.from_components(ric4=np.diag([10.0, 0, 0, 0]), sc4=10.0)
        r, _ = radius_matching(stc, 0.5)
        assert r == pytest.approx(0.29973543298164107, rel=1e-14)
        assert abs(geodesic_area(stc, r) - lightcut_area(stc, 0.5)) < 1e-14
        assert 8 * np.pi * r - (8 * np.pi / 9) * r ** 3 * stc.slice_scalar > 0

    @pytest.mark.parametrize("l", [-0.05, 0.0, np.nan, np.inf])
    def test_rejects_a_parameter_that_is_not_finite_and_positive(self, l):
        # the quartics are even in l, so a negative l would match r = |l|
        with pytest.raises(InvalidParams, match="affine parameter"):
            radius_matching(stc_from(k=np.diag([1.0, 0.0, 0.0])), l)

    def test_area_expansions(self):
        stc = stc_from(k=np.diag([1.0, 0.0, 0.0]))
        l = 0.04
        assert lightcut_area(stc, l) == pytest.approx(4 * np.pi * l * l)
        assert geodesic_area(stc, l) == pytest.approx(4 * np.pi * l * l)


class TestComparison:
    def test_k_zero_energies_agree(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(3, 3))
        rm = rm4_from_blocks(e_block=0.1 * (m + m.T))
        stc = stc_from(rm4=rm)
        assert geodesic_energy_coefficient(stc) == pytest.approx(
            lightcut_energy_coefficient(stc), rel=1e-14)
        rep = comparison_report(stc, [0.02, 0.04, 0.06])
        assert max(abs(row["excess"]) for row in rep.rows) < 1e-12

    def test_pure_trace_k_has_no_excess(self):
        stc = stc_from(k=0.3 * np.eye(3))
        rep = comparison_report(stc, [0.02, 0.04, 0.06, 0.08])
        assert abs(rep.excess_coefficient_fit) < 1e-12
        assert stc.traceless_k_norm_sq < 1e-14

    def test_trace_free_k_excess_candidates(self):
        stc = stc_from(k=np.diag([1.0, 0.0, 0.0]))
        rep = comparison_report(stc, [0.02, 0.04, 0.06, 0.08])
        k0sq = stc.traceless_k_norm_sq
        assert rep.excess_candidate_quoted == pytest.approx(1.2 * k0sq)
        assert rep.excess_candidate_derived == pytest.approx(0.1 * k0sq)
        # the fit lands on the substitution-derived value, not the quoted one
        assert abs(rep.excess_coefficient_fit - rep.excess_candidate_derived) \
            < 1e-6 * k0sq
        assert abs(rep.excess_coefficient_fit - rep.excess_candidate_quoted) \
            > 0.5 * k0sq

    def test_h_difference_k_zero_reduces_to_curvature_terms(self):
        # for k = 0 the leading H_G - H_lc coefficient is
        # -(2/9) Ric00 + (2/3) Rm4(e0,nu,e0,nu) by direct substitution
        rng = np.random.default_rng(5)
        m = rng.normal(size=(3, 3))
        rm = rm4_from_blocks(e_block=0.15 * (m + m.T))
        stc = stc_from(rm4=rm)
        x = np.array([0.6, 0.0, 0.8])
        rep = comparison_report(stc, [0.01, 0.02], sample_direction=x)
        coef = rep.rows[0]["h_difference"] / rep.rows[0]["l"]
        e0 = np.array([1.0, 0, 0])
        nu = np.concatenate([[0.0], x])
        w = np.einsum("ijkl,i,j,k,l->", stc.rm4,
                      np.array([1.0, 0, 0, 0]), nu, np.array([1.0, 0, 0, 0]), nu)
        target = -(2.0 / 9.0) * stc.ric4[0, 0] + (2.0 / 3.0) * w
        assert abs(coef - target) < 0.05 * abs(target)

    def test_no_root_rows_flagged(self):
        stc = SpacetimeCurvatureAtPoint.from_components(sc4=1.0e4)
        rep = comparison_report(stc, [0.001, 0.05])
        assert not rep.rows[0]["no_root"]
        assert rep.rows[1]["no_root"]
        assert np.isnan(rep.rows[1]["excess"])

    def test_zero_sample_direction_raises(self):
        stc = stc_from(k=np.diag([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="sample_direction"):
            comparison_report(stc, [0.02, 0.04], sample_direction=(0.0, 0.0, 0.0))

    @pytest.mark.parametrize("l_values, direction", [
        ([-0.05, 0.02, 0.04], (1.0, 0.0, 0.0)),
        ([0.02, np.nan, 0.04], (1.0, 0.0, 0.0)),
        ([0.02, np.inf], (1.0, 0.0, 0.0)),
        ([0.0, 0.02], (1.0, 0.0, 0.0)),
        ([], (1.0, 0.0, 0.0)),
        ([[0.02, 0.04]], (1.0, 0.0, 0.0)),
        (["a", 0.02], (1.0, 0.0, 0.0)),
        ([0.02, 0.04], (1.0, 0.0)),
        ([0.02, 0.04], "ab"),
    ], ids=["l-negative", "l-nan", "l-inf", "l-zero", "l-empty", "l-2d", "l-text",
            "direction-short", "direction-text"])
    def test_bad_input_raises_before_any_row(self, monkeypatch, l_values, direction):
        # unchecked, l = -0.05 would match r = 0.05 and a NaN l give a NaN row,
        # both with no_root False, and a malformed direction fail inside numpy
        def unread(*args):
            pytest.fail("a row was computed")

        monkeypatch.setattr("hawkfol.smallsphere._comparison_row", unread)
        with pytest.raises(InvalidParams, match="l_values|sample_direction"):
            comparison_report(stc_from(k=np.diag([1.0, 0.0, 0.0])), l_values,
                              sample_direction=direction)

    def test_rows_and_dict(self):
        keys = ["l", "r", "r_closed_form", "no_root", "energy_geodesic",
                "energy_lightcut", "excess", "h_geodesic", "h_lightcut",
                "sc_geodesic", "sc_lightcut", "h_difference", "sc_difference"]
        stc = stc_from(k=np.diag([1.0, 0.0, 0.0]))
        rep = comparison_report(stc, [0.02, 0.04])
        assert len(rep.rows) == 2
        assert all(list(row) == keys for row in rep.rows)
        assert all(np.isfinite(row[key]) for row in rep.rows for key in keys)
        assert set(rep.to_dict()) >= {"rows", "excess_coefficient_fit"}

        stc = SpacetimeCurvatureAtPoint.from_components(sc4=1.0e4)
        rep = comparison_report(stc, [0.001, 0.05])
        assert [list(row) for row in rep.rows] == [keys, keys]
        no_root = rep.rows[1]
        assert no_root["no_root"] is True and no_root["l"] == 0.05
        assert all(np.isnan(no_root[key]) for key in keys if key not in ("l", "no_root"))


def test_cross_module_energy_coefficient(conformal_k, grid):
    # the geodesic-side cubic coefficient equals the concentration scalar / 12
    from hawkfol import concentration_scalar
    value, _, _ = concentration_scalar(conformal_k, ORIGIN)
    k = conformal_k.k_jet(ORIGIN[None], 0)[0]
    from hawkfol import curvature_at
    sc = curvature_at(conformal_k, ORIGIN).scalar
    # spacetime data realizing the same slice scalar and k: choose Ric4(e0,e0)
    # through the Gauss equation with sc4 = 0
    trk = np.trace(k)
    ksq = np.sum(k * k)
    ric00 = 0.5 * (sc + trk ** 2 - ksq)
    ric4 = np.zeros((4, 4))
    ric4[0, 0] = ric00
    stc = SpacetimeCurvatureAtPoint.from_components(ric4=ric4, sc4=0.0, k=k)
    assert stc.slice_scalar == pytest.approx(sc, rel=1e-12)
    assert geodesic_energy_coefficient(stc) == pytest.approx(value / 12.0, rel=1e-12)
