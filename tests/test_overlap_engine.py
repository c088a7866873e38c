import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gausscollect.ensemble_model import (
    FULL_GAUSSIAN,
    GOUY_COMPENSATED,
    UNIFORM,
    CloudGeometry,
    make_profile,
    phase_at_points,
)
from gausscollect.overlap_engine import (
    _BLOCK_NODES,
    OverlapResult,
    compute_xi,
    geometric_factors,
    small_cloud_factors,
    _brute_force_level,
    xi_brute_force,
    xi_gouy_compensated_curvature_form,
)
from gausscollect.special_math import (
    CUT_SIGMAS,
    SQRT_2PI,
    QuadratureError,
    graded_edges,
    panel_nodes,
)
from gausscollect.validation import sample_overlap_triples, validate_overlap
from gausscollect.waist_optimizer import default_bracket, optimal_waist_numeric


def rel(a, b):
    return abs(a - b) / abs(b)


def small_cloud_xi_abs_sq(cloud, w0):
    """|xi|^2 of the small-cloud model, from its geometric factor."""
    return float(small_cloud_factors(cloud, w0)) * w0 * w0 / 6.0


class TestSmallCloud:
    def test_matched_waist_quarter(self):
        cloud = CloudGeometry(3.0, 0.0)
        assert small_cloud_xi_abs_sq(cloud, math.sqrt(2.0) * 3.0) == pytest.approx(0.25, rel=1e-14)

    def test_point_emitter(self):
        assert small_cloud_xi_abs_sq(CloudGeometry(1e-9, 0.0), 5.0) == pytest.approx(1.0, rel=1e-12)

    def test_direct_evaluation(self):
        expect = (1296.0 / 54.0**2) * math.exp(-((40.0 / 36.0) ** 2))
        assert small_cloud_xi_abs_sq(CloudGeometry(3.0, 20.0), 6.0) == pytest.approx(
            expect, rel=1e-13
        )
        assert expect == pytest.approx(0.1293157595, rel=1e-9)

    def test_small_cloud_error_budget_outside_regime(self):
        # sigma_z ~ zR here, so the flat-phase model is only good to a factor
        cloud = CloudGeometry(3.0, 20.0)
        oracle = xi_brute_force(cloud, 6.0, make_profile(UNIFORM))
        ratio = oracle.xi_abs_sq / small_cloud_xi_abs_sq(cloud, 6.0)
        assert 0.5 < ratio < 2.0


class TestUniform:
    def test_wide_beam_asymptote(self):
        res = compute_xi(CloudGeometry(3.0, 50.0), 1000.0, UNIFORM)
        assert res.xi_abs_sq == pytest.approx(1.0, abs=1e-3)
        assert abs(res.xi - (-1j)) < 0.01

    def test_against_brute_force(self):
        cloud = CloudGeometry(5.0, 100.0)
        fast = compute_xi(cloud, 10.0, UNIFORM)
        oracle = xi_brute_force(cloud, 10.0, make_profile(UNIFORM))
        assert rel(fast.xi_abs_sq, oracle.xi_abs_sq) < 1e-6
        assert abs(fast.xi - oracle.xi) < 1e-8

    def test_regime_overlap_with_small_cloud(self):
        # sigma_z far below the Rayleigh length: both forms apply
        w0 = 6.0
        cloud = CloudGeometry(3.0, 0.01 * 0.5 * w0 * w0)
        assert rel(
            compute_xi(cloud, w0, UNIFORM).xi_abs_sq, small_cloud_xi_abs_sq(cloud, w0)
        ) < 1e-4

    def test_extreme_elongation_no_overflow(self):
        res = compute_xi(CloudGeometry(1.0, 1e-3), 60.0, UNIFORM)
        assert 0.0 < res.xi_abs_sq <= 1.0


class TestGouyCompensated:
    def test_pancake_limit(self):
        w0 = 8.0
        zeta = 0.5 * w0 * w0
        cloud = CloudGeometry(2.0, 1e-3 * zeta)
        res = compute_xi(cloud, w0, GOUY_COMPENSATED)
        flat = w0**4 / (w0**2 + 2.0 * 4.0) ** 2
        assert res.xi_abs_sq == pytest.approx(flat, rel=1e-4)

    def test_beats_uniform_for_elongated_clouds(self):
        cloud = CloudGeometry(2.0, 300.0)
        uni = optimal_waist_numeric(cloud, UNIFORM)
        gou = optimal_waist_numeric(cloud, GOUY_COMPENSATED)
        assert gou.g_max >= uni.g_max

    def test_dual_forms_agree(self):
        cloud = CloudGeometry(5.0, 100.0)
        a = compute_xi(cloud, 12.0, GOUY_COMPENSATED)
        b = xi_gouy_compensated_curvature_form(cloud, 12.0)
        assert abs(a.xi - b.xi) < 1e-9

    def test_against_brute_force(self):
        cloud = CloudGeometry(5.0, 100.0)
        fast = compute_xi(cloud, 10.0, GOUY_COMPENSATED)
        oracle = xi_brute_force(cloud, 10.0, make_profile(GOUY_COMPENSATED, 10.0))
        assert rel(fast.xi_abs_sq, oracle.xi_abs_sq) < 1e-6


class TestFullCompensation:
    def test_pancake_matched_waist(self):
        res = compute_xi(CloudGeometry(3.0, 0.0), math.sqrt(2.0) * 3.0, FULL_GAUSSIAN)
        assert res.xi_abs_sq == pytest.approx(0.25, rel=1e-14)
        assert res.method == "closed_form"

    def test_pancake_any_waist(self):
        sp, w0 = 4.0, 11.0
        res = compute_xi(CloudGeometry(sp, 0.0), w0, FULL_GAUSSIAN)
        assert res.xi_abs_sq == pytest.approx(w0**4 / (w0**2 + 2 * sp**2) ** 2, rel=1e-14)

    def test_against_brute_force(self):
        cloud = CloudGeometry(5.0, 100.0)
        fast = compute_xi(cloud, 10.0, FULL_GAUSSIAN)
        oracle = xi_brute_force(cloud, 10.0, make_profile(FULL_GAUSSIAN, 10.0))
        assert rel(fast.xi_abs_sq, oracle.xi_abs_sq) < 1e-6


class TestBruteForce:
    def test_is_exact_against_closed_form(self):
        # the uniform-phase closed form is exact, so this pins the oracle
        cloud = CloudGeometry(8.0, 40.0)
        oracle = xi_brute_force(cloud, 14.0, make_profile(UNIFORM))
        exact = compute_xi(cloud, 14.0, UNIFORM)
        assert abs(oracle.xi - exact.xi) < 1e-11

    def test_full_profile_pancake_limit(self):
        w0 = 10.0
        cloud = CloudGeometry(3.0, 1e-3 * 0.5 * w0 * w0)
        oracle = xi_brute_force(cloud, w0, make_profile(FULL_GAUSSIAN, w0))
        flat = w0**4 / (w0**2 + 2.0 * 9.0) ** 2
        assert oracle.xi_abs_sq == pytest.approx(flat, rel=1e-4)

    def test_wide_cloud_small_overlap(self):
        w0 = 3.0
        cloud = CloudGeometry(10.0 * w0, 50.0)
        for variant in (UNIFORM, GOUY_COMPENSATED, FULL_GAUSSIAN):
            res = xi_brute_force(cloud, w0, make_profile(variant, w0))
            assert res.xi_abs_sq < 0.05

    def test_rejects_pancake(self):
        with pytest.raises(ValueError):
            xi_brute_force(CloudGeometry(1.0, 0.0), 3.0, make_profile(UNIFORM))

    def test_rejects_profile_of_another_waist(self):
        cloud = CloudGeometry(3.0, 20.0)
        with pytest.raises(ValueError, match="matched to waist 8.0"):
            xi_brute_force(cloud, 6.0, make_profile(GOUY_COMPENSATED, 8.0))


class TestInvariantsAndDispatch:
    def test_profiles_coincide_for_short_clouds(self):
        w0 = 9.0
        cloud = CloudGeometry(3.0, 1e-3 * 0.5 * w0 * w0)
        values = [
            compute_xi(cloud, w0, variant).xi_abs_sq
            for variant in (UNIFORM, GOUY_COMPENSATED, FULL_GAUSSIAN)
        ]
        spread = (max(values) - min(values)) / min(values)
        assert spread < 1e-3

    def test_dispatch_routes(self):
        pancake = CloudGeometry(2.0, 0.0)
        assert compute_xi(pancake, 4.0, UNIFORM).method == "closed_form"
        assert compute_xi(pancake, 4.0, GOUY_COMPENSATED).method == "closed_form"
        assert compute_xi(pancake, 4.0, FULL_GAUSSIAN).method == "closed_form"
        long = CloudGeometry(2.0, 50.0)
        assert compute_xi(long, 4.0, UNIFORM).method == "closed_form"
        assert compute_xi(long, 4.0, GOUY_COMPENSATED).method == "quadrature"
        assert compute_xi(long, 4.0, FULL_GAUSSIAN).method == "quadrature"
        with pytest.raises(ValueError):
            compute_xi(long, 4.0, "bespoke")

    @given(
        st.floats(min_value=0.5, max_value=40.0),
        st.floats(min_value=0.0, max_value=600.0),
        st.floats(min_value=2.0, max_value=80.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_overlap_bounded(self, sp, sz, w0):
        cloud = CloudGeometry(sp, sz)
        for variant in (UNIFORM, GOUY_COMPENSATED, FULL_GAUSSIAN):
            res = compute_xi(cloud, w0, variant)
            assert 0.0 <= res.xi_abs_sq <= 1.0 + 1e-12

    def test_result_consistency_fields(self):
        res = compute_xi(CloudGeometry(4.0, 30.0), 7.0, UNIFORM)
        assert res.xi_abs_sq == pytest.approx(abs(res.xi) ** 2, abs=1e-15)
        assert res.geometric_factor == pytest.approx(6.0 * res.xi_abs_sq / 49.0, rel=1e-13)

    def test_from_xi_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            OverlapResult.from_xi(1.5 + 0.0j, 3.0, "closed_form")

    @pytest.mark.parametrize("xi", [complex(math.nan, 0.0), complex(0.0, -math.inf)])
    def test_from_xi_rejects_non_finite(self, xi):
        with pytest.raises(QuadratureError, match="non-finite overlap"):
            OverlapResult.from_xi(xi, 3.0, "quadrature")

    @pytest.mark.parametrize("sp, sz, w0", [
        (1.0, 1e300, 3.0),  # z * z overflows on the axial rule
        (1.0, 1.0, 1e200),  # zR / (zR + sp^2) is inf / inf
    ])
    @pytest.mark.parametrize("variant", [GOUY_COMPENSATED, FULL_GAUSSIAN])
    def test_overflowing_overlap_raises(self, sp, sz, w0, variant):
        with np.errstate(all="ignore"), pytest.raises(QuadratureError, match="non-finite"):
            compute_xi(CloudGeometry(sp, sz), w0, variant)


VARIANTS = (UNIFORM, GOUY_COMPENSATED, FULL_GAUSSIAN)


def cloud_factors(cloud, ws, variant):
    """``geometric_factors`` of one cloud over the 1-d waists ``ws``."""
    return geometric_factors([cloud.sigma_perp_bar ** 2], [cloud.sigma_z_bar],
                             np.atleast_2d(ws), variant)[0]


class TestBatchedKernel:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_batched_scan_equals_one_waist(self, variant):
        # seeded clouds over the preset box, scanned over their bracket
        rng = np.random.default_rng(31)
        for _ in range(8):
            cloud = CloudGeometry(
                float(np.exp(rng.uniform(0.0, np.log(50.0)))),
                float(np.exp(rng.uniform(0.0, np.log(1000.0)))),
            )
            ws = np.geomspace(*default_bracket(cloud), 64)
            batched = cloud_factors(cloud, ws, variant)
            single = [compute_xi(cloud, w, variant).geometric_factor for w in ws]
            assert_allclose(batched, single, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("sz", [0.0, 5e-324, 1e-6])
    def test_degenerate_and_regular_waists_mixed(self, variant, sz):
        # at sz = 1e-6 the small waists still need the axial rule while
        # the large ones are negligibly short clouds; the limits are
        # decided per waist before any mesh exists, so no division by
        # zero or overflow may occur for the tiniest lengths
        sp = 3.0
        cloud = CloudGeometry(sp, sz)
        ws = np.geomspace(0.5, 1e4, 64)
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            batched = cloud_factors(cloud, ws, variant)
            single = [compute_xi(cloud, w, variant).geometric_factor for w in ws]
        assert_allclose(batched, single, rtol=1e-13, atol=0.0)
        pancake = 6.0 * ws**2 / (ws**2 + 2.0 * sp * sp) ** 2
        assert_allclose(batched, pancake, rtol=1e-9)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_mixed_matrix_equals_one_cloud_rows(self, variant):
        # zero, subnormal and tiny lengths beside regular clouds in one
        # call: each row must come out as its one-cloud call, bit for bit
        clouds = [CloudGeometry(3.0, 0.0), CloudGeometry(5.0, 100.0),
                  CloudGeometry(3.0, 5e-324), CloudGeometry(0.7, 1e-6),
                  CloudGeometry(40.0, 2.0), CloudGeometry(2.0, 900.0)]
        W = np.array([np.geomspace(0.5 * (i + 1), 1e3 / (i + 1), 17) for i in range(len(clouds))])
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            matrix = geometric_factors([c.sigma_perp_bar ** 2 for c in clouds],
                                       [c.sigma_z_bar for c in clouds], W, variant)
            rows = [cloud_factors(c, w, variant) for c, w in zip(clouds, W)]
        assert (matrix == np.array(rows)).all()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_compute_xi_is_the_one_by_one_case(self, variant):
        rng = np.random.default_rng(5)
        for sp, sz, w0 in [(5.0, 100.0, 10.0), (0.7, 0.0, 3.0), (40.0, 1e-6, 2.0),
                           *sample_overlap_triples(6, seed=3)]:
            cloud = CloudGeometry(sp, sz)
            w0 *= float(rng.uniform(0.5, 2.0))
            single = compute_xi(cloud, w0, variant)
            assert single.geometric_factor == cloud_factors(cloud, [w0], variant)[0]

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="waist matrix"):
            geometric_factors([4.0], [10.0], [3.0, 4.0], UNIFORM)
        with pytest.raises(ValueError, match="waist matrix"):
            geometric_factors([4.0, 9.0], [10.0], [[3.0], [4.0]], GOUY_COMPENSATED)

    @pytest.mark.parametrize("variant", [GOUY_COMPENSATED, FULL_GAUSSIAN])
    def test_axial_rule_against_brute_force(self, variant):
        for sp, sz, w0 in sample_overlap_triples(3, seed=11):
            cloud = CloudGeometry(sp, sz)
            fast = compute_xi(cloud, w0, variant)
            oracle = xi_brute_force(cloud, w0, make_profile(variant, w0))
            assert abs(fast.xi - oracle.xi) <= 1e-10
            assert rel(fast.xi_abs_sq, oracle.xi_abs_sq) <= 1e-10

    def test_rejects_bad_waists(self):
        cloud = CloudGeometry(2.0, 50.0)
        with pytest.raises(ValueError, match="w0_bar"):
            cloud_factors(cloud, [3.0, 0.0], GOUY_COMPENSATED)
        with pytest.raises(ValueError, match="phase variant"):
            cloud_factors(cloud, [3.0], "bespoke")

    @pytest.mark.parametrize("w0", [1e-200, 2.3e-162, 1e-154])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_rejects_waists_whose_rayleigh_length_underflows(self, w0, variant):
        # the axial rule's first panel is a quarter of the Rayleigh length
        cloud = CloudGeometry(1.0, 1.0)
        with pytest.raises(ValueError, match="Rayleigh length"):
            compute_xi(cloud, w0, variant)
        with pytest.raises(ValueError, match="Rayleigh length"):
            cloud_factors(cloud, [3.0, w0], variant)

    def test_oracles_reject_a_vanishing_rayleigh_length(self):
        cloud = CloudGeometry(1.0, 1.0)
        with pytest.raises(ValueError, match="first breakpoint"):
            graded_edges(0.0, 1.0, 1.6)
        with pytest.raises(ValueError, match="Rayleigh length"):
            xi_gouy_compensated_curvature_form(cloud, 1e-200)
        for variant in VARIANTS:
            with pytest.raises(ValueError, match="Rayleigh length"):
                xi_brute_force(cloud, 1e-200, make_profile(variant, 1e-200))


def per_cell_axial_xi(cloud, ws, variant, order, ratio):
    """Compensated ``xi`` of one cloud over the 1-d waists ``ws`` by the axial
    rule as the kernel applied it before clouds of one length shared a mesh:
    one mesh per cloud, from the smallest Rayleigh length among ``ws``, of
    Gauss-Legendre panels of ``order`` points graded by ``ratio`` (16 and 1.6
    then)."""
    sp, sz = cloud.sigma_perp_bar, cloud.sigma_z_bar
    zeta = 0.5 * np.asarray(ws, dtype=float) ** 2
    edges = np.array(graded_edges(min(zeta.min(), sz) / 4.0, CUT_SIGMAS * sz, ratio))
    z, w = panel_nodes(edges[edges >= 0.0], order)
    w = w * np.exp(-z * z / (2.0 * sz * sz)) * (2.0 / (SQRT_2PI * sz))
    zq, z_sq = zeta[:, None], z * z
    r_sq = zq * zq + z_sq
    if variant == GOUY_COMPENSATED:
        p = zq + sp * sp
        f = (zq * p + z_sq) / ((z_sq + p * p) * np.sqrt(r_sq))
    else:
        f = np.sqrt(r_sq) / (r_sq + sp * sp * zq)
    return -1j * zeta * (f @ w)


def matrix_factors(clouds, W, variant):
    """One ``geometric_factors`` call for ``clouds`` on the rows of ``W``."""
    return geometric_factors([c.sigma_perp_bar ** 2 for c in clouds],
                             [c.sigma_z_bar for c in clouds], W, variant)


def bracket_scans(clouds):
    return np.array([np.geomspace(*default_bracket(c), 64) for c in clouds])


def preset_columns(seed, n_lengths, n_widths):
    """Seeded clouds of the preset box: ``n_widths`` log-uniform widths on
    each of ``n_lengths`` log-uniform lengths, as sweep columns hold them."""
    rng = np.random.default_rng(seed)
    lengths = np.exp(rng.uniform(0.0, math.log(1000.0), n_lengths)).tolist()
    return [CloudGeometry(float(np.exp(rng.uniform(0.0, math.log(50.0)))), sz)
            for sz in lengths for _ in range(n_widths)]


class TestSharedAxialMesh:
    """Clouds of one length share one axial mesh, evaluated in blocks."""

    @pytest.mark.parametrize("variant", [GOUY_COMPENSATED, FULL_GAUSSIAN])
    @pytest.mark.parametrize("order, ratio", [(16, 1.6), (24, 1.3)])
    def test_matches_per_cell_rules(self, variant, order, ratio):
        # the rule it replaced and a finer one, on 60 clouds in 12 columns
        # scanned over their brackets
        clouds = preset_columns(41, 12, 5)
        W = bracket_scans(clouds)
        reference = np.array([6.0 * np.abs(per_cell_axial_xi(c, w, variant, order, ratio)) ** 2
                              / (w * w) for c, w in zip(clouds, W)])
        assert_allclose(matrix_factors(clouds, W, variant), reference, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_shared_length_rows_equal_one_cloud_rows(self, variant):
        # two interleaved lengths of 60 widths each: every group of 60 x 64
        # waists on a mesh of at least 16 nodes spans more than one block
        clouds = [CloudGeometry(sp, sz) for sp in np.geomspace(1.0, 50.0, 60).tolist()
                  for sz in (20.0, 300.0)]
        W = bracket_scans(clouds)
        assert 60 * 64 * 16 > _BLOCK_NODES
        rows = [cloud_factors(c, w, variant) for c, w in zip(clouds, W)]
        assert_allclose(matrix_factors(clouds, W, variant), rows, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("variant", [GOUY_COMPENSATED, FULL_GAUSSIAN])
    def test_one_length_column_works_in_blocks(self, variant):
        # 3,840 waists on one mesh of 192 nodes: each temporary of an
        # unblocked integrand takes about 6 MB, and the call peaks near 20 MB
        clouds = [CloudGeometry(sp, 300.0) for sp in np.geomspace(1.0, 50.0, 60).tolist()]
        W = bracket_scans(clouds)
        tracemalloc.start()
        try:
            matrix_factors(clouds, W, variant)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

    @pytest.mark.parametrize("variant", [GOUY_COMPENSATED, FULL_GAUSSIAN])
    def test_rejects_a_nan_length(self, variant):
        with pytest.raises(ValueError, match="sigma_z is NaN"):
            geometric_factors([4.0, 4.0], [math.nan, 10.0], [[3.0, 5.0]] * 2, variant)

    def test_validate_overlap_passes_at_1e_10(self):
        assert validate_overlap(tol=1e-10).passed


# the fig2 preset box, log-uniform: sigma_perp in [1, 50], sigma_z in [1, 1000]
preset_sp = st.floats(0.0, math.log(50.0)).map(math.exp)
preset_sz = st.floats(0.0, math.log(1000.0)).map(math.exp)
# position of the waist on the log scale of the cloud's default bracket
bracket_frac = st.floats(0.0, 1.0)


def bracket_waist(sp: float, frac: float) -> float:
    lo, hi = default_bracket(CloudGeometry(sp, 1.0))
    return lo * (hi / lo) ** frac


class TestPresetBoxProperties:
    @given(preset_sp, preset_sz, bracket_frac)
    @settings(max_examples=40, deadline=None)
    def test_overlap_normalized(self, sp, sz, frac):
        cloud = CloudGeometry(sp, sz)
        w0 = bracket_waist(sp, frac)
        for variant in VARIANTS:
            assert 0.0 <= compute_xi(cloud, w0, variant).xi_abs_sq <= 1.0

    @given(preset_sp, bracket_frac, st.floats(-11.0, -2.0))
    @settings(max_examples=40, deadline=None)
    def test_short_cloud_continuous_with_pancake(self, sp, frac, log_ratio):
        # sz / zR from 1e-11 to 1e-2, across the switch to the pancake form
        # at 1e-9: every variant approaches it as (sz / zR)^2
        w0 = bracket_waist(sp, frac)
        zeta = 0.5 * w0 * w0
        ratio = 10.0 ** log_ratio
        pancake = -1j * zeta / (zeta + sp * sp)
        for variant in VARIANTS:
            xi = compute_xi(CloudGeometry(sp, ratio * zeta), w0, variant).xi
            assert abs(xi / pancake - 1.0) <= 2.0 * ratio**2 + 1e-13

    @given(preset_sp, preset_sz, st.floats(-1.0, math.log10(30.0)))
    @settings(max_examples=30, deadline=None)
    def test_gouy_forms_agree(self, sp, sz, log_ratio):
        # sz / zR from 0.1 to 30: clouds far shorter and far longer than
        # the Rayleigh length
        w0 = math.sqrt(2.0 * sz / 10.0 ** log_ratio)
        cloud = CloudGeometry(sp, sz)
        a = compute_xi(cloud, w0, GOUY_COMPENSATED)
        b = xi_gouy_compensated_curvature_form(cloud, w0)
        assert abs(a.xi - b.xi) <= 1e-9


class TestAxialQuadratureRoutes:
    def test_hermite_and_adaptive_agree_on_overlap_integrands(self):
        # in the regime where the Hermite rule resolves the integrand
        # (cloud shorter than a Rayleigh length), both quadrature routes
        # must produce the same axial integral
        from gausscollect.special_math import gauss_hermite, integrate_adaptive

        sp, sz, w0 = 4.0, 20.0, 12.0  # zeta = 72 > sz
        zeta = 0.5 * w0 * w0
        pole = zeta + sp * sp
        integrands = [
            lambda z: np.exp(-1j * np.arctan(z / zeta)) / (z + 1j * pole),
            lambda z: w0 * np.sqrt(1.0 + (z / zeta) ** 2)
            / (w0**2 * (1.0 + (z / zeta) ** 2) + 2.0 * sp * sp),
        ]
        rule = gauss_hermite(256)
        s = math.sqrt(2.0) * sz
        for g in integrands:
            hermite = s * np.sum(rule.weights * g(s * rule.nodes))
            adaptive = integrate_adaptive(
                lambda z: np.exp(-z * z / (2.0 * sz * sz)) * g(z),
                -8.5 * sz, 8.5 * sz, 1e-12,
            ).value
            assert abs(hermite - adaptive) < 1e-10


class TestGeometricFactor:
    """``geometric_factor = 6 |xi|^2 / w0^2``, as ``OverlapResult.from_xi``
    and the batched kernel compute it."""

    def test_matched_waist_formula(self):
        sp = 3.0
        g = OverlapResult.from_xi(-0.5j, math.sqrt(2.0) * sp, "closed_form").geometric_factor
        assert g == pytest.approx(3.0 / (4.0 * sp * sp), rel=1e-14)

    def test_pancake_optimum_value(self):
        # the pancake overlap -i zR / (zR + sp^2) is -i/2 at the matched waist
        w0 = math.sqrt(2.0) * 2.0
        assert compute_xi(CloudGeometry(2.0, 0.0), w0, UNIFORM).geometric_factor == pytest.approx(
            0.1875, rel=1e-14)
        assert geometric_factors([4.0], [0.0], [[w0]], UNIFORM)[0, 0] == pytest.approx(
            0.1875, rel=1e-14)

    def test_zero(self):
        assert OverlapResult.from_xi(0.0, 5.0, "closed_form").geometric_factor == 0.0

    def test_rejects_bad_input(self):
        # the pancake closed form would divide by w0^2 = 0 without the check
        for cloud in (CloudGeometry(2.0, 0.0), CloudGeometry(2.0, 50.0)):
            for variant in VARIANTS:
                for bad in (0.0, -1.0):
                    with pytest.raises(ValueError, match="w0_bar"):
                        compute_xi(cloud, bad, variant)


def brute_force_level_loop(sp, sz, zeta, variant, level):
    """One level of the brute-force overlap, one axial panel at a time and
    one exponential per radial node: the per-panel form that
    ``overlap_engine._brute_force_level`` sums in closed form."""
    order = 16 + 4 * level
    h0 = min(zeta, sz) / (6.0 * 1.5 ** level)
    z_edges = np.array(graded_edges(h0, 8.5 * sz, ratio=1.4))
    phase_budget = 5.0 / (1.4 ** level)
    sp_sq = sp * sp
    u_max = (8.5 * sp) ** 2
    total = 0.0 + 0.0j
    for k in range(len(z_edges) - 1):
        z, wz = panel_nodes(z_edges[k:k + 2], order)
        q = z + 1j * zeta
        abs_q_sq = z * z + zeta * zeta
        s_eff = 1.0 / (2.0 * sp_sq) + (zeta + 1j * z) / (2.0 * abs_q_sq)
        factor = np.exp(-z * z / (2.0 * sz * sz)) * (zeta / q)
        if variant == GOUY_COMPENSATED:
            factor = factor * np.exp(-1j * np.arctan(z / zeta))
        elif variant == FULL_GAUSSIAN:
            factor = factor * np.exp(-1j * np.arctan(z / zeta))
            s_eff = s_eff - 1j * z / (2.0 * abs_q_sq)
        re_min = float(np.min(s_eff.real))
        u_end = min(u_max, 45.0 / re_min)
        n_panels = max(2, math.ceil(u_end * float(np.max(np.abs(s_eff))) / phase_budget))
        u, wu = panel_nodes(np.linspace(0.0, u_end, n_panels + 1), order)
        radial = 0.5 * (wu[None, :] @ np.exp(-np.outer(s_eff, u).T)).ravel()
        total += np.sum(wz * factor * radial)
    return total / (math.sqrt(2.0 * math.pi) * sp_sq * sz)


class TestBruteForceRadialSums:
    """The closed-form radial sums reproduce the per-node loop."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_loop_on_validate_triples(self, variant):
        # the triples of `gausscollect validate` at its default seed
        for sp, sz, w0 in sample_overlap_triples(10, 1234):
            zeta = 0.5 * w0 * w0
            for level in range(3):
                fast = _brute_force_level(sp, sz, zeta, variant, level)
                loop = brute_force_level_loop(sp, sz, zeta, variant, level)
                assert abs(fast - loop) <= 1e-13 * abs(loop)

    @given(preset_sp, preset_sz, bracket_frac, st.sampled_from(VARIANTS))
    @settings(max_examples=25, deadline=None)
    def test_matches_loop_on_preset_box(self, sp, sz, frac, variant):
        zeta = 0.5 * bracket_waist(sp, frac) ** 2
        for level in range(3):
            fast = _brute_force_level(sp, sz, zeta, variant, level)
            loop = brute_force_level_loop(sp, sz, zeta, variant, level)
            assert abs(fast - loop) <= 1e-13 * abs(loop)


def composite_legendre(a, b, panels, order):
    """Nodes and weights of ``panels`` equal Gauss-Legendre panels on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half * (1.0 + x)).ravel(), (half * w).ravel()


def documented_mode(w0, rho, z):
    """The collection mode of README "Physics conventions", as written:
    ``(zR / q*) exp[i (z + rho^2 / (2 q*))]`` with ``q = z + i zR``."""
    zr = 0.5 * w0 * w0
    q_conj = np.conj(z + 1j * zr)
    return zr / q_conj * np.exp(1j * (z + rho * rho / (2.0 * q_conj)))


def documented_overlap(cloud, w0, variant):
    """``xi = integral n(r) conj(v(r)) exp(i [z + phi(r)]) d^3 r`` of the
    normalized cloud density ``n``, the documented mode ``v`` and the stored
    phase ``phi`` of ``phase_at_points``, on a plain (rho, z) tensor mesh to
    9 standard deviations (nothing depends on azimuth)."""
    sp, sz = cloud.sigma_perp_bar, cloud.sigma_z_bar
    rho, w_rho = composite_legendre(0.0, 9.0 * sp, 24, 16)
    z, w_z = composite_legendre(-9.0 * sz, 9.0 * sz, 64, 16)
    rr, zz = np.meshgrid(rho, z, indexing="ij")
    points = np.column_stack([rr.ravel(), np.zeros(rr.size), zz.ravel()])
    phi = phase_at_points(make_profile(variant, w0), points).reshape(rr.shape)
    density = np.exp(-0.5 * (rr / sp) ** 2 - 0.5 * (zz / sz) ** 2) / (
        (2.0 * math.pi) ** 1.5 * sp * sp * sz)
    body = 2.0 * math.pi * rr * density * np.conj(documented_mode(w0, rr, zz)) * np.exp(
        1j * (zz + phi))
    return w_rho @ body @ w_z


class TestDocumentedMode:
    """The kernel and the brute-force oracle integrate the documented mode
    against the documented stored phases."""

    @pytest.mark.parametrize("sp, sz, w0", [
        (3.0, 10.0, 5.0),  # cloud about a Rayleigh length long
        (2.0, 40.0, 4.0),  # cloud several Rayleigh lengths long
        (5.0, 2.0, 8.0),  # short, wide cloud
        (1.0, 150.0, 12.0),  # thin cloud, long against zR = 72
    ])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_overlap_integrates_documented_mode(self, sp, sz, w0, variant):
        cloud = CloudGeometry(sp, sz)
        expect = documented_overlap(cloud, w0, variant)
        assert abs(compute_xi(cloud, w0, variant).xi - expect) < 1e-12
        assert abs(xi_brute_force(cloud, w0, make_profile(variant, w0)).xi - expect) < 1e-12
