import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize_scalar

from gausscollect.cli import _PRESET_AXES
from gausscollect.ensemble_model import (
    FULL_GAUSSIAN,
    GOUY_COMPENSATED,
    UNIFORM,
    CloudGeometry,
)
from gausscollect.overlap_engine import (
    compute_xi,
    geometric_factors,
    xi_small_cloud,
    xi_uniform,
)
from gausscollect.validation import small_cloud_factors
from gausscollect.waist_optimizer import (
    OptimizationError,
    default_bracket,
    maximize_scalar,
    optimal_waist_analytic,
    optimal_waist_numeric,
    sweep,
)


def small_cloud_objective(cloud):
    return lambda ws: small_cloud_factors(cloud, ws)


def test_small_cloud_factors_match_scalar_model():
    ws = np.geomspace(0.5, 100.0, 50)
    for sp, sz in [(3.0, 4.0), (1.0, 50.0), (0.7, 0.0), (20.0, 100.0)]:
        cloud = CloudGeometry(sp, sz)
        reference = [xi_small_cloud(cloud, w).geometric_factor for w in ws]
        assert_allclose(small_cloud_factors(cloud, ws), reference, rtol=1e-14, atol=0.0)


def brent_reference(cloud, profile, tol):
    """The optimizer the batched refinement replaced: the same 64-point
    scan, then scalar bounded Brent on the scan's winning bracket with
    an abscissa tolerance of ``tol`` relative to the bracket's lower end."""
    lo, hi = default_bracket(cloud)
    ws = np.geomspace(lo, hi, 64)
    k = int(np.argmax(geometric_factors(cloud, ws, profile)))
    a, b = ws[max(k - 1, 0)], ws[min(k + 1, 63)]
    best = minimize_scalar(
        lambda w: -compute_xi(cloud, w, profile).geometric_factor,
        bounds=(a, b), method="bounded", options={"xatol": tol * a},
    )
    assert best.success
    return best.x, -best.fun, "edge" if k in (0, 63) else "ok"


class TestAnalyticOptimum:
    def test_pancake(self):
        rec = optimal_waist_analytic(CloudGeometry(2.0, 0.0))
        assert rec.w0_max_bar == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)
        assert rec.g_max == pytest.approx(0.1875, rel=1e-12)
        assert rec.method == "analytic"

    def test_matches_golden_section_positive_branch(self):
        cloud = CloudGeometry(3.0, 4.0)
        ana = optimal_waist_analytic(cloud)
        num = optimal_waist_numeric(
            cloud, UNIFORM, tol=1e-10, objective=small_cloud_objective(cloud)
        )
        assert abs(ana.w0_max_bar - num.w0_max_bar) / ana.w0_max_bar < 1e-7

    def test_matches_golden_section_complex_branch(self):
        cloud = CloudGeometry(1.0, 50.0)
        assert 1.0 + 22.0 * 2500.0 - 4.0 * 50.0**4 < 0.0  # discriminant sign
        ana = optimal_waist_analytic(cloud)
        num = optimal_waist_numeric(
            cloud, UNIFORM, tol=1e-10, objective=small_cloud_objective(cloud)
        )
        assert abs(ana.w0_max_bar - num.w0_max_bar) / ana.w0_max_bar < 1e-6

    def test_record_invariant(self):
        rec = optimal_waist_analytic(CloudGeometry(2.5, 8.0))
        assert rec.g_max == pytest.approx(
            6.0 * rec.xi_abs_sq_at_max / rec.w0_max_bar**2, rel=1e-10
        )

    def test_cubic_root_is_stationary_point(self):
        # the closed form must be a zero of d/dw of the small-cloud model
        for sp, sz in [(0.7, 3.0), (4.0, 9.0), (1.5, 80.0)]:
            rec = optimal_waist_analytic(CloudGeometry(sp, sz))
            u = rec.w0_max_bar**2
            resid = u**3 - 2 * sp**2 * u**2 - 8 * sz**2 * u - 16 * sz**2 * sp**2
            assert abs(resid) / u**3 < 1e-10


class TestNumericOptimum:
    def test_wide_short_cloud_plateau(self):
        rec = optimal_waist_numeric(CloudGeometry(20.0, 100.0), UNIFORM)
        assert rec.w0_max_bar / (math.sqrt(2.0) * 20.0) == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("variant", [UNIFORM, GOUY_COMPENSATED, FULL_GAUSSIAN])
    def test_pancake_limit_all_profiles(self, variant):
        rec = optimal_waist_numeric(CloudGeometry(4.0, 1e-3), variant, tol=1e-8)
        assert rec.w0_max_bar == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-3)

    def test_against_dense_grid_scan(self):
        cloud = CloudGeometry(5.0, 100.0)
        rec = optimal_waist_numeric(cloud, UNIFORM)
        lo, hi = default_bracket(cloud)
        ws = np.geomspace(lo, hi, 10_000)
        gs = np.array([xi_uniform(cloud, w).geometric_factor for w in ws])
        k = int(np.argmax(gs))
        step = ws[k + 1] - ws[k]
        assert abs(rec.w0_max_bar - ws[k]) <= step

    def test_stationarity_at_reported_maximum(self):
        for variant in (UNIFORM, GOUY_COMPENSATED):
            rec = optimal_waist_numeric(CloudGeometry(3.0, 60.0), variant, tol=1e-8)
            g = lambda w: compute_xi(rec.cloud, w, variant).geometric_factor
            w = rec.w0_max_bar
            assert g(w * (1 + 1e-4)) <= rec.g_max * (1 + 1e-12)
            assert g(w * (1 - 1e-4)) <= rec.g_max * (1 + 1e-12)

    def test_bracket_validation(self):
        cloud = CloudGeometry(2.0, 5.0)
        with pytest.raises(ValueError):
            optimal_waist_numeric(cloud, UNIFORM, bracket=(0.1, 50.0))
        with pytest.raises(ValueError):
            optimal_waist_numeric(cloud, UNIFORM, bracket=(1.0, 2e4))
        with pytest.raises(ValueError):
            optimal_waist_numeric(cloud, UNIFORM, tol=-1.0)
        with pytest.raises(ValueError):
            optimal_waist_numeric(cloud, "bespoke")

    @pytest.mark.parametrize("objective", [lambda w: 1.0 / w, lambda w: w],
                             ids=["lower", "upper"])
    def test_scan_maximum_on_bracket_end_flagged(self, objective):
        rec = optimal_waist_numeric(CloudGeometry(2.0, 5.0), UNIFORM, objective=objective)
        assert rec.status == "edge"
        assert math.isfinite(rec.w0_max_bar) and math.isfinite(rec.g_max)

    @pytest.mark.parametrize("variant, stride", [
        (UNIFORM, 1), (GOUY_COMPENSATED, 3), (FULL_GAUSSIAN, 3),
    ])
    def test_matches_scalar_brent_on_preset_axes(self, variant, stride):
        tol = 1e-6
        sp_axis, sz_axis = _PRESET_AXES
        grid = sweep(sp_axis[::stride], sz_axis[::stride], variant, tol)
        worst_w, worst_g, status_diffs = 0.0, 0.0, []
        for rec in (rec for row in grid.records for rec in row):
            w_ref, g_ref, status_ref = brent_reference(rec.cloud, variant, tol)
            worst_w = max(worst_w, abs(rec.w0_max_bar - w_ref) / w_ref)
            worst_g = max(worst_g, (g_ref - rec.g_max) / g_ref)
            if rec.status != status_ref:
                status_diffs.append((rec.cloud, rec.status, status_ref))
        assert worst_w <= tol
        assert worst_g <= 1e-12
        assert not status_diffs


class TestMaximizeScalar:
    def test_parabola(self):
        x, fx, _ = maximize_scalar(lambda x: -((x - 3.0) ** 2) + 7.0, 0.5, 20.0, tol=1e-9)
        assert x == pytest.approx(3.0, rel=1e-6)
        assert fx == pytest.approx(7.0, abs=1e-10)

    def test_tol_below_float_resolution_terminates(self):
        x, fx, on_edge = maximize_scalar(
            lambda x: -((x - 3.0) ** 2) + 7.0, 0.5, 20.0, tol=1e-300
        )
        assert x == pytest.approx(3.0, rel=1e-7)
        assert fx == pytest.approx(7.0, abs=1e-14)
        assert not on_edge

    def test_flat_objective_raises(self):
        with pytest.raises(OptimizationError):
            maximize_scalar(lambda x: np.ones_like(x), 1.0, 10.0)

    def test_non_finite_raises(self):
        with pytest.raises(OptimizationError):
            maximize_scalar(lambda x: np.full_like(x, math.nan), 1.0, 10.0)

    def test_non_finite_in_refinement_raises(self):
        # finite on every scan point, non-finite inside the refined bracket
        with pytest.raises(OptimizationError, match="non-finite"):
            maximize_scalar(
                lambda x: np.where(abs(x - 3.0) < 1e-3, math.nan, 7.0 - (x - 3.0) ** 2),
                1.0, 10.0,
            )


class TestSweep:
    def test_single_cell_matches_direct_call(self):
        grid = sweep([5.0], [100.0], UNIFORM, 1e-6, n_atoms=17)
        direct = optimal_waist_numeric(CloudGeometry(5.0, 100.0, 17), UNIFORM, tol=1e-6)
        cell = grid.records[0][0]
        assert cell.w0_max_bar == direct.w0_max_bar
        assert cell.g_max == direct.g_max
        assert cell.cloud == direct.cloud

    def test_deterministic_and_parallel_identical(self):
        sp = [2.0, 5.0]
        sz = [50.0, 100.0, 200.0]
        a = sweep(sp, sz, GOUY_COMPENSATED, 1e-6)
        b = sweep(sp, sz, GOUY_COMPENSATED, 1e-6)
        for row_a, row_b in zip(a.records, b.records):
            for ra, rb in zip(row_a, row_b):
                assert ra.w0_max_bar == rb.w0_max_bar
                assert ra.g_max == rb.g_max

    def test_narrow_short_corner_collects_well(self):
        # N * G of a few and above in the narrow/short corner
        grid = sweep([5.0, 10.0], [100.0, 200.0], UNIFORM, 1e-6, n_atoms=1000)
        best = grid.records[0][0]  # sigma_perp 5, sigma_z 100
        assert 1000.0 * best.g_max >= 5.0

    def test_gouy_extends_collection_to_longer_clouds(self):
        grid = sweep([5.0], [300.0], GOUY_COMPENSATED, 1e-6, n_atoms=1000)
        assert 1000.0 * grid.records[0][0].g_max >= 5.0

    def test_cell_failure_recorded_not_raised(self, monkeypatch):
        import gausscollect.waist_optimizer as mod

        # the ValueError is the one OverlapResult.from_xi raises for |xi|^2 > 1
        for error in (
            mod.OptimizationError("injected"),
            ValueError("|xi|^2 = 1.5 exceeds the normalization bound of 1"),
        ):
            def broken(cloud, profile, bracket=None, tol=1e-6, error=error, **kw):
                if cloud.sigma_perp_bar > 3.0:
                    raise error
                return optimal_waist_numeric(cloud, profile, bracket, tol, **kw)

            monkeypatch.setattr(mod, "optimal_waist_numeric", broken)
            grid = mod.sweep([2.0, 5.0], [50.0], UNIFORM, 1e-6)
            assert grid.records[0][0].status == "ok"
            assert grid.records[1][0].status == f"failed: {type(error).__name__}"
            assert math.isnan(grid.records[1][0].g_max)

    def test_sweep_arguments_raise_before_any_cell(self, monkeypatch):
        import gausscollect.waist_optimizer as mod

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran before the arguments were checked")

        monkeypatch.setattr(mod, "optimal_waist_numeric", no_cell)
        with pytest.raises(ValueError, match="phase variant"):
            mod.sweep([2.0], [50.0], "bespoke", 1e-6)
        with pytest.raises(ValueError, match="tol"):
            mod.sweep([2.0], [50.0], UNIFORM, 0.0)
        with pytest.raises(ValueError, match="increasing"):
            mod.sweep([5.0, 2.0], [50.0], UNIFORM, 1e-6)

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            sweep([], [1.0], UNIFORM, 1e-6)
        with pytest.raises(ValueError):
            sweep([2.0, 1.0], [1.0], UNIFORM, 1e-6)
        with pytest.raises(ValueError):
            sweep([1.0], [-1.0, 2.0], UNIFORM, 1e-6)
