import functools
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from gausscollect.cli import _PRESET_AXES
from gausscollect.ensemble_model import (
    FULL_GAUSSIAN,
    GOUY_COMPENSATED,
    UNIFORM,
    CloudGeometry,
)
from gausscollect.overlap_engine import compute_xi, geometric_factors, small_cloud_factors
from gausscollect.waist_optimizer import (
    OptimizationError,
    default_bracket,
    maximize_rows,
    optimal_waist_analytic,
    optimal_waist_numeric,
    optimal_waists,
    sweep,
)


def cloud_factors(cloud, ws, profile):
    """``geometric_factors`` of one cloud over the 1-d waists ``ws``."""
    return geometric_factors([cloud.sigma_perp_bar ** 2], [cloud.sigma_z_bar],
                             np.atleast_2d(ws), profile)[0]


def small_cloud_optimum(cloud, tol):
    """Waist maximizing the small-cloud model on the cloud's default
    bracket, as ``validate`` finds it."""
    lo, hi = default_bracket(cloud)
    (w,), _, _, (exc,) = maximize_rows(
        lambda W, cells: small_cloud_factors(cloud, W), [lo], [hi], tol=tol)
    assert exc is None
    return w


def maximize_scalar_reference(f, lo, hi, tol):
    """The per-cell maximizer the row-batched one replaced: the same
    64-point log scan and 17-point rounds for one 1-d objective."""
    def values(xs):
        ys = np.asarray(f(xs), dtype=float)
        if not np.isfinite(ys).all():
            raise OptimizationError("non-finite objective")
        return ys

    xs = np.geomspace(lo, hi, 64)
    ys = values(xs)
    y_min, y_max = float(ys.min()), float(ys.max())
    if y_max <= 0.0 or (y_min > 0 and y_max / y_min < 1.0 + 1e-12):
        raise OptimizationError("flat objective")
    k = int(np.argmax(ys))
    on_edge = k in (0, xs.size - 1)
    x_best, y_best, width = xs[k], ys[k], math.inf
    while True:
        a, b = xs[max(k - 1, 0)], xs[min(k + 1, xs.size - 1)]
        if not tol * a < b - a < width:
            break
        width = b - a
        xs = np.linspace(a, b, 17)
        ys = values(xs)
        k = int(np.argmax(ys))
        if ys[k] > y_best:
            x_best, y_best = xs[k], ys[k]
    return float(x_best), float(y_best), on_edge


def per_cell_reference(cloud, profile, tol):
    lo, hi = default_bracket(cloud)
    w, g, on_edge = maximize_scalar_reference(
        lambda ws: cloud_factors(cloud, ws, profile), lo, hi, tol
    )
    return w, g, "edge" if on_edge else "ok"


@functools.cache
def preset_grid(variant, stride):
    sp_axis, sz_axis = _PRESET_AXES
    return sweep(sp_axis[::stride], sz_axis[::stride], variant, 1e-6)


def parabola(W, cells):
    return -((W - 3.0) ** 2) + 7.0


def brent_reference(cloud, profile, tol):
    """The optimizer the batched refinement replaced: the same 64-point
    scan, then scalar bounded Brent on the scan's winning bracket with
    an abscissa tolerance of ``tol`` relative to the bracket's lower end."""
    lo, hi = default_bracket(cloud)
    ws = np.geomspace(lo, hi, 64)
    k = int(np.argmax(cloud_factors(cloud, ws, profile)))
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
        num = small_cloud_optimum(cloud, 1e-10)
        assert abs(ana.w0_max_bar - num) / ana.w0_max_bar < 1e-7

    def test_matches_golden_section_complex_branch(self):
        cloud = CloudGeometry(1.0, 50.0)
        assert 1.0 + 22.0 * 2500.0 - 4.0 * 50.0**4 < 0.0  # discriminant sign
        ana = optimal_waist_analytic(cloud)
        num = small_cloud_optimum(cloud, 1e-10)
        assert abs(ana.w0_max_bar - num) / ana.w0_max_bar < 1e-6

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
        gs = np.array([compute_xi(cloud, w, UNIFORM).geometric_factor for w in ws])
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
        # sigma_perp = 200 puts the default bracket above the supported
        # waists, sigma_perp = 0.005 makes it empty
        for sp, message in ((200.0, "outside the supported"), (0.005, "is empty")):
            with pytest.raises(ValueError, match=message):
                default_bracket(CloudGeometry(sp, 10.0))
            with pytest.raises(ValueError, match=message):
                optimal_waist_numeric(CloudGeometry(sp, 10.0), UNIFORM)
        with pytest.raises(ValueError):
            optimal_waist_numeric(cloud, UNIFORM, tol=-1.0)
        with pytest.raises(ValueError):
            optimal_waist_numeric(cloud, "bespoke")

    @pytest.mark.parametrize("variant", [UNIFORM, GOUY_COMPENSATED, FULL_GAUSSIAN])
    def test_long_thin_cloud_peaks_on_the_bracket_end(self, variant):
        # a cloud 1e4 widths long: the efficiency still grows at the
        # bracket's upper end 50 sqrt(2) sigma_perp
        cloud = CloudGeometry(0.1, 1000.0)
        rec = optimal_waist_numeric(cloud, variant)
        assert rec.status == "edge"
        assert rec.w0_max_bar == default_bracket(cloud)[1]
        assert math.isfinite(rec.g_max) and rec.g_max > 0.0

    @pytest.mark.parametrize("variant, stride", [
        (UNIFORM, 1), (GOUY_COMPENSATED, 3), (FULL_GAUSSIAN, 3),
    ])
    def test_matches_scalar_brent_on_preset_axes(self, variant, stride):
        tol = 1e-6
        grid = preset_grid(variant, stride)
        worst_w, worst_g, status_diffs = 0.0, 0.0, []
        for rec in (rec for row in grid for rec in row):
            w_ref, g_ref, status_ref = brent_reference(rec.cloud, variant, tol)
            worst_w = max(worst_w, abs(rec.w0_max_bar - w_ref) / w_ref)
            worst_g = max(worst_g, (g_ref - rec.g_max) / g_ref)
            if rec.status != status_ref:
                status_diffs.append((rec.cloud, rec.status, status_ref))
        assert worst_w <= tol
        assert worst_g <= 1e-12
        assert not status_diffs

    def test_uniform_rows_reproduce_per_cell_maximizer_exactly(self):
        grid = preset_grid(UNIFORM, 1)
        diffs = [
            (rec.cloud, rec.w0_max_bar, rec.g_max, rec.status, ref)
            for row in grid for rec in row
            if (rec.w0_max_bar, rec.g_max, rec.status)
            != (ref := per_cell_reference(rec.cloud, UNIFORM, 1e-6))
        ]
        assert not diffs

    @pytest.mark.parametrize("variant", [GOUY_COMPENSATED, FULL_GAUSSIAN])
    def test_compensated_rows_match_per_cell_maximizer(self, variant):
        tol = 1e-6
        worst_w, worst_g, status_diffs = 0.0, 0.0, []
        for rec in (rec for row in preset_grid(variant, 3) for rec in row):
            w_ref, g_ref, status_ref = per_cell_reference(rec.cloud, variant, tol)
            worst_w = max(worst_w, abs(rec.w0_max_bar - w_ref) / w_ref)
            worst_g = max(worst_g, (g_ref - rec.g_max) / g_ref)
            if rec.status != status_ref:
                status_diffs.append((rec.cloud, rec.status, status_ref))
        assert worst_w <= tol
        assert worst_g <= 1e-12
        assert not status_diffs

    @pytest.mark.parametrize("variant, stride", [
        (UNIFORM, 1), (GOUY_COMPENSATED, 3), (FULL_GAUSSIAN, 3),
    ])
    def test_g_falls_toward_both_bracket_ends(self, variant, stride):
        # on 40 log-spaced waists from the optimum out to each bracket end;
        # the full-Gaussian phase has a shallow second maximum at the
        # sub-wavelength waists near the lower end of some cells (G dips
        # by < 1% there, matching the brute-force overlap), so for it
        # only the ends must lie below the optimum
        not_falling, above_optimum = [], []
        for rec in (rec for row in preset_grid(variant, stride) for rec in row):
            assert rec.status == "ok"
            lo, hi = default_bracket(rec.cloud)
            w = rec.w0_max_bar
            left = cloud_factors(rec.cloud, np.geomspace(lo, w, 40), variant)
            right = cloud_factors(rec.cloud, np.geomspace(w, hi, 40), variant)
            if max(left.max(), right.max()) > rec.g_max * (1.0 + 1e-12):
                above_optimum.append(rec.cloud)
            if variant == FULL_GAUSSIAN:
                falling = left[0] < rec.g_max and right[-1] < rec.g_max
            else:
                falling = (np.diff(left) > 0).all() and (np.diff(right) < 0).all()
            if not falling:
                not_falling.append(rec.cloud)
        assert not above_optimum
        assert not not_falling


class TestMaximizeRows:
    def test_parabola(self):
        x, fx, on_edge, errors = maximize_rows(parabola, [0.5], [20.0], tol=1e-9)
        assert errors == [None]
        assert x[0] == pytest.approx(3.0, rel=1e-6)
        assert fx[0] == pytest.approx(7.0, abs=1e-10)
        assert not on_edge[0]

    def test_tol_below_float_resolution_terminates(self):
        x, fx, on_edge, errors = maximize_rows(parabola, [0.5], [20.0], tol=1e-300)
        assert errors == [None]
        assert x[0] == pytest.approx(3.0, rel=1e-7)
        assert fx[0] == pytest.approx(7.0, abs=1e-14)
        assert not on_edge[0]

    @pytest.mark.parametrize("f, end", [
        (lambda W, cells: 1.0 / W, 0), (lambda W, cells: W, 1),
    ], ids=["lower", "upper"])
    def test_scan_maximum_on_bracket_end_flagged(self, f, end):
        x, fx, on_edge, errors = maximize_rows(f, [0.5], [20.0])
        assert errors == [None] and on_edge[0]
        assert x[0] == (0.5, 20.0)[end]
        assert math.isfinite(fx[0])

    def test_flat_objective_fails(self):
        _, fx, _, errors = maximize_rows(lambda W, cells: np.ones_like(W), [1.0], [10.0])
        assert isinstance(errors[0], OptimizationError)
        assert "flat" in str(errors[0])
        assert math.isnan(fx[0])

    def test_non_finite_fails(self):
        _, _, _, errors = maximize_rows(
            lambda W, cells: np.full_like(W, math.nan), [1.0], [10.0]
        )
        assert isinstance(errors[0], OptimizationError)

    def test_non_finite_in_refinement_fails(self):
        # finite on every scan point, non-finite inside the refined bracket
        _, _, _, errors = maximize_rows(
            lambda W, cells: np.where(abs(W - 3.0) < 1e-3, math.nan, 7.0 - (W - 3.0) ** 2),
            [1.0], [10.0],
        )
        assert isinstance(errors[0], OptimizationError)
        assert "non-finite" in str(errors[0])

    def test_rows_are_independent(self):
        # peaks at 2, 5 and 9 on brackets of their own; the middle row
        # also has a non-finite value, and the last one raises
        peaks = np.array([[2.0], [5.0], [9.0]])

        def f(W, cells):
            if 2 in cells:
                raise ValueError("row 2 fails")
            Y = 1.0 - (W / peaks[cells] - 1.0) ** 2
            return np.where((cells[:, None] == 1) & (W > 5.5), math.nan, Y)

        x, fx, on_edge, errors = maximize_rows(f, [1.0, 0.5, 0.5], [4.0, 50.0, 50.0], tol=1e-9)
        assert errors[0] is None and x[0] == pytest.approx(2.0, rel=1e-8)
        assert isinstance(errors[1], OptimizationError) and math.isnan(x[1])
        assert isinstance(errors[2], ValueError) and math.isnan(fx[2])
        alone = maximize_rows(lambda W, cells: 1.0 - (W / 2.0 - 1.0) ** 2, [1.0], [4.0], tol=1e-9)
        assert (x[0], fx[0], on_edge[0]) == (alone[0][0], alone[1][0], alone[2][0])

    def test_rejects_empty_bracket(self):
        with pytest.raises(ValueError):
            maximize_rows(parabola, [1.0, 5.0], [10.0, 5.0])


class TestSweep:
    def test_single_cell_matches_direct_call(self):
        ((cell,),) = sweep([5.0], [100.0], UNIFORM, 1e-6)
        direct = optimal_waist_numeric(CloudGeometry(5.0, 100.0), UNIFORM, tol=1e-6)
        assert cell.w0_max_bar == direct.w0_max_bar
        assert cell.g_max == direct.g_max
        assert cell.cloud == direct.cloud

    def test_deterministic_and_parallel_identical(self):
        sp = [2.0, 5.0]
        sz = [50.0, 100.0, 200.0]
        a = sweep(sp, sz, GOUY_COMPENSATED, 1e-6)
        b = sweep(sp, sz, GOUY_COMPENSATED, 1e-6)
        for row_a, row_b in zip(a, b):
            for ra, rb in zip(row_a, row_b):
                assert ra.w0_max_bar == rb.w0_max_bar
                assert ra.g_max == rb.g_max

    def test_edge_cell_beside_an_ok_cell(self):
        # one row: the short cloud peaks inside its bracket, the long one
        # on the bracket's upper end, and both carry their values
        ((short, long),) = sweep([0.1], [10.0, 1000.0], UNIFORM, 1e-6)
        assert (short.status, long.status) == ("ok", "edge")
        assert short.w0_max_bar == pytest.approx(4.303, abs=5e-4)
        assert long.w0_max_bar == pytest.approx(50.0 * math.sqrt(2.0) * 0.1, rel=1e-15)

    def test_narrow_short_corner_collects_well(self):
        # N * G of a few and above in the narrow/short corner
        grid = sweep([5.0, 10.0], [100.0, 200.0], UNIFORM, 1e-6)
        best = grid[0][0]  # sigma_perp 5, sigma_z 100
        assert 1000.0 * best.g_max >= 5.0

    def test_gouy_extends_collection_to_longer_clouds(self):
        grid = sweep([5.0], [300.0], GOUY_COMPENSATED, 1e-6)
        assert 1000.0 * grid[0][0].g_max >= 5.0

    @pytest.mark.parametrize("variant", [UNIFORM, GOUY_COMPENSATED])
    @pytest.mark.parametrize("fault, error", [
        (lambda xi: xi * math.nan, "OptimizationError"),
        # twice the overlap breaks the |xi|^2 <= 1 guard at wide waists
        (lambda xi: 2.0 * xi, "ValueError"),
    ], ids=["nan", "over_one"])
    def test_cell_failure_recorded_not_raised(self, monkeypatch, variant, fault, error):
        import gausscollect.overlap_engine as engine

        sp, sz = [2.0, 5.0], [50.0, 100.0, 200.0]
        clean = sweep(sp, sz, variant, 1e-6)
        true_kernel = engine._xi_kernel

        def faulty(sp_sq, sigma_z, w0, profile):
            xi, quad = true_kernel(sp_sq, sigma_z, w0, profile)
            return np.where((sigma_z == 100.0)[:, None], fault(xi), xi), quad
        monkeypatch.setattr(engine, "_xi_kernel", faulty)
        grid = sweep(sp, sz, variant, 1e-6)
        for row, clean_row in zip(grid, clean):
            bad = row[1]
            assert bad.status == f"failed: {error}"
            assert math.isnan(bad.g_max) and math.isnan(bad.w0_max_bar)
            for rec, ref in zip(row[::2], clean_row[::2]):
                assert rec == ref and rec.status == "ok"

    @pytest.mark.parametrize("sp", [150.0, 0.005], ids=["above", "empty"])
    def test_unsupported_bracket_fails_alone(self, sp):
        # sigma_perp > 141.4 puts the default bracket's upper end past 1e4,
        # sigma_perp < 0.00707 makes the bracket empty
        clouds = [CloudGeometry(5.0, 100.0), CloudGeometry(sp, 100.0),
                  CloudGeometry(5.0, 200.0)]
        records = optimal_waists(clouds, UNIFORM)
        assert records[1].status == "failed: ValueError"
        assert math.isnan(records[1].g_max)
        for rec, cloud in zip(records[::2], clouds[::2]):
            assert rec == optimal_waist_numeric(cloud, UNIFORM)
            assert rec.status == "ok"
        grid = sweep(sorted([5.0, sp]), [100.0, 200.0], UNIFORM, 1e-6)
        statuses = {row[0].cloud.sigma_perp_bar: [r.status for r in row] for row in grid}
        assert statuses[5.0] == ["ok", "ok"]
        assert statuses[sp] == ["failed: ValueError"] * 2

    def test_sweep_arguments_raise_before_any_cell(self, monkeypatch):
        import gausscollect.waist_optimizer as mod

        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran before the arguments were checked")

        for name in ("maximize_rows", "geometric_factors"):
            monkeypatch.setattr(mod, name, no_cell)
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
