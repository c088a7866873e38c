"""Waist optimization and parameter sweeps of the collection efficiency.

For a zero-length cloud the optimal waist has a closed form (the
stationarity condition of the small-cloud overlap is a cubic in the
squared waist, solved by Cardano's formula with the principal complex
cube root).  Everywhere else the per-atom collection efficiency is
maximized numerically: a 64-point log-spaced coarse scan, evaluated
for all its waists in one batched call, brackets the global maximum,
then bounded Brent refinement (parabolic interpolation safeguarded by
golden-section steps) localizes it.  Nothing here assumes the
objective is unimodal over the full bracket.

Sweep cells are independent pure computations, evaluated in grid order;
a cell that fails is recorded with a status tag instead of aborting the
sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .ensemble_model import CloudGeometry, PHASE_VARIANTS
from .overlap_engine import compute_xi, geometric_factors, xi_small_cloud

__all__ = [
    "OptimizationError",
    "OptimumRecord",
    "SweepGrid",
    "maximize_scalar",
    "optimal_waist_analytic",
    "optimal_waist_numeric",
    "default_bracket",
    "check_bracket",
    "sweep",
]

class OptimizationError(RuntimeError):
    """The maximizer could not make sense of the objective."""


@dataclass(frozen=True)
class OptimumRecord:
    """Best waist found for one cloud and phase variant."""

    w0_max_bar: float
    g_max: float
    xi_abs_sq_at_max: float
    profile: str
    cloud: CloudGeometry
    method: str
    status: str = "ok"
    scan: tuple | None = field(default=None, repr=False, compare=False)


def _check_axes(sp: np.ndarray, sz: np.ndarray) -> None:
    if sp.size == 0 or sz.size == 0:
        raise ValueError("sweep axes must be non-empty")
    if np.any(sp <= 0) or np.any(sz <= 0):
        raise ValueError("sweep axes must be positive")
    if np.any(np.diff(sp) <= 0) or np.any(np.diff(sz) <= 0):
        raise ValueError("sweep axes must be strictly increasing")


@dataclass(frozen=True)
class SweepGrid:
    """Optima on a (sigma_perp x sigma_z) grid, row-major in sigma_perp."""

    sigma_perp_values: np.ndarray
    sigma_z_values: np.ndarray
    profile: str
    records: list

    def __post_init__(self):
        sp = np.asarray(self.sigma_perp_values, dtype=float)
        sz = np.asarray(self.sigma_z_values, dtype=float)
        _check_axes(sp, sz)
        if len(self.records) != sp.size or any(len(r) != sz.size for r in self.records):
            raise ValueError("records matrix must match the axis lengths")
        sp.setflags(write=False)
        sz.setflags(write=False)
        object.__setattr__(self, "sigma_perp_values", sp)
        object.__setattr__(self, "sigma_z_values", sz)


def maximize_scalar(
    f, lo: float, hi: float, *, coarse: int = 64, tol: float = 1e-6, f_batch=None
):
    """Global-then-local maximization of ``f`` on ``[lo, hi]``.

    Log-spaced scan of ``coarse`` points to bracket the global maximum,
    then bounded Brent refinement of the winning bracket to an abscissa
    tolerance of ``tol`` relative to the bracket's lower end (the method
    itself stops near ``sqrt(eps)`` relative, about 1.5e-8).
    ``f_batch``, when given, evaluates ``f`` on the whole array of scan
    abscissae in one call.  Returns ``(x, f(x), scan)`` where ``scan``
    is the (abscissae, values) table of the coarse pass.  Raises
    :class:`OptimizationError` for a flat or non-finite objective.
    """
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got [{lo}, {hi}]")
    xs = np.geomspace(lo, hi, coarse)
    if f_batch is None:
        ys = np.array([f(x) for x in xs], dtype=float)
    else:
        ys = np.asarray(f_batch(xs), dtype=float)
    if not np.all(np.isfinite(ys)):
        raise OptimizationError("objective returned non-finite values on the scan")
    y_min, y_max = float(ys.min()), float(ys.max())
    if y_max <= 0.0 or (y_min > 0 and y_max / y_min < 1.0 + 1e-12):
        raise OptimizationError(
            f"objective is flat across [{lo:g}, {hi:g}] (max/min = {y_max}/{y_min})"
        )
    k = int(np.argmax(ys))
    a = xs[max(k - 1, 0)]
    b = xs[min(k + 1, coarse - 1)]
    best = minimize_scalar(
        lambda x: -f(x), bounds=(a, b), method="bounded", options={"xatol": tol * a}
    )
    if not best.success or not math.isfinite(best.fun):
        raise OptimizationError(f"refinement on [{a:g}, {b:g}] failed: {best.message}")
    return float(best.x), float(-best.fun), (xs, ys)


def default_bracket(cloud: CloudGeometry) -> tuple[float, float]:
    """Waist search interval spanning the pancake and long-cloud optima."""
    base = math.sqrt(2.0) * cloud.sigma_perp_bar
    return max(0.5, 0.2 * base), 50.0 * base


def check_bracket(lo: float, hi: float):
    """Raise ``ValueError`` unless ``[lo, hi]`` lies in the supported waists [0.5, 1e4]."""
    if not (0.5 <= lo < hi <= 1e4):
        raise ValueError(f"bracket [{lo}, {hi}] outside the supported [0.5, 1e4]")


def optimal_waist_analytic(cloud: CloudGeometry) -> OptimumRecord:
    """Closed-form optimal waist in the small-cloud regime.

    Solves the stationarity cubic of the small-cloud efficiency in the
    squared waist.  The Cardano bracket is assembled in complex
    arithmetic: when the inner discriminant turns negative the cube
    root is complex, but the two conjugate terms cancel to a real
    bracket; a residual imaginary part above 1e-9 relative signals
    misuse and raises.
    """
    sp, sz = cloud.sigma_perp_bar, cloud.sigma_z_bar
    sp2 = sp * sp
    sz2 = sz * sz
    inner = complex(sp2 ** 4 + 22.0 * sp2 * sp2 * sz2 - 4.0 * sz2 * sz2)
    p_aux = (sp2 ** 3 + 36.0 * sp2 * sz2 + 3.0 * (6.0 * sz2 * inner) ** 0.5) ** (1.0 / 3.0)
    bracket = sp2 + p_aux + (sp2 * sp2 + 6.0 * sz2) / p_aux
    if abs(bracket.imag) > 1e-9 * abs(bracket):
        raise OptimizationError(
            f"optimal-waist bracket has imaginary residue {bracket!r}"
        )
    w_sq = (2.0 / 3.0) * bracket.real
    if w_sq <= 0.0:
        raise OptimizationError(f"optimal-waist formula returned w^2 = {w_sq!r}")
    w = math.sqrt(w_sq)
    res = xi_small_cloud(cloud, w)
    return OptimumRecord(
        w0_max_bar=w,
        g_max=res.geometric_factor,
        xi_abs_sq_at_max=res.xi_abs_sq,
        profile="uniform",
        cloud=cloud,
        method="analytic",
    )


def optimal_waist_numeric(
    cloud: CloudGeometry,
    profile: str,
    bracket: tuple[float, float] | None = None,
    tol: float = 1e-6,
    *,
    objective=None,
    keep_scan: bool = False,
) -> OptimumRecord:
    """Numerically maximize the collection efficiency over the waist.

    ``profile`` is a phase-variant tag; the compensated variants are
    re-matched to each trial waist.  The coarse scan evaluates all its
    waists in one :func:`geometric_factors` call, the refinement one
    :func:`compute_xi` per step.  ``objective`` may override the
    efficiency function (signature ``w -> value``, also used for the
    scan), which the tests use to maximize the small-cloud model with
    the same machinery.  The record's ``status`` is ``"edge"`` when the
    scan's maximum is the bracket's first or last point, ``"ok"``
    otherwise.
    """
    if profile not in PHASE_VARIANTS:
        raise ValueError(f"unknown phase variant {profile!r}")
    lo, hi = bracket if bracket is not None else default_bracket(cloud)
    check_bracket(lo, hi)
    if tol <= 0.0:
        raise ValueError("tol must be positive")

    f_batch = None
    if objective is None:
        def objective(w):
            return compute_xi(cloud, w, profile).geometric_factor

        def f_batch(ws):
            return geometric_factors(cloud, ws, profile)

    w_best, g_best, scan = maximize_scalar(objective, lo, hi, tol=tol, f_batch=f_batch)
    # a scan maximum on the bracket's first or last point may lie beyond
    # the bracket: the refined value is reported but left unverified
    k = int(np.argmax(scan[1]))
    return OptimumRecord(
        w0_max_bar=w_best,
        g_max=g_best,
        xi_abs_sq_at_max=g_best * w_best * w_best / 6.0,
        profile=profile,
        cloud=cloud,
        method="numeric",
        status="edge" if k in (0, scan[1].size - 1) else "ok",
        scan=scan if keep_scan else None,
    )


def _sweep_cell(sp: float, sz: float, n_atoms: int, profile: str, tol: float):
    cloud = CloudGeometry(sp, sz, n_atoms)
    try:
        return optimal_waist_numeric(cloud, profile, tol=tol)
    except (OptimizationError, ValueError) as exc:
        # ValueError: the |xi|^2 <= 1 guard, or a bracket outside the
        # supported range for this cell's sigma_perp
        return OptimumRecord(
            w0_max_bar=math.nan,
            g_max=math.nan,
            xi_abs_sq_at_max=math.nan,
            profile=profile,
            cloud=cloud,
            method="numeric",
            status=f"failed: {type(exc).__name__}",
        )


def sweep(
    sigma_perp_values,
    sigma_z_values,
    profile: str,
    tol: float = 1e-6,
    *,
    n_atoms: int = 1000,
) -> SweepGrid:
    """Optimize the waist on every cell of a cloud-geometry grid.

    The axes, phase variant and tolerance are checked once, before any
    cell runs; a cell that then fails is recorded with a ``status`` tag
    instead of aborting the sweep.
    """
    sp_values = np.asarray(sigma_perp_values, dtype=float)
    sz_values = np.asarray(sigma_z_values, dtype=float)
    _check_axes(sp_values, sz_values)
    if profile not in PHASE_VARIANTS:
        raise ValueError(f"unknown phase variant {profile!r}")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    records = [
        [_sweep_cell(sp, sz, n_atoms, profile, tol) for sz in sz_values]
        for sp in sp_values
    ]
    return SweepGrid(sp_values, sz_values, profile, records)
