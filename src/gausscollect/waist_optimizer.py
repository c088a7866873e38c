"""Waist optimization and parameter sweeps of the collection efficiency.

For a zero-length cloud the optimal waist has a closed form (the
stationarity condition of the small-cloud overlap is a cubic in the
squared waist, solved by Cardano's formula with the principal complex
cube root).  Everywhere else the per-atom collection efficiency is
maximized numerically on one batched path: a 64-point log-spaced scan
brackets the global maximum, then rounds of 17 uniformly spaced waists,
each one batched call like the scan, narrow that bracket.  Nothing here
assumes the objective is unimodal beyond the scan's winning bracket.

Sweep cells are independent pure computations, evaluated in grid order;
a cell that fails is recorded with a status tag instead of aborting the
sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble_model import CloudGeometry, PHASE_VARIANTS
# compute_xi is not called here, but perfbench/layers.py wraps this attribute
from .overlap_engine import compute_xi, geometric_factors, xi_small_cloud  # noqa: F401

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

_SCAN_POINTS = 64  # waists of the global log-spaced scan
_ROUND_POINTS = 17  # waists of each refinement round


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


def _values(f, xs: np.ndarray) -> np.ndarray:
    ys = np.asarray(f(xs), dtype=float)
    if not np.isfinite(ys).all():
        raise OptimizationError(f"non-finite objective on [{xs[0]:g}, {xs[-1]:g}]")
    return ys


def maximize_scalar(f, lo: float, hi: float, *, tol: float = 1e-6):
    """Global-then-local maximization of the batched ``f`` on ``[lo, hi]``.

    ``f`` maps a 1-d array of abscissae to the array of its values.  A
    64-point log-spaced scan brackets the global maximum by the
    neighbours ``[x_{k-1}, x_{k+1}]`` of its best point; rounds of 17
    uniformly spaced points then narrow the bracket to the neighbours
    of each round's best point, 8-fold per round, until its width is at
    most ``tol`` relative to its lower end or a round no longer narrows
    it (``tol`` below float resolution).  Returns ``(x, f(x), on_edge)``
    for the best point seen; ``on_edge`` tells that the scan peaked on
    its first or last point, so the maximum may lie beyond ``[lo, hi]``.
    Raises :class:`OptimizationError` for a flat or non-finite objective.
    """
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got [{lo}, {hi}]")
    xs = np.geomspace(lo, hi, _SCAN_POINTS)
    ys = _values(f, xs)
    y_min, y_max = float(ys.min()), float(ys.max())
    if y_max <= 0.0 or (y_min > 0 and y_max / y_min < 1.0 + 1e-12):
        raise OptimizationError(
            f"objective is flat across [{lo:g}, {hi:g}] (max/min = {y_max}/{y_min})"
        )
    k = int(np.argmax(ys))
    on_edge = k in (0, xs.size - 1)
    x_best, y_best, width = xs[k], ys[k], math.inf
    while True:
        a, b = xs[max(k - 1, 0)], xs[min(k + 1, xs.size - 1)]
        if not tol * a < b - a < width:
            break
        width = b - a
        xs = np.linspace(a, b, _ROUND_POINTS)
        ys = _values(f, xs)
        k = int(np.argmax(ys))
        if ys[k] > y_best:
            x_best, y_best = xs[k], ys[k]
    return float(x_best), float(y_best), on_edge


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
) -> OptimumRecord:
    """Numerically maximize the collection efficiency over the waist.

    ``profile`` is a phase-variant tag; the compensated variants are
    re-matched to each trial waist.  The scan and every refinement round
    evaluate all their waists in one :func:`geometric_factors` call.
    ``objective`` may replace that efficiency with another batched one
    (array of waists -> array of values), which ``validate`` and the
    tests use to maximize the small-cloud model with the same machinery.
    The record's ``status`` is ``"edge"`` when the scan's maximum is the
    bracket's first or last waist, ``"ok"`` otherwise.
    """
    if profile not in PHASE_VARIANTS:
        raise ValueError(f"unknown phase variant {profile!r}")
    lo, hi = bracket if bracket is not None else default_bracket(cloud)
    check_bracket(lo, hi)
    if tol <= 0.0:
        raise ValueError("tol must be positive")

    if objective is None:
        def objective(ws):
            return geometric_factors(cloud, ws, profile)

    w_best, g_best, on_edge = maximize_scalar(objective, lo, hi, tol=tol)
    return OptimumRecord(
        w0_max_bar=w_best,
        g_max=g_best,
        xi_abs_sq_at_max=g_best * w_best * w_best / 6.0,
        profile=profile,
        cloud=cloud,
        method="numeric",
        status="edge" if on_edge else "ok",
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
