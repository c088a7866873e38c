"""Waist optimization and parameter sweeps of the collection efficiency.

For a zero-length cloud the optimal waist has a closed form (the
stationarity condition of the small-cloud overlap is a cubic in the
squared waist, solved by Cardano's formula with the principal complex
cube root).  Everywhere else the per-atom collection efficiency is
maximized numerically on one batched path, :func:`maximize_rows`,
over a matrix of cells x waists: a 64-point log-spaced scan brackets
each cell's global maximum, then rounds of 17 uniformly spaced waists
narrow that bracket, every round one objective call for all cells still
active.  Nothing here assumes the objective is unimodal beyond the
scan's winning bracket.

A sweep optimizes its cells one sigma_perp row at a time, all cells of
the row together (one row keeps the working arrays small; a whole grid
at once would hold every cell's waists and values).  A single optimum
is the one-cell case.  A cell that fails is recorded with a status tag
while the other cells of its row carry on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble_model import PHASE_VARIANTS, UNIFORM, CloudGeometry
# compute_xi is not called here, but perfbench/layers.py wraps this attribute
from .overlap_engine import (  # noqa: F401
    compute_xi,
    geometric_factors,
    small_cloud_factors,
    uniform_factors,
)

__all__ = [
    "OptimizationError",
    "OptimumRecord",
    "SweepGrid",
    "maximize_rows",
    "optimal_waist_analytic",
    "optimal_waist_numeric",
    "optimal_waists",
    "default_bracket",
    "check_bracket",
    "sweep",
]

_SCAN_POINTS = 64  # waists of the global log-spaced scan
_ROUND_POINTS = 17  # waists of each refinement round
_ROUND_STEPS = np.arange(_ROUND_POINTS, dtype=float)


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


def _evaluate(f, W, cells, errors):
    """Values of ``f`` on the waists ``W`` of ``cells``, as ``(cells, W, Y)``
    cut down to the cells still standing.

    A call that raises is repeated cell by cell, so that only the cells
    at fault fail; a cell that raises or has a non-finite value gets its
    exception entered in ``errors``.
    """
    try:
        Y = np.asarray(f(W, cells), dtype=float)
    except (OptimizationError, ValueError):
        Y = np.full(W.shape, math.nan)
        for r, cell in enumerate(cells):
            try:
                Y[r] = f(W[r:r + 1], cells[r:r + 1])[0]
            except (OptimizationError, ValueError) as exc:
                errors[cell] = exc
    good = np.isfinite(Y).all(axis=1)
    if good.all():
        return cells, W, Y
    for r in np.flatnonzero(~good):
        if errors[cells[r]] is None:
            errors[cells[r]] = OptimizationError(
                f"non-finite objective on [{W[r, 0]:g}, {W[r, -1]:g}]"
            )
    return cells[good], W[good], Y[good]


def maximize_rows(f, lo, hi, *, tol: float = 1e-6):
    """Global-then-local maximization of many functions at once.

    Row ``i`` is maximized on ``[lo[i], hi[i]]``.  ``f(W, cells)`` maps
    the ``(m, k)`` abscissae ``W`` of the rows ``cells`` (an index array)
    to their ``(m, k)`` values; every step below is one such call for
    all rows still active.  A 64-point log-spaced scan brackets each
    row's global maximum by the neighbours ``[x_{k-1}, x_{k+1}]`` of its
    best point; rounds of 17 uniformly spaced points then narrow the
    bracket to the neighbours of each round's best point, 8-fold per
    round, until its width is at most ``tol`` relative to its lower end
    or a round no longer narrows it (``tol`` below float resolution).

    Returns ``(x, fx, on_edge, errors)``: per row the best point seen,
    its value, whether the scan peaked on its first or last point (so
    the maximum may lie beyond the bracket), and ``None`` or the
    exception that stopped the row: :class:`OptimizationError` for a
    flat or non-finite objective, or whatever ``OptimizationError`` or
    ``ValueError`` ``f`` raised for that row alone.  A failed row never
    stops the others; its ``x`` and ``fx`` are NaN.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if not ((0.0 < lo) & (lo < hi)).all():
        raise ValueError(f"need 0 < lo < hi in every row, got {lo} and {hi}")
    n = lo.size
    x_best, y_best = np.full(n, math.nan), np.full(n, math.nan)
    on_edge = np.zeros(n, dtype=bool)
    errors = [None] * n

    cells, W, Y = _evaluate(f, np.geomspace(lo, hi, _SCAN_POINTS, axis=1), np.arange(n), errors)
    y_min, y_max = Y.min(axis=1), Y.max(axis=1)
    ratio = y_max / np.where(y_min > 0.0, y_min, 1.0)
    flat = (y_max <= 0.0) | ((y_min > 0.0) & (ratio < 1.0 + 1e-12))
    for r in np.flatnonzero(flat):
        errors[cells[r]] = OptimizationError(
            f"objective is flat across [{W[r, 0]:g}, {W[r, -1]:g}] "
            f"(max/min = {y_max[r]}/{y_min[r]})"
        )
    cells, W, Y = cells[~flat], W[~flat], Y[~flat]
    rows = np.arange(cells.size)
    k = Y.argmax(axis=1)
    on_edge[cells] = (k == 0) | (k == _SCAN_POINTS - 1)
    x_best[cells], y_best[cells] = W[rows, k], Y[rows, k]
    width = np.full(n, math.inf)
    while True:
        a = W[rows, np.maximum(k - 1, 0)]
        b = W[rows, np.minimum(k + 1, W.shape[1] - 1)]
        go = (tol * a < b - a) & (b - a < width[cells])
        cells, a, b = cells[go], a[go], b[go]
        if not cells.size:
            break
        width[cells] = b - a
        # the values of np.linspace(a, b, _ROUND_POINTS, axis=1), without
        # its per-call overhead
        W = _ROUND_STEPS * ((b - a) / (_ROUND_POINTS - 1))[:, None] + a[:, None]
        W[:, -1] = b
        cells, W, Y = _evaluate(f, W, cells, errors)
        rows = np.arange(cells.size)
        k = Y.argmax(axis=1)
        y = Y[rows, k]
        better = y > y_best[cells]
        x_best[cells[better]] = W[rows, k][better]
        y_best[cells[better]] = y[better]
    failed = [i for i, exc in enumerate(errors) if exc is not None]
    x_best[failed] = y_best[failed] = math.nan
    return x_best, y_best, on_edge, errors


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
    g = float(small_cloud_factors(cloud, w))
    return OptimumRecord(
        w0_max_bar=w,
        g_max=g,
        xi_abs_sq_at_max=g * w_sq / 6.0,
        profile="uniform",
        cloud=cloud,
        method="analytic",
    )


def _check_profile_tol(profile: str, tol: float) -> None:
    if profile not in PHASE_VARIANTS:
        raise ValueError(f"unknown phase variant {profile!r}")
    if tol <= 0.0:
        raise ValueError("tol must be positive")


def _efficiency(clouds, profile: str):
    """The per-atom collection efficiency as an objective of :func:`maximize_rows`.

    The uniform phase takes its erfcx closed form over the whole waist
    array at once; the compensated phases evaluate each cell on its own
    axial mesh (padding the meshes of a row to one array gains nothing
    and costs memory).
    """
    if profile == UNIFORM and all(c.sigma_z_bar > 0.0 for c in clouds):
        sp_sq = np.array([[c.sigma_perp_bar ** 2] for c in clouds])
        sz = np.array([[c.sigma_z_bar] for c in clouds])
        return lambda W, cells: uniform_factors(sp_sq[cells], sz[cells], W)
    return lambda W, cells: np.array(
        [geometric_factors(clouds[i], w, profile) for i, w in zip(cells, W)]
    )


def _record(cloud: CloudGeometry, profile: str, w, g, status: str) -> OptimumRecord:
    w, g = float(w), float(g)
    return OptimumRecord(
        w0_max_bar=w,
        g_max=g,
        xi_abs_sq_at_max=g * w * w / 6.0,
        profile=profile,
        cloud=cloud,
        method="numeric",
        status=status,
    )


def _status(on_edge: bool, exc: Exception | None) -> str:
    if exc is not None:
        return f"failed: {type(exc).__name__}"
    return "edge" if on_edge else "ok"


def optimal_waist_numeric(
    cloud: CloudGeometry,
    profile: str,
    tol: float = 1e-6,
    *,
    objective=None,
) -> OptimumRecord:
    """Numerically maximize the collection efficiency over the waist.

    The one-cell case of :func:`optimal_waists`, raising instead of
    recording a failure.  ``profile`` is a phase-variant tag; the
    compensated variants are re-matched to each trial waist.
    ``objective`` may replace the efficiency with another function
    evaluated elementwise over an array of waists, which ``validate``
    and the tests use to maximize the small-cloud model with the same
    machinery.  The record's ``status`` is ``"edge"`` when the scan's
    maximum is the bracket's first or last waist, ``"ok"`` otherwise.
    """
    _check_profile_tol(profile, tol)
    lo, hi = default_bracket(cloud)
    check_bracket(lo, hi)
    if objective is None:
        f = _efficiency([cloud], profile)
    else:
        def f(W, cells):
            return objective(W)
    x, g, on_edge, (exc,) = maximize_rows(f, [lo], [hi], tol=tol)
    if exc is not None:
        raise exc
    return _record(cloud, profile, x[0], g[0], _status(on_edge[0], None))


def optimal_waists(clouds, profile: str, tol: float = 1e-6) -> list:
    """Optimal waist of every cloud of ``clouds``, found together.

    Each cloud is searched over its :func:`default_bracket` by one
    :func:`maximize_rows` run, so every scan and refinement round is one
    objective call for all cells.  A cell that fails is recorded with a
    ``status`` of ``"failed: "`` and the exception's name, and the other
    cells carry on: ``ValueError`` for a bracket outside the supported
    waists or the ``|xi|^2 <= 1`` guard, ``OptimizationError`` for a
    flat or non-finite objective.
    """
    _check_profile_tol(profile, tol)
    records, batch, brackets = [None] * len(clouds), [], []
    for i, cloud in enumerate(clouds):
        bracket = default_bracket(cloud)
        try:
            check_bracket(*bracket)
        except ValueError as exc:
            records[i] = _record(cloud, profile, math.nan, math.nan, _status(False, exc))
        else:
            batch.append(i)
            brackets.append(bracket)
    if batch:
        cells = [clouds[i] for i in batch]
        lo, hi = np.array(brackets).T
        x, g, on_edge, errors = maximize_rows(_efficiency(cells, profile), lo, hi, tol=tol)
        for r, i in enumerate(batch):
            records[i] = _record(clouds[i], profile, x[r], g[r], _status(on_edge[r], errors[r]))
    return records


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
    cell runs.  The cells of each ``sigma_perp`` row are optimized
    together by :func:`optimal_waists`; a cell that fails is recorded
    with a ``status`` tag instead of aborting the sweep.
    """
    sp_values = np.asarray(sigma_perp_values, dtype=float)
    sz_values = np.asarray(sigma_z_values, dtype=float)
    _check_axes(sp_values, sz_values)
    _check_profile_tol(profile, tol)
    records = [
        optimal_waists([CloudGeometry(sp, sz, n_atoms) for sz in sz_values], profile, tol)
        for sp in sp_values
    ]
    return SweepGrid(sp_values, sz_values, profile, records)
