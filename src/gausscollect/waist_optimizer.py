"""Waist optimization and parameter sweeps of the collection efficiency.

For a zero-length cloud the optimal waist has a closed form (the
stationarity condition of the small-cloud overlap is a cubic in the
squared waist, solved by Cardano's formula with the principal complex
cube root).  Everywhere else the per-atom collection efficiency is
maximized numerically on one batched path, :func:`maximize_rows`,
over a matrix of cells x waists: a 64-point log-spaced scan brackets
each cell's global maximum, then rounds of 17 uniformly spaced waists
narrow that bracket, every round one objective call for all cells still
active: one :func:`~gausscollect.overlap_engine.geometric_factors` call,
whatever the phase variant or cloud length.  Nothing here assumes the
objective is unimodal beyond the scan's winning bracket.

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

from .ensemble_model import PHASE_VARIANTS, CloudGeometry
# compute_xi is not called here, but perfbench/layers.py wraps this attribute
from .overlap_engine import compute_xi, geometric_factors, small_cloud_factors  # noqa: F401

__all__ = [
    "OptimizationError",
    "OptimumRecord",
    "maximize_rows",
    "optimal_waist_analytic",
    "optimal_waist_numeric",
    "optimal_waists",
    "default_bracket",
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
    """Waist search interval spanning the pancake and long-cloud optima.

    Raises ``ValueError`` when it is empty (``sigma_perp_bar`` below
    ``0.5 / (50 sqrt 2)``, about 0.00707, puts its upper end under the
    smallest supported waist) or leaves the supported waists [0.5, 1e4].
    """
    base = math.sqrt(2.0) * cloud.sigma_perp_bar
    lo, hi = max(0.5, 0.2 * base), 50.0 * base
    if not lo < hi:
        raise ValueError(f"waist search bracket [{lo}, {hi}] is empty: its upper end "
                         "50 sqrt(2) sigma_perp_bar is below the smallest supported waist 0.5")
    if not hi <= 1e4:
        raise ValueError(f"waist search bracket [{lo}, {hi}] outside the supported [0.5, 1e4]")
    return lo, hi


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


def _status(on_edge: bool, exc: Exception | None) -> str:
    if exc is not None:
        return f"failed: {type(exc).__name__}"
    return "edge" if on_edge else "ok"


def _optima(clouds, profile: str, tol: float):
    """Numeric optimum of every cloud of ``clouds``, and per cloud ``None``
    or the exception that failed it.

    Each cloud is searched over its :func:`default_bracket` by one
    :func:`maximize_rows` run; a cloud whose bracket is unsupported, or
    whose row fails, gets a NaN record with a ``"failed: "`` status.
    """
    _check_profile_tol(profile, tol)
    n = len(clouds)
    x, g = np.full(n, math.nan), np.full(n, math.nan)
    on_edge, errors = np.zeros(n, dtype=bool), [None] * n
    batch, brackets = [], []
    for i, cloud in enumerate(clouds):
        try:
            brackets.append(default_bracket(cloud))
        except ValueError as exc:
            errors[i] = exc
        else:
            batch.append(i)
    if batch:
        sp_sq = np.array([clouds[i].sigma_perp_bar ** 2 for i in batch])
        sz = np.array([clouds[i].sigma_z_bar for i in batch])
        f = lambda W, cells: geometric_factors(sp_sq[cells], sz[cells], W, profile)
        lo, hi = np.array(brackets).T
        x[batch], g[batch], on_edge[batch], row_errors = maximize_rows(f, lo, hi, tol=tol)
        for i, exc in zip(batch, row_errors):
            errors[i] = exc
    x, g = x.tolist(), g.tolist()
    records = [
        OptimumRecord(x[i], g[i], g[i] * x[i] * x[i] / 6.0, profile, cloud, "numeric",
                      _status(on_edge[i], errors[i]))
        for i, cloud in enumerate(clouds)
    ]
    return records, errors


def optimal_waist_numeric(cloud: CloudGeometry, profile: str, tol: float = 1e-6) -> OptimumRecord:
    """Numerically maximize the collection efficiency over the waist.

    The one-cell case of :func:`optimal_waists`, raising instead of
    recording a failure.  ``profile`` is a phase-variant tag; the
    compensated variants are re-matched to each trial waist.  The
    record's ``status`` is ``"edge"`` when the scan's maximum is the
    bracket's first or last waist, ``"ok"`` otherwise.
    """
    (record,), (exc,) = _optima([cloud], profile, tol)
    if exc is not None:
        raise exc
    return record


def optimal_waists(clouds, profile: str, tol: float = 1e-6) -> list[OptimumRecord]:
    """Optimal waist of every cloud of ``clouds``, found together.

    Every scan and refinement round is one objective call for all cells.
    A cell that fails is recorded with a ``status`` of ``"failed: "``
    and the exception's name, and the other cells carry on:
    ``ValueError`` for a bracket outside the supported waists or the
    ``|xi|^2 <= 1`` guard, ``OptimizationError`` for a flat or
    non-finite objective.
    """
    return _optima(clouds, profile, tol)[0]


def sweep(sigma_perp_values, sigma_z_values, profile: str,
          tol: float = 1e-6) -> list[list[OptimumRecord]]:
    """Optimize the waist on every cell of a cloud-geometry grid.

    Returns the rows of records, row-major in ``sigma_perp``.  Bad axes,
    phase variant or tolerance raise before any cell runs (the last two
    on the first row).  The cells of each ``sigma_perp`` row are
    optimized together by :func:`optimal_waists`; a cell that fails is
    recorded with a ``status`` tag instead of aborting the sweep.
    """
    sp_values = np.asarray(sigma_perp_values, dtype=float)
    sz_values = np.asarray(sigma_z_values, dtype=float)
    if sp_values.size == 0 or sz_values.size == 0:
        raise ValueError("sweep axes must be non-empty")
    if np.any(sp_values <= 0) or np.any(sz_values <= 0):
        raise ValueError("sweep axes must be positive")
    if np.any(np.diff(sp_values) <= 0) or np.any(np.diff(sz_values) <= 0):
        raise ValueError("sweep axes must be strictly increasing")
    return [
        optimal_waists([CloudGeometry(sp, sz) for sz in sz_values], profile, tol)
        for sp in sp_values
    ]
