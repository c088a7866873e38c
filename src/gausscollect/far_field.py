"""Far-field radiation pattern of the prepared ensemble.

One view of the emitted field: the structure factor of the whole cloud,
the normalized squared coherent sum of the per-atom phasors
``exp(i [(z_hat - n_hat) . r_j + phi(r_j)])``.  It measures
directionality: it is 1 in the phase-matched forward direction for a
uniform stored phase and falls off with the Gaussian form factor of the
density.

:func:`structure_factor` gives its exact ensemble mean for ``N`` atoms,
``S = |E|^2 + (1 - |E|^2) / N`` with the mean phasor
``E(n_hat) = <exp(i [q . r + phi(r)])>``, ``q = z_hat - n_hat``.  The
transverse average is Gaussian for every stored phase, so ``E`` is a
closed form for the uniform phase and one axial integral per direction
for the compensated ones; see :func:`_mean_phasor`.
:func:`sampled_structure_factor` estimates the same pattern by Monte
Carlo over sampled atom positions and is its oracle.

Far-field linearization is used throughout (phase ``n_hat . r_j``,
common ``1/r`` amplitude), and every atom is taken to emit at one
common retarded time: the cloud transit time is negligible against the
decay time for the cloud sizes of interest, so the pattern does not
depend on time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import spherical_jn

from .ensemble_model import (
    FULL_GAUSSIAN,
    UNIFORM,
    CloudGeometry,
    PhaseProfile,
    phase_at_points,
    sample_positions,
)
from .special_math import CUT_SIGMAS, SQRT_2PI, QuadratureError, graded_edges, legendre_rule

__all__ = [
    "DirectionGrid",
    "structure_factor",
    "sampled_structure_factor",
]

# the Filon rule of the compensated patterns: Gauss-Legendre panels of
# this order, growing by this ratio away from the focus
_FILON_ORDER = 16
_FILON_RATIO = 1.6

# phasors per atom block of sampled_structure_factor, and direction x
# node values per direction block of structure_factor: keeps their
# temporaries near a megabyte whatever the direction grid
_BLOCK_PHASORS = 100_000
_BLOCK_NODES = 65_536

# largest change of the full-phase transverse factor's phase, in radians,
# across one panel of the axial rule, and the most panels that rule may take
_PHASE_BUDGET = 2.0
_MAX_PANELS = 16_384
# the axial rule's first breakpoint, in cloud lengths, is at least this:
# the core panel inside it holds below 1e-18 of the cloud, whatever the
# integrand does there
_MIN_CORE = 1e-18


@dataclass(frozen=True)
class DirectionGrid:
    """Angular grid with per-direction intensity.

    Built from the two axes alone, it is the template grid that
    :func:`structure_factor` fills.  ``intensity[i, j]`` belongs to
    ``(theta_values[i], phi_values[j])``; a sampled pattern also carries
    its Monte-Carlo standard error in ``stderr``.  When the grid contains
    the forward direction ``theta = 0``, the matrix is normalized to the
    (nonzero) forward value, which is kept in ``forward_value``.
    """

    theta_values: np.ndarray
    phi_values: np.ndarray
    intensity: np.ndarray | None = None
    stderr: np.ndarray | None = None
    forward_value: float | None = None

    def __post_init__(self):
        th = np.asarray(self.theta_values, dtype=float)
        ph = np.asarray(self.phi_values, dtype=float)
        if th.ndim != 1 or ph.ndim != 1 or th.size == 0 or ph.size == 0:
            raise ValueError("direction axes must be non-empty 1-d arrays")
        th.setflags(write=False)
        ph.setflags(write=False)
        object.__setattr__(self, "theta_values", th)
        object.__setattr__(self, "phi_values", ph)
        if self.intensity is not None:
            inten = np.asarray(self.intensity, dtype=float)
            if inten.shape != (th.size, ph.size):
                raise ValueError("intensity matrix must be (n_theta, n_phi)")
            if np.any(inten < 0.0):
                raise ValueError("intensity must be non-negative")
            inten.setflags(write=False)
            object.__setattr__(self, "intensity", inten)


def _normalized(directions: DirectionGrid, intensity, stderr=None) -> DirectionGrid:
    """The grid of ``intensity`` (and ``stderr``), divided by its forward value."""
    forward = None
    forward_rows = np.nonzero(directions.theta_values == 0.0)[0]
    if forward_rows.size:
        forward = float(intensity[forward_rows[0], 0])
        if forward > 0.0:
            intensity = intensity / forward
            if stderr is not None:
                stderr = stderr / forward
    return DirectionGrid(directions.theta_values, directions.phi_values,
                         intensity, stderr, forward)


# ---------------------------------------------------------------------------
# the exact ensemble mean
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _filon_matrix() -> np.ndarray:
    """``(n, j)`` matrix ``(2n + 1) i^n P_n(x_j) w_j`` of the Gauss-Legendre rule.

    With ``J[n] = j_n(omega)`` (spherical Bessel functions),
    ``J @ matrix`` are the weights of
    ``integral_{-1}^{1} f(x) exp(i omega x) dx``: the rule integrates the
    polynomial interpolating ``f`` at the nodes against the exponential
    exactly, through ``integral P_n(x) exp(i omega x) dx = 2 i^n j_n(omega)``.
    Its accuracy is that of the interpolant, whatever ``omega``.
    """
    x, w = legendre_rule(_FILON_ORDER)
    n = np.arange(_FILON_ORDER)
    legendre = np.polynomial.legendre.legvander(x, _FILON_ORDER - 1).T
    matrix = ((2 * n + 1) * 1j ** n)[:, None] * legendre * w[None, :]
    matrix.setflags(write=False)
    return matrix


def _full_phase_rate(v, sp_sq: float, sz: float, zr: float, spread_max: float):
    """Bound on the phase rate, per unit ``v = z / sz``, of the full
    phase's transverse factor ``exp(-X / d) / d`` over ``X <= spread_max``.

    With ``d = 1 - i u``, ``u = sp^2 z / (z^2 + zR^2)``: ``1/d`` turns at
    ``|u'| / |d|`` and ``exp(-X / d)`` at up to ``X |u'| / |d|^2``, under a
    modulus ``exp(-X / |d|^2)``.  A panel of ``n = _FILON_ORDER`` points
    resolves a turn of ``phi`` radians under a modulus ``m`` as well as
    one of ``phi m^(1/n)`` under modulus 1, so that term is weighted by
    ``m^(1/n)`` and maximized over ``X``: ``y exp(-y / n)`` with
    ``y = X / |d|^2``, largest at ``y = n``.
    """
    gouy = np.arctan2(sz * v, zr)
    u = 0.5 * (sp_sq / zr) * np.sin(2.0 * gouy)
    du = (sp_sq / zr) * (sz / zr) * np.cos(2.0 * gouy) * np.cos(gouy) ** 2
    d_sq = 1.0 + u * u
    y = np.minimum(spread_max / d_sq, _FILON_ORDER)
    return np.abs(du) * (1.0 / np.sqrt(d_sq) + y * np.exp(-y / _FILON_ORDER))


def _axial_edges(sp_sq: float, sz: float, zr: float, spread_max: float | None):
    """Panel breakpoints of the compensated patterns' axial integral, in ``v = z / sz``.

    Panels graded by ``_FILON_RATIO`` on the whole axis, as the overlap
    engine grades its own: they resolve the cloud's Gaussian density and
    the Gouy phase.  For the full phase (``spread_max``, the largest
    ``X = q_perp^2 sp^2 / 2`` of the directions, is given) each panel is
    split evenly until the phase of its transverse factor turns by at
    most ``_PHASE_BUDGET`` across a piece.  Nothing here depends on ``q_z``: the Filon rule takes
    ``exp(i q_z z)`` exactly.  Raises :class:`QuadratureError` where that
    takes more than ``_MAX_PANELS`` panels (a full-phase waist far below
    the cloud width).
    """
    h0 = max(min(zr, sz) / (4.0 * sz), _MIN_CORE)
    edges = np.array(graded_edges(h0, CUT_SIGMAS, _FILON_RATIO))
    if spread_max is None:
        return edges
    x, _ = legendre_rule(_FILON_ORDER)
    lo, width = edges[:-1], np.diff(edges)
    v = lo[:, None] + 0.5 * width[:, None] * (1.0 + x[None, :])
    rate = _full_phase_rate(v, sp_sq, sz, zr, spread_max).max(axis=1)
    pieces = np.maximum(1.0, np.ceil(rate * width / _PHASE_BUDGET))
    if not pieces.sum() <= _MAX_PANELS:
        raise QuadratureError(
            f"the full-phase far field needs more than {_MAX_PANELS} axial panels: "
            "the waist is too small for the cloud width")
    return np.concatenate([*(np.linspace(a, a + h, n, endpoint=False)
                             for a, h, n in zip(lo, width, pieces.astype(int))), edges[-1:]])


def _mean_phasor(cloud: CloudGeometry, profile: PhaseProfile, thetas: np.ndarray):
    """Ensemble-mean phasor ``E`` at each polar angle of ``thetas``.

    Nothing depends on the azimuth.  With ``X = q_perp^2 sp^2 / 2`` and
    the cloud's axial density ``g``:

    * uniform: ``E = exp(-X - q_z^2 sz^2 / 2)``;
    * Gouy-compensated: ``E = exp(-X) integral g(z) exp(i q_z z)
      (zR - i z) / sqrt(zR^2 + z^2) dz``;
    * full Gaussian: the same integral with the transverse average
      ``exp(-X / d) / d`` inside it, ``d = 1 - 2 i a sp^2`` and
      ``a = z / (2 (z^2 + zR^2))`` the stored curvature.

    The integral is a Filon-Legendre rule on the panels of
    :func:`_axial_edges`: on a panel of midpoint ``M`` and half-width
    ``H``, ``H exp(i q M) sum_j w_j f_j sum_{n<_FILON_ORDER} (2n+1) i^n
    j_n(q H) P_n(x_j)``, so its work does not grow with ``q_z sz``.
    Directions go in blocks of about ``_BLOCK_NODES`` direction x node
    values.
    """
    sp_sq = cloud.sigma_perp_bar ** 2
    sz = cloud.sigma_z_bar
    spread = 0.5 * np.sin(thetas) ** 2 * sp_sq
    # q_z sz, the exponential's rate in v = z / sz
    kappa = 2.0 * np.sin(0.5 * thetas) ** 2 * sz
    if profile.variant == UNIFORM:
        return np.exp(-spread - 0.5 * kappa * kappa)

    full = profile.variant == FULL_GAUSSIAN
    zr = profile.reference_beam.rayleigh_bar
    edges = _axial_edges(sp_sq, sz, zr, float(spread.max()) if full else None)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    x, _ = legendre_rule(_FILON_ORDER)
    v = mid[:, None] + half[:, None] * x[None, :]
    gouy = np.arctan2(sz * v, zr)
    # standard normal density in v times exp(-i arctan(z / zR))
    f = np.exp(-0.5 * v * v - 1j * gouy) / SQRT_2PI
    if full:
        d = 1.0 - 0.5j * (sp_sq / zr) * np.sin(2.0 * gouy)
        f = f / d

    order = np.arange(_FILON_ORDER)
    mean = np.empty(thetas.size, dtype=complex)
    block = max(1, _BLOCK_NODES // v.size)
    for start in range(0, thetas.size, block):
        rows = slice(start, start + block)
        k = kappa[rows, None]
        weights = spherical_jn(order, (k * half)[..., None]) @ _filon_matrix()
        if full:
            panels = np.einsum("bkj,bkj->bk", weights,
                               f * np.exp(-spread[rows, None, None] / d))
        else:
            panels = np.einsum("bkj,kj->bk", weights, f)
        mean[rows] = (np.exp(1j * k * mid) * panels) @ half
    return mean if full else mean * np.exp(-spread)


def structure_factor(
    cloud: CloudGeometry,
    profile: PhaseProfile,
    n_atoms: int,
    directions: DirectionGrid,
) -> DirectionGrid:
    """Ensemble-mean angular emission pattern of ``n_atoms`` atoms.

    ``S(n_hat) = |E|^2 + (1 - |E|^2) / N``: the mean over atom positions
    drawn from the cloud density of ``|mean_j exp(i [(z_hat - n_hat) .
    r_j + phi(r_j)])|^2``, a coherent part ``|E|^2`` (the mean phasor of
    :func:`_mean_phasor`) over an incoherent floor ``1 / N``.  Exact and
    deterministic; no ``stderr``.  Raises :class:`QuadratureError` where
    the inputs are so extreme that ``E`` is not finite.
    """
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    if cloud.sigma_z_bar == 0.0:
        raise ValueError("structure_factor needs sigma_z_bar > 0")
    coherent = np.abs(_mean_phasor(cloud, profile, directions.theta_values)) ** 2
    if not np.all(np.isfinite(coherent)):
        raise QuadratureError("non-finite ensemble-mean far field")
    pattern = coherent + (1.0 - coherent) / n_atoms
    intensity = np.repeat(pattern[:, None], directions.phi_values.size, axis=1)
    return _normalized(directions, intensity)


# ---------------------------------------------------------------------------
# the Monte-Carlo oracle
# ---------------------------------------------------------------------------

def sampled_structure_factor(
    cloud: CloudGeometry,
    profile: PhaseProfile,
    count: int,
    seed: int,
    directions: DirectionGrid,
) -> DirectionGrid:
    """Monte-Carlo coherent emission pattern over a direction grid.

    ``S(n_hat) = |mean_j exp(i [(z_hat - n_hat) . r_j + phi(r_j)])|^2``
    over ``count`` atoms sampled from the cloud density: one draw of the
    pattern whose mean :func:`structure_factor` gives for
    ``n_atoms = count``.  Deterministic for a fixed seed.  The
    per-direction standard error of ``S`` is returned alongside: for a
    mean phasor ``m`` with covariance ``Sigma``, ``Var S = 4 m^T Sigma m
    + 2 tr(Sigma^2)``, the delta-method term plus the second-order term
    (exact for a Gaussian mean), which keeps the error right at the
    incoherent floor where ``m`` vanishes.

    The atoms are visited in blocks of about ``_BLOCK_PHASORS`` phasors,
    so the temporaries stay small for any direction grid.  Each block
    adds to five per-direction moments of the phasor components: the
    sums of ``cos``, ``sin``, ``cos^2``, ``sin^2`` and ``cos sin``.  The
    components are taken relative to the first atom's phasor, so the
    variances do not cancel catastrophically where the phases hardly
    spread (near the forward direction).
    """
    positions = sample_positions(cloud, count, seed)
    spin_phase = phase_at_points(profile, positions)

    thetas = directions.theta_values
    phis = directions.phi_values

    # q = z_hat - n_hat for every direction, one column per direction
    sin_t, cos_t = np.sin(thetas), np.cos(thetas)
    q = np.empty((3, thetas.size, phis.size))
    q[0] = -sin_t[:, None] * np.cos(phis)[None, :]
    q[1] = -sin_t[:, None] * np.sin(phis)[None, :]
    q[2] = (1.0 - cos_t)[:, None]
    q = q.reshape(3, -1)

    first = positions[0] @ q + spin_phase[0]
    shift_r, shift_i = np.cos(first), np.sin(first)
    sum_r, sum_i, sum_rr, sum_ii, sum_ri = np.zeros((5, q.shape[1]))
    block = max(1, _BLOCK_PHASORS // q.shape[1])
    for start in range(0, count, block):
        phases = positions[start:start + block] @ q + spin_phase[start:start + block, None]
        re = np.cos(phases) - shift_r
        im = np.sin(phases) - shift_i
        sum_r += re.sum(axis=0)
        sum_i += im.sum(axis=0)
        sum_rr += np.einsum("ij,ij->j", re, re)
        sum_ii += np.einsum("ij,ij->j", im, im)
        sum_ri += np.einsum("ij,ij->j", re, im)

    m = float(count)
    dr, di = sum_r / m, sum_i / m
    mr, mi = shift_r + dr, shift_i + di
    var_r = (sum_rr / m - dr * dr) / m
    var_i = (sum_ii / m - di * di) / m
    cov = (sum_ri / m - dr * di) / m
    var_s = (4.0 * (mr * mr * var_r + 2.0 * mr * mi * cov + mi * mi * var_i)
             + 2.0 * (var_r * var_r + var_i * var_i + 2.0 * cov * cov))
    shape = (thetas.size, phis.size)
    intensity = (mr * mr + mi * mi).reshape(shape)
    stderr = np.sqrt(np.maximum(var_s, 0.0)).reshape(shape)
    return _normalized(directions, intensity, stderr)
