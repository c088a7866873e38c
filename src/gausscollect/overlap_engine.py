"""Overlap of the ensemble's phased emission with a focused Gaussian mode.

The central quantity is the dimensionless complex overlap amplitude
``xi``: the normalized cloud density, carrying the stored spin-wave
phase and the forward phase-matching factor, projected onto the
collection mode evaluated at the emission wavenumber.  Its squared
modulus times ``6 / w0_bar**2`` is the per-atom collection efficiency
(`geometric factor`).

Evaluation routes:

* uniform stored phase: exact closed form via the scaled complementary
  error function (the transverse integral is Gaussian and the axial one
  is a Gaussian-pole integral), valid for every cloud length;
* Gouy-compensated and full-Gaussian stored phases: the transverse
  integral is Gaussian and leaves a real, even axial integrand (the
  overlap is purely imaginary), integrated by one fixed rule:
  16-point Gauss-Legendre panels on the half axis, graded by ratio 1.6
  from a quarter of the smaller of the Rayleigh length and the cloud
  length out to 8.5 cloud lengths, with the cloud's Gaussian weight
  folded into the weights;
* clouds of zero length, or negligibly short against the Rayleigh
  length, take the analytic pancake overlap, where all profiles
  coincide;
* a brute-force radial x axial tensor quadrature of the full integral,
  used as the oracle for everything above, and an independent
  beam-width/curvature form of the Gouy-compensated overlap, integrated
  by adaptive QUADPACK (``scipy.integrate.quad``) on graded breakpoints,
  which the tests cross-check against the production form.

:func:`geometric_factors` is the one batched entry, over a matrix of
cells x waists for every phase variant: the uniform phase in one erfcx
pass, each compensated cell on one axial mesh shared by its waists;
:func:`compute_xi` is its one-cell, one-waist case.
:func:`small_cloud_factors` is the flat-front small-cloud model behind
the closed-form optimal waist.  All functions are pure.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erfcx

from .ensemble_model import (
    FULL_GAUSSIAN,
    GOUY_COMPENSATED,
    PHASE_VARIANTS,
    UNIFORM,
    CloudGeometry,
    PhaseProfile,
)
from .special_math import QuadratureError, integrate_adaptive
# gauss_hermite is not called here, but perfbench/layers.py wraps this attribute
from .special_math import gauss_hermite  # noqa: F401

__all__ = [
    "OverlapResult",
    "check_waists",
    "geometric_factor",
    "geometric_factors",
    "small_cloud_factors",
    "xi_gouy_compensated_curvature_form",
    "xi_brute_force",
    "compute_xi",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# truncation half-width of Gaussian-weighted domains, in standard deviations;
# the neglected tail is below exp(-8.5^2/2) ~ 2e-16 of the envelope
_CUT_SIGMAS = 8.5

# the fixed axial rule: Gauss-Legendre panels of this order, growing by
# this ratio away from the focus
_AXIAL_ORDER = 16
_AXIAL_RATIO = 1.6

# the oracles' accuracy targets: the brute force's agreement between
# successive meshes, the curvature form's QUADPACK tolerance
_BRUTE_FORCE_TARGET = 1e-10
_CURVATURE_TOL = 1e-10

# past this argument sqrt(pi) x erfcx(x) equals 1 to double precision,
# so the uniform closed form is the exact pancake overlap there
_UNIFORM_PANCAKE_ARG = 1e100
_SQRT_PI = math.sqrt(math.pi)


def _check_normalized(xi_abs_sq: float) -> None:
    if xi_abs_sq > 1.0 + 1e-9:
        raise ValueError(f"|xi|^2 = {xi_abs_sq!r} exceeds the normalization bound of 1")


@dataclass(frozen=True)
class OverlapResult:
    """Complex overlap amplitude and the collection figures derived from it."""

    xi: complex
    xi_abs_sq: float
    geometric_factor: float
    method: str

    @classmethod
    def from_xi(cls, xi: complex, w0_bar: float, method: str) -> "OverlapResult":
        xi = complex(xi)
        if not cmath.isfinite(xi):
            raise QuadratureError(f"non-finite overlap {xi!r} at w0_bar = {w0_bar!r}", value=xi)
        xi_abs_sq = abs(xi) ** 2
        _check_normalized(xi_abs_sq)
        return cls(xi, xi_abs_sq, geometric_factor(xi_abs_sq, w0_bar), method)


def geometric_factor(xi_abs_sq: float, w0_bar: float) -> float:
    """Per-atom collection efficiency ``6 |xi|^2 / w0_bar**2``.

    The factor is the atomic resonant absorption cross-section divided
    by the focal cross-section of the beam, written in wavenumber-scaled
    units where both areas are dimensionless.
    """
    check_waists(w0_bar)
    if xi_abs_sq < 0.0:
        raise ValueError(f"xi_abs_sq must be non-negative, got {xi_abs_sq!r}")
    return 6.0 * xi_abs_sq / (w0_bar * w0_bar)


# ---------------------------------------------------------------------------
# panel rules
# ---------------------------------------------------------------------------

def _graded_edges(h0: float, limit: float, ratio: float) -> list[float]:
    """Symmetric breakpoints growing geometrically from the origin to +-limit."""
    if not h0 > 0.0:
        raise ValueError(f"the first breakpoint must be positive, got {h0!r}")
    pts = [0.0, limit]
    x = h0
    while x < limit:
        pts.append(x)
        x *= ratio
    return sorted({-p for p in pts} | set(pts))


@lru_cache(maxsize=64)
def _legendre_rule(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _panel_nodes(edges: np.ndarray, order: int):
    """Gauss-Legendre nodes/weights tiled over consecutive panels."""
    base_x, base_w = _legendre_rule(order)
    lo = edges[:-1]
    hi = edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return nodes, weights


# ---------------------------------------------------------------------------
# the overlap kernel
# ---------------------------------------------------------------------------

def _degenerate_length(sigma_z: float, zeta):
    # clouds this short against the Rayleigh length differ from the
    # pancake limit by O((sz/zR)^2) < double precision, while their
    # Gaussian weight exp(-z^2/2 sz^2) degenerates in float arithmetic
    return sigma_z < 1e-9 * zeta


def _axial_rule(sigma_z: float, zeta_min: float):
    """Half-axis nodes and weights of the compensated overlaps' axial integral.

    The weights carry the cloud's axial density folded onto ``z >= 0``,
    ``2 exp(-z^2 / 2 sz^2) / (sqrt(2 pi) sz)``; the core panel resolves
    the shortest Rayleigh length ``zeta_min`` the rule serves.
    """
    h0 = min(zeta_min, sigma_z) / 4.0
    edges = np.array(_graded_edges(h0, _CUT_SIGMAS * sigma_z, _AXIAL_RATIO))
    z, w = _panel_nodes(edges[edges >= 0.0], _AXIAL_ORDER)
    density = np.exp(-z * z / (2.0 * sigma_z * sigma_z)) * (2.0 / (_SQRT_2PI * sigma_z))
    return z, w * density


def _uniform_xi(zeta, sp_sq, sz):
    """Uniform-phase ``xi`` elementwise over broadcast arrays of Rayleigh
    lengths ``zeta``, squared cloud widths ``sp_sq`` and cloud lengths
    ``sz > 0``.

    The axial integral has a simple pole at ``i (zR + sp^2)`` under a
    Gaussian weight: ``xi = pancake * sqrt(pi) x erfcx(x)`` with
    ``x = (zR + sp^2) / (sqrt(2) sz)``, capped so that tiny ``sz`` cannot
    overflow it.
    """
    pole = zeta + sp_sq
    scale = math.sqrt(2.0) * sz
    x = np.minimum(pole, _UNIFORM_PANCAKE_ARG * scale) / scale
    return -1j * zeta / pole * (_SQRT_PI * x * erfcx(x))


def check_waists(w0_bars) -> None:
    """Raise ``ValueError`` unless every waist of ``w0_bars`` is positive
    with a Rayleigh length ``w0^2 / 2`` of at least the smallest normal
    float (the axial rule's first panel is a quarter of it)."""
    # the Rayleigh length grows with the waist, so the smallest one decides
    w0 = float(np.asarray(w0_bars, dtype=float).min())
    if not w0 > 0.0:
        raise ValueError(f"w0_bar must be positive, got {w0!r}")
    if 0.5 * w0 * w0 < sys.float_info.min:
        raise ValueError(f"waist {w0!r} is too small: its Rayleigh length w0^2 / 2 underflows")


def _xi_kernel(sp_sq: np.ndarray, sz: np.ndarray, w0: np.ndarray, variant: str):
    """``xi`` of every cell and waist of the ``(n, k)`` matrix ``w0``, for
    clouds of squared widths ``sp_sq`` and lengths ``sz`` (arrays ``(n,)``),
    and the mask of the entries evaluated by the axial rule (the others
    are closed forms).

    When every cloud has a length the uniform phase is one erfcx pass.
    Otherwise the pancake and degenerate-length limits are decided per
    waist before any mesh is built; each compensated cell then gets one
    axial mesh, fine enough for the smallest Rayleigh length among its
    remaining waists.
    """
    if variant not in PHASE_VARIANTS:
        raise ValueError(f"unknown phase variant {variant!r}")
    if w0.ndim != 2 or not sp_sq.shape == sz.shape == w0.shape[:1]:
        raise ValueError("need (n,) cloud arrays and an (n, k) waist matrix")
    check_waists(w0)
    zeta = 0.5 * w0 * w0
    quad = np.zeros(w0.shape, dtype=bool)
    long = sz > 0.0
    if variant == UNIFORM and long.all():
        return _uniform_xi(zeta, sp_sq[:, None], sz[:, None]), quad
    pole = zeta + sp_sq[:, None]
    # zero-length cloud at the focus: all three phase profiles coincide
    xi = -1j * zeta / pole
    if variant == UNIFORM:
        xi[long] = _uniform_xi(zeta[long], sp_sq[long, None], sz[long, None])
        return xi, quad

    quad = ~_degenerate_length(sz[:, None], zeta)
    for r in np.flatnonzero(quad.any(axis=1)):
        q = quad[r]
        z, weights = _axial_rule(float(sz[r]), float(zeta[r, q].min()))
        z_sq = z * z
        zq = zeta[r, q][:, None]
        r_sq = zq * zq + z_sq  # |z + i zR|^2
        if variant == GOUY_COMPENSATED:
            # Im of exp(-i arctan(z/zR)) / (z + i p), p = zR + sp^2; the
            # real part is odd in z and integrates to zero
            pq = pole[r, q][:, None]
            f = (zq * pq + z_sq) / ((z_sq + pq * pq) * np.sqrt(r_sq))
        else:
            # w(z) / (w(z)^2 + 2 sp^2), scaled by w0 / zR
            f = np.sqrt(r_sq) / (r_sq + sp_sq[r] * zq)
        xi[r, q] = -1j * zeta[r, q] * (f @ weights)
    return xi, quad


def geometric_factors(sigma_perp_sq, sigma_z, w0_bars, variant: str) -> np.ndarray:
    """Per-atom collection efficiency of many clouds at many waists.

    Row ``i`` of the ``(n, k)`` waists ``w0_bars`` belongs to the cloud of
    squared width ``sigma_perp_sq[i]`` (``sigma_perp_bar ** 2`` in float
    arithmetic, as :func:`compute_xi` squares it) and length
    ``sigma_z[i]``: the batched form of
    ``compute_xi(cloud, w, variant).geometric_factor``, value for value,
    with the normalization guard of :class:`OverlapResult` applied to the
    whole matrix.
    """
    w0 = np.asarray(w0_bars, dtype=float)
    xi, _ = _xi_kernel(np.asarray(sigma_perp_sq, dtype=float),
                       np.asarray(sigma_z, dtype=float), w0, variant)
    xi_abs_sq = np.abs(xi) ** 2
    _check_normalized(float(xi_abs_sq.max()))
    return 6.0 * xi_abs_sq / (w0 * w0)


def compute_xi(cloud: CloudGeometry, w0_bar: float, variant: str) -> OverlapResult:
    """Overlap of one cloud and waist for a phase variant.

    The 1 x 1 case of the kernel behind :func:`geometric_factors`:
    zero-length and negligibly short clouds take the analytic pancake
    form (``method="closed_form"``), the uniform phase the exact erfcx
    closed form, the compensated phases the fixed axial rule
    (``method="quadrature"``).

    After the Gaussian transverse integral the uniform phase leaves a
    simple pole at ``i (zR + sp^2)`` under the axial Gaussian weight,
    hence erfcx.  A stored phase cancelling the Gouy phase's sign flip
    across the focus makes the two half-spaces add for long clouds.
    """
    xi, quad = _xi_kernel(np.array([cloud.sigma_perp_bar ** 2]), np.array([cloud.sigma_z_bar]),
                          np.array([[w0_bar]], dtype=float), variant)
    return OverlapResult.from_xi(xi[0, 0], w0_bar, "quadrature" if quad[0, 0] else "closed_form")


def small_cloud_factors(cloud: CloudGeometry, w0_bars) -> np.ndarray:
    """Geometric factor of a cloud much smaller than the Rayleigh length.

    Near the focus the mode reduces to a flat-front Gaussian with a
    linearized axial phase, so the overlap is a pure Gaussian integral:
    ``|xi|^2 = w0^4 / (2 sp^2 + w0^2)^2 * exp[-(2 sz / w0^2)^2]``.
    Evaluated as written at every waist of ``w0_bars``; accuracy
    degrades once the cloud is no longer small against the Rayleigh
    length.
    """
    sp, sz = cloud.sigma_perp_bar, cloud.sigma_z_bar
    w0_sq = np.square(np.asarray(w0_bars, dtype=float))
    xi_abs = w0_sq / (w0_sq + 2.0 * sp * sp) * np.exp(-2.0 * sz * sz / (w0_sq * w0_sq))
    return 6.0 * xi_abs * xi_abs / w0_sq


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def xi_gouy_compensated_curvature_form(cloud: CloudGeometry, w0_bar: float) -> OverlapResult:
    """Independent algebraic form of the Gouy-compensated :func:`compute_xi`.

    Uses the beam-width/curvature factorization of the mode instead of
    the complex beam parameter, and its own quadrature: one adaptive
    QUADPACK integral over ``+-8.5 sz``, split at breakpoints graded from
    a quarter of the smaller of the Rayleigh length and the cloud length.
    The two must agree to quadrature accuracy and are cross-checked in
    the test suite.
    """
    check_waists(w0_bar)
    sp, sz = cloud.sigma_perp_bar, cloud.sigma_z_bar
    if sz == 0.0:
        raise ValueError("xi_gouy_compensated_curvature_form needs sigma_z_bar > 0")
    zeta = 0.5 * w0_bar * w0_bar
    sp_sq = sp * sp
    if _degenerate_length(sz, zeta):
        return OverlapResult.from_xi(-1j * zeta / (zeta + sp_sq), w0_bar, "closed_form")

    def integrand(z):
        w_sq = w0_bar * w0_bar * (1.0 + (z / zeta) ** 2)
        inv_r = z / (z * z + zeta * zeta)
        smooth = np.sqrt(w_sq) / (w_sq + 2.0 * sp_sq + 1j * w_sq * sp_sq * inv_r)
        return np.exp(-z * z / (2.0 * sz * sz)) * smooth

    limit = _CUT_SIGMAS * sz
    breaks = _graded_edges(min(zeta, sz) / 4.0, limit, _AXIAL_RATIO)
    integral = integrate_adaptive(integrand, -limit, limit, _CURVATURE_TOL,
                                  breakpoints=breaks).value
    xi = -1j * (w0_bar / (_SQRT_2PI * sz)) * integral
    return OverlapResult.from_xi(xi, w0_bar, "quadrature")


def _brute_force_level(
    sp: float, sz: float, zeta: float, variant: str, level: int
) -> complex:
    order = 16 + 4 * level
    h0 = min(zeta, sz) / (6.0 * 1.5 ** level)
    z_edges = np.array(_graded_edges(h0, _CUT_SIGMAS * sz, ratio=1.4))
    phase_budget = 5.0 / (1.4 ** level)

    sp_sq = sp * sp
    u_max = (_CUT_SIGMAS * sp) ** 2

    # every axial panel at once, one row of nodes per panel
    z, wz = _panel_nodes(z_edges, order)
    q = z + 1j * zeta
    abs_q_sq = z * z + zeta * zeta
    # radial exponent rate: cloud + mode decay, mode transverse phase
    s_eff = 1.0 / (2.0 * sp_sq) + (zeta + 1j * z) / (2.0 * abs_q_sq)
    factor = np.exp(-z * z / (2.0 * sz * sz)) * (zeta / q)
    if variant == GOUY_COMPENSATED:
        factor = factor * np.exp(-1j * np.arctan(z / zeta))
    elif variant == FULL_GAUSSIAN:
        factor = factor * np.exp(-1j * np.arctan(z / zeta))
        s_eff = s_eff - 1j * z / (2.0 * abs_q_sq)
    s_eff = s_eff.reshape(-1, order)

    # each axial panel has its own uniform radial mesh in u = r^2, as dense
    # as the local oscillation rate, which varies strongly along the axis
    u_end = np.minimum(u_max, 45.0 / s_eff.real.min(axis=1))
    n_panels = np.maximum(2, np.ceil(u_end * np.abs(s_eff).max(axis=1) / phase_budget))
    step = (u_end / n_panels)[:, None]

    # radial integral (1/2) integral exp(-u s) du on the nodes
    # u = p step + c_j of panels p < P: exp(-(p step + c_j) s) = exp(-c_j s) r^p
    # with r = exp(-step s), and the sum over p is (1 - r^P) / (1 - r)
    base_x, base_w = _legendre_rule(order)
    offsets = 0.5 * step * (1.0 + base_x)
    inner = np.exp(-offsets[:, None, :] * s_eff[:, :, None]) @ base_w
    rate = step * s_eff
    panels_sum = np.expm1(-n_panels[:, None] * rate) / np.expm1(-rate)
    radial = 0.25 * step * inner * panels_sum
    total = np.sum(wz * factor * radial.ravel())

    pref = 1.0 / (_SQRT_2PI * sp_sq * sz)
    return pref * total


def xi_brute_force(cloud: CloudGeometry, w0_bar: float, profile: PhaseProfile) -> OverlapResult:
    """Direct tensor-product quadrature of the full overlap integral.

    The azimuthal integral is analytic (nothing depends on azimuth), so
    the remaining radial x axial integral is evaluated on graded
    Gauss-Legendre panel meshes, with the radial mesh in ``u = r^2``
    dense enough to track the mode's transverse phase.  Successively
    refined meshes must agree to ``_BRUTE_FORCE_TARGET`` before a value is accepted;
    this function is the accuracy oracle for every closed form and
    one-dimensional quadrature in this module.  A compensated
    ``profile`` must reference the beam of waist ``w0_bar``.
    """
    check_waists(w0_bar)
    beam = profile.reference_beam
    if beam is not None and beam.w0_bar != w0_bar:
        raise ValueError(
            f"profile is matched to waist {beam.w0_bar!r}, not to w0_bar = {w0_bar!r}")
    sp, sz = cloud.sigma_perp_bar, cloud.sigma_z_bar
    if sz == 0.0:
        raise ValueError("xi_brute_force needs sigma_z_bar > 0")
    zeta = 0.5 * w0_bar * w0_bar

    prev = None
    for level in range(3):
        val = _brute_force_level(sp, sz, zeta, profile.variant, level)
        if prev is not None:
            change = abs(val - prev)
            if change <= _BRUTE_FORCE_TARGET * max(1.0, abs(val)):
                return OverlapResult.from_xi(val, w0_bar, "brute_force")
        prev = val
    raise QuadratureError(
        f"brute-force overlap did not stabilize to {_BRUTE_FORCE_TARGET:g} "
        f"(last change {change:.3e})",
        value=val,
    )
