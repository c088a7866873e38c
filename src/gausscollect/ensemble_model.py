"""Atomic cloud geometry and the imprinted spin-wave phase profiles.

The cloud is a cylindrically symmetric normal density with transverse
and axial standard deviations ``sigma_perp_bar`` and ``sigma_z_bar``
(wavenumber-scaled).  ``sigma_z_bar = 0`` denotes the analytic pancake
limit and is rejected by the operations that would divide by it;
consumers route that case to closed forms instead.

Three stored-phase variants are supported: a uniform phase, a phase
cancelling the collection beam's Gouy phase, and the full transverse
phase of a focused Gaussian beam (curvature plus Gouy).  The compensated
variants always reference the beam whose waist is being evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .paraxial_beam import BeamGeometry

__all__ = [
    "UNIFORM",
    "GOUY_COMPENSATED",
    "FULL_GAUSSIAN",
    "PHASE_VARIANTS",
    "CloudGeometry",
    "PhaseProfile",
    "make_profile",
    "density",
    "sample_positions",
    "phase_at_points",
]

UNIFORM = "uniform"
GOUY_COMPENSATED = "gouy_compensated"
FULL_GAUSSIAN = "full_gaussian"
PHASE_VARIANTS = (UNIFORM, GOUY_COMPENSATED, FULL_GAUSSIAN)


@dataclass(frozen=True)
class CloudGeometry:
    """Gaussian atomic cloud: width, length (standard deviations), atom count."""

    sigma_perp_bar: float
    sigma_z_bar: float
    n_atoms: int = 1

    def __post_init__(self):
        sp = float(self.sigma_perp_bar)
        sz = float(self.sigma_z_bar)
        if not math.isfinite(sp) or sp <= 0.0:
            raise ValueError(f"sigma_perp_bar must be positive, got {sp!r}")
        if not math.isfinite(sz) or sz < 0.0:
            raise ValueError(f"sigma_z_bar must be non-negative, got {sz!r}")
        if int(self.n_atoms) < 1:
            raise ValueError(f"n_atoms must be >= 1, got {self.n_atoms!r}")
        object.__setattr__(self, "sigma_perp_bar", sp)
        object.__setattr__(self, "sigma_z_bar", sz)
        object.__setattr__(self, "n_atoms", int(self.n_atoms))


@dataclass(frozen=True)
class PhaseProfile:
    """Spatial phase of the stored spin wave.

    The compensated variants need the collection beam they are matched
    to; the uniform variant must not carry one.
    """

    variant: str
    reference_beam: BeamGeometry | None = None

    def __post_init__(self):
        if self.variant not in PHASE_VARIANTS:
            raise ValueError(
                f"unknown phase variant {self.variant!r}; expected one of {PHASE_VARIANTS}"
            )
        if self.variant == UNIFORM and self.reference_beam is not None:
            raise ValueError("uniform phase profile takes no reference beam")
        if self.variant != UNIFORM and self.reference_beam is None:
            raise ValueError(f"{self.variant} phase profile requires a reference beam")


def make_profile(variant: str, w0_bar: float | None = None) -> PhaseProfile:
    """Build a profile matched to the collection beam of waist ``w0_bar``."""
    if variant == UNIFORM:
        return PhaseProfile(UNIFORM)
    if w0_bar is None:
        raise ValueError(f"{variant} profile needs the collection-beam waist")
    return PhaseProfile(variant, BeamGeometry(w0_bar))


def density(cloud: CloudGeometry, xyz) -> np.ndarray:
    """Atom number density at an ``(n, 3)`` position array, in wavenumber^3 units.

    Normalized so the volume integral equals ``n_atoms``.  The pancake
    limit ``sigma_z_bar = 0`` has no finite density and is rejected.
    """
    sp, sz = cloud.sigma_perp_bar, cloud.sigma_z_bar
    if sz == 0.0:
        raise ValueError("density is undefined for sigma_z_bar = 0 (pancake limit)")
    x, y, z = np.asarray(xyz, dtype=float).T
    rho_sq = x * x + y * y
    norm = (2.0 * math.pi) ** 1.5 * sp * sp * sz
    return cloud.n_atoms * np.exp(-rho_sq / (2.0 * sp * sp) - z * z / (2.0 * sz * sz)) / norm


def sample_positions(cloud: CloudGeometry, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` atom positions from the cloud density, seeded.

    Returns an ``(count, 3)`` array of (x, y, z); identical seeds give
    identical sequences.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if cloud.sigma_z_bar == 0.0:
        raise ValueError("cannot sample a zero-thickness cloud (pancake limit)")
    rng = np.random.default_rng(seed)
    scales = np.array([cloud.sigma_perp_bar, cloud.sigma_perp_bar, cloud.sigma_z_bar])
    return rng.normal(0.0, 1.0, size=(int(count), 3)) * scales


def phase_at_points(profile: PhaseProfile, xyz: np.ndarray) -> np.ndarray:
    """Imprinted spin-wave phase at every row of an ``(n, 3)`` position array."""
    xyz = np.asarray(xyz, dtype=float)
    if profile.variant == UNIFORM:
        return np.zeros(xyz.shape[0])
    beam = profile.reference_beam
    zr = beam.rayleigh_bar
    z = xyz[:, 2]
    gouy = np.arctan(z / zr)
    if profile.variant == GOUY_COMPENSATED:
        return -gouy
    # full Gaussian: transverse curvature term, written so z = 0 (flat
    # phase front, infinite curvature radius) needs no special case
    rho_sq = xyz[:, 0] ** 2 + xyz[:, 1] ** 2
    return rho_sq * z / (2.0 * (z * z + zr * zr)) - gouy
