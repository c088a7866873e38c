"""Fundamental Gaussian beam geometry in wavenumber-scaled coordinates.

All lengths are dimensionless, scaled by the emission wavenumber
(``x_bar = k_e * x``), so the wavevector drops out of every formula and
the Rayleigh length is simply ``w0_bar**2 / 2``.  Conversion to and from
physical units happens only at the CLI boundary.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParaxialValidityWarning",
    "BeamGeometry",
    "beam_width",
    "gouy_phase",
    "mode_amplitude",
    "mode_amplitude_expanded",
]


class ParaxialValidityWarning(UserWarning):
    """Waist of order the wavelength: paraxial formulas are suspect."""


@dataclass(frozen=True)
class BeamGeometry:
    """Focused Gaussian beam, waist at the origin, axis along z."""

    w0_bar: float

    def __post_init__(self):
        w0 = float(self.w0_bar)
        if not math.isfinite(w0) or w0 <= 0.0:
            raise ValueError(f"beam waist must be positive and finite, got {w0!r}")
        object.__setattr__(self, "w0_bar", w0)
        if w0 < 2.0:
            warnings.warn(
                f"waist w0_bar={w0:.4g} is below ~2 (sub-wavelength focus); "
                "paraxial mode formulas are evaluated as written",
                ParaxialValidityWarning,
                stacklevel=2,
            )

    @property
    def rayleigh_bar(self) -> float:
        """Rayleigh length, recomputed from the waist so it can never drift."""
        return 0.5 * self.w0_bar * self.w0_bar


def beam_width(beam: BeamGeometry, z_bar):
    """Transverse 1/e^2 field radius w(z) = w0 sqrt(1 + (z/zR)^2)."""
    zr = beam.rayleigh_bar
    return beam.w0_bar * np.sqrt(1.0 + (z_bar / zr) ** 2)


def gouy_phase(beam: BeamGeometry, z_bar):
    """Axial phase lag arctan(z/zR) relative to a plane wave."""
    return np.arctan(z_bar / beam.rayleigh_bar)


def mode_amplitude(beam: BeamGeometry, xyz) -> np.ndarray:
    """Dimensionless fundamental-mode profile at an ``(n, 3)`` position array.

    Canonical complex-beam-parameter form
    ``(zR / q*(z)) exp[i (z + rho^2 / (2 q*(z)))]`` with
    ``q(z) = z + i zR``; it has no removable singularity at the focus and
    its modulus is bounded by 1.
    """
    x, y, z = np.asarray(xyz, dtype=float).T
    zr = beam.rayleigh_bar
    q_conj = z - 1j * zr
    rho_sq = x * x + y * y
    return (zr / q_conj) * np.exp(1j * (z + rho_sq / (2.0 * q_conj)))


def mode_amplitude_expanded(beam: BeamGeometry, xyz) -> np.ndarray:
    """Same mode via the textbook w(z), curvature, Gouy-phase factorization.

    An independent evaluation path for testing the compact form.  The
    curvature term is written as ``rho^2 z / (2 (z^2 + zR^2))`` so the
    focus needs no special case.
    """
    x, y, z = np.asarray(xyz, dtype=float).T
    zr = beam.rayleigh_bar
    rho_sq = x * x + y * y
    w = beam_width(beam, z)
    inv_2r = z / (2.0 * (z * z + zr * zr))
    phase = z + rho_sq * inv_2r - gouy_phase(beam, z)
    return 1j * (beam.w0_bar / w) * np.exp(-rho_sq / (w * w) + 1j * phase)
