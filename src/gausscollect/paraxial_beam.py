"""Fundamental Gaussian beam geometry in wavenumber-scaled coordinates.

All lengths are dimensionless, scaled by the emission wavenumber
(``x_bar = k_e * x``), so the wavevector drops out of every formula and
the Rayleigh length is simply ``w0_bar**2 / 2``.  Conversion to and from
physical units happens only at the CLI boundary.

The mode itself, ``(zR / q*) exp[i (z + rho^2 / (2 q*))]`` with
``q = z + i zR``, is written out where it is integrated: in the overlap
engine's reduced axial integrands and its brute-force oracle.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

__all__ = ["ParaxialValidityWarning", "BeamGeometry"]


class ParaxialValidityWarning(UserWarning):
    """Waist of order the wavelength: paraxial formulas are suspect."""


def stacklevel_outside(*modules: str) -> int:
    """The ``stacklevel`` at which a warning raised by the calling function
    names the first line that runs outside ``modules``.

    A dataclass's generated ``__init__`` runs in its class's module, so
    naming that module skips it, and naming a factory's module skips the
    factory: the warning points at the line that asked for the object.
    """
    level, frame = 2, sys._getframe(2)
    while frame is not None and frame.f_globals.get("__name__") in modules:
        level, frame = level + 1, frame.f_back
    return level


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
                # past the generated __init__ and make_profile
                stacklevel=stacklevel_outside(__name__, __package__ + ".ensemble_model"),
            )

    @property
    def rayleigh_bar(self) -> float:
        """Rayleigh length, recomputed from the waist so it can never drift."""
        return 0.5 * self.w0_bar * self.w0_bar

