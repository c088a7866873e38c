"""Photon collection from trapped atomic ensembles into Gaussian modes."""

from .paraxial_beam import BeamGeometry, ParaxialValidityWarning
from .ensemble_model import (
    FULL_GAUSSIAN,
    GOUY_COMPENSATED,
    PHASE_VARIANTS,
    UNIFORM,
    CloudGeometry,
    PhaseProfile,
    make_profile,
)
from .overlap_engine import (
    OverlapResult,
    compute_xi,
    geometric_factors,
    small_cloud_factors,
    xi_brute_force,
)
from .special_math import QuadratureError

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BeamGeometry",
    "ParaxialValidityWarning",
    "CloudGeometry",
    "PhaseProfile",
    "make_profile",
    "UNIFORM",
    "GOUY_COMPENSATED",
    "FULL_GAUSSIAN",
    "PHASE_VARIANTS",
    "OverlapResult",
    "compute_xi",
    "geometric_factors",
    "small_cloud_factors",
    "xi_brute_force",
    "QuadratureError",
]
