"""Far-field radiation pattern of the prepared ensemble.

Two views of the emitted field: the retarded spherical-wave intensity of
a single decaying emitter, and the Monte-Carlo structure factor of the
whole cloud, i.e. the normalized squared coherent sum of the per-atom
phases ``(z_hat - n_hat) . r_j + phi(r_j)`` over sampled atom positions.
The structure factor measures directionality: it is 1 in the
phase-matched forward direction for a uniform stored phase and falls off
with the Gaussian form factor of the density.

Far-field linearization is used throughout the ensemble part (phase
``n_hat . r_j``, common ``1/r`` amplitude); the single-emitter intensity
keeps the exact retardation.  The envelope is evaluated at the common
retarded time: the cloud transit time is negligible against the decay
time for the cloud sizes of interest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble_model import CloudGeometry, PhaseProfile, phase_at_points, sample_positions
from .emission_dynamics import AmplitudeTrajectory

__all__ = [
    "DirectionGrid",
    "direction_grid",
    "single_atom_intensity",
    "structure_factor",
]

# phasors per atom block of structure_factor: keeps its temporaries near
# a megabyte whatever the direction grid
_BLOCK_PHASORS = 100_000


@dataclass(frozen=True)
class DirectionGrid:
    """Angular grid with per-direction intensity (and its MC standard error).

    ``intensity[i, j]`` belongs to ``(theta_values[i], phi_values[j])``.
    When the grid contains the forward direction ``theta = 0``, the
    matrix is normalized to the (nonzero) forward value, which is kept
    in ``forward_value``.
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


def direction_grid(theta_values, phi_values) -> DirectionGrid:
    """Template grid (no intensity yet) for :func:`structure_factor`."""
    return DirectionGrid(theta_values, phi_values)


def single_atom_intensity(r_bar: float, t, trajectory: AmplitudeTrajectory):
    """Spherical-wave intensity of one emitter, in photon-energy x decay-rate units.

    ``I = (1 / 4 pi r^2) * (1/2) * |b(t - r)|^2`` with the retarded time
    in the natural units where the propagation speed is 1; causally zero
    before the wavefront arrives.  ``t`` may be an array.
    """
    if r_bar <= 0.0:
        raise ValueError(f"r_bar must be positive, got {r_bar!r}")
    t = np.asarray(t, dtype=float)
    t_ret = t - r_bar
    b_sq = np.interp(t_ret, trajectory.times, np.abs(trajectory.b_values) ** 2)
    out = np.where(t_ret < 0.0, 0.0, b_sq / (8.0 * np.pi * r_bar * r_bar))
    return out if out.ndim else float(out)


def structure_factor(
    cloud: CloudGeometry,
    profile: PhaseProfile,
    count: int,
    seed: int,
    directions: DirectionGrid,
) -> DirectionGrid:
    """Monte-Carlo coherent emission pattern over a direction grid.

    ``S(n_hat) = |mean_j exp(i [(z_hat - n_hat) . r_j + phi(r_j)])|^2``
    over ``count`` atoms sampled from the cloud density.  Deterministic
    for a fixed seed.  The per-direction standard error of ``S`` is
    estimated from the sample variances of the phasor components
    (delta method) and returned alongside.

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
    var_s = 4.0 * (mr * mr * var_r + 2.0 * mr * mi * cov + mi * mi * var_i)
    shape = (thetas.size, phis.size)
    intensity = (mr * mr + mi * mi).reshape(shape)
    stderr = np.sqrt(np.maximum(var_s, 0.0)).reshape(shape)

    forward = None
    forward_rows = np.nonzero(thetas == 0.0)[0]
    if forward_rows.size:
        forward = float(intensity[forward_rows[0], 0])
        if forward > 0.0:
            intensity = intensity / forward
            stderr = stderr / forward

    return DirectionGrid(
        theta_values=thetas,
        phi_values=phis,
        intensity=intensity,
        stderr=stderr,
        forward_value=forward,
    )
