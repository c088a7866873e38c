import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gausscollect.emission_dynamics import AmplitudeTrajectory, PulseShape, integrate_amplitudes
from gausscollect import far_field
from gausscollect.ensemble_model import (
    FULL_GAUSSIAN,
    GOUY_COMPENSATED,
    UNIFORM,
    CloudGeometry,
    PhaseProfile,
    make_profile,
    phase_at_points,
    sample_positions,
)
from gausscollect.far_field import DirectionGrid, direction_grid, single_atom_intensity, structure_factor


def form_factor(theta, sp, sz):
    """Gaussian density form factor |FT rho/N|^2 at q = z_hat - n_hat."""
    q_perp = math.sin(theta)
    q_z = 1.0 - math.cos(theta)
    return math.exp(-(q_perp * sp) ** 2 - (q_z * sz) ** 2)


@pytest.fixture
def decay_trajectory():
    return integrate_amplitudes(PulseShape.constant(0.0), 0.0, 60.0, 0.005, c0=0.0, b0=1.0)


class TestSingleAtomIntensity:
    def test_causality(self, decay_trajectory):
        assert single_atom_intensity(5.0, 3.0, decay_trajectory) == 0.0

    def test_wavefront_value(self, decay_trajectory):
        # fully excited emitter at zero retarded time
        value = single_atom_intensity(1.0, 1.0, decay_trajectory)
        assert value == pytest.approx(1.0 / (4.0 * math.pi) * 0.5, rel=1e-6)

    def test_rejects_origin(self, decay_trajectory):
        with pytest.raises(ValueError):
            single_atom_intensity(0.0, 1.0, decay_trajectory)

    def test_shell_energy_matches_decay_bookkeeping(self, decay_trajectory):
        # with the spherical-wave normalization used here, the radiated
        # energy is half the lost excitation (per photon-energy unit)
        r = 3.0
        t = r + np.linspace(0.0, 60.0, 120_001)
        intensity = single_atom_intensity(r, t, decay_trajectory)
        total = 4.0 * math.pi * r * r * np.trapezoid(intensity, t)
        lost = (
            1.0
            - abs(decay_trajectory.c_values[-1]) ** 2
            - abs(decay_trajectory.b_values[-1]) ** 2
        )
        assert total == pytest.approx(0.5 * lost, rel=1e-3)


class TestStructureFactor:
    def test_forward_is_exactly_one_for_uniform(self):
        cloud = CloudGeometry(5.0, 50.0)
        grid = structure_factor(
            cloud, PhaseProfile.uniform(), 20_000, 3,
            direction_grid([0.0, 0.3], [0.0, 1.0]),
        )
        assert grid.intensity[0, 0] == 1.0
        assert grid.intensity[0, 1] == 1.0
        assert grid.forward_value == 1.0
        assert grid.stderr[0, 0] == 0.0

    def test_small_angle_matches_form_factor(self):
        sp, sz = 5.0, 50.0
        theta = 0.5 / sp
        cloud = CloudGeometry(sp, sz)
        grid = structure_factor(
            cloud, PhaseProfile.uniform(), 100_000, 42,
            direction_grid([0.0, theta], [0.0]),
        )
        expect = form_factor(theta, sp, sz)
        assert abs(grid.intensity[1, 0] - expect) <= 3.0 * grid.stderr[1, 0]

    def test_backward_suppression(self):
        cloud = CloudGeometry(5.0, 100.0)
        grid = structure_factor(
            cloud, PhaseProfile.uniform(), 100_000, 11,
            direction_grid([0.0, math.pi], [0.0]),
        )
        assert grid.intensity[1, 0] < 1e-3

    def test_deterministic(self):
        cloud = CloudGeometry(4.0, 40.0)
        d = direction_grid([0.0, 0.2], [0.0])
        a = structure_factor(cloud, PhaseProfile.uniform(), 5000, 9, d)
        b = structure_factor(cloud, PhaseProfile.uniform(), 5000, 9, d)
        assert np.array_equal(a.intensity, b.intensity)

    def test_azimuthal_symmetry(self):
        cloud = CloudGeometry(6.0, 30.0)
        m = 40_000
        grid = structure_factor(
            cloud, PhaseProfile.uniform(), m, 5,
            direction_grid([0.08], np.linspace(0.0, 2 * math.pi, 8, endpoint=False)),
        )
        spread = grid.intensity[0].max() - grid.intensity[0].min()
        assert spread < 5.0 / math.sqrt(m)

    def test_bounded_up_to_noise(self):
        cloud = CloudGeometry(3.0, 20.0)
        m = 50_000
        grid = structure_factor(
            cloud, make_profile(GOUY_COMPENSATED, 8.0), m, 21,
            direction_grid(np.linspace(0.0, math.pi, 12), [0.0]),
        )
        # raw values are normalized by the forward cell; undo to check the bound
        raw = grid.intensity * grid.forward_value
        assert np.all(raw <= 1.0 + 5.0 / math.sqrt(m))

    def test_doubling_samples_halves_incoherent_floor(self):
        cloud = CloudGeometry(5.0, 100.0)
        d = direction_grid([math.pi], [0.0])
        floors = {}
        for m in (4000, 8000):
            vals = [
                structure_factor(cloud, PhaseProfile.uniform(), m, seed, d).intensity[0, 0]
                for seed in range(24)
            ]
            floors[m] = np.mean(vals)
        ratio = floors[4000] / floors[8000]
        assert 1.4 < ratio < 2.8

    def test_compensated_profile_forward_normalization(self):
        cloud = CloudGeometry(4.0, 60.0)
        grid = structure_factor(
            cloud, make_profile(GOUY_COMPENSATED, 9.0), 20_000, 2,
            direction_grid([0.0, 0.1], [0.0]),
        )
        # imprinted phase de-coheres the plane-wave forward sum
        assert grid.forward_value < 1.0
        assert grid.intensity[0, 0] == 1.0  # normalized to the forward cell


def structure_factor_reference(cloud, profile, count, seed, thetas, phis):
    """Unblocked formulas: direction chunks over all atoms, two-pass variances."""
    positions = sample_positions(cloud, count, seed)
    spin_phase = phase_at_points(profile, positions)
    q = np.empty((thetas.size, phis.size, 3))
    q[..., 0] = -np.sin(thetas)[:, None] * np.cos(phis)[None, :]
    q[..., 1] = -np.sin(thetas)[:, None] * np.sin(phis)[None, :]
    q[..., 2] = (1.0 - np.cos(thetas))[:, None]
    q_flat = q.reshape(-1, 3)
    intensity = np.empty(q_flat.shape[0])
    stderr = np.empty(q_flat.shape[0])
    m = float(count)
    chunk = max(1, int(2_000_000 // count))
    for start in range(0, q_flat.shape[0], chunk):
        block = q_flat[start:start + chunk]
        phases = positions @ block.T + spin_phase[:, None]
        cos_p = np.cos(phases)
        sin_p = np.sin(phases)
        mr = cos_p.mean(axis=0)
        mi = sin_p.mean(axis=0)
        var_r = cos_p.var(axis=0) / m
        var_i = sin_p.var(axis=0) / m
        cov = ((cos_p * sin_p).mean(axis=0) - mr * mi) / m
        var_s = 4.0 * (mr * mr * var_r + 2.0 * mr * mi * cov + mi * mi * var_i)
        intensity[start:start + chunk] = mr * mr + mi * mi
        stderr[start:start + chunk] = np.sqrt(np.maximum(var_s, 0.0))
    forward = intensity[0]
    shape = (thetas.size, phis.size)
    return (intensity / forward).reshape(shape), (stderr / forward).reshape(shape)


_THETAS = np.array([0.0, 1e-3, 0.05, 0.3, 1.0, math.pi])
_PHIS = np.linspace(0.0, 2.0 * math.pi, 4, endpoint=False)
_ONE_BLOCK = far_field._BLOCK_PHASORS // (_THETAS.size * _PHIS.size)


@pytest.mark.parametrize("variant", [UNIFORM, GOUY_COMPENSATED, FULL_GAUSSIAN])
@pytest.mark.parametrize("count", [1, 100, _ONE_BLOCK, 2 * _ONE_BLOCK + 7])
def test_blocked_moments_match_unblocked_formulas(variant, count):
    # the near-forward 1e-3 direction has phases that hardly spread, where
    # raw (unshifted) moments lose the variance to cancellation
    cloud = CloudGeometry(5.0, 50.0)
    profile = make_profile(variant, 9.0)
    grid = structure_factor(cloud, profile, count, 17, direction_grid(_THETAS, _PHIS))
    intensity, stderr = structure_factor_reference(cloud, profile, count, 17, _THETAS, _PHIS)
    assert np.max(np.abs(grid.intensity - intensity)) <= 1e-12
    assert np.max(np.abs(grid.stderr - stderr)) <= 1e-12


class TestDirectionGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            DirectionGrid(np.array([]), np.array([0.0]))
        with pytest.raises(ValueError):
            DirectionGrid(np.array([0.0]), np.array([0.0]), intensity=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            DirectionGrid(np.array([0.0]), np.array([0.0]), intensity=-np.ones((1, 1)))
