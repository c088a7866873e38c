import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

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
from gausscollect.paraxial_beam import BeamGeometry


def at(*point):
    """One position as the ``(1, 3)`` array the position functions take."""
    return np.array([point], dtype=float)


class TestCloudGeometry:
    def test_validation(self):
        with pytest.raises(ValueError):
            CloudGeometry(0.0, 1.0)
        with pytest.raises(ValueError):
            CloudGeometry(1.0, -1.0)

    def test_pancake_allowed(self):
        assert CloudGeometry(2.0, 0.0).sigma_z_bar == 0.0


class TestSampler:
    def test_deterministic(self):
        cloud = CloudGeometry(5.0, 100.0)
        a = sample_positions(cloud, 1000, seed=7)
        b = sample_positions(cloud, 1000, seed=7)
        assert np.array_equal(a, b)
        c = sample_positions(cloud, 1000, seed=8)
        assert not np.array_equal(a, c)

    def test_single_point(self):
        p = sample_positions(CloudGeometry(1.0, 1.0), 1, seed=1)
        assert p.shape == (1, 3)
        assert np.all(np.isfinite(p))

    def test_moments(self):
        cloud = CloudGeometry(4.0, 60.0)
        n = 100_000
        pts = sample_positions(cloud, n, seed=123)
        scales = np.array([4.0, 4.0, 60.0])
        assert np.all(np.abs(pts.mean(axis=0)) < 5.0 * scales / math.sqrt(n))
        assert_allclose(pts.std(axis=0), scales, rtol=0.02)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            sample_positions(CloudGeometry(1.0, 1.0), 0, seed=0)
        with pytest.raises(ValueError):
            sample_positions(CloudGeometry(1.0, 0.0), 5, seed=0)


class TestPhaseProfiles:
    def test_variant_beam_pairing(self):
        beam = BeamGeometry(10.0)
        with pytest.raises(ValueError):
            PhaseProfile(UNIFORM, beam)
        with pytest.raises(ValueError):
            PhaseProfile(GOUY_COMPENSATED, None)
        with pytest.raises(ValueError):
            PhaseProfile("twisted", beam)
        assert make_profile(UNIFORM).variant == UNIFORM
        assert make_profile(FULL_GAUSSIAN, 10.0).reference_beam.w0_bar == 10.0
        with pytest.raises(ValueError):
            make_profile(GOUY_COMPENSATED)

    def test_subwavelength_profile_warns_at_the_caller(self):
        from gausscollect.paraxial_beam import ParaxialValidityWarning

        with pytest.warns(ParaxialValidityWarning) as record:
            make_profile(GOUY_COMPENSATED, 1.5)
        # the warning names this line, not make_profile's
        assert record[0].filename == __file__

    def test_uniform_is_zero(self):
        prof = make_profile(UNIFORM)
        assert phase_at_points(prof, at(1.0, -2.0, 3.0))[0] == 0.0

    def test_gouy_value(self):
        beam = BeamGeometry(10.0)
        prof = PhaseProfile(GOUY_COMPENSATED, beam)
        assert phase_at_points(prof, at(0, 0, beam.rayleigh_bar))[0] == pytest.approx(-math.pi / 4)

    def test_full_gaussian_value(self):
        beam = BeamGeometry(10.0)  # zR = 50, R(zR) = 100
        prof = PhaseProfile(FULL_GAUSSIAN, beam)
        expect = 4.0 / 200.0 - math.pi / 4.0
        assert phase_at_points(prof, at(2.0, 0.0, 50.0))[0] == pytest.approx(expect, rel=1e-13)

    def test_full_gaussian_focus_is_gouy_free(self):
        prof = PhaseProfile(FULL_GAUSSIAN, BeamGeometry(6.0))
        assert phase_at_points(prof, at(3.0, 1.0, 0.0))[0] == 0.0

    @given(
        st.floats(min_value=-20.0, max_value=20.0),
        st.floats(min_value=-20.0, max_value=20.0),
        st.floats(min_value=-300.0, max_value=300.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_symmetries(self, x, y, z):
        beam = BeamGeometry(8.0)
        pair = np.array([[x, y, z], [x, y, -z]])
        gouy = phase_at_points(PhaseProfile(GOUY_COMPENSATED, beam), pair)
        assert gouy[0] == pytest.approx(-gouy[1], abs=1e-12)
        # curvature part even in z, Gouy part odd
        full = phase_at_points(PhaseProfile(FULL_GAUSSIAN, beam), pair)
        assert 0.5 * (full[0] + full[1]) == pytest.approx(0.0, abs=1e-12)
