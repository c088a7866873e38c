import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gausscollect.paraxial_beam import (
    BeamGeometry,
    ParaxialValidityWarning,
    beam_width,
    gouy_phase,
    mode_amplitude,
    mode_amplitude_expanded,
)
from gausscollect.special_math import integrate_adaptive


@pytest.fixture
def beam():
    return BeamGeometry(10.0)


class TestGeometry:
    def test_rayleigh_is_derived(self, beam):
        assert beam.rayleigh_bar == 50.0

    def test_rejects_nonpositive_waist(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                BeamGeometry(bad)

    def test_subwavelength_waist_warns(self):
        with pytest.warns(ParaxialValidityWarning):
            BeamGeometry(1.5)

    def test_width_at_focus(self, beam):
        assert beam_width(beam, 0.0) == beam.w0_bar

    def test_width_at_rayleigh(self, beam):
        assert_allclose(beam_width(beam, beam.rayleigh_bar), math.sqrt(2.0) * 10.0, rtol=1e-15)

    def test_width_far_field(self, beam):
        # also equals |q| w0 / zR
        assert_allclose(beam_width(beam, 500.0), 10.0 * math.sqrt(101.0), rtol=1e-14)
        q_mag = abs(500.0 + 1j * beam.rayleigh_bar)
        assert_allclose(beam_width(beam, 500.0), q_mag * 10.0 / 50.0, rtol=1e-14)

    def test_gouy(self, beam):
        assert gouy_phase(beam, 0.0) == 0.0
        assert gouy_phase(beam, beam.rayleigh_bar) == pytest.approx(math.pi / 4)
        assert abs(gouy_phase(beam, 100.0 * beam.rayleigh_bar) - math.pi / 2) < 0.01
        assert gouy_phase(beam, -3.0) == -gouy_phase(beam, 3.0)


def at(*point):
    """One position as the ``(1, 3)`` array the mode functions take."""
    return np.array([point], dtype=float)


class TestModeAmplitude:
    def test_focus_value(self, beam):
        assert mode_amplitude(beam, at(0.0, 0.0, 0.0))[0] == pytest.approx(1j)

    def test_on_axis_modulus(self, beam):
        z = np.array([0.0, 13.0, -220.0])
        v = mode_amplitude(beam, np.column_stack([0.0 * z, 0.0 * z, z]))
        assert_allclose(np.abs(v), beam.w0_bar / beam_width(beam, z), rtol=1e-13)

    def test_forms_agree_at_sample_point(self, beam):
        p = at(3.0, -4.0, 7.0)
        assert abs(mode_amplitude(beam, p) - mode_amplitude_expanded(beam, p))[0] < 1e-12

    @given(
        st.floats(min_value=-30.0, max_value=30.0),
        st.floats(min_value=-30.0, max_value=30.0),
        st.floats(min_value=-500.0, max_value=500.0),
        st.floats(min_value=2.0, max_value=40.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_forms_agree_and_bounded(self, x, y, z, w0):
        beam = BeamGeometry(w0)
        p = at(x, y, z)
        compact = mode_amplitude(beam, p)[0]
        assert abs(compact - mode_amplitude_expanded(beam, p)[0]) < 1e-12
        assert abs(compact) <= 1.0 + 1e-12

    def test_forms_agree_on_large_random_cloud(self, beam):
        rng = np.random.default_rng(0)
        pts = rng.normal(0.0, 1.0, size=(1000, 3)) * np.array([15.0, 15.0, 200.0])
        worst = np.max(np.abs(mode_amplitude(beam, pts) - mode_amplitude_expanded(beam, pts)))
        assert worst < 1e-12

    def test_modulus_one_only_at_focus(self, beam):
        pts = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.0, 0.1]])
        modulus = np.abs(mode_amplitude(beam, pts))
        assert modulus[0] == pytest.approx(1.0)
        assert np.all(modulus[1:] < 1.0)

    @pytest.mark.parametrize("z_factor", [0.0, 1.0, 10.0])
    def test_transverse_power_conserved(self, beam, z_factor):
        # integral |v|^2 dx dy = pi w0^2 / 2 at every axial position
        z = z_factor * beam.rayleigh_bar
        w = float(beam_width(beam, z))

        def radial(r):
            r = np.atleast_1d(r)
            v = mode_amplitude(beam, np.column_stack([r, 0.0 * r, np.full_like(r, z)]))
            return 2.0 * math.pi * r * np.abs(v) ** 2

        res = integrate_adaptive(radial, 0.0, 8.0 * w, 1e-9)
        assert res.value.real == pytest.approx(math.pi * beam.w0_bar**2 / 2.0, rel=1e-8)
