import math

import pytest

from gausscollect.paraxial_beam import BeamGeometry, ParaxialValidityWarning


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
        with pytest.warns(ParaxialValidityWarning) as record:
            BeamGeometry(1.5)
        # the warning names the constructing line, not the generated __init__
        assert record[0].filename == __file__
