import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from gausscollect.special_math import (
    QuadratureError,
    gauss_hermite,
    integrate_adaptive,
)

SQRT_PI = math.sqrt(math.pi)


class TestGaussHermite:
    def test_single_node(self):
        rule = gauss_hermite(1)
        assert rule.nodes.tolist() == [0.0]
        assert_allclose(rule.weights, [SQRT_PI], rtol=1e-15)

    def test_two_nodes(self):
        rule = gauss_hermite(2)
        assert_allclose(sorted(rule.nodes), [-1 / math.sqrt(2), 1 / math.sqrt(2)], rtol=1e-14)
        assert_allclose(rule.weights, [SQRT_PI / 2, SQRT_PI / 2], rtol=1e-14)

    def test_quartic_moment(self):
        rule = gauss_hermite(20)
        val = float(np.sum(rule.weights * rule.nodes**4))
        assert_allclose(val, 3.0 * SQRT_PI / 4.0, rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 7, 20, 64, 128, 256, 512])
    def test_weight_sum_and_symmetry(self, n):
        rule = gauss_hermite(n)
        assert_allclose(rule.weights.sum(), SQRT_PI, rtol=1e-12)
        assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-12)
        assert np.all(rule.weights > 0.0)

    def test_gaussian_cosine_transform(self):
        rule = gauss_hermite(64)
        for b in np.linspace(0.0, 3.0, 13):
            val = float(np.sum(rule.weights * np.cos(2.0 * b * rule.nodes)))
            assert val == pytest.approx(SQRT_PI * math.exp(-b * b), abs=1e-10)

    def test_matches_numpy_hermgauss(self):
        for n in (5, 32, 96):
            rule = gauss_hermite(n)
            ref_x, ref_w = np.polynomial.hermite.hermgauss(n)
            assert_allclose(rule.nodes, ref_x, atol=2e-13)
            assert_allclose(rule.weights, ref_w, rtol=5e-12)

    @pytest.mark.parametrize("n", [0, -3, 513])
    def test_rejects_out_of_range(self, n):
        with pytest.raises(ValueError):
            gauss_hermite(n)

    def test_rules_cached_and_immutable(self):
        rule = gauss_hermite(16)
        assert rule is gauss_hermite(16)
        with pytest.raises(ValueError):
            rule.nodes[0] = 1.0


class TestIntegrateAdaptive:
    def test_linear(self):
        res = integrate_adaptive(lambda x: x, 0.0, 1.0, 1e-12)
        assert res.value == pytest.approx(0.5, abs=1e-12)

    def test_gaussian_normalization(self):
        res = integrate_adaptive(lambda x: np.exp(-x * x / 2.0), -8.0, 8.0, 1e-11)
        assert res.value == pytest.approx(2.50662827463100050241576528481, abs=1e-10)

    def test_complex_gaussian_fourier(self):
        res = integrate_adaptive(
            lambda x: np.exp(1j * x) * np.exp(-x * x), -8.0, 8.0, 1e-11
        )
        assert abs(res.value - 1.38038844704314297477341524673) < 1e-10

    def test_reports_error_estimate(self):
        res = integrate_adaptive(lambda x: np.sin(x), 0.0, math.pi, 1e-9)
        assert res.error <= 1e-9 * max(1.0, abs(res.value))
        assert abs(res.value - 2.0) <= max(res.error, 1e-12)

    def test_breakpoints_accepted(self):
        res = integrate_adaptive(
            lambda x: np.abs(x), -1.0, 1.0, 1e-12, breakpoints=[0.0]
        )
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_budget_exhaustion_signals(self):
        with pytest.raises(QuadratureError):
            integrate_adaptive(
                lambda x: np.sin(1.0 / (np.abs(x) + 1e-12)),
                0.0, 1.0, 1e-14, max_evals=500,
            )

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_adaptive(lambda x: x, 1.0, 0.0, 1e-8)

    @given(st.floats(min_value=0.3, max_value=4.0), st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=25, deadline=None)
    def test_gaussian_family(self, width, shift):
        res = integrate_adaptive(
            lambda x: np.exp(-((x - shift) / width) ** 2), -30.0, 30.0, 1e-10
        )
        assert res.value == pytest.approx(width * SQRT_PI, rel=1e-9)
